-- ORDER BY without LIMIT over a float key that holds NaN and NULL.
-- The runner used to compare answers as multisets only, so an ORDER BY
-- that emitted these rows in the wrong sequence agreed with the oracle
-- in every config; it now also checks each emitted sequence against the
-- sort keys. sqrt of a negative is NaN (the total order decides where
-- it sorts, whatever its sign bit), ids divisible by 3 are NULL and go
-- last, and the two NaN rows tie on the first key so the second key
-- must order them. `mem_tight` runs this through spilled sort runs.
-- expect: [Int64(0), Null]
-- expect: [Int64(1), Float64(2.23606797749979)]
-- expect: [Int64(2), Float64(2.0)]
-- expect: [Int64(3), Null]
-- expect: [Int64(4), Float64(1.4142135623730951)]
-- expect: [Int64(5), Float64(1.0)]
-- expect: [Int64(6), Null]
-- expect: [Int64(7), Float64(NaN)]
-- expect: [Int64(8), Float64(NaN)]
SELECT id, CASE WHEN id % 3 = 0 THEN NULL ELSE sqrt(6.0 - id) END AS r
FROM customers
WHERE id < 9
ORDER BY 2 DESC NULLS LAST, 1
