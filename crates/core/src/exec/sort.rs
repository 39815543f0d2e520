//! The mediator's ORDER BY: [`gis_types::ordering`]'s sort kernel
//! under the memory governor.
//!
//! The kernel's working set is one [`SortEntry`] per input row. When
//! the budget grants it, the rows are encoded, sorted (or top-`fetch`
//! selected) and gathered in memory. When it does not, the sort
//! degrades like the hash kernels do: the input is cut into runs that
//! fit, each run is sorted and written through [`gis_storage::spill`]
//! as fixed `(row, key prefix)` records, and the runs are merged back
//! into the index vector with the kernel's own comparator. The input
//! columns stay in memory, as with spilled joins — prefix ties are
//! settled against them. Under `fetch` every run keeps only its own
//! top `fetch` and the merge stops after `fetch` rows.

use crate::exec::keys::{KernelGov, KernelStats, MemScope, CKPT_ROWS};
use crate::exec::physical::PhysicalSortKey;
use crate::expr::eval::evaluate;
use gis_storage::spill::{SpillFile, SpillReader, SpillRecord, SpillWriter};
use gis_types::ordering::{RowOrder, SortEntry, SORT_ENTRY_BYTES};
use gis_types::{Array, Batch, GisError, Result, SortKey};
use std::time::Instant;

/// Most runs a spilled sort writes: bounds the merge fan-in (one open
/// file and one comparison per run per output row). A budget too small
/// for `rows / SORT_MAX_RUNS` entries is overdrawn rather than obeyed —
/// the same last resort the hash kernels take at their maximum depth.
const SORT_MAX_RUNS: u64 = 16;
/// Runs are never shorter than this many rows: below it a run file
/// costs more than the memory it saves.
const SORT_RUN_FLOOR: u64 = 256;

/// Orders `batch` under `keys`, keeping the first `fetch` rows when
/// given (`LIMIT` folded into the sort).
pub fn sort_batch(
    batch: &Batch,
    keys: &[PhysicalSortKey],
    fetch: Option<usize>,
    gov: &KernelGov<'_>,
) -> Result<(Batch, KernelStats)> {
    gov.checkpoint()?;
    let mem = MemScope::new(*gov);
    let n = batch.num_rows();
    let t0 = Instant::now();
    let key_columns: Vec<Array> = keys
        .iter()
        .map(|k| evaluate(&k.expr, batch))
        .collect::<Result<_>>()?;
    let sort_keys: Vec<SortKey> = keys
        .iter()
        .enumerate()
        .map(|(column, k)| SortKey::new(column, k.asc, k.nulls_first))
        .collect();
    let order = RowOrder::new(&key_columns, n, &sort_keys);
    let out_rows = fetch.map_or(n, |k| k.min(n));
    let in_memory = mem.reserve_spillable(n as u64 * SORT_ENTRY_BYTES, "order-by sort entries")?;
    let reserve_index = || mem.reserve_required(out_rows as u64 * 8, "order-by index vector");
    let (idx, runs, build_us, merge_from) = if in_memory {
        let mut entries = order.entries(0..n);
        let build_us = t0.elapsed().as_micros() as u64;
        let t1 = Instant::now();
        order.sort(&mut entries, fetch);
        reserve_index()?;
        let idx: Vec<usize> = entries.iter().map(|e| e.row as usize).collect();
        (idx, Vec::new(), build_us, t1)
    } else {
        gov.budget().note_spill_event();
        let runs = write_runs(&order, fetch, gov, &mem)?;
        let build_us = t0.elapsed().as_micros() as u64;
        let t1 = Instant::now();
        // After the run buffer went back: the runs get the room.
        reserve_index()?;
        let idx = merge_runs(&order, &runs, out_rows, gov)?;
        (idx, runs, build_us, t1)
    };
    let stats = KernelStats {
        mode: match (order.is_exact(), in_memory) {
            (true, true) => "sort",
            (true, false) => "sort-spill",
            (false, true) => "sort-prefix",
            (false, false) => "sort-prefix-spill",
        },
        partitions: runs.len().max(1),
        build_us,
        probe_us: merge_from.elapsed().as_micros() as u64,
        mem_bytes: mem.peak(),
        spill_bytes: runs.iter().map(SpillFile::bytes).sum(),
        spill_parts: runs.len(),
    };
    Ok((batch.take(&idx), stats))
}

/// Cuts the input into runs of as many rows as the budget has room
/// for, sorts each and writes it out. Disk bytes are charged against
/// the budget's spill cap.
fn write_runs(
    order: &RowOrder<'_>,
    fetch: Option<usize>,
    gov: &KernelGov<'_>,
    mem: &MemScope<'_>,
) -> Result<Vec<SpillFile>> {
    let n = order.num_rows();
    let budget = gov.budget();
    let room = budget.soft_limit().saturating_sub(budget.used()) / SORT_ENTRY_BYTES;
    let run_rows = room
        .max((n as u64).div_ceil(SORT_MAX_RUNS))
        .max(SORT_RUN_FLOOR)
        .min(n as u64);
    let run_bytes = run_rows * SORT_ENTRY_BYTES;
    mem.reserve_required(run_bytes, "order-by run buffer")?;
    let mut runs = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        gov.checkpoint()?;
        let hi = (lo + run_rows as usize).min(n);
        let mut entries = order.entries(lo..hi);
        order.sort(&mut entries, fetch);
        let mut writer = SpillWriter::create(budget.spill_dir().map(|p| p.as_path()), true)?;
        for chunk in entries.chunks(CKPT_ROWS) {
            gov.checkpoint()?;
            for e in chunk {
                writer.push(SpillRecord::Fixed {
                    row: e.row,
                    key: e.prefix,
                })?;
            }
        }
        budget
            .charge_spill(writer.bytes())
            .map_err(|p| p.into_error("order-by run"))?;
        runs.push(writer.finish()?);
        lo = hi;
    }
    mem.release(run_bytes);
    Ok(runs)
}

/// One run's cursor: the entry at its head and the file behind it.
struct RunHead<'a> {
    entry: SortEntry,
    rest: SpillReader<'a>,
}

fn next_entry(reader: &mut SpillReader<'_>) -> Result<Option<SortEntry>> {
    match reader.next_record()? {
        Some(SpillRecord::Fixed { row, key }) => Ok(Some(SortEntry { prefix: key, row })),
        Some(SpillRecord::Hashed { .. }) => Err(GisError::Internal(
            "hashed record in an order-by run".into(),
        )),
        None => Ok(None),
    }
}

/// Merges the sorted runs into the first `out_rows` row indices. The
/// fan-in is at most [`SORT_MAX_RUNS`], so the smallest head is found
/// by scanning the heads.
fn merge_runs(
    order: &RowOrder<'_>,
    runs: &[SpillFile],
    out_rows: usize,
    gov: &KernelGov<'_>,
) -> Result<Vec<usize>> {
    let mut heads = Vec::with_capacity(runs.len());
    for run in runs {
        let mut rest = run.reader()?;
        if let Some(entry) = next_entry(&mut rest)? {
            heads.push(RunHead { entry, rest });
        }
    }
    let mut idx = Vec::with_capacity(out_rows);
    while idx.len() < out_rows {
        if idx.len() % CKPT_ROWS == 0 {
            gov.checkpoint()?;
        }
        let Some(min) =
            (0..heads.len()).min_by(|&a, &b| order.compare(&heads[a].entry, &heads[b].entry))
        else {
            break;
        };
        idx.push(heads[min].entry.row as usize);
        match next_entry(&mut heads[min].rest)? {
            Some(entry) => heads[min].entry = entry,
            None => {
                heads.swap_remove(min);
            }
        }
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use gis_types::mem::MemBudget;
    use gis_types::{DataType, Field, Schema, Value};

    fn batch(n: i64) -> Batch {
        // Key column with duplicates so run boundaries split ties.
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Int64((i * 7919) % 97), Value::Int64(i)])
            .collect();
        Batch::from_rows(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("id", DataType::Int64),
            ])
            .into_ref(),
            &rows,
        )
        .unwrap()
    }

    fn keys() -> Vec<PhysicalSortKey> {
        vec![PhysicalSortKey {
            expr: ScalarExpr::col(0),
            asc: false,
            nulls_first: true,
        }]
    }

    #[test]
    fn spilled_runs_merge_to_the_in_memory_order() {
        let b = batch(3000);
        let (expected, stats) = sort_batch(&b, &keys(), None, &KernelGov::unbounded()).unwrap();
        assert_eq!(stats.mode, "sort");
        for fetch in [None, Some(0), Some(1), Some(700), Some(5000)] {
            let budget = MemBudget::standalone(1, 1 << 30);
            let gov = KernelGov::new(&budget, None, 7);
            let (got, stats) = sort_batch(&b, &keys(), fetch, &gov).unwrap();
            assert_eq!(stats.mode, "sort-spill");
            assert_eq!(stats.spill_parts, 12, "3000 rows in 256-row runs");
            let want = expected.slice(0, fetch.unwrap_or(usize::MAX));
            assert_eq!(got, want, "fetch {fetch:?}");
            assert_eq!(budget.used(), 0, "every reservation returned");
            assert_eq!(budget.spill_events(), 1);
        }
    }

    #[test]
    fn spill_disabled_kills_instead() {
        let budget = MemBudget::standalone(1, 0);
        let gov = KernelGov::new(&budget, None, 7);
        let err = sort_batch(&batch(10), &keys(), None, &gov).unwrap_err();
        assert_eq!(err.code(), "MEM", "{err}");
        assert_eq!(budget.used(), 0);
    }
}
