//! The shared vectorized key pipeline driving the mediator kernels.
//!
//! Hash join, GROUP BY and DISTINCT all need the same thing: "which
//! rows share a key tuple?". The old kernels answered it by building
//! a boxed `Vec<Value>` per row — one heap allocation plus enum
//! dispatch on the hot path. This module answers it columnar:
//!
//! * [`group_rows`] assigns every row a dense group id (first
//!   occurrence defines the group, ids numbered in first-occurrence
//!   order), which is GROUP BY and DISTINCT in one primitive.
//! * [`equi_join_pairs`] produces the matched `(left, right)` row
//!   pairs of an equi-join, NULL keys excluded, in the exact
//!   lexicographic order the serial reference emits.
//!
//! Both pick one of two representations per call. When
//! [`gis_types::keys::FixedKeyLayout`] covers the key tuple, rows
//! encode to exact `u128`s and the table needs no collision
//! verification at all; a grouping key too wide only because of its
//! strings gets there too, each string column shrunk to a four-byte
//! dictionary code first
//! ([`gis_types::keys::encode_fixed_coded`]). Otherwise rows get a 64-bit vectorized hash
//! ([`gis_types::keys::hash_rows`]) and bucket candidates are
//! verified with the columnar equality kernel
//! ([`gis_types::keys::rows_eq`]) — never by materializing `Value`s.
//!
//! Both run on the calling thread: a federated query's time is on the
//! wire between sources, not here (DESIGN.md, *Serial kernels*).
//!
//! ## The memory governor
//!
//! Every allocation the kernels make is *reserved first* against a
//! [`KernelGov`] — a per-query [`gis_types::mem::MemBudget`] plus
//! the query deadline. When a table reservation trips the soft
//! limit the kernel degrades instead of dying: key tags are
//! radix-spilled to [`gis_storage::spill`] temp files (16-way on
//! routing-hash bits 8..) and partitions are processed one at a
//! time, recursing up to [`SPILL_MAX_DEPTH`] levels when a partition
//! is still too big. Equal keys share a routing hash, so no group or
//! match spans two spill partitions, and merging partition results by
//! first-occurrence row (groups) or by sorting (join pairs) makes
//! spilled output bit-identical to the in-memory path. When no
//! degradation is left — spill disabled, the disk cap hit, or the
//! process pool exhausted — the query is killed cooperatively with
//! [`GisError::ResourceExhausted`], checked (together with the
//! deadline) every [`CKPT_ROWS`] rows inside build, probe, and spill
//! loops.

use gis_observe::span::format_us;
use gis_observe::Span;
use gis_storage::spill::{SpillFile, SpillRecord, SpillWriter};
use gis_types::error::{GisError, Result};
use gis_types::keys::{
    encode_fixed, encode_fixed_coded, hash_rows, hash_u128, rows_eq, BuildPrehashed, FixedKeyLayout,
};
use gis_types::mem::{MemBudget, MemPressure, UNLIMITED};
use gis_types::Array;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Chain-list terminator for the intrusive hash-table chains below.
const NONE: u32 = u32::MAX;

/// A `HashMap` keyed by pre-mixed hashes/encodings: no SipHash pass.
type PrehashedMap<K, V> = HashMap<K, V, BuildPrehashed>;

fn prehashed_map<K, V>(cap: usize) -> PrehashedMap<K, V> {
    HashMap::with_capacity_and_hasher(cap, BuildPrehashed)
}

/// The key kernels' one test hook.
#[derive(Debug, Clone, Copy)]
pub struct KernelOptions {
    /// Mask AND-ed onto every row hash. `u64::MAX` in production; a
    /// narrow mask (e.g. `0xF`) forces bucket collisions so tests can
    /// exercise the columnar verification path (it also disables the
    /// fixed-key fast path, which never collides).
    pub hash_mask: u64,
}

impl Default for KernelOptions {
    /// Production hashing.
    fn default() -> KernelOptions {
        KernelOptions {
            hash_mask: u64::MAX,
        }
    }
}

/// Cooperative-cancellation cadence: budget-kill and deadline checks
/// run every this many rows inside kernel loops.
pub const CKPT_ROWS: usize = 4096;
const CKPT_MASK: usize = CKPT_ROWS - 1;

/// Spill fan-out: partitions per level of the radix spill.
const SPILL_FAN: usize = 16;
/// Maximum spill recursion depth; a partition still over budget at
/// this depth is processed in memory with a forced reservation
/// rather than killed (the alternative would never terminate on
/// degenerate keys).
pub const SPILL_MAX_DEPTH: u32 = 8;
/// Partitions at or below this many records are never re-spilled:
/// recursion cannot meaningfully shrink them, and without a floor a
/// very tight budget would cascade tiny files 16-way per level.
const SPILL_FORCE_FLOOR: u64 = 1024;

/// Spill routing: 4 bits per level starting at bit 8 of the routing
/// hash. The start bit is part of the spill-file layout: moving it
/// would change which file every row lands in.
fn spill_bucket(route: u64, depth: u32) -> usize {
    ((route >> (8 + 4 * depth)) & (SPILL_FAN as u64 - 1)) as usize
}

/// Estimated table bytes per input row (hash-map entry, chain links,
/// and the kernel's output share) — deliberately a round pessimistic
/// constant: the governor bounds order-of-magnitude blowups, not
/// malloc bytes.
const GROUP_TABLE_COST: u64 = 32;
/// Estimated build-table bytes per build-side row for joins.
const JOIN_BUILD_COST: u64 = 28;
/// Join output pairs are reserved in chunks of this many pairs.
const PAIR_CHUNK: usize = 4096;

/// The per-kernel governor handle: the query's memory budget plus
/// its deadline, threaded from `ExecContext` into every kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelGov<'a> {
    budget: &'a MemBudget,
    deadline: Option<Instant>,
    query_id: u64,
}

impl<'a> KernelGov<'a> {
    /// A governor for one query.
    pub fn new(budget: &'a MemBudget, deadline: Option<Instant>, query_id: u64) -> KernelGov<'a> {
        KernelGov {
            budget,
            deadline,
            query_id,
        }
    }

    /// No budget, no deadline: the pre-governor behavior. Kernels
    /// run under this handle can never fail or spill.
    pub fn unbounded() -> KernelGov<'static> {
        KernelGov {
            budget: &UNLIMITED,
            deadline: None,
            query_id: 0,
        }
    }

    /// The budget behind this governor.
    pub fn budget(&self) -> &'a MemBudget {
        self.budget
    }

    /// True for the shared no-op budget: accounting is skipped
    /// entirely so ungoverned kernels pay nothing.
    fn is_unbounded(&self) -> bool {
        std::ptr::eq(self.budget, &UNLIMITED)
    }

    /// Cooperative cancellation point: errors when the budget was
    /// killed (pool or disk exhaustion, possibly by another operator
    /// of the same query) or the query deadline has passed. Kernel
    /// loops call this every [`CKPT_ROWS`] rows.
    pub fn checkpoint(&self) -> Result<()> {
        if self.budget.is_killed() {
            return Err(GisError::ResourceExhausted(format!(
                "query {} cancelled mid-kernel: memory budget exhausted",
                self.query_id
            )));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(GisError::Deadline(format!(
                    "query {} exceeded its deadline; kernel cancelled mid-partition",
                    self.query_id
                )));
            }
        }
        Ok(())
    }
}

/// Scoped reservation ledger for one kernel invocation: tracks what
/// this kernel reserved so everything is returned on drop — success,
/// spill, and kill paths alike.
pub(crate) struct MemScope<'a> {
    gov: KernelGov<'a>,
    reserved: AtomicU64,
    peak: AtomicU64,
}

impl<'a> MemScope<'a> {
    pub fn new(gov: KernelGov<'a>) -> MemScope<'a> {
        MemScope {
            gov,
            reserved: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn note(&self, bytes: u64) {
        let next = self
            .reserved
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        self.peak.fetch_max(next, Ordering::Relaxed);
    }

    /// Reserves bytes the kernel could avoid by spilling. `Ok(true)`
    /// = reserved; `Ok(false)` = soft-limit pressure and spilling is
    /// available — degrade instead; `Err` = kill (pool exhausted, or
    /// soft limit hit with spilling disabled).
    pub fn reserve_spillable(&self, bytes: u64, what: &str) -> Result<bool> {
        if self.gov.is_unbounded() {
            return Ok(true);
        }
        match self.gov.budget.try_reserve(bytes) {
            Ok(()) => {
                self.note(bytes);
                Ok(true)
            }
            Err(MemPressure::Budget) if self.gov.budget.can_spill() => Ok(false),
            Err(p) => Err(p.into_error(what)),
        }
    }

    /// Reserves bytes the kernel cannot run without (key tags,
    /// outputs). Soft-limit overage is tolerated when spilling is
    /// enabled — the kernel has already degraded as far as it can —
    /// and kills otherwise. Pool exhaustion always kills.
    pub fn reserve_required(&self, bytes: u64, what: &str) -> Result<()> {
        if self.gov.is_unbounded() {
            return Ok(());
        }
        match self.gov.budget.try_reserve(bytes) {
            Ok(()) => {
                self.note(bytes);
                Ok(())
            }
            Err(MemPressure::Budget) if self.gov.budget.can_spill() => {
                self.gov
                    .budget
                    .force_reserve(bytes)
                    .map_err(|p| p.into_error(what))?;
                self.note(bytes);
                Ok(())
            }
            Err(p) => Err(p.into_error(what)),
        }
    }

    /// Returns part of the scope's reservation early (e.g. tag
    /// arrays dropped once spilled).
    pub fn release(&self, bytes: u64) {
        let give = bytes.min(self.reserved.load(Ordering::Relaxed));
        self.reserved.fetch_sub(give, Ordering::Relaxed);
        self.gov.budget.release(give);
    }

    /// High-water mark of this kernel's reservations.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Drop for MemScope<'_> {
    fn drop(&mut self) {
        let residual = self.reserved.swap(0, Ordering::Relaxed);
        self.gov.budget.release(residual);
    }
}

/// What a kernel invocation did, for EXPLAIN ANALYZE.
#[derive(Debug, Clone, Copy)]
pub struct KernelStats {
    /// `fixed` / `fixed-dict` (strings packed as per-call dictionary
    /// codes) / `hashed`, with a `-spill` suffix on the spilled path.
    pub mode: &'static str,
    /// Partitions processed (1 = in memory, more when spilled).
    pub partitions: usize,
    /// Time spent hashing/encoding keys and building tables.
    pub build_us: u64,
    /// Time spent probing / assigning group ids (including the
    /// spilled-partition merge).
    pub probe_us: u64,
    /// High-water mark of bytes this kernel reserved against the
    /// query's memory budget (0 under an unbounded governor).
    pub mem_bytes: u64,
    /// Bytes written to spill files (0 when the kernel stayed in
    /// memory).
    pub spill_bytes: u64,
    /// Spill partition files written, across all recursion levels.
    pub spill_parts: usize,
}

impl KernelStats {
    /// Renders the stats as a child span for the owning operator.
    pub fn to_span(&self) -> Span {
        Span::leaf(format!(
            "kernel[{}]: partitions={} build={} probe={}",
            self.mode,
            self.partitions,
            format_us(self.build_us),
            format_us(self.probe_us)
        ))
    }

    /// Governor spans rendered next to the kernel span in EXPLAIN
    /// ANALYZE: a `mem[...]` span when the kernel reserved budget
    /// bytes and a `spill[...]` span when it spilled.
    pub fn governor_spans(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        if self.mem_bytes > 0 {
            spans.push(Span::leaf(format!(
                "mem[kernel]: reserved_peak_bytes={}",
                self.mem_bytes
            )));
        }
        if self.spill_bytes > 0 {
            spans.push(Span::leaf(format!(
                "spill[kernel]: parts={} bytes={}",
                self.spill_parts, self.spill_bytes
            )));
        }
        spans
    }
}

/// The result of [`group_rows`]: a dense group id per row plus each
/// group's first-occurrence row (ids are numbered in first-occurrence
/// order, so `representatives` is strictly ascending).
#[derive(Debug, Clone)]
pub struct Grouping {
    /// `group_of_row[r]` is the group id of row `r`.
    pub group_of_row: Vec<u32>,
    /// `representatives[g]` is the first row of group `g`.
    pub representatives: Vec<u32>,
}

impl Grouping {
    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.representatives.len()
    }
}

/// Per-row key tags: either exact fixed-width encodings or masked
/// 64-bit hashes that need verification.
enum KeyTags {
    /// Exact encodings; `coded` when strings too wide for the layout
    /// went in as per-call dictionary codes.
    Fixed {
        keys: Vec<u128>,
        coded: bool,
    },
    Hashed(Vec<u64>),
}

impl KeyTags {
    fn compute(cols: &[&Array], n: usize, opts: &KernelOptions) -> KeyTags {
        if opts.hash_mask == u64::MAX {
            if let Some(layout) = FixedKeyLayout::plan(&[cols]) {
                let keys = encode_fixed(cols, n, &layout);
                return KeyTags::Fixed { keys, coded: false };
            }
            if let Some(keys) = encode_fixed_coded(cols, n) {
                return KeyTags::Fixed { keys, coded: true };
            }
        }
        let mut hashes = hash_rows(cols, n);
        if opts.hash_mask != u64::MAX {
            for h in &mut hashes {
                *h &= opts.hash_mask;
            }
        }
        KeyTags::Hashed(hashes)
    }

    /// The partition-routing hash of row `i`.
    fn route(&self, i: usize) -> u64 {
        match self {
            KeyTags::Fixed { keys, .. } => hash_u128(keys[i]),
            KeyTags::Hashed(h) => h[i],
        }
    }

    fn mode(&self) -> &'static str {
        match self {
            KeyTags::Fixed { coded: false, .. } => "fixed",
            KeyTags::Fixed { coded: true, .. } => "fixed-dict",
            KeyTags::Hashed(_) => "hashed",
        }
    }

    fn mode_spilled(&self) -> &'static str {
        match self {
            KeyTags::Fixed { coded: false, .. } => "fixed-spill",
            KeyTags::Fixed { coded: true, .. } => "fixed-dict-spill",
            KeyTags::Hashed(_) => "hashed-spill",
        }
    }

    /// Bytes of one tag (16 fixed, 8 hashed).
    fn tag_width(&self) -> u64 {
        match self {
            KeyTags::Fixed { .. } => 16,
            KeyTags::Hashed(_) => 8,
        }
    }

    /// Heap bytes held by the tag array itself.
    fn heap_bytes(&self) -> u64 {
        match self {
            KeyTags::Fixed { keys, .. } => keys.len() as u64 * 16,
            KeyTags::Hashed(h) => h.len() as u64 * 8,
        }
    }

    fn is_fixed(&self) -> bool {
        matches!(self, KeyTags::Fixed { .. })
    }

    /// The spill record for row `i`.
    fn record(&self, i: usize) -> SpillRecord {
        match self {
            KeyTags::Fixed { keys, .. } => SpillRecord::Fixed {
                row: i as u32,
                key: keys[i],
            },
            KeyTags::Hashed(h) => SpillRecord::Hashed {
                row: i as u32,
                hash: h[i],
            },
        }
    }
}

/// The routing hash of a spilled record (same as [`KeyTags::route`]
/// for the corresponding in-memory tag).
fn record_route(record: &SpillRecord) -> u64 {
    match record {
        SpillRecord::Fixed { key, .. } => hash_u128(*key),
        SpillRecord::Hashed { hash, .. } => *hash,
    }
}

/// The groups of one row subset: first-occurrence rows plus each
/// position's local group id (parallel to the input `rows` slice).
/// No per-group member vectors — callers only need these two.
struct SubsetGroups {
    reps: Vec<u32>,
    gid_of_pos: Vec<u32>,
}

/// Groups the `rows` subset (groups numbered in first-occurrence
/// order within the subset). With `positional` the tag of `rows[p]`
/// is `tags[p]` (the spilled-partition layout, where tags were read
/// back from a spill file); otherwise tags index by global row id.
/// Checks the governor every [`CKPT_ROWS`] rows.
fn group_subset(
    cols: &[&Array],
    tags: &KeyTags,
    rows: &[u32],
    positional: bool,
    gov: &KernelGov<'_>,
) -> Result<SubsetGroups> {
    let mut reps: Vec<u32> = Vec::new();
    let mut gid_of_pos: Vec<u32> = Vec::with_capacity(rows.len());
    match tags {
        KeyTags::Fixed { keys, .. } => {
            // Exact encodings: the u128 *is* the key, no verification.
            let mut table: PrehashedMap<u128, u32> = prehashed_map(rows.len());
            for (pos, &row) in rows.iter().enumerate() {
                if pos & CKPT_MASK == 0 {
                    gov.checkpoint()?;
                }
                let tag_idx = if positional { pos } else { row as usize };
                let g = match table.entry(keys[tag_idx]) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let g = reps.len() as u32;
                        e.insert(g);
                        reps.push(row);
                        g
                    }
                };
                gid_of_pos.push(g);
            }
        }
        KeyTags::Hashed(hashes) => {
            // hash → first group id; colliding groups chain through
            // `sibling` (gid → next gid with the same hash). Each
            // candidate is verified with the columnar equality kernel
            // against the group's representative row.
            let mut table: PrehashedMap<u64, u32> = prehashed_map(rows.len());
            let mut sibling: Vec<u32> = Vec::new();
            for (pos, &row) in rows.iter().enumerate() {
                if pos & CKPT_MASK == 0 {
                    gov.checkpoint()?;
                }
                let tag_idx = if positional { pos } else { row as usize };
                let g = match table.entry(hashes[tag_idx]) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let g = reps.len() as u32;
                        e.insert(g);
                        reps.push(row);
                        sibling.push(NONE);
                        g
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let mut g = *e.get();
                        loop {
                            if rows_eq(cols, row as usize, cols, reps[g as usize] as usize) {
                                break g;
                            }
                            if sibling[g as usize] == NONE {
                                let fresh = reps.len() as u32;
                                reps.push(row);
                                sibling.push(NONE);
                                sibling[g as usize] = fresh;
                                break fresh;
                            }
                            g = sibling[g as usize];
                        }
                    }
                };
                gid_of_pos.push(g);
            }
        }
    }
    Ok(SubsetGroups { reps, gid_of_pos })
}

/// Assigns every row of the `cols` key tuple a dense group id, under
/// a memory governor.
///
/// Zero key columns mean one global group (the GROUP-BY-nothing
/// shape); zero rows mean zero groups. NULL keys group together and
/// NaN groups with NaN, per the pinned semantics in
/// [`gis_types::keys`]. Group ids are numbered in first-occurrence
/// order — identical to what the `Vec<Value>` reference produced —
/// on the in-memory *and* spilled paths.
///
/// Memory discipline: key tags and the output are reserved as
/// required (tolerated past the soft limit when spilling is on);
/// the hash table is reserved as spillable — on soft pressure the
/// kernel radix-spills the tags to disk and processes one partition
/// at a time. Errors with [`GisError::ResourceExhausted`] only when
/// no degradation remains, or [`GisError::Deadline`] at an expired
/// checkpoint.
pub fn group_rows(
    cols: &[&Array],
    n: usize,
    opts: &KernelOptions,
    gov: &KernelGov<'_>,
) -> Result<(Grouping, KernelStats)> {
    if cols.is_empty() || n == 0 {
        let grouping = Grouping {
            group_of_row: vec![0; n],
            representatives: if n == 0 { vec![] } else { vec![0] },
        };
        return Ok((
            grouping,
            KernelStats {
                mode: "trivial",
                partitions: 1,
                build_us: 0,
                probe_us: 0,
                mem_bytes: 0,
                spill_bytes: 0,
                spill_parts: 0,
            },
        ));
    }
    gov.checkpoint()?;
    let mem = MemScope::new(*gov);
    let t0 = Instant::now();
    let tags = KeyTags::compute(cols, n, opts);
    mem.reserve_required(tags.heap_bytes(), "group-by key tags")?;
    let build_us = t0.elapsed().as_micros() as u64;
    let t1 = Instant::now();
    // One spillable reservation covers the hash table and the output
    // arrays.
    let table_bytes = n as u64 * GROUP_TABLE_COST;
    if !mem.reserve_spillable(table_bytes, "group-by hash table")? {
        gov.budget().note_spill_event();
        let (grouping, spill_bytes, spill_parts) = group_spilled(cols, &tags, n, gov, &mem)?;
        let stats = KernelStats {
            mode: tags.mode_spilled(),
            partitions: spill_parts.max(1),
            build_us,
            probe_us: t1.elapsed().as_micros() as u64,
            mem_bytes: mem.peak(),
            spill_bytes,
            spill_parts,
        };
        return Ok((grouping, stats));
    }
    let all: Vec<u32> = (0..n as u32).collect();
    let sub = group_subset(cols, &tags, &all, false, gov)?;
    let stats = KernelStats {
        mode: tags.mode(),
        partitions: 1,
        build_us,
        probe_us: t1.elapsed().as_micros() as u64,
        mem_bytes: mem.peak(),
        spill_bytes: 0,
        spill_parts: 0,
    };
    let grouping = Grouping {
        group_of_row: sub.gid_of_pos,
        representatives: sub.reps,
    };
    Ok((grouping, stats))
}

/// Writes one spill partition pass: every row of `tags` routed into
/// [`SPILL_FAN`] files by [`spill_bucket`] at `depth`. Disk bytes
/// are charged against the budget's spill cap.
fn spill_all_rows(
    tags: &KeyTags,
    n: usize,
    depth: u32,
    gov: &KernelGov<'_>,
) -> Result<Vec<SpillFile>> {
    let mut writers: Vec<SpillWriter> = (0..SPILL_FAN)
        .map(|_| {
            SpillWriter::create(
                gov.budget().spill_dir().map(|p| p.as_path()),
                tags.is_fixed(),
            )
        })
        .collect::<Result<_>>()?;
    for i in 0..n {
        if i & CKPT_MASK == 0 {
            gov.checkpoint()?;
        }
        writers[spill_bucket(tags.route(i), depth)].push(tags.record(i))?;
    }
    finish_spill(writers, gov, "spill partition pass")
}

/// Streams `file` into [`SPILL_FAN`] sub-files one level deeper —
/// the recursion step when a partition is still over budget.
fn respill(file: &SpillFile, depth: u32, gov: &KernelGov<'_>) -> Result<Vec<SpillFile>> {
    let mut writers: Vec<SpillWriter> = (0..SPILL_FAN)
        .map(|_| {
            SpillWriter::create(
                gov.budget().spill_dir().map(|p| p.as_path()),
                file.is_fixed(),
            )
        })
        .collect::<Result<_>>()?;
    let mut i = 0usize;
    file.for_each(|record| {
        if i & CKPT_MASK == 0 {
            gov.checkpoint()?;
        }
        i += 1;
        writers[spill_bucket(record_route(&record), depth)].push(record)
    })?;
    finish_spill(writers, gov, "recursive spill pass")
}

/// Seals a set of spill writers, charging their bytes to the budget.
fn finish_spill(
    writers: Vec<SpillWriter>,
    gov: &KernelGov<'_>,
    what: &str,
) -> Result<Vec<SpillFile>> {
    let total: u64 = writers.iter().map(|w| w.bytes()).sum();
    gov.budget()
        .charge_spill(total)
        .map_err(|p| p.into_error(what))?;
    writers.into_iter().map(|w| w.finish()).collect()
}

/// Reads a spill partition back: rows in write (= input) order plus
/// positional tags.
fn read_partition(file: &SpillFile) -> Result<(Vec<u32>, KeyTags)> {
    let n = file.records() as usize;
    let mut rows = Vec::with_capacity(n);
    if file.is_fixed() {
        let mut keys = Vec::with_capacity(n);
        file.for_each(|r| {
            if let SpillRecord::Fixed { row, key } = r {
                rows.push(row);
                keys.push(key);
            }
            Ok(())
        })?;
        // `coded` only labels the kernel's mode, which the caller
        // reports from the tags it spilled, not from these.
        Ok((rows, KeyTags::Fixed { keys, coded: false }))
    } else {
        let mut hashes = Vec::with_capacity(n);
        file.for_each(|r| {
            if let SpillRecord::Hashed { row, hash } = r {
                rows.push(row);
                hashes.push(hash);
            }
            Ok(())
        })?;
        Ok((rows, KeyTags::Hashed(hashes)))
    }
}

/// Grace-hash GROUP BY: tags spilled 16-way, partitions grouped one
/// at a time (recursing on partitions still over budget), results
/// merged by first-occurrence representative — bit-identical to the
/// in-memory path because equal keys share a routing hash and
/// therefore a partition file at every depth.
fn group_spilled(
    cols: &[&Array],
    tags: &KeyTags,
    n: usize,
    gov: &KernelGov<'_>,
    mem: &MemScope<'_>,
) -> Result<(Grouping, u64, usize)> {
    let tag_width = tags.tag_width();
    let files = spill_all_rows(tags, n, 0, gov)?;
    // The tag array is no longer needed in memory — the files carry
    // the tags — but the caller still owns it; give its reservation
    // back so partition processing has room. (The Vec itself is
    // freed when the caller's `tags` drops; the governor tracks
    // reservations, not allocator frees.)
    mem.release(tags.heap_bytes());
    mem.reserve_required(n as u64 * 4, "group-by output")?;
    let mut group_of_row = vec![0u32; n];
    let mut all_reps: Vec<u32> = Vec::new();
    let mut spill_bytes: u64 = files.iter().map(|f| f.bytes()).sum();
    let mut spill_parts = files.len();
    let mut stack: Vec<(SpillFile, u32)> = files.into_iter().rev().map(|f| (f, 0)).collect();
    while let Some((file, depth)) = stack.pop() {
        gov.checkpoint()?;
        let records = file.records();
        if records == 0 {
            continue;
        }
        let part_bytes = records * (4 + tag_width + GROUP_TABLE_COST);
        let reserved = mem.reserve_spillable(part_bytes, "spilled group partition")?;
        if !reserved && depth < SPILL_MAX_DEPTH && records > SPILL_FORCE_FLOOR {
            let subs = respill(&file, depth + 1, gov)?;
            spill_bytes += subs.iter().map(|f| f.bytes()).sum::<u64>();
            spill_parts += subs.len();
            stack.extend(subs.into_iter().rev().map(|f| (f, depth + 1)));
            continue;
        }
        if !reserved {
            // Max depth: degenerate keys defeat partitioning (e.g. a
            // single hot key). Process in memory anyway — the budget
            // tolerates forced overage while spilling is enabled.
            mem.reserve_required(part_bytes, "spilled group partition (max depth)")?;
        }
        let (rows, ptags) = read_partition(&file)?;
        let sub = group_subset(cols, &ptags, &rows, true, gov)?;
        let base = all_reps.len() as u32;
        for (pos, &row) in rows.iter().enumerate() {
            group_of_row[row as usize] = base + sub.gid_of_pos[pos];
        }
        all_reps.extend_from_slice(&sub.reps);
        mem.release(part_bytes);
    }
    // No group spans two partitions, so global ids are the rank of
    // each group's first-occurrence row.
    let mut order: Vec<u32> = (0..all_reps.len() as u32).collect();
    order.sort_unstable_by_key(|&tmp| all_reps[tmp as usize]);
    let mut remap = vec![0u32; all_reps.len()];
    let mut representatives = Vec::with_capacity(all_reps.len());
    for (g, &tmp) in order.iter().enumerate() {
        remap[tmp as usize] = g as u32;
        representatives.push(all_reps[tmp as usize]);
    }
    for gid in &mut group_of_row {
        *gid = remap[*gid as usize];
    }
    Ok((
        Grouping {
            group_of_row,
            representatives,
        },
        spill_bytes,
        spill_parts,
    ))
}

/// True when any key column is NULL at `row` (such rows never join).
fn any_null(cols: &[&Array], row: usize) -> bool {
    cols.iter().any(|c| !c.is_valid(row))
}

/// Build+probe over one (left, right) row subset. `pairs` receives
/// `(l, r)` in lexicographic order given ascending inputs. With
/// `positional` the tag of `lrows[p]` / `rrows[p]` is index `p` of
/// the respective tag array (spilled-partition layout). Output pairs
/// are budget-reserved in [`PAIR_CHUNK`] blocks; the governor is
/// checked every [`CKPT_ROWS`] rows on both loops.
#[allow(clippy::too_many_arguments)]
fn join_subset(
    left: &[&Array],
    right: &[&Array],
    ltags: &KeyTags,
    rtags: &KeyTags,
    lrows: &[u32],
    rrows: &[u32],
    positional: bool,
    gov: &KernelGov<'_>,
    mem: &MemScope<'_>,
    pairs: &mut Vec<(u32, u32)>,
) -> Result<()> {
    // Build: key → (first, last) positions into `rrows`, entries of
    // one bucket chained in insertion order through `next` — O(1)
    // insert with no per-key vector, traversal yields ascending `r`.
    macro_rules! build {
        ($keys:expr, $K:ty) => {{
            let mut head: PrehashedMap<$K, (u32, u32)> = prehashed_map(rrows.len());
            let mut next: Vec<u32> = vec![NONE; rrows.len()];
            for (pos, &r) in rrows.iter().enumerate() {
                if pos & CKPT_MASK == 0 {
                    gov.checkpoint()?;
                }
                if any_null(right, r as usize) {
                    continue;
                }
                let tag_idx = if positional { pos } else { r as usize };
                match head.entry($keys[tag_idx]) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (_, last) = e.get_mut();
                        next[*last as usize] = pos as u32;
                        *last = pos as u32;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((pos as u32, pos as u32));
                    }
                }
            }
            (head, next)
        }};
    }
    macro_rules! emit {
        ($pair:expr) => {{
            if pairs.len() % PAIR_CHUNK == 0 {
                mem.reserve_required((PAIR_CHUNK * 8) as u64, "join output pairs")?;
            }
            pairs.push($pair);
        }};
    }
    match (ltags, rtags) {
        (KeyTags::Fixed { keys: lk, .. }, KeyTags::Fixed { keys: rk, .. }) => {
            // Exact encodings: every chain entry is a true match.
            let (head, next) = build!(rk, u128);
            for (lpos, &l) in lrows.iter().enumerate() {
                if lpos & CKPT_MASK == 0 {
                    gov.checkpoint()?;
                }
                if any_null(left, l as usize) {
                    continue;
                }
                let tag_idx = if positional { lpos } else { l as usize };
                if let Some(&(first, _)) = head.get(&lk[tag_idx]) {
                    let mut p = first;
                    loop {
                        emit!((l, rrows[p as usize]));
                        p = next[p as usize];
                        if p == NONE {
                            break;
                        }
                    }
                }
            }
        }
        (KeyTags::Hashed(lh), KeyTags::Hashed(rh)) => {
            // Chains may mix keys that collide on the hash: verify
            // each candidate columnar before emitting the pair.
            let (head, next) = build!(rh, u64);
            for (lpos, &l) in lrows.iter().enumerate() {
                if lpos & CKPT_MASK == 0 {
                    gov.checkpoint()?;
                }
                if any_null(left, l as usize) {
                    continue;
                }
                let tag_idx = if positional { lpos } else { l as usize };
                if let Some(&(first, _)) = head.get(&lh[tag_idx]) {
                    let mut p = first;
                    loop {
                        let r = rrows[p as usize];
                        if rows_eq(left, l as usize, right, r as usize) {
                            emit!((l, r));
                        }
                        p = next[p as usize];
                        if p == NONE {
                            break;
                        }
                    }
                }
            }
        }
        _ => unreachable!("both sides share one layout decision"),
    }
    Ok(())
}

/// Matched `(left_row, right_row)` pairs of the equi-join
/// `left == right`, NULL keys on either side excluded, in
/// lexicographic `(l, r)` order — exactly the order (and content) of
/// the `Vec<Value>` reference, on the in-memory and spilled paths.
///
/// The caller must pass key columns of identical data types per
/// position (cast beforehand); mismatched positions still compare
/// correctly via the `Value` fallback but won't hash-match.
///
/// Memory discipline mirrors [`group_rows`]: tags and output
/// pairs are required reservations, the build table is spillable —
/// on soft pressure both sides radix-spill to disk and partitions
/// are joined one at a time (grace hash), recursing when a partition
/// pair is still over budget.
pub fn equi_join_pairs(
    left: &[&Array],
    right: &[&Array],
    opts: &KernelOptions,
    gov: &KernelGov<'_>,
) -> Result<(Vec<(u32, u32)>, KernelStats)> {
    let ln = left.first().map_or(0, |c| c.len());
    let rn = right.first().map_or(0, |c| c.len());
    gov.checkpoint()?;
    let mem = MemScope::new(*gov);
    let t0 = Instant::now();
    // One layout decision covers both sides so tags are comparable.
    let (ltags, rtags) = {
        let fixed = opts.hash_mask == u64::MAX && FixedKeyLayout::plan(&[left, right]).is_some();
        if fixed {
            let layout = FixedKeyLayout::plan(&[left, right]).expect("planned above");
            let fixed = |cols, n| KeyTags::Fixed {
                keys: encode_fixed(cols, n, &layout),
                coded: false,
            };
            (fixed(left, ln), fixed(right, rn))
        } else {
            let mask = opts.hash_mask;
            let mut lh = hash_rows(left, ln);
            let mut rh = hash_rows(right, rn);
            if mask != u64::MAX {
                lh.iter_mut().for_each(|h| *h &= mask);
                rh.iter_mut().for_each(|h| *h &= mask);
            }
            (KeyTags::Hashed(lh), KeyTags::Hashed(rh))
        }
    };
    mem.reserve_required(ltags.heap_bytes() + rtags.heap_bytes(), "join key tags")?;
    let build_us = t0.elapsed().as_micros() as u64;
    let t1 = Instant::now();
    // One spillable reservation covers the build table and the probe
    // row lists.
    let table_bytes = rn as u64 * JOIN_BUILD_COST + (ln + rn) as u64 * 4;
    if !mem.reserve_spillable(table_bytes, "hash join build table")? {
        gov.budget().note_spill_event();
        let (pairs, spill_bytes, spill_parts) =
            join_spilled(left, right, &ltags, &rtags, ln, rn, gov, &mem)?;
        let stats = KernelStats {
            mode: ltags.mode_spilled(),
            partitions: spill_parts.max(1),
            build_us,
            probe_us: t1.elapsed().as_micros() as u64,
            mem_bytes: mem.peak(),
            spill_bytes,
            spill_parts,
        };
        return Ok((pairs, stats));
    }
    let lrows: Vec<u32> = (0..ln as u32).collect();
    let rrows: Vec<u32> = (0..rn as u32).collect();
    let mut pairs = Vec::new();
    join_subset(
        left, right, &ltags, &rtags, &lrows, &rrows, false, gov, &mem, &mut pairs,
    )?;
    let stats = KernelStats {
        mode: ltags.mode(),
        partitions: 1,
        build_us,
        probe_us: t1.elapsed().as_micros() as u64,
        mem_bytes: mem.peak(),
        spill_bytes: 0,
        spill_parts: 0,
    };
    Ok((pairs, stats))
}

/// Grace-hash join: both sides' tags spilled 16-way on the shared
/// routing hash, bucket `b` of the left joined against bucket `b` of
/// the right, one pair of partitions at a time (recursing when a
/// pair is still over budget), the pair list sorted at the end:
/// every match is found in exactly one bucket, so sorting restores
/// the in-memory path's lexicographic order bit for bit.
/// Pair list + spill bytes written + spill partitions touched.
type SpilledJoinOut = (Vec<(u32, u32)>, u64, usize);

#[allow(clippy::too_many_arguments)]
fn join_spilled(
    left: &[&Array],
    right: &[&Array],
    ltags: &KeyTags,
    rtags: &KeyTags,
    ln: usize,
    rn: usize,
    gov: &KernelGov<'_>,
    mem: &MemScope<'_>,
) -> Result<SpilledJoinOut> {
    let tag_width = ltags.tag_width();
    let lfiles = spill_all_rows(ltags, ln, 0, gov)?;
    let rfiles = spill_all_rows(rtags, rn, 0, gov)?;
    mem.release(ltags.heap_bytes() + rtags.heap_bytes());
    let mut spill_bytes: u64 = lfiles.iter().chain(&rfiles).map(|f| f.bytes()).sum();
    let mut spill_parts = lfiles.len() + rfiles.len();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut stack: Vec<(SpillFile, SpillFile, u32)> = lfiles
        .into_iter()
        .zip(rfiles)
        .rev()
        .map(|(l, r)| (l, r, 0))
        .collect();
    while let Some((lf, rf, depth)) = stack.pop() {
        gov.checkpoint()?;
        if lf.records() == 0 || rf.records() == 0 {
            // Nothing can match in this bucket (including the
            // zero-matching-rows shape: outer-join padding happens
            // in the caller from the pair list and presence sets).
            continue;
        }
        let part_bytes =
            (lf.records() + rf.records()) * (4 + tag_width) + rf.records() * JOIN_BUILD_COST;
        let reserved = mem.reserve_spillable(part_bytes, "spilled join partition")?;
        if !reserved && depth < SPILL_MAX_DEPTH && lf.records() + rf.records() > SPILL_FORCE_FLOOR {
            let lsubs = respill(&lf, depth + 1, gov)?;
            let rsubs = respill(&rf, depth + 1, gov)?;
            spill_bytes += lsubs.iter().chain(&rsubs).map(|f| f.bytes()).sum::<u64>();
            spill_parts += lsubs.len() + rsubs.len();
            stack.extend(
                lsubs
                    .into_iter()
                    .zip(rsubs)
                    .rev()
                    .map(|(l, r)| (l, r, depth + 1)),
            );
            continue;
        }
        if !reserved {
            mem.reserve_required(part_bytes, "spilled join partition (max depth)")?;
        }
        let (lrows, lptags) = read_partition(&lf)?;
        let (rrows, rptags) = read_partition(&rf)?;
        join_subset(
            left, right, &lptags, &rptags, &lrows, &rrows, true, gov, mem, &mut pairs,
        )?;
        mem.release(part_bytes);
    }
    pairs.sort_unstable();
    Ok((pairs, spill_bytes, spill_parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_types::{ArrayBuilder, DataType, Value};

    fn int_col(vals: &[Option<i64>]) -> Array {
        let mut b = ArrayBuilder::new(DataType::Int64);
        for v in vals {
            match v {
                Some(x) => b.push_value(&Value::Int64(*x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    fn str_col(vals: &[&str]) -> Array {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for v in vals {
            b.push_value(&Value::Utf8((*v).to_string())).unwrap();
        }
        b.finish()
    }

    /// A long string column defeats the fixed-width layout, forcing
    /// the hashed+verified path.
    fn wide_col(n: usize) -> Array {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        for i in 0..n {
            b.push_value(&Value::Utf8(format!("row-{:060}", i % 7)))
                .unwrap();
        }
        b.finish()
    }

    fn collide_all() -> KernelOptions {
        KernelOptions { hash_mask: 0x3 }
    }

    /// [`group_rows`] with production hashing and no budget.
    fn group(cols: &[&Array], n: usize) -> (Grouping, KernelStats) {
        group_rows(cols, n, &KernelOptions::default(), &KernelGov::unbounded()).unwrap()
    }

    /// [`equi_join_pairs`] with production hashing and no budget.
    fn join_pairs(left: &[&Array], right: &[&Array]) -> (Vec<(u32, u32)>, KernelStats) {
        equi_join_pairs(
            left,
            right,
            &KernelOptions::default(),
            &KernelGov::unbounded(),
        )
        .unwrap()
    }

    #[test]
    fn grouping_matches_first_occurrence_order() {
        let c = int_col(&[Some(5), Some(1), Some(5), None, Some(1), None]);
        let (g, stats) = group(&[&c], 6);
        assert_eq!(stats.mode, "fixed");
        assert_eq!(g.representatives, vec![0, 1, 3]);
        assert_eq!(g.group_of_row, vec![0, 1, 0, 2, 1, 2]);
    }

    #[test]
    fn grouping_identical_across_all_paths() {
        let a = int_col(
            &(0..500)
                .map(|i| if i % 11 == 0 { None } else { Some(i % 13) })
                .collect::<Vec<_>>(),
        );
        let w = wide_col(500);
        // The wide string shrinks to a dictionary code beside one
        // integer, not beside two: 8 + 8 + 4 bytes overflow the layout.
        for (cols, mode) in [(vec![&a, &w], "fixed-dict"), (vec![&a, &a, &w], "hashed")] {
            let (serial, s1) = group(&cols, 500);
            assert_eq!(s1.mode, mode);
            let (collided, s3) =
                group_rows(&cols, 500, &collide_all(), &KernelGov::unbounded()).unwrap();
            assert_eq!(s3.mode, "hashed");
            assert_eq!(serial.group_of_row, collided.group_of_row);
            assert_eq!(serial.representatives, collided.representatives);
        }
    }

    #[test]
    fn empty_key_and_empty_input_shapes() {
        let (g, _) = group(&[], 4);
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.group_of_row, vec![0, 0, 0, 0]);
        let (g, _) = group(&[], 0);
        assert_eq!(g.num_groups(), 0);
        let c = int_col(&[]);
        let (g, _) = group(&[&c], 0);
        assert_eq!(g.num_groups(), 0);
    }

    #[test]
    fn join_pairs_lexicographic_and_null_free() {
        let l = int_col(&[Some(1), Some(3), None, Some(1)]);
        let r = int_col(&[Some(3), Some(1), Some(1), None]);
        let (pairs, stats) = join_pairs(&[&l], &[&r]);
        assert_eq!(stats.mode, "fixed");
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn join_identical_across_all_paths() {
        let lk = int_col(&(0..400).map(|i| Some(i % 17)).collect::<Vec<_>>());
        let lw = wide_col(400);
        let rk = int_col(&(0..300).map(|i| Some(i % 23)).collect::<Vec<_>>());
        let rw = wide_col(300);
        let left: Vec<&Array> = vec![&lk, &lw];
        let right: Vec<&Array> = vec![&rk, &rw];
        let (serial, s1) = join_pairs(&left, &right);
        assert_eq!(s1.mode, "hashed");
        let (collided, _) =
            equi_join_pairs(&left, &right, &collide_all(), &KernelGov::unbounded()).unwrap();
        assert_eq!(serial, collided);
        assert!(!serial.is_empty());
        assert!(serial.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    #[test]
    fn stats_render_as_span() {
        let c = str_col(&["a", "b", "a"]);
        let (_, stats) = group(&[&c], 3);
        let span = stats.to_span();
        assert!(span.label.starts_with("kernel[fixed]"), "{}", span.label);
    }

    /// A budget tight enough that every hash-table reservation fails
    /// softly, with ample spill room: the mem_tight shape.
    fn tight_budget() -> gis_types::MemBudget {
        gis_types::MemBudget::standalone(1, 1 << 30)
    }

    #[test]
    fn spilled_grouping_is_bit_identical() {
        let a = int_col(
            &(0..5000)
                .map(|i| if i % 11 == 0 { None } else { Some(i % 13) })
                .collect::<Vec<_>>(),
        );
        let w = wide_col(5000);
        for cols in [vec![&a], vec![&a, &w], vec![&a, &a, &w]] {
            let (reference, _) = group(&cols, 5000);
            let budget = tight_budget();
            let gov = KernelGov::new(&budget, None, 7);
            let (spilled, stats) =
                group_rows(&cols, 5000, &KernelOptions::default(), &gov).unwrap();
            assert!(stats.mode.ends_with("-spill"), "mode={}", stats.mode);
            assert!(stats.spill_parts > 0);
            assert!(stats.spill_bytes > 0);
            assert_eq!(reference.group_of_row, spilled.group_of_row);
            assert_eq!(reference.representatives, spilled.representatives);
            assert_eq!(budget.used(), 0, "all reservations returned");
            assert!(budget.spill_events() > 0);
        }
    }

    #[test]
    fn spilled_join_is_bit_identical() {
        let lk = int_col(&(0..2000).map(|i| Some(i % 17)).collect::<Vec<_>>());
        let lw = wide_col(2000);
        let rk = int_col(&(0..1500).map(|i| Some(i % 23)).collect::<Vec<_>>());
        let rw = wide_col(1500);
        for (left, right) in [(vec![&lk], vec![&rk]), (vec![&lk, &lw], vec![&rk, &rw])] {
            let (reference, _) = join_pairs(&left, &right);
            let budget = tight_budget();
            let gov = KernelGov::new(&budget, None, 7);
            let (spilled, stats) =
                equi_join_pairs(&left, &right, &KernelOptions::default(), &gov).unwrap();
            assert!(stats.mode.ends_with("-spill"), "mode={}", stats.mode);
            assert!(stats.spill_parts > 0);
            assert_eq!(reference, spilled);
            assert_eq!(budget.used(), 0, "all reservations returned");
        }
    }

    #[test]
    fn spilled_join_with_zero_matches() {
        let l = int_col(&(0..3000).map(Some).collect::<Vec<_>>());
        let r = int_col(&(0..3000).map(|i| Some(i + 1_000_000)).collect::<Vec<_>>());
        let budget = tight_budget();
        let gov = KernelGov::new(&budget, None, 1);
        let (pairs, stats) =
            equi_join_pairs(&[&l], &[&r], &KernelOptions::default(), &gov).unwrap();
        assert!(pairs.is_empty());
        assert!(stats.spill_parts > 0, "still spilled, found nothing");
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn recursive_spill_still_matches() {
        // 40k rows: depth-0 buckets hold ~2.5k records each, above
        // the force floor, so a 1-byte soft limit recurses at least
        // one level before partitions drop below the floor.
        let a = int_col(&(0..40_000).map(|i| Some(i % 97)).collect::<Vec<_>>());
        let (reference, _) = group(&[&a], 40_000);
        let budget = tight_budget();
        let gov = KernelGov::new(&budget, None, 9);
        let (spilled, stats) = group_rows(&[&a], 40_000, &KernelOptions::default(), &gov).unwrap();
        assert!(
            stats.spill_parts > SPILL_FAN,
            "expected recursion beyond the first pass, got {} parts",
            stats.spill_parts
        );
        assert_eq!(reference.group_of_row, spilled.group_of_row);
        assert_eq!(reference.representatives, spilled.representatives);
    }

    #[test]
    fn spill_disabled_kills_with_resource_exhausted() {
        let a = int_col(&(0..5000).map(|i| Some(i % 13)).collect::<Vec<_>>());
        let budget = gis_types::MemBudget::standalone(1, 0); // no spill
        let gov = KernelGov::new(&budget, None, 3);
        let err = group_rows(&[&a], 5000, &KernelOptions::default(), &gov).unwrap_err();
        assert_eq!(err.code(), "MEM", "{err}");
        assert_eq!(budget.used(), 0, "kill path released everything");
    }

    #[test]
    fn join_kill_distinguishes_build_and_probe() {
        let l = int_col(&(0..4000).map(|i| Some(i % 7)).collect::<Vec<_>>());
        let r = int_col(&(0..4000).map(|i| Some(i % 7)).collect::<Vec<_>>());
        // Budget that fits the 128KB of key tags but not tags plus
        // the ~144KB build-table estimate: dies mid-build.
        let small = gis_types::MemBudget::standalone(200_000, 0);
        let gov = KernelGov::new(&small, None, 1);
        let err = equi_join_pairs(&[&l], &[&r], &KernelOptions::default(), &gov).unwrap_err();
        assert_eq!(err.code(), "MEM");
        assert!(err.message().contains("build table"), "{err}");
        // Budget that fits tags + table but not the ~2.3M output
        // pairs: dies mid-probe on a pair-chunk reservation.
        let medium = gis_types::MemBudget::standalone(400_000, 0);
        let gov = KernelGov::new(&medium, None, 2);
        let err = equi_join_pairs(&[&l], &[&r], &KernelOptions::default(), &gov).unwrap_err();
        assert_eq!(err.code(), "MEM");
        assert!(err.message().contains("output pairs"), "{err}");
        assert_eq!(medium.used(), 0, "mid-probe kill released everything");
    }

    /// The entry checkpoint of [`group_rows`] / [`equi_join_pairs`]
    /// would fire first, so this calls the row-loop helpers directly:
    /// their only checkpoints are the ones inside the loops.
    #[test]
    fn expired_deadline_cancels_kernel() {
        let a = int_col(&(0..10_000).map(|i| Some(i % 101)).collect::<Vec<_>>());
        let w = wide_col(10_000);
        let rows: Vec<u32> = (0..10_000).collect();
        let budget = gis_types::MemBudget::standalone(u64::MAX, 0);
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let gov = KernelGov::new(&budget, Some(expired), 5);
        let mem = MemScope::new(gov);
        for cols in [vec![&a], vec![&a, &a, &w]] {
            let tags = KeyTags::compute(&cols, 10_000, &KernelOptions::default());
            let err = group_subset(&cols, &tags, &rows, false, &gov)
                .err()
                .expect("group loop checkpoint");
            assert_eq!(err.code(), "DEADLINE", "{err}");
            let err = join_subset(
                &cols,
                &cols,
                &tags,
                &tags,
                &rows,
                &rows,
                false,
                &gov,
                &mem,
                &mut Vec::new(),
            )
            .unwrap_err();
            assert_eq!(err.code(), "DEADLINE", "{err}");
        }
        // Through the public entry points the same expiry surfaces as
        // the same typed error.
        let err = group_rows(&[&a], 10_000, &KernelOptions::default(), &gov).unwrap_err();
        assert_eq!(err.code(), "DEADLINE", "{err}");
    }

    #[test]
    fn governor_spans_appear_only_under_pressure() {
        let c = str_col(&["a", "b", "a"]);
        let (_, stats) = group(&[&c], 3);
        assert!(
            stats.governor_spans().is_empty(),
            "unbounded kernels emit no governor spans"
        );
        let a = int_col(&(0..3000).map(|i| Some(i % 13)).collect::<Vec<_>>());
        let budget = tight_budget();
        let gov = KernelGov::new(&budget, None, 1);
        let (_, stats) = group_rows(&[&a], 3000, &KernelOptions::default(), &gov).unwrap();
        let spans = stats.governor_spans();
        assert!(
            spans.iter().any(|s| s.label.starts_with("mem[")),
            "{spans:?}"
        );
        assert!(
            spans.iter().any(|s| s.label.starts_with("spill[")),
            "{spans:?}"
        );
    }
}
