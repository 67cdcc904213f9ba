//! The GraphTinker data structure: ties the SGH unit, the
//! VertexPropertyArray and the three adjacency tiers together (paper
//! Figs. 2-5).
//!
//! `GraphTinker` owns what every tier shares — the dense remapping of
//! source ids ([`crate::sgh::SghUnit`], the paper's SGH unit), degrees,
//! [`ProbeStats`], the per-vertex tier map and the threshold policy that
//! moves a vertex between tiers. Where an edge is stored and how it is
//! probed is the tier's business ([`crate::tier`]); the paper's find-edge
//! and insert-edge units, and the CAL, are [`crate::tier::BlockTier`]'s.

use gtinker_types::{
    DeleteMode, Edge, EdgeBatch, GraphError, Result, TinkerConfig, UpdateOp, VertexId, Weight,
    NIL_U32, NIL_VERTEX,
};

use crate::hash::{edge_hash, source_hash};
use crate::sgh::SghUnit;
use crate::stats::ProbeStats;
use crate::tier::{BlockTier, HubTier, InlineTier, TierOps, Upsert};
use crate::vertex::{Tier, VertexPropertyArray};

/// Outcome counts of applying an [`EdgeBatch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Edges newly inserted.
    pub inserted: u64,
    /// Insertions that found the edge already present (weight updated).
    pub updated: u64,
    /// Edges deleted.
    pub deleted: u64,
    /// Deletions whose target edge was absent.
    pub not_found: u64,
}

impl BatchResult {
    /// Total operations processed.
    pub fn total(&self) -> u64 {
        self.inserted + self.updated + self.deleted + self.not_found
    }

    /// Folds another result into this one (per-shard results of one batch,
    /// or per-batch results of one stream, sum componentwise).
    pub fn merge(&mut self, other: &BatchResult) {
        self.inserted += other.inserted;
        self.updated += other.updated;
        self.deleted += other.deleted;
        self.not_found += other.not_found;
    }
}

/// A store that applies an [`EdgeBatch`]: the one update contract the
/// worker pool, the CLI's incremental driver and the experiment drivers are
/// written against.
pub trait ApplyBatch {
    /// Applies `batch` in order and returns its outcome counts (a store
    /// without per-op outcome tracking leaves the fields it cannot tell
    /// apart at zero).
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult;

    /// [`apply`](Self::apply) for a batch in which the ops of each source
    /// are contiguous (recovery's grouped log tail, a snapshot's payload).
    /// A store that can use the grouping overrides it; the outcome equals
    /// `apply`'s. The batch is taken, so a pool shares it with its workers
    /// without a copy.
    fn apply_grouped(&mut self, batch: EdgeBatch) -> BatchResult {
        self.apply(&batch)
    }

    /// Applies a whole input (a file, a WAL tail) as one stream: it is
    /// [`group_by_source`], then [`apply_grouped`](Self::apply_grouped) on
    /// each chunk of [`run_chunks`], copied once into its own batch. The
    /// outcome, edges, weights, degrees and vertex space are `apply`'s (the
    /// sort is stable); new sources are placed whole, so dense ids, slot
    /// and CAL order and tier moves differ. What measures the per-batch
    /// insert path stays on `apply`: `gtinker stats FILE`, `bench-insert`,
    /// the paper figures, `ingest` and `--restart incremental`.
    fn load(&mut self, ops: Vec<UpdateOp>) -> BatchResult {
        let ops = group_by_source(ops);
        let mut r = BatchResult::default();
        for chunk in run_chunks(&ops, UpdateOp::src) {
            r.merge(&self.apply_grouped(chunk.iter().copied().collect()));
        }
        r
    }
}

impl ApplyBatch for GraphTinker {
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        self.apply_batch(batch)
    }

    fn apply_grouped(&mut self, batch: EdgeBatch) -> BatchResult {
        GraphTinker::apply_grouped(self, &batch)
    }
}

/// Resolve-ahead distance of [`GraphTinker::apply_batch`], in operations:
/// each of the window's three read-only stages runs this far ahead of the
/// next, the last this far ahead of execution. A constant, not a knob: 4,
/// 8 and 16 measured alike (DESIGN.md, "The write path as a pipeline").
const WINDOW: usize = 8;

/// Slots in the window's ring of carried resolutions: the `3 * WINDOW + 1`
/// operations in flight, rounded up so the slot index is a mask.
const RING: usize = (3 * WINDOW + 1).next_power_of_two();

/// What an operation's resolve stage hands to its execution: both hashes
/// (each id is mixed once per operation) and the source's dense id.
#[derive(Clone, Copy)]
struct Resolved {
    /// [`source_hash`] of the source.
    src_hash: u64,
    /// Depth-0 [`edge_hash`] of the destination: seeds the depth-0 bucket
    /// split and the SWAR fingerprint.
    h0: u64,
    /// Dense id of the source, or [`NIL_U32`] when the SGH did not know it
    /// at resolve time — execution then probes again, since an earlier
    /// operation may have registered it since. A known id never goes
    /// stale: the SGH neither deletes nor renumbers.
    dense: u32,
}

impl Resolved {
    /// Hashes only, source not looked up: where `insert_edge` and
    /// `delete_edge` start from.
    #[inline]
    fn hashed(src: VertexId, dst: VertexId) -> Self {
        Resolved { src_hash: source_hash(src), h0: edge_hash(dst, 0), dense: NIL_U32 }
    }
}

/// The one tier dispatch: calls `$method` on the tier module that stores
/// the adjacency of a vertex in tier `$tier`. Static — each arm is a direct
/// call the compiler can inline.
macro_rules! on_tier {
    ($store:ident, $tier:expr, $method:ident($($arg:expr),*)) => {
        match $tier {
            Tier::Inline => $store.inline.$method($($arg),*),
            Tier::Blocks => $store.blocks.$method($($arg),*),
            Tier::Hub => $store.hub.$method($($arg),*),
        }
    };
}

mod diagnostics;
mod grouped;
pub use grouped::{group_by_source, run_chunks, DECODE_BATCH_OPS};

/// The GraphTinker dynamic-graph data structure.
///
/// See the [crate docs](crate) for an overview and a usage example.
pub struct GraphTinker {
    config: TinkerConfig,
    /// Dense remapping of source ids; `None` when SGH is disabled (the
    /// ablation), in which case the raw source id is the dense id.
    sgh: Option<SghUnit>,
    props: VertexPropertyArray,
    stats: ProbeStats,
    live_edges: u64,
    /// One past the largest original vertex id seen (src or dst side).
    vertex_space: u32,
    /// Adjacency tier per dense source: one slot per source ever inserted
    /// (with SGH enabled, exactly as long as the number of such sources).
    /// A source registered by `import_sources` alone has no slot yet.
    tiers: Vec<Tier>,
    inline: InlineTier,
    blocks: BlockTier,
    hub: HubTier,
    /// Vertices with live edges, per tier (indexed by `Tier as usize`).
    tier_counts: [u64; 3],
    tier_promotions: u64,
    tier_demotions: u64,
    /// Sources [`apply_grouped`](Self::apply_grouped) placed whole.
    placed_whole: u64,
}

impl GraphTinker {
    /// Creates an empty GraphTinker with the given configuration.
    pub fn new(config: TinkerConfig) -> Result<Self> {
        config.validate().map_err(GraphError::InvalidConfig)?;
        Ok(GraphTinker {
            sgh: config.enable_sgh.then(SghUnit::new),
            props: VertexPropertyArray::new(),
            stats: ProbeStats::default(),
            live_edges: 0,
            vertex_space: 0,
            tiers: Vec::new(),
            inline: InlineTier::new(config.inline_cap),
            blocks: BlockTier::new(&config),
            hub: HubTier::new(),
            tier_counts: [0; 3],
            tier_promotions: 0,
            tier_demotions: 0,
            placed_whole: 0,
            config,
        })
    }

    /// Creates a GraphTinker with the default configuration (the paper's
    /// geometry with the degree-adaptive tiers on).
    pub fn with_defaults() -> Self {
        Self::new(TinkerConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &TinkerConfig {
        &self.config
    }

    /// Number of live edges in the structure.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.live_edges
    }

    /// Number of distinct non-empty source vertices ever seen.
    ///
    /// (A source whose edges were all deleted still occupies its slot; the
    /// paper's SGH assigns ids monotonically and never reclaims them.)
    #[inline]
    pub fn num_sources(&self) -> usize {
        match &self.sgh {
            Some(s) => s.len(),
            None => self.tiers.len(),
        }
    }

    /// One past the largest original vertex id observed on either edge
    /// endpoint — the id space analytics must cover.
    #[inline]
    pub fn vertex_space(&self) -> u32 {
        self.vertex_space
    }

    /// Probe statistics accumulated since the last [`reset_stats`].
    ///
    /// [`reset_stats`]: GraphTinker::reset_stats
    #[inline]
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Clears the probe statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ProbeStats::default();
    }

    #[inline]
    fn note_vertex(&mut self, v: VertexId) {
        debug_assert_ne!(v, NIL_VERTEX, "NIL_VERTEX is reserved");
        if v >= self.vertex_space {
            self.vertex_space = v + 1;
        }
    }

    /// Original id of a dense source index.
    fn original_of(&self, dense: u32) -> VertexId {
        match &self.sgh {
            Some(sgh) => sgh.original_of(dense),
            None => dense,
        }
    }

    /// Looks up the dense id without allocating.
    fn dense_lookup(&self, src: VertexId) -> Option<u32> {
        self.dense_lookup_hashed(src, source_hash(src))
    }

    /// [`dense_lookup`](Self::dense_lookup) with the source hash already
    /// computed by the caller.
    #[inline]
    fn dense_lookup_hashed(&self, src: VertexId, src_hash: u64) -> Option<u32> {
        match &self.sgh {
            Some(sgh) => sgh.get_hashed(src_hash, src),
            None => ((src as usize) < self.tiers.len()).then_some(src),
        }
    }

    /// Dense id of `src` for an executing operation: the id its resolve
    /// stage carried, else a probe of the SGH as it is now.
    #[inline]
    fn dense_resolved(&self, src: VertexId, r: Resolved) -> Option<u32> {
        if r.dense != NIL_U32 {
            return Some(r.dense);
        }
        self.dense_lookup_hashed(src, r.src_hash)
    }

    /// The tier holding the adjacency of `dense`; `None` for a source
    /// `import_sources` registered that no insert has reached yet (it has
    /// no edges).
    #[inline]
    fn tier_of(&self, dense: u32) -> Option<Tier> {
        self.tiers.get(dense as usize).copied()
    }

    /// Tier of `dense` for an insert, giving a source its slot on first
    /// sight: it starts inline when the layout has an inline tier, in the
    /// edgeblocks (the paper's layout) when it has none. A tier's own table
    /// grows when a source first enters it.
    #[inline]
    fn admit(&mut self, dense: u32) -> Tier {
        let n = dense as usize + 1;
        if self.tiers.len() < n {
            let first = if self.config.inline_cap > 0 { Tier::Inline } else { Tier::Blocks };
            self.tiers.resize(n, first);
        }
        self.tiers[dense as usize]
    }

    /// Inserts an edge; returns `true` if it was new, `false` if an existing
    /// `(src, dst)` edge had its weight updated.
    pub fn insert_edge(&mut self, e: Edge) -> bool {
        let mark = self.flush_mark();
        let fresh = self.insert_resolved(e, Resolved::hashed(e.src, e.dst));
        let m = crate::metrics::global();
        if fresh {
            m.tinker_inserts.inc();
        } else {
            m.tinker_updates.inc();
        }
        self.flush_since(mark);
        fresh
    }

    /// The instance counters [`flush_since`](Self::flush_since) publishes:
    /// `(tag_group_scans, tag_false_positives, hub_dead_slots)`.
    fn flush_mark(&self) -> (u64, u64, usize) {
        (self.stats.tag_group_scans, self.stats.tag_false_positives, self.hub.dead_slots())
    }

    /// Flushes the delta of the instance counters since `mark` to the
    /// global metrics. Batched entry points mark once per batch so the
    /// instrumented ingest path pays one atomic RMW per counter per batch.
    fn flush_since(&self, mark: (u64, u64, usize)) {
        let m = crate::metrics::global();
        let (groups, fps, dead) = self.flush_mark();
        if groups > mark.0 {
            m.rhh_tag_group_scans.add(groups - mark.0);
        }
        if fps > mark.1 {
            m.rhh_tag_false_positive.add(fps - mark.1);
        }
        if dead != mark.2 {
            m.tier_hub_dead_slots.add(dead as i64 - mark.2 as i64);
        }
    }

    /// Inserts `e` given what its resolve stage carried. Instance stats
    /// only, no global metric counters: `insert_edge` adds them per call,
    /// `apply_batch` flushes them once per batch instead of paying an
    /// atomic RMW per operation.
    fn insert_resolved(&mut self, e: Edge, r: Resolved) -> bool {
        assert!(
            e.src != NIL_VERTEX && e.dst != NIL_VERTEX,
            "NIL_VERTEX is reserved as the empty-cell sentinel"
        );
        self.note_vertex(e.src);
        self.note_vertex(e.dst);
        self.stats.operations += 1;
        let dense = match (self.dense_resolved(e.src, r), &mut self.sgh) {
            (Some(d), _) => d,
            (None, Some(sgh)) => sgh.insert_absent_hashed(r.src_hash, e.src),
            (None, None) => e.src,
        };
        let mut tier = self.admit(dense);
        // A tier with no room for the edge has written nothing: the vertex
        // moves up — inline entry to edgeblocks, narrow page to the next
        // class — and the insert retries, at most once per inline tier and
        // page class.
        let outcome = loop {
            match on_tier!(self, tier, upsert(dense, e, r.h0, &mut self.stats)) {
                Upsert::Full if tier == Tier::Inline => {
                    tier = Tier::Blocks;
                    self.migrate(dense, tier);
                }
                Upsert::Full => self.blocks.regrow(dense, &mut self.stats),
                settled => break settled,
            }
        };
        if outcome == Upsert::Updated {
            self.stats.updates += 1;
            return false;
        }
        // One new live edge: degree, totals, and the tier population when
        // the vertex's first edge appears.
        let p = self.props.ensure(dense, e.src);
        p.out_degree += 1;
        let deg = p.out_degree;
        self.live_edges += 1;
        self.stats.inserts += 1;
        if deg == 1 {
            self.tier_active(tier, true);
        }
        if tier == Tier::Blocks && self.config.hub_promote > 0 && deg >= self.config.hub_promote {
            self.migrate(dense, Tier::Hub);
        }
        true
    }

    /// Adjusts the active-vertex count (and gauge) of a tier. The
    /// population is reported for tiered layouts only: with no threshold
    /// set every vertex is in the edgeblocks and the counts stay zero.
    fn tier_active(&mut self, tier: Tier, up: bool) {
        if !self.config.adaptive_enabled() {
            return;
        }
        let m = crate::metrics::global();
        let g = match tier {
            Tier::Inline => &m.tier_inline_vertices,
            Tier::Blocks => &m.tier_blocks_vertices,
            Tier::Hub => &m.tier_hub_vertices,
        };
        if up {
            self.tier_counts[tier as usize] += 1;
            g.inc();
        } else {
            self.tier_counts[tier as usize] -= 1;
            g.dec();
        }
    }

    /// Moves the adjacency of `dense` to tier `to`: [`TierOps::drain`] from
    /// the tier that holds it, [`TierOps::adopt`] into the new one. Draining
    /// the edgeblock tier invalidates the edges' CAL copies and adopting
    /// into it registers new ones; degree and live-edge totals do not move.
    fn migrate(&mut self, dense: u32, to: Tier) {
        let _span = crate::trace::span_arg(crate::trace::SpanId::TierPromote, dense as u64);
        let from = std::mem::replace(&mut self.tiers[dense as usize], to);
        debug_assert_ne!(from, to);
        if self.props.out_degree(dense) > 0 {
            self.tier_active(from, false);
            self.tier_active(to, true);
        }
        let src = self.original_of(dense);
        let edges = on_tier!(self, from, drain(dense));
        on_tier!(self, to, adopt(dense, src, edges, &mut self.stats));
        let m = crate::metrics::global();
        if to as u8 > from as u8 {
            self.tier_promotions += 1;
            m.tier_promotions.inc();
        } else {
            self.tier_demotions += 1;
            m.tier_demotions.inc();
        }
    }

    /// Deletes the edge `(src, dst)`. Returns `true` if it existed.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> bool {
        let mark = self.flush_mark();
        let deleted = self.delete_resolved(src, dst, Resolved::hashed(src, dst));
        let m = crate::metrics::global();
        if deleted {
            m.tinker_deletes.inc();
        } else {
            m.tinker_delete_misses.inc();
        }
        self.flush_since(mark);
        deleted
    }

    /// Deletes `(src, dst)` given what its resolve stage carried (instance
    /// stats only, see [`insert_resolved`](Self::insert_resolved)).
    fn delete_resolved(&mut self, src: VertexId, dst: VertexId, r: Resolved) -> bool {
        self.stats.operations += 1;
        let deleted = self.remove_edge(src, dst, r);
        if deleted {
            self.stats.deletes += 1;
        } else {
            self.stats.delete_misses += 1;
        }
        deleted
    }

    /// The tier-dispatched delete, with the hysteresis demotions.
    fn remove_edge(&mut self, src: VertexId, dst: VertexId, r: Resolved) -> bool {
        let Some(dense) = self.dense_resolved(src, r) else { return false };
        let Some(tier) = self.tier_of(dense) else { return false };
        if !on_tier!(self, tier, remove(dense, dst, r.h0, &mut self.stats)) {
            return false;
        }
        let p = self.props.get_mut(dense).expect("source with an edge has properties");
        p.out_degree -= 1;
        let deg = p.out_degree;
        self.live_edges -= 1;
        if deg == 0 {
            self.tier_active(tier, false);
        }
        match tier {
            Tier::Inline => {}
            Tier::Blocks => {
                // Compact mode keeps the *whole* database compact, CAL
                // included: once invalidated records outnumber live ones,
                // rebuild the CAL from the edgeblocks (amortized O(1) per
                // delete).
                if self.config.delete_mode == DeleteMode::DeleteAndCompact
                    && self.blocks.cal().is_some_and(|c| c.num_invalid() > c.num_live().max(1024))
                {
                    self.rebuild_cal();
                }
                let cap = self.config.inline_cap;
                if cap > 0 && deg as usize * 2 <= cap {
                    self.migrate(dense, Tier::Inline);
                }
            }
            Tier::Hub => {
                if deg < self.config.hub_demote {
                    self.migrate(dense, Tier::Blocks);
                }
            }
        }
        true
    }

    /// Weight of the edge `(src, dst)`, if present.
    pub fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let dense = self.dense_lookup(src)?;
        on_tier!(self, self.tier_of(dense)?, find(dense, dst))
    }

    /// Whether the edge `(src, dst)` is present.
    #[inline]
    pub fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Live out-degree of `src` (0 for unknown vertices).
    pub fn out_degree(&self, src: VertexId) -> u32 {
        self.dense_lookup(src).map_or(0, |d| self.props.out_degree(d))
    }

    /// Applies a batch of updates, returning outcome counts.
    ///
    /// Operations execute strictly in arrival order through the same tier
    /// code as [`insert_edge`](Self::insert_edge) /
    /// [`delete_edge`](Self::delete_edge), but a read-only window runs
    /// ahead of the execute cursor so that the cold lines an operation
    /// will walk are already on their way when it runs: `3 * WINDOW` ops
    /// ahead the source is hashed and looked up in the SGH (the result is
    /// carried to execution), `2 * WINDOW` ahead its vertex entry is
    /// touched, `WINDOW` ahead its depth-0 subblock. The window mutates
    /// nothing and counts nothing, so structure, SGH order, CAL stream and
    /// every statistic equal the op-at-a-time loop's.
    ///
    /// The global op counters are flushed once per batch from the outcome
    /// counts (same totals as per-op increments, one atomic RMW per
    /// counter per batch), keeping the instrumented ingest path within the
    /// metrics-overhead budget.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> BatchResult {
        let mark = self.flush_mark();
        let mut r = BatchResult::default();
        let ops = batch.ops();
        let n = ops.len();
        let mut ring = [Resolved { src_hash: 0, h0: 0, dense: NIL_U32 }; RING];
        // The warmed values are folded into one word the optimizer must
        // produce, which is what keeps their loads in the program.
        let mut warmed = 0u64;
        for step in 0..n + 3 * WINDOW {
            if step < n {
                ring[step % RING] = self.resolve(&ops[step]);
            }
            if (WINDOW..n + WINDOW).contains(&step) {
                warmed ^= self.warm_vertex(ring[(step - WINDOW) % RING]);
            }
            if (2 * WINDOW..n + 2 * WINDOW).contains(&step) {
                let ahead = ring[(step - 2 * WINDOW) % RING];
                warmed ^= self.blocks.warm_subblock(ahead.dense, ahead.h0);
            }
            let Some(at) = step.checked_sub(3 * WINDOW) else { continue };
            let carried = ring[at % RING];
            match ops[at] {
                UpdateOp::Insert(e) => {
                    if self.insert_resolved(e, carried) {
                        r.inserted += 1;
                    } else {
                        r.updated += 1;
                    }
                }
                UpdateOp::Delete { src, dst } => {
                    if self.delete_resolved(src, dst, carried) {
                        r.deleted += 1;
                    } else {
                        r.not_found += 1;
                    }
                }
            }
        }
        std::hint::black_box(warmed);
        let m = crate::metrics::global();
        m.tinker_inserts.add(r.inserted);
        m.tinker_updates.add(r.updated);
        m.tinker_deletes.add(r.deleted);
        m.tinker_delete_misses.add(r.not_found);
        self.flush_since(mark);
        r
    }

    /// Window stage 1: both hashes of `op` and a plain SGH probe for its
    /// source. `NIL_VERTEX` is left for execution to reject.
    #[inline]
    fn resolve(&self, op: &UpdateOp) -> Resolved {
        let src = op.src();
        let mut r = Resolved::hashed(src, op.dst());
        if src != NIL_VERTEX {
            r.dense = self.dense_lookup_hashed(src, r.src_hash).unwrap_or(NIL_U32);
        }
        r
    }

    /// Window stage 2: loads the resolved source's degree, tier and the
    /// entry its tier dispatch will read first (inline slot, top-block id
    /// or hub slot). Returns the loaded words; the tier may still change
    /// before the operation executes, which only wastes the touch.
    #[inline]
    fn warm_vertex(&self, r: Resolved) -> u64 {
        let Some(tier) = self.tier_of(r.dense) else { return 0 };
        u64::from(on_tier!(self, tier, warm(r.dense)) ^ self.props.out_degree(r.dense))
    }

    /// Visits every live out-edge of `src` as `(dst, weight)` from the
    /// tier that holds its adjacency. This is the incremental-mode (random
    /// access) retrieval path.
    pub fn for_each_out_edge<F: FnMut(VertexId, Weight)>(&self, src: VertexId, mut f: F) {
        let Some(dense) = self.dense_lookup(src) else { return };
        let Some(tier) = self.tier_of(dense) else { return };
        on_tier!(self, tier, for_each(dense, &mut f));
    }

    /// Visits every live edge as `(src, dst, weight)`: the full-processing
    /// retrieval path.
    ///
    /// With the CAL enabled it walks the CAL groups (`cal_group_size` dense
    /// sources each) in order. A group streams its CAL chain — the
    /// edgeblock tier's edges, read sequentially — and then, each in dense
    /// order, the inline entries and the hub segments of its sources,
    /// which are dense runs themselves. With the CAL disabled it is
    /// [`for_each_edge_main`](Self::for_each_edge_main), which walks the
    /// edgeblocks vertex by vertex: the non-contiguous access pattern the
    /// CAL exists to avoid.
    pub fn for_each_edge<F: FnMut(VertexId, VertexId, Weight)>(&self, mut f: F) {
        let Some(cal) = self.blocks.cal() else { return self.for_each_edge_main(f) };
        let (len, sources) = (self.config.cal_group_size, self.tiers.len());
        for g in 0..sources.div_ceil(len) {
            let dense = g * len..((g + 1) * len).min(sources);
            cal.for_each_edge_in_group(g, &mut f);
            self.inline.stream(dense.clone(), |d| self.original_of(d), &mut f);
            self.hub.stream(dense, |d| self.original_of(d), &mut f);
        }
    }

    /// Visits every live edge from the tiers themselves, source by source
    /// in dense order, whether or not a CAL exists (snapshots, tests and
    /// the CAL ablation).
    pub fn for_each_edge_main<F: FnMut(VertexId, VertexId, Weight)>(&self, mut f: F) {
        for d in 0..self.tiers.len() {
            let src = self.original_of(d as u32);
            on_tier!(self, self.tiers[d], for_each(d as u32, |v, w| f(src, v, w)));
        }
    }

    /// Iterates the original ids of all non-empty source vertices, in SGH
    /// (arrival) order.
    pub fn sources(&self) -> Vec<VertexId> {
        match &self.sgh {
            Some(sgh) => sgh.iter_dense().map(|(_, o)| o).collect(),
            // Without SGH the raw id is the slot; a slot has held a source
            // once an insert bound its property entry.
            None => (0..self.tiers.len() as u32)
                .filter(|&d| self.props.get(d).is_some_and(|p| p.original_id != NIL_VERTEX))
                .collect(),
        }
    }

    /// Pre-assigns dense source ids in the given order, as if each source
    /// had streamed one edge in. Snapshot import calls this with the saved
    /// SGH arrival order before replaying the edge payload, so the restored
    /// store reproduces the original dense remapping (and therefore the
    /// original CAL grouping and analytics stream order).
    /// With SGH disabled the ids are their own dense index and this only
    /// widens the observed vertex space.
    pub fn import_sources(&mut self, sources: &[VertexId]) {
        for &src in sources {
            self.note_vertex(src);
            if let Some(sgh) = &mut self.sgh {
                sgh.get_or_insert_hashed(source_hash(src), src);
            }
        }
    }

    /// Widens the observed vertex id space to at least `space` (one past
    /// the largest id). Snapshot import restores the space recorded at
    /// save time: endpoints of since-deleted edges are not recoverable
    /// from the live edge payload, yet analytics array sizing depends on
    /// them. Never shrinks.
    pub fn expand_vertex_space(&mut self, space: u32) {
        if space > self.vertex_space {
            self.vertex_space = space;
        }
    }

    /// Rebuilds the CAL from the live edges of the edgeblock tier,
    /// discarding accumulated invalid records and refreshing every CAL
    /// pointer. No-op when CAL is disabled.
    pub fn rebuild_cal(&mut self) {
        if self.blocks.cal().is_none() {
            return;
        }
        crate::metrics::global().tinker_cal_rebuilds.inc();
        let sgh = &self.sgh;
        self.blocks.rebuild_cal(|dense| sgh.as_ref().map_or(dense, |s| s.original_of(dense)));
    }
}

impl std::fmt::Debug for GraphTinker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphTinker")
            .field("edges", &self.live_edges)
            .field("sources", &self.num_sources())
            .field("vertex_space", &self.vertex_space)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny_config() -> TinkerConfig {
        // Small geometry so branching kicks in quickly; tiers off, so every
        // vertex exercises the edgeblock tier (`adaptive_tiny` covers tiers).
        TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::paper() }
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut g = GraphTinker::with_defaults();
        assert!(g.insert_edge(Edge::new(1, 2, 10)));
        assert!(g.insert_edge(Edge::new(1, 3, 20)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(10));
        assert_eq!(g.edge_weight(1, 3), Some(20));
        assert_eq!(g.edge_weight(1, 4), None);
        assert_eq!(g.edge_weight(2, 1), None, "edges are directed");
        assert_eq!(g.out_degree(1), 2);
    }

    #[test]
    fn reinsert_updates_weight_not_count() {
        let mut g = GraphTinker::with_defaults();
        assert!(g.insert_edge(Edge::new(5, 6, 1)));
        assert!(!g.insert_edge(Edge::new(5, 6, 99)));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.edge_weight(5, 6), Some(99));
        // CAL copy tracked the weight update too.
        let mut w = 0;
        g.for_each_edge(|_, _, weight| w = weight);
        assert_eq!(w, 99);
    }

    #[test]
    fn delete_only_tombstones_and_forgets_edge() {
        let mut g = GraphTinker::new(TinkerConfig::paper()).unwrap();
        g.insert_edge(Edge::new(1, 2, 1));
        g.insert_edge(Edge::new(1, 3, 1));
        assert!(g.delete_edge(1, 2));
        assert!(!g.delete_edge(1, 2), "double delete reports missing");
        assert!(!g.contains_edge(1, 2));
        assert!(g.contains_edge(1, 3));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.structure_stats().tombstones, 1);
    }

    #[test]
    fn delete_missing_edge_and_missing_vertex() {
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(1, 2));
        assert!(!g.delete_edge(1, 99));
        assert!(!g.delete_edge(42, 1), "unknown source");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn tombstone_slot_reused_by_insert() {
        let mut g = GraphTinker::new(TinkerConfig::paper()).unwrap();
        g.insert_edge(Edge::new(1, 2, 1));
        g.delete_edge(1, 2);
        assert_eq!(g.structure_stats().tombstones, 1);
        // Reinserting the same destination probes the same bucket, so the
        // tombstoned cell is reclaimed ("the INSERT stage can also insert
        // edges into these empty slots").
        g.insert_edge(Edge::new(1, 2, 3));
        assert_eq!(g.structure_stats().tombstones, 0, "insert reclaims the tombstone");
        assert_eq!(g.edge_weight(1, 2), Some(3));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn high_degree_vertex_branches_out() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for d in 0..200u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        assert_eq!(g.num_edges(), 200);
        assert_eq!(g.out_degree(0), 200);
        let st = g.structure_stats();
        assert!(st.overflow_blocks > 0, "200 edges in 16-cell blocks must branch");
        assert!(g.stats().branches_created > 0);
        assert!(g.stats().max_depth > 0);
        // Every edge still findable.
        for d in 0..200u32 {
            assert!(g.contains_edge(0, d + 1), "lost edge (0, {})", d + 1);
        }
    }

    #[test]
    fn out_edge_iteration_matches_inserts() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        let mut expected = BTreeMap::new();
        for d in 0..100u32 {
            g.insert_edge(Edge::new(7, d, d * 2));
            expected.insert(d, d * 2);
        }
        let mut seen = BTreeMap::new();
        g.for_each_out_edge(7, |dst, w| {
            assert!(seen.insert(dst, w).is_none(), "duplicate dst {dst}");
        });
        assert_eq!(seen, expected);
    }

    #[test]
    fn cal_stream_matches_main_scan() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..500u32 {
            g.insert_edge(Edge::new(i % 37, i, i % 5 + 1));
        }
        for i in (0..500u32).step_by(3) {
            g.delete_edge(i % 37, i);
        }
        let mut from_cal: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge(|s, d, w| from_cal.push((s, d, w)));
        let mut from_main: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge_main(|s, d, w| from_main.push((s, d, w)));
        from_cal.sort_unstable();
        from_main.sort_unstable();
        assert_eq!(from_cal, from_main, "CAL and main structure diverged");
        assert_eq!(from_cal.len() as u64, g.num_edges());
    }

    #[test]
    fn delete_and_compact_shrinks_structure() {
        let cfg = TinkerConfig { delete_mode: DeleteMode::DeleteAndCompact, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..300u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        let before = g.structure_stats();
        assert!(before.overflow_blocks > 0);
        for d in 0..300u32 {
            assert!(g.delete_edge(0, d + 1), "edge {} should delete", d + 1);
        }
        let after = g.structure_stats();
        assert_eq!(g.num_edges(), 0);
        assert!(
            after.free_blocks > 0,
            "compaction must recycle emptied overflow blocks: {after:?}"
        );
        assert_eq!(after.overflow_blocks, 0, "all overflow blocks recycled when empty");
    }

    #[test]
    fn delete_and_compact_preserves_remaining_edges() {
        let cfg = TinkerConfig { delete_mode: DeleteMode::DeleteAndCompact, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..120u32 {
            g.insert_edge(Edge::new(3, d, d));
        }
        // Delete every other edge; compaction moves survivors around.
        for d in (0..120u32).step_by(2) {
            assert!(g.delete_edge(3, d));
        }
        for d in 0..120u32 {
            if d % 2 == 0 {
                assert!(!g.contains_edge(3, d), "deleted edge {d} still visible");
            } else {
                assert_eq!(g.edge_weight(3, d), Some(d), "survivor {d} lost or corrupted");
            }
        }
        assert_eq!(g.num_edges(), 60);
    }

    #[test]
    fn sgh_disabled_still_correct() {
        let cfg = TinkerConfig { enable_sgh: false, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        g.insert_edge(Edge::new(1000, 1, 5));
        g.insert_edge(Edge::new(3, 1000, 6));
        assert_eq!(g.edge_weight(1000, 1), Some(5));
        assert_eq!(g.edge_weight(3, 1000), Some(6));
        // Main region is sparse: indexed by raw id.
        assert_eq!(g.num_sources(), 1001);
        let mut edges = Vec::new();
        g.for_each_edge(|s, d, w| edges.push((s, d, w)));
        edges.sort_unstable();
        assert_eq!(edges, vec![(3, 1000, 6), (1000, 1, 5)]);
    }

    #[test]
    fn cal_disabled_falls_back_to_main_scan() {
        let cfg = TinkerConfig { enable_cal: false, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for i in 0..50u32 {
            g.insert_edge(Edge::new(i % 5, i, 1));
        }
        g.delete_edge(0, 0);
        let mut n = 0;
        g.for_each_edge(|_, _, _| n += 1);
        assert_eq!(n, 49);
        assert_eq!(g.structure_stats().cal_blocks, 0);
    }

    #[test]
    fn sgh_compacts_sparse_sources() {
        // The paper's example: sources 34 and 22789 should be adjacent in
        // the main region, not 22755 slots apart.
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(34, 1));
        g.insert_edge(Edge::unit(22789, 2));
        assert_eq!(g.num_sources(), 2);
        assert_eq!(g.sources(), vec![34, 22789]);
    }

    #[test]
    fn rebuild_cal_drops_invalid_records() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..100u32 {
            g.insert_edge(Edge::new(0, i, i));
        }
        for i in 0..50u32 {
            g.delete_edge(0, i);
        }
        assert_eq!(g.structure_stats().cal_invalid, 50);
        g.rebuild_cal();
        assert_eq!(g.structure_stats().cal_invalid, 0);
        g.validate_tag_invariants().unwrap();
        // Pointers still valid: weight updates must reach the new CAL.
        g.insert_edge(Edge::new(0, 99, 12345));
        let mut found = false;
        g.for_each_edge(|_, d, w| {
            if d == 99 {
                assert_eq!(w, 12345);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn batch_apply_counts() {
        let mut g = GraphTinker::with_defaults();
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::unit(1, 2));
        b.push_insert(Edge::unit(1, 2)); // duplicate -> update
        b.push_insert(Edge::unit(2, 3));
        b.push_delete(1, 2);
        b.push_delete(9, 9); // missing
        let r = g.apply_batch(&b);
        assert_eq!(r, BatchResult { inserted: 2, updated: 1, deleted: 1, not_found: 1 });
        assert_eq!(r.total(), 5);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn vertex_space_tracks_both_endpoints() {
        let mut g = GraphTinker::with_defaults();
        assert_eq!(g.vertex_space(), 0);
        g.insert_edge(Edge::unit(3, 900));
        assert_eq!(g.vertex_space(), 901);
        g.insert_edge(Edge::unit(1000, 2));
        assert_eq!(g.vertex_space(), 1001);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut g = GraphTinker::with_defaults();
        for i in 0..100u32 {
            g.insert_edge(Edge::unit(0, i));
        }
        let s = g.stats();
        assert_eq!(s.operations, 100);
        assert!(s.cells_inspected >= 100);
        assert!(s.workblocks_fetched > 0);
        assert!(s.mean_probe() >= 1.0);
        g.reset_stats();
        assert_eq!(g.stats(), ProbeStats::default());
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = TinkerConfig { subblock: 5, ..TinkerConfig::default() };
        assert!(matches!(GraphTinker::new(cfg), Err(GraphError::InvalidConfig(_))));
    }

    #[test]
    fn occupancy_reflects_compaction() {
        // Identical inserts; tombstoning keeps blocks allocated, so
        // occupancy must be no better than with compaction.
        let mk = |mode| {
            let cfg = TinkerConfig { delete_mode: mode, ..tiny_config() };
            let mut g = GraphTinker::new(cfg).unwrap();
            for d in 0..400u32 {
                g.insert_edge(Edge::unit(0, d + 1));
            }
            for d in (0..400u32).step_by(2) {
                g.delete_edge(0, d + 1);
            }
            g
        };
        let tomb = mk(DeleteMode::DeleteOnly).structure_stats();
        let comp = mk(DeleteMode::DeleteAndCompact).structure_stats();
        assert!(
            comp.occupancy >= tomb.occupancy,
            "compacted occupancy {:.3} < tombstoned {:.3}",
            comp.occupancy,
            tomb.occupancy
        );
        assert_eq!(comp.tombstones, 0);
    }

    #[test]
    fn compact_mode_keeps_cal_bounded() {
        let cfg = TinkerConfig {
            delete_mode: DeleteMode::DeleteAndCompact,
            cal_block_size: 64,
            ..tiny_config()
        };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..4_000u32 {
            g.insert_edge(Edge::unit(d % 16, d));
        }
        for d in 0..3_900u32 {
            g.delete_edge(d % 16, d);
        }
        let st = g.structure_stats();
        assert!(
            st.cal_invalid <= st.live_edges.max(1024),
            "CAL GC failed to bound invalid records: {st:?}"
        );
        // Edges still intact after rebuilds.
        for d in 3_900..4_000u32 {
            assert!(g.contains_edge(d % 16, d), "lost edge {d} across CAL GC");
        }
        let mut n = 0;
        g.for_each_edge(|_, _, _| n += 1);
        assert_eq!(n, 100);
    }

    #[test]
    fn depth_histogram_counts_all_edges_and_stays_logarithmic() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for d in 0..1_000u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        let hist = g.depth_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 1_000);
        // 1000 edges in 16-cell blocks: an adjacency list would need a
        // 63-block chain; the hash tree must stay far shallower.
        assert!(hist.len() <= 16, "tree depth {} not logarithmic", hist.len());
        assert!(g.mean_depth() < 8.0, "mean depth {}", g.mean_depth());
    }

    #[test]
    fn probe_histogram_bounded_by_subblock() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..2_000u32 {
            g.insert_edge(Edge::unit(i % 13, i));
        }
        let hist = g.probe_histogram();
        assert_eq!(hist.len(), 4, "probe distances bounded by subblock length");
        assert_eq!(hist.iter().sum::<u64>(), 2_000);
        // Robin Hood: short probes dominate.
        assert!(hist[0] > hist[3], "probe distribution not front-loaded: {hist:?}");
    }

    #[test]
    fn empty_structure_diagnostics() {
        let g = GraphTinker::with_defaults();
        assert!(g.depth_histogram().is_empty());
        assert_eq!(g.probe_histogram().iter().sum::<u64>(), 0);
        assert_eq!(g.mean_depth(), 0.0);
    }

    #[test]
    fn import_sources_reproduces_dense_order() {
        // Build a store whose SGH order differs from sorted id order...
        let mut orig = GraphTinker::with_defaults();
        for &(s, d) in &[(50u32, 1u32), (3, 2), (97, 3), (3, 4)] {
            orig.insert_edge(Edge::unit(s, d));
        }
        assert_eq!(orig.sources(), vec![50, 3, 97]);
        // ...then rebuild it the snapshot way: sources first, edges after,
        // in an order that would otherwise assign different dense ids.
        let mut restored = GraphTinker::with_defaults();
        restored.import_sources(&orig.sources());
        restored.insert_edge(Edge::unit(97, 3));
        restored.insert_edge(Edge::unit(3, 2));
        restored.insert_edge(Edge::unit(3, 4));
        restored.insert_edge(Edge::unit(50, 1));
        assert_eq!(restored.sources(), orig.sources());
        assert_eq!(restored.num_sources(), 3);
        // Idempotent: re-importing known sources allocates nothing new.
        restored.import_sources(&[3, 50]);
        assert_eq!(restored.num_sources(), 3);
    }

    #[test]
    fn expand_vertex_space_never_shrinks() {
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(1, 500));
        g.expand_vertex_space(100);
        assert_eq!(g.vertex_space(), 501, "expand must not shrink");
        g.expand_vertex_space(1_000);
        assert_eq!(g.vertex_space(), 1_000);
    }

    fn adaptive_tiny() -> TinkerConfig {
        // Tiny geometry + low thresholds so every tier transition triggers
        // within a few dozen edges.
        tiny_config().tiers(2, 12, 6)
    }

    #[test]
    fn inline_tier_avoids_block_allocation() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        g.insert_edge(Edge::new(1, 10, 7));
        g.insert_edge(Edge::new(1, 11, 8));
        let st = g.structure_stats();
        assert_eq!(st.main_blocks, 0, "small vertices must not allocate edgeblocks");
        assert_eq!(st.tier_inline_vertices, 1);
        assert_eq!(g.edge_weight(1, 10), Some(7));
        assert_eq!(g.out_degree(1), 2);
        // Weight update in place.
        assert!(!g.insert_edge(Edge::new(1, 10, 70)));
        assert_eq!(g.edge_weight(1, 10), Some(70));
        // Delete brings it back to one edge, still inline.
        assert!(g.delete_edge(1, 11));
        assert!(!g.contains_edge(1, 11));
        assert_eq!(g.structure_stats().main_blocks, 0);
    }

    #[test]
    fn inline_promotes_to_blocks_then_hub_and_back() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        // 3rd edge overflows inline_cap = 2 -> blocks tier.
        for d in 0..3u32 {
            g.insert_edge(Edge::new(5, d + 100, d));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_blocks_vertices, 1);
        assert_eq!(st.tier_inline_vertices, 0);
        assert!(st.main_blocks > 0);
        assert!(st.tier_promotions >= 1);

        // Degree 12 reaches hub_promote -> hub tier, blocks recycled.
        for d in 3..12u32 {
            g.insert_edge(Edge::new(5, d + 100, d));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_hub_vertices, 1);
        assert_eq!(st.main_blocks, 0);
        assert!(st.free_blocks > 0, "promotion must recycle the subtree");
        for d in 0..12u32 {
            assert_eq!(g.edge_weight(5, d + 100), Some(d), "edge {d} lost in promotion");
        }

        // Dropping below hub_demote = 6 falls back to blocks, then below
        // inline_cap/2 to inline.
        for d in 0..7u32 {
            assert!(g.delete_edge(5, d + 100));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_blocks_vertices, 1, "hub must demote below the floor: {st:?}");
        for d in 7..11u32 {
            assert!(g.delete_edge(5, d + 100));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_inline_vertices, 1, "blocks must demote to inline: {st:?}");
        assert!(st.tier_demotions >= 2);
        assert_eq!(g.edge_weight(5, 111), Some(11), "last survivor intact");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adaptive_matches_model_under_churn() {
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let cfg = TinkerConfig { delete_mode: mode, ..adaptive_tiny() };
            let mut g = GraphTinker::new(cfg).unwrap();
            let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            // Skewed source distribution so a few vertices cross every
            // threshold repeatedly while most stay inline.
            for i in 0..6_000u32 {
                let src = (i * 7 % 97) * (i * 7 % 97) % 61;
                let dst = i * 13 % 211;
                if i % 4 == 3 {
                    let was = model.remove(&(src, dst)).is_some();
                    assert_eq!(g.delete_edge(src, dst), was, "delete mismatch at {i} ({mode:?})");
                } else {
                    let new = model.insert((src, dst), i).is_none();
                    assert_eq!(
                        g.insert_edge(Edge::new(src, dst, i)),
                        new,
                        "insert mismatch at {i} ({mode:?})"
                    );
                }
            }
            assert_eq!(g.num_edges() as usize, model.len());
            let mut got: Vec<(u32, u32, u32)> = Vec::new();
            g.for_each_edge(|s, d, w| got.push((s, d, w)));
            got.sort_unstable();
            let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
            assert_eq!(got, want, "CAL stream diverged ({mode:?})");
            // Main-structure scan agrees too (snapshot encode path).
            let mut main: Vec<(u32, u32, u32)> = Vec::new();
            g.for_each_edge_main(|s, d, w| main.push((s, d, w)));
            main.sort_unstable();
            assert_eq!(main, want, "main scan diverged ({mode:?})");
            for src in 0..61u32 {
                let deg = model.keys().filter(|&&(s, _)| s == src).count() as u32;
                assert_eq!(g.out_degree(src), deg, "degree mismatch for {src} ({mode:?})");
            }
            let st = g.structure_stats();
            assert!(st.tier_promotions > 0, "churn must exercise promotions ({mode:?})");
            assert_eq!(
                st.tier_inline_vertices + st.tier_blocks_vertices + st.tier_hub_vertices,
                (0..61).filter(|&s| g.out_degree(s) > 0).count(),
                "tier counts must sum to active vertices ({mode:?})"
            );
        }
    }

    #[test]
    fn adaptive_histograms_count_all_edges() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        for i in 0..1_000u32 {
            g.insert_edge(Edge::unit(i % 13, i));
        }
        assert_eq!(g.depth_histogram().iter().sum::<u64>(), 1_000);
        assert_eq!(g.probe_histogram().iter().sum::<u64>(), 1_000);
        assert!(g.validate_rhh_invariants().is_ok());
    }

    #[test]
    fn adaptive_rebuild_cal_spans_all_tiers() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        // Source 0 -> hub, source 1 -> blocks, source 2 -> inline.
        for d in 0..20u32 {
            g.insert_edge(Edge::new(0, d + 1000, d));
        }
        for d in 0..5u32 {
            g.insert_edge(Edge::new(1, d + 1000, d));
        }
        g.insert_edge(Edge::new(2, 1000, 9));
        let st = g.structure_stats();
        assert_eq!(
            (st.tier_inline_vertices, st.tier_blocks_vertices, st.tier_hub_vertices),
            (1, 1, 1)
        );
        g.rebuild_cal();
        assert_eq!(g.structure_stats().cal_invalid, 0);
        g.validate_tag_invariants().unwrap();
        // Weight updates reach the stream from every tier: through the
        // rebuilt CAL pointers for the edgeblock vertex, in place otherwise.
        g.insert_edge(Edge::new(0, 1001, 777));
        g.insert_edge(Edge::new(1, 1002, 555));
        g.insert_edge(Edge::new(2, 1000, 888));
        let mut seen = BTreeMap::new();
        g.for_each_edge(|s, d, w| {
            seen.insert((s, d), w);
        });
        assert_eq!(seen.get(&(0, 1001)), Some(&777));
        assert_eq!(seen.get(&(1, 1002)), Some(&555));
        assert_eq!(seen.get(&(2, 1000)), Some(&888));
        assert_eq!(seen.len() as u64, g.num_edges());
    }

    #[test]
    fn adaptive_sources_without_sgh() {
        let cfg = TinkerConfig { enable_sgh: false, ..adaptive_tiny() };
        let mut g = GraphTinker::new(cfg).unwrap();
        g.insert_edge(Edge::unit(3, 1)); // inline tier, no top block
        for d in 0..15u32 {
            g.insert_edge(Edge::unit(7, d + 10)); // hub tier
        }
        let mut s = g.sources();
        s.sort_unstable();
        assert_eq!(s, vec![3, 7], "inline/hub sources must be visible without SGH");
    }

    #[test]
    fn adaptive_memory_accounting_includes_tiers() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        for d in 0..40u32 {
            g.insert_edge(Edge::unit(0, d));
        }
        g.insert_edge(Edge::unit(1, 2));
        let st = g.structure_stats();
        assert!(st.hub_bytes > 0, "hub tier must be accounted: {st:?}");
        assert!(st.inline_bytes > 0);
        assert!(st.memory_bytes >= st.hub_bytes + st.inline_bytes);
        g.publish_memory_metrics();
    }

    #[test]
    fn many_sources_many_edges_consistency() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        // Mixed inserts/updates/deletes across many vertices.
        for i in 0..5_000u32 {
            let src = i * 7 % 211;
            let dst = i * 13 % 389;
            if i % 5 == 4 {
                let was = model.remove(&(src, dst)).is_some();
                assert_eq!(g.delete_edge(src, dst), was, "delete mismatch at {i}");
            } else {
                let new = model.insert((src, dst), i).is_none();
                assert_eq!(g.insert_edge(Edge::new(src, dst, i)), new, "insert mismatch at {i}");
            }
        }
        assert_eq!(g.num_edges() as usize, model.len());
        let mut got: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge(|s, d, w| got.push((s, d, w)));
        got.sort_unstable();
        let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
        assert_eq!(got, want);
        // Degrees agree with the model.
        for src in 0..211u32 {
            let deg = model.keys().filter(|&&(s, _)| s == src).count() as u32;
            assert_eq!(g.out_degree(src), deg, "degree mismatch for {src}");
        }
    }

    /// Mixed churn on one store; returns it for post-hoc validation.
    fn churned(cfg: TinkerConfig) -> GraphTinker {
        let mut g = GraphTinker::new(cfg).unwrap();
        for i in 0..4_000u32 {
            let src = i * 7 % 97;
            let dst = i * 13 % 431;
            if i % 4 == 3 {
                g.delete_edge(src, dst);
            } else {
                g.insert_edge(Edge::new(src, dst, i));
            }
        }
        g
    }

    #[test]
    fn tag_invariants_hold_under_churn_in_both_delete_modes() {
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let g = churned(TinkerConfig { delete_mode: mode, ..tiny_config() });
            g.validate_rhh_invariants().unwrap();
            g.validate_tag_invariants().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn tag_invariants_hold_across_adaptive_tiers() {
        let g = churned(adaptive_tiny());
        let st = g.structure_stats();
        assert!(st.tier_promotions > 0, "churn should exercise tier moves: {st:?}");
        g.validate_tag_invariants().unwrap();
    }

    #[test]
    fn tagged_find_agrees_with_full_cell_scan() {
        // The tagged FIND walk against a scan of every cell of the main
        // structure, which reads no tag lane.
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let g = churned(TinkerConfig { delete_mode: mode, ..tiny_config() });
            let mut scanned: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            g.for_each_edge_main(|s, d, w| assert!(scanned.insert((s, d), w).is_none()));
            assert_eq!(scanned.len() as u64, g.num_edges(), "{mode:?}");
            for src in 0..97u32 {
                for dst in 0..431u32 {
                    assert_eq!(
                        g.edge_weight(src, dst),
                        scanned.get(&(src, dst)).copied(),
                        "{mode:?}: tagged find and cell scan diverged at ({src}, {dst})"
                    );
                }
            }
            assert!(g.stats().tag_group_scans > 0, "the store must exercise the SWAR engine");
        }
    }

    /// A batch of one insert-only run per `(src, distinct, again)`: inserts
    /// to `distinct` destinations, with `again` of them re-inserted under a
    /// new weight halfway through the run.
    fn runs(runs: &[(u32, u32, u32)]) -> Vec<UpdateOp> {
        let mut ops = Vec::new();
        for &(src, distinct, again) in runs {
            for d in 0..distinct {
                ops.push(UpdateOp::Insert(Edge::new(src, 1000 + 7 * d, d + 1)));
                if d == distinct / 2 {
                    let repeats =
                        (0..again).map(|i| Edge::new(src, 1000 + 7 * (i % (d + 1)), 900 + i));
                    ops.extend(repeats.map(UpdateOp::Insert));
                }
            }
        }
        ops
    }

    fn tier(g: &GraphTinker, src: VertexId) -> Option<Tier> {
        g.dense_lookup(src).and_then(|d| g.tier_of(d))
    }

    /// Applies `setup` to two stores of `cfg`, then `ops` with
    /// [`ApplyBatch::load`] to one and `apply_batch` to the other, and
    /// checks they agree: outcome, edges and weights, degrees, tiers, tier
    /// counts, vertex space, op counters and both validators, and the SGH
    /// order when `ops` is already sorted by source (`load` then hands it
    /// to `apply_grouped` as it is). Returns the grouped store and the
    /// arrival-order one.
    fn grouped_and_batched(
        cfg: TinkerConfig,
        setup: impl Fn(&mut GraphTinker),
        ops: &[UpdateOp],
    ) -> (GraphTinker, GraphTinker) {
        let (mut grouped, mut batched) =
            (GraphTinker::new(cfg).unwrap(), GraphTinker::new(cfg).unwrap());
        setup(&mut grouped);
        setup(&mut batched);
        let batch: EdgeBatch = ops.iter().copied().collect();
        assert_eq!(grouped.load(ops.to_vec()), batched.apply_batch(&batch), "outcome");
        for g in [&grouped, &batched] {
            g.validate_rhh_invariants().unwrap();
            g.validate_tag_invariants().unwrap();
        }
        let edges = |g: &GraphTinker| {
            let mut v = Vec::new();
            g.for_each_edge(|s, d, w| v.push((s, d, w)));
            v.sort_unstable();
            v
        };
        assert_eq!(edges(&grouped), edges(&batched), "edges and weights");
        let order = |g: &GraphTinker| {
            let mut s = g.sources();
            if !ops.is_sorted_by_key(UpdateOp::src) {
                s.sort_unstable();
            }
            s
        };
        assert_eq!(order(&grouped), order(&batched), "SGH order");
        for src in grouped.sources() {
            assert_eq!(grouped.out_degree(src), batched.out_degree(src), "degree of {src}");
            assert_eq!(tier(&grouped, src), tier(&batched, src), "tier of {src}");
        }
        let (a, b) = (grouped.structure_stats(), batched.structure_stats());
        let tiers = |s: crate::StructureStats| {
            [s.tier_inline_vertices, s.tier_blocks_vertices, s.tier_hub_vertices]
        };
        assert_eq!(tiers(a), tiers(b), "tier counts");
        assert_eq!((a.live_edges, grouped.vertex_space()), (b.live_edges, batched.vertex_space()));
        let ops = |s: ProbeStats| (s.operations, s.inserts, s.updates, s.deletes, s.delete_misses);
        assert_eq!(ops(grouped.stats()), ops(batched.stats()), "op counters");
        (grouped, batched)
    }

    #[test]
    fn apply_grouped_places_new_runs_in_their_final_tier() {
        let cfg = TinkerConfig::default();
        let (cap, hub) = (cfg.inline_cap as u32, cfg.hub_promote);
        // Netted counts at both sides of both thresholds, and 130 ops that
        // net to 127 distinct edges (still below the hub).
        let plan =
            [(1, cap, 2), (2, cap + 1, 1), (3, hub - 1, 0), (4, hub, 0), (5, 127, 3), (6, 300, 9)];
        let (g, batched) = grouped_and_batched(cfg, |_| {}, &runs(&plan));
        let want = [Tier::Inline, Tier::Blocks, Tier::Blocks, Tier::Hub, Tier::Blocks, Tier::Hub];
        for (&(src, distinct, _), want) in plan.iter().zip(want) {
            assert_eq!((tier(&g, src), g.out_degree(src)), (Some(want), distinct), "source {src}");
        }
        assert_eq!(g.placed_whole(), plan.len() as u64);
        let moves = |g: &GraphTinker| g.structure_stats().tier_promotions;
        assert_eq!((moves(&g), g.structure_stats().tier_demotions), (0, 0), "no climb");
        assert!(moves(&batched) > 0, "the arrival order climbs");
    }

    #[test]
    fn apply_grouped_falls_back_for_deletes_and_present_sources() {
        let present = EdgeBatch::inserts(&[Edge::new(7, 1, 1), Edge::new(7, 2, 2)]);
        let setup = |g: &mut GraphTinker| {
            g.apply_batch(&present);
            g.import_sources(&[10]);
        };
        let mut ops = runs(&[(7, 9, 1), (8, 6, 0)]);
        ops.push(UpdateOp::Delete { src: 8, dst: 1007 });
        ops.extend(runs(&[(9, 20, 2), (10, 3, 0), (11, 2, 0)]));
        ops.push(UpdateOp::Delete { src: 11, dst: 1000 });
        ops.push(UpdateOp::Delete { src: 12, dst: 1 });
        let (g, _) = grouped_and_batched(TinkerConfig::default(), setup, &ops);
        // 9 is new and 10 was only imported: both placed whole. 7 holds
        // edges, 8 and 11 delete, 12 only deletes: `apply_batch`.
        assert_eq!(g.placed_whole(), 2);
        assert_eq!(g.edge_weight(8, 1007), None);
        assert_eq!(g.out_degree(11), 1);

        // The same ops plus a hub-sized source that deletes most of its
        // edges, one that deletes and re-inserts, and one insert-only
        // source, shuffled: `load` regroups them, and every key keeps its
        // ops' input order (the last weight wins), under both layouts.
        ops.extend(runs(&[(13, 140, 5), (14, 30, 3), (15, 9, 2)]));
        ops.extend((0..100).map(|d| UpdateOp::Delete { src: 13, dst: 1000 + 7 * d }));
        ops.extend((0..6).map(|d| UpdateOp::Delete { src: 14, dst: 1000 + 7 * d }));
        ops.extend(runs(&[(14, 4, 1)]));
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ops.len()).rev() {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ops.swap(i, (lcg >> 33) as usize % (i + 1));
        }
        for cfg in [TinkerConfig::default(), TinkerConfig::paper()] {
            let (g, _) = grouped_and_batched(cfg, setup, &ops);
            assert!(g.placed_whole() >= 3, "sources 9, 10 and 15 insert only");
        }
    }

    #[test]
    fn apply_grouped_on_the_paper_layout_and_without_sgh() {
        let plan = [(1, 4, 2), (2, 5, 1), (3, 127, 3), (4, 128, 0), (5, 300, 9)];
        let (g, _) = grouped_and_batched(TinkerConfig::paper(), |_| {}, &runs(&plan));
        assert_eq!(g.placed_whole(), plan.len() as u64);
        assert!(plan.iter().all(|&(src, ..)| tier(&g, src) == Some(Tier::Blocks)));
        let no_sgh = TinkerConfig { enable_sgh: false, ..TinkerConfig::default() };
        let (g, _) = grouped_and_batched(no_sgh, |_| {}, &runs(&plan));
        assert_eq!(g.placed_whole(), 0, "without the SGH every run takes apply_batch");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "contiguous")]
    fn apply_grouped_refuses_a_source_split_over_two_runs() {
        let mut ops = runs(&[(1, 3, 0), (2, 3, 0)]);
        ops.push(UpdateOp::Delete { src: 1, dst: 1000 });
        GraphTinker::with_defaults().apply_grouped(&ops.into_iter().collect());
    }

    #[test]
    fn occupancy_counts_edgeblock_cells_only() {
        // Forty hubs and ten edgeblock vertices: most edges live outside
        // the edgeblocks, which the ratio used to count (reading 10+).
        let mut g = GraphTinker::new(TinkerConfig::default().tiers(2, 12, 6)).unwrap();
        for src in 0..50u32 {
            let degree = if src < 40 { 40 } else { 5 };
            g.apply_batch(&(0..degree).map(|d| UpdateOp::Insert(Edge::unit(src, d))).collect());
        }
        let st = g.structure_stats();
        let cells: usize = st.block_classes.iter().map(|c| c.blocks * c.width).sum();
        assert!(st.live_edges as f64 / cells as f64 > 1.0, "hub-heavy: {st:?}");
        assert_eq!(st.occupancy, 50.0 / cells as f64, "ten sources of five edges");
        assert!(st.occupancy <= 1.0);
    }
}
