//! The bulk constructor: [`GraphTinker::apply_grouped`] places the whole
//! run of a source that is new to the store in the tier its degree selects,
//! at its final size. A store that learns a degree one edge at a time makes
//! a source climb through every tier it passes (inline, a 16-, 32- then
//! 64-cell page, the hub), copying its edges at each step; a source-grouped
//! stream — recovery's log tail, a snapshot's payload — knows the whole run
//! up front, so the climb is skipped.

use gtinker_types::{EdgeBatch, UpdateOp, VertexId, NIL_VERTEX};

use super::{BatchResult, GraphTinker};
use crate::hash::source_hash;
use crate::tier::{TierEdge, TierOps};
use crate::vertex::Tier;

impl GraphTinker {
    /// Applies a batch in which the ops of each source are contiguous (one
    /// run per source), with the result [`apply_batch`] would give. A
    /// source split over two runs would have them applied out of order;
    /// debug builds check the grouping.
    ///
    /// A run goes down the bulk path when the SGH is on, the run only
    /// inserts, and its source holds no edge and no tier storage (it is new
    /// to the store, or only registered by [`import_sources`]). The run is
    /// netted — the last insert per destination wins, the others count as
    /// updates — and the netted edges are adopted by the tier their count
    /// selects: inline up to `inline_cap`, the hub from `hub_promote`, the
    /// edgeblocks in between (whose adopt picks the page class). Every
    /// other run goes through [`apply_batch`], after the bulk runs.
    ///
    /// Degrees, live edges, vertex space, the SGH order, each source's
    /// tier, the tier counts, the op counters of [`ProbeStats`] and the
    /// global op counters come out as [`apply_batch`] leaves them. A
    /// bulk-placed source makes no tier move; its page class, slot order
    /// and CAL order may differ, and so may the probe-walk counters.
    ///
    /// [`apply_batch`]: Self::apply_batch
    /// [`import_sources`]: Self::import_sources
    /// [`ProbeStats`]: crate::ProbeStats
    pub fn apply_grouped(&mut self, batch: &EdgeBatch) -> BatchResult {
        if self.sgh.is_none() {
            return self.apply_batch(batch);
        }
        debug_assert!(is_grouped(batch.ops()), "a source's ops must be contiguous");
        let mark = self.flush_mark();
        let mut placed = BatchResult::default();
        let mut rest = EdgeBatch::new();
        for run in batch.ops().chunk_by(|a, b| a.src() == b.src()) {
            let src = run[0].src();
            if !self.place_whole(src, run, &mut placed) {
                self.register_deferred(src, run);
                run.iter().for_each(|&op| rest.push(op));
            }
        }
        let m = crate::metrics::global();
        m.tinker_inserts.add(placed.inserted);
        m.tinker_updates.add(placed.updated);
        self.flush_since(mark);
        let mut r = if rest.is_empty() { BatchResult::default() } else { self.apply_batch(&rest) };
        r.merge(&placed);
        r
    }

    /// Sources placed whole by [`apply_grouped`](Self::apply_grouped) over
    /// the store's life.
    pub fn placed_whole(&self) -> u64 {
        self.placed_whole
    }

    /// Places `run`, every op of `src` in the batch, whole; `false` (and
    /// nothing changed) when the bulk path does not apply.
    fn place_whole(&mut self, src: VertexId, run: &[UpdateOp], r: &mut BatchResult) -> bool {
        if src == NIL_VERTEX {
            return false;
        }
        let src_hash = source_hash(src);
        let known = self.dense_lookup_hashed(src, src_hash);
        if let Some(d) = known {
            let stored = self.tier_of(d).is_some_and(|t| on_tier!(self, t, holds(d)));
            if stored || self.props.out_degree(d) > 0 {
                return false;
            }
        }
        // Newest first, so the stable sort puts the last insert per
        // destination ahead of the ones it overwrites and dedup keeps it.
        let mut edges: Vec<TierEdge> = run
            .iter()
            .rev()
            .filter_map(|op| match *op {
                UpdateOp::Insert(e) => Some((e.dst, e.weight)),
                UpdateOp::Delete { .. } => None,
            })
            .collect();
        if edges.len() != run.len() {
            return false;
        }
        self.note_vertex(src);
        for &(dst, _) in &edges {
            assert!(dst != NIL_VERTEX, "NIL_VERTEX is reserved as the empty-cell sentinel");
            self.note_vertex(dst);
        }
        edges.sort_by_key(|&(dst, _)| dst);
        edges.dedup_by_key(|&mut (dst, _)| dst);
        let (degree, ops) = (edges.len() as u64, run.len() as u64);
        let dense = match known {
            Some(d) => d,
            None => self
                .sgh
                .as_mut()
                .expect("bulk path needs the SGH")
                .insert_absent_hashed(src_hash, src),
        };
        let cfg = &self.config;
        let tier = if degree <= cfg.inline_cap as u64 {
            Tier::Inline
        } else if cfg.hub_promote > 0 && degree >= u64::from(cfg.hub_promote) {
            Tier::Hub
        } else {
            Tier::Blocks
        };
        self.admit(dense);
        self.tiers[dense as usize] = tier;
        self.props.ensure(dense, src).out_degree = degree as u32;
        self.live_edges += degree;
        self.stats.operations += ops;
        self.stats.inserts += degree;
        self.stats.updates += ops - degree;
        r.inserted += degree;
        r.updated += ops - degree;
        self.tier_active(tier, true);
        on_tier!(self, tier, adopt(dense, src, edges, &mut self.stats));
        self.placed_whole += 1;
        true
    }

    /// Gives a new source of a run left to `apply_batch` its dense id now,
    /// if the run inserts, so that dense ids follow run order as they would
    /// under `apply_batch` alone.
    fn register_deferred(&mut self, src: VertexId, run: &[UpdateOp]) {
        if src == NIL_VERTEX || !run.iter().any(UpdateOp::is_insert) {
            return;
        }
        let src_hash = source_hash(src);
        if self.dense_lookup_hashed(src, src_hash).is_none() {
            if let Some(sgh) = &mut self.sgh {
                sgh.insert_absent_hashed(src_hash, src);
            }
        }
    }
}

/// Whether no source has ops in two runs of `ops`.
fn is_grouped(ops: &[UpdateOp]) -> bool {
    let mut seen = std::collections::HashSet::new();
    ops.chunk_by(|a, b| a.src() == b.src()).all(|run| seen.insert(run[0].src()))
}
