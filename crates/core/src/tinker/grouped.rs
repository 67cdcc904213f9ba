//! The bulk constructor: [`GraphTinker::apply_grouped`] places the whole
//! run of a source that is new to the store in the tier its degree selects,
//! at its final size. A store that learns a degree one edge at a time makes
//! a source climb through every tier it passes (inline, a 16-, 32- then
//! 64-cell page, the hub), copying its edges at each step; a source-grouped
//! stream — [`super::ApplyBatch::load`]'s input, a snapshot's payload —
//! knows the whole run up front, so the climb is skipped.

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

/// Grouped streams are applied about this many ops at a time
/// ([`run_chunks`]): a batch flushes the store's counters once, and the op
/// copy it needs stays cache-sized.
pub const DECODE_BATCH_OPS: usize = 64 << 10;

/// Cuts `items`, grouped into runs by `key`, into chunks of about
/// [`DECODE_BATCH_OPS`] items that each end at a run boundary. A run is
/// never split, so a chunk holding a longer run is as long as the run.
pub fn run_chunks<'a, T>(
    items: &'a [T],
    key: impl Fn(&T) -> VertexId + 'a,
) -> impl Iterator<Item = &'a [T]> + 'a {
    let mut rest = items;
    std::iter::from_fn(move || {
        let mut end = rest.len().min(DECODE_BATCH_OPS);
        let last = key(rest.get(end.checked_sub(1)?)?);
        end += rest[end..].iter().take_while(|x| key(x) == last).count();
        let (chunk, tail) = rest.split_at(end);
        rest = tail;
        Some(chunk)
    })
}

/// `ops` stably sorted by source: a two-pass LSD radix sort, 16 bits of the
/// source a pass, skipping a pass whose digit is the same for every op.
/// Its tables are two 64 Ki-entry histograms whatever the id range, plus
/// one scratch copy of `ops`.
///
/// Stability is what makes a grouped apply equal to the arrival-order
/// one: every `(src, dst)` key still sees its ops in input order, and ops
/// of different sources touch disjoint adjacency, so edges, weights,
/// degrees, vertex space and each vertex's tier and page-class history
/// come out the same; only dense ids and CAL positions differ.
pub fn group_by_source(ops: Vec<UpdateOp>) -> Vec<UpdateOp> {
    const DIGIT: usize = 1 << 16;
    let n = ops.len();
    let mut counts = [vec![0usize; DIGIT], vec![0usize; DIGIT]];
    for op in &ops {
        let src = op.src() as usize;
        counts[0][src % DIGIT] += 1;
        counts[1][src / DIGIT] += 1;
    }
    let mut from = ops;
    let mut to = Vec::new();
    for (pass, count) in counts.iter_mut().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            let len = *c;
            *c = at;
            at += len;
        }
        to.resize(n, UpdateOp::Delete { src: 0, dst: 0 });
        for &op in &from {
            let digit = (op.src() as usize >> (16 * pass)) % DIGIT;
            to[count[digit]] = op;
            count[digit] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::Edge;

    #[test]
    fn group_by_source_is_a_stable_sort_by_source() {
        let ops: Vec<UpdateOp> = (0..5000u32)
            .map(|i| {
                let src = match i % 4 {
                    0 => i % 7,
                    1 => u32::MAX - 1 - i % 3,
                    2 => (i % 5) << 16,
                    _ => i.wrapping_mul(0x9E37_79B9),
                };
                // Distinct destinations make any reordering of equal
                // sources visible.
                if i % 3 == 0 {
                    UpdateOp::Delete { src, dst: i }
                } else {
                    UpdateOp::Insert(Edge::new(src, i, i))
                }
            })
            .collect();
        for ops in [ops.clone(), ops.iter().filter(|op| op.src() < 7).copied().collect(), vec![]] {
            let mut expected = ops.clone();
            expected.sort_by_key(UpdateOp::src);
            assert_eq!(group_by_source(ops), expected);
        }
    }

    #[test]
    fn run_chunks_end_only_at_run_boundaries() {
        // Runs of 10, then one longer than a chunk, then a run straddling
        // the next cut, then short ones.
        let mut keys: Vec<u32> = (0..2_000).map(|i| i / 10).collect();
        keys.extend(std::iter::repeat_n(5_000, DECODE_BATCH_OPS + 7));
        keys.extend(std::iter::repeat_n(6_000, DECODE_BATCH_OPS - 2));
        keys.extend((0..DECODE_BATCH_OPS as u32).map(|i| 7_000 + i / 3));
        let chunks: Vec<&[u32]> = run_chunks(&keys, |&k| k).collect();
        assert_eq!(chunks.concat(), keys);
        assert_eq!(chunks[0].len(), 2_000 + DECODE_BATCH_OPS + 7, "a long run is never split");
        // The cut falls two ops into a run of three: it moves past the third.
        assert_eq!(chunks[1].len(), DECODE_BATCH_OPS + 1);
        for pair in chunks.windows(2) {
            assert_ne!(pair[0].last(), pair[1].first(), "a run spans two chunks");
        }
        assert_eq!(run_chunks(&[] as &[u32], |&k| k).count(), 0);
    }
}
