//! The delta half of the epoch read side ([`crate::epoch`]): the batches
//! acked after a shard's CSR base, netted into one sorted overlay.
//!
//! * **Netting.** Ops are netted per `(src, dst)`: the last op wins, and
//!   an insert of an edge that is already present is an update with the
//!   new weight. Each surviving op is classified against the base with one
//!   binary search in the source's row — an `Insert` the base lacks, an
//!   `Update` of a base edge's weight, or a `Delete` of a base edge — and
//!   an op that leaves the edge as the base has it is dropped.
//! * **Folding.** A newly pinned epoch merges the new ops into the
//!   previous overlay: the overlay is one flat array sorted by
//!   `(src, dst)`, so the spans between new keys are copied whole.
//!   O(overlay + new ops), never O(store).
//! * **Reading.** Base rows and overlay runs are both sorted by `dst`, so
//!   a row, a point query and a stream are each one merge walk; a degree
//!   is the base row's length plus the run's inserts minus its deletes.
//! * **Rebasing.** `merge` writes base + overlay into the next base
//!   (into a retired base's buffers, copying the rows no op touched
//!   whole), and `Overlay::rebased` re-nets the ops folded since against
//!   it in one walk of the overlay merged and the overlay now.

use std::sync::Arc;

use gtinker_types::{UpdateOp, VertexId, Weight};

use crate::csr::CsrSnapshot;
use crate::store::GraphStore;

/// How a netted op changes its base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The base lacks the edge; the overlay adds it.
    Insert,
    /// The base has the edge with another weight.
    Update,
    /// The base has the edge; the overlay removes it.
    Delete,
}

/// One netted op: `(src, dst)` packed as `src << 32 | dst`, so the sort
/// order is the key order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    key: u64,
    weight: Weight,
    kind: Kind,
}

#[inline]
fn key(src: VertexId, dst: VertexId) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

impl Entry {
    #[inline]
    fn src(&self) -> VertexId {
        (self.key >> 32) as VertexId
    }

    #[inline]
    fn dst(&self) -> VertexId {
        self.key as VertexId
    }

    /// The edge's weight after the op, `None` if it is absent.
    #[inline]
    fn after(&self) -> Option<Weight> {
        (self.kind != Kind::Delete).then_some(self.weight)
    }

    /// The op's change to its source's out-degree.
    #[inline]
    fn degree(&self) -> i64 {
        match self.kind {
            Kind::Insert => 1,
            Kind::Update => 0,
            Kind::Delete => -1,
        }
    }

    /// The entry taking an edge from `was` to `after`, if they differ.
    #[inline]
    fn between(key: u64, was: Option<Weight>, after: Option<Weight>) -> Option<Entry> {
        let (kind, weight) = match (after, was) {
            (Some(w), None) => (Kind::Insert, w),
            (Some(w), Some(b)) if w != b => (Kind::Update, w),
            (None, Some(_)) => (Kind::Delete, 0),
            _ => return None,
        };
        Some(Entry { key, weight, kind })
    }
}

/// The ops after a base, netted per `(src, dst)`, in one array sorted by
/// it.
#[derive(Debug, Default)]
pub(crate) struct Overlay {
    entries: Vec<Entry>,
    /// Live-edge change against the base.
    edges: i64,
    /// One past the largest endpoint of any insert folded so far (the
    /// store's vertex space never shrinks, even if the edge is gone).
    vertex_space: u32,
}

impl Overlay {
    /// Netted ops held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Heap footprint in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// The run of `src`: its entries, by ascending `dst`.
    fn run(&self, src: VertexId) -> &[Entry] {
        let lo = self.entries.partition_point(|e| e.key < key(src, 0));
        let len = self.entries[lo..].partition_point(|e| e.src() == src);
        &self.entries[lo..lo + len]
    }

    fn find(&self, src: VertexId, dst: VertexId) -> Option<Entry> {
        let k = key(src, dst);
        self.entries.binary_search_by_key(&k, |e| e.key).ok().map(|i| self.entries[i])
    }

    /// This overlay with `claim`'s ops folded in, over the same `base`.
    pub(crate) fn fold(&self, base: &CsrSnapshot, claim: &mut Claim) -> Overlay {
        // (key, seq) order: the last op of each key comes last.
        claim.ops.sort_unstable();
        let (ops, old) = (&claim.ops, &self.entries);
        let mut out = Vec::with_capacity(old.len() + ops.len());
        let mut edges = self.edges;
        let (mut i, mut j) = (0, 0);
        while j < ops.len() {
            let k = ops[j].0;
            while j + 1 < ops.len() && ops[j + 1].0 == k {
                j += 1;
            }
            // New keys are dense in the old ones: scan, the span is copied
            // anyway.
            let at = i + old[i..].iter().take_while(|e| e.key < k).count();
            out.extend_from_slice(&old[i..at]);
            i = at;
            if old.get(i).is_some_and(|e| e.key == k) {
                edges -= old[i].degree();
                i += 1;
            }
            let after = (ops[j].1 & DELETE == 0).then_some(ops[j].1 as Weight);
            let was = base.edge_weight((k >> 32) as VertexId, k as VertexId);
            if let Some(e) = Entry::between(k, was, after) {
                edges += e.degree();
                out.push(e);
            }
            j += 1;
        }
        out.extend_from_slice(&old[i..]);
        let vertex_space = self.vertex_space.max(claim.vertex_space);
        Overlay { entries: out, edges, vertex_space }
    }

    /// The same edge states as deltas against `old` + `merged`, the base
    /// that `merged` (this overlay's state at the rebase, over `old`) was
    /// merged into: one walk of both overlays. An edge only this overlay
    /// holds is where `old` left it in the new base too; one both hold
    /// keeps an entry only if it changed again; one only `merged` holds
    /// went back to `old`'s state since, which the new base must undo.
    pub(crate) fn rebased(&self, merged: &Overlay, old: &CsrSnapshot) -> Overlay {
        let mut out = Vec::with_capacity(self.len().saturating_sub(merged.len()));
        let mut edges = 0;
        let (mut i, mut r) = (0, 0);
        let (now, then) = (&self.entries, &merged.entries);
        while i < now.len() || r < then.len() {
            let k = match (now.get(i), then.get(r)) {
                (Some(e), Some(m)) => e.key.min(m.key),
                (Some(e), None) => e.key,
                (None, Some(m)) => m.key,
                (None, None) => unreachable!("the loop condition holds"),
            };
            let e = now.get(i).filter(|e| e.key == k).copied();
            let m = then.get(r).filter(|m| m.key == k).copied();
            i += usize::from(e.is_some());
            r += usize::from(m.is_some());
            let entry = match (e, m) {
                (Some(e), None) => Some(e),
                (e, Some(m)) => {
                    let after = e.map_or_else(|| old.edge_weight(m.src(), m.dst()), |e| e.after());
                    Entry::between(k, m.after(), after)
                }
                (None, None) => None,
            };
            if let Some(e) = entry {
                edges += e.degree();
                out.push(e);
            }
        }
        Overlay { entries: out, edges, vertex_space: self.vertex_space }
    }
}

/// Bit of a packed op's tail that marks a delete.
const DELETE: u64 = 1 << 32;

/// One shard's new ops, in arrival order, packed for netting: the key, and
/// the arrival index above the delete bit above the weight.
#[derive(Debug, Default)]
pub(crate) struct Claim {
    ops: Vec<(u64, u64)>,
    /// One past the largest endpoint of any insert.
    vertex_space: u32,
}

impl Claim {
    pub(crate) fn push(&mut self, op: &UpdateOp) {
        let seq = (self.ops.len() as u64) << 33;
        self.ops.push(match *op {
            UpdateOp::Insert(e) => {
                self.vertex_space = self.vertex_space.max(e.src.max(e.dst) + 1);
                (key(e.src, e.dst), seq | u64::from(e.weight))
            }
            UpdateOp::Delete { src, dst } => (key(src, dst), seq | DELETE),
        });
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One row of `base` with one overlay run applied, in `dst` order.
#[inline]
fn merge_row(
    (dsts, weights): (&[VertexId], &[Weight]),
    run: &[Entry],
    mut f: impl FnMut(VertexId, Weight),
) {
    let (mut i, mut j) = (0, 0);
    while i < dsts.len() || j < run.len() {
        if j == run.len() || (i < dsts.len() && dsts[i] < run[j].dst()) {
            f(dsts[i], weights[i]);
            i += 1;
        } else {
            let e = run[j];
            if e.kind != Kind::Delete {
                f(e.dst(), e.weight);
            }
            // An update or delete names a base edge: skip it.
            i += usize::from(e.kind != Kind::Insert);
            j += 1;
        }
    }
}

/// A stretch of rows in a walk over base + overlay.
enum Rows<'a> {
    /// Rows `lo..hi`, which the overlay does not touch.
    Whole(u32, u32),
    /// One row and its overlay run.
    Touched(u32, &'a [Entry]),
}

/// The rows `0..n` of base + overlay, in order, as [`Rows`].
struct RowWalk<'a> {
    entries: &'a [Entry],
    n: u32,
    next_row: u32,
    touched: Option<(u32, &'a [Entry])>,
}

impl<'a> RowWalk<'a> {
    fn new(overlay: &'a Overlay, n: u32) -> Self {
        RowWalk { entries: &overlay.entries, n, next_row: 0, touched: None }
    }
}

impl<'a> Iterator for RowWalk<'a> {
    type Item = Rows<'a>;

    fn next(&mut self) -> Option<Rows<'a>> {
        if let Some((v, run)) = self.touched.take() {
            return Some(Rows::Touched(v, run));
        }
        let lo = self.next_row;
        if lo >= self.n {
            return None;
        }
        let hi = match self.entries.first() {
            Some(e) => {
                let v = e.src();
                let len = self.entries.iter().take_while(|x| x.src() == v).count();
                self.touched = Some((v, &self.entries[..len]));
                self.entries = &self.entries[len..];
                v
            }
            None => self.n,
        };
        self.next_row = hi + 1;
        if lo < hi {
            Some(Rows::Whole(lo, hi))
        } else {
            self.next()
        }
    }
}

/// Base + overlay as the next base, built into `out`'s buffers: untouched
/// rows are copied whole.
pub(crate) fn merge(base: &CsrSnapshot, overlay: &Overlay, mut out: CsrSnapshot) -> CsrSnapshot {
    out.clear();
    let n = base.num_vertices().max(overlay.vertex_space);
    let edges = (base.num_edges() as i64 + overlay.edges) as usize;
    out.dsts.reserve_exact(edges);
    out.weights.reserve_exact(edges);
    out.offsets.reserve_exact(n as usize);
    let nb = base.num_vertices();
    for rows in RowWalk::new(overlay, n) {
        match rows {
            Rows::Whole(lo, hi) => {
                let hi_b = hi.min(nb);
                if lo < hi_b {
                    let (lo, hi_b) = (lo as usize, hi_b as usize);
                    let (a, b) = (base.offsets[lo] as usize, base.offsets[hi_b] as usize);
                    let shift = out.dsts.len() as i64 - a as i64;
                    out.dsts.extend_from_slice(&base.dsts[a..b]);
                    out.weights.extend_from_slice(&base.weights[a..b]);
                    let ends = &base.offsets[lo + 1..=hi_b];
                    out.offsets.extend(ends.iter().map(|&o| (i64::from(o) + shift) as u32));
                }
                for _ in hi_b.max(lo)..hi {
                    out.end_row();
                }
            }
            Rows::Touched(v, run) => {
                merge_row(base.row(v), run, |d, w| out.push_edge(d, w));
                out.end_row();
            }
        }
    }
    out
}

/// One shard as a pin reads it: an immutable CSR base plus the netted
/// overlay of the batches acked after it.
#[derive(Debug, Clone)]
pub struct PinnedShard {
    pub(crate) base: Arc<CsrSnapshot>,
    pub(crate) base_epoch: u64,
    pub(crate) overlay: Arc<Overlay>,
}

impl PinnedShard {
    /// The batch boundary the base was built at; the overlay holds the
    /// shard's ops from there to the pinned epoch.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The CSR base.
    pub fn base(&self) -> &CsrSnapshot {
        &self.base
    }

    /// Checks the read side's invariants: base rows and the overlay
    /// strictly ascending, every overlay entry consistent with the base
    /// (an insert the base lacks, an update or delete of a base edge), and
    /// the edge change equal to the entries'.
    pub fn validate(&self) -> Result<(), String> {
        let (base, ov) = (&*self.base, &*self.overlay);
        for v in 0..base.num_vertices() {
            if !base.row(v).0.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("base row {v} is not strictly ascending"));
            }
        }
        if !ov.entries.windows(2).all(|p| p[0].key < p[1].key) {
            return Err("overlay keys are not strictly ascending".into());
        }
        let mut edges = 0;
        for e in &ov.entries {
            let (src, dst) = (e.src(), e.dst());
            let was = base.edge_weight(src, dst);
            let ok = match e.kind {
                Kind::Insert => was.is_none() && src.max(dst) < ov.vertex_space,
                Kind::Update => was.is_some_and(|w| w != e.weight),
                Kind::Delete => was.is_some(),
            };
            if !ok {
                return Err(format!("overlay {:?} of ({src}, {dst}) against {was:?}", e.kind));
            }
            edges += e.degree();
        }
        if edges != ov.edges {
            return Err(format!("overlay edge change {} != {edges}", ov.edges));
        }
        Ok(())
    }
}

impl GraphStore for PinnedShard {
    fn vertex_space(&self) -> u32 {
        self.base.num_vertices().max(self.overlay.vertex_space)
    }
    fn num_edges(&self) -> u64 {
        (self.base.num_edges() as i64 + self.overlay.edges) as u64
    }
    fn out_degree(&self, v: VertexId) -> u32 {
        let delta: i64 = self.overlay.run(v).iter().map(Entry::degree).sum();
        (i64::from(self.base.out_degree(v)) + delta) as u32
    }
    fn for_each_out_edge(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        merge_row(self.base.row(v), self.overlay.run(v), f);
    }
    fn stream_edges(&self, mut f: impl FnMut(VertexId, VertexId, Weight)) {
        let base = &*self.base;
        for rows in RowWalk::new(&self.overlay, self.vertex_space()) {
            match rows {
                Rows::Whole(lo, hi) => {
                    for v in lo..hi.min(base.num_vertices()) {
                        let (dsts, weights) = base.row(v);
                        for (&d, &w) in dsts.iter().zip(weights) {
                            f(v, d, w);
                        }
                    }
                }
                Rows::Touched(v, run) => merge_row(base.row(v), run, |d, w| f(v, d, w)),
            }
        }
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        match self.overlay.find(src, dst) {
            Some(e) => e.after(),
            None => self.base.edge_weight(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::Edge;
    use std::collections::BTreeMap;

    fn model_edges(m: &BTreeMap<(u32, u32), u32>) -> Vec<(u32, u32, u32)> {
        m.iter().map(|(&(s, d), &w)| (s, d, w)).collect()
    }

    fn stream(s: &impl GraphStore) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        s.stream_edges(|a, b, w| out.push((a, b, w)));
        out
    }

    /// Random ops folded in several steps, rebased midway: every read
    /// equals a `BTreeMap` model, and the merged base equals a fresh build.
    #[test]
    fn fold_rebase_and_reads_match_a_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        let mut model = BTreeMap::new();
        let mut base_edges = Vec::new();
        for _ in 0..300 {
            let (s, d, w) = (next(40), next(60), next(5) + 1);
            model.insert((s, d), w);
        }
        base_edges.extend(model_edges(&model));
        let mut shard = PinnedShard {
            base: Arc::new(CsrSnapshot::from_edges(&base_edges, 60)),
            base_epoch: 0,
            overlay: Arc::new(Overlay { vertex_space: 60, ..Overlay::default() }),
        };
        let mut space = 60;
        // A rebase merged at one step and installed after the next fold,
        // as the rebaser does while pins keep folding.
        let mut pending: Option<(CsrSnapshot, Arc<Overlay>)> = None;
        for step in 0..12 {
            let mut ops = Claim::default();
            for _ in 0..150 {
                let (s, d) = (next(50), next(70));
                if next(3) == 0 {
                    ops.push(&UpdateOp::Delete { src: s, dst: d });
                    model.remove(&(s, d));
                } else {
                    let w = next(5) + 1;
                    ops.push(&UpdateOp::Insert(Edge::new(s, d, w)));
                    model.insert((s, d), w);
                    space = space.max(s.max(d) + 1);
                }
            }
            shard.overlay = Arc::new(shard.overlay.fold(&shard.base, &mut ops));
            if let Some((next_base, merged)) = pending.take() {
                shard.overlay = Arc::new(shard.overlay.rebased(&merged, &shard.base));
                shard.base = Arc::new(next_base);
            }
            shard.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(stream(&shard), model_edges(&model), "step {step}");
            assert_eq!(shard.num_edges(), model.len() as u64);
            assert_eq!(shard.vertex_space(), space);
            for v in 0..space {
                let want: Vec<_> =
                    model.range((v, 0)..(v + 1, 0)).map(|(k, &w)| (k.1, w)).collect();
                let mut got = Vec::new();
                shard.for_each_out_edge(v, |d, w| got.push((d, w)));
                assert_eq!(got, want, "row {v} at step {step}");
                assert_eq!(shard.out_degree(v), want.len() as u32);
                for d in 0..space {
                    assert_eq!(shard.edge_weight(v, d), model.get(&(v, d)).copied());
                }
            }
            if step % 4 == 3 {
                let next_base = merge(&shard.base, &shard.overlay, CsrSnapshot::default());
                assert_eq!(next_base, CsrSnapshot::from_edges(&model_edges(&model), space));
                let now = shard.overlay.rebased(&shard.overlay, &shard.base);
                assert_eq!(now.len(), 0, "a rebase at the overlay's own epoch empties it");
                pending = Some((next_base, Arc::clone(&shard.overlay)));
            }
        }
    }

    #[test]
    fn netting_keeps_the_last_op_and_drops_no_ops() {
        let base = CsrSnapshot::from_edges(&[(1, 2, 5), (1, 3, 6)], 4);
        let mut ops = Claim::default();
        for op in [
            UpdateOp::Insert(Edge::new(1, 2, 9)),
            UpdateOp::Insert(Edge::new(1, 2, 5)),
            UpdateOp::Delete { src: 1, dst: 3 },
            UpdateOp::Insert(Edge::new(2, 0, 1)),
            UpdateOp::Delete { src: 2, dst: 0 },
            UpdateOp::Delete { src: 3, dst: 3 },
            UpdateOp::Insert(Edge::new(3, 1, 4)),
        ] {
            ops.push(&op);
        }
        let ov = Overlay::default().fold(&base, &mut ops);
        // (1,2) ends at its base weight and (2,0) ends absent: no entries.
        let keys: Vec<_> = ov.entries.iter().map(|e| (e.src(), e.dst(), e.kind)).collect();
        assert_eq!(keys, vec![(1, 3, Kind::Delete), (3, 1, Kind::Insert)]);
        assert_eq!(ov.edges, 0);
        let shard = PinnedShard { base: Arc::new(base), base_epoch: 0, overlay: Arc::new(ov) };
        shard.validate().unwrap();
        assert_eq!(stream(&shard), vec![(1, 2, 5), (3, 1, 4)]);
    }
}
