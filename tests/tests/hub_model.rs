//! Per-tier model tests: each tier module of `gtinker_core::tier` driven
//! directly, through the [`TierOps`] every tier answers, against a
//! `BTreeMap<dst, weight>`, with one op alphabet (upsert / delete /
//! delete-nth / re-insert-dead / update-nth):
//!
//! * the inline tier at caps 1, 2 and 4 (a full entry must refuse, not
//!   drop, the edge);
//! * the edgeblock tier in both delete modes at a tiny geometry, deep
//!   enough that branch-out, backfill and block recycling all run, and at
//!   a tiny geometry with three page-width classes, started in each class
//!   and driven across regrows (a narrow page refuses an edge whose
//!   subblock is congested; the driver regrows it, as the store does);
//! * the hub tier, on streams long enough to cross several tail merges and
//!   forced compactions (dead slots within the compaction bound, fences,
//!   tail tag lane — [`HubTier`]'s own `validate`).
//!
//! After every op `find`, `len`, iteration and the tier's `validate` agree
//! with the model; the edgeblock tier, the only one with a CAL, also holds
//! one live CAL copy per edge, each pointed at by its cell. At the end
//! `drain` followed by `adopt` into each other tier preserves the edge set,
//! and the CAL follows: a drain out of the edgeblocks invalidates the
//! copies, an adopt into them registers new ones. The same streams then run
//! through a [`GraphTinker`] whose one vertex is forced into the hub tier,
//! the hub-flapping stream holds the 128 / 64 hysteresis band to one tier
//! change per 64 ops, a degree sweep holds a vertex to one regrow per page
//! class between two tier moves, and a vertex crossing every tier boundary
//! 50 times leaks no CAL copy. (The file keeps the name of its oldest
//! cases.)

use std::collections::BTreeMap;

use gtinker_core::hash::edge_hash;
use gtinker_core::hubseg::TAIL_CAP;
use gtinker_core::{
    BlockTier, ClassBlocks, GraphTinker, HubTier, InlineTier, ProbeStats, TierEdge, TierOps, Upsert,
};
use gtinker_types::{DeleteMode, Edge, TinkerConfig};
use proptest::prelude::*;

/// The one source every tier is driven for, and its original id.
const DENSE: u32 = 0;
const SRC: u32 = 77;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert `dst` (a weight update when it is live).
    Upsert(u32, u32),
    /// Delete `dst`, live or not.
    Delete(u32),
    /// Delete the n-th live destination (always a hit).
    DeleteNth(usize),
    /// Re-insert the most recently deleted destination — in the hub tier a
    /// dead main-run slot unless it sat in the tail.
    ReinsertDead(u32),
    /// Overwrite the weight of the n-th live destination.
    UpdateNth(usize, u32),
}

fn op_strategy(keys: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys, 1..1_000u32).prop_map(|(d, w)| Op::Upsert(d, w)),
        1 => (0..keys).prop_map(Op::Delete),
        3 => (0..4_096usize).prop_map(Op::DeleteNth),
        1 => (1..1_000u32).prop_map(Op::ReinsertDead),
        1 => (0..4_096usize, 1..1_000u32).prop_map(|(n, w)| Op::UpdateNth(n, w)),
    ]
}

/// Resolves the model-relative ops to `(dst, Some(weight))` upserts and
/// `(dst, None)` deletes.
fn resolve(
    op: Op,
    model: &BTreeMap<u32, u32>,
    last_deleted: Option<u32>,
) -> Option<(u32, Option<u32>)> {
    let nth = |n: usize| model.keys().nth(n % model.len().max(1)).copied();
    match op {
        Op::Upsert(d, w) => Some((d, Some(w))),
        Op::Delete(d) => Some((d, None)),
        Op::DeleteNth(n) => nth(n).map(|d| (d, None)),
        Op::ReinsertDead(w) => last_deleted.map(|d| (d, Some(w))),
        Op::UpdateNth(n, w) => nth(n).map(|d| (d, Some(w))),
    }
}

/// What a stream did to a hub segment, read off `dead_slots()` (zero
/// throughout for the tiers that delete eagerly).
#[derive(Debug, Default)]
struct Passes {
    /// Inserts that overflowed the tail and merged dead slots away.
    merges: usize,
    /// Deletes that hit the compaction bound.
    forced: usize,
    peak_dead: usize,
    /// Deepest edgeblock level the stream reached.
    max_depth: u32,
    /// Times a narrow edgeblock page refused an edge and was regrown.
    regrows: usize,
}

/// What the store does around a tier beyond [`TierOps`]: regrow a page
/// that reports `Full` with room to spare, and keep a CAL — both the
/// edgeblock tier's alone.
trait Harnessed: TierOps {
    fn regrow(&mut self, _stats: &mut ProbeStats) {
        panic!("only an edgeblock page may refuse an edge below its room");
    }

    /// Checks the tier's CAL against the `live` edges it holds for
    /// [`DENSE`]; a tier without a CAL has nothing to check.
    fn check_cal(&self, _live: usize) {}
}

impl Harnessed for InlineTier {}
impl Harnessed for HubTier {}
impl Harnessed for BlockTier {
    fn regrow(&mut self, stats: &mut ProbeStats) {
        BlockTier::regrow(self, DENSE, stats);
    }

    /// One live copy per edge, each pointed at by its cell.
    fn check_cal(&self, live: usize) {
        self.validate_cal(DENSE, SRC).unwrap_or_else(|e| panic!("CAL: {e}"));
        assert_eq!(self.cal().unwrap().num_live() as usize, live, "CAL live != edges held");
    }
}

/// A tier under test with the state the store would hold around it.
struct Driven<T> {
    tier: T,
    stats: ProbeStats,
    model: BTreeMap<u32, u32>,
    /// Edges the tier can hold for one source (the inline cap).
    room: usize,
}

impl<T: Harnessed> Driven<T> {
    fn new(tier: T, room: usize) -> Self {
        Driven { tier, stats: ProbeStats::default(), model: BTreeMap::new(), room }
    }

    /// The tier against the model: `find` over the key space, `len`,
    /// iteration, the CAL, and the tier's own invariants.
    fn check(&self, keys: u32) {
        self.tier.validate().unwrap_or_else(|e| panic!("tier invalid: {e}"));
        assert_eq!(self.tier.len(DENSE), self.model.len());
        assert!(self.tier.holds(DENSE) || self.model.is_empty(), "edges without storage");
        let mut seen = Vec::with_capacity(self.model.len());
        self.tier.for_each(DENSE, |dst, weight| seen.push((dst, weight)));
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(self.model.iter().map(|(&d, &w)| (d, w))), "iteration");
        self.tier.check_cal(self.model.len());
        for d in 0..keys {
            assert_eq!(self.tier.find(DENSE, d), self.model.get(&d).copied(), "dst {d}");
        }
    }

    /// Seeds the tier the way a migration would: one `adopt`.
    fn seed(&mut self, edges: impl Iterator<Item = (u32, u32)>) {
        let adopted: Vec<TierEdge> = edges.collect();
        self.model.extend(adopted.iter().copied());
        self.tier.adopt(DENSE, SRC, adopted, &mut self.stats);
    }

    fn run(&mut self, keys: u32, ops: &[Op], every_op: bool, dead: impl Fn(&T) -> usize) -> Passes {
        let mut passes = Passes::default();
        let mut last_deleted = None;
        self.check(keys);
        for &op in ops {
            let Some((dst, weight)) = resolve(op, &self.model, last_deleted) else { continue };
            let dead0 = dead(&self.tier);
            let h0 = edge_hash(dst, 0);
            match weight {
                Some(w) => {
                    let e = Edge::new(SRC, dst, w);
                    let mut got = self.tier.upsert(DENSE, e, h0, &mut self.stats);
                    while got == Upsert::Full && self.model.len() < self.room {
                        // The refusal wrote nothing and the regrow keeps
                        // the edge set and every CAL pointer.
                        self.check(keys);
                        self.tier.regrow(&mut self.stats);
                        passes.regrows += 1;
                        self.check(keys);
                        got = self.tier.upsert(DENSE, e, h0, &mut self.stats);
                    }
                    let want = match self.model.contains_key(&dst) {
                        true => Upsert::Updated,
                        false if self.model.len() >= self.room => Upsert::Full,
                        false => Upsert::Inserted,
                    };
                    assert_eq!(got, want, "upsert of {dst}");
                    if got != Upsert::Full {
                        self.model.insert(dst, w);
                    }
                    passes.merges += (dead0 > 0 && dead(&self.tier) == 0) as usize;
                }
                None => {
                    let removed = self.tier.remove(DENSE, dst, h0, &mut self.stats);
                    assert_eq!(removed, self.model.remove(&dst).is_some(), "remove {dst}");
                    if removed {
                        last_deleted = Some(dst);
                        passes.forced += (dead(&self.tier) < dead0) as usize;
                    }
                }
            }
            passes.peak_dead = passes.peak_dead.max(dead(&self.tier));
            if every_op {
                self.check(keys);
            }
        }
        self.check(keys);
        passes.max_depth = self.stats.max_depth;
        passes
    }

    /// `drain`, then `adopt` into a fresh tier of every kind that has room
    /// and `drain` again: the edge set survives each move, and after each
    /// drain and adopt the CAL holds one live copy per edge the tier holds.
    fn migrate_everywhere(mut self, keys: u32) {
        let drained = self.tier.drain(DENSE);
        assert!(!self.tier.holds(DENSE) && self.tier.len(DENSE) == 0, "drain must release");
        self.tier.validate().unwrap();
        self.tier.check_cal(0);
        assert_eq!(drained.len(), self.model.len());
        let tiny = tiny_blocks(DeleteMode::DeleteOnly);
        fn adopt_into<T: Harnessed>(
            tier: T,
            room: usize,
            edges: &[TierEdge],
            model: &BTreeMap<u32, u32>,
            keys: u32,
        ) {
            if edges.len() > room {
                return;
            }
            let mut to = Driven::new(tier, room);
            to.model = model.clone();
            to.tier.adopt(DENSE, SRC, edges.to_vec(), &mut to.stats);
            to.check(keys);
            let mut back = to.tier.drain(DENSE);
            to.tier.check_cal(0);
            let mut want = edges.to_vec();
            back.sort_unstable();
            want.sort_unstable();
            assert_eq!(back, want, "a round trip must hand every edge back");
        }
        adopt_into(InlineTier::new(4), 4, &drained, &self.model, keys);
        adopt_into(BlockTier::new(&tiny), usize::MAX, &drained, &self.model, keys);
        let classes = tiny_classes(DeleteMode::DeleteOnly);
        adopt_into(BlockTier::new(&classes), usize::MAX, &drained, &self.model, keys);
        adopt_into(HubTier::new(), usize::MAX, &drained, &self.model, keys);
    }
}

/// Geometry small enough that a few dozen edges branch out.
fn tiny_blocks(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::paper() }
        .delete_mode(mode)
}

/// A tiny geometry with three page-width classes — 8, 16 and 32 cells in
/// subblocks of 4 — which any tier threshold switches on.
fn tiny_classes(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig { pagewidth: 32, subblock: 4, workblock: 2, ..TinkerConfig::paper() }
        .tiers(2, 48, 24)
        .delete_mode(mode)
}

/// Index of the one page-width class holding blocks (a tier driven for a
/// single source keeps its whole subtree in one class).
fn class_in_use(classes: &[ClassBlocks]) -> Option<usize> {
    let mut held = classes.iter().enumerate().filter(|(_, c)| c.blocks > 0).map(|(i, _)| i);
    let class = held.next();
    assert_eq!(held.next(), None, "one vertex spans two classes: {classes:?}");
    class
}

/// Drives `ops` straight into a hub tier seeded with `seed` edges.
fn run_hub(seed: u32, keys: u32, ops: &[Op], every_op: bool) -> Passes {
    let mut hub = Driven::new(HubTier::new(), usize::MAX);
    hub.seed((0..seed).map(|d| (d * 2 % keys, d + 1)).collect::<BTreeMap<_, _>>().into_iter());
    let passes = hub.run(keys, ops, every_op, HubTier::dead_slots);
    hub.migrate_everywhere(keys);
    passes
}

/// Thresholds low enough that vertex 0 is a hub for nearly the whole
/// stream, yet demotes (and re-promotes) when a delete run drains it.
fn forced_hub_config(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig::default().tiers(4, 16, 8).delete_mode(mode)
}

fn check_store(g: &GraphTinker, model: &BTreeMap<u32, u32>, keys: u32) {
    gtinker_integration::assert_valid(g, "hub store");
    assert_eq!(g.out_degree(0) as usize, model.len());
    assert_eq!(g.num_edges() as usize, model.len());
    let mut seen = Vec::with_capacity(model.len());
    g.for_each_out_edge(0, |d, w| seen.push((d, w)));
    seen.sort_unstable();
    assert!(seen.iter().copied().eq(model.iter().map(|(&d, &w)| (d, w))), "adjacency != model");
    let mut cal = Vec::with_capacity(model.len());
    g.for_each_edge(|s, d, w| {
        assert_eq!(s, 0);
        cal.push((d, w));
    });
    cal.sort_unstable();
    assert_eq!(cal, seen, "CAL stream != hub adjacency");
    for d in 0..keys {
        assert_eq!(g.edge_weight(0, d), model.get(&d).copied(), "dst {d}");
    }
}

/// The same ops through `GraphTinker`, all on source 0. Returns the peak
/// hub dead-slot count.
fn run_through_store(mode: DeleteMode, keys: u32, ops: &[Op]) -> usize {
    let mut g = GraphTinker::new(forced_hub_config(mode)).unwrap();
    let mut model = BTreeMap::new();
    let (mut last_deleted, mut peak_dead, mut hub_ops) = (None, 0, 0usize);
    for &op in ops {
        let Some((dst, weight)) = resolve(op, &model, last_deleted) else { continue };
        match weight {
            Some(w) => {
                assert_eq!(g.insert_edge(Edge::new(0, dst, w)), model.insert(dst, w).is_none())
            }
            None => {
                let existed = model.remove(&dst).is_some();
                assert_eq!(g.delete_edge(0, dst), existed);
                if existed {
                    last_deleted = Some(dst);
                }
            }
        }
        let st = g.structure_stats();
        peak_dead = peak_dead.max(st.hub_dead_slots);
        hub_ops += st.tier_hub_vertices;
        check_store(&g, &model, keys);
    }
    assert!(hub_ops * 2 > ops.len(), "vertex 0 must spend most of the stream as a hub");
    peak_dead
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small key space: every key is deleted and re-inserted many times
    /// over, the run stays short, so forced compactions dominate.
    #[test]
    fn segment_matches_model_dense_keys(ops in prop::collection::vec(op_strategy(256), 600..1_000)) {
        let passes = run_hub(100, 256, &ops, true);
        prop_assert!(passes.peak_dead > 0, "{passes:?}");
        prop_assert!(passes.forced >= 2, "stream must cross forced compactions: {passes:?}");
    }

    /// The inline tier at every cap the store ships or tests: with a key
    /// space of 8 the entry is full most of the time, so refusals, swap
    /// removes and re-inserts into the freed slot all occur.
    #[test]
    fn inline_entry_matches_model(
        ops in prop::collection::vec(op_strategy(8), 200..400),
        cap in (0..3usize).prop_map(|i| [1, 2, 4][i]),
    ) {
        let mut inline = Driven::new(InlineTier::new(cap), cap);
        inline.run(8, &ops, true, |_| 0);
        inline.migrate_everywhere(8);
    }

    /// The edgeblock tier at the tiny geometry, in both delete modes: the
    /// stream branches at least two levels deep, and in compact mode
    /// backfills and recycles on the way back down.
    #[test]
    fn edgeblocks_match_model(
        ops in prop::collection::vec(op_strategy(300), 500..800),
        compact in any::<bool>(),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let mut blocks = Driven::new(BlockTier::new(&tiny_blocks(mode)), usize::MAX);
        blocks.seed((0..150).map(|d| (d * 2, d + 1)));
        let passes = blocks.run(300, &ops, true, |_| 0);
        prop_assert!(passes.max_depth >= 2, "stream must branch two levels deep: {passes:?}");
        if !compact {
            blocks.tier.validate_rhh(false).unwrap();
        }
        blocks.migrate_everywhere(300);
    }

    /// The edgeblock tier with three page-width classes, started in each
    /// class (the last one branches out) over a key space that keeps the
    /// vertex near the class's capacity: a page that refuses an edge is
    /// regrown, classes move up one regrow at a time and never down.
    #[test]
    fn edgeblock_classes_match_model_across_regrows(
        ops in prop::collection::vec(op_strategy(120), 300..500),
        compact in any::<bool>(),
        start in 0..4usize,
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        // (edges adopted, key space): ≤ ¾ of 8, of 16, of 32, and a subtree.
        let (seed, keys) = [(2, 8), (9, 14), (20, 28), (60, 120)][start];
        let mut blocks = Driven::new(BlockTier::new(&tiny_classes(mode)), usize::MAX);
        blocks.seed((0..seed).map(|d| (d, d + 1)));
        let before = class_in_use(&blocks.tier.class_counts()).unwrap();
        prop_assert!(before >= start.min(2), "adopt picked class {before} for {seed} edges");
        let ops: Vec<Op> = ops.into_iter().map(|op| match op {
            Op::Upsert(d, w) => Op::Upsert(d % keys, w),
            Op::Delete(d) => Op::Delete(d % keys),
            other => other,
        }).collect();
        let passes = blocks.run(keys, &ops, true, |_| 0);
        let after = class_in_use(&blocks.tier.class_counts()).unwrap();
        prop_assert!(after >= before + passes.regrows, "{before} -> {after}: {passes:?}");
        prop_assert!(after < 3 && (passes.regrows > 0 || after == before), "{passes:?}");
        if start == 3 {
            prop_assert!(passes.max_depth >= 1, "the full-width class must branch: {passes:?}");
        } else {
            prop_assert!(after == 2 || passes.max_depth == 0, "a narrow page branched");
        }
        if !compact {
            blocks.tier.validate_rhh(false).unwrap();
        }
        blocks.migrate_everywhere(keys);
    }

    /// The same streams through the store, in both delete modes.
    #[test]
    fn forced_hub_vertex_matches_model(
        ops in prop::collection::vec(op_strategy(200), 400..800),
        compact in any::<bool>(),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let peak_dead = run_through_store(mode, 200, &ops);
        prop_assert!(peak_dead > 0, "no delete ever left a dead hub slot");
    }
}

/// A long stream over a run big enough (several thousand edges) that tail
/// overflows, not the dead-slot bound, do the merging.
#[test]
fn long_stream_crosses_merges_and_forced_compactions() {
    let keys = 20_000u32;
    // xorshift: insert-heavy first (tail merges), then nine deletes in ten
    // (forced compactions); the model is checked at both ends.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ops = Vec::new();
    for i in 0..12_000 {
        let r = next();
        let delete_share = if i < 6_000 { 3 } else { 9 };
        ops.push(match r % 10 {
            k if k < delete_share => Op::DeleteNth((r >> 8) as usize),
            3 => Op::ReinsertDead((r >> 8) as u32 % 999 + 1),
            _ => Op::Upsert((r >> 8) as u32 % keys, (r >> 40) as u32 % 999 + 1),
        });
    }
    let passes = run_hub(4_000, keys, &ops, false);
    assert!(passes.merges >= 3, "{passes:?}");
    assert!(passes.forced >= 3, "{passes:?}");
    assert!(passes.peak_dead > TAIL_CAP / 2, "{passes:?}");
}

/// ROADMAP 4(d): a vertex oscillating across the promote-at-128 /
/// demote-below-64 band, with jitter at both edges, changes tier at most
/// once per 64 operations — hysteresis, not flapping.
#[test]
fn hub_flapping_is_bounded_by_the_hysteresis_band() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let cfg = TinkerConfig::default().delete_mode(mode);
        assert_eq!((cfg.hub_promote, cfg.hub_demote), (128, 64));
        let mut g = GraphTinker::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        let mut ops = 0u64;
        let mut next_dst = 0u32;
        let mut grow = |g: &mut GraphTinker, model: &mut BTreeMap<u32, u32>, to: usize| {
            let mut n = 0;
            while model.len() < to {
                next_dst += 1;
                assert!(g.insert_edge(Edge::new(0, next_dst, next_dst)));
                model.insert(next_dst, next_dst);
                n += 1;
            }
            n
        };
        let shrink = |g: &mut GraphTinker, model: &mut BTreeMap<u32, u32>, to: usize| {
            let mut n = 0;
            while model.len() > to {
                // Oldest first: main-run slots of the segment.
                let dst = *model.keys().next().unwrap();
                assert!(g.delete_edge(0, dst));
                model.remove(&dst);
                n += 1;
            }
            n
        };
        let changes = |g: &GraphTinker| {
            let st = g.structure_stats();
            st.tier_promotions + st.tier_demotions
        };
        for cycle in 0..24 {
            ops += grow(&mut g, &mut model, 128);
            assert_eq!(g.structure_stats().tier_hub_vertices, 1);
            // Every other cycle, jitter just under the promotion point and
            // just over the demotion point: the tier must not move.
            let jitter = if cycle % 2 == 1 { 40 } else { 0 };
            let before = changes(&g);
            for _ in 0..jitter {
                ops += shrink(&mut g, &mut model, 126);
                ops += grow(&mut g, &mut model, 128);
            }
            assert_eq!(changes(&g), before, "jitter below the promote point flapped");
            ops += shrink(&mut g, &mut model, 63);
            assert_eq!(g.structure_stats().tier_hub_vertices, 0);
            let before = changes(&g);
            for _ in 0..jitter {
                ops += grow(&mut g, &mut model, 66);
                ops += shrink(&mut g, &mut model, 63);
            }
            assert_eq!(changes(&g), before, "jitter above the demote point flapped");
            check_store(&g, &model, 0);
        }
        let changes = changes(&g);
        assert!(changes >= 48, "the stream must actually cross the band ({mode:?})");
        assert!(changes <= ops / 64, "{changes} tier changes in {ops} ops ({mode:?})");
    }
}

/// One vertex swept up and down through every page-width class and both
/// tier boundaries of the default layout (16 / 32 / 64-cell pages between
/// an inline entry of 4 and a hub at 128), with deletes mixed into every
/// climb: between two tier moves its class never shrinks and it regrows at
/// most once per class boundary; every move keeps the model.
#[test]
fn page_classes_only_grow_between_tier_moves() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let mut g = GraphTinker::new(TinkerConfig::default().delete_mode(mode)).unwrap();
        let mut model = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_dst = 0u32;
        // (class, tier moves) after the previous op, and regrows since the
        // last tier move.
        let (mut last, mut regrows, mut seen) = ((None, 0), 0, [false; 3]);
        for &target in &[127usize, 0, 200, 50, 110, 0, 30, 3, 90] {
            while model.len() != target {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Climb with one delete in four, descend with one insert in four.
                let insert = (model.len() < target) != x.is_multiple_of(4) || model.is_empty();
                if insert {
                    next_dst += 1;
                    assert!(g.insert_edge(Edge::new(0, next_dst, next_dst)));
                    model.insert(next_dst, next_dst);
                } else {
                    let dst = *model.keys().nth(x as usize % model.len()).unwrap();
                    assert!(g.delete_edge(0, dst));
                    model.remove(&dst);
                }
                let st = g.structure_stats();
                let now = (class_in_use(&st.block_classes), st.tier_promotions + st.tier_demotions);
                if now.1 != last.1 {
                    regrows = 0;
                } else if let (Some(was), Some(is)) = (last.0, now.0) {
                    assert!(is >= was, "class shrank {was} -> {is} with no tier move ({mode:?})");
                    regrows += usize::from(is > was);
                    assert!(regrows <= 2, "{regrows} regrows between two tier moves ({mode:?})");
                }
                if let Some(class) = now.0 {
                    seen[class] = true;
                }
                last = now;
                check_store(&g, &model, 0);
            }
        }
        assert_eq!(seen, [true; 3], "the sweep must visit every class ({mode:?})");
        let st = g.structure_stats();
        assert!(st.tier_promotions >= 4 && st.tier_demotions >= 4, "{st:?}");
    }
}

/// One vertex of the default layout crosses inline ↔ edgeblocks and
/// edgeblocks ↔ hub 50 times next to three edgeblock neighbours in its CAL
/// group. Every move out of the edgeblocks frees the vertex's CAL copies and
/// every move in registers new ones in the freed slots, so the CAL never
/// holds more live copies than the edgeblock tier holds edges (the
/// validator's check) and stops growing after the first cycle.
#[test]
fn tier_crossings_leak_no_cal_copies() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let mut g = GraphTinker::new(TinkerConfig::default().delete_mode(mode)).unwrap();
        for src in 1..=3u32 {
            for d in 0..20 {
                g.insert_edge(Edge::new(src, d, 1));
            }
        }
        let mut model = BTreeMap::new();
        let mut next_dst = 0u32;
        let mut first_cycle_blocks = None;
        for cycle in 0..50 {
            // Inline → edgeblocks at degree 5, edgeblocks → hub at 128,
            // back to edgeblocks below 64 and to inline at 2.
            for target in [128usize, 63, 2] {
                while model.len() != target {
                    if model.len() < target {
                        next_dst += 1;
                        assert!(g.insert_edge(Edge::new(0, next_dst, next_dst)));
                        model.insert(next_dst, next_dst);
                    } else {
                        let dst = *model.keys().next().unwrap();
                        assert!(g.delete_edge(0, dst));
                        model.remove(&dst);
                    }
                }
                gtinker_integration::assert_valid(&g, "tier crossings");
            }
            let st = g.structure_stats();
            assert_eq!(st.tier_inline_vertices, 1, "cycle {cycle} ends inline ({mode:?})");
            // Written slots never exceed the peak of live copies: 128 of
            // vertex 0 as it becomes a hub, 60 of its neighbours.
            assert!(st.cal_invalid <= 128 + 60, "cycle {cycle}: {st:?}");
            let blocks = *first_cycle_blocks.get_or_insert(st.cal_blocks);
            assert_eq!(st.cal_blocks, blocks, "the CAL grew on cycle {cycle} ({mode:?})");
        }
        let st = g.structure_stats();
        assert!(st.tier_promotions >= 100 && st.tier_demotions >= 100, "{st:?}");
        let mut streamed = Vec::new();
        g.for_each_edge(|s, d, w| streamed.push((s, d, w)));
        streamed.sort_unstable();
        let neighbours = (1..=3u32).flat_map(|s| (0..20).map(move |d| (s, d, 1)));
        let mut want: Vec<_> = model.iter().map(|(&d, &w)| (0, d, w)).chain(neighbours).collect();
        want.sort_unstable();
        assert_eq!(streamed, want, "{mode:?}");
    }
}
