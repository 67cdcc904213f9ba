//! Concurrency stress for [`ShardPool`]: writer threads submit pipelined
//! batches while a reader thread hammers the settle barrier and shard
//! queries. Afterwards the merged flush totals must equal the
//! model-derived expectation (no batch lost, none double-applied), every
//! edge must land on its owning shard with the right weight, and the
//! pipeline-depth metrics must have returned to zero.
//!
//! These tests assert that the *global* `pool_queue_depth` gauge drains to
//! zero, which only holds while no other pool is mid-flight in the same
//! process — hence this file (its own test binary) and the local lock
//! serializing the tests inside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use gtinker_core::{metrics, BatchResult, GraphTinker, ShardPool};
use gtinker_types::{partition_of, Edge, EdgeBatch, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static LOCK: Mutex<()> = Mutex::new(());

const NUM_SHARDS: usize = 4;
const NUM_WRITERS: usize = 3;
const BATCHES_PER_WRITER: usize = 24;
const OPS_PER_BATCH: usize = 300;

/// One writer's deterministic workload over its own disjoint keyspace
/// (srcs `writer * 10_000 ..`), with the expected outcome computed by
/// replaying the same ops against a local model in submission order.
/// Disjoint keyspaces make the totals independent of how the pool
/// interleaves batches from different writers.
fn writer_workload(
    writer: usize,
) -> (Vec<EdgeBatch>, BatchResult, std::collections::BTreeMap<(u32, u32), u32>) {
    let mut rng = StdRng::seed_from_u64(0xB00 + writer as u64);
    let mut model = std::collections::BTreeMap::new();
    let mut want = BatchResult::default();
    let base = writer as u32 * 10_000;
    let mut batches = Vec::with_capacity(BATCHES_PER_WRITER);
    for _ in 0..BATCHES_PER_WRITER {
        let mut b = EdgeBatch::new();
        for _ in 0..OPS_PER_BATCH {
            let src = base + rng.gen_range(0..40u32);
            let dst = rng.gen_range(0..64u32);
            if rng.gen_bool(0.3) {
                b.push(UpdateOp::Delete { src, dst });
                if model.remove(&(src, dst)).is_some() {
                    want.deleted += 1;
                } else {
                    want.not_found += 1;
                }
            } else {
                let w = rng.gen_range(1..100u32);
                b.push(UpdateOp::Insert(Edge::new(src, dst, w)));
                if model.insert((src, dst), w).is_some() {
                    want.updated += 1;
                } else {
                    want.inserted += 1;
                }
            }
        }
        batches.push(b);
    }
    (batches, want, model)
}

#[test]
fn stress_concurrent_submit_and_settle() {
    let _guard = LOCK.lock().unwrap();
    let depth_before = metrics::global().snapshot().pool_queue_depth;
    let pool =
        ShardPool::over((0..NUM_SHARDS).map(|_| GraphTinker::with_defaults()).collect::<Vec<_>>());

    let workloads: Vec<_> = (0..NUM_WRITERS).map(writer_workload).collect();
    let done = AtomicBool::new(false);
    let (pool_ref, done_ref) = (&pool, &done);
    std::thread::scope(|s| {
        // Reader: hammer the settle barrier and shard queries while the
        // writers are mid-stream. Every observation must be internally
        // consistent (no panic, no half-applied batch visible as a probe
        // failure inside the shard).
        s.spawn(move || {
            let mut spins = 0u64;
            while !done_ref.load(Ordering::Acquire) {
                let shard = (spins % NUM_SHARDS as u64) as usize;
                let _ = pool_ref.pending_batches();
                // One barrier'd access: inside it the stream count must
                // agree with the edge counter — a half-applied batch would
                // show up as a mismatch here.
                let (edges, streamed) = pool_ref.with_shard(shard, |g| {
                    let mut n = 0u64;
                    g.for_each_edge(|_, _, _| n += 1);
                    (g.num_edges(), n)
                });
                assert_eq!(edges, streamed, "shard {shard} observed mid-batch");
                spins += 1;
            }
        });
        let writers: Vec<_> = workloads
            .iter()
            .map(|(batches, _, _)| {
                s.spawn(move || {
                    for b in batches {
                        pool_ref.submit(b.clone());
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        // All batches submitted; wait for the pipeline to drain before
        // releasing the reader so it keeps querying through the tail.
        while pool.pending_batches() > 0 {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });

    // No batch lost, none double-applied: flush totals equal the sum of
    // the per-writer expectations.
    let mut want = BatchResult::default();
    for (_, w, _) in &workloads {
        want.merge(w);
    }
    assert_eq!(pool.flush(), want);
    assert_eq!(
        want.total(),
        (NUM_WRITERS * BATCHES_PER_WRITER * OPS_PER_BATCH) as u64,
        "every submitted op accounted for"
    );

    // Every surviving edge is on its owning shard with the final weight.
    let mut live = 0u64;
    for (_, _, model) in &workloads {
        live += model.len() as u64;
        for (&(src, dst), &w) in model {
            let shard = partition_of(src, NUM_SHARDS);
            assert_eq!(
                pool.with_shard(shard, |g| g.edge_weight(src, dst)),
                Some(w),
                "edge ({src},{dst})"
            );
        }
    }
    let total: u64 = (0..NUM_SHARDS).map(|i| pool.with_shard(i, |g| g.num_edges())).sum();
    assert_eq!(total, live);

    // Queue-depth accounting drained back to where it started.
    assert_eq!(pool.pending_batches(), 0);
    let snap = metrics::global().snapshot();
    assert_eq!(snap.pool_queue_depth, depth_before, "queue-depth gauge returned to baseline");
    if metrics::enabled() {
        assert!(
            snap.pool_batches >= (NUM_WRITERS * BATCHES_PER_WRITER) as u64,
            "every batch dispatch was counted"
        );
    }
    drop(pool);
}

/// Same accounting on the synchronous path: `apply_batch` interleaved with
/// `submit` from one thread still drains completely.
#[test]
fn mixed_apply_submit_drains() {
    let _guard = LOCK.lock().unwrap();
    let depth_before = metrics::global().snapshot().pool_queue_depth;
    let pool =
        ShardPool::over((0..NUM_SHARDS).map(|_| GraphTinker::with_defaults()).collect::<Vec<_>>());
    let (batches, want, model) = writer_workload(7);
    let mut got = BatchResult::default();
    for (i, b) in batches.iter().enumerate() {
        if i % 3 == 0 {
            got.merge(&pool.apply_batch(b));
        } else {
            pool.submit(b.clone());
        }
    }
    got.merge(&pool.flush());
    assert_eq!(got, want);
    let total: u64 = (0..NUM_SHARDS).map(|i| pool.with_shard(i, |g| g.num_edges())).sum();
    assert_eq!(total, model.len() as u64);
    assert_eq!(pool.pending_batches(), 0);
    assert_eq!(metrics::global().snapshot().pool_queue_depth, depth_before);
}
