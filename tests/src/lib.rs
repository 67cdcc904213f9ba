//! Host crate for the workspace's integration tests (see `tests/`), plus
//! reference implementations the tests check the real system against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;

use gtinker_core::{GraphTinker, ShardAccess, Sharded};

/// Both structural validators of a store, panicking with `what` on the
/// first violation: RHH placement, and the tag lanes / tier exclusivity /
/// degrees / CAL pointers. The oracle suites call this after every batch.
pub fn assert_valid(g: &GraphTinker, what: &str) {
    g.validate_rhh_invariants().unwrap_or_else(|e| panic!("{what}: RHH invariant: {e}"));
    g.validate_tag_invariants().unwrap_or_else(|e| panic!("{what}: tag invariant: {e}"));
}

/// [`assert_valid`] over every shard of a pooled store or a pinned view.
pub fn assert_shards_valid<A: ShardAccess<Shard = GraphTinker>>(store: &Sharded<A>, what: &str) {
    for i in 0..store.num_instances() {
        store.with_instance(i, |g| assert_valid(g, what));
    }
}
