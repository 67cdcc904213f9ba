//! Seeded inputs and the plain reference model the outputs are checked
//! against. The program under test sees only the generated file and
//! batches; nothing here is shared with it except the generator.

use std::collections::VecDeque;
use std::path::Path;

use gtinker_datasets::{io, stream, RmatConfig};
use gtinker_types::Edge;

use crate::rng::Rng;

/// Sources the BFS query load cycles through (highest out-degree first).
pub const QUERY_SOURCES: usize = 16;

/// A Graph500 RMAT edge stream: `2^scale` vertex ids, `edges` edges.
pub fn rmat(scale: u32, edges: u64, seed: u64) -> Vec<Edge> {
    RmatConfig::graph500(scale, edges, seed).generate()
}

/// Writes the edge list and flushes it to disk, so that its writeback is
/// part of set-up and not of whatever is measured next: on ext4 a WAL
/// `fdatasync` otherwise waits for these dirty pages too.
pub fn write_edge_file(path: &Path, edges: &[Edge]) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("cannot write {}: {e}", path.display());
    io::write_edge_list(path, edges).map_err(|e| err(&e))?;
    std::fs::File::open(path).and_then(|f| f.sync_all()).map_err(|e| err(&e))
}

pub fn query_sources(edges: &[Edge]) -> Vec<u32> {
    stream::top_degree_vertices(edges, QUERY_SOURCES)
}

/// Point-read targets: 80 % drawn degree-proportionally (the source of a
/// random stream edge), 20 % uniform over the id space, so reads hit hubs,
/// ordinary vertices and ids that were never inserted.
pub fn sample_vertices(edges: &[Edge], scale: u32, n: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                rng.below(1usize << scale) as u32
            } else {
                edges[rng.below(edges.len())].src
            }
        })
        .collect()
}

/// The final graph of an insert-only stream as sorted, de-duplicated
/// adjacency (a repeated `(src, dst)` is a weight update, not a new edge).
pub struct Model {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Model {
    pub fn build(scale: u32, edges: &[Edge]) -> Model {
        Model::from_pairs(scale, edges.iter().map(|e| (e.src, e.dst)))
    }

    /// Counting sort by source, then sort and de-duplicate each list.
    pub fn from_pairs(scale: u32, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Model {
        let n = 1usize << scale;
        let mut offsets = vec![0u32; n + 1];
        for (s, _) in pairs.clone() {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut raw = vec![0u32; offsets[n] as usize];
        for (s, d) in pairs {
            raw[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        let mut targets = Vec::with_capacity(raw.len());
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            let list = &mut raw[start..end];
            list.sort_unstable();
            offsets[v] = targets.len() as u32;
            let mut last = None;
            targets.extend(list.iter().copied().filter(|&d| last.replace(d) != Some(d)));
            start = end;
        }
        offsets[n] = targets.len() as u32;
        Model { offsets, targets }
    }

    pub fn live_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        match self.offsets.get(v as usize + 1) {
            Some(&end) => &self.targets[self.offsets[v as usize] as usize..end as usize],
            None => &[],
        }
    }

    pub fn degree(&self, v: u32) -> u32 {
        self.neighbors(v).len() as u32
    }

    /// Hop counts of a plain queue BFS from `src` (`u32::MAX` where
    /// unreachable), indexed by vertex id.
    pub fn bfs_distances(&self, src: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.offsets.len() - 1];
        let mut queue = VecDeque::from([src]);
        dist[src as usize] = 0;
        while let Some(v) = queue.pop_front() {
            for &d in self.neighbors(v) {
                if dist[d as usize] == u32::MAX {
                    dist[d as usize] = dist[v as usize] + 1;
                    queue.push_back(d);
                }
            }
        }
        dist
    }

    /// Vertices a BFS from `src` reaches, `src` included.
    pub fn bfs_reached(&self, src: u32) -> u64 {
        self.bfs_distances(src).iter().filter(|&&d| d != u32::MAX).count() as u64
    }
}

/// `(count, wrapping sum of destinations)` of a `/neighbors` body's
/// `"neighbors":[[dst,weight],...]` array.
pub fn neighbors_digest(body: &str) -> Option<(u64, u64)> {
    let list = body.split_once("\"neighbors\":[")?.1.trim_end().strip_suffix("]}")?;
    if list.is_empty() {
        return Some((0, 0));
    }
    let inner = list.strip_prefix('[')?.strip_suffix(']')?;
    let (mut count, mut sum) = (0u64, 0u64);
    for pair in inner.split("],[") {
        let dst: u64 = pair.split_once(',')?.0.parse().ok()?;
        count += 1;
        sum = sum.wrapping_add(dst);
    }
    Some((count, sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(edges: &[Edge]) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!(
            "gtb_input_{}_{}.txt",
            std::process::id(),
            edges.len() ^ edges[0].src as usize
        ));
        write_edge_file(&path, edges).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_file_and_plan() {
        let a = rmat(10, 5_000, 42);
        let b = rmat(10, 5_000, 42);
        let c = rmat(10, 5_000, 43);
        assert_eq!(bytes_of(&a), bytes_of(&b));
        assert_ne!(bytes_of(&a), bytes_of(&c));
        assert_eq!(query_sources(&a), query_sources(&b));
        let sa = sample_vertices(&a, 10, 500, &mut Rng::new(1));
        assert_eq!(sa, sample_vertices(&b, 10, 500, &mut Rng::new(1)));
        assert_ne!(sa, sample_vertices(&a, 10, 500, &mut Rng::new(2)));
        assert!(sa.iter().all(|&v| v < 1 << 10));
    }

    #[test]
    fn model_dedups_and_bfs_counts_reachable_vertices() {
        let edges = [
            Edge::unit(0, 1),
            Edge::new(0, 1, 9), // weight update, same edge
            Edge::unit(0, 2),
            Edge::unit(2, 3),
            Edge::unit(5, 0), // 5 reaches everything, nothing reaches 5
        ];
        let m = Model::build(3, &edges);
        assert_eq!(m.live_edges(), 4);
        assert_eq!(m.degree(0), 2);
        assert_eq!(m.neighbors(0), &[1, 2]);
        assert_eq!(m.degree(7), 0);
        assert_eq!(m.degree(1 << 20), 0, "ids beyond the space have no edges");
        assert_eq!(m.bfs_reached(0), 4);
        assert_eq!(m.bfs_reached(5), 5);
        assert_eq!(m.bfs_reached(3), 1);
        assert_eq!(m.bfs_distances(5)[..6], [1, 2, 2, 3, u32::MAX, 0]);
    }

    #[test]
    fn digests_a_neighbors_body() {
        let body = "{\"v\":0,\"epoch\":3,\"degree\":2,\"neighbors\":[[1,5],[2,7]]}\n";
        assert_eq!(neighbors_digest(body), Some((2, 3)));
        let empty = "{\"v\":9,\"epoch\":3,\"degree\":0,\"neighbors\":[]}\n";
        assert_eq!(neighbors_digest(empty), Some((0, 0)));
        assert_eq!(neighbors_digest("{\"error\":\"x\"}"), None);
        assert_eq!(neighbors_digest("{\"neighbors\":[[1,5],[x,7]]}"), None);
    }
}
