//! Versioned, section-checksummed binary snapshots of a [`GraphTinker`].
//!
//! ## File layout (`snap-<lsn:016x>.gts`)
//!
//! ```text
//! magic   "GTSNAP01"                     8 bytes
//! kind    u8        0 = GraphTinker (any other kind is refused)
//! wal_lsn u64       WAL records already folded into this image
//! section*                               repeated
//!   tag     u8      1=CONFIG 2=SGH 3=EDGES 4=SPACE
//!   len     u64     payload bytes
//!   payload [len]
//!   crc     u32     CRC-32 of payload
//! end     tag 0xFF, len 0, crc of the empty payload
//! ```
//!
//! A snapshot restores to an **equivalent** store, not a bit-identical
//! one: the configuration, the live edge set `(src, dst, weight)`, the SGH
//! dense remapping (arrival order of sources) and the observed vertex
//! space are preserved exactly, while internal block placement is rebuilt
//! by replaying the edge payload through the normal insert path. Every
//! observable query — point lookups, degrees, full/sharded edge streams,
//! engine results — matches the saved store.
//!
//! The image of an interval-sharded store is the same file, each section
//! holding the shards' payloads in shard order. A source lives in exactly
//! one interval, so filtering the SGH and edge payloads by interval gives
//! every shard its own arrival order back at the shard count the image
//! was written at, and a logically equal store at any other — one included.
//!
//! Writes go to a `.tmp` sibling first and are published by an atomic
//! rename after `sync_all`, so a crash mid-snapshot never leaves a
//! half-written file under a valid snapshot name.

use std::fs;
use std::path::{Path, PathBuf};

use gtinker_core::tinker::run_chunks;
use gtinker_core::{ApplyBatch, GraphStore, GraphTinker, ParallelTinker};
use gtinker_types::{partition_of, DeleteMode, Edge, EdgeBatch, TinkerConfig, VertexId};

use crate::format::{crc32, ByteReader, ByteWriter, PersistError, Result};

/// Magic bytes opening every snapshot file (the trailing digits version
/// the format).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GTSNAP01";

/// File extension of published snapshots.
pub const SNAPSHOT_EXT: &str = "gts";

/// The store-kind byte of a GraphTinker image, the only kind written or
/// read: an image of any other kind (1 is a STINGER image) is refused.
const KIND_TINKER: u8 = 0;

const TAG_CONFIG: u8 = 1;
const TAG_SGH: u8 = 2;
const TAG_EDGES: u8 = 3;
const TAG_SPACE: u8 = 4;
const TAG_END: u8 = 0xFF;

/// Bytes of a GraphTinker CONFIG payload: eight words and the flags byte.
const CONFIG_BYTES: usize = 8 * 8 + 1;

fn put_section(w: &mut ByteWriter, tag: u8, payload: &[u8]) {
    w.put_u8(tag);
    w.put_u64(payload.len() as u64);
    w.put_bytes(payload);
    w.put_u32(crc32(payload));
}

/// The sections every image ends with: EDGES, SPACE and the end marker.
fn put_tail(mut w: ByteWriter, edges: &[Edge], space: u32) -> Vec<u8> {
    let mut p = ByteWriter::with_capacity(8 + edges.len() * 12);
    p.put_u64(edges.len() as u64);
    for e in edges {
        p.put_u32(e.src);
        p.put_u32(e.dst);
        p.put_u32(e.weight);
    }
    put_section(&mut w, TAG_EDGES, p.as_bytes());
    put_section(&mut w, TAG_SPACE, &space.to_le_bytes());
    put_section(&mut w, TAG_END, &[]);
    w.into_bytes()
}

fn header(wal_lsn: u64, cap: usize) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(cap);
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u8(KIND_TINKER);
    w.put_u64(wal_lsn);
    w
}

/// What a [`GraphTinker`] snapshot preserves, apart from any store: read
/// out of one store or out of every shard of a sharded one, and restored
/// into either kind.
pub(crate) struct TinkerImage {
    config: TinkerConfig,
    /// SGH arrival order (empty with the SGH disabled).
    sources: Vec<VertexId>,
    edges: Vec<Edge>,
    space: u32,
}

impl TinkerImage {
    /// The image of an empty store.
    fn of(config: TinkerConfig) -> Self {
        TinkerImage { config, sources: Vec::new(), edges: Vec::new(), space: 0 }
    }

    /// Appends what `g` holds (one store, or the next shard of several).
    fn absorb(&mut self, g: &GraphTinker) {
        self.edges.reserve(g.num_edges() as usize);
        // Main-structure order: deterministic and available with or without
        // the CAL (the CAL's own order is rebuilt on restore anyway).
        g.for_each_edge_main(|src, dst, w| self.edges.push(Edge::new(src, dst, w)));
        if self.config.enable_sgh {
            self.sources.extend(g.sources());
        }
        self.space = self.space.max(g.vertex_space());
    }

    fn encode(&self, wal_lsn: u64) -> Vec<u8> {
        let mut w = header(wal_lsn, 64 + self.edges.len() * 12);
        let cfg = &self.config;
        let mut p = ByteWriter::with_capacity(CONFIG_BYTES);
        p.put_u64(cfg.pagewidth as u64);
        p.put_u64(cfg.subblock as u64);
        p.put_u64(cfg.workblock as u64);
        let flags = (cfg.enable_sgh as u8)
            | ((cfg.enable_cal as u8) << 1)
            | (((cfg.delete_mode == DeleteMode::DeleteAndCompact) as u8) << 2);
        p.put_u8(flags);
        p.put_u64(cfg.cal_group_size as u64);
        p.put_u64(cfg.cal_block_size as u64);
        p.put_u64(cfg.inline_cap as u64);
        p.put_u64(cfg.hub_promote as u64);
        p.put_u64(cfg.hub_demote as u64);
        put_section(&mut w, TAG_CONFIG, p.as_bytes());

        if cfg.enable_sgh {
            let mut p = ByteWriter::with_capacity(8 + self.sources.len() * 4);
            p.put_u64(self.sources.len() as u64);
            for &s in &self.sources {
                p.put_u32(s);
            }
            put_section(&mut w, TAG_SGH, p.as_bytes());
        }

        put_tail(w, &self.edges, self.space)
    }
}

/// Serializes a [`GraphTinker`] to snapshot bytes. `wal_lsn` records how
/// many WAL records are already folded into this image; recovery replays
/// the log from there.
pub fn encode_tinker(g: &GraphTinker, wal_lsn: u64) -> Vec<u8> {
    let mut image = TinkerImage::of(*g.config());
    image.absorb(g);
    image.encode(wal_lsn)
}

/// The verified sections of a snapshot, before store reconstruction.
struct Sections<'a> {
    wal_lsn: u64,
    config: &'a [u8],
    /// SGH arrival order; empty without the section.
    sources: Vec<VertexId>,
    edges: Vec<Edge>,
    /// The recorded vertex space; 0 (widens nothing) without the section.
    space: u32,
}

/// Parses and checksum-verifies the section framing of an image. Any
/// structural defect — bad magic, a store kind other than GraphTinker,
/// short section, CRC mismatch, missing end marker, trailing bytes — is
/// [`PersistError::Corrupt`].
fn parse_sections(bytes: &[u8]) -> Result<Sections<'_>> {
    let mut r = ByteReader::new(bytes);
    let magic = r.bytes(8, "snapshot magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("bad snapshot magic".into()));
    }
    let kind = r.u8("store kind")?;
    if kind != KIND_TINKER {
        return Err(PersistError::Corrupt(format!(
            "snapshot holds store kind {kind}, not GraphTinker"
        )));
    }
    let wal_lsn = r.u64("wal lsn")?;
    let (mut config, mut sources, mut edges, mut space) = (None, Vec::new(), None, 0);
    loop {
        let tag = r.u8("section tag")?;
        let len = r.u64("section length")? as usize;
        let payload = r.bytes(len, "section payload")?;
        let crc = r.u32("section crc")?;
        if crc32(payload) != crc {
            return Err(PersistError::Corrupt(format!("section {tag} checksum mismatch")));
        }
        match tag {
            TAG_CONFIG => config = Some(payload),
            TAG_SGH => {
                let mut r = ByteReader::new(payload);
                let n = r.u64("sgh count")? as usize;
                sources.reserve(n.min(payload.len() / 4 + 1));
                for _ in 0..n {
                    sources.push(r.u32("sgh source")?);
                }
            }
            TAG_EDGES => edges = Some(payload),
            TAG_SPACE => space = ByteReader::new(payload).u32("vertex space")?,
            TAG_END => break,
            other => return Err(PersistError::Corrupt(format!("unknown section tag {other}"))),
        }
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after end marker",
            r.remaining()
        )));
    }
    let config = config.ok_or_else(|| PersistError::Corrupt("missing CONFIG section".into()))?;
    let edges = edges.ok_or_else(|| PersistError::Corrupt("missing EDGES section".into()))?;
    Ok(Sections { wal_lsn, config, sources, edges: decode_edges(edges)?, space })
}

fn decode_edges(payload: &[u8]) -> Result<Vec<Edge>> {
    let mut r = ByteReader::new(payload);
    let n = r.u64("edge count")? as usize;
    let mut edges = Vec::with_capacity(n.min(payload.len() / 12 + 1));
    for _ in 0..n {
        let src = r.u32("edge src")?;
        let dst = r.u32("edge dst")?;
        let weight = r.u32("edge weight")?;
        edges.push(Edge::new(src, dst, weight));
    }
    Ok(edges)
}

impl TinkerImage {
    /// Verifies and decodes snapshot bytes, returning the image and the
    /// WAL position recorded in it. The CONFIG payload is exactly what
    /// [`encode`](Self::encode) writes: a shorter or longer one is corrupt.
    fn decode(bytes: &[u8]) -> Result<(Self, u64)> {
        let s = parse_sections(bytes)?;
        let mut r = ByteReader::new(s.config);
        let pagewidth = r.u64("pagewidth")? as usize;
        let subblock = r.u64("subblock")? as usize;
        let workblock = r.u64("workblock")? as usize;
        let flags = r.u8("config flags")?;
        let config = TinkerConfig {
            pagewidth,
            subblock,
            workblock,
            enable_sgh: flags & 1 != 0,
            enable_cal: flags & 2 != 0,
            delete_mode: if flags & 4 != 0 {
                DeleteMode::DeleteAndCompact
            } else {
                DeleteMode::DeleteOnly
            },
            cal_group_size: r.u64("cal_group_size")? as usize,
            cal_block_size: r.u64("cal_block_size")? as usize,
            inline_cap: r.u64("inline_cap")? as usize,
            hub_promote: r.u64("hub_promote")? as u32,
            hub_demote: r.u64("hub_demote")? as u32,
        };
        if r.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "config: {} bytes beyond the {CONFIG_BYTES} the format defines",
                r.remaining()
            )));
        }
        let image = TinkerImage { config, sources: s.sources, edges: s.edges, space: s.space };
        Ok((image, s.wal_lsn))
    }

    /// Rebuilds one store, on the caller's thread.
    fn restore(&self) -> Result<GraphTinker> {
        let mut g = GraphTinker::new(self.config)?;
        g.import_sources(&self.sources);
        g.expand_vertex_space(self.space);
        self.place_edges(g)
    }

    /// Rebuilds a store of `shards` interval shards, each shard on its own
    /// worker: a shard imports the sources of its interval in image order,
    /// takes the recorded vertex space (a maximum, so it commutes with the
    /// edges that follow), and claims its edges out of the shared payload.
    fn restore_sharded(&self, shards: usize) -> Result<ParallelTinker> {
        let mut store = ParallelTinker::new(self.config, shards)?;
        let mut own = vec![Vec::new(); shards];
        for &src in &self.sources {
            own[partition_of(src, shards)].push(src);
        }
        for (i, own) in own.iter().enumerate() {
            store.with_shard_mut(i, |g| {
                g.import_sources(own);
                g.expand_vertex_space(self.space);
            });
        }
        self.place_edges(store)
    }

    /// Applies the edge payload to `store`, which holds the image's
    /// sources and vertex space. The payload is one insert-only run per
    /// source, so it is cut with [`run_chunks`], not sorted again. It
    /// holds each live edge once: the store must count as many edges as
    /// it had records.
    fn place_edges<S: ApplyBatch + GraphStore>(&self, mut store: S) -> Result<S> {
        for chunk in run_chunks(&self.edges, |e| e.src) {
            store.apply_grouped(EdgeBatch::inserts(chunk));
        }
        let (records, live) = (self.edges.len(), store.num_edges());
        if live != records as u64 {
            let e = format!("edge payload held {records} records but {live} distinct edges");
            return Err(PersistError::Corrupt(e));
        }
        Ok(store)
    }
}

/// Reconstructs a [`GraphTinker`] from snapshot bytes, returning the store
/// and the WAL position recorded in the image.
pub fn decode_tinker(bytes: &[u8]) -> Result<(GraphTinker, u64)> {
    let (image, wal_lsn) = TinkerImage::decode(bytes)?;
    Ok((image.restore()?, wal_lsn))
}

/// A published snapshot file and the WAL position encoded in its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// WAL records folded into the image (from the file name).
    pub lsn: u64,
    /// Path of the snapshot file.
    pub path: PathBuf,
}

/// File name a snapshot at `lsn` is published under.
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:016x}.{SNAPSHOT_EXT}")
}

/// Lists the published snapshots in `dir`, sorted by ascending LSN.
/// Temporary (`.tmp`) and unrelated files are ignored; a missing directory
/// lists as empty.
pub fn list_snapshots(dir: &Path) -> Result<Vec<SnapshotEntry>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("snap-") else { continue };
        let Some(hex) = stem.strip_suffix(&format!(".{SNAPSHOT_EXT}")) else { continue };
        let Ok(lsn) = u64::from_str_radix(hex, 16) else { continue };
        out.push(SnapshotEntry { lsn, path: entry.path() });
    }
    out.sort_by_key(|e| e.lsn);
    Ok(out)
}

/// Publishes snapshot bytes under `dir` as `snap-<lsn>.gts`, creating the
/// directory if needed. The bytes are written to a `.tmp` sibling, synced,
/// and renamed into place, so readers never observe a partial file under
/// the published name.
pub fn write_snapshot_bytes(dir: &Path, lsn: u64, bytes: &[u8]) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(snapshot_file_name(lsn));
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Best-effort directory sync so the rename itself is durable.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// Encodes and publishes one snapshot at `lsn`, timing both halves.
fn publish(dir: &Path, lsn: u64, encode: impl FnOnce() -> Vec<u8>) -> Result<PathBuf> {
    let m = gtinker_core::metrics::global();
    let encode_timer = gtinker_core::metrics::timer();
    let bytes = {
        let _t = gtinker_core::trace::span_arg(gtinker_core::SpanId::SnapshotEncode, lsn);
        encode()
    };
    m.snapshot_encode_ns.record_since(encode_timer);
    let write_timer = gtinker_core::metrics::timer();
    let _t = gtinker_core::trace::span_arg(gtinker_core::SpanId::SnapshotWrite, lsn);
    let path = write_snapshot_bytes(dir, lsn, &bytes)?;
    m.snapshot_write_ns.record_since(write_timer);
    m.snapshot_writes.inc();
    Ok(path)
}

/// Snapshots a [`GraphTinker`] into `dir` at WAL position `lsn`.
pub fn write_tinker_snapshot(dir: &Path, g: &GraphTinker, lsn: u64) -> Result<PathBuf> {
    publish(dir, lsn, || encode_tinker(g, lsn))
}

/// Snapshots every shard of `store` into `dir` as one image at WAL
/// position `lsn` (a pipeline barrier: in-flight batches are in it).
pub(crate) fn write_sharded_snapshot(
    dir: &Path,
    store: &ParallelTinker,
    lsn: u64,
) -> Result<PathBuf> {
    publish(dir, lsn, || {
        let mut image = TinkerImage::of(store.with_shard(0, |g| *g.config()));
        for i in 0..store.num_shards() {
            store.with_shard(i, |g| image.absorb(g));
        }
        image.encode(lsn)
    })
}

/// Loads a [`GraphTinker`] snapshot file.
pub fn load_tinker_snapshot(path: &Path) -> Result<(GraphTinker, u64)> {
    decode_tinker(&fs::read(path)?)
}

/// Loads a [`GraphTinker`] snapshot file — written from one store or from
/// any number of shards — into `shards` interval shards.
pub(crate) fn load_sharded_snapshot(path: &Path, shards: usize) -> Result<(ParallelTinker, u64)> {
    let (image, wal_lsn) = TinkerImage::decode(&fs::read(path)?)?;
    Ok((image.restore_sharded(shards)?, wal_lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::EdgeBatch;

    fn sample_tinker(cfg: TinkerConfig) -> GraphTinker {
        let mut g = GraphTinker::new(cfg).unwrap();
        let edges: Vec<Edge> =
            (0..800u32).map(|i| Edge::new(i * 7 % 113, i * 13 % 257, i % 9 + 1)).collect();
        g.apply_batch(&EdgeBatch::inserts(&edges));
        let dels: Vec<(u32, u32)> =
            (0..800u32).step_by(3).map(|i| (i * 7 % 113, i * 13 % 257)).collect();
        g.apply_batch(&EdgeBatch::deletes(&dels));
        g
    }

    fn edge_set<F: Fn(&mut dyn FnMut(u32, u32, u32))>(visit: F) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        visit(&mut |s, d, w| v.push((s, d, w)));
        v.sort_unstable();
        v
    }

    fn assert_equivalent(a: &GraphTinker, b: &GraphTinker) {
        assert_eq!(a.config(), b.config());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.vertex_space(), b.vertex_space());
        assert_eq!(a.sources(), b.sources(), "SGH dense order must survive");
        assert_eq!(edge_set(|f| a.for_each_edge_main(f)), edge_set(|f| b.for_each_edge_main(f)),);
    }

    #[test]
    fn tinker_roundtrip_default_config() {
        let g = sample_tinker(TinkerConfig::default());
        let bytes = encode_tinker(&g, 42);
        let (back, lsn) = decode_tinker(&bytes).unwrap();
        assert_eq!(lsn, 42);
        assert_equivalent(&g, &back);
    }

    #[test]
    fn tinker_roundtrip_ablated_configs() {
        for cfg in [
            TinkerConfig::default().sgh(false),
            TinkerConfig::default().cal(false),
            TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact),
            TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::default() },
            TinkerConfig::paper(),
            TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::default() }
                .tiers(2, 12, 6),
        ] {
            let g = sample_tinker(cfg);
            let (back, _) = decode_tinker(&encode_tinker(&g, 0)).unwrap();
            assert_eq!(*back.config(), cfg);
            assert_equivalent(&g, &back);
        }
    }

    #[test]
    fn adaptive_roundtrip_rebuilds_all_tiers() {
        let cfg = TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..Default::default() }
            .tiers(2, 12, 6);
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..20u32 {
            g.insert_edge(Edge::new(0, d + 100, d + 1)); // hub tier
        }
        for d in 0..5u32 {
            g.insert_edge(Edge::new(1, d + 100, d + 1)); // blocks tier
        }
        g.insert_edge(Edge::new(2, 100, 9)); // inline tier
        let before = g.structure_stats();
        assert_eq!(
            (before.tier_inline_vertices, before.tier_blocks_vertices, before.tier_hub_vertices),
            (1, 1, 1)
        );
        let (back, _) = decode_tinker(&encode_tinker(&g, 0)).unwrap();
        let after = back.structure_stats();
        assert_eq!(
            (after.tier_inline_vertices, after.tier_blocks_vertices, after.tier_hub_vertices),
            (1, 1, 1),
            "tier layout must be rebuilt by replaying edges: {after:?}"
        );
        assert_equivalent(&g, &back);
    }

    #[test]
    fn empty_store_roundtrips() {
        let g = GraphTinker::with_defaults();
        let (back, _) = decode_tinker(&encode_tinker(&g, 0)).unwrap();
        assert_eq!(back.num_edges(), 0);
        assert_eq!(back.vertex_space(), 0);
    }

    #[test]
    fn every_truncation_is_rejected_not_misparsed() {
        let g = sample_tinker(TinkerConfig::default());
        let bytes = encode_tinker(&g, 3);
        for cut in 0..bytes.len() {
            let e = decode_tinker(&bytes[..cut]).unwrap_err();
            assert!(matches!(e, PersistError::Corrupt(_)), "cut at {cut}: {e}");
        }
    }

    #[test]
    fn bit_flips_in_payload_are_detected() {
        let g = sample_tinker(TinkerConfig::default());
        let clean = encode_tinker(&g, 0);
        // Flip one bit at a spread of offsets; decode must never silently
        // succeed with different contents.
        for i in (0..clean.len()).step_by(17) {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            match decode_tinker(&bytes) {
                Err(_) => {}
                Ok((back, lsn)) => {
                    // A flip in the wal_lsn header field is outside any
                    // checksummed section; contents must still match.
                    assert_equivalent(&g, &back);
                    let _ = lsn;
                }
            }
        }
    }

    #[test]
    fn kind_mismatch_rejected() {
        // A STINGER image: kind 1, a CONFIG word, no edges, space 0. Its
        // sections are well formed, so only the kind byte refuses it.
        let mut w = ByteWriter::with_capacity(64);
        w.put_bytes(SNAPSHOT_MAGIC);
        w.put_u8(1);
        w.put_u64(0);
        put_section(&mut w, TAG_CONFIG, &16u64.to_le_bytes());
        let bytes = put_tail(w, &[], 0);
        let e = decode_tinker(&bytes).unwrap_err();
        assert!(matches!(&e, PersistError::Corrupt(m) if m.contains("kind 1")), "{e}");
    }

    #[test]
    fn file_roundtrip_and_listing() {
        let dir = std::env::temp_dir().join(format!("gtinker_snap_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(list_snapshots(&dir).unwrap().is_empty(), "missing dir lists empty");
        let g = sample_tinker(TinkerConfig::default());
        write_tinker_snapshot(&dir, &g, 5).unwrap();
        write_tinker_snapshot(&dir, &g, 2).unwrap();
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        fs::write(dir.join("snap-zzzz.gts"), b"x").unwrap();
        let list = list_snapshots(&dir).unwrap();
        assert_eq!(list.iter().map(|e| e.lsn).collect::<Vec<_>>(), vec![2, 5]);
        let (back, lsn) = load_tinker_snapshot(&list[1].path).unwrap();
        assert_eq!(lsn, 5);
        assert_equivalent(&g, &back);
        fs::remove_dir_all(&dir).ok();
    }
}
