//! Low-level binary encoding shared by snapshots and the WAL: little-endian
//! fixed-width integers, a table-driven CRC-32, and bounds-checked readers.
//!
//! Everything durable in this crate is framed as `(length, checksum,
//! payload)` so a reader can always tell a torn or bit-flipped region from
//! a valid one without trusting any byte it has not verified.

use std::fmt;

/// Errors raised by the persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An underlying I/O operation failed (carried as a string so the error
    /// stays `Clone + Eq`, mirroring `gtinker_types::GraphError`).
    Io(String),
    /// A file's contents failed structural validation (bad magic, bad
    /// checksum, impossible length, unknown tag). Recovery treats
    /// corruption at a log tail as truncation, not failure.
    Corrupt(String),
    /// A required file or directory was missing.
    Missing(String),
    /// A decoded configuration failed the store's own validation.
    InvalidConfig(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(m) => write!(f, "i/o error: {m}"),
            PersistError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            PersistError::Missing(m) => write!(f, "missing: {m}"),
            PersistError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

impl From<gtinker_types::GraphError> for PersistError {
    fn from(e: gtinker_types::GraphError) -> Self {
        match e {
            gtinker_types::GraphError::InvalidConfig(m) => PersistError::InvalidConfig(m),
            other => PersistError::Io(other.to_string()),
        }
    }
}

/// Result alias for the persistence layer.
pub type Result<T> = std::result::Result<T, PersistError>;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) slicing-by-8 lookup
/// tables, generated at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, which lets eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of a byte slice, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
            ^ u64::from(c);
        c = CRC_TABLES[7][(word & 0xFF) as usize]
            ^ CRC_TABLES[6][((word >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((word >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][((word >> 24) & 0xFF) as usize]
            ^ CRC_TABLES[3][((word >> 32) & 0xFF) as usize]
            ^ CRC_TABLES[2][((word >> 40) & 0xFF) as usize]
            ^ CRC_TABLES[1][((word >> 48) & 0xFF) as usize]
            ^ CRC_TABLES[0][(word >> 56) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// An append-only byte buffer with little-endian integer writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites the four bytes at `at` with `v`, little-endian — for a
    /// length or checksum known only once what follows it is written.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// A bounds-checked cursor over a byte slice. Every read that would run
/// past the end returns [`PersistError::Corrupt`] instead of panicking —
/// torn files must never crash the reader.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt(format!(
                "short read: {what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        self.take(n, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The one-table byte-at-a-time loop `crc32` replaced: its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Seeded noise, for inputs with no structure to hide a lane mix-up
    /// behind.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
    }

    #[test]
    fn crc32_sliced_equals_bytewise_at_every_length_and_offset() {
        let data = noise(64 + 8, 0x5EED_0017);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_sliced_equals_bytewise_on_a_megabyte_of_noise() {
        let data = noise(1 << 20, 0x00C0_FFEE);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&data[3..(1 << 20) - 5]), crc32_bytewise(&data[3..(1 << 20) - 5]));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"graphtinker wal record payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"tail");
        w.patch_u32(1, 0xDEAD_BEEF);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes(4, "d").unwrap(), b"tail");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_short_reads() {
        let mut r = ByteReader::new(&[1, 2]);
        let e = r.u32("field").unwrap_err();
        assert!(matches!(e, PersistError::Corrupt(_)), "short read must be corruption: {e}");
        // Position unchanged after a failed read.
        assert_eq!(r.u8("x").unwrap(), 1);
    }

    #[test]
    fn error_display_and_conversions() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: PersistError = io.into();
        assert!(e.to_string().contains("gone"));
        let g: PersistError = gtinker_types::GraphError::InvalidConfig("bad".into()).into();
        assert!(matches!(g, PersistError::InvalidConfig(_)));
        assert!(PersistError::Missing("x".into()).to_string().contains("missing"));
    }
}
