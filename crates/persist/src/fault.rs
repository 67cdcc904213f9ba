//! Fault injection for durability tests.
//!
//! Crash-consistency claims are only as good as the crashes they were
//! tested against. [`corrupt_file`] manufactures the failure modes a real
//! system sees in bytes already on disk — cutting a file off at an offset
//! (process killed mid-write), silently dropping a span (a short
//! `write(2)` the caller never noticed), or flipping a bit (media/bus
//! corruption) — which is how the crash-point sweep in the recovery tests
//! simulates "power failed after byte N of the log".
//!
//! Faults are deliberately deterministic: a fault is named by its byte
//! offset, so a failing crash point reproduces exactly.

use std::fs;
use std::path::Path;

use crate::format::Result;

/// A single injected fault, addressed by absolute byte offset in the
/// file or buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Everything from byte `at` onward is lost (crash / power cut).
    Truncate {
        /// Offset of the first lost byte.
        at: u64,
    },
    /// `drop` bytes starting at `at` vanish; later bytes shift down
    /// (a short write whose error was swallowed).
    ShortWrite {
        /// Offset of the first dropped byte.
        at: u64,
        /// How many bytes are dropped.
        drop: u64,
    },
    /// Bit `bit` (0–7) of the byte at `at` is inverted (silent media
    /// corruption).
    BitFlip {
        /// Offset of the corrupted byte.
        at: u64,
        /// Which bit to invert.
        bit: u8,
    },
}

/// Applies `fault` to a byte vector in place (the file-at-rest view).
pub fn apply_fault(data: &mut Vec<u8>, fault: Fault) {
    match fault {
        Fault::Truncate { at } => {
            let at = (at as usize).min(data.len());
            data.truncate(at);
        }
        Fault::ShortWrite { at, drop } => {
            let at = (at as usize).min(data.len());
            let end = at.saturating_add(drop as usize).min(data.len());
            data.drain(at..end);
        }
        Fault::BitFlip { at, bit } => {
            if let Some(b) = data.get_mut(at as usize) {
                *b ^= 1 << (bit & 7);
            }
        }
    }
}

/// Rewrites the file at `path` with `fault` applied to its bytes.
pub fn corrupt_file(path: &Path, fault: Fault) -> Result<()> {
    let mut data = fs::read(path)?;
    apply_fault(&mut data, fault);
    fs::write(path, &data)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_fault_on_buffers() {
        let base: Vec<u8> = (0..10).collect();

        let mut v = base.clone();
        apply_fault(&mut v, Fault::Truncate { at: 4 });
        assert_eq!(v, vec![0, 1, 2, 3]);

        let mut v = base.clone();
        apply_fault(&mut v, Fault::ShortWrite { at: 3, drop: 4 });
        assert_eq!(v, vec![0, 1, 2, 7, 8, 9]);

        let mut v = base.clone();
        apply_fault(&mut v, Fault::BitFlip { at: 9, bit: 7 });
        assert_eq!(v[9], 9 ^ 0x80);

        // Out-of-range faults are no-ops / clamps, never panics.
        let mut v = base.clone();
        apply_fault(&mut v, Fault::Truncate { at: 100 });
        assert_eq!(v, base);
        let mut v = base.clone();
        apply_fault(&mut v, Fault::BitFlip { at: 100, bit: 1 });
        assert_eq!(v, base);
    }

    #[test]
    fn corrupt_file_roundtrip() {
        let path = std::env::temp_dir().join(format!("gtinker_fault_file_{}", std::process::id()));
        fs::write(&path, b"0123456789").unwrap();
        corrupt_file(&path, Fault::Truncate { at: 3 }).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"012");
        fs::remove_file(&path).ok();
    }
}
