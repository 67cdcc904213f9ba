//! Plain-text edge-list I/O.
//!
//! Format: one `src dst [weight]` triple per line; `#`-prefixed lines are
//! comments. This is the de-facto interchange format of SNAP / UF Sparse
//! Matrix edge dumps, so real datasets can be dropped in when available.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use gtinker_types::{Edge, GraphError, Result};

/// Read-buffer size of [`EdgeListReader::open`]: large enough that a line
/// straddling two fills (the only lines that are copied) is a rarity.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// Reads an edge list from a file.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<Vec<Edge>> {
    let mut reader = EdgeListReader::open(path)?;
    let mut edges = Vec::new();
    while reader.read_chunk(&mut edges, usize::MAX)? > 0 {}
    Ok(edges)
}

/// Parses an edge list from any buffered reader, a `String` per line.
///
/// This is the reference grammar: [`EdgeListReader`] falls back to it for
/// every line its byte-level fast path does not cover, and the tests hold
/// the two equal on the same bytes.
pub fn parse_edge_list<R: BufRead>(reader: R) -> Result<Vec<Edge>> {
    let mut edges = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        edges.extend(parse_line_str(&line?, i + 1)?);
    }
    Ok(edges)
}

/// The per-line grammar: `None` for a blank or comment line.
fn parse_line_str(line: &str, line_no: usize) -> Result<Option<Edge>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let parse = |tok: Option<&str>, what: &str| -> Result<u32> {
        tok.ok_or_else(|| GraphError::Parse { line: line_no, message: format!("missing {what}") })?
            .parse()
            .map_err(|_| GraphError::Parse { line: line_no, message: format!("bad {what}") })
    };
    let src = parse(it.next(), "source")?;
    let dst = parse(it.next(), "destination")?;
    let weight = match it.next() {
        Some(tok) => tok
            .parse()
            .map_err(|_| GraphError::Parse { line: line_no, message: "bad weight".into() })?,
        None => 1,
    };
    Ok(Some(Edge::new(src, dst, weight)))
}

/// Byte-level fast path for a line made only of ASCII digits and blanks
/// (space, tab, CR): the first three tokens as `src dst [weight]`, later
/// ones ignored, as the grammar does. `None` hands the line to
/// [`parse_line_str`]: any other byte, a lone token, or a token past
/// `u32::MAX` (the slow path owns every error message).
fn parse_line_digits(line: &[u8]) -> Option<Option<Edge>> {
    let mut fields = [0u32; 3];
    let mut n = 0;
    let mut i = 0;
    while i < line.len() {
        match line[i] {
            b' ' | b'\t' | b'\r' => i += 1,
            b'0'..=b'9' => {
                let mut v = 0u64;
                while let Some(d @ b'0'..=b'9') = line.get(i).copied() {
                    v = v * 10 + u64::from(d - b'0');
                    if v > u64::from(u32::MAX) {
                        return None;
                    }
                    i += 1;
                }
                if n < 3 {
                    fields[n] = v as u32;
                }
                n += 1;
            }
            _ => return None,
        }
    }
    match n {
        0 => Some(None),
        1 => None,
        2 => Some(Some(Edge::new(fields[0], fields[1], 1))),
        _ => Some(Some(Edge::new(fields[0], fields[1], fields[2]))),
    }
}

/// One line (without its `\n`) to an edge, `None` for blanks and comments.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<Edge>> {
    if let Some(parsed) = parse_line_digits(line) {
        return Ok(parsed);
    }
    // What `BufRead::lines` answers for such a line, so both readers fail
    // alike.
    let text = std::str::from_utf8(line)
        .map_err(|_| GraphError::Io("stream did not contain valid UTF-8".into()))?;
    parse_line_str(text, line_no)
}

/// Streaming edge-list reader: hands the file out a chunk of edges at a
/// time, so a consumer can log and apply batch *k* while batch *k+1* is
/// still text.
///
/// Lines are parsed in place in the `BufRead`'s buffer; only a line that
/// straddles two fills is copied, into one reused carry buffer. Memory is
/// the read buffer, the carry (at most the longest line) and the caller's
/// chunk — never the file. Same grammar, errors and line numbers as
/// [`parse_edge_list`].
pub struct EdgeListReader<R> {
    reader: R,
    /// Head of a line whose tail is not in the buffer yet.
    carry: Vec<u8>,
    /// Lines consumed so far (the 1-based number of the last one).
    line_no: usize,
}

impl EdgeListReader<BufReader<File>> {
    /// Opens `path` for streaming.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(Self::new(BufReader::with_capacity(READ_BUFFER_BYTES, File::open(path)?)))
    }
}

impl<R: BufRead> EdgeListReader<R> {
    /// Streams from any buffered reader.
    pub fn new(reader: R) -> Self {
        EdgeListReader { reader, carry: Vec::new(), line_no: 0 }
    }

    /// Appends up to `max` more edges to `out` — fewer only at end of
    /// input — and returns how many; `Ok(0)` means the input is exhausted.
    /// On a malformed line the error names it, and `out` holds the edges
    /// of the lines before it.
    pub fn read_chunk(&mut self, out: &mut Vec<Edge>, max: usize) -> Result<usize> {
        let before = out.len();
        let room = |out: &Vec<Edge>| out.len() - before < max;
        while room(out) {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                // A last line without a newline is still a line.
                if !self.carry.is_empty() {
                    self.line_no += 1;
                    let last = parse_line(&self.carry, self.line_no);
                    self.carry.clear();
                    out.extend(last?);
                }
                break;
            }
            let mut used = 0;
            while room(out) {
                let rest = &buf[used..];
                let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                    self.carry.extend_from_slice(rest);
                    used = buf.len();
                    break;
                };
                used += end + 1;
                self.line_no += 1;
                let parsed = if self.carry.is_empty() {
                    parse_line(&rest[..end], self.line_no)
                } else {
                    self.carry.extend_from_slice(&rest[..end]);
                    let parsed = parse_line(&self.carry, self.line_no);
                    self.carry.clear();
                    parsed
                };
                match parsed {
                    Ok(edge) => out.extend(edge),
                    Err(e) => {
                        self.reader.consume(used);
                        return Err(e);
                    }
                }
            }
            self.reader.consume(used);
        }
        Ok(out.len() - before)
    }
}

/// Writes an edge list to a file (with weights).
pub fn write_edge_list<P: AsRef<Path>>(path: P, edges: &[Edge]) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for e in edges {
        writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic_and_comments() {
        let text = "# comment\n1 2 7\n\n3 4\n  5 6 9  \n";
        let edges = parse_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(edges, vec![Edge::new(1, 2, 7), Edge::new(3, 4, 1), Edge::new(5, 6, 9)]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_edge_list(Cursor::new("1 2\nx y\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = parse_edge_list(Cursor::new("5\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn roundtrip_through_file() {
        let edges: Vec<Edge> = (0..100u32).map(|i| Edge::new(i, i + 1, i % 7 + 1)).collect();
        let path = std::env::temp_dir().join("gtinker_io_roundtrip.txt");
        write_edge_list(&path, &edges).unwrap();
        let back = read_edge_list(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, edges);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list("/nonexistent/gtinker/file.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    /// The whole input through an [`EdgeListReader`] of the given buffer
    /// capacity, `batch` edges a call: the edges read before any error,
    /// and the error.
    fn stream(bytes: &[u8], capacity: usize, batch: usize) -> (Vec<Edge>, Option<GraphError>) {
        let mut reader = EdgeListReader::new(BufReader::with_capacity(capacity, bytes));
        let (mut all, mut chunk) = (Vec::new(), Vec::new());
        loop {
            chunk.clear();
            let read = reader.read_chunk(&mut chunk, batch);
            assert!(chunk.len() <= batch, "chunk of {} over --batch {batch}", chunk.len());
            all.extend_from_slice(&chunk);
            match read {
                Ok(0) => return (all, None),
                Ok(n) => assert_eq!(n, chunk.len()),
                Err(e) => return (all, Some(e)),
            }
        }
    }

    /// Reader == reference grammar on the same bytes: same edges, or the
    /// same error (line number included) after the same prefix of edges.
    fn assert_equivalent(bytes: &[u8]) {
        let (edges, err) = stream(bytes, 4096, 3);
        match parse_edge_list(bytes) {
            Ok(want) => {
                assert_eq!(err, None, "reader failed on {:?}", String::from_utf8_lossy(bytes));
                assert_eq!(edges, want, "on {:?}", String::from_utf8_lossy(bytes));
            }
            Err(want) => {
                assert_eq!(err, Some(want), "on {:?}", String::from_utf8_lossy(bytes));
                // The edges handed out are those of the lines before it.
                let upto = match err {
                    Some(GraphError::Parse { line, .. }) => line - 1,
                    _ => return,
                };
                let prefix: Vec<u8> =
                    bytes.split_inclusive(|&b| b == b'\n').take(upto).flatten().copied().collect();
                assert_eq!(edges, parse_edge_list(&prefix[..]).unwrap());
            }
        }
    }

    #[test]
    fn reader_matches_grammar_on_hostile_lines() {
        let table: &[&[u8]] = &[
            b"",
            b"\n",
            b"1 2 3\n4 5\n",
            b"1 2 3\r\n4 5\r\n\r\n6 7 8\r\n",
            b"1\t2\t3\n\t4 \t 5\t\n",
            b"   1   2   3   \n",
            b"# header\n1 2\n  # indented comment\n3 4\n#\n",
            b"\n\n1 2\n\n\n",
            b"1 2 3",
            b"1 2 3\n4 5",
            b"1 2 3\n4 5 # trailing\n",
            b"1 2 3 4\n5 6 7 8 9 junk\n",
            b"1 2 3 99999999999999999999\n",
            b"+7 8\n1 +2 +3\n",
            b"007 0000000000000000000000008 09\n",
            b"4294967295 4294967295 4294967295\n",
            b"1 2\n4294967296 1\n",
            b"1 4294967296\n",
            b"1 2 4294967296\n",
            b"12345678901 1\n",
            b"00000000001 00000000002\n",
            b"1 2\n-3 4\n",
            b"1 -2\n",
            b"1 2 -0\n",
            b"1 2\n5\n",
            b"5",
            b"x y\n",
            b"1 2\n1\x002 3\n",
            b"\x00\n",
            b"1 2\n\xff\xfe 3\n4 5\n",
            b"1 2 3 \xff\n",
            b"# caf\xc3\xa9\n1 2\n",
            b"# bad comment \xc3\n1 2\n",
            b"1\xc2\xa02\n",
            b"1\x0b2\x0c3\n",
            b"1 2\r3 4\n",
            b"1e3 2\n",
            b"0x10 2\n",
            b"1 2.5\n",
        ];
        for bytes in table {
            assert_equivalent(bytes);
        }
    }

    #[test]
    fn reader_matches_grammar_on_a_megabyte_line() {
        let mut digits = b"1 2 3\n".to_vec();
        digits.extend(std::iter::repeat_n(b'7', 1 << 20));
        assert_equivalent(&digits);
        let mut blanks = vec![b' '; 1 << 20];
        blanks.extend_from_slice(b"8 9\n10 11\n");
        assert_equivalent(&blanks);
        let mut noise = b"# ".to_vec();
        noise.extend(std::iter::repeat_n(b'x', 1 << 20));
        noise.extend_from_slice(b"\n1 2\nbad\n");
        assert_equivalent(&noise);
    }

    #[test]
    fn reader_matches_grammar_on_random_bytes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Mostly the bytes a near-valid file is made of, some anything.
        const ALPHABET: &[u8] = b"0123456789 0123456789 \t\r\n\n#+-x\x00\xc3\xa9\xff";
        let mut rng = StdRng::seed_from_u64(0x1017);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..64usize);
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_range(0..16u32) == 0 {
                        rng.gen_range(0..=255u32) as u8
                    } else {
                        ALPHABET[rng.gen_range(0..ALPHABET.len())]
                    }
                })
                .collect();
            assert_equivalent(&bytes);
        }
    }

    #[test]
    fn chunk_and_buffer_boundaries_do_not_show() {
        let text = "# g\n1 2 7\r\n\n3 4\n  5 6 9  \n10 11 12 13\n+14 015\n16 17";
        let want = parse_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(want.len(), 6);
        for capacity in [1, 2, 3, 7, 4096] {
            for batch in 1..=5 {
                let (edges, err) = stream(text.as_bytes(), capacity, batch);
                assert_eq!(err, None, "capacity {capacity}, batch {batch}");
                assert_eq!(edges, want, "capacity {capacity}, batch {batch}");
            }
        }
        // An error keeps its line number across the same boundaries.
        let bad = "1 2\n3 4\n\n5 x\n6 7\n";
        for capacity in [1, 2, 3, 7, 4096] {
            for batch in 1..=5 {
                let (edges, err) = stream(bad.as_bytes(), capacity, batch);
                assert_eq!(edges, vec![Edge::new(1, 2, 1), Edge::new(3, 4, 1)]);
                assert!(
                    matches!(err, Some(GraphError::Parse { line: 4, .. })),
                    "capacity {capacity}, batch {batch}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn read_edge_list_reports_the_failing_line_of_a_file() {
        let path = std::env::temp_dir().join("gtinker_io_bad_line.txt");
        std::fs::write(&path, "1 2\n3 4\n5 six\n").unwrap();
        let err = read_edge_list(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err, GraphError::Parse { line: 3, message: "bad destination".into() });
    }
}
