//! MatrixMarket coordinate-format I/O.
//!
//! Supports the subset of the NIST MatrixMarket format that SuiteSparse
//! distributions use: `matrix coordinate` with `real`/`integer`/`pattern`
//! fields and `general`/`symmetric` symmetry. This lets the harness run on
//! the paper's real datasets when they are available, instead of the
//! synthetic stand-ins.
//!
//! Three reading modes are provided:
//!
//! * [`read`] materializes the whole matrix as a [`CooMatrix`] — fine for
//!   test-sized inputs.
//! * [`stream`] visits entries one at a time without building the triplet
//!   list, so a 10M-entry SuiteSparse file can be converted to another
//!   format (the `crates/core` binary slab) in bounded memory.
//! * [`stream_coords`] is the same walk without parsing values, for a
//!   converter's counting pass; [`first_defect`] turns its error into the
//!   one [`stream`] would report.
//!
//! The reader is a byte-level tokenizer: lines are read into one reusable
//! byte buffer and split on ASCII whitespace, and the tokens go to the
//! standard `u64`/`f64` parsers. Comment lines (`%`) may hold any bytes,
//! including non-UTF-8 ones; size and entry lines must be ASCII.
//!
//! Structural violations carry stable [`TensorError::code`]s (`mm-banner`,
//! `mm-storage`, `mm-field`, `mm-symmetry`, `mm-size`, `mm-index`,
//! `mm-value`, `mm-truncated`, `mm-excess`), so tools can distinguish a
//! truncated download from a genuinely malformed file without parsing
//! prose.

use std::io::{BufRead, Write};

use crate::{CooMatrix, TensorError};

/// The parsed banner + size line of a MatrixMarket file: everything known
/// before the first entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmHeader {
    /// Declared row count.
    pub nrows: u32,
    /// Declared column count.
    pub ncols: u32,
    /// Declared number of *stored* entries (before symmetric mirroring).
    pub declared_nnz: usize,
    /// `pattern` field type: entries carry no value (read as `1.0`).
    pub pattern: bool,
    /// `symmetric` storage: off-diagonal entries are mirrored.
    pub symmetric: bool,
}

impl MmHeader {
    /// Parses the banner line (`%%MatrixMarket matrix coordinate … …`).
    fn parse_banner(header: &[u8]) -> Result<(bool, bool), TensorError> {
        let header_lc = header.to_ascii_lowercase();
        let fields: Vec<&[u8]> = Tokens(&header_lc).collect();
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        if fields.len() < 5 || fields[0] != b"%%matrixmarket" || fields[1] != b"matrix" {
            return Err(format_err(
                1,
                "mm-banner",
                format!("not a MatrixMarket header: {:?}", text(header)),
            ));
        }
        if fields[2] != b"coordinate" {
            return Err(format_err(
                1,
                "mm-storage",
                format!(
                    "unsupported storage {:?} (only coordinate)",
                    text(fields[2])
                ),
            ));
        }
        let pattern = match fields[3] {
            b"real" | b"integer" => false,
            b"pattern" => true,
            other => {
                return Err(format_err(
                    1,
                    "mm-field",
                    format!("unsupported field type {:?}", text(other)),
                ))
            }
        };
        let symmetric = match fields[4] {
            b"general" => false,
            b"symmetric" => true,
            other => {
                return Err(format_err(
                    1,
                    "mm-symmetry",
                    format!("unsupported symmetry {:?}", text(other)),
                ))
            }
        };
        Ok((pattern, symmetric))
    }
}

fn format_err(line: usize, code: &'static str, message: String) -> TensorError {
    TensorError::Format {
        code,
        line,
        message,
    }
}

/// One line at a time through a single reusable byte buffer: no
/// per-line allocation and no UTF-8 validation, so comment lines may
/// hold any bytes.
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    /// 1-based number of the line last returned (0 before the first).
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines {
            reader,
            buf: Vec::with_capacity(128),
            line_no: 0,
        }
    }

    /// Reads the next line into [`Lines::line`]; `false` at end of input.
    fn advance(&mut self) -> Result<bool, TensorError> {
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(false);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
        }
        self.line_no += 1;
        Ok(true)
    }

    /// The current line without its `\n` (a `\r` before it is whitespace
    /// to the tokenizer).
    fn line(&self) -> &[u8] {
        &self.buf
    }

    /// Advances to the next size or entry line, skipping blank and `%`
    /// comment lines; `false` at end of input. Data lines must be ASCII:
    /// any other byte there is a `parse` error.
    fn advance_to_data(&mut self) -> Result<bool, TensorError> {
        while self.advance()? {
            match self.buf.iter().find(|b| !b.is_ascii_whitespace()) {
                None | Some(b'%') => {}
                Some(_) if self.buf.is_ascii() => return Ok(true),
                Some(_) => {
                    return Err(TensorError::Parse {
                        line: self.line_no,
                        message: "non-ASCII byte in a size or entry line".into(),
                    })
                }
            }
        }
        Ok(false)
    }
}

/// Splits a line on ASCII whitespace.
struct Tokens<'a>(&'a [u8]);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.0[start..];
        let end = rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        let (tok, tail) = rest.split_at(end);
        self.0 = tail;
        Some(tok)
    }
}

/// Reads the banner and the size line, leaving `lines` at the first
/// entry line.
fn open<R: BufRead>(lines: &mut Lines<R>) -> Result<MmHeader, TensorError> {
    if !lines.advance()? {
        return Err(format_err(1, "mm-banner", "empty file".into()));
    }
    let (pattern, symmetric) = MmHeader::parse_banner(lines.line())?;
    if !lines.advance_to_data()? {
        return Err(format_err(2, "mm-size", "missing size line".into()));
    }
    let line_no = lines.line_no;
    let mut toks = Tokens(lines.line());
    let nrows: u64 = parse_tok(toks.next(), line_no, "nrows")?;
    let ncols: u64 = parse_tok(toks.next(), line_no, "ncols")?;
    let nnz: usize = parse_tok(toks.next(), line_no, "nnz")?;
    if nrows > u64::from(u32::MAX) || ncols > u64::from(u32::MAX) {
        return Err(format_err(
            line_no,
            "mm-size",
            format!("matrix shape {nrows}x{ncols} exceeds u32 coordinates"),
        ));
    }
    Ok(MmHeader {
        nrows: nrows as u32,
        ncols: ncols as u32,
        declared_nnz: nnz,
        pattern,
        symmetric,
    })
}

/// Parses only the banner and size line — the cheap admission peek: a
/// caller can learn a file's shape and declared entry count without
/// touching the (possibly gigabytes of) entry lines.
///
/// # Errors
///
/// [`TensorError::Format`] with the same stable codes as [`stream`].
pub fn read_header<R: BufRead>(reader: R) -> Result<MmHeader, TensorError> {
    open(&mut Lines::new(reader))
}

/// Streams a MatrixMarket file, calling `visit(row, col, value)` for every
/// logical entry (0-based coordinates; symmetric files yield the mirrored
/// off-diagonal twin immediately after the stored entry) without ever
/// materializing the triplet list. Returns the parsed header.
///
/// The declared entry count is enforced: a file that ends early fails with
/// code `mm-truncated`, one with extra entry lines with `mm-excess` — a
/// partial download can therefore never silently parse as a smaller
/// matrix.
///
/// # Errors
///
/// [`TensorError::Format`] (stable codes, see the module docs) for
/// structural violations, [`TensorError::Io`] for read failures, and
/// whatever `visit` itself returns.
pub fn stream<R, F>(reader: R, visit: F) -> Result<MmHeader, TensorError>
where
    R: BufRead,
    F: FnMut(u32, u32, f64) -> Result<(), TensorError>,
{
    scan(reader, true, visit)
}

/// The counting-pass form of [`stream`]: visits the coordinates of every
/// logical entry, in the same order, and checks that each entry line of
/// a non-pattern file has a value token, but does not parse it. Every
/// other check is [`stream`]'s.
///
/// Because values are not parsed, an error at line `L` may hide a bad
/// value on an earlier line; [`first_defect`] recovers the error
/// [`stream`] would have reported.
///
/// # Errors
///
/// As [`stream`], minus malformed (but present) values.
pub fn stream_coords<R, F>(reader: R, mut visit: F) -> Result<MmHeader, TensorError>
where
    R: BufRead,
    F: FnMut(u32, u32) -> Result<(), TensorError>,
{
    scan(reader, false, |r, c, _| visit(r, c))
}

/// Given the error a [`stream_coords`] pass over a file returned and a
/// fresh reader over the same file, returns the error [`stream`] reports
/// for it: the first defect in file order, which may be a bad value on a
/// line before `err`'s. Errors that carry no line (I/O, or the visitor's
/// own) come back unchanged.
pub fn first_defect<R: BufRead>(reader: R, err: TensorError) -> TensorError {
    if err.line().is_none() {
        return err;
    }
    // The full parse runs the same checks plus the value parse, so it
    // stops at or before `err`'s line.
    match stream(reader, |_, _, _| Ok(())) {
        Err(e) if e.line().is_some() => e,
        _ => err,
    }
}

/// [`stream`] and [`stream_coords`]: `values` selects whether value
/// tokens are parsed (`false` passes `0.0` to `visit`).
fn scan<R, F>(reader: R, values: bool, mut visit: F) -> Result<MmHeader, TensorError>
where
    R: BufRead,
    F: FnMut(u32, u32, f64) -> Result<(), TensorError>,
{
    let mut lines = Lines::new(reader);
    let h = open(&mut lines)?;
    let mut seen: usize = 0;
    while lines.advance_to_data()? {
        let line_no = lines.line_no;
        if seen == h.declared_nnz {
            return Err(format_err(
                line_no,
                "mm-excess",
                format!(
                    "size line declared {} entries but the file holds more",
                    h.declared_nnz
                ),
            ));
        }
        let mut toks = Tokens(lines.line());
        let r = parse_coord(toks.next(), line_no, "row")?;
        let c = parse_coord(toks.next(), line_no, "col")?;
        if r == 0 || c == 0 {
            return Err(format_err(
                line_no,
                "mm-index",
                "MatrixMarket coordinates are 1-based".into(),
            ));
        }
        if r > u64::from(h.nrows) || c > u64::from(h.ncols) {
            return Err(format_err(
                line_no,
                "mm-index",
                format!(
                    "entry ({r}, {c}) outside the declared {}x{} shape",
                    h.nrows, h.ncols
                ),
            ));
        }
        let v = if h.pattern {
            1.0
        } else {
            let tok = toks
                .next()
                .ok_or_else(|| format_err(line_no, "mm-value", "missing value".into()))?;
            if values {
                parse_value(tok, line_no)?
            } else {
                0.0
            }
        };
        let (r, c) = ((r - 1) as u32, (c - 1) as u32);
        seen += 1;
        visit(r, c, v)?;
        if h.symmetric && r != c {
            visit(c, r, v)?;
        }
    }
    if seen < h.declared_nnz {
        return Err(format_err(
            lines.line_no,
            "mm-truncated",
            format!(
                "size line declared {} entries, file ends after {seen}",
                h.declared_nnz
            ),
        ));
    }
    Ok(h)
}

/// Reads a matrix in MatrixMarket coordinate format.
///
/// # Errors
///
/// Returns [`TensorError::Format`] (with a stable
/// [`code`](TensorError::code)) for malformed or truncated input and
/// [`TensorError::Io`] for underlying read failures.
///
/// # Example
///
/// ```
/// use sparsepipe_tensor::mm;
/// let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n1 2 5.0\n3 1 -1.0\n";
/// let m = mm::read(text.as_bytes())?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.entries()[0], (0, 1, 5.0));
/// # Ok::<(), sparsepipe_tensor::TensorError>(())
/// ```
pub fn read<R: BufRead>(reader: R) -> Result<CooMatrix, TensorError> {
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    let header = stream(reader, |r, c, v| {
        entries.push((r, c, v));
        Ok(())
    })?;
    CooMatrix::from_entries(header.nrows, header.ncols, entries)
}

/// A data-line token as text. Data lines are ASCII-checked, so this only
/// fails on a caller bug; it still reports rather than panics.
fn token_str(tok: &[u8], line: usize) -> Result<&str, TensorError> {
    std::str::from_utf8(tok).map_err(|e| TensorError::Parse {
        line,
        message: format!("bad token: {e}"),
    })
}

fn parse_tok<T: std::str::FromStr>(
    tok: Option<&[u8]>,
    line: usize,
    what: &str,
) -> Result<T, TensorError>
where
    T::Err: std::fmt::Display,
{
    let tok = tok.ok_or_else(|| TensorError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    let tok = token_str(tok, line)?;
    tok.parse::<T>().map_err(|e| TensorError::Parse {
        line,
        message: format!("bad {what} {tok:?}: {e}"),
    })
}

/// An entry coordinate. A run of at most 19 ASCII digits (below
/// `u64::MAX`) is folded directly; any other token goes to the std
/// parser, so the accepted syntax (a leading `+`, say) and the errors are
/// exactly [`parse_tok`]'s.
fn parse_coord(tok: Option<&[u8]>, line: usize, what: &str) -> Result<u64, TensorError> {
    match tok {
        Some(digits) if digits.len() <= 19 && digits.iter().all(u8::is_ascii_digit) => Ok(digits
            .iter()
            .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'))),
        _ => parse_tok(tok, line, what),
    }
}

fn parse_value(tok: &[u8], line: usize) -> Result<f64, TensorError> {
    let tok = token_str(tok, line)?;
    tok.parse::<f64>()
        .map_err(|e| format_err(line, "mm-value", format!("bad value {tok:?}: {e}")))
}

/// Writes a matrix in MatrixMarket `coordinate real general` format.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on write failure.
pub fn write<W: Write>(m: &CooMatrix, mut writer: W) -> Result<(), TensorError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by sparsepipe-tensor")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for &(r, c, v) in m.entries() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip() {
        let m = gen::uniform(30, 40, 100, 12);
        let mut buf = Vec::new();
        write(&m, &mut buf).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 1.0), (1, 1, 1.0)][..]);
    }

    #[test]
    fn symmetric_matrices_are_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 5.0), (1, 0, 5.0), (2, 2, 1.0)][..]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read("hello\n1 1 0\n".as_bytes()).is_err());
        assert!(read("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_coordinates() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert_eq!(err.code(), "mm-index");
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "%%MatrixMarket matrix coordinate real general\n% a\n\n% b\n2 2 1\n\n1 2 4.5\n";
        let m = read(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 4.5)][..]);
    }

    #[test]
    fn stream_yields_entries_without_materializing() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 3\n2 1 5.0\n3 3 1.0\n3 2 2.0\n";
        let mut got = Vec::new();
        let h = stream(text.as_bytes(), |r, c, v| {
            got.push((r, c, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            h,
            MmHeader {
                nrows: 3,
                ncols: 3,
                declared_nnz: 3,
                pattern: false,
                symmetric: true,
            }
        );
        // mirrored twin follows its stored entry immediately
        assert_eq!(
            got,
            vec![
                (1, 0, 5.0),
                (0, 1, 5.0),
                (2, 2, 1.0),
                (2, 1, 2.0),
                (1, 2, 2.0)
            ]
        );
    }

    #[test]
    fn read_header_peeks_without_reading_entries() {
        // entry lines are garbage, but the header peek never reaches them
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n% note\n5 5 9\nGARBAGE\n";
        let h = read_header(text.as_bytes()).unwrap();
        assert_eq!((h.nrows, h.ncols, h.declared_nnz), (5, 5, 9));
        assert!(h.pattern && h.symmetric);
        assert_eq!(
            read_header("%%MatrixMarket matrix coordinate real general\n% only\n".as_bytes())
                .unwrap_err()
                .code(),
            "mm-size"
        );
    }

    #[test]
    fn truncated_file_fails_with_stable_code() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 5.0\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert_eq!(err.code(), "mm-truncated");
        assert!(err.to_string().contains("declared 3 entries"));
        // a file cut mid-comment run after the size line is also truncated
        let text = "%%MatrixMarket matrix coordinate real general\n% note\n2 2 1\n% eof\n";
        assert_eq!(read(text.as_bytes()).unwrap_err().code(), "mm-truncated");
    }

    #[test]
    fn excess_entries_fail_with_stable_code() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 5.0\n2 2 1.0\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert_eq!(err.code(), "mm-excess");
    }

    #[test]
    fn banner_dialects_carry_stable_codes() {
        let cases = [
            ("hello\n", "mm-banner"),
            (
                "%%MatrixMarket vector coordinate real general\n",
                "mm-banner",
            ),
            ("%%MatrixMarket matrix array real general\n", "mm-storage"),
            (
                "%%MatrixMarket matrix coordinate complex general\n",
                "mm-field",
            ),
            (
                "%%MatrixMarket matrix coordinate real hermitian\n",
                "mm-symmetry",
            ),
            ("", "mm-banner"),
        ];
        for (text, code) in cases {
            let err = read(text.as_bytes()).unwrap_err();
            assert_eq!(err.code(), code, "for {text:?}");
        }
        // banner is case-insensitive; integer field parses as real
        let ok = "%%matrixmarket MATRIX Coordinate INTEGER General\n1 1 1\n1 1 7\n";
        assert_eq!(read(ok.as_bytes()).unwrap().entries(), &[(0, 0, 7.0)][..]);
    }

    #[test]
    fn out_of_shape_indices_fail_with_stable_code() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert_eq!(err.code(), "mm-index");
        assert!(err.to_string().contains("outside the declared"));
    }

    #[test]
    fn comment_lines_may_hold_any_bytes() {
        // A Latin-1 byte (invalid UTF-8) in a comment, as in some real
        // SuiteSparse headers, no longer fails the whole file.
        let mut text = b"%%MatrixMarket matrix coordinate real general\n% Jos\xe9\n".to_vec();
        text.extend_from_slice(b"2 2 1\r\n1 2 4.5\r\n");
        assert_eq!(read(text.as_slice()).unwrap().entries(), &[(0, 1, 4.5)][..]);
        // Size and entry lines stay ASCII.
        for (bad, line) in [
            (
                &b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 4.5\xe9\n"[..],
                3,
            ),
            (
                &b"%%MatrixMarket matrix coordinate real general\n2\xc2\xa02 1\n1 2 4.5\n"[..],
                2,
            ),
        ] {
            let err = read(bad).unwrap_err();
            assert_eq!((err.code(), err.line()), ("parse", Some(line)));
        }
    }

    #[test]
    fn coordinate_pass_defers_values_to_first_defect() {
        // line 3 holds a bad value, line 4 an out-of-shape index
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 zz\n3 1 1.0\n";
        let mut coords = Vec::new();
        let err = stream_coords(text.as_bytes(), |r, c| {
            coords.push((r, c));
            Ok(())
        })
        .unwrap_err();
        assert_eq!((err.code(), err.line()), ("mm-index", Some(4)));
        assert_eq!(coords, vec![(0, 0)]);
        let first = first_defect(text.as_bytes(), err);
        assert_eq!((first.code(), first.line()), ("mm-value", Some(3)));
        // a missing value is caught by the coordinate pass itself
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        let err = stream_coords(text.as_bytes(), |_, _| Ok(())).unwrap_err();
        assert_eq!((err.code(), err.line()), ("mm-value", Some(3)));
        // errors without a line pass through untouched
        let visitor = TensorError::Format {
            code: "mm-shape",
            line: 0,
            message: "visitor".into(),
        };
        assert_eq!(first_defect(text.as_bytes(), visitor).line(), None);
    }

    #[test]
    fn missing_size_line_and_values_have_codes() {
        let only_banner = "%%MatrixMarket matrix coordinate real general\n% nothing else\n";
        assert_eq!(read(only_banner.as_bytes()).unwrap_err().code(), "mm-size");
        let no_value = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        assert_eq!(read(no_value.as_bytes()).unwrap_err().code(), "mm-value");
        let bad_value = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n";
        assert_eq!(read(bad_value.as_bytes()).unwrap_err().code(), "mm-value");
    }
}
