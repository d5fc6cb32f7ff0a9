//! Differential suite: the byte-level MatrixMarket reader
//! (`mm::read_header`, `mm::stream`, `mm::stream_coords`, `mm::read`) and
//! the streaming converter (`slab::convert_mm`) against the reference
//! `lines()`-based reader in `sparsepipe_testutil::mm_oracle`.
//!
//! On ASCII input every result must match the oracle bit for bit: the
//! header, every visited `(row, col, value)`, the materialized matrix,
//! and — through `convert_mm` — the arena, which must equal
//! `MatrixArena::from_coo` of the oracle's matrix. Row-sorted files are
//! placed row-major and the others column-major, so both placement
//! orientations are covered. Malformed files must fail with the oracle's
//! error code *and* line, including files with two defects.
//!
//! Exclusions (intended differences, checked by
//! `non_ascii_bytes_are_the_intended_differences`):
//! * non-UTF-8 bytes in a `%` comment line: the oracle fails with `io`,
//!   the byte reader skips the comment;
//! * non-ASCII bytes in a size or entry line: the oracle fails with `io`
//!   (invalid UTF-8) or splits on Unicode whitespace, the byte reader
//!   fails with `parse`;
//! * the vertical tab (`\x0b`), Unicode but not ASCII whitespace: the
//!   generators never emit it.
//!
//! Duplicate coordinates carry small integer values, whose sums do not
//! depend on the order of addition: `CooMatrix::from_entries` merges
//! duplicates in sorted (not input) order, the converter in input order.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sparsepipe_core::slab::{self, SlabError};
use sparsepipe_core::MatrixArena;
use sparsepipe_tensor::{mm, CooMatrix, TensorError};
use sparsepipe_testutil::mm_oracle as oracle;

/// Value tokens for non-duplicated `real` entries: signs, zeros,
/// exponents, specials and subnormals.
const REAL_TOKENS: [&str; 20] = [
    "-0.0",
    "0",
    "+1.5",
    "inf",
    "-inf",
    "+inf",
    "nan",
    "NaN",
    "Infinity",
    "-infinity",
    "1e308",
    "2.5e-310",
    "1E5",
    "-3.25e+2",
    "0.1",
    "7.",
    ".5",
    "123456789012345678",
    "1.7976931348623157e308",
    "5e-324",
];

#[derive(Debug, Clone, Copy)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy)]
enum Order {
    RowSorted,
    ColSorted,
    Shuffled,
}

/// A matrix to render as MatrixMarket text.
#[derive(Debug, Clone)]
struct Doc {
    n: u32,
    field: Field,
    symmetric: bool,
    /// 0-based stored coordinates, an index into [`REAL_TOKENS`], a
    /// random float, and a small integer.
    entries: Vec<(u32, u32, usize, f64, i32)>,
    order: Order,
    /// Seeds the shuffle and every formatting choice.
    seed: u64,
}

fn doc() -> impl Strategy<Value = Doc> {
    (1u32..24).prop_flat_map(|n| {
        (
            0usize..3,
            any::<bool>(),
            proptest::collection::vec(
                (0..n, 0..n, 0..REAL_TOKENS.len() * 2, any::<f64>(), -8i32..8),
                0..60,
            ),
            0usize..3,
            any::<u64>(),
        )
            .prop_map(move |(field, symmetric, entries, order, seed)| Doc {
                n,
                field: [Field::Real, Field::Integer, Field::Pattern][field],
                symmetric,
                entries,
                order: [Order::RowSorted, Order::ColSorted, Order::Shuffled][order],
                seed,
            })
    })
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Renders `doc` with randomized (but seeded) separators, case, line
/// endings, comments and blank lines.
fn render(doc: &Doc) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(doc.seed);
    let mut entries = doc.entries.clone();
    match doc.order {
        Order::RowSorted => entries.sort_by_key(|e| e.0),
        Order::ColSorted => entries.sort_by_key(|e| (e.1, e.0)),
        Order::Shuffled => entries.shuffle(&mut rng),
    }
    // Logical multiplicity of every coordinate (symmetric files mirror).
    let mut count: HashMap<(u32, u32), usize> = HashMap::new();
    for &(r, c, ..) in &entries {
        *count.entry((r, c)).or_default() += 1;
        if doc.symmetric && r != c {
            *count.entry((c, r)).or_default() += 1;
        }
    }
    let eol = if rng.gen_range(0..4) == 0 {
        "\r\n"
    } else {
        "\n"
    };
    let mut out = String::new();
    let line = |rng: &mut StdRng, out: &mut String, toks: &[String]| {
        // interleaved comments and blank lines
        while rng.gen_range(0..6) == 0 {
            out.push_str(pick(
                rng,
                &["% note", "%", "%%x", "  % indented", "", "  ", "\t"],
            ));
            out.push_str(eol);
        }
        out.push_str(pick(rng, &["", "", " ", "\t"]));
        for (i, t) in toks.iter().enumerate() {
            if i > 0 {
                out.push_str(pick(rng, &[" ", " ", "  ", "\t", " \t "]));
            }
            out.push_str(t);
        }
        out.push_str(pick(rng, &["", "", " ", "\t "]));
        out.push_str(eol);
    };

    let field = match doc.field {
        Field::Real => "real",
        Field::Integer => "integer",
        Field::Pattern => "pattern",
    };
    let symmetry = if doc.symmetric {
        "symmetric"
    } else {
        "general"
    };
    let banner = format!("%%MatrixMarket matrix coordinate {field} {symmetry}");
    let banner = match rng.gen_range(0..3) {
        0 => banner,
        1 => banner
            .to_uppercase()
            .replace("%%MATRIXMARKET", "%%MatrixMarket"),
        _ => banner.replace(' ', "\t"),
    };
    out.push_str(&banner);
    out.push_str(eol);
    let n = doc.n.to_string();
    let size_row = if rng.gen_range(0..4) == 0 {
        format!("+{n}")
    } else {
        n.clone()
    };
    line(
        &mut rng,
        &mut out,
        &[size_row, n, entries.len().to_string()],
    );
    for &(r, c, token, x, small) in &entries {
        // a mirrored entry counts at both of its coordinates
        let duplicated = count[&(r, c)] > 1;
        let mut toks = vec![(r + 1).to_string(), (c + 1).to_string()];
        let value = match doc.field {
            Field::Pattern => None,
            Field::Integer => Some(if small >= 0 && token % 2 == 0 {
                format!("+{small}")
            } else {
                small.to_string()
            }),
            Field::Real if duplicated => Some(match token % 3 {
                0 => small.to_string(),
                1 => format!("{small}.0"),
                _ => format!("{small}e0"),
            }),
            Field::Real => Some(match REAL_TOKENS.get(token) {
                Some(t) => (*t).to_string(),
                None => match token % 3 {
                    0 => format!("{x}"),
                    1 => format!("{x:e}"),
                    _ => format!("{x:E}"),
                },
            }),
        };
        toks.extend(value);
        line(&mut rng, &mut out, &toks);
    }
    if rng.gen_range(0..5) == 0 {
        // no final line terminator
        let trimmed = out.trim_end_matches(['\r', '\n']).len();
        out.truncate(trimmed);
    }
    out.into_bytes()
}

/// A scratch directory unique to one test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sparsepipe-mmdiff-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn assert_same_matrix(got: &CooMatrix, want: &CooMatrix) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    assert_eq!(got.nnz(), want.nnz());
    for (g, w) in got.entries().iter().zip(want.entries()) {
        assert!(
            g.0 == w.0 && g.1 == w.1 && g.2.to_bits() == w.2.to_bits(),
            "entry {g:?}, oracle has {w:?}"
        );
    }
}

fn assert_same_arena(got: &MatrixArena, want: &MatrixArena) {
    assert_eq!(got.n(), want.n());
    assert_eq!(got.csc_ptr(), want.csc_ptr());
    assert_eq!(got.csc_rows(), want.csc_rows());
    assert_eq!(got.csr_ptr(), want.csr_ptr());
    assert_eq!(got.csr_cols(), want.csr_cols());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.csc_vals()), bits(want.csc_vals()));
    assert_eq!(bits(got.csr_vals()), bits(want.csr_vals()));
}

/// `(code, line)` of an error, for comparison with the oracle.
fn site(e: &TensorError) -> (&'static str, Option<usize>) {
    (e.code(), e.line())
}

fn convert_site(e: &SlabError) -> (&'static str, Option<usize>) {
    match e {
        SlabError::Source(e) => site(e),
        other => (other.code(), None),
    }
}

type Visits = Vec<(u32, u32, u64)>;

/// A stream's result and every entry it visited, values as bits.
fn visits(
    stream: impl FnOnce(&mut dyn FnMut(u32, u32, f64)) -> Result<mm::MmHeader, TensorError>,
) -> (Result<mm::MmHeader, (&'static str, Option<usize>)>, Visits) {
    let mut seen = Vec::new();
    let result = stream(&mut |r, c, v| seen.push((r, c, v.to_bits())));
    (result.map_err(|e| site(&e)), seen)
}

/// Every reader entry point and the converter against the oracle.
fn check(text: &[u8], dir: &Scratch) {
    assert_eq!(
        mm::read_header(text).map_err(|e| site(&e)),
        oracle::read_header(text).map_err(|e| site(&e)),
        "read_header"
    );

    let want = visits(|f| {
        oracle::stream(text, |r, c, v| {
            f(r, c, v);
            Ok(())
        })
    });
    let got = visits(|f| {
        mm::stream(text, |r, c, v| {
            f(r, c, v);
            Ok(())
        })
    });
    assert_eq!(got, want, "stream");

    // The coordinate pass visits the same coordinates; its error,
    // resolved by first_defect, is the oracle's.
    let mut coords = Vec::new();
    let pass1 = mm::stream_coords(text, |r, c| {
        coords.push((r, c));
        Ok(())
    })
    .map_err(|e| site(&mm::first_defect(text, e)));
    match &want {
        (Ok(h), seen) => {
            assert_eq!(pass1, Ok(*h), "stream_coords header");
            let want_coords: Vec<_> = seen.iter().map(|&(r, c, _)| (r, c)).collect();
            assert_eq!(coords, want_coords, "stream_coords visits");
        }
        // a file whose only defects are bad values passes the
        // coordinate pass; they surface in the value pass
        (Err(e), _) => match &pass1 {
            Err(p) => assert_eq!(p, e, "stream_coords error"),
            Ok(_) => assert_eq!(e.0, "mm-value", "stream_coords passed"),
        },
    }

    let oracle_matrix = oracle::read(text);
    match (mm::read(text), &oracle_matrix) {
        (Ok(g), Ok(w)) => assert_same_matrix(&g, w),
        (g, w) => assert_eq!(
            g.map(|_| ()).map_err(|e| site(&e)),
            w.as_ref().map(|_| ()).map_err(site),
            "read"
        ),
    }

    let (mtx, out) = (dir.path("in.mtx"), dir.path("out.slab"));
    std::fs::write(&mtx, text).expect("write mtx");
    let converted = slab::convert_mm(&mtx, &out);
    match (&oracle_matrix, converted) {
        (Ok(m), Ok(header)) => {
            let (arena, read_header) = slab::read_file(&out).expect("converted slab loads");
            assert_eq!(read_header, header);
            assert_same_arena(&arena, &MatrixArena::from_coo(m));
        }
        (Err(w), Err(g)) => assert_eq!(convert_site(&g), site(w), "convert_mm: {g}"),
        (w, g) => panic!(
            "convert_mm {:?}, oracle {:?}",
            g.map_err(|e| e.to_string()),
            w.as_ref().map(|_| ()).map_err(site)
        ),
    }
}

/// Replaces (1-based) line `at` of `text` with `with`.
fn replace_line(text: &[u8], at: usize, with: &str) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    if at >= 1 && at <= lines.len() {
        lines[at - 1] = with.as_bytes();
    }
    lines.join(&b'\n')
}

/// Lines that break a file in every way the reader distinguishes.
const BAD_LINES: [&str; 14] = [
    "1 1 zz",
    "1 1",
    "1",
    "x 1 1.0",
    "1 y 1.0",
    "0 1 1.0",
    "1 0 1.0",
    "99 1 1.0",
    "1 99 1.0",
    "1 1 1.0.0",
    "-1 1 1.0",
    "18446744073709551616 1 1.0",
    "1 1 --1",
    "%%MatrixMarket matrix array real general",
];

proptest! {
    #![proptest_config(sparsepipe_testutil::config_with(128))]

    #[test]
    fn reader_and_converter_match_the_oracle(doc in doc()) {
        let dir = Scratch::new("ok");
        check(&render(&doc), &dir);
    }

    #[test]
    fn corrupted_files_fail_like_the_oracle(
        doc in doc(),
        edits in proptest::collection::vec((0usize..80, 0..BAD_LINES.len()), 1..3),
        cut in (any::<bool>(), 0usize..2000),
    ) {
        let dir = Scratch::new("bad");
        let mut text = render(&doc);
        for (at, bad) in edits {
            text = replace_line(&text, at, BAD_LINES[bad]);
        }
        if let (true, at) = cut {
            text.truncate(at.min(text.len()));
        }
        check(&text, &dir);
    }
}

/// The fixed malformed corpus: every `mm-*` code and `parse`, and files
/// with two defects where the coordinate pass alone would report the
/// later one.
#[test]
fn malformed_corpus_fails_like_the_oracle() {
    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n";
    let corpus: Vec<String> = vec![
        String::new(),
        "hello\n".into(),
        "%%MatrixMarket vector coordinate real general\n1 1 0\n".into(),
        "%%MatrixMarket matrix array real general\n1 1\n".into(),
        "%%MatrixMarket matrix coordinate complex general\n".into(),
        "%%MatrixMarket matrix coordinate real hermitian\n".into(),
        GENERAL.into(),
        format!("{GENERAL}% only comments\n\n"),
        format!("{GENERAL}4294967296 4294967296 0\n"),
        format!("{GENERAL}2 2\n"),
        format!("{GENERAL}2 x 1\n"),
        format!("{GENERAL}2 2 1\n0 1 3.0\n"),
        format!("{GENERAL}2 2 1\n3 1 3.0\n"),
        format!("{GENERAL}2 2 1\n1 1\n"),
        format!("{GENERAL}2 2 1\n1 1 zz\n"),
        format!("{GENERAL}2 2 1\nq 1 1.0\n"),
        format!("{GENERAL}2 2 1\n1\n"),
        format!("{GENERAL}2 2 3\n1 1 1.0\n% eof\n"),
        format!("{GENERAL}2 2 1\n1 1 1.0\n2 2 1.0\n"),
        // two defects: a bad value before a bad index / excess /
        // truncation / parse error — the value comes first
        format!("{GENERAL}2 2 2\n1 1 zz\n3 1 1.0\n"),
        format!("{GENERAL}2 2 1\n1 1 zz\n2 2 1.0\n"),
        format!("{GENERAL}2 2 3\n1 1 1.0\n2 1 nope\n"),
        format!("{GENERAL}2 2 3\n1 1 1.0\n2 1 nope\n2 x 1.0\n"),
        // ... and the other way round
        format!("{GENERAL}2 2 2\n3 1 1.0\n1 1 zz\n"),
        // the bad value sits on the truncating line itself
        format!("{GENERAL}2 2 2\n1 1 1.0\n2 2 zz"),
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n3 1\n".into(),
        "%%MatrixMarket matrix coordinate integer general\r\n2 2 1\r\n1 1 1.5x\r\n".into(),
    ];
    let dir = Scratch::new("corpus");
    let mut codes = std::collections::BTreeSet::new();
    for text in &corpus {
        check(text.as_bytes(), &dir);
        if let Err(e) = oracle::read(text.as_bytes()) {
            codes.insert(e.code());
        }
    }
    for code in [
        "mm-banner",
        "mm-storage",
        "mm-field",
        "mm-symmetry",
        "mm-size",
        "mm-index",
        "mm-value",
        "mm-truncated",
        "mm-excess",
        "parse",
    ] {
        assert!(codes.contains(code), "corpus misses {code}");
    }
}

/// The intended differences from the oracle (see the module docs).
#[test]
fn non_ascii_bytes_are_the_intended_differences() {
    let comment = b"%%MatrixMarket matrix coordinate real general\n% Jos\xe9\n2 2 1\n1 2 4.5\n";
    assert_eq!(oracle::read(&comment[..]).unwrap_err().code(), "io");
    assert_eq!(
        mm::read(&comment[..]).unwrap().entries(),
        &[(0, 1, 4.5)][..]
    );

    let dir = Scratch::new("nonascii");
    let mtx = dir.path("latin1.mtx");
    std::fs::write(&mtx, comment).unwrap();
    let header = slab::convert_mm(&mtx, &dir.path("latin1.slab")).unwrap();
    assert_eq!(header.nnz, 1);

    for (text, oracle_code) in [
        (
            &b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 4\xe9\n"[..],
            "io",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u{a0}2 4.5\n".as_bytes(),
            "ok",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\x0b2 4.5\n".as_bytes(),
            "ok",
        ),
    ] {
        let want = oracle::read(text).map_or_else(|e| e.code(), |_| "ok");
        assert_eq!(want, oracle_code);
        let err = mm::read(text).unwrap_err();
        assert_eq!(site(&err), ("parse", Some(3)));
        std::fs::write(&mtx, text).unwrap();
        let err = slab::convert_mm(&mtx, &dir.path("x.slab")).unwrap_err();
        assert_eq!(convert_site(&err), ("parse", Some(3)));
    }
}
