//! The Sparsepipe binary matrix slab: a compact on-disk image of a
//! [`MatrixArena`] for out-of-core sweeps (DESIGN.md §17).
//!
//! A slab is the arena's six arrays written verbatim (little-endian, each
//! section 8-byte aligned) behind a 64-byte versioned header carrying a
//! content fingerprint of the payload: a word-wise hash that reads the
//! payload one little-endian `u64` at a time (see
//! [`SlabHeader::fingerprint`]), separate from the byte-wise FNV-1a fold
//! [`crate::MatrixCache::key_for`] uses. Loading is a straight sequential
//! read: each section is decoded in bounded staging chunks directly into its
//! final `Vec`, so peak RSS during a load is the arena itself plus a
//! fixed 4 MB staging buffer, and the loaded slices are handed to the
//! simulator exactly as [`MatrixArena`] slices (no triplet list, no
//! CSC/CSR re-derivation — the workspace forbids `unsafe`, so "zero
//! copy" here means *zero re-derivation and zero intermediate
//! structures*, with one bulk byte→word decode per section).
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SPSLAB1\0"
//!      8     4  version (2)
//!     12     4  flags (0)
//!     16     4  n (square dimension)
//!     20     4  reserved (0)
//!     24     8  nnz
//!     32     8  fingerprint of the payload words
//!     40    24  reserved (0)
//!     64     …  payload: csc_ptr, csc_rows, csc_vals,
//!                        csr_ptr, csr_cols, csr_vals
//!               (u32 sections padded to an 8-byte boundary)
//! ```
//!
//! Structural failures carry stable [`SlabError::code`]s (`slab-magic`,
//! `slab-version`, `slab-truncated`, `slab-fingerprint`, `slab-shape`,
//! `slab-io`) so tooling can distinguish a torn download from a version
//! skew without parsing prose. Version 1 slabs (byte-wise FNV-1a
//! fingerprint) fail with `slab-version`; re-running `experiments convert`
//! rewrites them.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sparsepipe_tensor::{mm, TensorError};

use crate::arena::{ArenaBuilder, MatrixArena};
use crate::CoreError;

/// Leading magic bytes of every slab file.
pub const MAGIC: [u8; 8] = *b"SPSLAB1\0";

/// The current (and only readable) format version.
pub const VERSION: u32 = 2;

/// Total header size in bytes.
pub const HEADER_BYTES: usize = 64;

/// Staging-buffer size for chunked encode/decode (a multiple of 8 so
/// chunk boundaries never split an element or a fingerprint word).
const STAGE_BYTES: usize = 4 << 20;

/// Read-buffer size for the MatrixMarket source of [`convert_mm`].
const MM_READ_BYTES: usize = 256 << 10;

/// Errors produced by slab reading, writing, and conversion.
#[derive(Debug)]
#[non_exhaustive]
pub enum SlabError {
    /// The file does not start with [`MAGIC`].
    Magic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The header declares an unsupported format version.
    Version {
        /// The version found.
        found: u32,
    },
    /// The file ended before the declared payload was complete.
    Truncated {
        /// Which section ran dry.
        context: String,
    },
    /// The payload bytes do not hash to the header's fingerprint.
    Fingerprint {
        /// Fingerprint declared by the header.
        expected: u64,
        /// Fingerprint of the bytes actually read.
        actual: u64,
    },
    /// The decoded arrays violate the arena invariants, or the matrix
    /// being converted is not square.
    Shape {
        /// Which invariant failed.
        context: String,
    },
    /// The MatrixMarket source being converted failed to parse (carries
    /// its own stable `mm-*` code through [`SlabError::code`]).
    Source(TensorError),
    /// An underlying I/O failure.
    Io(io::Error),
}

impl SlabError {
    /// The stable machine-matchable error code. Codes are a
    /// compatibility surface — existing values never change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            SlabError::Magic { .. } => "slab-magic",
            SlabError::Version { .. } => "slab-version",
            SlabError::Truncated { .. } => "slab-truncated",
            SlabError::Fingerprint { .. } => "slab-fingerprint",
            SlabError::Shape { .. } => "slab-shape",
            SlabError::Source(e) => e.code(),
            SlabError::Io(_) => "slab-io",
        }
    }
}

impl std::fmt::Display for SlabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabError::Magic { found } => {
                write!(
                    f,
                    "[slab-magic] not a slab file (leading bytes {found:02x?})"
                )
            }
            SlabError::Version { found } => write!(
                f,
                "[slab-version] unsupported slab version {found} (this build reads \
                 {VERSION}); re-run `experiments convert` to rewrite the slab"
            ),
            SlabError::Truncated { context } => {
                write!(f, "[slab-truncated] slab file ends early: {context}")
            }
            SlabError::Fingerprint { expected, actual } => write!(
                f,
                "[slab-fingerprint] payload hash {actual:#018x} does not match the header's \
                 {expected:#018x} (corrupt or torn file)"
            ),
            SlabError::Shape { context } => write!(f, "[slab-shape] {context}"),
            SlabError::Source(e) => write!(f, "converting MatrixMarket source: {e}"),
            SlabError::Io(e) => write!(f, "[slab-io] {e}"),
        }
    }
}

impl std::error::Error for SlabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlabError::Source(e) => Some(e),
            SlabError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SlabError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SlabError::Truncated {
                context: "unexpected end of file".into(),
            }
        } else {
            SlabError::Io(e)
        }
    }
}

impl From<TensorError> for SlabError {
    fn from(e: TensorError) -> Self {
        SlabError::Source(e)
    }
}

impl From<CoreError> for SlabError {
    fn from(e: CoreError) -> Self {
        SlabError::Shape {
            context: e.to_string(),
        }
    }
}

/// The decoded slab header — everything known without touching the
/// payload (the admission-time peek for schedulers and caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHeader {
    /// Format version.
    pub version: u32,
    /// Square matrix dimension.
    pub n: u32,
    /// Non-zero count.
    pub nnz: u64,
    /// Hash of the payload, read as little-endian `u64` words `w`: one
    /// lane of xxHash64's round, `acc = rotl(acc + w·P2, 31)·P1` from
    /// `acc = P3`, then xxHash64's avalanche of `acc ^ word_count`. Every
    /// step is a bijection of the state, so any change confined to one
    /// word always changes the hash, and the avalanche carries every
    /// input bit to every output bit.
    pub fingerprint: u64,
}

impl SlabHeader {
    /// Size of the payload in bytes (six sections, u32 sections padded
    /// to 8-byte boundaries).
    fn payload_bytes(&self) -> u64 {
        let ptr = pad8(4 * (u64::from(self.n) + 1));
        let coords = pad8(4 * self.nnz);
        let vals = 8 * self.nnz;
        2 * (ptr + coords + vals)
    }

    /// Size of the whole file in bytes (header + payload).
    pub fn file_bytes(&self) -> u64 {
        HEADER_BYTES as u64 + self.payload_bytes()
    }
}

fn pad8(bytes: u64) -> u64 {
    bytes.next_multiple_of(8)
}

/// The payload fingerprint (see [`SlabHeader::fingerprint`]), fed whole
/// words at a time.
struct PayloadHash {
    acc: u64,
    words: u64,
}

/// xxHash64's primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

impl PayloadHash {
    fn new() -> Self {
        PayloadHash { acc: P3, words: 0 }
    }

    /// Folds in `bytes`, a whole number of little-endian words (the
    /// writer and reader stage every section, pad included, in 8-byte
    /// multiples).
    fn eat(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len().is_multiple_of(8),
            "fingerprint input must be whole words"
        );
        for w in bytes.chunks_exact(8) {
            let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            self.acc = self
                .acc
                .wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1);
        }
        self.words += (bytes.len() / 8) as u64;
    }

    fn finish(&self) -> u64 {
        let mut h = self.acc ^ self.words;
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One u32 section in staging chunks, its 8-byte alignment pad appended
/// to the last chunk (every earlier chunk is a full, 8-aligned stage).
fn emit_u32s(
    data: &[u32],
    buf: &mut Vec<u8>,
    emit: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    for chunk in data.chunks(STAGE_BYTES / 4) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        if !buf.len().is_multiple_of(8) {
            buf.extend_from_slice(&[0u8; 4]);
        }
        emit(buf)?;
    }
    Ok(())
}

/// One f64 section in staging chunks (already 8-aligned, no pad).
fn emit_f64s(
    data: &[f64],
    buf: &mut Vec<u8>,
    emit: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    for chunk in data.chunks(STAGE_BYTES / 8) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        emit(buf)?;
    }
    Ok(())
}

/// Streams the payload sections through `emit` in format order, staging
/// through one reusable buffer. Used twice by the writer: once hashing
/// (fingerprint pass), once writing.
fn emit_payload(
    arena: &MatrixArena,
    buf: &mut Vec<u8>,
    emit: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    emit_u32s(arena.csc_ptr(), buf, emit)?;
    emit_u32s(arena.csc_rows(), buf, emit)?;
    emit_f64s(arena.csc_vals(), buf, emit)?;
    emit_u32s(arena.csr_ptr(), buf, emit)?;
    emit_u32s(arena.csr_cols(), buf, emit)?;
    emit_f64s(arena.csr_vals(), buf, emit)
}

/// Serializes `arena` as a slab. The fingerprint is computed in a first
/// encode pass (hash only), then the header and payload stream out —
/// no `Seek` bound, so any `Write` works.
///
/// # Errors
///
/// [`SlabError::Io`] on write failure.
pub fn write(arena: &MatrixArena, writer: &mut impl Write) -> Result<SlabHeader, SlabError> {
    let mut buf = Vec::with_capacity(STAGE_BYTES.min(8 * arena.nnz().max(1024)));
    let mut hash = PayloadHash::new();
    emit_payload(arena, &mut buf, &mut |bytes| {
        hash.eat(bytes);
        Ok(())
    })?;
    let header = SlabHeader {
        version: VERSION,
        n: arena.n(),
        nnz: arena.nnz() as u64,
        fingerprint: hash.finish(),
    };
    let mut head = [0u8; HEADER_BYTES];
    head[0..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&header.version.to_le_bytes());
    head[16..20].copy_from_slice(&header.n.to_le_bytes());
    head[24..32].copy_from_slice(&header.nnz.to_le_bytes());
    head[32..40].copy_from_slice(&header.fingerprint.to_le_bytes());
    writer.write_all(&head)?;
    emit_payload(arena, &mut buf, &mut |bytes| writer.write_all(bytes))?;
    writer.flush()?;
    Ok(header)
}

/// [`write()`] to a file path (buffered).
///
/// # Errors
///
/// [`SlabError::Io`] on create/write failure.
pub fn write_file(arena: &MatrixArena, path: &Path) -> Result<SlabHeader, SlabError> {
    let mut w = BufWriter::new(File::create(path)?);
    write(arena, &mut w)
}

/// Decodes just the 64-byte header: the cheap admission peek (shape,
/// nnz, fingerprint) without loading the payload. An `nnz` the arena's
/// `u32` offsets cannot hold is rejected here, so every accepted
/// header's [`SlabHeader::file_bytes`] is exact.
///
/// # Errors
///
/// [`SlabError::Magic`] / [`SlabError::Version`] / [`SlabError::Shape`] /
/// [`SlabError::Truncated`] / [`SlabError::Io`].
pub fn peek(reader: &mut impl Read) -> Result<SlabHeader, SlabError> {
    let mut head = [0u8; HEADER_BYTES];
    reader.read_exact(&mut head)?;
    if head[0..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&head[0..8]);
        return Err(SlabError::Magic { found });
    }
    let word = |r: std::ops::Range<usize>| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&head[r]);
        u32::from_le_bytes(b)
    };
    let dword = |r: std::ops::Range<usize>| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&head[r]);
        u64::from_le_bytes(b)
    };
    let version = word(8..12);
    if version != VERSION {
        return Err(SlabError::Version { found: version });
    }
    let nnz = dword(24..32);
    if nnz >= u64::from(u32::MAX) {
        return Err(SlabError::Shape {
            context: format!("nnz {nnz} overflows the arena's u32 offsets"),
        });
    }
    Ok(SlabHeader {
        version,
        n: word(16..20),
        nnz,
        fingerprint: dword(32..40),
    })
}

/// [`peek`] on a file path.
///
/// # Errors
///
/// See [`peek`]; open failures surface as [`SlabError::Io`].
pub fn peek_file(path: &Path) -> Result<SlabHeader, SlabError> {
    peek(&mut BufReader::new(File::open(path)?))
}

struct SectionReader<'a, R> {
    reader: &'a mut R,
    hash: PayloadHash,
    buf: Vec<u8>,
    /// The stream was checked to hold the whole payload the header
    /// declares, so sections may be allocated at their declared sizes.
    sized: bool,
}

impl<R: Read> SectionReader<'_, R> {
    /// The capacity a section of `count` elements starts with: all of
    /// it on a sized stream, else at most one staging chunk (`chunk`
    /// elements), grown as bytes arrive — so a forged header on a short
    /// bare stream cannot make the reader allocate what it declares.
    fn capacity(&self, count: usize, chunk: usize) -> usize {
        if self.sized {
            count
        } else {
            count.min(chunk)
        }
    }

    fn fill(&mut self, bytes: usize, context: &str) -> Result<(), SlabError> {
        self.buf.resize(bytes, 0);
        self.reader.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                SlabError::Truncated {
                    context: context.to_string(),
                }
            } else {
                SlabError::Io(e)
            }
        })?;
        self.hash.eat(&self.buf);
        Ok(())
    }

    /// One section of `count` u32s (LE), decoded in staging chunks
    /// straight into the returned `Vec`; the alignment pad is read with
    /// the last chunk.
    fn read_u32s(&mut self, count: usize, context: &str) -> Result<Vec<u32>, SlabError> {
        let mut out = Vec::with_capacity(self.capacity(count, STAGE_BYTES / 4));
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(STAGE_BYTES / 4);
            self.fill((take * 4).next_multiple_of(8), context)?;
            out.extend(
                self.buf[..take * 4]
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            remaining -= take;
        }
        Ok(out)
    }

    /// One section of `count` f64s (LE), decoded in staging chunks.
    fn read_f64s(&mut self, count: usize, context: &str) -> Result<Vec<f64>, SlabError> {
        let mut out = Vec::with_capacity(self.capacity(count, STAGE_BYTES / 8));
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(STAGE_BYTES / 8);
            self.fill(take * 8, context)?;
            out.extend(
                self.buf
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])),
            );
            remaining -= take;
        }
        Ok(out)
    }
}

/// Loads a slab into a validated [`MatrixArena`]. Each section is one
/// bounded-staging sequential read into its final array; the payload is
/// fingerprint-verified and the arrays pass the full
/// [`MatrixArena::from_raw_parts`] structural validation before anything
/// is handed to the simulator.
///
/// A bare stream's length is unknown, so each array starts at one
/// staging chunk and grows as its bytes arrive: a forged header on a
/// short stream fails with [`SlabError::Truncated`] having allocated at
/// most one chunk more than the stream held. [`read_file`] checks the
/// declared size against the file's first and allocates each array
/// exactly.
///
/// # Errors
///
/// Any [`SlabError`]; see the stable codes in the module docs.
pub fn read(reader: &mut impl Read) -> Result<(MatrixArena, SlabHeader), SlabError> {
    let header = peek(reader)?;
    read_payload(reader, header, false)
}

/// The payload half of [`read`], after `header` was peeked; `sized`
/// says the stream was checked to hold the declared payload.
fn read_payload(
    reader: &mut impl Read,
    header: SlabHeader,
    sized: bool,
) -> Result<(MatrixArena, SlabHeader), SlabError> {
    let n = header.n as usize;
    let nnz = usize::try_from(header.nnz).map_err(|_| SlabError::Shape {
        context: format!("nnz {} does not fit this platform's usize", header.nnz),
    })?;
    let mut sec = SectionReader {
        reader,
        hash: PayloadHash::new(),
        buf: Vec::new(),
        sized,
    };
    let csc_ptr = sec.read_u32s(n + 1, "csc_ptr")?;
    let csc_rows = sec.read_u32s(nnz, "csc_rows")?;
    let csc_vals = sec.read_f64s(nnz, "csc_vals")?;
    let csr_ptr = sec.read_u32s(n + 1, "csr_ptr")?;
    let csr_cols = sec.read_u32s(nnz, "csr_cols")?;
    let csr_vals = sec.read_f64s(nnz, "csr_vals")?;
    let actual = sec.hash.finish();
    if actual != header.fingerprint {
        return Err(SlabError::Fingerprint {
            expected: header.fingerprint,
            actual,
        });
    }
    let arena = MatrixArena::from_raw_parts(
        header.n, csc_ptr, csc_rows, csc_vals, csr_ptr, csr_cols, csr_vals,
    )?;
    Ok((arena, header))
}

/// [`read`] on a file path (buffered). The header's declared size is
/// checked against the file's length before any array is allocated.
///
/// # Errors
///
/// See [`read`]; a file shorter than its header declares fails with
/// [`SlabError::Truncated`], open failures surface as [`SlabError::Io`].
pub fn read_file(path: &Path) -> Result<(MatrixArena, SlabHeader), SlabError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let header = peek(&mut reader)?;
    if len < header.file_bytes() {
        return Err(SlabError::Truncated {
            context: format!(
                "file holds {len} bytes, its header declares {}",
                header.file_bytes()
            ),
        });
    }
    read_payload(&mut reader, header, true)
}

/// Streaming MatrixMarket → slab conversion: two visitor passes over the
/// source file feed the chunked [`ArenaBuilder`] (counting, then
/// placement), so the full triplet list is never materialized — peak RSS
/// is the finished arena plus `O(n)` cursors, within ~1.2× of the slab
/// payload itself. The counting pass reads coordinates only
/// ([`mm::stream_coords`]); values are parsed once, in the placement
/// pass. A counting-pass error is re-resolved with [`mm::first_defect`],
/// so the error is always the first defect in file order.
///
/// # Errors
///
/// [`SlabError::Source`] for MatrixMarket parse failures (stable `mm-*`
/// codes), [`SlabError::Shape`] for non-square sources, and I/O errors
/// from either side.
pub fn convert_mm(mtx: &Path, out: &Path) -> Result<SlabHeader, SlabError> {
    let open = || -> Result<BufReader<File>, SlabError> {
        Ok(BufReader::with_capacity(MM_READ_BYTES, File::open(mtx)?))
    };
    let head = mm::read_header(open()?)?;
    if head.nrows != head.ncols {
        return Err(SlabError::Shape {
            context: format!(
                "slab matrices must be square, {} is {}x{}",
                mtx.display(),
                head.nrows,
                head.ncols
            ),
        });
    }
    let mut builder = ArenaBuilder::new(head.nrows);
    if let Err(e) = mm::stream_coords(open()?, |r, c| builder.count(r, c).map_err(builder_err)) {
        return Err(mm::first_defect(open()?, e).into());
    }
    builder.start_placement()?;
    mm::stream(open()?, |r, c, v| {
        builder.place(r, c, v).map_err(builder_err)
    })?;
    let arena = builder.finish()?;
    write_file(&arena, out)
}

/// An [`ArenaBuilder`] failure inside an `mm` visitor, which raised it
/// outside any line.
fn builder_err(e: CoreError) -> TensorError {
    TensorError::Format {
        code: "mm-shape",
        line: 0,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsepipe_tensor::gen;

    fn arena(seed: u64) -> MatrixArena {
        MatrixArena::from_coo(&gen::power_law(96, 777, 1.0, 0.4, seed))
    }

    #[test]
    fn round_trips_bitwise() {
        let a = arena(5);
        let mut bytes = Vec::new();
        let header = write(&a, &mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, header.file_bytes());
        assert_eq!(header.n, 96);
        assert_eq!(header.nnz, a.nnz() as u64);
        let (back, h2) = read(&mut bytes.as_slice()).unwrap();
        assert_eq!(h2, header);
        assert_eq!(back, a, "loaded arena must be identical");
        // values bitwise
        for (x, y) in back.csc_vals().iter().zip(a.csc_vals()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_and_odd_shapes_round_trip() {
        for m in [
            sparsepipe_tensor::CooMatrix::from_entries(17, 17, Vec::new()).unwrap(),
            gen::uniform(33, 33, 101, 7), // odd nnz exercises padding
        ] {
            let a = MatrixArena::from_coo(&m);
            let mut bytes = Vec::new();
            let header = write(&a, &mut bytes).unwrap();
            assert_eq!(bytes.len() as u64, header.file_bytes());
            let (back, _) = read(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, a);
        }
    }

    #[test]
    fn peek_reads_only_the_header() {
        let a = arena(6);
        let mut bytes = Vec::new();
        let header = write(&a, &mut bytes).unwrap();
        // header alone is enough for peek
        let h = peek(&mut &bytes[..HEADER_BYTES]).unwrap();
        assert_eq!(h, header);
    }

    #[test]
    fn corruption_has_stable_codes() {
        let a = arena(7);
        let mut bytes = Vec::new();
        write(&a, &mut bytes).unwrap();

        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(
            read(&mut magic.as_slice()).unwrap_err().code(),
            "slab-magic"
        );

        let mut version = bytes.clone();
        version[8] = 9;
        assert_eq!(
            read(&mut version.as_slice()).unwrap_err().code(),
            "slab-version"
        );

        let truncated = &bytes[..bytes.len() - 9];
        assert_eq!(
            read(&mut &truncated[..]).unwrap_err().code(),
            "slab-truncated"
        );
        assert_eq!(
            peek(&mut &bytes[..10]).unwrap_err().code(),
            "slab-truncated"
        );

        // flip one payload byte: fingerprint (or, if the flip lands in a
        // coordinate, shape validation) must reject it
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = read(&mut flipped.as_slice()).unwrap_err();
        assert_eq!(err.code(), "slab-fingerprint", "{err}");

        // consistent payload re-hash but wrong header shape → shape error
        let mut short_n = bytes.clone();
        short_n[16] = 95; // n: 96 -> 95, payload no longer parses in place
        let err = read(&mut short_n.as_slice()).unwrap_err();
        assert!(
            matches!(
                err.code(),
                "slab-fingerprint" | "slab-shape" | "slab-truncated"
            ),
            "{err}"
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let a = MatrixArena::from_coo(&gen::uniform(9, 9, 13, 2));
        let mut bytes = Vec::new();
        write(&a, &mut bytes).unwrap();
        // the fingerprint field and every payload bit
        for byte in (32..40).chain(HEADER_BYTES..bytes.len()) {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let err = read(&mut flipped.as_slice()).unwrap_err();
                assert_eq!(err.code(), "slab-fingerprint", "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_are_rejected() {
        // Word-wise FNV-1a keeps a top-bit difference in the top bit, so
        // two such flips cancel; this hash must not.
        let a = arena(8);
        let mut bytes = Vec::new();
        let header = write(&a, &mut bytes).unwrap();
        let words = (bytes.len() - HEADER_BYTES) / 8;
        let top = |bytes: &mut [u8], w: usize| bytes[HEADER_BYTES + 8 * w + 7] ^= 0x80;
        let hash = |bytes: &[u8]| {
            let mut h = PayloadHash::new();
            h.eat(&bytes[HEADER_BYTES..]);
            h.finish()
        };
        for i in 0..words.min(64) {
            for j in (i + 1..words).step_by(7) {
                let mut flipped = bytes.clone();
                top(&mut flipped, i);
                top(&mut flipped, j);
                assert_ne!(hash(&flipped), header.fingerprint, "words {i} and {j}");
            }
        }
        let mut flipped = bytes.clone();
        top(&mut flipped, 0);
        top(&mut flipped, words - 1);
        let err = read(&mut flipped.as_slice()).unwrap_err();
        assert_eq!(err.code(), "slab-fingerprint", "{err}");
    }

    #[test]
    fn version_1_slabs_ask_for_a_reconvert() {
        let mut bytes = Vec::new();
        write(&arena(9), &mut bytes).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = read(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.code(), "slab-version");
        assert!(err.to_string().contains("experiments convert"), "{err}");
    }

    #[test]
    fn forged_header_fails_before_allocating() {
        // A 72-byte file whose header declares ~2^32 entries: its first
        // section (n = 1, two offsets) is present, so a loader trusting
        // the header would go on to allocate ~17 GB for the second. The
        // load must stop at the length check instead.
        let dir = std::env::temp_dir().join(format!("sparsepipe-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = [0u8; HEADER_BYTES + 8];
        file[0..8].copy_from_slice(&MAGIC);
        file[8..12].copy_from_slice(&VERSION.to_le_bytes());
        file[16..20].copy_from_slice(&1u32.to_le_bytes());
        file[24..32].copy_from_slice(&(u64::from(u32::MAX) - 2).to_le_bytes());
        let path = dir.join("forged.slab");
        std::fs::write(&path, file).unwrap();
        let err = read_file(&path).unwrap_err();
        assert_eq!(err.code(), "slab-truncated", "{err}");
        // an nnz past the u32 offsets is refused by the header peek
        file[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, file).unwrap();
        assert_eq!(read_file(&path).unwrap_err().code(), "slab-shape");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_header_on_a_bare_stream_fails_before_allocating() {
        // n = nnz = 2^32 - 2 over an empty payload: sized by the header,
        // the first section alone would be ~16 GiB. A bare-stream read
        // starts at one staging chunk and fails at the first short read.
        let mut head = [0u8; HEADER_BYTES];
        head[0..8].copy_from_slice(&MAGIC);
        head[8..12].copy_from_slice(&VERSION.to_le_bytes());
        head[16..20].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        head[24..32].copy_from_slice(&(u64::from(u32::MAX) - 1).to_le_bytes());
        let err = read(&mut head.as_slice()).unwrap_err();
        assert_eq!(err.code(), "slab-truncated", "{err}");
    }

    #[test]
    fn convert_mm_streams_to_a_loadable_slab() {
        let dir = std::env::temp_dir().join(format!("sparsepipe-slab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = gen::power_law(64, 420, 1.0, 0.4, 21);
        let mtx = dir.join("t.mtx");
        let mut text = Vec::new();
        mm::write(&m, &mut text).unwrap();
        std::fs::write(&mtx, &text).unwrap();

        let slab = dir.join("t.slab");
        let header = convert_mm(&mtx, &slab).unwrap();
        assert_eq!(header.nnz, m.nnz() as u64);
        let (loaded, _) = read_file(&slab).unwrap();
        assert_eq!(loaded, MatrixArena::from_coo(&m), "bitwise-equal arena");
        assert_eq!(loaded.to_coo(), m);

        // non-square sources are rejected up front
        let rect = gen::uniform(8, 9, 20, 3);
        let mut text = Vec::new();
        mm::write(&rect, &mut text).unwrap();
        let rect_path = dir.join("rect.mtx");
        std::fs::write(&rect_path, &text).unwrap();
        let err = convert_mm(&rect_path, &dir.join("rect.slab")).unwrap_err();
        assert_eq!(err.code(), "slab-shape");

        std::fs::remove_dir_all(&dir).ok();
    }
}
