//! A from-scratch RFC 1951 DEFLATE codec.
//!
//! NDPipe's near-data processing engine stores preprocessed image binaries
//! compressed "using a deflate algorithm" (§5.4), and the Check-N-Run
//! model-distribution path ships compressed weight deltas. This module
//! implements the subset of DEFLATE those paths need, from scratch:
//!
//! - **compression**: greedy LZ77 with hash-chain match finding (32 KiB
//!   window, lazy one-step evaluation) emitted with the *fixed* Huffman
//!   code of RFC 1951 §3.2.6, falling back to *stored* blocks whenever
//!   that would be smaller,
//! - **decompression**: stored and fixed-Huffman blocks (everything the
//!   compressor can emit), table-driven: a 64-bit bit buffer and one
//!   9-bit lookup per literal/length symbol.
//!
//! The format on the wire is valid DEFLATE; an external `inflate` can
//! decode it. Dynamic-Huffman decoding is intentionally out of scope —
//! the system only ever inflates its own output.
//!
//! # Example
//!
//! ```
//! use ndpipe_data::deflate::{compress, decompress};
//!
//! let text = b"photo storage photo storage photo storage".to_vec();
//! let packed = compress(&text);
//! assert!(packed.len() < text.len());
//! assert_eq!(decompress(&packed).unwrap(), text);
//! ```

/// Sliding-window size (RFC 1951).
const WINDOW: usize = 32 * 1024;
/// Minimum LZ77 match length worth encoding.
const MIN_MATCH: usize = 3;
/// Maximum LZ77 match length.
const MAX_MATCH: usize = 258;
/// Hash-chain table size (power of two).
const HASH_SIZE: usize = 1 << 15;
/// Cap on chain walks per position; bounds worst-case compression time.
const MAX_CHAIN: usize = 64;

/// Errors produced while decoding a DEFLATE stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// Input ended in the middle of a block.
    UnexpectedEof,
    /// A stored block's length check failed (`LEN != !NLEN`).
    StoredLengthMismatch,
    /// A block used the reserved BTYPE=11 encoding.
    ReservedBlockType,
    /// The stream used dynamic Huffman codes, which this decoder does not
    /// implement (the paired compressor never emits them).
    DynamicHuffmanUnsupported,
    /// A back-reference pointed before the start of the output.
    BadDistance,
    /// An invalid symbol was decoded.
    BadSymbol,
    /// A chunked frame's directory or payload was inconsistent.
    BadFrame,
    /// A decompression pool worker panicked; the output is unusable.
    WorkerPanicked,
    /// The output would pass the caller's cap
    /// ([`decompress_capped`], [`decompress_framed_capped`]).
    OutputTooLarge,
}

impl std::fmt::Display for DeflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeflateError::UnexpectedEof => write!(f, "unexpected end of deflate stream"),
            DeflateError::StoredLengthMismatch => write!(f, "stored block length check failed"),
            DeflateError::ReservedBlockType => write!(f, "reserved block type 11"),
            DeflateError::DynamicHuffmanUnsupported => {
                write!(f, "dynamic huffman blocks are not supported")
            }
            DeflateError::BadDistance => write!(f, "back-reference distance out of range"),
            DeflateError::BadSymbol => write!(f, "invalid symbol in deflate stream"),
            DeflateError::BadFrame => write!(f, "chunked frame directory is corrupt"),
            DeflateError::WorkerPanicked => write!(f, "decompression worker panicked"),
            DeflateError::OutputTooLarge => write!(f, "decompressed output exceeds its cap"),
        }
    }
}

impl std::error::Error for DeflateError {}

// ---------------------------------------------------------------------------
// Bit I/O (DEFLATE packs bits LSB-first; Huffman codes go MSB-first).
// ---------------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    bit_buf: u32,
    bit_count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes `n` bits of `value`, LSB first (for extra bits / headers).
    fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 24);
        self.bit_buf |= value << self.bit_count;
        self.bit_count += n;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes an `n`-bit Huffman code MSB-first, per RFC 1951 §3.1.1.
    fn write_huffman(&mut self, code: u32, n: u32) {
        self.write_bits(reverse_bits(code, n), n);
    }

    /// Pads to a byte boundary with zero bits.
    fn align_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reverses the low `n` bits of `code` (Huffman codes are MSB-first inside
/// an LSB-first bit stream).
const fn reverse_bits(code: u32, n: u32) -> u32 {
    let mut rev = 0;
    let mut i = 0;
    while i < n {
        rev |= ((code >> i) & 1) << (n - 1 - i);
        i += 1;
    }
    rev
}

/// LSB-first bit reader over a 64-bit buffer refilled a word at a time.
///
/// `pos` is the first input byte not yet wholly in `buf`. A word refill
/// may also load the low bits of that byte above `count`; those are the
/// stream's true next bits, and once the input is exhausted every bit at
/// or above `count` is zero. So a peek past `count` never invents bits.
struct BitBuf<'a> {
    input: &'a [u8],
    pos: usize,
    buf: u64,
    count: u32,
}

impl<'a> BitBuf<'a> {
    fn new(input: &'a [u8]) -> Self {
        BitBuf {
            input,
            pos: 0,
            buf: 0,
            count: 0,
        }
    }

    /// Tops the buffer up to at least 56 bits, or to every remaining bit
    /// at the end of the input.
    #[inline(always)]
    fn refill(&mut self) {
        let word = self
            .input
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<8>);
        if let Some(word) = word {
            self.buf |= u64::from_le_bytes(*word) << self.count;
            let whole = (63 - self.count) / 8;
            self.pos += whole as usize;
            self.count += whole * 8;
        } else {
            while self.count <= 56 {
                let Some(&byte) = self.input.get(self.pos) else {
                    break;
                };
                self.buf |= u64::from(byte) << self.count;
                self.pos += 1;
                self.count += 8;
            }
        }
    }

    /// Consumes `n <= 32` buffered bits, LSB first.
    #[inline(always)]
    fn take(&mut self, n: u32) -> Result<u32, DeflateError> {
        if n > self.count {
            return Err(DeflateError::UnexpectedEof);
        }
        let value = (self.buf & ((1u64 << n) - 1)) as u32;
        self.buf >>= n;
        self.count -= n;
        Ok(value)
    }

    /// Skips to the next byte boundary and reads a stored block's
    /// `LEN`/`NLEN` header and payload straight from the input.
    fn stored_block(&mut self) -> Result<&'a [u8], DeflateError> {
        // Hand the buffered whole bytes back to the input.
        self.pos -= (self.count / 8) as usize;
        self.buf = 0;
        self.count = 0;
        let rest = self.input.get(self.pos..).unwrap_or_default();
        let Some(&[l0, l1, n0, n1]) = rest.first_chunk::<4>() else {
            return Err(DeflateError::UnexpectedEof);
        };
        let len = u16::from_le_bytes([l0, l1]);
        if !len != u16::from_le_bytes([n0, n1]) {
            return Err(DeflateError::StoredLengthMismatch);
        }
        let raw = rest
            .get(4..4 + len as usize)
            .ok_or(DeflateError::UnexpectedEof)?;
        self.pos += 4 + raw.len();
        Ok(raw)
    }
}

// ---------------------------------------------------------------------------
// Length / distance code tables (RFC 1951 §3.2.5).
// ---------------------------------------------------------------------------

/// (base length, extra bits) for length codes 257..=285.
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// (base distance, extra bits) for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

fn length_to_code(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    for (i, &(base, extra)) in LENGTH_TABLE.iter().enumerate().rev() {
        if len as u16 >= base {
            return (257 + i, len as u16 - base, extra);
        }
    }
    unreachable!("length {len} below minimum")
}

fn dist_to_code(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW).contains(&dist));
    for (i, &(base, extra)) in DIST_TABLE.iter().enumerate().rev() {
        if dist >= base as usize {
            return (i, (dist - base as usize) as u16, extra);
        }
    }
    unreachable!("distance {dist} out of range")
}

/// Fixed-Huffman code for a literal/length symbol (RFC 1951 §3.2.6).
const fn fixed_litlen_code(sym: usize) -> (u32, u32) {
    match sym {
        0..=143 => (0b00110000 + sym as u32, 8),
        144..=255 => (0b110010000 + (sym - 144) as u32, 9),
        256..=279 => ((sym - 256) as u32, 7),
        280..=287 => (0b11000000 + (sym - 280) as u32, 8),
        _ => panic!("bad litlen symbol"),
    }
}

/// The fixed literal/length code as a lookup keyed by the next 9 stream
/// bits: entry `sym | code_len << 9`. The code is complete, so every key
/// names a symbol; the bits past its code length are don't-cares.
const FIXED_LITLEN_LUT: [u16; 512] = {
    let mut lut = [0u16; 512];
    let mut sym = 0;
    while sym < 288 {
        let (code, n) = fixed_litlen_code(sym);
        let rev = reverse_bits(code, n);
        let mut high = 0;
        while high < 1 << (9 - n) {
            lut[(rev | high << n) as usize] = sym as u16 | (n as u16) << 9;
            high += 1;
        }
        sym += 1;
    }
    lut
};

/// `DIST_TABLE` keyed by the next 5 stream bits (the fixed 5-bit distance
/// code, bit-reversed); codes 30 and 31 are invalid.
const FIXED_DIST_LUT: [Option<(u16, u8)>; 32] = {
    let mut lut = [None; 32];
    let mut code = 0;
    while code < DIST_TABLE.len() {
        lut[reverse_bits(code as u32, 5) as usize] = Some(DIST_TABLE[code]);
        code += 1;
    }
    lut
};

// ---------------------------------------------------------------------------
// LZ77 token stream.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & (HASH_SIZE - 1)
}

fn match_length(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Chain-end sentinel in the positional scratch tables.
const NIL: u32 = u32::MAX;

/// A DEFLATE compressor with reusable match-finder scratch.
///
/// `compress` as a free function must rebuild the 32 Ki-entry hash-chain
/// head table (and a `prev` link per input byte) on every call; on the
/// NPE hot path — thousands of small preprocessed sidecars per relabel
/// pass — that allocation and zeroing dominates. A `Compressor` keeps the
/// tables across calls and invalidates stale heads with an epoch tag
/// instead of clearing, so per-call setup is O(1).
///
/// The emitted bytes are identical to the free [`compress`] function's.
pub struct Compressor {
    /// Most recent position for each hash bucket (valid iff the matching
    /// `head_epoch` entry equals `epoch`).
    head: Vec<u32>,
    head_epoch: Vec<u32>,
    /// Previous position in the chain, indexed by position. Never cleared:
    /// entries are always written before they can be reached via `head`.
    prev: Vec<u32>,
    epoch: u32,
    tokens: Vec<Token>,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// Creates a compressor with empty scratch (grown on first use).
    pub fn new() -> Self {
        Compressor {
            head: vec![NIL; HASH_SIZE],
            head_epoch: vec![0; HASH_SIZE],
            prev: Vec::new(),
            epoch: 0,
            tokens: Vec::new(),
        }
    }

    fn begin_input(&mut self, len: usize) {
        assert!(len < NIL as usize, "input too large for u32 positions");
        if self.epoch == u32::MAX {
            // Epoch wrap: one real clear every 2^32 - 1 calls.
            self.head_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.prev.len() < len {
            self.prev.resize(len, NIL);
        }
    }

    #[inline]
    fn chain_head(&self, h: usize) -> u32 {
        if self.head_epoch[h] == self.epoch {
            self.head[h]
        } else {
            NIL
        }
    }

    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        let h = hash3(data, pos);
        self.prev[pos] = self.chain_head(h);
        self.head[h] = pos as u32;
        self.head_epoch[h] = self.epoch;
    }

    /// Greedy LZ77 tokenizer with hash chains; fills `self.tokens`.
    fn tokenize(&mut self, data: &[u8]) {
        self.tokens.clear();
        if data.len() < MIN_MATCH {
            self.tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return;
        }
        self.begin_input(data.len());
        let mut i = 0;
        while i < data.len() {
            if i + MIN_MATCH > data.len() {
                self.tokens.push(Token::Literal(data[i]));
                i += 1;
                continue;
            }
            let h = hash3(data, i);
            let mut candidate = self.chain_head(h);
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut best_len = 0;
            let mut best_dist = 0;
            let mut chain = 0;
            while candidate != NIL && chain < MAX_CHAIN {
                let dist = i - candidate as usize;
                if dist > WINDOW {
                    break;
                }
                let l = match_length(data, candidate as usize, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == max_len {
                        break;
                    }
                }
                candidate = self.prev[candidate as usize];
                chain += 1;
            }
            // Insert current position into the chain.
            self.insert(data, i);
            if best_len >= MIN_MATCH {
                self.tokens.push(Token::Match {
                    len: best_len,
                    dist: best_dist,
                });
                // Insert the skipped positions so later matches can find
                // them.
                for k in i + 1..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                    self.insert(data, k);
                }
                i += best_len;
            } else {
                self.tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
    }

    /// Compresses `data` into a raw DEFLATE stream, reusing this
    /// compressor's scratch tables. Output is byte-identical to the free
    /// [`compress`] function.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        // Try fixed-Huffman first.
        self.tokenize(data);
        let mut w = BitWriter::new();
        self.write_fixed_block(&mut w, true);
        let fixed = w.into_bytes();

        if fixed.len() <= stored_size(data.len()) {
            fixed
        } else {
            compress_stored(data)
        }
    }

    /// Emits the tokens of the last [`Compressor::tokenize`] as one
    /// fixed-Huffman block.
    fn write_fixed_block(&self, w: &mut BitWriter, last: bool) {
        w.write_bits(last as u32, 1); // BFINAL
        w.write_bits(0b01, 2); // BTYPE = fixed Huffman
        for t in &self.tokens {
            match *t {
                Token::Literal(b) => {
                    let (code, n) = fixed_litlen_code(b as usize);
                    w.write_huffman(code, n);
                }
                Token::Match { len, dist } => {
                    let (sym, lextra, lbits) = length_to_code(len);
                    let (code, n) = fixed_litlen_code(sym);
                    w.write_huffman(code, n);
                    w.write_bits(lextra as u32, lbits as u32);
                    let (dsym, dextra, dbits) = dist_to_code(dist);
                    w.write_huffman(dsym as u32, 5);
                    w.write_bits(dextra as u32, dbits as u32);
                }
            }
        }
        let (eob, eobn) = fixed_litlen_code(256);
        w.write_huffman(eob, eobn);
    }
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

thread_local! {
    static SHARED_COMPRESSOR: std::cell::RefCell<Compressor> =
        std::cell::RefCell::new(Compressor::new());
}

/// Compresses `data` into a raw DEFLATE stream (no zlib/gzip wrapper).
///
/// Emits a single fixed-Huffman block, or stored blocks when the input is
/// incompressible (so the output never exceeds the input by more than the
/// stored-block framing overhead: 5 bytes per 64 KiB plus one byte).
///
/// Uses a thread-local [`Compressor`] so repeated calls skip the
/// hash-table setup cost.
pub fn compress(data: &[u8]) -> Vec<u8> {
    SHARED_COMPRESSOR.with(|c| c.borrow_mut().compress(data))
}

fn stored_size(n: usize) -> usize {
    // Each stored block: 1 byte header (after align) + 4 bytes LEN/NLEN.
    let blocks = n.div_ceil(u16::MAX as usize).max(1);
    n + blocks * 5
}

/// Emits `data` as uncompressed stored blocks (BTYPE=00).
pub fn compress_stored(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(u16::MAX as usize).collect()
    };
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        w.write_bits(last as u32, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.out.extend_from_slice(&len.to_le_bytes());
        w.out.extend_from_slice(&(!len).to_le_bytes());
        w.out.extend_from_slice(chunk);
    }
    w.into_bytes()
}

/// Output bytes reserved per input byte before decoding: preprocessed
/// sidecars inflate about 7-fold. A stream that inflates further grows its
/// output as it decodes, so the up-front reservation stays bounded by the
/// input's length.
const RESERVE_PER_INPUT_BYTE: usize = 8;

/// Decompresses a raw DEFLATE stream produced by [`compress`] (stored and
/// fixed-Huffman blocks).
///
/// The output is not capped: a fixed-Huffman stream of maximal matches
/// inflates about 159-fold. Decoders of untrusted input that know the
/// expected size use [`decompress_capped`].
///
/// # Errors
///
/// Returns a [`DeflateError`] if the stream is truncated, corrupt, or uses
/// dynamic Huffman blocks.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    decompress_capped(data, usize::MAX)
}

/// [`decompress`] that never produces more than `cap` bytes. The up-front
/// reservation is `min(cap, 8 × input)`, so `cap` alone never sizes an
/// allocation, and a block that would take the output past `cap` fails
/// before the buffer grows.
///
/// # Errors
///
/// [`DeflateError::OutputTooLarge`] once the output would pass `cap`,
/// otherwise the errors of [`decompress`].
pub fn decompress_capped(data: &[u8], cap: usize) -> Result<Vec<u8>, DeflateError> {
    let mut bits = BitBuf::new(data);
    let mut out = Vec::with_capacity(cap.min(data.len().saturating_mul(RESERVE_PER_INPUT_BYTE)));
    loop {
        bits.refill();
        let bfinal = bits.take(1)?;
        let btype = bits.take(2)?;
        match btype {
            0b00 => {
                let block = bits.stored_block()?;
                if block.len() > cap.saturating_sub(out.len()) {
                    return Err(DeflateError::OutputTooLarge);
                }
                out.extend_from_slice(block);
            }
            0b01 => inflate_fixed_block(&mut bits, &mut out, cap)?,
            0b10 => return Err(DeflateError::DynamicHuffmanUnsupported),
            _ => return Err(DeflateError::ReservedBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

/// Decodes one fixed-Huffman block up to its end-of-block symbol, keeping
/// `out` at most `cap` bytes long. One refill per symbol covers the
/// longest one: a 9-bit code, 5 length extra bits, a 5-bit distance code
/// and 13 distance extra bits.
fn inflate_fixed_block(
    bits: &mut BitBuf<'_>,
    out: &mut Vec<u8>,
    cap: usize,
) -> Result<(), DeflateError> {
    loop {
        bits.refill();
        let Some(&entry) = FIXED_LITLEN_LUT.get((bits.buf & 0x1FF) as usize) else {
            return Err(DeflateError::BadSymbol);
        };
        bits.take(u32::from(entry >> 9))?;
        let sym = usize::from(entry & 0x1FF);
        if sym < 256 {
            if out.len() >= cap {
                return Err(DeflateError::OutputTooLarge);
            }
            out.push(sym as u8);
            continue;
        }
        if sym == 256 {
            return Ok(());
        }
        // 286 and 287 have codes but no meaning.
        let Some(&(base, extra)) = LENGTH_TABLE.get(sym - 257) else {
            return Err(DeflateError::BadSymbol);
        };
        let len = usize::from(base) + bits.take(u32::from(extra))? as usize;
        let Some(&Some((dbase, dextra))) = FIXED_DIST_LUT.get(bits.take(5)? as usize) else {
            return Err(DeflateError::BadSymbol);
        };
        let dist = usize::from(dbase) + bits.take(u32::from(dextra))? as usize;
        let start = out
            .len()
            .checked_sub(dist)
            .ok_or(DeflateError::BadDistance)?;
        if len > cap.saturating_sub(out.len()) {
            return Err(DeflateError::OutputTooLarge);
        }
        copy_match(out, start, len);
    }
}

/// Appends `len` bytes copied from `out[start..]`, where the source may
/// overlap the bytes being appended (a run with period `out.len() - start`).
#[inline(always)]
fn copy_match(out: &mut Vec<u8>, start: usize, len: usize) {
    debug_assert!(start < out.len(), "distance 0 never decodes");
    let dist = out.len() - start;
    if dist >= len {
        out.extend_from_within(start..start + len);
    } else if let (1, Some(&byte)) = (dist, out.last()) {
        out.resize(out.len() + len, byte);
    } else {
        // Each copy doubles the periodic span available at `start`.
        let mut left = len;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
}

/// Compression ratio (`original / compressed`) achieved by [`compress`].
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn ratio(data: &[u8]) -> f64 {
    assert!(!data.is_empty(), "ratio of empty input is undefined");
    data.len() as f64 / compress(data).len() as f64
}

// ---------------------------------------------------------------------------
// Framed chunked codec (parallel DEFLATE).
// ---------------------------------------------------------------------------

/// Magic prefix of a chunked frame.
///
/// `0x9F` has low bits `0b111` = BFINAL=1 + BTYPE=11 (reserved), a byte no
/// valid plain DEFLATE stream from this codec can start with (our
/// compressor opens with BTYPE 00 or 01), so frames are unambiguously
/// distinguishable from plain streams and [`decompress_framed`] can fall
/// back transparently.
pub const FRAME_MAGIC: [u8; 4] = [0x9F, b'N', b'D', b'F'];

/// Default chunk granularity for [`compress_chunked`]: one DEFLATE window.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Worker count for parallel codec paths: `NDPIPE_THREADS` if set (min 1),
/// else the machine's available parallelism.
pub fn configured_threads() -> usize {
    match std::env::var("NDPIPE_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Compresses `data` as independent DEFLATE members of `chunk_size` raw
/// bytes each, compressed in parallel across [`configured_threads`]
/// workers and wrapped in a self-describing frame.
///
/// Inputs of at most one chunk are emitted as a plain [`compress`] stream
/// (byte-compatible with the unframed codec). Because chunks are
/// compressed independently and concatenated in index order, the output
/// bytes are identical regardless of worker count.
///
/// # Panics
///
/// Panics if `chunk_size` is zero or `data` needs more than `u32::MAX`
/// chunks.
pub fn compress_chunked(data: &[u8], chunk_size: usize) -> Vec<u8> {
    compress_chunked_with(data, chunk_size, configured_threads())
}

/// [`compress_chunked`] with an explicit worker count.
pub fn compress_chunked_with(data: &[u8], chunk_size: usize, threads: usize) -> Vec<u8> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    if data.len() <= chunk_size {
        return compress(data);
    }
    let chunks: Vec<&[u8]> = data.chunks(chunk_size).collect();
    assert!(
        chunks.len() <= u32::MAX as usize,
        "too many chunks for frame directory"
    );
    let mut packed: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    let workers = threads.clamp(1, chunks.len());
    if workers == 1 {
        let mut c = Compressor::new();
        for (slot, chunk) in packed.iter_mut().zip(&chunks) {
            *slot = c.compress(chunk);
        }
    } else {
        // Bands of chunks run on the shared worker pool; each band
        // reuses one Compressor and writes its own output slots, so the
        // emitted bytes are identical regardless of worker count.
        let per = chunks.len().div_ceil(workers);
        let bands: Vec<std::sync::Mutex<(usize, &mut [Vec<u8>])>> = packed
            .chunks_mut(per)
            .enumerate()
            .map(|(i, band)| std::sync::Mutex::new((i * per, band)))
            .collect();
        tensor::pool::run(workers, bands.len(), &|t| {
            if let Some(slot) = bands.get(t) {
                let mut guard = slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let (lo, band) = &mut *guard;
                let band_chunks = &chunks[*lo..*lo + band.len()];
                let mut c = Compressor::new();
                for (out, chunk) in band.iter_mut().zip(band_chunks) {
                    *out = c.compress(chunk);
                }
            }
        })
        .unwrap_or_else(|e| panic!("chunked compression worker panicked: {e}"));
    }

    let payload: usize = packed.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(8 + chunks.len() * 8 + payload);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for (comp, raw) in packed.iter().zip(&chunks) {
        out.extend_from_slice(&(comp.len() as u32).to_le_bytes());
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    }
    for comp in &packed {
        out.extend_from_slice(comp);
    }
    out
}

/// Decompresses either a chunked frame (chunks inflated in parallel) or,
/// when the magic prefix is absent, a plain DEFLATE stream.
///
/// # Errors
///
/// Returns [`DeflateError::BadFrame`] if the frame directory is
/// inconsistent with the payload, or any [`DeflateError`] from inflating a
/// member stream.
pub fn decompress_framed(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    decompress_framed_with(data, configured_threads())
}

/// [`decompress_framed`] that never produces more than `cap` bytes, for
/// callers that know the expected size (a photo sidecar's `preproc_bytes`).
/// A plain stream decodes through [`decompress_capped`]; a frame whose
/// directory claims more than `cap` in total is refused before any member
/// inflates, and each member is capped at its own claim.
///
/// # Errors
///
/// [`DeflateError::OutputTooLarge`] when the output would pass `cap`,
/// otherwise the errors of [`decompress_framed`].
pub fn decompress_framed_capped(data: &[u8], cap: usize) -> Result<Vec<u8>, DeflateError> {
    inflate_framed(data, configured_threads(), cap)
}

/// Reads a little-endian u32 from the frame directory without panicking
/// on truncated input.
fn frame_u32(data: &[u8], at: usize) -> Result<u32, DeflateError> {
    let end = at.checked_add(4).ok_or(DeflateError::BadFrame)?;
    let b: [u8; 4] = data
        .get(at..end)
        .ok_or(DeflateError::BadFrame)?
        .try_into()
        .map_err(|_| DeflateError::BadFrame)?;
    Ok(u32::from_le_bytes(b))
}

/// [`decompress_framed`] with an explicit worker count.
pub fn decompress_framed_with(data: &[u8], threads: usize) -> Result<Vec<u8>, DeflateError> {
    inflate_framed(data, threads, usize::MAX)
}

/// The framed decoder behind [`decompress_framed_with`] and
/// [`decompress_framed_capped`].
fn inflate_framed(data: &[u8], threads: usize, cap: usize) -> Result<Vec<u8>, DeflateError> {
    if data.len() < 8 || !data.starts_with(&FRAME_MAGIC) {
        return decompress_capped(data, cap);
    }
    let count = frame_u32(data, 4)? as usize;
    let dir_end = 8usize
        .checked_add(count.checked_mul(8).ok_or(DeflateError::BadFrame)?)
        .ok_or(DeflateError::BadFrame)?;
    if data.len() < dir_end {
        return Err(DeflateError::BadFrame);
    }
    // Parse the directory into (payload offset, comp_len, raw_len).
    let mut entries = Vec::with_capacity(count);
    let mut offset = dir_end;
    for i in 0..count {
        let e = 8 + i * 8;
        let comp_len = frame_u32(data, e)? as usize;
        let raw_len = frame_u32(data, e + 4)? as usize;
        entries.push((offset, comp_len, raw_len));
        offset = offset.checked_add(comp_len).ok_or(DeflateError::BadFrame)?;
    }
    if offset != data.len() {
        return Err(DeflateError::BadFrame);
    }
    let claimed = entries
        .iter()
        .try_fold(0usize, |sum, &(_, _, raw_len)| sum.checked_add(raw_len))
        .ok_or(DeflateError::BadFrame)?;
    if claimed > cap {
        return Err(DeflateError::OutputTooLarge);
    }

    // A member may not inflate past its own claim: one that would has a
    // directory entry that lies, so it fails as BadFrame as soon as it
    // passes the claim instead of after decoding all of it.
    let inflate_one = |&(off, comp_len, raw_len): &(usize, usize, usize)| {
        let end = off.checked_add(comp_len).ok_or(DeflateError::BadFrame)?;
        let member = data.get(off..end).ok_or(DeflateError::BadFrame)?;
        let chunk = decompress_capped(member, raw_len).map_err(|e| match e {
            DeflateError::OutputTooLarge => DeflateError::BadFrame,
            e => e,
        })?;
        if chunk.len() != raw_len {
            return Err(DeflateError::BadFrame);
        }
        Ok(chunk)
    };

    let workers = threads.clamp(1, count.max(1));
    let mut results: Vec<Result<Vec<u8>, DeflateError>> = Vec::new();
    if workers <= 1 || count < 2 {
        results.extend(entries.iter().map(inflate_one));
    } else {
        results.resize_with(count, || Ok(Vec::new()));
        let per = count.div_ceil(workers);
        let run_result = {
            let bands: Vec<
                std::sync::Mutex<(
                    &mut [Result<Vec<u8>, DeflateError>],
                    &[(usize, usize, usize)],
                )>,
            > = results
                .chunks_mut(per)
                .zip(entries.chunks(per))
                .map(std::sync::Mutex::new)
                .collect();
            tensor::pool::run(workers, bands.len(), &|t| {
                if let Some(slot) = bands.get(t) {
                    let mut guard = slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let (band, band_entries) = &mut *guard;
                    for (out, entry) in band.iter_mut().zip(band_entries.iter()) {
                        *out = inflate_one(entry);
                    }
                }
            })
        };
        // A corrupt member surfaces as Err in its result slot; an actual
        // worker panic (engine bug) is contained by the pool to a typed
        // error instead of unwinding into the NPE pipeline.
        if run_result.is_err() {
            return Err(DeflateError::WorkerPanicked);
        }
    }

    // Size the output from chunks that decoded and passed their `raw_len`
    // check, never from the directory's claims.
    let chunks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let total = chunks
        .iter()
        .try_fold(0usize, |sum, c| sum.checked_add(c.len()))
        .ok_or(DeflateError::BadFrame)?;
    let mut out = Vec::with_capacity(total);
    for chunk in &chunks {
        out.extend_from_slice(chunk);
    }
    Ok(out)
}

/// A bit-serial decoder: one bit per Huffman step, one byte per
/// back-reference step. The oracle the tests hold the table-driven
/// [`decompress`] to.
#[cfg(test)]
mod reference {
    use super::{DeflateError, DIST_TABLE, LENGTH_TABLE};

    struct BitReader<'a> {
        input: &'a [u8],
        pos: usize,
        bit_buf: u32,
        bit_count: u32,
    }

    impl<'a> BitReader<'a> {
        fn new(input: &'a [u8]) -> Self {
            BitReader {
                input,
                pos: 0,
                bit_buf: 0,
                bit_count: 0,
            }
        }

        fn read_bits(&mut self, n: u32) -> Result<u32, DeflateError> {
            while self.bit_count < n {
                let byte = *self
                    .input
                    .get(self.pos)
                    .ok_or(DeflateError::UnexpectedEof)?;
                self.pos += 1;
                self.bit_buf |= (byte as u32) << self.bit_count;
                self.bit_count += 8;
            }
            let value = self.bit_buf & ((1u32 << n) - 1);
            self.bit_buf >>= n;
            self.bit_count -= n;
            Ok(value)
        }

        /// Reads one bit and appends it to `code` as the new LSB (codes are
        /// MSB-first on the wire).
        fn read_code_bit(&mut self, code: u32) -> Result<u32, DeflateError> {
            Ok((code << 1) | self.read_bits(1)?)
        }

        fn align_byte(&mut self) {
            self.bit_buf = 0;
            self.bit_count = 0;
        }

        fn read_u16_le(&mut self) -> Result<u16, DeflateError> {
            let raw = self.read_raw(2)?;
            match *raw {
                [lo, hi] => Ok(u16::from_le_bytes([lo, hi])),
                _ => Err(DeflateError::UnexpectedEof),
            }
        }

        fn read_raw(&mut self, n: usize) -> Result<&'a [u8], DeflateError> {
            let end = self.pos.checked_add(n).ok_or(DeflateError::UnexpectedEof)?;
            let s = self
                .input
                .get(self.pos..end)
                .ok_or(DeflateError::UnexpectedEof)?;
            self.pos = end;
            Ok(s)
        }
    }

    /// The decoder [`super::decompress`] must agree with, `Result` for
    /// `Result`.
    pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();
        loop {
            let bfinal = r.read_bits(1)?;
            let btype = r.read_bits(2)?;
            match btype {
                0b00 => {
                    r.align_byte();
                    let len = r.read_u16_le()? as usize;
                    let nlen = r.read_u16_le()?;
                    if !(len as u16) != nlen {
                        return Err(DeflateError::StoredLengthMismatch);
                    }
                    out.extend_from_slice(r.read_raw(len)?);
                }
                0b01 => decode_fixed_block(&mut r, &mut out)?,
                0b10 => return Err(DeflateError::DynamicHuffmanUnsupported),
                _ => return Err(DeflateError::ReservedBlockType),
            }
            if bfinal == 1 {
                return Ok(out);
            }
        }
    }

    fn decode_fixed_litlen(r: &mut BitReader<'_>) -> Result<usize, DeflateError> {
        // Canonical fixed code: 7-bit codes 0..=0x17 are 256..=279; extend to
        // 8 bits for 0x30..=0xBF (0..=143) and 0xC0..=0xC7 (280..=287); extend
        // to 9 bits for 0x190..=0x1FF (144..=255).
        let mut code = 0u32;
        for _ in 0..7 {
            code = r.read_code_bit(code)?;
        }
        if code <= 0x17 {
            return Ok(256 + code as usize);
        }
        code = r.read_code_bit(code)?;
        if (0x30..=0xBF).contains(&code) {
            return Ok(code as usize - 0x30);
        }
        if (0xC0..=0xC7).contains(&code) {
            return Ok(280 + code as usize - 0xC0);
        }
        code = r.read_code_bit(code)?;
        if (0x190..=0x1FF).contains(&code) {
            return Ok(144 + code as usize - 0x190);
        }
        Err(DeflateError::BadSymbol)
    }

    fn decode_fixed_block(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), DeflateError> {
        loop {
            let sym = decode_fixed_litlen(r)?;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => return Ok(()),
                257..=285 => {
                    let &(base, extra) =
                        LENGTH_TABLE.get(sym - 257).ok_or(DeflateError::BadSymbol)?;
                    let len = base as usize + r.read_bits(extra as u32)? as usize;
                    // Distance: 5-bit fixed code, MSB-first.
                    let mut dcode = 0u32;
                    for _ in 0..5 {
                        dcode = r.read_code_bit(dcode)?;
                    }
                    let &(dbase, dextra) = DIST_TABLE
                        .get(dcode as usize)
                        .ok_or(DeflateError::BadSymbol)?;
                    let dist = dbase as usize + r.read_bits(dextra as u32)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(DeflateError::BadDistance);
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = *out.get(start + k).ok_or(DeflateError::BadDistance)?;
                        out.push(b);
                    }
                }
                _ => return Err(DeflateError::BadSymbol),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::photo::preprocessed_binary;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn tiny_inputs() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"near-data processing ".repeat(500);
        roundtrip(&data);
        assert!(ratio(&data) > 10.0, "ratio {}", ratio(&data));
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
        // Perfectly periodic: should compress.
        assert!(ratio(&data) > 3.0);
    }

    #[test]
    fn random_data_falls_back_to_stored() {
        // Pseudo-random bytes are incompressible; output must stay within
        // the stored-block overhead bound.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 5 * 3 + 1, "len {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_runs_use_max_matches() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 1000, "run-length output {} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // "aaaa..." forces dist=1, len>1 overlapping copies.
        let data = vec![b'a'; 300];
        roundtrip(&data);
    }

    #[test]
    fn stored_block_roundtrip() {
        let data: Vec<u8> = (0..70_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let c = compress_stored(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello world hello world");
        let result = decompress(&c[..c.len() - 1]);
        // Either EOF or a bad symbol, but never a wrong answer or panic.
        assert!(result.is_err() || result.unwrap() != b"hello world hello world");
    }

    #[test]
    fn corrupt_stored_length_detected() {
        let mut c = compress_stored(b"abcdef");
        c[2] ^= 0xFF; // flip NLEN
        assert_eq!(decompress(&c), Err(DeflateError::StoredLengthMismatch));
    }

    #[test]
    fn dynamic_block_rejected() {
        // BFINAL=1, BTYPE=10 -> first byte 0b101 = 5.
        assert_eq!(
            decompress(&[0b101]),
            Err(DeflateError::DynamicHuffmanUnsupported)
        );
    }

    #[test]
    fn length_code_table_covers_all_lengths() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (sym, extra, bits) = length_to_code(len);
            assert!((257..=285).contains(&sym));
            let (base, eb) = LENGTH_TABLE[sym - 257];
            assert_eq!(eb, bits);
            assert_eq!(base as usize + extra as usize, len);
        }
    }

    #[test]
    fn dist_code_table_covers_window() {
        for dist in [1usize, 2, 3, 4, 5, 100, 1024, 8192, 32768] {
            let (sym, extra, _) = dist_to_code(dist);
            let (base, _) = DIST_TABLE[sym];
            assert_eq!(base as usize + extra as usize, dist);
        }
    }

    #[test]
    fn error_display() {
        assert!(DeflateError::BadDistance.to_string().contains("distance"));
    }

    #[test]
    fn reused_compressor_matches_free_function() {
        let mut c = Compressor::new();
        let inputs: Vec<Vec<u8>> = vec![
            b"near-data processing ".repeat(200),
            vec![b'a'; 300],
            (0..=255u8).cycle().take(4096).collect(),
            Vec::new(),
            b"xyz".to_vec(),
        ];
        for data in &inputs {
            // Same output on every reuse, identical to a fresh compressor.
            assert_eq!(c.compress(data), compress(data));
            assert_eq!(c.compress(data), Compressor::new().compress(data));
        }
    }

    #[test]
    fn chunked_small_input_is_plain_deflate() {
        let data = b"fits in one chunk".to_vec();
        let framed = compress_chunked_with(&data, DEFAULT_CHUNK_SIZE, 4);
        assert_eq!(
            framed,
            compress(&data),
            "single-chunk output must be unframed"
        );
        assert_eq!(decompress_framed(&framed).unwrap(), data);
    }

    #[test]
    fn chunked_roundtrip_multi_chunk() {
        let data: Vec<u8> = b"NDPipe offloads feature extraction to PipeStores. ".repeat(3000);
        for threads in [1, 2, 4] {
            let framed = compress_chunked_with(&data, 8 * 1024, threads);
            assert_eq!(framed[..4], FRAME_MAGIC);
            assert_eq!(
                decompress_framed_with(&framed, threads).unwrap(),
                data,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunked_output_is_thread_count_invariant() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 257) as u8).collect();
        let one = compress_chunked_with(&data, DEFAULT_CHUNK_SIZE, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                compress_chunked_with(&data, DEFAULT_CHUNK_SIZE, threads),
                one,
                "threads={threads}"
            );
        }
        assert_eq!(decompress_framed_with(&one, 4).unwrap(), data);
    }

    #[test]
    fn chunked_exact_boundary() {
        // Exactly 2 chunks, the second of full size.
        let data = vec![7u8; 2 * 1024];
        let framed = compress_chunked_with(&data, 1024, 2);
        assert_eq!(framed[..4], FRAME_MAGIC);
        assert_eq!(decompress_framed(&framed).unwrap(), data);
        // One byte over a chunk: 2 chunks, second is 1 byte.
        let data = vec![7u8; 1025];
        let framed = compress_chunked_with(&data, 1024, 2);
        assert_eq!(decompress_framed(&framed).unwrap(), data);
    }

    #[test]
    fn corrupt_frame_directory_detected() {
        let data = vec![42u8; 4096];
        let mut framed = compress_chunked_with(&data, 1024, 2);
        assert_eq!(framed[..4], FRAME_MAGIC);
        // Truncated payload.
        let cut = framed.len() - 3;
        assert!(decompress_framed(&framed[..cut]).is_err());
        // Inflate a chunk's claimed raw length.
        framed[8 + 4] ^= 0x01; // first directory entry's raw_len
        assert_eq!(decompress_framed(&framed), Err(DeflateError::BadFrame));
    }

    /// A frame of `count` copies of `member`, each claiming
    /// `raw_len = u32::MAX`: 274 GB for 64 members if the directory were
    /// trusted.
    fn frame_of_lying_members(count: u32, member: &[u8]) -> Vec<u8> {
        let mut frame = FRAME_MAGIC.to_vec();
        frame.extend_from_slice(&count.to_le_bytes());
        for _ in 0..count {
            frame.extend_from_slice(&(member.len() as u32).to_le_bytes());
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        for _ in 0..count {
            frame.extend_from_slice(member);
        }
        frame
    }

    #[test]
    fn frame_bomb_is_rejected_without_allocating_its_claims() {
        // The 584-byte frame that used to abort the process: the 1-byte
        // member 0x03 opens a fixed block and ends before its
        // end-of-block code.
        let truncated = frame_of_lying_members(64, &[0x03]);
        assert_eq!(truncated.len(), 584);
        // Each member a complete empty fixed block, so only the raw_len
        // check can reject it.
        let empty = frame_of_lying_members(64, &compress(&[]));
        assert_eq!(compress(&[]), [0x03, 0x00]);
        for threads in [1, 2] {
            assert_eq!(
                decompress_framed_with(&truncated, threads),
                Err(DeflateError::UnexpectedEof)
            );
            assert_eq!(
                decompress_framed_with(&empty, threads),
                Err(DeflateError::BadFrame)
            );
        }
    }

    #[test]
    fn maximal_match_stream_stops_at_its_cap() {
        // One literal, then length-258 distance-1 matches: ~160× expansion.
        let data = vec![0u8; 1 << 20];
        let stream = compress(&data);
        assert!(stream.len() * 150 < data.len(), "{} bytes", stream.len());
        for cap in [0, 1, 4096, data.len() - 1] {
            assert_eq!(
                decompress_capped(&stream, cap),
                Err(DeflateError::OutputTooLarge),
                "cap {cap}"
            );
        }
        assert_eq!(decompress_capped(&stream, data.len()).unwrap(), data);
        // So do literals and stored blocks.
        let text = b"the quick brown fox jumps over a lazy dog";
        let literals = compress(text);
        assert_eq!(literals[0] & 0b110, 0b010, "a fixed-Huffman block");
        assert_eq!(
            decompress_capped(&literals, text.len() - 1),
            Err(DeflateError::OutputTooLarge)
        );
        assert_eq!(decompress_capped(&literals, text.len()).unwrap(), text);
        let stored = compress_stored(&data[..1000]);
        assert_eq!(
            decompress_capped(&stored, 999),
            Err(DeflateError::OutputTooLarge)
        );
        assert_eq!(decompress_capped(&stored, 1000).unwrap(), &data[..1000]);
    }

    #[test]
    fn framed_cap_covers_plain_streams_claims_and_lying_members() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 7) as u8).collect();
        let framed = compress_chunked_with(&data, 64 * 1024, 2);
        assert!(framed.starts_with(&FRAME_MAGIC));
        assert_eq!(decompress_framed_capped(&framed, data.len()).unwrap(), data);
        assert_eq!(
            decompress_framed_capped(&framed, data.len() - 1),
            Err(DeflateError::OutputTooLarge),
            "directory claims past the cap"
        );
        let plain = compress(&data[..5000]);
        assert_eq!(
            decompress_framed_capped(&plain, 4999),
            Err(DeflateError::OutputTooLarge)
        );
        // A member that inflates past its directory claim is a lying frame.
        let mut liar = FRAME_MAGIC.to_vec();
        let member = compress(&vec![0u8; 1 << 20]);
        liar.extend_from_slice(&1u32.to_le_bytes());
        liar.extend_from_slice(&(member.len() as u32).to_le_bytes());
        liar.extend_from_slice(&10u32.to_le_bytes());
        liar.extend_from_slice(&member);
        assert_eq!(
            decompress_framed_capped(&liar, usize::MAX),
            Err(DeflateError::BadFrame)
        );
    }

    #[test]
    fn stored_block_after_fixed_block_realigns() {
        // A fixed block that ends mid-byte, then a stored block: the
        // decoder must hand back the bytes its word refill read ahead.
        let parts: [(bool, &[u8]); 3] = [(false, b"abcabcabc"), (true, b"xyz"), (false, b"q")];
        let stream = multi_block(&parts);
        assert_eq!(decompress(&stream).unwrap(), b"abcabcabcxyzq");
        assert_eq!(decompress(&stream), reference::decompress(&stream));
    }

    /// A stream of one block per part: stored when the flag is set, else
    /// fixed-Huffman. The compressor itself only ever emits one kind.
    fn multi_block(parts: &[(bool, &[u8])]) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut c = Compressor::new();
        for (i, &(stored, data)) in parts.iter().enumerate() {
            let last = i + 1 == parts.len();
            if stored {
                w.write_bits(last as u32, 1);
                w.write_bits(0b00, 2);
                w.align_byte();
                let len = data.len() as u16;
                w.out.extend_from_slice(&len.to_le_bytes());
                w.out.extend_from_slice(&(!len).to_le_bytes());
                w.out.extend_from_slice(data);
            } else {
                c.tokenize(data);
                c.write_fixed_block(&mut w, last);
            }
        }
        w.into_bytes()
    }

    /// Same input families as `tests/deflate_props.rs`.
    fn structured_inputs() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..2048),
            (any::<u8>(), 1usize..4096).prop_map(|(b, n)| vec![b; n]),
            (prop::collection::vec(any::<u8>(), 1..16), 1usize..256)
                .prop_map(|(phrase, reps)| phrase.repeat(reps)),
            (1usize..512, prop::collection::vec(any::<u8>(), 0..512)).prop_map(|(n, tail)| {
                let mut v = vec![0xAB; n];
                v.extend(tail);
                v
            }),
            (0usize..2048).prop_map(|n| (0..n).map(|i| (i % 251) as u8).collect()),
        ]
    }

    /// Asserts the table-driven decoder equals the bit-serial reference,
    /// `Result` for `Result`, on `stream`, on every truncation of it, and
    /// on the single-bit flip at each of `flips` (taken modulo the
    /// stream's bit length).
    fn assert_matches_reference(stream: &[u8], flips: &[usize]) -> Result<(), TestCaseError> {
        let agree = |s: &[u8], what: String| -> Result<(), TestCaseError> {
            let (got, want) = (decompress(s), reference::decompress(s));
            prop_assert!(
                got == want,
                "{what}: got {:?}, reference {:?}",
                got.as_ref().map(Vec::len),
                want.as_ref().map(Vec::len)
            );
            Ok(())
        };
        for cut in 0..=stream.len() {
            agree(&stream[..cut], format!("truncated to {cut} bytes"))?;
        }
        for &flip in flips {
            let bit = flip % (stream.len() * 8);
            let mut s = stream.to_vec();
            s[bit / 8] ^= 1 << (bit % 8);
            agree(&s, format!("bit {bit} flipped"))?;
        }
        Ok(())
    }

    fn flips() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(any::<usize>(), 1..32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn oracle_structured(data in structured_inputs(), flips in flips()) {
            assert_matches_reference(&compress(&data), &flips)?;
        }

        #[test]
        fn oracle_stored(data in prop::collection::vec(any::<u8>(), 0..2048), flips in flips()) {
            assert_matches_reference(&compress_stored(&data), &flips)?;
        }

        #[test]
        fn oracle_mixed_blocks(
            parts in prop::collection::vec(
                (any::<bool>(), prop::collection::vec(0u8..4, 0..300)),
                1..5,
            ),
            flips in flips(),
        ) {
            let parts: Vec<(bool, &[u8])> =
                parts.iter().map(|(stored, d)| (*stored, d.as_slice())).collect();
            assert_matches_reference(&multi_block(&parts), &flips)?;
        }
    }

    proptest! {
        // Every truncation of a 4-16 KiB sidecar is a few thousand decodes.
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn oracle_sidecars(bytes in 4096usize..=16384, seed in any::<u64>(), flips in flips()) {
            let bin = preprocessed_binary(bytes, &mut StdRng::seed_from_u64(seed));
            assert_matches_reference(&compress(&bin), &flips)?;
        }
    }

    #[test]
    fn plain_streams_pass_through_framed_decoder() {
        let data: Vec<u8> = b"legacy delta blob ".repeat(100);
        let plain = compress(&data);
        assert_eq!(decompress_framed(&plain).unwrap(), data);
        let stored = compress_stored(&data);
        assert_eq!(decompress_framed(&stored).unwrap(), data);
    }
}
