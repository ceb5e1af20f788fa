//! Property tests of the DEFLATE codec over adversarial input families.

use ndpipe_data::deflate::{
    compress, compress_chunked_with, compress_stored, decompress, decompress_framed_with,
    Compressor, FRAME_MAGIC,
};
use proptest::prelude::*;

/// Input families that stress different codec paths.
fn structured_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes.
        prop::collection::vec(any::<u8>(), 0..2048),
        // Long runs (RLE path / overlapping matches).
        (any::<u8>(), 1usize..4096).prop_map(|(b, n)| vec![b; n]),
        // Repeated short phrases (dictionary matches).
        (prop::collection::vec(any::<u8>(), 1..16), 1usize..256)
            .prop_map(|(phrase, reps)| phrase.repeat(reps)),
        // Two-phase data: compressible prefix + random tail.
        (1usize..512, prop::collection::vec(any::<u8>(), 0..512)).prop_map(|(n, tail)| {
            let mut v = vec![0xAB; n];
            v.extend(tail);
            v
        }),
        // Ascending counters (few matches, many distinct literals).
        (0usize..2048).prop_map(|n| (0..n).map(|i| (i % 251) as u8).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every input family round-trips exactly.
    #[test]
    fn roundtrip_structured(data in structured_inputs()) {
        let packed = compress(&data);
        prop_assert_eq!(decompress(&packed).expect("valid"), data);
    }

    /// Stored-block encoding also round-trips (the fallback path).
    #[test]
    fn roundtrip_stored(data in prop::collection::vec(any::<u8>(), 0..70_000)) {
        let packed = compress_stored(&data);
        prop_assert_eq!(decompress(&packed).expect("valid"), data);
    }

    /// Decompressing arbitrary garbage never panics — it either errors
    /// or produces some bytes, but must not crash. Nor do bit flips of a
    /// valid stream, which reach past the block header into the symbol,
    /// length and distance decoding that garbage rarely gets to.
    #[test]
    fn decompress_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        valid in structured_inputs(),
        flips in prop::collection::vec(any::<usize>(), 1..16),
    ) {
        let _ = decompress(&garbage);
        let mut packed = compress(&valid);
        for flip in flips {
            let bit = flip % (packed.len() * 8);
            packed[bit / 8] ^= 1 << (bit % 8);
            let _ = decompress(&packed);
        }
    }

    /// Compression is deterministic.
    #[test]
    fn deterministic(data in prop::collection::vec(any::<u8>(), 0..1024)) {
        prop_assert_eq!(compress(&data), compress(&data));
    }

    /// Truncating a valid stream never yields the original data.
    #[test]
    fn truncation_detected(data in prop::collection::vec(any::<u8>(), 8..512), cut in 1usize..8) {
        let packed = compress(&data);
        prop_assume!(packed.len() > cut);
        let truncated = &packed[..packed.len() - cut];
        match decompress(truncated) {
            Err(_) => {}
            Ok(out) => prop_assert_ne!(out, data),
        }
    }

    /// Framed chunked codec round-trips across chunk sizes and thread
    /// counts, including the empty, single-chunk, and exact-boundary
    /// cases; the bytes are invariant to the worker count.
    #[test]
    fn framed_roundtrip(
        data in structured_inputs(),
        chunk_exp in 6u32..12, // chunk sizes 64..2048 bytes
        threads in 1usize..5,
    ) {
        let chunk_size = 1usize << chunk_exp;
        let framed = compress_chunked_with(&data, chunk_size, threads);
        // Thread-count invariance.
        prop_assert_eq!(&framed, &compress_chunked_with(&data, chunk_size, 1));
        // Single-chunk inputs must stay byte-compatible with plain deflate.
        if data.len() <= chunk_size {
            prop_assert_eq!(&framed, &compress(&data));
        } else {
            prop_assert_eq!(&framed[..4], &FRAME_MAGIC[..]);
        }
        prop_assert_eq!(decompress_framed_with(&framed, threads).expect("valid"), data);
    }

    /// Chunk-boundary lengths (n*chunk - 1, n*chunk, n*chunk + 1) all
    /// round-trip through the framed codec.
    #[test]
    fn framed_boundary_lengths(chunks in 1usize..5, delta in 0usize..3, fill in any::<u8>()) {
        let chunk_size = 256usize;
        let len = (chunks * chunk_size + delta).saturating_sub(1);
        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add((i % 7) as u8)).collect();
        let framed = compress_chunked_with(&data, chunk_size, 3);
        prop_assert_eq!(decompress_framed_with(&framed, 3).expect("valid"), data);
    }

    /// A reused compressor emits the same bytes as a fresh one for every
    /// input in a sequence (the epoch-tagged scratch never leaks state).
    #[test]
    fn reused_compressor_is_stateless(
        inputs in prop::collection::vec(structured_inputs(), 1..6)
    ) {
        let mut shared = Compressor::new();
        for data in &inputs {
            prop_assert_eq!(shared.compress(data), Compressor::new().compress(data));
        }
    }

    /// Framed decoding of arbitrary garbage (magic-prefixed or not) never
    /// panics.
    #[test]
    fn framed_decode_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decompress_framed_with(&garbage, 2);
        let mut tagged = garbage.clone();
        if tagged.len() >= 4 {
            tagged[..4].copy_from_slice(&FRAME_MAGIC);
            let _ = decompress_framed_with(&tagged, 2);
        }
    }
}
