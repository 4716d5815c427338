//! Seeded byte-mutation fuzz of the snapshot decoder.
//!
//! Every pinned image of `snapshot_images` is mutated at a few hundred
//! seeded positions each — bit flips, byte overwrites, truncations and
//! smashed 8-byte length fields — and fed to
//! [`SimSnapshot::from_bytes`]. Decoding is total: each input must come
//! back `Ok` or as a typed `SnapshotError`, never as a panic.

use std::panic::catch_unwind;

use btsim::core::SimSnapshot;
use btsim::kernel::SimRng;

mod snapshot_images;

/// Mutations per image; the images together see a few thousand.
const MUTATIONS: usize = 400;

/// One seeded mutation of `image`, with a label for failure reports.
fn mutate(image: &[u8], rng: &mut SimRng) -> (String, Vec<u8>) {
    let mut bytes = image.to_vec();
    // Header (magic + version) mutations are covered by the unit tests;
    // aim at the state tree behind it.
    let pos = 8 + rng.range_u64((bytes.len() - 8) as u64) as usize;
    match rng.range_u64(4) {
        0 => {
            let bit = rng.range_u64(8);
            bytes[pos] ^= 1 << bit;
            (format!("flip bit {bit} at {pos}"), bytes)
        }
        1 => {
            let v = rng.range_u64(256) as u8;
            bytes[pos] = v;
            (format!("set byte {pos} to {v:#04x}"), bytes)
        }
        2 => {
            bytes.truncate(pos);
            (format!("truncate at {pos}"), bytes)
        }
        _ => {
            let len = [
                u64::MAX,
                u64::MAX / 2,
                1 << 32,
                bytes.len() as u64,
                rng.range_u64(1 << 16),
                0,
            ][rng.range_u64(6) as usize];
            let end = (pos + 8).min(bytes.len());
            bytes[pos..end].copy_from_slice(&len.to_le_bytes()[..end - pos]);
            (format!("smash length {len:#x} at {pos}"), bytes)
        }
    }
}

#[test]
fn mutated_images_decode_or_fail_typed_never_panic() {
    let mut rng = SimRng::new(0x5EED_F022);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for (name, image) in snapshot_images::images() {
        for _ in 0..MUTATIONS {
            let (what, bytes) = mutate(&image, &mut rng);
            match catch_unwind(|| SimSnapshot::from_bytes(&bytes)) {
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("{name}: decoder panicked on {what}"),
            }
        }
    }
    // Many mutations land in free-valued fields (payload bytes, counters,
    // f64 state) and decode to another valid state; a quarter or more
    // must still reach a check, or the fuzz is not exercising the decoder.
    assert!(
        rejected * 4 >= rejected + accepted,
        "{rejected} rejected vs {accepted} accepted"
    );
}
