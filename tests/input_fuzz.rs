//! Seeded mutation fuzz of the two other decoders of untrusted input:
//! the btsnoop reader ([`btsnoop::parse`]) and the `--faults` grammar
//! ([`FaultPlan::parse`]). `snapshot_fuzz.rs` does the same for the
//! snapshot decoder.
//!
//! Each decoder must return `Ok` or `Err` on every input, never panic,
//! and every fault plan it accepts must stay in range: noise bands
//! inside the 79 RF channels, BERs and duties in range, and every
//! instant representable as a `SimTime`.

use std::panic::catch_unwind;

use btsim::core::{FaultKind, FaultPlan};
use btsim::kernel::{SimDuration, SimRng};
use btsim::trace::btsnoop;

mod snapshot_images;

/// Mutations per decoder.
const MUTATIONS: usize = 2_000;

/// Byte offsets of every record header in a well-formed capture.
fn record_offsets(image: &[u8]) -> Vec<usize> {
    let file = btsnoop::parse(image).expect("clean capture parses");
    let mut at = 16;
    file.records
        .iter()
        .map(|r| {
            let start = at;
            at += 24 + r.payload.len();
            start
        })
        .collect()
}

/// One seeded mutation of a btsnoop image, with a label.
fn mutate_capture(image: &[u8], records: &[usize], rng: &mut SimRng) -> (String, Vec<u8>) {
    let mut bytes = image.to_vec();
    let pos = rng.range_u64(bytes.len() as u64) as usize;
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
            // The original or included length of a random record.
            let rec = records[rng.range_u64(records.len() as u64) as usize];
            let field = rec + 4 * rng.range_u64(2) as usize;
            let len = [
                u32::MAX,
                u32::MAX / 2,
                bytes.len() as u32,
                rng.range_u64(1 << 12) as u32,
                0,
            ][rng.range_u64(5) as usize];
            bytes[field..field + 4].copy_from_slice(&len.to_be_bytes());
            (format!("smash length {len:#x} at {field}"), bytes)
        }
    }
}

#[test]
fn mutated_captures_parse_or_fail_never_panic() {
    let image = btsnoop::serialize_sink(snapshot_images::afh_capture().capture());
    let records = record_offsets(&image);
    assert!(
        records.len() > 10,
        "capture holds {} records",
        records.len()
    );
    let mut rng = SimRng::new(0xB75_0F22);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..MUTATIONS {
        let (what, bytes) = mutate_capture(&image, &records, &mut rng);
        match catch_unwind(|| btsnoop::parse(&bytes)) {
            Ok(Ok(_)) => accepted += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("btsnoop reader panicked on {what}"),
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted vs {rejected} rejected"
    );
}

/// Numbers the grammar must bound: zero, one past `u32::MAX`,
/// `u64::MAX`, past `u64`, negative and not a number.
const BOUNDARY_NUMBERS: [&str; 6] = [
    "0",
    "4294967296",
    "18446744073709551615",
    "1000000000000000000000000",
    "-1",
    "nan",
];

/// Characters a mutation inserts or substitutes: the grammar's own
/// punctuation, digits and a few letters of its keys.
const ALPHABET: &[u8] = b"@:;,=.-+e0123456789abdeilnortuvw_ ";

/// One seeded mutation of a fault spec.
fn mutate_spec(spec: &str, rng: &mut SimRng) -> String {
    let mut bytes = spec.as_bytes().to_vec();
    let pos = rng.range_u64(bytes.len() as u64) as usize;
    let ch = ALPHABET[rng.range_u64(ALPHABET.len() as u64) as usize];
    match rng.range_u64(4) {
        0 => {
            bytes.remove(pos);
        }
        1 => bytes.insert(pos, ch),
        2 => bytes[pos] = ch,
        _ => {
            // Replace the numeric token that holds `pos` (or the next
            // one after it) with a boundary value.
            let start = (pos..bytes.len())
                .find(|&i| bytes[i].is_ascii_digit())
                .unwrap_or(0);
            let end = (start..bytes.len())
                .find(|&i| !(bytes[i].is_ascii_digit() || bytes[i] == b'.'))
                .unwrap_or(bytes.len());
            let num = BOUNDARY_NUMBERS[rng.range_u64(BOUNDARY_NUMBERS.len() as u64) as usize];
            bytes.splice(start..end, num.bytes());
        }
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

/// Every range a parsed plan promises its consumers.
fn check_in_range(spec: &str, plan: &FaultPlan) {
    for ev in plan.events() {
        assert!(
            ev.at_slot.checked_mul(SimDuration::SLOT.ns()).is_some(),
            "`{spec}`: slot {} is past the last SimTime",
            ev.at_slot
        );
        match ev.kind {
            FaultKind::NoiseOn { lo, width, duty } => {
                assert!(
                    width > 0 && u16::from(lo) + u16::from(width) <= 79,
                    "`{spec}`: band {lo}+{width}"
                );
                assert!(duty > 0.0 && duty <= 1.0, "`{spec}`: duty {duty}");
            }
            FaultKind::NoiseOff { lo, width } => assert!(
                width > 0 && u16::from(lo) + u16::from(width) <= 79,
                "`{spec}`: band {lo}+{width}"
            ),
            FaultKind::Degrade { ber, ramp_slots } => {
                assert!((0.0..=1.0).contains(&ber), "`{spec}`: ber {ber}");
                assert!(
                    ramp_slots.checked_mul(SimDuration::SLOT.ns()).is_some(),
                    "`{spec}`: ramp {ramp_slots}"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn mutated_fault_specs_parse_in_range_or_fail_never_panic() {
    let spec = snapshot_images::DENSE_FLOOR_FAULTS;
    let mut rng = SimRng::new(0xFA17_F022);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..MUTATIONS {
        // Stack one to three mutations so some inputs drift far from
        // the valid spec.
        let mut input = spec.to_owned();
        for _ in 0..=rng.range_u64(3) {
            input = mutate_spec(&input, &mut rng);
        }
        match catch_unwind(|| FaultPlan::parse(&input)) {
            Ok(Ok(plan)) => {
                check_in_range(&input, &plan);
                accepted += 1;
            }
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("fault grammar panicked on `{input}`"),
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted vs {rejected} rejected"
    );
}
