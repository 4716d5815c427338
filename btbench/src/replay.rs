//! Layer replays for the traced run.
//!
//! The simulator is timed from outside, so a layer's cost is measured by
//! calling that layer's public functions on the inputs the traced run
//! recorded: the packet types and lengths, RF channels and times of the
//! captured air packets, the captured LMP PDUs, the noise BER points and
//! the calendar depth. Each replayed batch is one span.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use btsim_baseband::packet::{self, FhsPayload, Header, LinkKeys, Payload};
use btsim_baseband::{BdAddr, Llid, PacketType};
use btsim_channel::Medium;
use btsim_coding::{syncword, BitVec};
use btsim_kernel::{Calendar, SimDuration, SimRng, SimTime};
use btsim_lmp::Pdu;

use crate::spans::span;
use crate::workloads::{Counts, Sample};

/// The simulator runs `Medium::gc` once every this many calendar events.
pub const GC_EVERY_EVENTS: u64 = 8192;
/// Retention window the simulator passes to `Medium::gc`.
const GC_RETENTION: SimDuration = SimDuration::from_us(50_000);

/// Per-call costs measured by the replays.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// `Codec::encode` (or `encode_id`) per air packet, ns.
    pub encode_ns: f64,
    /// `packet::decode` per air packet, ns.
    pub decode_ns: f64,
    /// `Medium::begin_tx` + `receive` per air packet, ns.
    pub rx_ns: f64,
    /// `Medium::gc` per call, µs.
    pub gc_us: f64,
    /// Mean `Medium::live_count` when `gc` ran.
    pub live_count: f64,
    /// `Calendar::schedule` + `pop` per event at the workload's depth, ns.
    pub event_ns: f64,
    /// `SimRng::next_flip_gap` per draw, weighted over the BER points, ns.
    pub draw_ns: f64,
    /// `Pdu::decode` + `encode` per LMP PDU, ns.
    pub pdu_ns: f64,
    /// Air packets of the sample whose type could not be recovered.
    pub unknown_packets: usize,
}

/// Replays every layer on the traced run's recorded inputs.
pub fn replay(counts: &Counts, sample: &Sample, parent: u32) -> Replayed {
    let mut r = Replayed::default();
    coding(&sample.air, &mut r, parent);
    channel(&sample.air, sample, counts, &mut r, parent);
    calendar(counts.depth.round().max(1.0) as usize, &mut r, parent);
    rng(&counts.draws, &mut r, parent);
    lmp(&sample.lmp, &mut r, parent);
    r
}

/// What an air packet of a given length is: type, user bytes and the
/// FHS FEC flag. Lengths shared by two kinds keep the first one listed.
fn packet_kinds() -> HashMap<usize, (PacketType, usize, bool)> {
    let mut kinds = HashMap::new();
    let fixed = [
        (PacketType::Id, false),
        (PacketType::Null, false),
        (PacketType::Fhs, true),
        (PacketType::Fhs, false),
        (PacketType::Hv1, false),
    ];
    for (t, fec) in fixed {
        kinds
            .entry(packet::air_bits(t, 0, fec))
            .or_insert((t, 0, fec));
    }
    for t in [
        PacketType::Dh5,
        PacketType::Dm5,
        PacketType::Dh3,
        PacketType::Dm3,
        PacketType::Dh1,
        PacketType::Dm1,
        PacketType::Aux1,
    ] {
        for n in 0..=t.max_user_bytes() {
            kinds
                .entry(packet::air_bits(t, n, false))
                .or_insert((t, n, false));
        }
    }
    kinds
}

fn keys(fhs_fec: bool) -> LinkKeys {
    LinkKeys {
        lap: 0x2C_7F91,
        uap: 0x47,
        whiten: 0x15,
        sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
        fhs_fec,
    }
}

fn coding(air: &[btsim_kernel::CaptureRecord], r: &mut Replayed, parent: u32) {
    let kinds = packet_kinds();
    let inputs: Vec<(PacketType, Header, Payload, LinkKeys)> = air
        .iter()
        .filter_map(|rec| {
            let Some(&(ptype, n, fec)) = kinds.get(&rec.orig_bits) else {
                r.unknown_packets += 1;
                return None;
            };
            let header = Header {
                lt_addr: 1,
                ptype,
                flow: true,
                arqn: false,
                seqn: false,
            };
            let payload = match ptype {
                PacketType::Id | PacketType::Null | PacketType::Poll => Payload::None,
                PacketType::Fhs => Payload::Fhs(FhsPayload {
                    addr: BdAddr::new(0x1234, 0x47, 0x2C_7F91),
                    class_of_device: 0,
                    lt_addr: 1,
                    clk27_2: 0x1_2345,
                    page_scan_mode: 0,
                    sr: 0,
                    sp: 0,
                }),
                PacketType::Hv1 => Payload::Sco(vec![0x5A; 10]),
                _ => Payload::Acl {
                    llid: Llid::Start,
                    flow: true,
                    data: vec![0x5A; n],
                },
            };
            Some((ptype, header, payload, keys(fec)))
        })
        .collect();
    if inputs.is_empty() {
        return;
    }
    let mut codec = packet::Codec::new();
    let started = Instant::now();
    let images: Vec<BitVec> = span("coding.Codec::encode", parent, inputs.len() as u64, |_| {
        inputs
            .iter()
            .map(|(ptype, header, payload, keys)| match ptype {
                PacketType::Id => codec.encode_id(keys.lap),
                _ => codec.encode(keys, header, payload),
            })
            .collect()
    });
    r.encode_ns = started.elapsed().as_nanos() as f64 / inputs.len() as f64;
    let started = Instant::now();
    span("coding.packet::decode", parent, images.len() as u64, |_| {
        for (image, (_, _, _, keys)) in images.iter().zip(&inputs) {
            black_box(packet::decode(image, None, keys).ok());
        }
    });
    r.decode_ns = started.elapsed().as_nanos() as f64 / images.len() as f64;
}

fn channel(
    air: &[btsim_kernel::CaptureRecord],
    sample: &Sample,
    counts: &Counts,
    r: &mut Replayed,
    parent: u32,
) {
    let Some(cfg) = sample.channel.clone() else {
        return;
    };
    if air.is_empty() {
        return;
    }
    // The simulator's ratio of transmissions to gc calls.
    let gc_calls = (counts.events / GC_EVERY_EVENTS).max(1);
    let tx_per_gc = (counts.air_tx / gc_calls).max(1) as usize;
    let images: Vec<BitVec> = air
        .iter()
        .map(|rec| BitVec::from_fn(rec.orig_bits, |i| i % 3 == 0))
        .collect();
    let (mut tx_ns, mut gc_ns, mut gcs, mut live) = (0u128, 0u128, 0u64, 0usize);
    span(
        "channel.Medium::begin_tx+receive",
        parent,
        air.len() as u64,
        |id| {
            let mut medium = None;
            let mut last = SimTime::ZERO;
            for (i, (rec, bits)) in air.iter().zip(images).enumerate() {
                // Records of separate simulators restart their clocks.
                if medium.is_none() || rec.at < last {
                    let mut m = Medium::new(cfg.clone(), SimRng::new(7));
                    if cfg.spatial.is_some() {
                        for (dev, pos) in sample.positions.iter().enumerate() {
                            m.register_radio(dev, *pos, dev as u64);
                        }
                    }
                    medium = Some(m);
                }
                last = rec.at;
                let m = medium.as_mut().expect("created above");
                let t = Instant::now();
                let tx = m.begin_tx(rec.device, rec.channel, rec.at, bits);
                black_box(m.receive(tx));
                tx_ns += t.elapsed().as_nanos();
                if (i + 1) % tx_per_gc == 0 || (gcs == 0 && i + 1 == air.len()) {
                    live += m.live_count();
                    let t = Instant::now();
                    span("channel.Medium::gc", id, 1, |_| m.gc(rec.at, GC_RETENTION));
                    gc_ns += t.elapsed().as_nanos();
                    gcs += 1;
                }
            }
        },
    );
    r.rx_ns = tx_ns as f64 / air.len() as f64;
    r.gc_us = gc_ns as f64 / gcs as f64 / 1e3;
    r.live_count = live as f64 / gcs as f64;
}

fn calendar(depth: usize, r: &mut Replayed, parent: u32) {
    const EVENTS: usize = 200_000;
    let mut cal = Calendar::new();
    let period = SimDuration::from_ns(312_500 * depth as u64);
    for i in 0..depth {
        cal.schedule(SimTime::from_ns(312_500 * i as u64), i as u32);
    }
    let started = Instant::now();
    span(
        "kernel.Calendar::schedule+pop",
        parent,
        EVENTS as u64,
        |_| {
            for _ in 0..EVENTS {
                let (t, e) = cal.pop().expect("the calendar stays at its depth");
                cal.schedule(t + period, black_box(e));
            }
        },
    );
    r.event_ns = started.elapsed().as_nanos() as f64 / EVENTS as f64;
}

fn rng(draws: &[(f64, u64)], r: &mut Replayed, parent: u32) {
    const DRAWS: usize = 200_000;
    let total: u64 = draws.iter().map(|(_, n)| n).sum();
    let mut weighted = 0.0;
    let mut rng = SimRng::new(11);
    for &(ber, n) in draws {
        let started = Instant::now();
        span("kernel.SimRng::next_flip_gap", parent, DRAWS as u64, |_| {
            for _ in 0..DRAWS {
                black_box(rng.next_flip_gap(black_box(ber)));
            }
        });
        let ns = started.elapsed().as_nanos() as f64 / DRAWS as f64;
        weighted += ns * n as f64 / total.max(1) as f64;
    }
    r.draw_ns = weighted;
}

fn lmp(pdus: &[Vec<u8>], r: &mut Replayed, parent: u32) {
    if pdus.is_empty() {
        return;
    }
    let started = Instant::now();
    span("lmp.Pdu::decode+encode", parent, pdus.len() as u64, |_| {
        for bytes in pdus {
            if let Some((pdu, tid)) = Pdu::decode(bytes) {
                black_box(pdu.encode(tid));
            }
        }
    });
    r.pdu_ns = started.elapsed().as_nanos() as f64 / pdus.len() as f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_lengths_map_back_to_their_type() {
        let kinds = packet_kinds();
        let dh5 = packet::air_bits(PacketType::Dh5, 339, false);
        assert_eq!(kinds[&dh5], (PacketType::Dh5, 339, false));
        let id = packet::air_bits(PacketType::Id, 0, false);
        assert_eq!(kinds[&id].0, PacketType::Id);
    }
}
