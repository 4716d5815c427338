//! Fixed-seed simulators whose snapshot images pin the wire format
//! (`docs/SNAPSHOT.md`). Shared by the pin tests in
//! `snapshot_equivalence.rs` and the decoder fuzzes in `snapshot_fuzz.rs`
//! and `input_fuzz.rs`.
//!
//! Which image reaches which snapshotted types:
//!
//! * `inquiry` — inquiry at BER 0.004, bit tier, lockstep, stopped
//!   mid-procedure: `InquiryCtx`, `InquiryScanCtx`, `ProcState`,
//!   `LifePhase`, `Ev::Tick`, inquiry `LcEvent`s.
//! * `page` — page at BER 0.004, bit tier, lockstep, stopped
//!   mid-procedure: `PageCtx`/`PageSub`, `PageScanCtx`/`PageScanSub`,
//!   `LcConfig`, `Clock`, `SimRng`, `Transmission`, `BitVec`,
//!   `ErrorModel`, `Fidelity`, `Engine`, `Medium`, `Radio`,
//!   `ChannelConfig`, `TxStats`, `ChannelQuality`, `ActiveWindow`.
//! * `acl_saturated` — a saturated ACL link mid-run on the event
//!   engine at the stat tier: `MasterCtx`, `SlaveSlot`, `SlaveCtx`,
//!   `LinkState`, `TxBuffer`/`TxMessage`, `Llid`, `PacketType`,
//!   `Ev::{Wake, TxStart, Deliver, WindowOpen, WindowClose}`,
//!   `PendingWindow`, `LoggedEvent`, `DeviceCell`, `Core`, `PowerMonitor`/
//!   `DeviceAccount`/`PhaseTotals`, the stat-tier counters.
//! * `power_modes` — one master with sniff, hold, park and SCO slaves,
//!   the last two negotiated over LMP and still in flight, plus one
//!   queued command of every `LcCommand` variant: `SniffParams`,
//!   `ScoParams`, `LinkMode`, `LinkManager`, `LmRole`, `Outstanding`,
//!   `PendingMode`, `Pdu`, `Opcode`, `LmEvent`, `LoggedLmEvent`,
//!   `Ev::Command`, `ChannelMap`, `BdAddr`.
//! * `afh_capture` — an AFH classification exchange under a WLAN
//!   interferer with packet capture, waveform tracing and a metrics
//!   stream on: `ChannelAssessment`, `Interferer`, `CaptureSink`/
//!   `CaptureRecord`/`CaptureDir`/`CaptureKind`, `TraceRecorder`/
//!   `TraceRecord`/`TraceValue`/`SignalInfo`/`SignalRef`, `Wire`,
//!   `MetricsStream`. The stream's period is longer than the run, so
//!   its buffer holds no line (each line carries a wall-clock
//!   heartbeat, which no pin can hold); the `metrics` image pins
//!   `MetricsSnapshot` on its own instead.
//! * `dense_floor_faulted` — a sharded spatial floor split mid-outage
//!   under a fault plan of every kind: `Position`, `SpatialConfig`,
//!   `Degrade`, several cores with their device maps and `MergedLogs`,
//!   `FaultPlan`/`FaultEvent`/`FaultKind`, `Ev::Fault`.

#![allow(dead_code)]

use btsim::baseband::hop::ChannelMap;
use btsim::baseband::{BdAddr, LcCommand, LcEvent, PacketType, ScoParams, SniffParams};
use btsim::core::net::{DenseFloorConfig, DenseFloorScenario};
use btsim::core::scenario::{paper_config, Scenario};
use btsim::core::{AfhConfig, Engine, FaultPlan, Fidelity, SimBuilder, SimConfig, Simulator};
use btsim::kernel::{SimDuration, SimTime, Snap, SnapWriter};

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cfg(engine: Engine, fidelity: Fidelity, ber: f64) -> SimConfig {
    let mut cfg = paper_config();
    cfg.engine = engine;
    cfg.fidelity = fidelity;
    cfg.channel.ber = ber;
    cfg
}

fn run_slots(sim: &mut Simulator, slots: u64) {
    sim.run_until(sim.now() + SimDuration::from_slots(slots));
}

/// Pages `slave` from device 0 with an exact clock estimate; returns
/// its LT_ADDR once the link has settled.
fn connect(sim: &mut Simulator, slave: usize) -> u8 {
    let offset = sim
        .lc(0)
        .clkn(SimTime::ZERO)
        .offset_to(sim.lc(slave).clkn(SimTime::ZERO));
    let target = sim.lc(slave).addr();
    sim.command(slave, LcCommand::PageScan);
    sim.command(
        0,
        LcCommand::Page {
            target,
            clke_offset: offset,
            timeout_slots: 0,
        },
    );
    let cap = sim.now() + SimDuration::from_slots(200_000);
    let done = sim
        .run_until_event(cap, |e| {
            e.device == slave && matches!(e.event, LcEvent::Connected { .. })
        })
        .expect("pinned pair connects");
    sim.run_until(done.at + SimDuration::from_slots(4));
    sim.lc(0)
        .connected_slaves()
        .iter()
        .find(|(_, addr)| *addr == target)
        .map(|(lt, _)| *lt)
        .expect("slave is listed by its master")
}

fn connected_master(seed: u64, cfg: SimConfig, slaves: usize) -> (Simulator, Vec<u8>) {
    let mut b = SimBuilder::new(seed, cfg);
    b.add_device("master");
    for i in 0..slaves {
        b.add_device(&format!("slave{}", i + 1));
    }
    let mut sim = b.build();
    let lts = (1..=slaves).map(|s| connect(&mut sim, s)).collect();
    (sim, lts)
}

/// Inquiry, bit tier, lockstep, stopped mid-procedure.
pub fn inquiry() -> Simulator {
    let mut b = SimBuilder::new(3, cfg(Engine::Lockstep, Fidelity::Bit, 0.004));
    b.add_device("master");
    b.add_device("slave1");
    b.add_device("slave2");
    let mut sim = b.build();
    sim.command(1, LcCommand::InquiryScan);
    sim.command(2, LcCommand::InquiryScan);
    sim.command(
        0,
        LcCommand::Inquiry {
            num_responses: 2,
            timeout_slots: 0,
        },
    );
    run_slots(&mut sim, 1_200);
    sim
}

/// Page, bit tier, lockstep, stopped mid-procedure.
pub fn page() -> Simulator {
    let mut b = SimBuilder::new(4, cfg(Engine::Lockstep, Fidelity::Bit, 0.004));
    b.add_device("master");
    b.add_device("slave1");
    let mut sim = b.build();
    let offset = sim
        .lc(0)
        .clkn(SimTime::ZERO)
        .offset_to(sim.lc(1).clkn(SimTime::ZERO));
    let target = sim.lc(1).addr();
    sim.command(1, LcCommand::PageScan);
    sim.command(
        0,
        LcCommand::Page {
            target,
            clke_offset: offset,
            timeout_slots: 0,
        },
    );
    run_slots(&mut sim, 9);
    sim
}

/// A saturated ACL link mid-run, event engine, stat tier.
pub fn acl_saturated() -> Simulator {
    let (mut sim, lts) = connected_master(5, cfg(Engine::EventDriven, Fidelity::Stat, 0.002), 1);
    sim.command(0, LcCommand::SetAclType(PacketType::Dh3));
    sim.command(0, LcCommand::SetTpoll(2));
    sim.command(
        0,
        LcCommand::AclData {
            lt_addr: lts[0],
            data: vec![0xA5; 40_000],
        },
    );
    sim.command(
        1,
        LcCommand::AclData {
            lt_addr: lts[0],
            data: vec![0x5A; 3_000],
        },
    );
    run_slots(&mut sim, 1_500);
    sim
}

/// One queued command of every `LcCommand` variant, far past the
/// snapshot instant, so each variant's layout is in the image.
fn every_command(sim: &mut Simulator, dev: usize) -> usize {
    let at = sim.now() + SimDuration::from_slots(1_000_000);
    let addr = BdAddr::new(0x12, 0x34, 0x56_789A);
    let map = ChannelMap::blocking(20..40);
    let cmds = vec![
        LcCommand::Inquiry {
            num_responses: 3,
            timeout_slots: 4_096,
        },
        LcCommand::InquiryScan,
        LcCommand::Page {
            target: addr,
            clke_offset: 77,
            timeout_slots: 8_192,
        },
        LcCommand::PageScan,
        LcCommand::AbortProcedure,
        LcCommand::AclData {
            lt_addr: 1,
            data: vec![1, 2, 3],
        },
        LcCommand::Lmp {
            lt_addr: 2,
            data: vec![4, 5],
        },
        LcCommand::SetAclType(PacketType::Dm5),
        LcCommand::SetTpoll(40),
        LcCommand::SetAfh(map.clone()),
        LcCommand::SetAfhAt {
            map,
            at_slot: 123_456,
        },
        LcCommand::CancelAfhSwitch,
        LcCommand::ScoSetup {
            lt_addr: 3,
            params: ScoParams::for_type(PacketType::Hv2, 4),
        },
        LcCommand::ScoRemove { lt_addr: 3 },
        LcCommand::ScoData {
            lt_addr: 3,
            data: vec![9; 20],
        },
        LcCommand::Sniff {
            lt_addr: 1,
            params: SniffParams {
                t_sniff: 50,
                n_attempt: 2,
                d_sniff: 6,
                n_timeout: 1,
            },
        },
        LcCommand::Unsniff { lt_addr: 1 },
        LcCommand::Hold {
            lt_addr: 2,
            hold_slots: 300,
        },
        LcCommand::HoldPiconet {
            master: addr,
            hold_slots: 200,
        },
        LcCommand::AclDataTo {
            master: addr,
            data: vec![7; 5],
        },
        LcCommand::Park {
            lt_addr: 2,
            beacon_interval: 100,
        },
        LcCommand::Unpark { lt_addr: 2 },
        LcCommand::Detach { lt_addr: 4 },
        LcCommand::SetSupervisionTimeout {
            timeout_slots: 3_200,
        },
        LcCommand::PowerOff,
    ];
    let n = cmds.len();
    for cmd in cmds {
        sim.command_at(dev, cmd, at);
    }
    n
}

/// Sniff, hold, park and SCO slaves of one master, mid-run.
pub fn power_modes() -> Simulator {
    let (mut sim, lts) = connected_master(6, cfg(Engine::Lockstep, Fidelity::Bit, 0.0), 4);
    for lt in &lts {
        sim.lm_request(0, |lm, slot| lm.start_setup(*lt, slot));
    }
    run_slots(&mut sim, 300);
    let sniff = SniffParams {
        t_sniff: 60,
        n_attempt: 1,
        d_sniff: 0,
        n_timeout: 0,
    };
    let sco = ScoParams::for_type(PacketType::Hv3, 2);
    sim.lm_request(0, |lm, slot| lm.request_sniff(lts[0], sniff, slot));
    sim.lm_request(0, |lm, slot| lm.request_hold(lts[1], 4_000, slot));
    sim.lm_request(0, |lm, slot| lm.request_park(lts[2], 200, slot));
    sim.lm_request(0, |lm, slot| lm.request_sco(lts[3], sco, slot));
    run_slots(&mut sim, 600);
    for dev in [0, 4] {
        sim.command(
            dev,
            LcCommand::ScoData {
                lt_addr: lts[3],
                data: vec![0x3C; 300],
            },
        );
    }
    run_slots(&mut sim, 200);
    sim.lm_request(0, |lm, slot| lm.request_unsniff(lts[0], slot));
    run_slots(&mut sim, 9);
    every_command(&mut sim, 4);
    sim
}

/// AFH classification exchange with capture, trace and metrics on.
pub fn afh_capture() -> Simulator {
    let mut cfg = cfg(Engine::Lockstep, Fidelity::Bit, 0.0);
    cfg.trace = true;
    cfg.capture = true;
    cfg.metrics_every = Some(1_000_000);
    cfg.afh = AfhConfig {
        enabled: true,
        assess_slots: 600,
        ..AfhConfig::default()
    };
    cfg.channel
        .interferers
        .push(btsim::channel::Interferer::wlan(40, 0.6));
    let afh = cfg.afh;
    let (mut sim, lts) = connected_master(7, cfg, 1);
    let (master, slave, lt) = (0, 1, lts[0]);
    sim.command(master, LcCommand::SetTpoll(2));
    sim.command(
        master,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0xD7; 30_000],
        },
    );
    run_slots(&mut sim, afh.assess_slots);
    let map = sim
        .lc(slave)
        .channel_assessment()
        .proposed_map(afh.min_samples, afh.bad_threshold);
    sim.lm_request(slave, |lm, _| {
        lm.send_channel_classification(lt, map.clone())
    });
    sim.lm_request(master, |lm, slot| lm.request_set_afh(lt, map, slot));
    run_slots(&mut sim, 7);
    sim
}

/// The `dense_floor_faulted` fault plan: one event of every kind.
pub const DENSE_FLOOR_FAULTS: &str =
    "noise_on@2100:lo=10,width=8,duty=0.6;crash@2300:dev=1;mute@2350:dev=2;\
     degrade@2400:dev=3,ber=0.02,ramp=300;drift@2450:dev=4,ticks=5;\
     revive@3600:dev=1;unmute@3700:dev=2;heal@3800:dev=3;noise_off@3900:lo=10,width=8";

/// A sharded, faulted spatial floor split mid-outage.
pub fn dense_floor_faulted() -> Simulator {
    let mut cfg = DenseFloorConfig {
        grid: (2, 2),
        measure_slots: 1_500,
        ..DenseFloorConfig::default()
    };
    cfg.sim.shards = 4;
    cfg.sim.faults = FaultPlan::parse(DENSE_FLOOR_FAULTS).expect("fault spec parses");
    let scenario = DenseFloorScenario::new(cfg);
    let mut sim = scenario.build(29);
    scenario.prepare(&mut sim).expect("floor forms");
    run_slots(&mut sim, 2_500);
    sim
}

/// Every pinned simulator, by name.
pub fn sims() -> Vec<(&'static str, Simulator)> {
    vec![
        ("inquiry", inquiry()),
        ("page", page()),
        ("acl_saturated", acl_saturated()),
        ("power_modes", power_modes()),
        ("afh_capture", afh_capture()),
        ("dense_floor_faulted", dense_floor_faulted()),
    ]
}

/// Every pinned simulator image, by name.
pub fn images() -> Vec<(&'static str, Vec<u8>)> {
    sims()
        .into_iter()
        .map(|(name, sim)| (name, sim.snapshot().to_bytes()))
        .collect()
}

/// 64-bit FNV-1a over a simulator's public state: clock, medium
/// counters, measured BER bits, RNG positions, dispatched steps,
/// applied faults, and per device its LC and LM log entries and power
/// ledger. The logs are projected per device, so the digest does not
/// depend on how a sharded run orders different devices' events at a
/// shared instant. Unlike the image pins it holds across any change
/// of the wire format.
pub fn state_digest(sim: &Simulator) -> u64 {
    use std::fmt::Write;
    let mut s = format!(
        "now={:?} tx={:?} ber={:#x} rng={:#x} steps={} faults={}",
        sim.now(),
        sim.tx_stats(),
        sim.measured_ber().to_bits(),
        sim.rng_fingerprint(),
        sim.steps_total(),
        sim.faults_applied(),
    );
    for d in 0..sim.device_count() {
        let events: Vec<_> = sim.events().iter().filter(|e| e.device == d).collect();
        let lm: Vec<_> = sim.lm_events().iter().filter(|e| e.device == d).collect();
        write!(
            s,
            "\ndev{d}: events={events:?} lm={lm:?} power={:?}",
            sim.power_report(d)
        )
        .expect("string write");
    }
    fnv1a(s.as_bytes())
}

/// The `MetricsSnapshot` wire form of the `afh_capture` simulator.
pub fn metrics() -> Vec<u8> {
    let mut w = SnapWriter::new();
    afh_capture().metrics_snapshot().snap(&mut w);
    w.into_bytes()
}
