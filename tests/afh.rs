//! End-to-end tests of the AFH loop: channel assessment →
//! `LMP_channel_classification` → `LMP_set_AFH` → synchronized hop
//! remapping, and its interplay with the event-driven engine.

use btsim::baseband::hop::ChannelMap;
use btsim::baseband::{LcCommand, LcEvent, SniffParams};
use btsim::channel::Interferer;
use btsim::core::scenario::{
    connect_pair, paper_config, AfhAdaptConfig, AfhAdaptScenario, Scenario,
};
use btsim::core::{AfhConfig, Engine, SimBuilder, SimConfig, Simulator};
use btsim::kernel::{SimDuration, SimTime};
use btsim::lmp::LmEvent;

const WLAN: Interferer = Interferer {
    first_channel: 29,
    width: 22,
    duty: 1.0,
};

fn wlan_pair(seed: u64, engine: Engine) -> (Simulator, u8) {
    let mut cfg: SimConfig = paper_config();
    cfg.engine = engine;
    cfg.channel.interferers.push(WLAN);
    let mut b = SimBuilder::new(seed, cfg);
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = connect_pair(&mut sim, m, s, SimTime::from_us(120_000_000))
        .expect("pair connects despite the interferer");
    (sim, lt)
}

/// Runs the full LMP-negotiated map exchange on a saturated link and
/// returns the switch instant.
fn negotiate_afh(sim: &mut Simulator, lt: u8) -> u64 {
    let (master, slave) = (0, 1);
    sim.command(master, LcCommand::SetTpoll(2));
    sim.command(
        master,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0xD7; 200_000],
        },
    );
    // Assessment traffic.
    sim.run_until(sim.now() + SimDuration::from_slots(1_200));
    // Slave → master classification report.
    let slave_map = sim.lc(slave).channel_assessment().proposed_map(4, 0.3);
    sim.lm_request(slave, |lm, _slot| {
        lm.send_channel_classification(lt, slave_map)
    });
    let deadline = sim.now() + SimDuration::from_slots(400);
    let mut reported: Option<ChannelMap> = None;
    while reported.is_none() && sim.now() < deadline {
        sim.run_until(sim.now() + SimDuration::from_slots(20));
        reported = sim.lm_events().iter().rev().find_map(|e| match &e.event {
            LmEvent::ChannelClassification { map, .. } if e.device == master => Some(map.clone()),
            _ => None,
        });
    }
    let reported = reported.expect("classification reaches the master");
    // Master combines and announces the switch.
    let own = sim.lc(master).channel_assessment().proposed_map(4, 0.3);
    let combined = own.intersect(&reported).unwrap_or(own);
    sim.lm_request(master, |lm, slot| {
        lm.request_set_afh(lt, combined.clone(), slot)
    });
    let (_, instant) = sim
        .lc(master)
        .afh_pending_switch()
        .expect("master scheduled its switch");
    instant
}

#[test]
fn lmp_negotiated_switch_keeps_master_and_slave_hop_synchronized() {
    let (mut sim, lt) = wlan_pair(21, Engine::Lockstep);
    let (master, slave) = (0, 1);
    let instant = negotiate_afh(&mut sim, lt);
    assert!(instant.is_multiple_of(2), "switch lands on a slot pair");

    // Run through the acceptance and the instant.
    sim.run_until(SimTime::ZERO + SimDuration::from_slots(instant + 8));
    assert!(
        sim.lm_events()
            .iter()
            .any(|e| matches!(e.event, LmEvent::AfhAccepted { .. }) && e.device == master),
        "the slave must accept the map"
    );

    // Both ends agree on the effective map at every slot around the
    // switch instant — the hop sequences are identical before and
    // after it.
    for slot in instant.saturating_sub(30)..instant + 30 {
        assert_eq!(
            sim.lc(master).afh_map_at(slot),
            sim.lc(slave).afh_map_at(slot),
            "maps diverge at slot {slot} (instant {instant})"
        );
    }
    let map = sim
        .lc(slave)
        .afh_map_at(instant)
        .expect("adapted map in use")
        .clone();
    for ch in 0..79u8 {
        if WLAN.covers(ch) {
            assert!(!map.is_used(ch), "jammed channel {ch} still in use");
        }
    }

    // After the switch the hop sequence avoids the band entirely: the
    // medium records zero interferer hits, and acknowledged traffic
    // keeps flowing (which would stall within a few slots if the two
    // ends hopped on different maps).
    let stats_before = sim.tx_stats();
    let quality_before = sim.channel_quality();
    let window_start = sim.now();
    sim.run_until(window_start + SimDuration::from_slots(1_000));
    let delta = sim.tx_stats().since(stats_before);
    assert_eq!(
        delta.jammed, 0,
        "adapted hops must not land in the full-duty band"
    );
    assert_eq!(
        sim.channel_quality().since(&quality_before).total().jammed,
        0
    );
    let delivered: usize = sim
        .events()
        .iter()
        .filter(|e| e.device == slave && e.at > window_start)
        .filter_map(|e| match &e.event {
            LcEvent::AclReceived { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    assert!(
        delivered > 5_000,
        "post-switch goodput collapsed ({delivered} bytes): hops desynchronized?"
    );
}

#[test]
fn afh_switch_survives_low_power_gaps_under_both_engines() {
    // A pending map switch scheduled while the slave then sleeps in
    // sniff exercises the wakeup-hint contract across the switch: the
    // event engine must fast-forward the idle gaps and still hop on
    // the same channels as the lockstep oracle.
    let run = |engine: Engine| {
        let (mut sim, lt) = wlan_pair(33, engine);
        let (master, slave) = (0, 1);
        let instant = negotiate_afh(&mut sim, lt);
        let params = SniffParams {
            t_sniff: 80,
            n_attempt: 1,
            d_sniff: 4,
            n_timeout: 1,
        };
        sim.command(
            master,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
        sim.command(
            slave,
            LcCommand::Sniff {
                lt_addr: lt,
                params,
            },
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_slots(instant + 600));
        format!(
            "now={:?} events={:?} lm={:?} tx={:?} rng={:#x} map={:?}/{:?}",
            sim.now(),
            sim.events(),
            sim.lm_events(),
            sim.tx_stats(),
            sim.rng_fingerprint(),
            sim.lc(master).afh_map_at(sim.now().slots()),
            sim.lc(slave).afh_map_at(sim.now().slots()),
        )
    };
    assert_eq!(run(Engine::Lockstep), run(Engine::EventDriven));
}

#[test]
fn afh_adapt_scenario_recovers_under_both_engines() {
    let make = |engine: Engine| {
        let mut sim = paper_config();
        sim.engine = engine;
        AfhAdaptScenario::new(AfhAdaptConfig {
            wlan: Interferer::wlan(40, 1.0),
            window_slots: 1_200,
            afh: AfhConfig {
                enabled: true,
                assess_slots: 1_200,
                ..AfhConfig::default()
            },
            sim,
            ..AfhAdaptConfig::default()
        })
    };
    let lockstep = make(Engine::Lockstep).run(5);
    let event = make(Engine::EventDriven).run(5);
    assert_eq!(lockstep, event, "outcome diverged between engines");
    assert!(lockstep.switched);
    assert!(
        lockstep.kbps_after > lockstep.kbps_before * 1.2,
        "goodput recovery: before {} after {}",
        lockstep.kbps_before,
        lockstep.kbps_after
    );
    assert_eq!(lockstep.jam_hits_after, 0.0);
}
