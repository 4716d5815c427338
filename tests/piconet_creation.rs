//! End-to-end piconet creation across crate boundaries.

use btsim::baseband::hop::{self, HopSequence};
use btsim::baseband::{LcCommand, LcEvent};
use btsim::core::scenario::{
    paper_config, CreationConfig, CreationScenario, InquiryConfig, InquiryScenario, PageConfig,
    PageScenario, Scenario,
};
use btsim::core::{SimBuilder, SimConfig, Simulator};
use btsim::kernel::{SimDuration, SimTime};

#[test]
fn creation_succeeds_for_every_piconet_size() {
    for n_slaves in 1..=3 {
        let scenario = CreationScenario::new(CreationConfig {
            n_slaves,
            ber: 0.0,
            inquiry_timeout_slots: 16 * 2048,
            page_timeout_slots: 2048,
            sim: paper_config(),
        });
        let mut sim = scenario.build(1000 + n_slaves as u64);
        let out = scenario.drive(&mut sim);
        assert!(
            out.piconet_complete(),
            "{n_slaves}-slave piconet failed: inquiry_ok={} pages={:?}",
            out.inquiry_ok,
            out.pages
        );
        assert_eq!(sim.lc(0).connected_slaves().len(), n_slaves);
        for s in 1..=n_slaves {
            assert!(sim.lc(s).is_slave(), "device {s} should be a slave");
        }
    }
}

#[test]
fn seven_slave_piconet_forms() {
    // The maximum piconet the standard allows.
    let scenario = CreationScenario::new(CreationConfig {
        n_slaves: 7,
        ber: 0.0,
        inquiry_timeout_slots: 48 * 2048,
        page_timeout_slots: 4096,
        sim: paper_config(),
    });
    let mut sim = scenario.build(77);
    let out = scenario.drive(&mut sim);
    assert!(
        out.piconet_complete(),
        "7-slave piconet failed: discovered={} pages={:?}",
        out.discovered.len(),
        out.pages
    );
    // All LT_ADDRs distinct and in 1..=7.
    let mut lts: Vec<u8> = sim
        .lc(0)
        .connected_slaves()
        .iter()
        .map(|(lt, _)| *lt)
        .collect();
    lts.sort_unstable();
    lts.dedup();
    assert_eq!(lts.len(), 7);
    assert!(lts.iter().all(|&lt| (1..=7).contains(&lt)));
}

#[test]
fn creation_is_bit_reproducible() {
    let run = |seed: u64| {
        let scenario = CreationScenario::new(CreationConfig::default());
        let mut sim = scenario.build(seed);
        let out = scenario.drive(&mut sim);
        (
            out.inquiry_slots,
            out.pages.clone(),
            sim.events().len(),
            sim.measured_ber().to_bits(),
        )
    };
    assert_eq!(run(31), run(31));
    assert_ne!(run(31).0, run(32).0);
}

#[test]
fn inquiry_mean_matches_paper_anchor() {
    // Paper §3.1: 1556 slots on average without noise. Allow ±20% for a
    // small sample.
    let scenario = InquiryScenario::new(InquiryConfig::default());
    let mut total = 0u64;
    let runs = 30;
    for seed in 0..runs {
        let out = scenario.run(seed);
        assert!(out.completed, "seed {seed} did not complete");
        total += out.slots;
    }
    let mean = total as f64 / runs as f64;
    assert!(
        (1200.0..2000.0).contains(&mean),
        "inquiry mean {mean} too far from the paper's 1556 slots"
    );
}

#[test]
fn page_mean_matches_paper_anchor() {
    // Paper §3.1: ≈17 slots when the devices are already synchronised.
    let scenario = PageScenario::new(PageConfig::default());
    let mut total = 0u64;
    let runs = 30;
    for seed in 0..runs {
        let out = scenario.run(seed);
        assert!(out.completed, "seed {seed} did not complete");
        total += out.slots;
    }
    let mean = total as f64 / runs as f64;
    assert!(
        (8.0..30.0).contains(&mean),
        "page mean {mean} too far from the paper's 17 slots"
    );
}

#[test]
fn page_needs_a_reasonable_clock_estimate() {
    // A wildly wrong CLKE estimate pushes the catch beyond the A-train.
    let good = PageScenario::new(PageConfig {
        clke_error_ticks: 0,
        ..PageConfig::default()
    })
    .run(5);
    let bad = PageScenario::new(PageConfig {
        // 16 CLKE16-12 positions of error: outside the A-train's ±8
        // tolerance, so the pager only connects once the B train (or a
        // clock epoch change) covers the scan channel.
        clke_error_ticks: 16 << 12,
        cap_slots: 8192,
        ..PageConfig::default()
    })
    .run(5);
    assert!(good.completed);
    assert!(
        !bad.completed || bad.slots > 4 * good.slots,
        "bad estimate should slow or break paging: good {} bad {:?}",
        good.slots,
        (bad.completed, bad.slots)
    );
}

/// Half slots in the paper's 18-slot (11.25 ms) page-scan window.
const SCAN_WINDOW_TICKS: i64 = 36;

/// The half slots, counted from the start of a fresh page, at which the
/// pager's A train puts an ID on the slave's page-scan channel, predicted
/// from the two native clocks alone (exact CLKE: the slave's CLKN). The
/// pager's first ID leaves one half slot after the page command.
fn train_hits(sim: &Simulator, ticks: std::ops::Range<i64>) -> Vec<i64> {
    let (master, slave) = (sim.lc(0), sim.lc(1));
    let (m0, s0) = (master.clkn(sim.now()), slave.clkn(sim.now()));
    let addr = slave.addr().hop_input();
    ticks
        .filter(|&t| {
            let (own, clke) = (m0.offset_by(t as u32), s0.offset_by(t as u32));
            let page = HopSequence::Page {
                kofs: hop::KOFFSET_A,
            };
            own.is_master_tx_slot()
                && hop::hop_channel(page, clke, addr)
                    == hop::hop_channel(HopSequence::PageScan, clke, addr)
        })
        .collect()
}

fn windowed_page(cap_slots: u64) -> PageScenario {
    PageScenario::new(PageConfig {
        cap_slots,
        sim: paper_config(),
        ..PageConfig::default()
    })
}

#[test]
fn exact_estimate_page_connects_iff_its_scan_window_holds_a_train_hit() {
    // With R1 scanning (one 18-slot window per 1.28 s) and a 2048-slot
    // cap, a BER-0 page has exactly one scan window to succeed in. The
    // pager's A train normally visits the scan channel once per 16 slots,
    // so the window holds a visit — except for seed 340 (see below).
    let scenario = windowed_page(2048);
    let mut missed = Vec::new();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..2000 {
        let mut sim = scenario.build(seed);
        let first = train_hits(&sim, 1..SCAN_WINDOW_TICKS).first().copied();
        let out = scenario.drive(&mut sim);
        assert_eq!(out.completed, first.is_some(), "seed {seed}");
        match first {
            Some(t) => assert!(
                (t as u64 / 2 + 4..=t as u64 / 2 + 6).contains(&out.slots),
                "seed {seed}: first train hit at half slot {t}, connected at slot {}",
                out.slots
            ),
            None => missed.push(seed),
        }
        if seed != 340 {
            fingerprint = (fingerprint ^ out.slots).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(missed, vec![340]);
    // Pins the connection slot of every other realisation: a change to
    // the page or page-scan timing that moves any of them shows here.
    assert_eq!(fingerprint, 0x64d2_2b3b_3835_0a46, "{fingerprint:#x}");
}

#[test]
fn seed_340_page_misses_its_first_scan_window() {
    // Known deviation. The master's CLKN is 1 (mod 4) half slots behind
    // its CLKE, so each TX slot sends its two IDs on train positions
    // 2m + 1, then 2m. Across a CLKE16-12 epoch boundary that order
    // stretches the gap between two visits of the scan channel to 37
    // half slots, one more than the 11.25 ms window; seed 340's window
    // opens one half slot after a visit and closes on the next.
    let scenario = windowed_page(2 * 2048);
    let sim = scenario.build(340);
    let (m0, s0) = (sim.lc(0).clkn(sim.now()), sim.lc(1).clkn(sim.now()));
    assert_eq!(m0.offset_to(s0) % 4, 1);
    assert_eq!(train_hits(&sim, -8..SCAN_WINDOW_TICKS + 8), vec![-1, 36]);
    // The next window, 1.28 s later, connects.
    let out = scenario.run(340);
    assert!(out.completed);
    assert!((2048..2048 + 18).contains(&out.slots), "{out:?}");
}

#[test]
fn scanning_devices_keep_rx_always_on() {
    // Paper Fig. 5's caption: slaves not yet in the piconet have the RF
    // receiver always active.
    let mut cfg = SimConfig::default();
    cfg.lc.inquiry_scan_continuous = true;
    let mut b = SimBuilder::new(3, cfg);
    let _m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    sim.command(s, LcCommand::InquiryScan);
    sim.run_until(SimTime::from_us(2_000_000));
    let rep = sim.power_report(s);
    assert!(
        rep.rx_activity() > 0.95,
        "rx activity {}",
        rep.rx_activity()
    );
}

#[test]
fn connected_slave_listens_only_at_slot_starts() {
    // After joining, the slave's RF activity drops to the peek floor.
    let mut b = SimBuilder::new(9, paper_config());
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = btsim::core::scenario::connect_pair(&mut sim, m, s, SimTime::from_us(30_000_000));
    assert!(lt.is_some());
    let start = sim.now();
    sim.run_until(start + SimDuration::from_slots(4000));
    let rep = sim.power_report(s);
    let active = rep.phase(btsim::baseband::LifePhase::Active);
    assert!(
        active.activity() < 0.06,
        "connected slave activity {} should be a few percent",
        active.activity()
    );
    assert!(active.activity() > 0.005);
}

#[test]
fn detach_dissolves_the_link() {
    let mut b = SimBuilder::new(21, paper_config());
    let m = b.add_device("master");
    let s = b.add_device("slave1");
    let mut sim = b.build();
    let lt = btsim::core::scenario::connect_pair(&mut sim, m, s, SimTime::from_us(30_000_000))
        .expect("connects");
    sim.command(m, LcCommand::Detach { lt_addr: lt });
    sim.command(s, LcCommand::Detach { lt_addr: lt });
    sim.run_until(sim.now() + SimDuration::from_slots(8));
    assert!(!sim.lc(m).is_master());
    assert!(!sim.lc(s).is_slave());
    let detaches = sim
        .events()
        .iter()
        .filter(|e| matches!(e.event, LcEvent::Detached { .. }))
        .count();
    assert_eq!(detaches, 2);
}
