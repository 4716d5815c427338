//! Checkpoint/restore of the full simulator state (`docs/SNAPSHOT.md`).
//!
//! [`SimSnapshot`] captures every stateful layer — each core's calendar,
//! medium, per-device controllers and managers, power ledgers,
//! trace/capture sinks, event logs, fidelity counters and metrics
//! stream, plus the device maps and merged logs over the cores —
//! deeply enough that `restore(snapshot(sim))` followed by
//! `run_until(h)` is bit-identical to running the original simulator to
//! `h` uninterrupted (gated by `tests/snapshot_equivalence.rs`).
//!
//! The wire form ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`])
//! is the kernel [`Snap`] codec under a magic/version header. Decoding is
//! total: malformed or truncated input yields a typed
//! [`SnapshotError`], never a panic, and structural invariants the
//! simulator relies on (device maps, merged logs, wakeup arrays,
//! calendar device indices) are re-validated on the way in.

use super::*;
use btsim_kernel::{Snap, SnapReader, SnapWriter, SnapshotError};

/// First four bytes of every serialized snapshot (`"BTSN"`).
const MAGIC: u32 = u32::from_le_bytes(*b"BTSN");

/// Highest wire-format version this build reads and the one it writes.
const VERSION: u32 = 2;

btsim_kernel::snap_enum!(Engine, "unknown engine tag" {
    0 => Lockstep,
    1 => EventDriven,
});

btsim_kernel::snap_struct!(ActiveWindow {
    id,
    channel,
    opened_at,
    until
});

btsim_kernel::snap_struct!(PendingWindow {
    id,
    channel,
    from,
    until
});

btsim_kernel::snap_enum!(Ev, "unknown calendar event tag" {
    0 => Tick(dev),
    1 => Wake { seq },
    2 => Command { dev, cmd, inserted },
    3 => TxStart { dev, channel, bits },
    4 => Deliver { tx, listeners },
    5 => WindowOpen { dev, id },
    6 => WindowClose { dev, id },
    7 => Fault { idx },
});

btsim_kernel::snap_struct!(LoggedEvent { at, device, event });

btsim_kernel::snap_struct!(LoggedLmEvent { at, device, event });

btsim_kernel::snap_struct!(DeviceCell {
    lc,
    lm,
    active,
    pending,
    rx_busy_until,
    sig_tx,
    sig_rx,
});

btsim_kernel::snap_struct!(MergedLogs {
    events,
    lm_events,
    done
});

btsim_kernel::snap_struct!(Core {
    cal,
    medium,
    devices,
    monitor,
    recorder,
    events,
    lm_events,
    next_window_id,
    steps_since_gc,
    engine,
    fidelity,
    error_model,
    modem_delay,
    peek,
    run_cap,
    wake,
    wake_seq,
    steps_total,
    fidelity_promotions,
    fidelity_demotions,
    metrics,
    comp_of,
    faults,
    crashed,
    muted,
    drifted,
    faults_applied,
}; validate = validate_core);

btsim_kernel::snap_struct!(Simulator {
    cores,
    core_of,
    globals,
    merged,
    workers,
    faults,
    inspect_cursor,
}; validate = validate);

/// Structural invariants every decoded core must satisfy before it can
/// run: any index a dispatch path uses unchecked is range-checked here,
/// so a corrupted stream is rejected instead of panicking later.
fn validate_core(core: &Core, r: &SnapReader<'_>) -> Result<(), SnapshotError> {
    let n = core.devices.len();
    if core.wake.len() != n {
        return Err(r.malformed("wakeup array length mismatches device count"));
    }
    if !core.comp_of.is_empty() && core.comp_of.len() != n {
        return Err(r.malformed("component map length mismatches device count"));
    }
    if core.crashed.len() != n || core.muted.len() != n || core.drifted.len() != n {
        return Err(r.malformed("fault flag array length mismatches device count"));
    }
    if core.faults.max_device().is_some_and(|max| max >= n) {
        return Err(r.malformed("fault plan targets unknown device"));
    }
    // Merging maps each logged device through the core's device map.
    if core.events.iter().any(|e| e.device >= n) || core.lm_events.iter().any(|e| e.device >= n) {
        return Err(r.malformed("logged event references unknown device"));
    }
    for (_, _, ev) in core.cal.entries() {
        let ok = match ev {
            Ev::Tick(d)
            | Ev::Command { dev: d, .. }
            | Ev::TxStart { dev: d, .. }
            | Ev::WindowOpen { dev: d, .. }
            | Ev::WindowClose { dev: d, .. } => *d < n,
            Ev::Deliver { listeners, .. } => listeners.iter().all(|&l| l < n),
            Ev::Wake { .. } => true,
            Ev::Fault { idx } => *idx < core.faults.events().len(),
        };
        if !ok {
            return Err(r.malformed("calendar event references unknown device"));
        }
    }
    Ok(())
}

/// The invariants across cores: at least one core, all at the same
/// instant; merged logs present iff there is more than one core, with a
/// merge cursor per core inside its logs; and device maps that are a
/// bijection between global ids and (core, local index) pairs.
fn validate(sim: &Simulator, r: &SnapReader<'_>) -> Result<(), SnapshotError> {
    let Some(first) = sim.cores.first() else {
        return Err(r.malformed("simulator has no core"));
    };
    if sim.cores.iter().any(|c| c.cal.now() != first.cal.now()) {
        return Err(r.malformed("core clocks disagree"));
    }
    if sim.workers == 0 {
        return Err(r.malformed("worker count must be at least 1"));
    }
    if sim.merged.is_some() != (sim.cores.len() > 1) {
        return Err(r.malformed("merged logs must be present iff there are several cores"));
    }
    if let Some(merged) = &sim.merged {
        if merged.done.len() != sim.cores.len() {
            return Err(r.malformed("merge cursor table mismatches core count"));
        }
        for (core, &(lc, lm)) in sim.cores.iter().zip(&merged.done) {
            if lc > core.events.len() || lm > core.lm_events.len() {
                return Err(r.malformed("merge cursor beyond core event log"));
            }
        }
    }
    if sim.globals.len() != sim.cores.len()
        || sim
            .globals
            .iter()
            .zip(&sim.cores)
            .any(|(g, c)| g.len() != c.devices.len())
        || sim.globals.iter().map(Vec::len).sum::<usize>() != sim.core_of.len()
    {
        return Err(r.malformed("device maps mismatch core sizes"));
    }
    for (d, &(c, l)) in sim.core_of.iter().enumerate() {
        if sim.globals.get(c).and_then(|g| g.get(l)) != Some(&d) {
            return Err(r.malformed("device maps are not a bijection"));
        }
    }
    if sim
        .faults
        .max_device()
        .is_some_and(|max| max >= sim.core_of.len())
    {
        return Err(r.malformed("fault plan targets unknown device"));
    }
    Ok(())
}

/// A point-in-time checkpoint of a [`Simulator`].
///
/// Produced by [`Simulator::snapshot`]; restored with
/// [`SimSnapshot::restore`] (any number of times — restoring is how a
/// campaign forks one formed topology into many runs) or shipped across
/// processes via [`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`].
///
/// # Examples
///
/// ```
/// use btsim_core::{SimBuilder, SimConfig, SimSnapshot};
/// use btsim_kernel::SimTime;
///
/// let mut b = SimBuilder::new(7, SimConfig::default());
/// b.add_device("master");
/// b.add_device("slave1");
/// let mut sim = b.build();
/// sim.run_until(SimTime::from_us(10_000));
///
/// let snap = sim.snapshot();
/// let bytes = snap.to_bytes();
/// let mut fork = SimSnapshot::from_bytes(&bytes).unwrap().restore();
/// fork.run_until(SimTime::from_us(20_000));
/// sim.run_until(SimTime::from_us(20_000));
/// // An unreseeded fork replays the original run bit-for-bit.
/// assert_eq!(fork.rng_fingerprint(), sim.rng_fingerprint());
/// assert_eq!(fork.events(), sim.events());
/// ```
#[derive(Clone)]
pub struct SimSnapshot {
    sim: Simulator,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("at", &self.at())
            .field("devices", &self.device_count())
            .finish_non_exhaustive()
    }
}

impl SimSnapshot {
    /// The simulation instant the snapshot was taken at.
    pub fn at(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of devices in the captured simulator.
    pub fn device_count(&self) -> usize {
        self.sim.device_count()
    }

    /// A fresh, independent simulator continuing from the checkpoint.
    ///
    /// Every restore is equivalent: the snapshot is immutable, so forks
    /// never alias each other. Without a subsequent
    /// [`Simulator::reseed_for_fork`] the restored run replays the
    /// original bit-for-bit.
    pub fn restore(&self) -> Simulator {
        self.sim.clone()
    }

    /// Consumes the snapshot into its simulator without a final clone.
    pub fn into_simulator(self) -> Simulator {
        self.sim
    }

    /// Serializes the snapshot: magic, format version, then the kernel
    /// [`Snap`] image of the whole simulator tree. Deterministic — two
    /// bit-identical states produce byte-identical snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        self.sim.snap(&mut w);
        w.into_bytes()
    }

    /// Decodes a serialized snapshot, rejecting — with a typed error,
    /// never a panic — anything that is not a well-formed snapshot of a
    /// supported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        match r.take_u32() {
            Ok(m) if m == MAGIC => {}
            _ => return Err(SnapshotError::BadMagic),
        }
        let found = r.take_u32().map_err(|_| SnapshotError::BadMagic)?;
        if found != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found,
                supported: VERSION,
            });
        }
        let sim = Simulator::unsnap(&mut r)?;
        r.finish()?;
        Ok(SimSnapshot { sim })
    }
}

impl Simulator {
    /// Checkpoints the complete simulator state (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot { sim: self.clone() }
    }

    /// [`SimSnapshot::restore`] as an associated constructor, mirroring
    /// `Simulator::restore(snapshot)` call sites.
    pub fn restore(snapshot: &SimSnapshot) -> Simulator {
        snapshot.restore()
    }

    /// Re-keys every open random stream from `fork_seed`, exactly as a
    /// fresh build with that seed would have keyed them: the medium's
    /// base stream (`fork 0xC4A7`, which internally re-derives the jam
    /// stream and each radio's private noise stream from its registered
    /// global stream id) and each device controller's stream
    /// (`fork 0x20_0000 + global_id`). The CLKN draw stream
    /// (`0x10_0000 + global_id`) is deliberately *not* re-drawn: clock
    /// phase is part of the formed state a fork is meant to keep.
    ///
    /// This is the campaign fork contract: restore a formed snapshot,
    /// reseed with the run's seed, drive — statistically independent
    /// runs over an identical formed topology.
    pub fn reseed_for_fork(&mut self, fork_seed: u64) {
        let root = SimRng::new(fork_seed);
        for (core, globals) in self.cores.iter_mut().zip(&self.globals) {
            core.medium.reseed(root.fork(0xC4A7));
            for (cell, &g) in core.devices.iter_mut().zip(globals) {
                cell.lc.reseed(root.fork(0x20_0000 + g as u64).seed());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use btsim_baseband::LcCommand;

    fn connected_sim(seed: u64) -> Simulator {
        let mut b = crate::SimBuilder::new(seed, SimConfig::default());
        let master = b.add_device("m");
        let slave = b.add_device("s");
        let mut sim = b.build();
        let offset = sim
            .lc(master)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(slave).clkn(SimTime::ZERO));
        sim.command(slave, LcCommand::PageScan);
        sim.command(
            master,
            LcCommand::Page {
                target: sim.lc(slave).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        sim.run_until(SimTime::from_us(500_000));
        assert!(sim.lc(master).is_master(), "pair must form");
        sim
    }

    #[test]
    fn wire_roundtrip_is_field_exact_and_byte_stable() {
        let sim = connected_sim(11);
        let snap = sim.snapshot();
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.at(), snap.at());
        assert_eq!(back.device_count(), 2);
        // Re-encoding the decoded snapshot reproduces the bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restored_run_is_bit_identical() {
        let mut sim = connected_sim(12);
        let mut fork = sim.snapshot().restore();
        let horizon = SimTime::from_us(1_500_000);
        sim.run_until(horizon);
        fork.run_until(horizon);
        assert_eq!(sim.events(), fork.events());
        assert_eq!(sim.lm_events(), fork.lm_events());
        assert_eq!(sim.rng_fingerprint(), fork.rng_fingerprint());
        assert_eq!(sim.tx_stats(), fork.tx_stats());
    }

    #[test]
    fn reseeded_forks_diverge_but_keep_topology() {
        let sim = connected_sim(13);
        let snap = sim.snapshot();
        let mut a = snap.restore();
        let mut b = snap.restore();
        a.reseed_for_fork(1001);
        b.reseed_for_fork(1002);
        assert_ne!(a.rng_fingerprint(), b.rng_fingerprint());
        let horizon = SimTime::from_us(1_000_000);
        a.run_until(horizon);
        b.run_until(horizon);
        // Both forks keep the formed link alive.
        assert!(a.lc(0).is_master() && a.lc(1).is_slave());
        assert!(b.lc(0).is_master() && b.lc(1).is_slave());
        assert_ne!(a.rng_fingerprint(), b.rng_fingerprint());
    }

    #[test]
    fn reseeding_with_build_seed_matches_build_streams() {
        // A never-run simulator reseeded with its own build seed is at
        // the exact stream positions the build created.
        let mut b = crate::SimBuilder::new(21, SimConfig::default());
        b.add_device("m");
        b.add_device("s");
        let sim = b.build();
        let mut reseeded = sim.clone();
        reseeded.reseed_for_fork(21);
        assert_eq!(sim.rng_fingerprint(), reseeded.rng_fingerprint());
    }

    /// Two idle clusters 100 m apart on a spatial floor,
    /// built with `shards` workers: two cores when sharded.
    fn two_cluster_sim(shards: usize) -> Simulator {
        let mut cfg = crate::net::DenseFloorConfig::default().sim;
        cfg.shards = shards;
        let mut b = crate::SimBuilder::new(31, cfg);
        for x in [0.0, 0.0, 100.0, 100.0] {
            b.add_device_at("d", btsim_channel::Position::new(x, 0.0));
        }
        let mut sim = b.build();
        sim.command(1, LcCommand::InquiryScan);
        sim.run_until(SimTime::from_us(100_000));
        sim
    }

    /// The `Malformed` message a corrupted simulator decodes to.
    fn rejection(sim: Simulator) -> &'static str {
        match SimSnapshot::from_bytes(&SimSnapshot { sim }.to_bytes()) {
            Err(SnapshotError::Malformed { what, .. }) => what,
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_cores_are_rejected() {
        let sharded = two_cluster_sim(2);
        assert_eq!(sharded.cores.len(), 2);
        assert!(SimSnapshot::from_bytes(&sharded.snapshot().to_bytes()).is_ok());
        let one = two_cluster_sim(1);
        assert_eq!(one.cores.len(), 1);

        let mut s = sharded.clone();
        s.merged = None;
        assert!(rejection(s).contains("merged logs"));
        let mut s = one.clone();
        s.merged = sharded.merged.clone();
        assert!(rejection(s).contains("merged logs"));
        let mut s = sharded.clone();
        s.core_of.swap(0, 2);
        assert!(rejection(s).contains("bijection"));
        let mut s = sharded.clone();
        s.globals[1].pop();
        assert!(rejection(s).contains("device maps"));
        let mut s = sharded.clone();
        s.cores[0].events[0].device = 2;
        assert!(rejection(s).contains("logged event"));
        let mut s = sharded.clone();
        s.cores[1].cal.advance_to(SimTime::from_us(200_000));
        assert!(rejection(s).contains("clocks"));
        let mut s = one;
        s.cores.clear();
        assert!(rejection(s).contains("no core"));
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked() {
        let sim = connected_sim(14);
        let bytes = sim.snapshot().to_bytes();
        assert_eq!(
            SimSnapshot::from_bytes(&[]).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SimSnapshot::from_bytes(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SimSnapshot::from_bytes(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }
        );
        // Every truncation either decodes-short (Truncated) or trips a
        // validity check (Malformed) — never a panic.
        for cut in [8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(SimSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SimSnapshot::from_bytes(&trailing).unwrap_err(),
            SnapshotError::TrailingBytes { .. }
        ));
    }
}
