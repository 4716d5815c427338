//! The system simulator: devices, channel and kernel wired together.
//!
//! A [`Simulator`] is a set of cores, each owning a discrete-event
//! calendar, a [`Medium`], one [`LinkController`] + [`LinkManager`] per
//! device, the RF power monitor and the waveform recorder. A run has
//! one core unless a spatial floor is sharded into its in-range
//! components (`docs/SPATIAL.md`). A core plays the role of the SystemC
//! netlist + kernel in the paper: half-slot ticks drive the baseband
//! state machines, their RF actions become channel transmissions and
//! receive windows, and `enable_tx_RF` / `enable_rx_RF` transitions are
//! recorded for the power analysis and waveform figures.
//!
//! Two [`Engine`]s drive the ticks. [`Engine::Lockstep`] is the paper's
//! scheme — every device is polled every half slot — and serves as the
//! behavioural oracle. [`Engine::EventDriven`] fast-forwards the clock
//! across guaranteed-no-op gaps using each controller's
//! [`LinkController::next_wakeup`] hint plus the link manager's pending
//! mode-change slots; `docs/ENGINE.md` describes the wakeup-hint
//! contract and the differential harness that gates both engines to
//! bit-identical behaviour.

use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::{MetricsSnapshot, MetricsStream};
use crate::observe::{merge_since, ObsCursor, SimEvent};
use btsim_baseband::{
    stat_slot_pair, BdAddr, ClkVal, Clock, LcAction, LcCommand, LcConfig, LcEvent, LifePhase,
    LinkController, Llid, RxDelivery, StatSide,
};
use btsim_channel::{
    ChannelConfig, ChannelQuality, DutyClass, Interferer, Medium, Position, SpatialConfig, TxId,
    TxStats,
};
use btsim_coding::BitVec;
use btsim_fidelity::{ErrorModel, Fidelity};
use btsim_kernel::{
    Calendar, CaptureDir, CaptureKind, CaptureRecord, CaptureSink, SignalRef, SimDuration, SimRng,
    SimTime, TraceRecorder, TraceValue,
};
use btsim_lmp::{LinkManager, LmEvent, LmOutput, LmRole};
use btsim_power::{DeviceReport, PowerMonitor};

mod snapshot;
pub use snapshot::SimSnapshot;

/// Tolerance for a transmission starting marginally before a window
/// opens (receiver timing uncertainty).
const RX_UNCERTAINTY: SimDuration = SimDuration::from_us(10);

/// How long the medium retains finished transmissions for delivery.
const MEDIUM_RETENTION: SimDuration = SimDuration::from_us(50_000);

/// A position in the simulator's event log.
///
/// Cursors let independent observers scan the log without aliasing each
/// other's progress: each holds its own cursor and advances it through
/// [`Simulator::events_since`] or [`Simulator::run_until_event_from`].
/// A fresh cursor ([`EventCursor::default`]) starts at the beginning of
/// the log; [`Simulator::cursor`] starts at its current end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventCursor(usize);

/// An [`LcEvent`] with its time and originating device.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device reported it.
    pub device: usize,
    /// The event itself.
    pub event: LcEvent,
}

/// An [`LmEvent`] with its time and originating device.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedLmEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device reported it.
    pub device: usize,
    /// The event itself.
    pub event: LmEvent,
}

/// How the simulator drives the baseband state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tick every device every half slot, as the paper's SystemC model
    /// does. Simple, and the behavioural oracle for the fast engine.
    #[default]
    Lockstep,
    /// Fast-forward the clock to the earliest wakeup across all devices
    /// ([`LinkController::next_wakeup`] + pending LMP mode changes),
    /// skipping ticks that are provably no-ops. Bit-identical to
    /// lockstep (enforced by `tests/engine_equivalence.rs`), and much
    /// faster whenever devices idle in hold/sniff/park or an R1 page
    /// scan.
    EventDriven,
}

impl Engine {
    /// Parses a CLI name (`lockstep` / `event`).
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "lockstep" => Some(Engine::Lockstep),
            "event" | "event-driven" => Some(Engine::EventDriven),
            _ => None,
        }
    }

    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Lockstep => "lockstep",
            Engine::EventDriven => "event",
        }
    }
}

/// Adaptive-frequency-hopping policy knobs (spec v1.2 AFH), consumed
/// by the host layer — scenarios such as
/// [`crate::scenario::AfhAdaptScenario`] — that closes the
/// assessment → `LMP_channel_classification` → `LMP_set_AFH` loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfhConfig {
    /// Run the AFH policy at all (off reproduces pre-v1.2 behaviour).
    pub enabled: bool,
    /// Minimum receptions observed on a channel before it is
    /// classified (fewer = "unknown", kept in use).
    pub min_samples: u32,
    /// Bad-reception fraction at or above which a channel is
    /// classified unusable.
    pub bad_threshold: f64,
    /// Traffic window (slots) observed before each classification
    /// round.
    pub assess_slots: u64,
}

impl Default for AfhConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            min_samples: 4,
            bad_threshold: 0.3,
            assess_slots: 2_500,
        }
    }
}

/// Simulator-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Channel noise and modem delay.
    pub channel: ChannelConfig,
    /// Link-controller configuration shared by all devices.
    pub lc: LcConfig,
    /// Adaptive-frequency-hopping policy (host layer).
    pub afh: AfhConfig,
    /// Record waveforms (off for Monte-Carlo batches).
    pub trace: bool,
    /// Record every air packet and LMP PDU into the capture sink
    /// ([`Simulator::capture`]); serialize with
    /// `btsim_trace::btsnoop::serialize_sink`. Like tracing, capture
    /// pins the PHY to the bit tier (the statistical tier produces no
    /// bit images to record). Off by default: the hot path then costs
    /// one branch per packet.
    pub capture: bool,
    /// Emit a metrics-hub snapshot as a JSON line every this many slots
    /// ([`Simulator::metrics_lines`]); `None` (the default) disables
    /// streaming entirely.
    pub metrics_every: Option<u64>,
    /// Randomise each device's initial CLKN (on by default; scenarios
    /// that model pre-synchronised devices may turn it off).
    pub random_clkn: bool,
    /// Which engine drives the ticks.
    pub engine: Engine,
    /// PHY fidelity tier: bit-accurate always, statistical always (when
    /// the stability tracker allows), or automatic promotion once the
    /// per-link BER estimate converges. See `docs/FIDELITY.md`.
    pub fidelity: Fidelity,
    /// Worker threads for an intra-run sharded simulation (see
    /// `docs/SPATIAL.md`). With a spatial channel model
    /// ([`ChannelConfig::spatial`]) and `shards >= 2`, the device set
    /// is decomposed into connected components of the in-range graph;
    /// each component runs on a core of its own, and `run_until`
    /// advances the cores on up to `shards` scoped worker threads.
    /// Results are bit-identical to the unsharded (`shards == 1`) run
    /// regardless of the worker count. Without a spatial model — or
    /// when tracing, packet capture or metrics streaming pin the run to
    /// a single timeline — the knob is ignored and the run has one
    /// core.
    pub shards: usize,
    /// Deterministic fault script (`docs/FAULTS.md`): device crashes,
    /// radio mutes/degrades, clock jumps and noise bursts, scheduled as
    /// ordinary calendar events so both engines apply each fault at the
    /// same instant. Empty by default. Parse a `--faults` CLI spec with
    /// [`FaultPlan::parse`], or generate churn with [`FaultPlan::churn`].
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            channel: ChannelConfig::default(),
            lc: LcConfig::default(),
            afh: AfhConfig::default(),
            trace: false,
            capture: false,
            metrics_every: None,
            random_clkn: true,
            engine: Engine::default(),
            fidelity: Fidelity::default(),
            shards: 1,
            faults: FaultPlan::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveWindow {
    id: u64,
    channel: u8,
    opened_at: SimTime,
    until: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingWindow {
    id: u64,
    channel: u8,
    from: SimTime,
    until: Option<SimTime>,
}

#[derive(Clone)]
struct DeviceCell {
    lc: LinkController,
    lm: LinkManager,
    active: Option<ActiveWindow>,
    pending: Vec<PendingWindow>,
    rx_busy_until: SimTime,
    sig_tx: SignalRef,
    sig_rx: SignalRef,
}

#[derive(Debug, Clone)]
enum Ev {
    /// Lockstep: one per device, self-rescheduling every half slot.
    Tick(usize),
    /// Event-driven: the single dispatch event sitting at the earliest
    /// pending wakeup. `seq` invalidates superseded instances.
    Wake {
        seq: u64,
    },
    Command {
        dev: usize,
        cmd: LcCommand,
        /// When the command was scheduled — decides whether the target
        /// device's lockstep tick at the dispatch instant runs before or
        /// after it, which the event-driven engine must reproduce.
        inserted: SimTime,
    },
    TxStart {
        dev: usize,
        channel: u8,
        bits: BitVec,
    },
    Deliver {
        tx: TxId,
        listeners: Vec<usize>,
    },
    WindowOpen {
        dev: usize,
        id: u64,
    },
    WindowClose {
        dev: usize,
        id: u64,
    },
    /// A scheduled fault from the simulator's [`FaultPlan`], by index.
    /// Scheduled at build time, so its insertion sequence precedes every
    /// re-scheduled tick/wake at the same instant — faults apply before
    /// any device acts at their instant, under both engines.
    Fault {
        idx: usize,
    },
}

/// A [`BdAddr`] was registered twice with a [`SimBuilder`].
///
/// Duplicate addresses would give two devices the same sync words and
/// hop sequences, silently corrupting every exchange — an easy mistake
/// for multi-piconet builders composing address sets from several
/// sources, so registration reports it as a typed error instead of
/// letting the simulation misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateAddr {
    /// The address registered twice.
    pub addr: BdAddr,
    /// Index of the device that already owns it.
    pub existing: usize,
}

impl std::fmt::Display for DuplicateAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device address {:?} is already registered (device {})",
            self.addr, self.existing
        )
    }
}

impl std::error::Error for DuplicateAddr {}

/// Builds a [`Simulator`] device by device.
pub struct SimBuilder {
    cfg: SimConfig,
    seed: u64,
    specs: Vec<(String, BdAddr, LmRole)>,
    /// One position per spec; [`Position::ORIGIN`] unless placed with
    /// an `add_device_at*` method. Ignored without a spatial channel
    /// model.
    positions: Vec<Position>,
}

impl SimBuilder {
    /// Starts a builder with the given seed and configuration.
    pub fn new(seed: u64, cfg: SimConfig) -> Self {
        Self {
            cfg,
            seed,
            specs: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Overrides the engine (equivalent to setting it on the config).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Overrides the PHY fidelity tier (equivalent to setting it on the
    /// config).
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.cfg.fidelity = fidelity;
        self
    }

    /// Overrides the AFH policy (equivalent to setting it on the config).
    pub fn afh(mut self, afh: AfhConfig) -> Self {
        self.cfg.afh = afh;
        self
    }

    /// The link-manager role the legacy single-piconet helpers assign:
    /// first device masters, the rest are slaves.
    fn default_role(&self) -> LmRole {
        if self.specs.is_empty() {
            LmRole::Master
        } else {
            LmRole::Slave
        }
    }

    /// A deterministic, well-spread address from a counter.
    fn auto_addr(i: u32) -> BdAddr {
        let lap = 0x2A_1000u32.wrapping_add(i.wrapping_mul(0x01_3579)) & 0xFF_FFFF;
        BdAddr::new(0x0B00 + i as u16, 0x40 + i as u8, lap)
    }

    /// Adds a device with an auto-generated address; returns its index.
    pub fn add_device(&mut self, name: &str) -> usize {
        let role = self.default_role();
        self.add_device_with_role(name, role)
    }

    /// Adds a device with an auto-generated address and an explicit
    /// link-manager role; returns its index. Scatternet builders use
    /// this for the masters of piconets beyond the first.
    pub fn add_device_with_role(&mut self, name: &str, role: LmRole) -> usize {
        // Auto addresses skip over any explicitly registered ones.
        let mut i = self.specs.len() as u32;
        let addr = loop {
            let candidate = Self::auto_addr(i);
            if !self.specs.iter().any(|(_, a, _)| *a == candidate) {
                break candidate;
            }
            i = i.wrapping_add(1);
        };
        self.specs.push((name.to_owned(), addr, role));
        self.positions.push(Position::ORIGIN);
        self.specs.len() - 1
    }

    /// Adds a device at a position on the floor (auto-generated
    /// address); returns its index. The position only matters with a
    /// spatial channel model ([`ChannelConfig::spatial`]).
    pub fn add_device_at(&mut self, name: &str, pos: Position) -> usize {
        let i = self.add_device(name);
        self.positions[i] = pos;
        i
    }

    /// Adds a device at a position with an explicit link-manager role;
    /// returns its index.
    pub fn add_device_at_with_role(&mut self, name: &str, pos: Position, role: LmRole) -> usize {
        let i = self.add_device_with_role(name, role);
        self.positions[i] = pos;
        i
    }

    /// Adds a device with an explicit address; returns its index, or a
    /// [`DuplicateAddr`] error when the address is already registered.
    pub fn add_device_with_addr(
        &mut self,
        name: &str,
        addr: BdAddr,
    ) -> Result<usize, DuplicateAddr> {
        if let Some(existing) = self.specs.iter().position(|(_, a, _)| *a == addr) {
            return Err(DuplicateAddr { addr, existing });
        }
        let role = self.default_role();
        self.specs.push((name.to_owned(), addr, role));
        self.positions.push(Position::ORIGIN);
        Ok(self.specs.len() - 1)
    }

    /// Finalises the simulator.
    ///
    /// With a spatial channel model and [`SimConfig::shards`] ≥ 2, the
    /// device set is decomposed into connected components of the
    /// in-range graph and each component gets a core of its own (see
    /// `docs/SPATIAL.md`); otherwise all devices share one core.
    /// Tracing, packet capture and metrics streaming need a single
    /// timeline, so any of them pins the build to one core.
    pub fn build(self) -> Simulator {
        let n = self.specs.len();
        if let Some(max) = self.cfg.faults.max_device() {
            assert!(
                max < n,
                "fault plan targets device {max}, but only {n} devices exist"
            );
        }
        let pinned_mono = self.cfg.trace || self.cfg.capture || self.cfg.metrics_every.is_some();
        let workers = if pinned_mono {
            1
        } else {
            self.cfg.shards.max(1)
        };
        // Components scope the statistical tier's stability gate in
        // spatial mode: a link pair only demotes for contention within
        // its own connected component, which is what keeps a one-core
        // spatial run bit-identical to the sharded one.
        let comp_of = match &self.cfg.channel.spatial {
            Some(spatial) => Self::components(&self.positions, spatial),
            None => Vec::new(),
        };
        let globals: Vec<Vec<usize>> = if workers > 1 && !comp_of.is_empty() {
            let mut members = vec![Vec::new(); comp_of.iter().max().map_or(0, |&c| c + 1)];
            for (d, &c) in comp_of.iter().enumerate() {
                members[c].push(d);
            }
            members
        } else {
            vec![(0..n).collect()]
        };
        let mut core_of = vec![(0, 0); n];
        for (c, members) in globals.iter().enumerate() {
            for (l, &d) in members.iter().enumerate() {
                core_of[d] = (c, l);
            }
        }
        let cores: Vec<Core> = globals
            .iter()
            .map(|members| self.build_core(members, &comp_of))
            .collect();
        let merged = (cores.len() > 1).then(|| MergedLogs {
            events: Vec::new(),
            lm_events: Vec::new(),
            done: vec![(0, 0); cores.len()],
        });
        Simulator {
            cores,
            core_of,
            globals,
            merged,
            workers,
            faults: self.cfg.faults,
            inspect_cursor: 0,
        }
    }

    /// Dense component ids (`0..n_components`, numbered in order of
    /// each component's lowest device id) of the in-range graph over
    /// `positions`.
    fn components(positions: &[Position], spatial: &SpatialConfig) -> Vec<usize> {
        let n = positions.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        for i in 0..n {
            for j in i + 1..n {
                if spatial.path_loss().in_range(positions[i], positions[j]) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri.max(rj)] = ri.min(rj);
                    }
                }
            }
        }
        let mut dense = vec![usize::MAX; n];
        let mut next = 0;
        let mut out = Vec::with_capacity(n);
        for d in 0..n {
            let root = find(&mut parent, d);
            if dense[root] == usize::MAX {
                dense[root] = next;
                next += 1;
            }
            out.push(dense[root]);
        }
        out
    }

    /// The core over the devices `globals` (global ids, ascending; the
    /// core's local index `l` is device `globals[l]`). Every per-device
    /// RNG stream is keyed by the global id, so a component simulated
    /// alone draws exactly what it would have drawn on the full floor.
    /// `comp_of` is the floor's component map (empty without a spatial
    /// model).
    fn build_core(&self, globals: &[usize], comp_of: &[usize]) -> Core {
        let root = SimRng::new(self.seed);
        let mut medium = Medium::new(self.cfg.channel.clone(), root.fork(0xC4A7));
        if self.cfg.capture {
            medium.set_capture(CaptureSink::enabled());
        }
        let mut recorder = if self.cfg.trace {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let n = globals.len();
        let monitor = PowerMonitor::new(n, LifePhase::Standby);
        let mut devices = Vec::with_capacity(n);
        let mut cal = Calendar::new();
        // Schedule the fault script first: build-time insertion gives
        // every fault a lower sequence number than any re-scheduled
        // tick or wake, so a fault at instant T dispatches before any
        // device acts at T — identically under both engines. A core
        // sees only its own devices' faults (remapped to local indices)
        // plus every noise fault, which is exactly what keeps sharded
        // runs bit-identical to one-core ones.
        let faults = self.cfg.faults.restricted_to(globals);
        for (idx, ev) in faults.events().iter().enumerate() {
            let at = SimTime::from_ns(ev.at_slot * SimDuration::SLOT.ns());
            cal.schedule(at, Ev::Fault { idx });
        }
        for (l, &g) in globals.iter().enumerate() {
            let (name, addr, role) = &self.specs[g];
            if self.cfg.channel.spatial.is_some() {
                medium.register_radio(l, self.positions[g], g as u64);
            }
            let mut clk_rng = root.fork(0x10_0000 + g as u64);
            let clkn0 = if self.cfg.random_clkn {
                ClkVal::new(clk_rng.range_u64(1 << 28) as u32)
            } else {
                ClkVal::new(0)
            };
            let lc = LinkController::new(
                *addr,
                Clock::new(clkn0),
                self.cfg.lc.clone(),
                root.fork(0x20_0000 + g as u64).seed(),
            );
            let sig_tx = recorder.declare(name, "enable_tx_RF", 1);
            let sig_rx = recorder.declare(name, "enable_rx_RF", 1);
            devices.push(DeviceCell {
                lc,
                lm: LinkManager::new(*role),
                active: None,
                pending: Vec::new(),
                rx_busy_until: SimTime::ZERO,
                sig_tx,
                sig_rx,
            });
            if self.cfg.engine == Engine::Lockstep {
                cal.schedule(SimTime::ZERO, Ev::Tick(l));
            }
        }
        Core {
            cal,
            medium,
            devices,
            monitor,
            recorder,
            events: Vec::new(),
            lm_events: Vec::new(),
            next_window_id: 0,
            steps_since_gc: 0,
            engine: self.cfg.engine,
            // Waveform tracing needs the bit-level RF signal edges and
            // packet capture needs the bit images, so either pins the
            // PHY to the bit tier.
            fidelity: if self.cfg.trace || self.cfg.capture {
                Fidelity::Bit
            } else {
                self.cfg.fidelity
            },
            error_model: ErrorModel::new(self.cfg.channel.ber, self.cfg.lc.sync_threshold),
            modem_delay: self.cfg.channel.modem_delay,
            peek: SimDuration::from_us(self.cfg.lc.peek_us),
            run_cap: SimTime::ZERO,
            // All devices start in standby: nothing to wake for until a
            // command arrives (commands re-arm their device's wakeup).
            wake: vec![None; n],
            wake_seq: 0,
            steps_total: 0,
            fidelity_promotions: 0,
            fidelity_demotions: 0,
            metrics: self.cfg.metrics_every.map(MetricsStream::new),
            // Empty without a spatial model, like `comp_of` itself.
            comp_of: globals
                .iter()
                .filter_map(|&g| comp_of.get(g).copied())
                .collect(),
            faults,
            crashed: vec![false; n],
            muted: vec![false; n],
            drifted: vec![false; n],
            faults_applied: 0,
        }
    }
}

/// The complete system simulation.
///
/// A simulator is a set of cores, each a discrete-event engine of its
/// own — one per connected component of the in-range graph on a sharded
/// spatial run, exactly one otherwise — behind a global device
/// numbering. Per-device calls go through the device map, aggregates
/// fold over the cores, and only the event logs and `run_until`'s
/// thread fan-out tell one core from many.
///
/// # Examples
///
/// ```
/// use btsim_core::{SimBuilder, SimConfig};
/// use btsim_baseband::LcCommand;
/// use btsim_kernel::SimTime;
///
/// let mut b = SimBuilder::new(7, SimConfig::default());
/// let master = b.add_device("master");
/// let slave = b.add_device("slave1");
/// let mut sim = b.build();
/// sim.command(slave, LcCommand::InquiryScan);
/// sim.command(master, LcCommand::Inquiry { num_responses: 1, timeout_slots: 0 });
/// sim.run_until(SimTime::from_us(5_000_000));
/// // The scanner is usually discovered within 5 simulated seconds.
/// ```
#[derive(Clone)]
pub struct Simulator {
    /// The engines, ordered by lowest global device id. Never empty.
    cores: Vec<Core>,
    /// Global device id → (core index, local index); the identity onto
    /// core 0 for one core.
    core_of: Vec<(usize, usize)>,
    /// Core index → local index → global device id.
    globals: Vec<Vec<usize>>,
    /// The cores' logs merged under global device ids; present only
    /// when there is more than one core.
    merged: Option<MergedLogs>,
    /// Worker-thread cap for `run_until` over several cores
    /// ([`SimConfig::shards`]). Never affects results, only wall-clock.
    workers: usize,
    /// The full fault plan; each core holds (and schedules) only its
    /// restriction to the core's devices plus all noise faults.
    faults: FaultPlan,
    /// Resume point of [`Simulator::run_until_event`]'s shared scan.
    inspect_cursor: usize,
}

/// The LC and LM logs of several cores, merged under global device ids.
#[derive(Clone)]
struct MergedLogs {
    events: Vec<LoggedEvent>,
    lm_events: Vec<LoggedLmEvent>,
    /// Per core, how many (lc, lm) entries have been merged so far.
    done: Vec<(usize, usize)>,
}

/// One discrete-event engine: calendar, medium, devices, stat tier and
/// faults over a set of devices that interact only with each other.
/// Device indices inside a core are local; the [`Simulator`] maps them
/// to global ids.
#[derive(Clone)]
struct Core {
    cal: Calendar<Ev>,
    medium: Medium,
    devices: Vec<DeviceCell>,
    monitor: PowerMonitor<LifePhase>,
    recorder: TraceRecorder,
    events: Vec<LoggedEvent>,
    lm_events: Vec<LoggedLmEvent>,
    next_window_id: u64,
    steps_since_gc: u32,
    engine: Engine,
    /// Effective PHY fidelity tier ([`Fidelity::Bit`] whenever tracing
    /// is on, regardless of the configured tier).
    fidelity: Fidelity,
    /// Closed-form per-section packet-error model at the configured BER.
    error_model: ErrorModel,
    /// Cached from the channel config for the statistical path.
    modem_delay: SimDuration,
    /// Cached carrier-detect window from the LC config.
    peek: SimDuration,
    /// Horizon of the current `run_*` call: the statistical tier never
    /// batches past it, because the caller may mutate state (commands,
    /// new traffic) as soon as control returns.
    run_cap: SimTime,
    /// Event-driven only: each device's next pending tick instant.
    wake: Vec<Option<SimTime>>,
    /// Invalidates superseded [`Ev::Wake`] instances.
    wake_seq: u64,
    /// Calendar events dispatched so far (engine-cost diagnostic).
    steps_total: u64,
    /// Statistical-tier promotions observed so far (metrics hub).
    fidelity_promotions: u64,
    /// Statistical-tier demotions observed so far (metrics hub).
    fidelity_demotions: u64,
    /// Streaming metrics emission, when [`SimConfig::metrics_every`] is
    /// set (which pins the run to one core).
    metrics: Option<MetricsStream>,
    /// Spatial mode: dense component id per device; empty without a
    /// spatial model (everything is one implicit component).
    comp_of: Vec<usize>,
    /// The fault script driving [`Ev::Fault`] dispatches, restricted to
    /// this core's devices (local indices).
    faults: FaultPlan,
    /// Per-device crashed flag: commands, transmissions and receptions
    /// of a crashed device are discarded until its revive fault.
    crashed: Vec<bool>,
    /// Per-device radio mute: the device transmits nothing and hears
    /// nothing, but its controller logic keeps running.
    muted: Vec<bool>,
    /// Devices whose native clock has jumped ([`FaultKind::Drift`]).
    /// Permanently blocks the statistical tier for their links: the
    /// tier's closed forms assume the pair's clocks agree, which only a
    /// bit-level re-page can re-establish.
    drifted: Vec<bool>,
    /// Fault events dispatched so far (metrics hub).
    faults_applied: u64,
}

/// `run_until_event`-style search hit its time horizon with no matching
/// event; the clock was clamped to the horizon.
///
/// Under the event-driven engine the calendar can be *empty* (or hold
/// only far-future wakeups) long before a caller's cap: without the
/// clamp the simulation clock would sit at the last processed event and
/// callers that loop on "no match yet" would spin without ever
/// advancing. The typed error makes the terminal state explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonReached {
    /// The cap the search was bounded by; `Simulator::now()` equals this
    /// (unless an already-scheduled event beyond the cap pins it lower).
    pub horizon: SimTime,
}

impl std::fmt::Display for HorizonReached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no matching event up to {}", self.horizon)
    }
}

impl std::error::Error for HorizonReached {}

impl Simulator {
    /// The core holding global device `dev`, and its local index there.
    fn locate(&self, dev: usize) -> (&Core, usize) {
        let (c, l) = self.core_of[dev];
        (&self.cores[c], l)
    }

    /// Mutable [`Simulator::locate`].
    fn locate_mut(&mut self, dev: usize) -> (&mut Core, usize) {
        let (c, l) = self.core_of[dev];
        (&mut self.cores[c], l)
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.core_of.len()
    }

    /// Current simulation time. Every public call leaves all cores'
    /// clocks at the same instant.
    pub fn now(&self) -> SimTime {
        self.cores[0].cal.now()
    }

    /// Immutable access to a device's link controller (for assertions).
    pub fn lc(&self, dev: usize) -> &LinkController {
        let (core, l) = self.locate(dev);
        &core.devices[l].lc
    }

    /// The waveform recorder (tracing pins the run to one core).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.cores[0].recorder
    }

    /// All logged link-controller events so far.
    pub fn events(&self) -> &[LoggedEvent] {
        match &self.merged {
            Some(m) => &m.events,
            None => &self.cores[0].events,
        }
    }

    /// A cursor at the current end of the event log (events logged
    /// after this call are "since" it).
    pub fn cursor(&self) -> EventCursor {
        EventCursor(self.events().len())
    }

    /// The events logged at or after `cursor`, advancing the cursor to
    /// the end of the log.
    pub fn events_since(&self, cursor: &mut EventCursor) -> &[LoggedEvent] {
        let events = self.events();
        let from = cursor.0.min(events.len());
        cursor.0 = events.len();
        &events[from..]
    }

    /// All logged link-manager events so far.
    pub fn lm_events(&self) -> &[LoggedLmEvent] {
        match &self.merged {
            Some(m) => &m.lm_events,
            None => &self.cores[0].lm_events,
        }
    }

    /// The packet-capture sink (air packets and LMP PDUs, in dispatch
    /// order). Disabled — and empty — unless [`SimConfig::capture`] was
    /// set (which pins the run to one core); serialize with
    /// `btsim_trace::btsnoop::serialize_sink`.
    pub fn capture(&self) -> &CaptureSink {
        self.cores[0].medium.capture()
    }

    /// A cursor at the current end of the merged event stream (events
    /// logged after this call are "since" it). A fresh
    /// [`ObsCursor::default`] starts at the beginning instead.
    pub fn observe(&self) -> ObsCursor {
        ObsCursor {
            lc: self.events().len(),
            lm: self.lm_events().len(),
        }
    }

    /// The unified event stream since `cursor`: both logs merged stably
    /// by instant (link-controller events ahead of link-manager events
    /// at a shared instant), advancing the cursor to their ends. Render
    /// with [`crate::observe::to_json_lines`].
    pub fn events_merged_since(&self, cursor: &mut ObsCursor) -> Vec<SimEvent> {
        merge_since(self.events(), self.lm_events(), cursor)
    }

    /// A metrics-hub snapshot of every subsystem at the current instant:
    /// medium counters, per-device power/buffer/fidelity state, engine
    /// progress and event-log sizes. Built on demand from state the
    /// subsystems already maintain — the hub costs nothing between
    /// calls. Diff two snapshots with [`MetricsSnapshot::since`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let logs = (self.events().len(), self.lm_events().len());
        metrics_of(&self.cores, &self.core_of, logs)
    }

    /// The JSON lines streamed so far (one snapshot per
    /// [`SimConfig::metrics_every`] period); empty when streaming is
    /// off. See `docs/OBSERVABILITY.md` for the line schema.
    pub fn metrics_lines(&self) -> &str {
        self.cores[0].metrics.as_ref().map_or("", |m| m.lines())
    }

    /// Observed channel bit-error fraction (diagnostics), from the raw
    /// counters of every core's medium.
    pub fn measured_ber(&self) -> f64 {
        measured_ber_of(&self.cores)
    }

    /// Cumulative medium transmission/collision statistics, summed over
    /// the cores. Scatternet experiments take a snapshot after topology
    /// formation and measure the delta over the traffic window
    /// ([`TxStats::since`]).
    pub fn tx_stats(&self) -> TxStats {
        tx_stats_of(&self.cores)
    }

    /// The medium's per-RF-channel quality counters, summed over the
    /// cores (snapshot and diff with [`ChannelQuality::since`]); the AFH
    /// experiments use it to verify an adapted hop sequence stops
    /// landing in an interferer's band.
    pub fn channel_quality(&self) -> ChannelQuality {
        channel_quality_of(&self.cores)
    }

    /// The engine driving this simulator.
    pub fn engine(&self) -> Engine {
        self.cores[0].engine
    }

    /// The fault plan this simulator was built with. Each core holds
    /// (and schedules) only the restriction to its own devices plus all
    /// noise faults.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether `dev` is currently crashed (powered off by a
    /// [`FaultKind::Crash`] and not yet revived).
    pub fn device_crashed(&self, dev: usize) -> bool {
        let (core, l) = self.locate(dev);
        core.crashed[l]
    }

    /// Fault events applied so far, across all cores.
    pub fn faults_applied(&self) -> u64 {
        self.cores.iter().map(|c| c.faults_applied).sum()
    }

    /// Calendar events dispatched so far — the engine's unit of work —
    /// summed over the cores. The event-driven engine's speedup is, to
    /// first order, the ratio of this count between engines for the
    /// same workload.
    pub fn steps_total(&self) -> u64 {
        self.cores.iter().map(|c| c.steps_total).sum()
    }

    /// Digest of every random stream's position (device controllers and
    /// the medium). Two runs that made bit-identical random draws — the
    /// engine-equivalence requirement — have equal fingerprints.
    ///
    /// The fold is the medium's base stream, then each radio's noise
    /// stream, then each controller's stream, in global device order.
    /// A spatial medium never draws from its base stream, so every core
    /// reports the same base fingerprint, and the fold over several
    /// cores equals the one-core fold.
    pub fn rng_fingerprint(&self) -> u64 {
        let mut acc = self.cores[0].medium.base_rng_fingerprint();
        for &(c, l) in &self.core_of {
            if let Some(noise) = self.cores[c].medium.noise_fingerprint_of(l) {
                acc = acc.rotate_left(9) ^ noise;
            }
        }
        for &(c, l) in &self.core_of {
            acc = acc.rotate_left(7) ^ self.cores[c].devices[l].lc.rng_fingerprint();
        }
        acc
    }

    /// Issues a command to a device at the current time.
    pub fn command(&mut self, dev: usize, cmd: LcCommand) {
        self.command_at(dev, cmd, self.now());
    }

    /// Schedules a command at an absolute time.
    pub fn command_at(&mut self, dev: usize, cmd: LcCommand, at: SimTime) {
        let (core, l) = self.locate_mut(dev);
        let inserted = core.cal.now();
        core.cal.schedule(
            at,
            Ev::Command {
                dev: l,
                cmd,
                inserted,
            },
        );
    }

    /// Runs a link-manager request on a device, applying its outputs.
    pub fn lm_request<F>(&mut self, dev: usize, f: F)
    where
        F: FnOnce(&mut LinkManager, u64) -> Vec<LmOutput>,
    {
        let (core, l) = self.locate_mut(dev);
        core.lm_request(l, f);
        self.merge_logs();
    }

    /// Runs until the calendar passes `until` (or drains), then clamps
    /// the clock to `until` so idle gaps at the horizon don't leave the
    /// simulation time short (the event-driven engine leaves such gaps;
    /// lockstep reaches the same instant by ticking through them).
    ///
    /// Several cores advance to `until` on up to [`SimConfig::shards`]
    /// scoped worker threads — cores never interact, so this is the
    /// embarrassingly parallel phase — then their logs are merged. The
    /// worker count never changes results, only wall-clock time.
    pub fn run_until(&mut self, until: SimTime) {
        let workers = self.workers.min(self.cores.len());
        if workers <= 1 {
            for core in &mut self.cores {
                core.run_until(until);
            }
        } else {
            let mut groups: Vec<Vec<&mut Core>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, core) in self.cores.iter_mut().enumerate() {
                groups[i % workers].push(core);
            }
            std::thread::scope(|scope| {
                for group in groups {
                    scope.spawn(move || {
                        for core in group {
                            core.run_until(until);
                        }
                    });
                }
            });
        }
        self.merge_logs();
    }

    /// Runs until an event matching `pred` is logged, or `cap` passes.
    ///
    /// Scanning resumes where the previous `run_until_event` call left
    /// off, so an event logged in the same batch as a previous match is
    /// still seen by the next call. The resume point is the simulator's
    /// *shared* cursor; observers that must not perturb (or be perturbed
    /// by) other scans should hold their own [`EventCursor`] and use
    /// [`Simulator::run_until_event_from`] instead.
    pub fn run_until_event<F>(&mut self, cap: SimTime, pred: F) -> Option<LoggedEvent>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        let mut cursor = EventCursor(self.inspect_cursor);
        let found = self.run_until_event_from(&mut cursor, cap, pred);
        self.inspect_cursor = cursor.0;
        found
    }

    /// Runs until an event at or after `cursor` matches `pred`, or `cap`
    /// passes; `cursor` advances past the scanned events.
    ///
    /// Unlike [`Simulator::run_until_event`] the scan position belongs to
    /// the caller, so independent scenarios or probes can each watch the
    /// log without resetting or skipping each other's progress.
    pub fn run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Option<LoggedEvent>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        self.try_run_until_event_from(cursor, cap, pred).ok()
    }

    /// Like [`Simulator::run_until_event_from`], but reports the
    /// no-match terminal state as a typed [`HorizonReached`] after
    /// clamping the clock to `cap`.
    ///
    /// The clamp matters under the event-driven engine: with every
    /// device asleep past `cap` there is nothing left to step, and
    /// without it the clock would stall short of the horizon while
    /// callers that retry on "no event yet" spin forever at the same
    /// instant.
    ///
    /// The search steps whichever core holds the earliest pending
    /// calendar event (ties to the lowest core index), merging new
    /// events into the log after every step that logs one, until one
    /// matches. Because
    /// stepping is globally time-ordered, every cross-core observable —
    /// log contents, the matched event, the stop instant — is
    /// independent of the core layout and worker count.
    pub fn try_run_until_event_from<F>(
        &mut self,
        cursor: &mut EventCursor,
        cap: SimTime,
        pred: F,
    ) -> Result<LoggedEvent, HorizonReached>
    where
        F: Fn(&LoggedEvent) -> bool,
    {
        let mut frontier = self.now();
        loop {
            let events = self.events();
            while cursor.0 < events.len() {
                let i = cursor.0;
                cursor.0 += 1;
                if pred(&events[i]) {
                    let found = events[i].clone();
                    // Sync every core's clock to the stepping frontier
                    // without dispatching anything further: pending
                    // same-instant events stay pending. The core that
                    // stepped last is already there.
                    for core in &mut self.cores {
                        core.cal.advance_to(frontier);
                    }
                    return Ok(found);
                }
            }
            // The earliest pending event (ties to the lowest core index)
            // and the earliest of the other cores, its rival.
            let (mut next, mut rival) = (None, None);
            for (i, core) in self.cores.iter().enumerate() {
                let Some(t) = core.cal.peek_time() else {
                    continue;
                };
                if next.is_none_or(|n| (t, i) < n) {
                    rival = next;
                    next = Some((t, i));
                } else if rival.is_none_or(|r| (t, i) < r) {
                    rival = Some((t, i));
                }
            }
            match next {
                Some((t, i)) if t <= cap => {
                    frontier = self.cores[i].step_until_logged(cap, i, rival);
                    self.merge_logs();
                }
                _ => {
                    for core in &mut self.cores {
                        core.run_until(cap);
                    }
                    self.merge_logs();
                    return Err(HorizonReached { horizon: cap });
                }
            }
        }
    }

    /// Power/activity report of `dev` over `[0, now]`, with any open RF
    /// window committed up to now.
    pub fn power_report(&self, dev: usize) -> DeviceReport<LifePhase> {
        let (core, l) = self.locate(dev);
        core.power_report(l)
    }

    /// Pulls every not-yet-merged event out of the core logs, remaps
    /// local device ids to global ones, and merges them into the merged
    /// logs (a no-op for one core). The merged logs are kept sorted by
    /// `(at, device)` — a canonical order independent of core layout
    /// and worker count (each device's own stream stays in chronological
    /// log order; cross-device ordering at a shared instant is
    /// normalised to device order, whereas a one-core log interleaves
    /// by dispatch order there).
    fn merge_logs(&mut self) {
        let Some(merged) = &mut self.merged else {
            return;
        };
        for (c, core) in self.cores.iter().enumerate() {
            let (lc_done, lm_done) = merged.done[c];
            let globals = &self.globals[c];
            if core.events.len() > lc_done {
                let incoming: Vec<LoggedEvent> = core.events[lc_done..]
                    .iter()
                    .map(|e| LoggedEvent {
                        at: e.at,
                        device: globals[e.device],
                        event: e.event.clone(),
                    })
                    .collect();
                merge_sorted(&mut merged.events, incoming, |e| (e.at, e.device));
            }
            if core.lm_events.len() > lm_done {
                let incoming: Vec<LoggedLmEvent> = core.lm_events[lm_done..]
                    .iter()
                    .map(|e| LoggedLmEvent {
                        at: e.at,
                        device: globals[e.device],
                        event: e.event.clone(),
                    })
                    .collect();
                merge_sorted(&mut merged.lm_events, incoming, |e| (e.at, e.device));
            }
            merged.done[c] = (core.events.len(), core.lm_events.len());
        }
    }
}

/// The metrics hub over `cores`, devices in global order through
/// `core_of`, with `logs` the (LC, LM) log lengths. One body serves
/// [`Simulator::metrics_snapshot`] and a core's streaming emission,
/// which passes itself as the only core.
fn metrics_of(cores: &[Core], core_of: &[(usize, usize)], logs: (usize, usize)) -> MetricsSnapshot {
    let sum = |count: fn(&Core) -> u64| cores.iter().map(count).sum::<u64>();
    let mut s = MetricsSnapshot::new(cores[0].cal.now());
    let tx = tx_stats_of(cores);
    s.push_counter("medium.transmissions", tx.transmissions);
    s.push_counter("medium.collided", tx.collided);
    s.push_counter("medium.jammed", tx.jammed);
    s.push_counter("fidelity.promotions", sum(|c| c.fidelity_promotions));
    s.push_counter("fidelity.demotions", sum(|c| c.fidelity_demotions));
    s.push_counter("engine.steps", sum(|c| c.steps_total));
    s.push_counter("faults.applied", sum(|c| c.faults_applied));
    s.push_counter("events.lc", logs.0 as u64);
    s.push_counter("events.lm", logs.1 as u64);
    s.push_counter("capture.records", sum(|c| c.medium.capture().len() as u64));
    for (d, &(c, l)) in core_of.iter().enumerate() {
        let rep = cores[c].power_report(l);
        let lc = &cores[c].devices[l].lc;
        s.push_counter(format!("dev{d}.power.tx_us"), rep.tx.us());
        s.push_counter(format!("dev{d}.power.rx_us"), rep.rx.us());
        s.push_counter(
            format!("dev{d}.buffer.dropped_bytes"),
            lc.dropped_tx_bytes(),
        );
        s.push_gauge(
            format!("dev{d}.buffer.queued_bytes"),
            lc.queued_tx_bytes() as f64,
        );
        s.push_gauge(
            format!("dev{d}.fidelity.promoted"),
            if lc.stat_promoted() { 1.0 } else { 0.0 },
        );
    }
    s.push_gauge("medium.ber", measured_ber_of(cores));
    s.push_gauge(
        "medium.bad_rate",
        channel_quality_of(cores).total().bad_rate(),
    );
    s
}

/// Field-wise sum of the cores' medium statistics.
fn tx_stats_of(cores: &[Core]) -> TxStats {
    let mut acc = TxStats::default();
    for core in cores {
        acc += core.medium.tx_stats();
    }
    acc
}

/// Per-channel sum of the cores' medium quality counters.
fn channel_quality_of(cores: &[Core]) -> ChannelQuality {
    let mut acc = ChannelQuality::default();
    for core in cores {
        acc += core.medium.channel_quality();
    }
    acc
}

/// Bit-error fraction over the raw counters of every core's medium.
fn measured_ber_of(cores: &[Core]) -> f64 {
    let (mut flipped, mut bits) = (0u64, 0u64);
    for core in cores {
        let (f, b) = core.medium.bit_error_totals();
        flipped += f;
        bits += b;
    }
    if bits == 0 {
        0.0
    } else {
        flipped as f64 / bits as f64
    }
}

impl Core {
    /// Runs a link-manager request on local device `dev`.
    fn lm_request<F>(&mut self, dev: usize, f: F)
    where
        F: FnOnce(&mut LinkManager, u64) -> Vec<LmOutput>,
    {
        if self.crashed[dev] {
            return; // powered off: the host stack is down too
        }
        let now = self.cal.now();
        let now_slot = now.slots();
        let outs = f(&mut self.devices[dev].lm, now_slot);
        self.apply_lm_outputs(dev, outs, now);
        // Called between steps: the lockstep tick at `now` has already
        // run, so the wakeup floor is the next tick.
        self.rearm_wakeup(dev, now + SimDuration::from_ns(1));
    }

    /// Steps every event up to `until`, then clamps the clock to it.
    fn run_until(&mut self, until: SimTime) {
        self.run_cap = until;
        while let Some(t) = self.cal.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.cal.advance_to(until);
    }

    /// The event search's unit of work for core `me`: steps events up
    /// to `cap`, each only while it precedes `rival` (the next event of
    /// any other core) in the search's global `(instant, core)` order,
    /// and stops after the first step that logs an LC event. Returns
    /// the instant of the last step. Steps that log nothing need no
    /// scan or merge, so batching them takes exactly the steps the
    /// one-at-a-time search would.
    fn step_until_logged(
        &mut self,
        cap: SimTime,
        me: usize,
        rival: Option<(SimTime, usize)>,
    ) -> SimTime {
        self.run_cap = cap;
        let logged = self.events.len();
        let mut last = self.cal.now();
        while let Some(t) = self.cal.peek_time() {
            if t > cap || rival.is_some_and(|r| (t, me) > r) {
                break;
            }
            self.step();
            last = t;
            if self.events.len() > logged {
                break;
            }
        }
        last
    }

    /// Power/activity report of local device `dev` over `[0, now]`.
    fn power_report(&self, dev: usize) -> DeviceReport<LifePhase> {
        let mut monitor = self.monitor.clone();
        let now = self.cal.now();
        if let Some(w) = &self.devices[dev].active {
            let end = now.max(w.opened_at);
            monitor.add_rx(dev, w.opened_at, end);
        }
        monitor.report(dev, now)
    }

    // ----- engine ----------------------------------------------------------

    fn step(&mut self) {
        let Some((t, ev)) = self.cal.pop() else {
            return;
        };
        self.steps_total += 1;
        self.steps_since_gc += 1;
        if self.steps_since_gc >= 8192 {
            self.steps_since_gc = 0;
            self.medium.gc(t, MEDIUM_RETENTION);
        }
        // Streaming metrics: one comparison per dispatched event when
        // enabled, one `Option` discriminant test when not.
        if self.metrics.as_ref().is_some_and(|m| t >= m.next_at) {
            self.emit_metrics();
        }
        match ev {
            Ev::Tick(dev) => {
                let ff = self.devices[dev].lc.ff_until();
                if ff > t {
                    // The statistical tier already simulated this
                    // controller through `[t, ff)`: resume ticking at
                    // the first half-slot boundary at or past `ff`
                    // instead of dispatching provable no-ops.
                    let hs = SimDuration::HALF_SLOT.ns();
                    let at = SimTime::from_ns(ff.ns().div_ceil(hs) * hs);
                    self.cal.schedule(at, Ev::Tick(dev));
                    return;
                }
                self.cal.schedule(t + SimDuration::HALF_SLOT, Ev::Tick(dev));
                self.tick_device(dev, t);
            }
            Ev::Wake { seq } => {
                if seq != self.wake_seq {
                    return; // superseded by a later re-arm
                }
                // Devices sharing a wake instant tick in index order —
                // the same relative order the lockstep tick cascade
                // establishes at every instant.
                for dev in 0..self.devices.len() {
                    if self.wake[dev] == Some(t) {
                        self.wake[dev] = None;
                        self.tick_device(dev, t);
                        self.recompute_wakeup(dev, t + SimDuration::from_ns(1));
                    }
                }
                self.arm_wake();
            }
            Ev::Command { dev, cmd, inserted } => {
                if self.crashed[dev] {
                    return; // powered off: queued host commands are lost
                }
                self.capture_lmp_out(dev, &cmd, t);
                let actions = self.devices[dev].lc.command(cmd, t);
                self.apply_actions(dev, actions, t);
                // A command scheduled *before* this instant runs ahead of
                // the device's lockstep tick at this instant (FIFO by
                // insertion), so that tick sees post-command state and
                // may act: the wakeup floor includes the instant itself.
                // A command issued *at* this instant lands after the tick
                // cascade; the floor is the next tick.
                let floor = if inserted < t {
                    t
                } else {
                    t + SimDuration::from_ns(1)
                };
                self.rearm_wakeup(dev, floor);
            }
            Ev::TxStart { dev, channel, bits } => {
                if self.crashed[dev] || self.muted[dev] {
                    return; // the packet never reaches the antenna
                }
                let dur = SimDuration::from_bits(bits.len());
                let end = t + dur;
                self.monitor.add_tx(dev, t, end);
                self.recorder
                    .record(t, self.devices[dev].sig_tx, TraceValue::Bit(true));
                self.recorder
                    .record(end, self.devices[dev].sig_tx, TraceValue::Bit(false));
                let tx = self.medium.begin_tx(dev, channel, t, bits);
                // Determine listeners now: open windows on this channel
                // — in spatial mode, only on radios within interaction
                // range of the transmitter (a far window stays open and
                // never hears the packet).
                let mut listeners = Vec::new();
                for (i, cell) in self.devices.iter_mut().enumerate() {
                    if i == dev || cell.rx_busy_until > t || !self.medium.in_range(dev, i) {
                        continue;
                    }
                    if self.crashed[i] || self.muted[i] {
                        continue; // faulted radio hears nothing
                    }
                    let Some(w) = &cell.active else { continue };
                    if w.channel != channel {
                        continue;
                    }
                    let opens_in_time = w.opened_at <= t + RX_UNCERTAINTY;
                    let still_open = w.until.is_none_or(|u| u >= t);
                    if opens_in_time && still_open {
                        cell.rx_busy_until = end;
                        listeners.push(i);
                    }
                }
                if !listeners.is_empty() {
                    let at = self
                        .medium
                        .delivery_time(tx)
                        .expect("fresh transmission is retained");
                    self.cal.schedule(at, Ev::Deliver { tx, listeners });
                }
            }
            Ev::Deliver { tx, listeners } => {
                let Some(rec) = self.medium.receive(tx) else {
                    return;
                };
                let rxd = RxDelivery {
                    bits: rec.bits,
                    collision_mask: rec.collision_mask,
                    rf_channel: rec.rf_channel,
                    start: rec.start,
                    end: rec.end,
                };
                for dev in listeners {
                    if self.crashed[dev] || self.muted[dev] {
                        continue; // faulted after the window latched on
                    }
                    let actions = self.devices[dev].lc.on_rx(&rxd, t);
                    self.apply_actions(dev, actions, t);
                    // Receptions land off the half-slot grid (packet end
                    // + modem delay): the next tick that can act is
                    // strictly after this instant.
                    self.recompute_wakeup(dev, t + SimDuration::from_ns(1));
                }
                if self.engine == Engine::EventDriven {
                    self.arm_wake();
                }
            }
            Ev::WindowOpen { dev, id } => {
                let cell = &mut self.devices[dev];
                let Some(pos) = cell.pending.iter().position(|p| p.id == id) else {
                    return; // cancelled by RxOff
                };
                let p = cell.pending.remove(pos);
                if cell.rx_busy_until > t {
                    return; // receiver occupied by an ongoing packet
                }
                self.open_window(dev, p.channel, p.until, t, id);
            }
            Ev::WindowClose { dev, id } => {
                let cell = &mut self.devices[dev];
                let Some(w) = &cell.active else { return };
                if w.id != id {
                    return;
                }
                if cell.rx_busy_until > t {
                    // Reception in progress: stay on until it ends.
                    self.cal
                        .schedule(cell.rx_busy_until, Ev::WindowClose { dev, id });
                    return;
                }
                let w = cell.active.take().expect("checked above");
                self.commit_rx(dev, w.opened_at, t);
            }
            Ev::Fault { idx } => self.apply_fault(idx, t),
        }
    }

    /// Streams one metrics line, out of the dispatch path. Streaming
    /// pins the run to one core, so this core is the whole simulator,
    /// its devices in global order.
    #[cold]
    fn emit_metrics(&mut self) {
        let identity: Vec<(usize, usize)> = (0..self.devices.len()).map(|l| (0, l)).collect();
        let logs = (self.events.len(), self.lm_events.len());
        let snap = metrics_of(std::slice::from_ref(self), &identity, logs);
        if let Some(m) = self.metrics.as_mut() {
            m.emit(snap);
        }
    }

    /// One device tick: baseband half-slot work plus, at whole-slot
    /// boundaries, the link manager's scheduled mode changes. Shared by
    /// both engines so a woken tick is byte-for-byte a lockstep tick.
    ///
    /// The statistical tier hooks in first: when this device belongs to
    /// a promotable link pair whose master would transmit at `t`, the
    /// whole quiet span ahead is batched analytically and the ordinary
    /// tick below sees a fast-forwarded controller (its `on_tick` is a
    /// no-op and the manager has nothing pending — both are promotion
    /// preconditions).
    fn tick_device(&mut self, dev: usize, t: SimTime) {
        self.try_stat_batch(dev, t);
        let actions = self.devices[dev].lc.on_tick(t);
        self.apply_actions(dev, actions, t);
        if t.ns().is_multiple_of(SimDuration::SLOT.ns()) {
            let outs = self.devices[dev].lm.poll(t.slots());
            self.apply_lm_outputs(dev, outs, t);
        }
    }

    /// Logs an event produced by the statistical tier, mirroring the
    /// `LcAction::Event` arm of `apply_actions`. The tier never batches
    /// LMP traffic or phase changes, so the manager provably ignores
    /// everything routed through here.
    /// Bumps the metrics hub's fidelity-tier residency counters; called
    /// at every event-log push site so the counts never miss a
    /// transition regardless of which path logged it.
    fn note_fidelity(&mut self, event: &LcEvent) {
        if let LcEvent::FidelityChanged { promoted } = event {
            if *promoted {
                self.fidelity_promotions += 1;
            } else {
                self.fidelity_demotions += 1;
            }
        }
    }

    /// Captures an outbound LMP PDU (the host-layer side of the packet
    /// capture); no-op for other commands or when capture is off.
    fn capture_lmp_out(&mut self, dev: usize, cmd: &LcCommand, now: SimTime) {
        if !self.medium.capture().is_enabled() {
            return;
        }
        if let LcCommand::Lmp { lt_addr, data } = cmd {
            let rec = CaptureRecord {
                at: now,
                dir: CaptureDir::Sent,
                kind: CaptureKind::Lmp,
                device: dev,
                channel: *lt_addr,
                collided: false,
                jammed: false,
                orig_bits: data.len() * 8,
                data: data.clone(),
            };
            self.medium.capture_mut().push(rec);
        }
    }

    fn log_stat_event(&mut self, dev: usize, at: SimTime, event: LcEvent) {
        // The manager only ever reacts to LMP-carrying `AclReceived`
        // events, which the stability gate keeps out of batches — so
        // release builds skip the call and debug builds prove the claim.
        #[cfg(debug_assertions)]
        {
            let outs = self.devices[dev].lm.on_lc_event(&event, at.slots());
            debug_assert!(
                outs.is_empty(),
                "statistical tier batched an LM-visible event"
            );
        }
        self.note_fidelity(&event);
        self.events.push(LoggedEvent {
            at,
            device: dev,
            event,
        });
    }

    /// The statistical receive path: when `dev` is one end of a link
    /// eligible for the statistical tier and its master transmits at
    /// `t`, advances the pair analytically through as many slot pairs
    /// as provably stay undisturbed, then fast-forwards both
    /// controllers past the batched span.
    ///
    /// Eligibility is split in two (see `docs/FIDELITY.md`): *attempt*
    /// conditions (is this a lone-slave piconet whose master sends data
    /// at `t`?) fail silently, while *stability* conditions — pending
    /// AFH switch, LMP traffic, co-channel occupancy, an interferer on
    /// a used channel, any other device touching the radio — demote a
    /// promoted link back to bit level on the spot, logging
    /// [`LcEvent::FidelityChanged`] so scenarios can watch the tracker.
    fn try_stat_batch(&mut self, dev: usize, t: SimTime) {
        if self.fidelity == Fidelity::Bit {
            return;
        }
        // Identify the pair from whichever end ticked first this
        // instant (device order is arbitrary relative to roles).
        let (m_dev, s_dev) = {
            let lc = &self.devices[dev].lc;
            if let Some(slave_addr) = lc.stat_master_attempt(t) {
                let Some(s) = self.device_by_addr(slave_addr) else {
                    return;
                };
                (dev, s)
            } else if let [link] = lc.slave_masters().as_slice() {
                let Some(m) = self.device_by_addr(link.1) else {
                    return;
                };
                if self.devices[m].lc.stat_master_attempt(t) != Some(lc.addr()) {
                    return;
                }
                (m, dev)
            } else {
                return;
            }
        };
        if !self.same_comp(m_dev, s_dev) {
            // Out-of-range "pair": a sharded core would not even see
            // the peer.
            return;
        }
        let m_addr = self.devices[m_dev].lc.addr();
        let now_slot = t.slots();

        // Stability gate: any failure here is contention; a promoted
        // link demotes to bit level on this very slot.
        let stable = self.devices[m_dev].lc.stat_master_stable(now_slot)
            && self.devices[s_dev].lc.stat_slave_ready(m_addr, t)
            && self.devices[m_dev].lc.afh_map_at(now_slot)
                == self.devices[s_dev].lc.afh_map_at(now_slot)
            && self.devices[m_dev].lm.next_pending_slot().is_none()
            && self.devices[s_dev].lm.next_pending_slot().is_none()
            && !self.fault_touched(m_dev)
            && !self.fault_touched(s_dev)
            && self.comp_quiet(m_dev, t)
            && self.pair_channels_clear(m_dev, now_slot)
            && [m_dev, s_dev].iter().all(|&d| {
                let c = &self.devices[d];
                // A listen window the pair itself opened at this very
                // instant is not contention: the medium is quiet (gated
                // above), and whichever member ticks first at a shared
                // instant legitimately opens one when the batch below
                // comes up empty. Treating it as busy would make the
                // demotion decision depend on same-instant tick order,
                // which differs between the engines.
                c.active.as_ref().is_none_or(|w| w.opened_at >= t)
                    && c.pending.is_empty()
                    && c.rx_busy_until <= t
            });
        if !stable {
            if self.devices[m_dev].lc.stat_promoted() {
                self.devices[m_dev].lc.set_stat_promoted(false);
                self.log_stat_event(m_dev, t, LcEvent::FidelityChanged { promoted: false });
            }
            return;
        }
        // Auto tier: hold off until the master's channel assessment has
        // enough receptions for a converged per-channel BER picture.
        if self.fidelity == Fidelity::Auto
            && !self.devices[m_dev].lc.stat_promoted()
            && self.devices[m_dev].lc.channel_assessment().samples() < 64
        {
            return;
        }

        // Batch horizon: the run cap, any pending calendar event other
        // than the engines' own tick/wake dispatches (commands, RF
        // activity), and the instant any third device would wake. Both
        // engines compute the same value, so their batches — and hence
        // their RNG streams — stay bit-identical. In spatial mode the
        // scan is scoped to the pair's connected component: devices and
        // traffic beyond radio reach can neither disturb the pair nor
        // shorten its batches, which keeps a one-core floor-wide run
        // bit-identical to the sharded one where the component is alone
        // in its own core.
        let mut horizon = self.run_cap;
        for (at, ev) in self.cal.iter() {
            let relevant = match ev {
                Ev::Tick(_) | Ev::Wake { .. } => false,
                Ev::Command { dev, .. }
                | Ev::TxStart { dev, .. }
                | Ev::WindowOpen { dev, .. }
                | Ev::WindowClose { dev, .. } => self.same_comp(*dev, m_dev),
                Ev::Deliver { listeners, .. } => {
                    listeners.iter().any(|&d| self.same_comp(d, m_dev))
                }
                // A pending fault bounds the batch like any other
                // outside disturbance. Noise faults are global (they
                // retune the whole band); device faults matter iff the
                // target shares the pair's component — exactly the set
                // of faults a sharded run's own calendar would contain.
                Ev::Fault { idx } => match self.faults.events()[*idx].device {
                    None => true,
                    Some(d) => self.same_comp(d, m_dev),
                },
            };
            if relevant {
                horizon = horizon.min(at);
            }
        }
        for (d, cell) in self.devices.iter().enumerate() {
            if d == m_dev || d == s_dev || !self.same_comp(d, m_dev) {
                continue;
            }
            if cell.active.is_some()
                || !cell.pending.is_empty()
                || cell.rx_busy_until > t
                || cell.lc.has_active_link()
            {
                // A third radio is active right now — or holds an
                // active-mode link in a piconet of its own. The latter
                // exchanges traffic (at least Tpoll keepalives) every
                // few slots, and once such a pair is promoted too,
                // that traffic no longer shows up as bit-level air
                // time, so two mutually promoted pairs would batch
                // straight past each other's collisions. Either way:
                // co-channel contention for the tracker, not a horizon
                // matter. A piconet member sleeping through a hold /
                // sniff / park window is fine — its wakeup caps the
                // batch horizon below, and waking demotes the pair
                // here on the next attempt.
                if self.devices[m_dev].lc.stat_promoted() {
                    self.devices[m_dev].lc.set_stat_promoted(false);
                    self.log_stat_event(m_dev, t, LcEvent::FidelityChanged { promoted: false });
                }
                return;
            }
            if let Some(w) = cell.lc.next_wakeup(t + SimDuration::from_ns(1)) {
                horizon = horizon.min(w);
            }
            if let Some(slot) = cell.lm.next_pending_slot() {
                horizon = horizon.min(SimTime::from_ns(slot * SimDuration::SLOT.ns()));
            }
        }

        // Run the batch, applying each slot pair as it is produced.
        // The controllers are borrowed per pair (a split_at_mut is
        // O(1)) so the bookkeeping below can use `&mut self`; the
        // events scratch buffer is reused across the whole batch.
        let mut events_buf = Vec::new();
        let mut cursor = t;
        let (mut m_tx_ns, mut m_rx_ns, mut s_tx_ns, mut s_rx_ns) = (0u64, 0u64, 0u64, 0u64);
        loop {
            let rep = {
                let (lo, hi) = self.devices.split_at_mut(m_dev.max(s_dev));
                let (m_lc, s_lc) = if m_dev < s_dev {
                    (&mut lo[m_dev].lc, &mut hi[0].lc)
                } else {
                    (&mut hi[0].lc, &mut lo[s_dev].lc)
                };
                stat_slot_pair(
                    m_lc,
                    s_lc,
                    &self.error_model,
                    cursor,
                    self.modem_delay,
                    horizon,
                    &mut events_buf,
                )
            };
            let Some(rep) = rep else { break };
            if cursor == t {
                // First pair of the batch: promotion bookkeeping.
                if !self.devices[m_dev].lc.stat_promoted() {
                    self.devices[m_dev].lc.set_stat_promoted(true);
                    self.log_stat_event(m_dev, t, LcEvent::FidelityChanged { promoted: true });
                }
            }
            // Mirror the bit-level path's bookkeeping: per-packet
            // medium counters, power-monitor RF time (accumulated here,
            // flushed in one bulk call per batch — the whole span sits
            // in one phase segment because promotion quiesces both
            // devices' phase sources) and the delivery events with
            // their bit-accurate timestamps.
            self.medium.record_stat_tx(rep.fwd_rf_channel);
            let fwd_ns = SimDuration::from_bits(rep.fwd_air_bits).ns();
            m_tx_ns += fwd_ns;
            s_rx_ns += fwd_ns;
            match rep.resp {
                Some(r) => {
                    self.medium.record_stat_tx(r.rf_channel);
                    let resp_ns = SimDuration::from_bits(r.air_bits).ns();
                    s_tx_ns += resp_ns;
                    m_rx_ns += resp_ns;
                }
                // Silent slave: the master still listens for its
                // carrier-detect window at the response slot.
                None => m_rx_ns += self.peek.ns(),
            }
            for (at, side, event) in events_buf.drain(..) {
                let d = match side {
                    StatSide::Master => m_dev,
                    StatSide::Slave => s_dev,
                };
                self.log_stat_event(d, at, event);
            }
            cursor = rep.end;
        }
        if cursor == t {
            // Horizon too close for even one pair: not contention, just
            // no batch — the bit-level path covers this slot.
            return;
        }
        self.monitor.add_bulk(m_dev, t, m_tx_ns, m_rx_ns);
        self.monitor.add_bulk(s_dev, t, s_tx_ns, s_rx_ns);
        self.devices[m_dev].lc.set_ff_until(cursor);
        self.devices[s_dev].lc.set_ff_until(cursor);
    }

    /// Whether `a` and `b` belong to the same connected component of
    /// the in-range graph. Always true without a spatial model.
    fn same_comp(&self, a: usize, b: usize) -> bool {
        self.comp_of.is_empty() || self.comp_of[a] == self.comp_of[b]
    }

    // ----- faults ----------------------------------------------------------

    /// Whether a fault currently touches `d` — crashed, muted, drifted,
    /// or with a BER degrade on its radio. Any of these breaks the
    /// statistical tier's closed-form assumptions for links involving
    /// `d`, so the stability gate refuses batches over it.
    fn fault_touched(&self, d: usize) -> bool {
        self.crashed[d] || self.muted[d] || self.drifted[d] || self.medium.degraded(d)
    }

    /// Demotes every promoted master affected by a fault landing now:
    /// all promoted links in `around`'s connected component for device
    /// faults, or globally (`None`) for band-wide noise faults. Logged
    /// as [`LcEvent::FidelityChanged`] at the fault instant, so the
    /// event log pins the demotion to the fault under both engines.
    fn demote_promoted(&mut self, around: Option<usize>, t: SimTime) {
        let hit: Vec<usize> = (0..self.devices.len())
            .filter(|&d| around.is_none_or(|a| self.same_comp(a, d)))
            .filter(|&d| self.devices[d].lc.stat_promoted())
            .collect();
        for d in hit {
            self.devices[d].lc.set_stat_promoted(false);
            self.log_stat_event(d, t, LcEvent::FidelityChanged { promoted: false });
        }
    }

    /// Applies fault `idx` of the plan at its scheduled instant. Faults
    /// are scheduled at build time, so they dispatch ahead of every
    /// tick/wake sharing their instant — state below is what the
    /// devices' own processing at `t` observes, under both engines.
    fn apply_fault(&mut self, idx: usize, t: SimTime) {
        let ev = self.faults.events()[idx];
        match ev.kind {
            FaultKind::Crash => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.crashed[dev] = true;
                // Power off the controller (kills links, flushes
                // buffers, logs the dropped user bytes) and reset the
                // manager: a revived device restarts from standby with
                // its role intact but no link state — peers only learn
                // of the death through their supervision timers.
                let actions = self.devices[dev].lc.command(LcCommand::PowerOff, t);
                self.apply_actions(dev, actions, t);
                let role = self.devices[dev].lm.role();
                self.devices[dev].lm = LinkManager::new(role);
                self.rearm_wakeup(dev, t);
            }
            FaultKind::Revive => {
                let dev = ev.device.expect("device fault");
                self.crashed[dev] = false;
                self.rearm_wakeup(dev, t);
            }
            FaultKind::Mute => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.muted[dev] = true;
            }
            FaultKind::Unmute => {
                let dev = ev.device.expect("device fault");
                self.muted[dev] = false;
            }
            FaultKind::Degrade { ber, ramp_slots } => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.medium
                    .set_degrade(dev, ber, t, SimDuration::from_slots(ramp_slots));
            }
            FaultKind::Heal => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.medium.clear_degrade(dev);
            }
            FaultKind::Drift { ticks } => {
                let dev = ev.device.expect("device fault");
                self.demote_promoted(Some(dev), t);
                self.drifted[dev] = true;
                self.devices[dev].lc.clock_jump(ticks);
                self.rearm_wakeup(dev, t);
            }
            FaultKind::NoiseOn { lo, width, duty } => {
                self.demote_promoted(None, t);
                self.medium.add_interferer(Interferer {
                    first_channel: lo,
                    width,
                    duty,
                });
            }
            FaultKind::NoiseOff { lo, width } => {
                self.demote_promoted(None, t);
                self.medium.remove_interferer(lo, width);
            }
        }
        self.faults_applied += 1;
    }

    /// Component-scoped medium quiescence: whether every device in
    /// `dev`'s connected component has finished its bit-level
    /// transmissions by `at`. Falls back to the global
    /// [`Medium::quiet_at`] without a spatial model. Scoping by
    /// component (not just the 3×3 cell neighbourhood) matches exactly
    /// what a sharded run's per-component medium observes.
    fn comp_quiet(&self, dev: usize, at: SimTime) -> bool {
        if self.comp_of.is_empty() {
            return self.medium.quiet_at(at);
        }
        let comp = self.comp_of[dev];
        (0..self.devices.len()).all(|d| self.comp_of[d] != comp || self.medium.last_end_of(d) <= at)
    }

    /// Whether every RF channel the pair can hop to is free of
    /// configured interferers (any duty at all counts as contention).
    fn pair_channels_clear(&self, m_dev: usize, now_slot: u64) -> bool {
        let map = self.devices[m_dev].lc.afh_map_at(now_slot);
        (0..btsim_channel::RF_CHANNELS).all(|ch| {
            !map.is_none_or(|m| m.is_used(ch)) || self.medium.duty_class(ch) == DutyClass::Clear
        })
    }

    /// Index of the device with the given address, if any.
    fn device_by_addr(&self, addr: BdAddr) -> Option<usize> {
        self.devices.iter().position(|c| c.lc.addr() == addr)
    }

    /// Event-driven: refreshes `dev`'s pending wake from its controller
    /// hint and its link manager's pending mode-change slots. `floor` is
    /// the earliest instant the wake may land on.
    fn recompute_wakeup(&mut self, dev: usize, floor: SimTime) {
        if self.engine != Engine::EventDriven {
            return;
        }
        let cell = &self.devices[dev];
        let mut wake = cell.lc.next_wakeup(floor);
        if let Some(slot) = cell.lm.next_pending_slot() {
            // The manager is polled at whole-slot ticks once the slot
            // counter reaches the pending instant.
            let slot_ns = SimDuration::SLOT.ns();
            let at = SimTime::from_ns((slot * slot_ns).max(floor.ns().div_ceil(slot_ns) * slot_ns));
            wake = Some(wake.map_or(at, |w| w.min(at)));
        }
        self.wake[dev] = wake;
    }

    /// [`Core::recompute_wakeup`] + [`Core::arm_wake`].
    fn rearm_wakeup(&mut self, dev: usize, floor: SimTime) {
        if self.engine != Engine::EventDriven {
            return;
        }
        self.recompute_wakeup(dev, floor);
        self.arm_wake();
    }

    /// Schedules the dispatch event at the earliest pending wake. Always
    /// re-issued (with a fresh sequence number) after anything that can
    /// move a wake, so the live instance is the last insertion of the
    /// current instant — mirroring where the lockstep tick cascade sits
    /// relative to events scheduled from earlier instants.
    fn arm_wake(&mut self) {
        let Some(at) = self.wake.iter().flatten().min().copied() else {
            return;
        };
        self.wake_seq += 1;
        let at = at.max(self.cal.now());
        self.cal.schedule(at, Ev::Wake { seq: self.wake_seq });
    }

    fn open_window(
        &mut self,
        dev: usize,
        channel: u8,
        until: Option<SimTime>,
        now: SimTime,
        id: u64,
    ) {
        // Close any previous window first.
        if let Some(w) = self.devices[dev].active.take() {
            self.commit_rx(dev, w.opened_at, now);
        }
        self.devices[dev].active = Some(ActiveWindow {
            id,
            channel,
            opened_at: now,
            until,
        });
        self.recorder
            .record(now, self.devices[dev].sig_rx, TraceValue::Bit(true));
        if let Some(u) = until {
            self.cal.schedule(u.max(now), Ev::WindowClose { dev, id });
        }
    }

    fn commit_rx(&mut self, dev: usize, from: SimTime, to: SimTime) {
        self.monitor.add_rx(dev, from, to);
        self.recorder
            .record(to, self.devices[dev].sig_rx, TraceValue::Bit(false));
    }

    fn apply_actions(&mut self, dev: usize, actions: Vec<LcAction>, now: SimTime) {
        for a in actions {
            match a {
                LcAction::Tx {
                    at,
                    rf_channel,
                    bits,
                } => {
                    self.cal.schedule(
                        at.max(now),
                        Ev::TxStart {
                            dev,
                            channel: rf_channel,
                            bits,
                        },
                    );
                }
                LcAction::RxWindow {
                    from,
                    until,
                    rf_channel,
                } => {
                    let id = self.next_window_id;
                    self.next_window_id += 1;
                    if from <= now {
                        if self.devices[dev].rx_busy_until <= now {
                            self.open_window(dev, rf_channel, until, now, id);
                        }
                    } else {
                        self.devices[dev].pending.push(PendingWindow {
                            id,
                            channel: rf_channel,
                            from,
                            until,
                        });
                        self.cal.schedule(from, Ev::WindowOpen { dev, id });
                    }
                }
                LcAction::RxOff => {
                    self.devices[dev].pending.clear();
                    if let Some(w) = self.devices[dev].active.take() {
                        self.commit_rx(dev, w.opened_at, now);
                    }
                }
                LcAction::Event(event) => {
                    // Phase changes feed the power monitor.
                    if let LcEvent::PhaseChanged { phase } = &event {
                        self.monitor.set_phase(dev, *phase, now);
                    }
                    self.note_fidelity(&event);
                    // Inbound LMP PDUs join the capture alongside the
                    // air packets that carried them.
                    if self.medium.capture().is_enabled() {
                        if let LcEvent::AclReceived {
                            lt_addr,
                            llid: Llid::Lmp,
                            data,
                        } = &event
                        {
                            let rec = CaptureRecord {
                                at: now,
                                dir: CaptureDir::Received,
                                kind: CaptureKind::Lmp,
                                device: dev,
                                channel: *lt_addr,
                                collided: false,
                                jammed: false,
                                orig_bits: data.len() * 8,
                                data: data.clone(),
                            };
                            self.medium.capture_mut().push(rec);
                        }
                    }
                    // LMP PDUs drive the device's link manager; its
                    // outputs apply after the event is logged.
                    let outs = self.devices[dev].lm.on_lc_event(&event, now.slots());
                    self.events.push(LoggedEvent {
                        at: now,
                        device: dev,
                        event,
                    });
                    self.apply_lm_outputs(dev, outs, now);
                }
            }
        }
    }

    fn apply_lm_outputs(&mut self, dev: usize, outs: Vec<LmOutput>, now: SimTime) {
        for o in outs {
            match o {
                LmOutput::Command(cmd) => {
                    self.capture_lmp_out(dev, &cmd, now);
                    let actions = self.devices[dev].lc.command(cmd, now);
                    self.apply_actions(dev, actions, now);
                }
                LmOutput::Event(event) => {
                    self.lm_events.push(LoggedLmEvent {
                        at: now,
                        device: dev,
                        event,
                    });
                }
            }
        }
    }
}

/// Merges `incoming` (any order) into `dst`, which is and stays sorted
/// by `key`; on equal keys existing entries come first and incoming
/// entries keep their relative order, so each device's event stream
/// stays chronological across merges.
fn merge_sorted<T, K: Ord + Copy>(dst: &mut Vec<T>, mut incoming: Vec<T>, key: impl Fn(&T) -> K) {
    incoming.sort_by_key(&key); // stable
    let Some(first) = incoming.first() else {
        return;
    };
    let start = dst.partition_point(|e| key(e) <= key(first));
    let tail = dst.split_off(start);
    let mut ti = tail.into_iter().peekable();
    let mut ii = incoming.into_iter().peekable();
    loop {
        let take_tail = match (ti.peek(), ii.peek()) {
            (Some(t), Some(i)) => key(t) <= key(i),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let next = if take_tail { ti.next() } else { ii.next() };
        dst.push(next.expect("peeked non-empty side"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_device_sim(seed: u64, ber: f64) -> (Simulator, usize, usize) {
        let mut cfg = SimConfig::default();
        cfg.channel.ber = ber;
        let mut b = SimBuilder::new(seed, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        (b.build(), m, s)
    }

    #[test]
    fn duplicate_address_is_a_typed_error() {
        let mut b = SimBuilder::new(1, SimConfig::default());
        let addr = BdAddr::new(1, 2, 0x123456);
        let first = b.add_device_with_addr("a", addr).expect("fresh address");
        let err = b.add_device_with_addr("b", addr).expect_err("duplicate");
        assert_eq!(
            err,
            DuplicateAddr {
                addr,
                existing: first
            }
        );
        assert!(err.to_string().contains("already registered"));
        // Auto-generated addresses skip explicitly registered ones.
        let mut b2 = SimBuilder::new(1, SimConfig::default());
        let auto0 = {
            let mut probe = SimBuilder::new(1, SimConfig::default());
            let d = probe.add_device("probe");
            probe.build().lc(d).addr()
        };
        b2.add_device_with_addr("explicit", auto0).unwrap();
        let auto = b2.add_device("auto");
        let sim = b2.build();
        assert_ne!(sim.lc(auto).addr(), auto0);
    }

    #[test]
    fn inquiry_discovers_scanner_on_clean_channel() {
        let (mut sim, m, s) = two_device_sim(11, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.command(
            m,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 0,
            },
        );
        let found = sim.run_until_event(SimTime::from_us(10_000_000), |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert!(found.is_some(), "scanner not discovered within 10 s");
        let done = sim.run_until_event(SimTime::from_us(10_000_000), |e| {
            matches!(e.event, LcEvent::InquiryComplete { responses: 1 })
        });
        assert!(done.is_some());
    }

    #[test]
    fn page_with_exact_estimate_connects_quickly() {
        let (mut sim, m, s) = two_device_sim(5, 0.0);
        // Exact clock estimate: offset between the two CLKNs.
        let offset = sim
            .lc(m)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(s).clkn(SimTime::ZERO));
        sim.command(s, LcCommand::PageScan);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        let connected = sim.run_until_event(SimTime::from_us(200_000), |e| {
            matches!(e.event, LcEvent::Connected { .. })
        });
        let connected = connected.expect("slave must connect");
        let slots = connected.at.slots();
        assert!(
            slots <= 60,
            "page with exact estimate should connect within ~a train pass, took {slots} slots"
        );
        assert!(sim.lc(m).is_master());
        assert!(sim.lc(s).is_slave());
    }

    #[test]
    fn page_times_out_without_scanner() {
        let (mut sim, m, s) = two_device_sim(6, 0.0);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: 0,
                timeout_slots: 256,
            },
        );
        let failed = sim.run_until_event(SimTime::from_us(2_000_000), |e| {
            matches!(e.event, LcEvent::PageFailed { .. })
        });
        assert!(failed.is_some());
    }

    #[test]
    fn independent_cursors_do_not_alias() {
        let (mut sim, m, s) = two_device_sim(21, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.command(
            m,
            LcCommand::Inquiry {
                num_responses: 1,
                timeout_slots: 0,
            },
        );
        let cap = SimTime::from_us(10_000_000);
        // One observer consumes the log up to the inquiry result…
        let mut a = EventCursor::default();
        let found = sim.run_until_event_from(&mut a, cap, |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert!(found.is_some());
        // …a second, independent observer still sees it from the start.
        let mut b = EventCursor::default();
        let again = sim.run_until_event_from(&mut b, cap, |e| {
            matches!(e.event, LcEvent::InquiryResult { .. })
        });
        assert_eq!(found, again);
        // And the shared-cursor path is unaffected by either.
        let complete =
            sim.run_until_event(cap, |e| matches!(e.event, LcEvent::InquiryComplete { .. }));
        assert!(complete.is_some());
        // events_since drains exactly the unseen suffix.
        let mut c = sim.cursor();
        assert!(sim.events_since(&mut c).is_empty());
        let mut all = EventCursor::default();
        assert_eq!(sim.events_since(&mut all).len(), sim.events().len());
        assert!(sim.events_since(&mut all).is_empty());
    }

    #[test]
    fn deterministic_event_log() {
        let run = |seed| {
            let (mut sim, m, s) = two_device_sim(seed, 0.01);
            sim.command(s, LcCommand::InquiryScan);
            sim.command(
                m,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 4096,
                },
            );
            sim.run_until(SimTime::from_us(4_000_000));
            format!("{:?}", sim.events())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    /// Runs `drive` under both engines and asserts bit-identical event
    /// logs, LM logs, clock, power phases and RNG positions.
    fn assert_engines_agree(seed: u64, ber: f64, drive: impl Fn(&mut Simulator, usize, usize)) {
        let build = |engine: Engine| {
            let mut cfg = SimConfig::default();
            cfg.channel.ber = ber;
            cfg.engine = engine;
            let mut b = SimBuilder::new(seed, cfg);
            let m = b.add_device("master");
            let s = b.add_device("slave1");
            let mut sim = b.build();
            drive(&mut sim, m, s);
            sim
        };
        let lockstep = build(Engine::Lockstep);
        let event = build(Engine::EventDriven);
        assert_eq!(lockstep.now(), event.now(), "clocks diverged");
        assert_eq!(
            format!("{:?}", lockstep.events()),
            format!("{:?}", event.events()),
            "event logs diverged"
        );
        assert_eq!(
            format!("{:?}", lockstep.lm_events()),
            format!("{:?}", event.lm_events()),
            "LM logs diverged"
        );
        assert_eq!(
            lockstep.rng_fingerprint(),
            event.rng_fingerprint(),
            "RNG draws diverged"
        );
        for dev in 0..lockstep.device_count() {
            let (a, b) = (lockstep.power_report(dev), event.power_report(dev));
            // Compare phase by phase: the report's phase map has no
            // stable iteration order.
            for phase in [
                LifePhase::Standby,
                LifePhase::Inquiry,
                LifePhase::InquiryScan,
                LifePhase::Page,
                LifePhase::PageScan,
                LifePhase::Active,
                LifePhase::Sniff,
                LifePhase::Hold,
                LifePhase::Park,
            ] {
                assert_eq!(
                    format!("{:?}", a.phase(phase)),
                    format!("{:?}", b.phase(phase)),
                    "power diverged for device {dev} phase {phase:?}"
                );
            }
        }
    }

    /// A connected, ACL-saturated master/slave pair at the given
    /// fidelity tier, run for `slots` slots of traffic.
    fn saturated_pair(
        seed: u64,
        ber: f64,
        engine: Engine,
        fidelity: Fidelity,
        slots: u64,
    ) -> Simulator {
        let mut cfg = crate::scenario::paper_config();
        cfg.channel.ber = ber;
        cfg.engine = engine;
        cfg.fidelity = fidelity;
        let mut b = SimBuilder::new(seed, cfg);
        let m = b.add_device("master");
        let s = b.add_device("slave1");
        let mut sim = b.build();
        let lt = crate::scenario::connect_pair(&mut sim, m, s, SimTime::from_us(60_000_000))
            .expect("pair connects");
        sim.command(m, LcCommand::SetTpoll(2));
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0x5A; slots as usize * 9],
            },
        );
        let end = sim.now() + SimDuration::from_slots(slots);
        sim.run_until(end);
        sim
    }

    #[test]
    fn stat_tier_promotes_on_saturated_acl() {
        let sim = saturated_pair(15, 0.0, Engine::Lockstep, Fidelity::Stat, 2_000);
        let promoted = sim
            .events()
            .iter()
            .any(|e| matches!(e.event, LcEvent::FidelityChanged { promoted: true }));
        assert!(promoted, "saturated clean link never promoted");
        let delivered = sim
            .events()
            .iter()
            .filter(|e| matches!(e.event, LcEvent::AclDelivered { .. }))
            .count();
        assert!(delivered > 500, "only {delivered} fragments delivered");
    }

    #[test]
    fn stat_tier_at_zero_ber_matches_bit_tier_event_log_exactly() {
        // On a clean channel every statistical outcome is Clean, so the
        // batched ARQ timeline — packets, ACKs, timestamps — must be
        // *identical* to the bit-level one, not merely close.
        let strip = |sim: &Simulator| {
            let evs: Vec<String> = sim
                .events()
                .iter()
                .filter(|e| !matches!(e.event, LcEvent::FidelityChanged { .. }))
                .map(|e| format!("{e:?}"))
                .collect();
            (evs, format!("{:?}", sim.tx_stats()))
        };
        let bit = saturated_pair(21, 0.0, Engine::Lockstep, Fidelity::Bit, 1_000);
        let stat = saturated_pair(21, 0.0, Engine::Lockstep, Fidelity::Stat, 1_000);
        assert!(stat
            .events()
            .iter()
            .any(|e| matches!(e.event, LcEvent::FidelityChanged { promoted: true })));
        assert_eq!(strip(&bit), strip(&stat));
    }

    #[test]
    fn stat_tier_engines_agree_on_saturated_acl() {
        for ber in [0.0, 0.001] {
            let lockstep = saturated_pair(33, ber, Engine::Lockstep, Fidelity::Stat, 2_000);
            let event = saturated_pair(33, ber, Engine::EventDriven, Fidelity::Stat, 2_000);
            assert_eq!(lockstep.now(), event.now(), "clocks diverged at ber {ber}");
            assert_eq!(
                format!("{:?}", lockstep.events()),
                format!("{:?}", event.events()),
                "event logs diverged at ber {ber}"
            );
            assert_eq!(
                lockstep.rng_fingerprint(),
                event.rng_fingerprint(),
                "RNG draws diverged at ber {ber}"
            );
            assert_eq!(
                format!("{:?}", lockstep.tx_stats()),
                format!("{:?}", event.tx_stats()),
                "medium stats diverged at ber {ber}"
            );
            for dev in 0..lockstep.device_count() {
                assert_eq!(
                    format!("{:?}", lockstep.power_report(dev).phase(LifePhase::Active)),
                    format!("{:?}", event.power_report(dev).phase(LifePhase::Active)),
                    "active-phase power diverged for device {dev} at ber {ber}"
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_inquiry() {
        assert_engines_agree(31, 0.005, |sim, m, s| {
            sim.command(s, LcCommand::InquiryScan);
            sim.command(
                m,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 4096,
                },
            );
            sim.run_until(SimTime::from_us(4_000_000));
        });
    }

    #[test]
    fn engines_agree_on_connection_and_data() {
        assert_engines_agree(9, 0.0, |sim, m, s| {
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            sim.command(
                m,
                LcCommand::AclData {
                    lt_addr: lt,
                    data: (0..60u8).collect(),
                },
            );
            sim.run_until(sim.now() + SimDuration::from_slots(500));
        });
    }

    #[test]
    fn engines_agree_on_hold() {
        assert_engines_agree(12, 0.0, |sim, m, s| {
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            for _ in 0..3 {
                sim.command(
                    m,
                    LcCommand::Hold {
                        lt_addr: lt,
                        hold_slots: 300,
                    },
                );
                sim.command(
                    s,
                    LcCommand::Hold {
                        lt_addr: lt,
                        hold_slots: 300,
                    },
                );
                sim.run_until(sim.now() + SimDuration::from_slots(400));
            }
        });
    }

    #[test]
    fn event_engine_pops_far_fewer_calendar_events_on_hold() {
        let run = |engine: Engine| {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let mut b = SimBuilder::new(5, cfg);
            let m = b.add_device("master");
            let s = b.add_device("slave1");
            let mut sim = b.build();
            let offset = sim
                .lc(m)
                .clkn(SimTime::ZERO)
                .offset_to(sim.lc(s).clkn(SimTime::ZERO));
            sim.command(s, LcCommand::PageScan);
            sim.command(
                m,
                LcCommand::Page {
                    target: sim.lc(s).addr(),
                    clke_offset: offset,
                    timeout_slots: 0,
                },
            );
            sim.run_until_event(SimTime::from_us(500_000), |e| {
                matches!(e.event, LcEvent::Connected { .. })
            })
            .expect("connects");
            let lt = sim.lc(m).connected_slaves()[0].0;
            sim.command(
                m,
                LcCommand::Hold {
                    lt_addr: lt,
                    hold_slots: 4_000,
                },
            );
            sim.command(
                s,
                LcCommand::Hold {
                    lt_addr: lt,
                    hold_slots: 4_000,
                },
            );
            let before = sim.steps_total();
            sim.run_until(sim.now() + SimDuration::from_slots(4_100));
            sim.steps_total() - before
        };
        let lockstep = run(Engine::Lockstep);
        let event = run(Engine::EventDriven);
        assert!(
            event * 20 < lockstep,
            "hold window should collapse: lockstep {lockstep} vs event {event} steps"
        );
    }

    #[test]
    fn horizon_reached_clamps_the_clock() {
        let cfg = SimConfig {
            engine: Engine::EventDriven,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(3, cfg);
        let _ = b.add_device("master");
        let _ = b.add_device("slave1");
        let mut sim = b.build();
        // Standby devices: nothing will ever match; the typed error
        // reports the horizon and the clock lands exactly on it.
        let cap = SimTime::from_us(2_000_000);
        let mut cursor = EventCursor::default();
        let err = sim
            .try_run_until_event_from(&mut cursor, cap, |_| true)
            .expect_err("no events in standby");
        assert_eq!(err, HorizonReached { horizon: cap });
        assert_eq!(sim.now(), cap, "clock clamped to the horizon");
        assert!(err.to_string().contains("2000000"));
    }

    #[test]
    fn power_report_sees_scanner_rx_always_on() {
        let (mut sim, _m, s) = two_device_sim(3, 0.0);
        sim.command(s, LcCommand::InquiryScan);
        sim.run_until(SimTime::from_us(1_000_000));
        let rep = sim.power_report(s);
        // Scanning receivers are continuously active (paper Fig. 5).
        assert!(
            rep.rx_activity() > 0.95,
            "scanner rx activity {}",
            rep.rx_activity()
        );
    }

    #[test]
    fn data_transfer_end_to_end() {
        let (mut sim, m, s) = two_device_sim(9, 0.0);
        let offset = sim
            .lc(m)
            .clkn(SimTime::ZERO)
            .offset_to(sim.lc(s).clkn(SimTime::ZERO));
        sim.command(s, LcCommand::PageScan);
        sim.command(
            m,
            LcCommand::Page {
                target: sim.lc(s).addr(),
                clke_offset: offset,
                timeout_slots: 0,
            },
        );
        sim.run_until_event(SimTime::from_us(500_000), |e| {
            matches!(e.event, LcEvent::Connected { .. })
        })
        .expect("connection");
        let lt = sim.lc(m).connected_slaves()[0].0;
        sim.command(
            m,
            LcCommand::AclData {
                lt_addr: lt,
                data: (0..100u8).collect(),
            },
        );
        // Run long enough for several fragments and ACKs.
        sim.run_until(sim.now() + SimDuration::from_slots(600));
        let received: Vec<u8> = sim
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                LcEvent::AclReceived { data, .. } if e.device == s => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(received, (0..100u8).collect::<Vec<u8>>());
    }
}
