//! The four benchmark workloads.
//!
//! Every workload is a fixed unit of simulated work derived from the
//! seed: one *repetition* sets the simulator up (untimed, reported as
//! `setup_s`), runs the unit (timed, in steps) and digests the
//! simulated statistics. Repetitions of one invocation use the same
//! seed, so their digests must agree; `README.md` gives the rationale
//! of each workload.

use std::time::Instant;

use btsim_baseband::{LcCommand, LcEvent};
use btsim_channel::{ChannelConfig, Position, TxStats};
use btsim_core::campaign::{CampaignResult, PointResult};
use btsim_core::experiments::PAPER_BERS;
use btsim_core::net::{analytic_collision_rate, DenseFloorConfig, DenseFloorScenario};
use btsim_core::scenario::{
    connect_pair, paper_config, HoldConfig, HoldScenario, InquiryConfig, InquiryScenario,
    PageConfig, PageScenario, Scenario, SniffConfig, SniffScenario,
};
use btsim_core::{Engine, Fidelity, SimBuilder, SimConfig, Simulator};
use btsim_kernel::{CaptureDir, CaptureKind, CaptureRecord, SimDuration, SimTime};
use btsim_stats::{run_campaign, Record};

use crate::host::{fnv, fold_digests, proc_status_mb};
use crate::spans::span;

/// The named workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One ACL-saturated master-slave link, bit tier, lockstep.
    AclSaturated,
    /// Fig. 6 inquiry and Fig. 7 page campaigns over the nine BER points.
    PiconetCreation,
    /// Fig. 11 sniff and Fig. 12 hold sweeps on the event engine.
    PowerModes,
    /// 200 devices: 50 clusters of two co-located saturated piconets.
    DenseFloor,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::AclSaturated,
        Workload::PiconetCreation,
        Workload::PowerModes,
        Workload::DenseFloor,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AclSaturated => "acl_saturated",
            Workload::PiconetCreation => "piconet_creation",
            Workload::PowerModes => "power_modes",
            Workload::DenseFloor => "dense_floor",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a step is one Monte-Carlo realisation (campaign) rather
    /// than a fixed slice of simulated time (stream).
    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::PiconetCreation | Workload::PowerModes)
    }
}

/// Slots of the saturated link per repetition (~0.5 s of host time).
const ACL_SLOTS: u64 = 250_000;
/// Simulated slots per step of the saturated link (100 steps per
/// repetition, so each repetition has its own 90th percentile).
const ACL_SLICE: u64 = 2_500;
/// Monte-Carlo runs per BER point of the creation campaigns (900
/// realisations per repetition, about 0.7 s on two cores).
const CREATION_RUNS: usize = 50;
/// Seeds per interval point of the power-mode sweeps (100 realisations
/// per repetition).
const POWER_RUNS: usize = 5;
/// Cluster grid of the dense floor (`columns × rows`, two piconets each).
const FLOOR_GRID: (usize, usize) = (10, 5);
/// Slots of the dense floor per repetition (~0.4 s of host time).
const FLOOR_SLOTS: u64 = 1_000;
/// Simulated slots per step of the dense floor.
const FLOOR_SLICE: u64 = 10;
/// Floors the dense-floor anchor is sampled over (300 clusters): the
/// collided fraction of one floor varies by about 10 % from seed to seed
/// with the clusters' clock phases.
const ANCHOR_FLOORS: u64 = 6;
/// Runs per BER-0 point the creation anchors are sampled over.
const ANCHOR_RUNS: usize = 1_000;
/// Sniff intervals of the Fig. 11 registry entry.
const SNIFF_INTERVALS: [u32; 9] = [20, 30, 40, 50, 60, 70, 80, 90, 100];
/// Hold intervals of the Fig. 12 registry entry.
const HOLD_INTERVALS: [u32; 9] = [40, 80, 120, 160, 240, 400, 600, 800, 1000];

/// How one repetition is configured.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Length multiplier on the unit of work (1 for the benchmark; the
    /// self-test runs reduced lengths).
    pub scale: f64,
    /// Campaign worker threads.
    pub threads: usize,
    /// PHY tier (bit for the timed runs).
    pub fidelity: Fidelity,
    /// Worker-shard cap of each simulator (1 for the timed runs).
    pub shards: usize,
    /// Packet-capture tap (on only in the traced run).
    pub capture: bool,
    /// Engine override; `None` keeps the workload's own engine.
    pub engine: Option<Engine>,
}

impl Setting {
    fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(1)
    }

    fn sim(&self, mut cfg: SimConfig, engine: Engine) -> SimConfig {
        cfg.engine = self.engine.unwrap_or(engine);
        cfg.fidelity = self.fidelity;
        cfg.shards = self.shards;
        cfg.capture = self.capture;
        cfg
    }
}

/// One timed step: a realisation or a slice of simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Host time of the step.
    pub ms: f64,
    /// Digest of the simulated statistics at the end of the step.
    pub digest: u64,
    /// The step's own sanity check passed.
    pub ok: bool,
}

/// Counts observed in one repetition, for the per-layer split.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Calendar events dispatched (`engine.steps`).
    pub events: u64,
    /// Baseband LC events logged.
    pub lc_events: u64,
    /// Medium transmissions.
    pub transmissions: u64,
    /// Collided transmissions.
    pub collided: u64,
    /// Stat-tier promotions.
    pub promotions: u64,
    /// Air packets sent (capture TX records; traced runs only).
    pub air_tx: u64,
    /// Air packets received (capture RX records; traced runs only).
    pub air_rx: u64,
    /// LMP PDUs sent (capture LMP TX records; traced runs only).
    pub lmp: u64,
    /// Noise draws (`next_flip_gap` calls) per channel BER, one per
    /// transmission plus one per flipped bit (traced runs only).
    pub draws: Vec<(f64, u64)>,
    /// Mean pending calendar entries of a simulator.
    pub depth: f64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.lc_events += o.lc_events;
        self.transmissions += o.transmissions;
        self.collided += o.collided;
        self.promotions += o.promotions;
        self.air_tx += o.air_tx;
        self.air_rx += o.air_rx;
        self.lmp += o.lmp;
        for &(ber, n) in &o.draws {
            match self.draws.iter_mut().find(|(b, _)| *b == ber) {
                Some(slot) => slot.1 += n,
                None => self.draws.push((ber, n)),
            }
        }
        self.depth = self.depth.max(o.depth);
    }

    /// Counts of `sim` since the metrics snapshot `before` (the whole
    /// run when `None`); the capture-derived fields are filled when
    /// capture is on.
    fn of(sim: &Simulator, before: Option<&btsim_core::MetricsSnapshot>, ber: f64) -> Counts {
        let now = sim.metrics_snapshot();
        let from = before.map_or(SimTime::ZERO, |b| b.at);
        let m = match before {
            Some(b) => now.since(b),
            None => now,
        };
        let c = |name: &str| m.counter(name).unwrap_or(0);
        let mut counts = Counts {
            events: c("engine.steps"),
            lc_events: c("events.lc"),
            transmissions: c("medium.transmissions"),
            collided: c("medium.collided"),
            promotions: c("fidelity.promotions"),
            // Lockstep keeps one tick per device on the calendar; the
            // event engine one dispatch entry.
            depth: match sim.engine() {
                Engine::Lockstep => sim.device_count() as f64,
                Engine::EventDriven => 1.0,
            },
            ..Counts::default()
        };
        if sim.capture().is_enabled() {
            let mut bits = 0u64;
            for r in sim.capture().records().iter().filter(|r| r.at >= from) {
                match (r.kind, r.dir) {
                    (CaptureKind::Air, CaptureDir::Sent) => {
                        counts.air_tx += 1;
                        bits += r.orig_bits as u64;
                    }
                    (CaptureKind::Air, CaptureDir::Received) => counts.air_rx += 1,
                    (CaptureKind::Lmp, CaptureDir::Sent) => counts.lmp += 1,
                    (CaptureKind::Lmp, CaptureDir::Received) => {}
                }
            }
            let flips = (sim.measured_ber() * bits as f64).round() as u64;
            counts.draws.push((ber, counts.air_tx + flips));
        }
        counts
    }
}

/// Captured records kept from a traced repetition for the replays.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Air TX records.
    pub air: Vec<CaptureRecord>,
    /// LMP PDU bytes of the LMP TX records.
    pub lmp: Vec<Vec<u8>>,
    /// Channel configuration the records were produced under.
    pub channel: Option<ChannelConfig>,
    /// Radio positions (spatial workloads), by device index.
    pub positions: Vec<Position>,
}

impl Sample {
    /// Most air records kept in all.
    pub const CAP: usize = 20_000;

    /// Keeps the last `cap` air TX records of `sim` — a contiguous,
    /// steady-state stretch, so the medium replay sees the traffic
    /// density the simulator saw — and its LMP PDUs.
    fn absorb(
        &mut self,
        sim: &Simulator,
        channel: &ChannelConfig,
        positions: Vec<Position>,
        cap: usize,
    ) {
        if self.channel.is_none() {
            self.channel = Some(channel.clone());
            self.positions = positions;
        }
        let records = sim.capture().records();
        let air: Vec<&CaptureRecord> = records
            .iter()
            .filter(|r| r.kind == CaptureKind::Air && r.dir == CaptureDir::Sent)
            .collect();
        self.air.extend(
            air[air.len().saturating_sub(cap)..]
                .iter()
                .map(|r| (*r).clone()),
        );
        self.lmp.extend(
            records
                .iter()
                .filter(|r| r.kind == CaptureKind::Lmp && r.dir == CaptureDir::Sent)
                .take(cap)
                .map(|r| r.data.clone()),
        );
    }
}

/// One paper anchor: simulated value against the cited one.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// What is compared, with its source.
    pub name: &'static str,
    /// The simulator's value.
    pub simulated: f64,
    /// The cited value.
    pub cited: f64,
}

impl Anchor {
    /// Relative error against the cited value.
    pub fn err(&self) -> f64 {
        (self.simulated - self.cited).abs() / self.cited
    }
}

/// The outcome of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Build plus formation before the timed phase, seconds.
    pub setup_s: f64,
    /// Simulator construction part of the setup, seconds.
    pub build_s: f64,
    /// Formation part of the setup, seconds.
    pub form_s: f64,
    /// Host time of the timed phase.
    pub wall_s: f64,
    /// Σ step time (over all workers), seconds.
    pub busy_s: f64,
    /// Workers that ran the steps.
    pub threads: usize,
    /// Simulated slots (summed over realisations).
    pub slots: u64,
    /// Realisations (campaigns) or 1 (streams).
    pub runs: u64,
    /// Every timed step.
    pub steps: Vec<Step>,
    /// Digest over the steps (and the campaign JSON).
    pub digest: u64,
    /// Paper anchors of the repetition.
    pub anchors: Vec<Anchor>,
    /// Per-layer counts.
    pub counts: Counts,
    /// Resident-set growth over the timed phase, MB.
    pub rss_growth_mb: f64,
    /// Captured records for the replays (traced runs only).
    pub sample: Sample,
}

/// Mean relative error of `anchors`.
pub fn anchor_err(anchors: &[Anchor]) -> f64 {
    anchors.iter().map(Anchor::err).sum::<f64>() / anchors.len().max(1) as f64
}

/// The anchors of `w` at the seed of `s`, untimed. Where one
/// repetition's sample leaves an anchor seed-noisy it is sampled more
/// widely, from inputs derived from the seed; otherwise `rep`'s anchors
/// stand.
pub fn anchors(w: Workload, s: &Setting, rep: &Rep) -> Vec<Anchor> {
    match w {
        Workload::PiconetCreation => creation_anchors(s),
        Workload::DenseFloor => floor_anchors(s),
        Workload::AclSaturated | Workload::PowerModes => rep.anchors.clone(),
    }
}

/// Runs one repetition of `w`.
pub fn run(w: Workload, s: &Setting, parent: u32) -> Rep {
    span("core.repetition", parent, 1, |id| match w {
        Workload::AclSaturated => acl_saturated(s, id),
        Workload::PiconetCreation => piconet_creation(s, id),
        Workload::PowerModes => power_modes(s, id),
        Workload::DenseFloor => dense_floor(s, id),
    })
}

/// Digest of the engine-independent simulated statistics of `sim`.
fn sim_digest(sim: &Simulator, extra: &str) -> u64 {
    fnv(&format!(
        "now={} tx={:?} rng={:#x} lc={} lm={} ber={} {extra}",
        sim.now().ns(),
        sim.tx_stats(),
        sim.rng_fingerprint(),
        sim.events().len(),
        sim.lm_events().len(),
        sim.measured_ber(),
    ))
}

/// Times `slices` runs of `slice` slots on a prepared simulator.
fn stream(sim: &mut Simulator, slices: u64, slice: u64, rep: &mut Rep, parent: u32) {
    let before = sim.metrics_snapshot();
    let rss0 = proc_status_mb("VmRSS");
    let started = Instant::now();
    for _ in 0..slices {
        let tx0 = sim.tx_stats().transmissions;
        let t = Instant::now();
        let end = sim.now() + SimDuration::from_slots(slice);
        span("core.Simulator::run_until", parent, 1, |_| {
            sim.run_until(end)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rep.steps.push(Step {
            ms,
            digest: sim_digest(sim, ""),
            ok: sim.tx_stats().transmissions > tx0,
        });
        rep.busy_s += ms * 1e-3;
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.rss_growth_mb = proc_status_mb("VmRSS") - rss0;
    rep.threads = 1;
    rep.runs = 1;
    rep.slots = slices * slice;
    // The streaming workloads run on a clean channel.
    rep.counts = Counts::of(sim, Some(&before), 0.0);
    rep.digest = fold_digests(rep.steps.iter().map(|s| s.digest));
}

fn acl_saturated(s: &Setting, id: u32) -> Rep {
    let mut rep = Rep::default();
    let cfg = s.sim(paper_config(), Engine::Lockstep);
    let channel = cfg.channel.clone();
    let t0 = Instant::now();
    let mut sim = span("core.SimBuilder::build", id, 1, |_| {
        let mut b = SimBuilder::new(s.seed, cfg);
        b.add_device("master");
        b.add_device("slave1");
        b.build()
    });
    rep.build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let lt = span("core.connect_pair", id, 1, |_| {
        connect_pair(&mut sim, 0, 1, SimTime::from_us(60_000_000))
    })
    .expect("a clean channel connects the pair");
    let slots = s.scaled(ACL_SLOTS);
    sim.command(0, LcCommand::SetTpoll(2));
    sim.command(
        0,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0x5A; slots as usize * 9],
        },
    );
    rep.form_s = t1.elapsed().as_secs_f64();
    rep.setup_s = t0.elapsed().as_secs_f64();
    let start = sim.now();
    let slice = ACL_SLICE.min(slots);
    stream(&mut sim, slots / slice, slice, &mut rep, id);
    let received: usize = sim
        .events()
        .iter()
        .filter(|e| e.device == 1 && e.at > start)
        .filter_map(|e| match &e.event {
            LcEvent::AclReceived { data, .. } => Some(data.len()),
            _ => None,
        })
        .sum();
    let window = sim.now().since(start).secs_f64();
    rep.anchors.push(Anchor {
        name: "DM1 saturated goodput, kbit/s (Bluetooth 1.1 spec maximum: 108.8)",
        simulated: received as f64 * 8.0 / window / 1000.0,
        cited: 108.8,
    });
    if s.capture {
        rep.sample.absorb(&sim, &channel, Vec::new(), Sample::CAP);
    }
    rep
}

fn floor_config(s: &Setting) -> DenseFloorConfig {
    let base = DenseFloorConfig {
        grid: FLOOR_GRID,
        piconets_per_point: 2,
        measure_slots: s.scaled(FLOOR_SLOTS),
        ..DenseFloorConfig::default()
    };
    DenseFloorConfig {
        sim: s.sim(base.sim.clone(), Engine::Lockstep),
        ..base
    }
}

fn collision_anchor(window: TxStats) -> Anchor {
    Anchor {
        name: "collided fraction, two co-located piconets (analytic 1-(78/79)^2)",
        simulated: window.collided as f64 / window.transmissions.max(1) as f64,
        cited: analytic_collision_rate(2),
    }
}

fn dense_floor(s: &Setting, id: u32) -> Rep {
    let mut rep = Rep::default();
    let cfg = floor_config(s);
    let channel = cfg.sim.channel.clone();
    let positions = floor_positions(&cfg);
    let slots = cfg.measure_slots;
    let scenario = DenseFloorScenario::new(cfg);
    let t0 = Instant::now();
    let mut sim = span("core.Scenario::build", id, 1, |_| scenario.build(s.seed));
    rep.build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    span("core.DenseFloorScenario::prepare", id, 1, |_| {
        scenario.prepare(&mut sim)
    })
    .expect("the dense floor forms on a clean channel");
    rep.form_s = t1.elapsed().as_secs_f64();
    rep.setup_s = t0.elapsed().as_secs_f64();
    let slice = FLOOR_SLICE.min(slots);
    let before = sim.tx_stats();
    stream(&mut sim, slots / slice, slice, &mut rep, id);
    rep.anchors
        .push(collision_anchor(sim.tx_stats().since(before)));
    if s.capture {
        rep.sample.absorb(&sim, &channel, positions, Sample::CAP);
    }
    rep
}

/// The collision anchor over [`ANCHOR_FLOORS`] floors whose seeds
/// derive from the workload seed (disjoint between workload seeds).
fn floor_anchors(s: &Setting) -> Vec<Anchor> {
    let scenario = DenseFloorScenario::new(floor_config(s));
    let mut window = TxStats::default();
    for k in 0..ANCHOR_FLOORS {
        let mut sim = scenario.build(s.seed.wrapping_mul(ANCHOR_FLOORS).wrapping_add(k));
        scenario
            .prepare(&mut sim)
            .expect("the dense floor forms on a clean channel");
        let before = sim.tx_stats();
        sim.run_until(sim.now() + SimDuration::from_slots(s.scaled(FLOOR_SLOTS)));
        let w = sim.tx_stats().since(before);
        window.transmissions += w.transmissions;
        window.collided += w.collided;
    }
    vec![collision_anchor(window)]
}

/// Radio positions of the dense floor: masters first, then slaves,
/// piconet `p` at cluster `p / piconets_per_point` of the grid.
fn floor_positions(cfg: &DenseFloorConfig) -> Vec<Position> {
    let piconets = cfg.grid.0 * cfg.grid.1 * cfg.piconets_per_point;
    (0..2 * piconets)
        .map(|dev| {
            let point = (dev % piconets) / cfg.piconets_per_point;
            Position::new(
                (point % cfg.grid.0) as f64 * cfg.spacing,
                (point / cfg.grid.0) as f64 * cfg.spacing,
            )
        })
        .collect()
}

/// Runs every `runs × points` realisation of a sweep on the campaign
/// runner, timing each, and folds the results into `rep`.
fn sweep<S>(
    points: &[(String, S, f64)],
    runs: usize,
    s: &Setting,
    rep: &mut Rep,
    parent: u32,
    extra: fn(&Simulator) -> String,
) -> CampaignResult<S::Outcome>
where
    S: Scenario + Sync,
    S::Outcome: std::fmt::Debug,
{
    struct Job<R> {
        out: R,
        ms: f64,
        digest: u64,
        slots: u64,
        counts: Counts,
        sample: Option<Sample>,
    }
    let total = points.len() * runs;
    let started = Instant::now();
    let jobs: Vec<Job<S::Outcome>> = span("stats.run_campaign", parent, 1, |id| {
        run_campaign(total, s.threads, 0, |job| {
            let (p, i) = (job as usize / runs, job as usize % runs);
            let (_, scenario, ber) = &points[p];
            let seed = s.seed.wrapping_add(i as u64);
            let t = Instant::now();
            let mut sim = span("core.Scenario::build", id, 1, |_| scenario.build(seed));
            let out = span("core.Scenario::drive", id, 1, |_| scenario.drive(&mut sim));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let sample = (s.capture && i == 0).then(|| {
                let mut sample = Sample::default();
                sample.absorb(
                    &sim,
                    &ChannelConfig {
                        ber: *ber,
                        ..ChannelConfig::default()
                    },
                    Vec::new(),
                    Sample::CAP / points.len(),
                );
                sample
            });
            Job {
                digest: sim_digest(&sim, &format!("{out:?} {}", extra(&sim))),
                ms,
                slots: sim.now().slots(),
                counts: Counts::of(&sim, None, *ber),
                sample,
                out,
            }
        })
    });
    rep.wall_s += started.elapsed().as_secs_f64();
    let mut outcomes = Vec::with_capacity(total);
    for (job_index, job) in jobs.into_iter().enumerate() {
        let ber = points[job_index / runs].2;
        rep.steps.push(Step {
            ms: job.ms,
            digest: job.digest,
            ok: ber > 0.0 || job.out.completed(),
        });
        rep.busy_s += job.ms * 1e-3;
        rep.slots += job.slots;
        rep.runs += 1;
        rep.counts.add(&job.counts);
        if let Some(sample) = job.sample {
            rep.sample.air.extend(sample.air);
            rep.sample.lmp.extend(sample.lmp);
            if rep.sample.channel.is_none() {
                rep.sample.channel = sample.channel;
            }
        }
        outcomes.push(job.out);
    }
    rep.threads = s.threads;
    let mut rest = outcomes;
    let mut result = CampaignResult {
        base_seed: s.seed,
        points: Vec::new(),
    };
    for (label, _, _) in points {
        let tail = rest.split_off(runs);
        result.points.push(PointResult {
            label: label.clone(),
            outcomes: rest,
        });
        rest = tail;
    }
    result
}

/// Times building one simulator per sweep point at the base seed: the
/// set-up a campaign pays before its first realisation runs.
fn build_points<S: Scenario>(points: &[(String, S, f64)], seed: u64, id: u32) -> f64 {
    let t = Instant::now();
    for (_, scenario, _) in points {
        let sim = span("core.Scenario::build", id, 1, |_| scenario.build(seed));
        std::hint::black_box(&sim);
    }
    t.elapsed().as_secs_f64()
}

fn no_extra(_: &Simulator) -> String {
    String::new()
}

type Points<S> = Vec<(String, S, f64)>;

/// The Fig. 6 inquiry and Fig. 7 page sweeps over BER 0 and `PAPER_BERS`.
fn creation_points(s: &Setting) -> (Points<InquiryScenario>, Points<PageScenario>) {
    let cfg = s.sim(paper_config(), Engine::Lockstep);
    let bers: Vec<(String, f64)> = std::iter::once(("0".to_string(), 0.0))
        .chain(PAPER_BERS.iter().map(|(l, b)| (l.to_string(), *b)))
        .collect();
    let inquiry = bers
        .iter()
        .map(|(l, ber)| {
            let scenario = InquiryScenario::new(InquiryConfig {
                ber: *ber,
                sim: cfg.clone(),
                ..InquiryConfig::default()
            });
            (l.clone(), scenario, *ber)
        })
        .collect();
    let page = bers
        .iter()
        .map(|(l, ber)| {
            let scenario = PageScenario::new(PageConfig {
                ber: *ber,
                cap_slots: 2048,
                sim: cfg.clone(),
                ..PageConfig::default()
            });
            (l.clone(), scenario, *ber)
        })
        .collect();
    (inquiry, page)
}

/// The Fig. 6 and Fig. 7 anchors from the BER-0 points of two sweeps.
fn creation_anchor_pair<A: Record, B: Record>(
    fig6: &CampaignResult<A>,
    fig7: &CampaignResult<B>,
) -> Vec<Anchor> {
    vec![
        Anchor {
            name: "Fig. 6 mean inquiry slots at BER 0 (paper: 1556)",
            simulated: fig6.points[0].metric("slots").mean(),
            cited: 1556.0,
        },
        Anchor {
            name: "Fig. 7 mean page slots at BER 0 (paper: ~17)",
            simulated: fig7.points[0].metric("slots").mean(),
            cited: 17.0,
        },
    ]
}

/// The creation anchors over [`ANCHOR_RUNS`] runs per BER-0 point, on
/// a block of seeds derived from the workload seed (disjoint between
/// workload seeds).
fn creation_anchors(s: &Setting) -> Vec<Anchor> {
    let (inquiry, page) = creation_points(s);
    let runs = s.scaled(ANCHOR_RUNS as u64) as usize;
    let s = Setting {
        seed: s.seed.wrapping_mul(runs as u64),
        ..*s
    };
    let mut scratch = Rep::default();
    let fig6 = sweep(&inquiry[..1], runs, &s, &mut scratch, 0, no_extra);
    let fig7 = sweep(&page[..1], runs, &s, &mut scratch, 0, no_extra);
    creation_anchor_pair(&fig6, &fig7)
}

fn piconet_creation(s: &Setting, id: u32) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let (inquiry, page) = creation_points(s);
    rep.build_s = build_points(&inquiry, s.seed, id) + build_points(&page, s.seed, id);
    rep.setup_s = t0.elapsed().as_secs_f64();
    let runs = s.scaled(CREATION_RUNS as u64) as usize;
    let fig6 = sweep(&inquiry, runs, s, &mut rep, id, no_extra);
    let fig7 = sweep(&page, runs, s, &mut rep, id, no_extra);
    rep.digest = fold_digests(
        rep.steps
            .iter()
            .map(|st| st.digest)
            .chain([fnv(&fig6.to_json().render()), fnv(&fig7.to_json().render())]),
    );
    rep.anchors = creation_anchor_pair(&fig6, &fig7);
    rep
}

fn power_extra(sim: &Simulator) -> String {
    format!("{:?} {:?}", sim.power_report(0), sim.power_report(1))
}

fn power_modes(s: &Setting, id: u32) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let cfg = s.sim(paper_config(), Engine::EventDriven);
    let sniff_slots = s.scaled(120_000);
    let hold_slots = s.scaled(200_000);
    let sniff: Vec<(String, SniffScenario, f64)> = std::iter::once(0)
        .chain(SNIFF_INTERVALS)
        .map(|t_sniff| {
            let scenario = SniffScenario::new(SniffConfig {
                t_sniff,
                measure_slots: sniff_slots,
                sim: cfg.clone(),
                ..SniffConfig::default()
            });
            (t_sniff.to_string(), scenario, 0.0)
        })
        .collect();
    let hold: Vec<(String, HoldScenario, f64)> = std::iter::once(0)
        .chain(HOLD_INTERVALS)
        .map(|t_hold| {
            let scenario = HoldScenario::new(HoldConfig {
                t_hold,
                measure_slots: hold_slots,
                sim: cfg.clone(),
            });
            (t_hold.to_string(), scenario, 0.0)
        })
        .collect();
    // Formation: connect one pair of the sweep, as every realisation does.
    rep.build_s = build_points(&sniff, s.seed, id) + build_points(&hold, s.seed, id);
    let t1 = Instant::now();
    span("core.connect_pair", id, 1, |_| {
        let mut sim = sniff[0].1.build(s.seed);
        connect_pair(&mut sim, 0, 1, SimTime::from_us(60_000_000))
    })
    .expect("a clean channel connects the pair");
    rep.form_s = t1.elapsed().as_secs_f64();
    rep.setup_s = t0.elapsed().as_secs_f64();
    let runs = s.scaled(POWER_RUNS as u64) as usize;
    let fig11 = sweep(&sniff, runs, s, &mut rep, id, power_extra);
    let fig12 = sweep(&hold, runs, s, &mut rep, id, power_extra);
    rep.digest = fold_digests(rep.steps.iter().map(|st| st.digest).chain([
        fnv(&fig11.to_json().render()),
        fnv(&fig12.to_json().render()),
    ]));
    let activity = |r: &CampaignResult<_>| -> Vec<f64> {
        r.points
            .iter()
            .map(|p: &PointResult<btsim_core::scenario::ModeActivity>| {
                p.metric_all("activity").mean()
            })
            .collect()
    };
    let a11 = activity(&fig11);
    let a12 = activity(&fig12);
    rep.anchors.push(Anchor {
        name: "Fig. 11 sniff break-even interval, slots (paper: 30)",
        simulated: break_even(&SNIFF_INTERVALS, a11[0], &a11[1..]),
        cited: 30.0,
    });
    rep.anchors.push(Anchor {
        name: "Fig. 12 hold break-even interval, slots (paper: 120)",
        simulated: break_even(&HOLD_INTERVALS, a12[0], &a12[1..]),
        cited: 120.0,
    });
    rep.anchors.push(Anchor {
        name: "Fig. 12 active-mode RF floor (paper: 2.6%)",
        simulated: a12[0],
        cited: 0.026,
    });
    // The event engine keeps one dispatch entry plus the sniff sweep's
    // pre-scheduled data commands, half of which are pending on average.
    let sniff_cmds = sniff_slots as f64 / SniffConfig::default().data_period_slots as f64 / 2.0;
    rep.counts.depth = 1.0 + sniff_cmds * sniff.len() as f64 / (sniff.len() + hold.len()) as f64;
    rep
}

/// The interval where the low-power activity crosses the active
/// baseline, interpolated linearly between the swept points.
fn break_even(intervals: &[u32], active: f64, mode: &[f64]) -> f64 {
    match mode.iter().position(|&a| a < active) {
        None => *intervals.last().expect("swept intervals") as f64,
        Some(0) => intervals[0] as f64,
        Some(i) => {
            let (x0, x1) = (intervals[i - 1] as f64, intervals[i] as f64);
            let (y0, y1) = (mode[i - 1] - active, mode[i] - active);
            x0 + (x1 - x0) * y0 / (y0 - y1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_interpolates_the_crossing() {
        let iv = [20, 30, 40];
        assert_eq!(break_even(&iv, 1.0, &[1.5, 0.5, 0.2]), 25.0);
        assert_eq!(break_even(&iv, 1.0, &[0.5, 0.4, 0.2]), 20.0);
        assert_eq!(break_even(&iv, 1.0, &[2.0, 1.5, 1.2]), 40.0);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
