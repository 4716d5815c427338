//! `btbench`: the btsim benchmark.
//!
//! ```text
//! btbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F]
//! btbench --list
//! ```
//!
//! With `--trace 0` the workload runs as a closed loop of repetitions
//! for `S` seconds and the end-to-end metrics are printed; with
//! `--trace 1` it runs once more with the capture tap on and spans
//! recorded, and the per-layer metrics are printed. The last line of
//! standard output is always one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md`.

mod host;
mod replay;
mod spans;
mod workloads;

use std::process::ExitCode;

use btsim_core::{Engine, Fidelity};

use host::{median, quantile};
use workloads::{Rep, Setting, Step, Workload};

/// Whether a metric is end-to-end (`--trace 0`) or per-layer
/// (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    EndToEnd,
    PerLayer,
}

/// One named metric: name, unit, better direction, kind, meaning.
type MetricDef = (&'static str, &'static str, &'static str, Kind, &'static str);

/// Every metric, in report order. `BENCHMARK.json` lists the same names.
#[rustfmt::skip]
const METRICS: &[MetricDef] = &[
    ("slots_per_s", "slots/s", "higher", Kind::EndToEnd, "simulated slots per host second at the fastest (see README)"),
    ("runs_per_s", "runs/s", "higher", Kind::EndToEnd, "realisations (streams: passes) per host second at the fastest"),
    ("step_ms_p50", "ms", "lower", Kind::EndToEnd, "median over steps of each step's fastest host time across repetitions"),
    ("step_ms_p90", "ms", "lower", Kind::EndToEnd, "90th percentile over steps of each step's fastest host time"),
    ("peak_rss_mb", "MB", "lower", Kind::EndToEnd, "process high-water mark (VmHWM) after the first repetition"),
    ("setup_s", "s", "lower", Kind::EndToEnd, "build plus formation before the timed phase, median over repetitions"),
    ("anchor_err", "fraction", "lower", Kind::EndToEnd, "mean relative error of the paper anchors"),
    ("kernel.calendar.events_per_slot", "1/slot", "lower", Kind::PerLayer, "calendar events dispatched per simulated slot"),
    ("kernel.calendar.ns_per_event", "ns", "lower", Kind::PerLayer, "Calendar::schedule+pop replayed at the workload's depth"),
    ("kernel.rng.draws_per_slot", "1/slot", "lower", Kind::PerLayer, "noise draws (next_flip_gap) per simulated slot"),
    ("kernel.rng.ns_per_draw", "ns", "lower", Kind::PerLayer, "SimRng::next_flip_gap replayed at each BER point"),
    ("kernel.share", "fraction", "lower", Kind::PerLayer, "replayed calendar and noise-draw time over traced busy time"),
    ("coding.encode_ns_per_pkt", "ns", "lower", Kind::PerLayer, "Codec::encode replayed over the recorded packet mix"),
    ("coding.decode_ns_per_pkt", "ns", "lower", Kind::PerLayer, "packet::decode replayed over the recorded packet mix"),
    ("coding.share", "fraction", "lower", Kind::PerLayer, "replayed encode and decode time over traced busy time"),
    ("channel.tx_per_slot", "1/slot", "lower", Kind::PerLayer, "medium transmissions per simulated slot"),
    ("channel.collided_frac", "fraction", "lower", Kind::PerLayer, "collided share of the transmissions"),
    ("channel.rx_ns_per_pkt", "ns", "lower", Kind::PerLayer, "Medium::begin_tx+receive replayed on the recorded channels and times"),
    ("channel.gc_us_per_call", "us", "lower", Kind::PerLayer, "Medium::gc per call during the replay"),
    ("channel.live_count", "count", "lower", Kind::PerLayer, "Medium::live_count when gc ran in the replay"),
    ("channel.share", "fraction", "lower", Kind::PerLayer, "replayed medium time over traced busy time"),
    ("lmp.pdus_per_run", "count/run", "lower", Kind::PerLayer, "LMP PDUs sent per realisation or repetition"),
    ("lmp.pdu_ns", "ns", "lower", Kind::PerLayer, "Pdu::decode+encode replayed over the captured PDUs"),
    ("lmp.share", "fraction", "lower", Kind::PerLayer, "replayed LMP time over traced busy time"),
    ("baseband.lc_events_per_slot", "1/slot", "lower", Kind::PerLayer, "LC events logged per simulated slot"),
    ("baseband.unattributed_share", "fraction", "lower", Kind::PerLayer, "traced busy time no replayed layer accounts for"),
    ("core.log_bytes_per_slot", "B/slot", "lower", Kind::PerLayer, "resident-set growth per simulated slot, first repetition"),
    ("core.build_ms", "ms", "lower", Kind::PerLayer, "simulator construction in the set-up"),
    ("core.form_ms", "ms", "lower", Kind::PerLayer, "formation (connect, prepare) in the set-up"),
    ("core.shard2_speedup", "x", "higher", Kind::PerLayer, "wall time at shards 1 over shards 2"),
    ("stats.campaign_overhead_frac", "fraction", "lower", Kind::PerLayer, "1 - busy / (threads x wall) of the timed phase"),
    ("fidelity.promotions", "count", "higher", Kind::PerLayer, "stat-tier promotions at Fidelity::Auto"),
    ("fidelity.stat_slots_per_s", "slots/s", "higher", Kind::PerLayer, "slots per host second at Fidelity::Stat"),
    ("fidelity.auto_overhead_frac", "fraction", "lower", Kind::PerLayer, "wall time at Fidelity::Auto over bit, minus 1"),
    ("trace.capture_overhead_frac", "fraction", "lower", Kind::PerLayer, "traced wall over untraced wall, minus 1"),
    ("trace.share", "fraction", "lower", Kind::PerLayer, "capture-tap share of the traced busy time"),
];

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str =
    "usage: btbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F]\n       \
                     btbench --list";

/// Parses the arguments; `Ok(None)` means `--list`.
fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, 1.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} value: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?} (expected one of {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = value.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    }))
}

/// The outcome of one invocation.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

/// Counts the steps of `rep` that failed their own check or differ
/// from `reference`; returns (attempted, failed).
fn check(rep: &Rep, reference: &[Step]) -> (u64, u64) {
    let mut failed = rep.steps.len().abs_diff(reference.len()) as u64;
    for (step, want) in rep.steps.iter().zip(reference) {
        if !step.ok || step.digest != want.digest {
            failed += 1;
        }
    }
    (rep.steps.len().max(reference.len()) as u64, failed)
}

/// Runs the lockstep oracle of `power_modes` and checks it against the
/// event-engine repetition `reference`.
fn oracle(w: Workload, s: &Setting, reference: &Rep) -> (u64, u64) {
    if w != Workload::PowerModes {
        return (0, 0);
    }
    let lockstep = workloads::run(
        w,
        &Setting {
            engine: Some(Engine::Lockstep),
            ..*s
        },
        0,
    );
    println!(
        "oracle: lockstep digest {:016x}, event digest {:016x}",
        lockstep.digest, reference.digest
    );
    check(&lockstep, &reference.steps)
}

fn print_anchors(anchors: &[workloads::Anchor]) {
    for a in anchors {
        println!(
            "anchor: {} simulated {:.4} cited {} error {:.4}",
            a.name,
            a.simulated,
            a.cited,
            a.err()
        );
    }
}

/// The `q`-quantile of the step times of `r`, ms.
fn step_q(r: &Rep, q: f64) -> f64 {
    quantile(&r.steps.iter().map(|s| s.ms).collect::<Vec<_>>(), q)
}

/// The closed loop of repetitions behind the end-to-end metrics.
///
/// The host time of a repetition is its own cost plus whatever the
/// machine's other tenants take from it: on a shared host, phases of
/// seconds to minutes run the same code up to 1.8x slower
/// (`README.md`). Interference only ever adds time, so the time metrics
/// are read at the least disturbed end of the run. Step `i` does the
/// same work in every repetition (its digest is checked), so its
/// fastest time across the repetitions is its cost with most of the
/// interference removed; the step percentiles, and a stream's rates,
/// are taken over these fastest times. A campaign's rates come from its
/// fastest repetition. The medians over repetitions are printed beside
/// them. `setup_s` is the median of the repetitions' set-ups.
fn timed(w: Workload, a: &Args, s: &Setting) -> Outcome {
    // The first repetition warms caches and the allocator up: it is
    // checked like the others but not timed.
    let warmup = workloads::run(w, s, 0);
    // Memory is read here, from a fresh process that has set up and run
    // one repetition: later repetitions only add allocator
    // fragmentation, and how many run depends on the host's speed.
    let peak_rss_mb = host::proc_status_mb("VmHWM");
    let mut reps: Vec<Rep> = Vec::new();
    let started = std::time::Instant::now();
    while reps.len() < 2 || started.elapsed().as_secs_f64() < a.seconds {
        let rep = workloads::run(w, s, 0);
        println!(
            "repetition {}: wall {:.3} s, setup {:.4} s, step p50 {:.4} ms, p90 {:.4} ms, {} slots, digest {:016x}",
            reps.len(),
            rep.wall_s,
            rep.setup_s,
            step_q(&rep, 0.5),
            step_q(&rep, 0.9),
            rep.slots,
            rep.digest
        );
        reps.push(rep);
    }
    let (mut attempted, mut failed) = (0, 0);
    for rep in std::iter::once(&warmup).chain(&reps) {
        let (n, f) = check(rep, &warmup.steps);
        attempted += n;
        failed += f;
    }
    let (n, f) = oracle(w, s, &warmup);
    attempted += n;
    failed += f;
    let anchors = workloads::anchors(w, s, &warmup);
    print_anchors(&anchors);
    println!(
        "steps: {} {} per repetition, {} beyond the p90; {} repetitions",
        reps[0].steps.len(),
        if w.is_campaign() {
            "realisations"
        } else {
            "slices of simulated time"
        },
        reps[0].steps.len() / 10,
        reps.len()
    );
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let fastest_steps: Vec<f64> = (0..reps[0].steps.len())
        .map(|i| {
            reps.iter()
                .filter_map(|r| r.steps.get(i))
                .map(|st| st.ms)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // A stream's steps run one after another, so its fastest pass is the
    // sum of the steps' fastest times; a campaign's run on parallel
    // workers, so its rates come from the fastest repetition's wall time.
    let fastest_pass_s = fastest_steps.iter().sum::<f64>() * 1e-3;
    let rate = |per_pass: f64| (!w.is_campaign()).then(|| per_pass / fastest_pass_s);
    let mut values = Vec::new();
    for (name, over_reps, fastest) in [
        (
            "slots_per_s",
            per_rep(&|r| r.slots as f64 / r.wall_s),
            rate(reps[0].slots as f64),
        ),
        (
            "runs_per_s",
            per_rep(&|r| r.runs as f64 / r.wall_s),
            rate(reps[0].runs as f64),
        ),
        (
            "step_ms_p50",
            per_rep(&|r| step_q(r, 0.5)),
            Some(quantile(&fastest_steps, 0.5)),
        ),
        (
            "step_ms_p90",
            per_rep(&|r| step_q(r, 0.9)),
            Some(quantile(&fastest_steps, 0.9)),
        ),
    ] {
        let value = fastest.unwrap_or_else(|| quantile(&over_reps, 1.0));
        println!(
            "{name}: {value:.6} at the fastest; median over repetitions {:.6}",
            median(&over_reps)
        );
        values.push((name, value));
    }
    values.extend([
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&per_rep(&|r| r.setup_s))),
        ("anchor_err", workloads::anchor_err(&anchors)),
    ]);
    Outcome {
        attempted,
        failed,
        values,
    }
}

/// The traced run behind the per-layer metrics.
fn traced(w: Workload, a: &Args, s: &Setting) -> Outcome {
    let untraced = [workloads::run(w, s, 0), workloads::run(w, s, 0)];
    spans::enable(true);
    let t = spans::span("btbench.traced_run", 0, 1, |id| {
        workloads::run(
            w,
            &Setting {
                capture: true,
                ..*s
            },
            id,
        )
    });
    spans::enable(false);
    let stat = workloads::run(
        w,
        &Setting {
            fidelity: Fidelity::Stat,
            ..*s
        },
        0,
    );
    let auto = workloads::run(
        w,
        &Setting {
            fidelity: Fidelity::Auto,
            ..*s
        },
        0,
    );
    let sharded = workloads::run(w, &Setting { shards: 2, ..*s }, 0);
    spans::enable(true);
    let rp = spans::span("btbench.replay", 0, 1, |id| {
        replay::replay(&t.counts, &t.sample, id)
    });
    spans::enable(false);
    let path = std::path::PathBuf::from(format!(
        "btbench/out/spans-{}-seed{}.jsonl",
        w.name(),
        a.seed
    ));
    let all = spans::take();
    match spans::write(&path, &all) {
        Ok(()) => println!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if rp.unknown_packets > 0 {
        println!(
            "replay: {} captured packets of unknown type skipped",
            rp.unknown_packets
        );
    }
    // Capture and sharding change no simulated statistic.
    let (mut attempted, mut failed) = (0, 0);
    for rep in untraced.iter().chain([&t, &sharded]) {
        let (n, f) = check(rep, &untraced[0].steps);
        attempted += n;
        failed += f;
    }
    let (n, f) = oracle(w, s, &untraced[0]);
    attempted += n;
    failed += f;
    print_anchors(&t.anchors);

    let u = if untraced[0].wall_s <= untraced[1].wall_s {
        &untraced[0]
    } else {
        &untraced[1]
    };
    let c = &t.counts;
    let slots = t.slots.max(1) as f64;
    let busy_ns = t.busy_s * 1e9;
    let draws: u64 = c.draws.iter().map(|(_, n)| n).sum();
    let gc_calls = c.events / replay::GC_EVERY_EVENTS;
    let kernel = (c.events as f64 * rp.event_ns + draws as f64 * rp.draw_ns) / busy_ns;
    let coding = (c.air_tx as f64 * rp.encode_ns + c.air_rx as f64 * rp.decode_ns) / busy_ns;
    let channel = (c.air_tx as f64 * rp.rx_ns + gc_calls as f64 * rp.gc_us * 1e3) / busy_ns;
    let lmp = c.lmp as f64 * rp.pdu_ns / busy_ns;
    let trace = 1.0 - u.busy_s / t.busy_s;
    Outcome {
        attempted,
        failed,
        values: vec![
            ("kernel.calendar.events_per_slot", c.events as f64 / slots),
            ("kernel.calendar.ns_per_event", rp.event_ns),
            ("kernel.rng.draws_per_slot", draws as f64 / slots),
            ("kernel.rng.ns_per_draw", rp.draw_ns),
            ("kernel.share", kernel),
            ("coding.encode_ns_per_pkt", rp.encode_ns),
            ("coding.decode_ns_per_pkt", rp.decode_ns),
            ("coding.share", coding),
            ("channel.tx_per_slot", c.transmissions as f64 / slots),
            (
                "channel.collided_frac",
                c.collided as f64 / c.transmissions.max(1) as f64,
            ),
            ("channel.rx_ns_per_pkt", rp.rx_ns),
            ("channel.gc_us_per_call", rp.gc_us),
            ("channel.live_count", rp.live_count),
            ("channel.share", channel),
            ("lmp.pdus_per_run", c.lmp as f64 / t.runs.max(1) as f64),
            ("lmp.pdu_ns", rp.pdu_ns),
            ("lmp.share", lmp),
            ("baseband.lc_events_per_slot", c.lc_events as f64 / slots),
            (
                "baseband.unattributed_share",
                1.0 - kernel - coding - channel - lmp - trace,
            ),
            (
                "core.log_bytes_per_slot",
                untraced[0].rss_growth_mb * 1048576.0 / untraced[0].slots.max(1) as f64,
            ),
            ("core.build_ms", u.build_s * 1e3),
            ("core.form_ms", u.form_s * 1e3),
            ("core.shard2_speedup", u.wall_s / sharded.wall_s),
            (
                "stats.campaign_overhead_frac",
                1.0 - u.busy_s / (u.threads.max(1) as f64 * u.wall_s),
            ),
            ("fidelity.promotions", auto.counts.promotions as f64),
            ("fidelity.stat_slots_per_s", stat.slots as f64 / stat.wall_s),
            ("fidelity.auto_overhead_frac", auto.wall_s / u.wall_s - 1.0),
            ("trace.capture_overhead_frac", t.wall_s / u.wall_s - 1.0),
            ("trace.share", trace),
        ],
    }
}

/// Renders the final JSON line. Values print with every digit Rust's
/// shortest round-trip formatting gives; a non-finite value (a defect
/// of this benchmark) prints as 0 and is reported on stderr.
fn json_line(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .iter()
        .map(|(name, v)| {
            let unit = METRICS
                .iter()
                .find(|m| m.0 == *name)
                .expect("catalogued metric")
                .1;
            let v = if v.is_finite() {
                *v
            } else {
                eprintln!("metric {name} is not finite");
                0.0
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!(
                "{:<34} {:<9} {:<7} {:<11} meaning",
                "metric", "unit", "better", "kind"
            );
            for (name, unit, better, kind, meaning) in METRICS {
                let kind = if *kind == Kind::EndToEnd {
                    "end_to_end"
                } else {
                    "per_layer"
                };
                println!("{name:<34} {unit:<9} {better:<7} {kind:<11} {meaning}");
            }
            println!(
                "{:<34} {:<9} {:<7} {:<11} failed / attempted steps (the JSON's own keys)",
                "failed_frac", "fraction", "lower", "end_to_end"
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let s = Setting {
        seed: args.seed,
        scale: args.scale,
        threads: if w.is_campaign() { host::threads() } else { 1 },
        fidelity: Fidelity::Bit,
        shards: 1,
        capture: false,
        engine: None,
    };
    println!(
        "btbench workload={} seed={} seconds={} trace={} scale={} threads={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.scale,
        s.threads
    );
    println!("fingerprint: {}", host::fingerprint());
    let out = if args.trace {
        traced(w, &args, &s)
    } else {
        timed(w, &args, &s)
    };
    let correct = out.failed == 0;
    for (name, v) in &out.values {
        let (_, unit, better, _, _) = METRICS.iter().find(|m| m.0 == *name).expect("catalogued");
        println!("metric {name:<34} {v:>16.6} {unit:<9} {better}");
    }
    println!(
        "metric {:<34} {:>16.6} {:<9} lower",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction"
    );
    println!("{}", json_line(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} steps failed their correctness check",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse(&argv(&[
            "--workload",
            "dense_floor",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(a.workload, Workload::DenseFloor);
        assert!(a.trace);
        assert_eq!(a.scale, 1.0);
        assert!(parse(&argv(&["--list"])).unwrap().is_none());
        assert!(parse(&argv(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "--workload",
            "dense_floor",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "--workload",
            "dense_floor",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&[
            "--workload",
            "dense_floor",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[i + 1..].iter().all(|o| o.0 != m.0),
                "{} listed twice",
                m.0
            );
            assert!(m.0.len() <= 64 && m.1.len() <= 16);
            assert!(m.2 == "higher" || m.2 == "lower");
        }
    }
}
