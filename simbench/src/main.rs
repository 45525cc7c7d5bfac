//! End-to-end and per-layer benchmark of the WiFi simulator.
//!
//! ```text
//! simbench --workload <thirty_tcp_ping|downlink_100k|uplink_1k>
//!          --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` repeats the seeded simulation in-process for `--seconds`
//! and reports the end-to-end metrics: host CPU metrics as the best
//! repetition (setup as the median), simulated outcomes exactly. `--trace
//! 1` adds a traced repetition, a telemetry-on repetition and the layer
//! drives, and reports the per-layer metrics. Every repetition must
//! reproduce the same simulated-outcome digest and pass the workload's
//! sanity bounds, or it counts as failed. The last line of stdout is the
//! JSON result. See README.md.

mod clock;
mod run;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use clock::{status_kb, timer_overhead_ns};
use run::{percentile, Mode, Outcome, Rep};
use workloads::{Plan, ThirtyTcpPing, Workload, DOWNLINK_100K, UPLINK_1K};

const USAGE: &str = "usage: simbench --workload <thirty_tcp_ping|downlink_100k|uplink_1k> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Repetitions an end-to-end run makes even when `--seconds` is short.
const MIN_REPS: usize = 3;
/// Untraced repetitions a `--trace 1` run makes as its CPU baseline.
const TRACE_BASELINE_REPS: usize = 2;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s >= 0.0)
            .ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Attempted and failed repetitions, and the digest all must match.
struct Tally {
    attempted: usize,
    failed: usize,
    digest: Option<u64>,
}

impl Tally {
    /// Runs one repetition; a panic, a failed sanity bound or a digest
    /// differing from the first repetition's counts as a failure.
    fn attempt<W: Workload>(&mut self, f: impl FnOnce() -> Rep<W>, what: &str) -> Option<Rep<W>> {
        self.attempted += 1;
        let rep = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(rep) => rep,
            Err(_) => {
                self.failed += 1;
                eprintln!("{what} repetition {} panicked", self.attempted);
                return None;
            }
        };
        let digest = *self.digest.get_or_insert(rep.outcome.digest);
        let problem = match &rep.check {
            Err(e) => Some(e.clone()),
            Ok(()) if rep.outcome.digest != digest => Some(format!(
                "digest {:016x} differs from the first repetition's {digest:016x}",
                rep.outcome.digest
            )),
            Ok(()) => None,
        };
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("{what} repetition {} failed: {problem}", self.attempted);
            return None;
        }
        Some(rep)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The window's CPU cost on a quiet host: each slice's fastest time over
/// the repetitions, summed. Repetitions replay identical slices, and on a
/// shared host the same work runs up to twice as slow from one second to
/// the next, so a whole-window best still drifts with the host's state.
fn best_window(reps: &[Vec<f64>]) -> f64 {
    let slices = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..slices)
        .map(|k| min(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The simulated-outcome metrics, with their sample counts printed.
fn outcome_metrics(out: &Outcome, plan: &Plan) -> Vec<Metric> {
    let (delays, rtts) = (&out.delays, &out.rtts);
    println!(
        "  sim window {} s: {} packets delivered, {} events; delay percentiles over {} packets, ping p99 over {} RTTs",
        plan.window.as_secs_f64(),
        out.pkts,
        out.events,
        delays.len(),
        rtts.len()
    );
    vec![
        Metric::new("sim_goodput_mbps", out.goodput_mbps, "Mbit/s"),
        Metric::new("sim_airtime_jain", out.jain, "ratio"),
        Metric::new("sim_delay_p50_ms", ms(percentile(delays, 0.50)), "ms"),
        Metric::new("sim_delay_p99_ms", ms(percentile(delays, 0.99)), "ms"),
        Metric::new("sim_ping_rtt_p99_ms", ms(percentile(rtts, 0.99)), "ms"),
    ]
}

fn end_to_end<W: Workload>(w: &W, args: &Args, plan: &Plan, tally: &mut Tally) -> Vec<Metric> {
    let start = Instant::now();
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    let (mut outcome, mut peak_kb) = (None, None);
    while tally.attempted < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = tally.attempt(|| run::rep(w, args.seed, plan, Mode::Plain), "end-to-end");
        // The high-water mark of one run of the workload: later repetitions
        // reuse the kept heap, but fragmentation can still grow it.
        peak_kb.get_or_insert_with(|| status_kb("VmHWM"));
        if let Some(rep) = rep {
            setups.push(rep.new_s + rep.install_s);
            slices.push(rep.slice_cpu);
            outcome.get_or_insert(rep.outcome);
        }
    }
    let Some(outcome) = outcome else {
        return Vec::new();
    };
    let best = best_window(&slices);
    let cpus: Vec<f64> = slices.iter().map(|r| r.iter().sum()).collect();
    println!(
        "  {} repetitions: window CPU per-slice best {best:.6} s; whole window best {:.6}, median {:.6}, worst {:.6}; setup median {:.6} s, min {:.6}, max {:.6}",
        cpus.len(),
        min(&cpus),
        median(&cpus),
        max(&cpus),
        median(&setups),
        min(&setups),
        max(&setups)
    );
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("sim_s_per_cpu_s", plan.window.as_secs_f64() / best, "s/s"),
        Metric::new("pkts_per_cpu_s", outcome.pkts as f64 / best, "1/s"),
        Metric::new("peak_rss_mb", peak_kb.unwrap_or(0) as f64 / 1024.0, "MB"),
    ];
    metrics.extend(outcome_metrics(&outcome, plan));
    metrics
}

fn per_layer<W: Workload>(w: &W, args: &Args, plan: &Plan, tally: &mut Tally) -> Vec<Metric> {
    let overhead_ns = timer_overhead_ns();
    let mut slices = Vec::new();
    // Only the process's first build grows the kept heap, so only its
    // resident-set growth is the network's footprint.
    let mut cold_rss_kb = None;
    for _ in 0..TRACE_BASELINE_REPS {
        if let Some(rep) = tally.attempt(|| run::rep(w, args.seed, plan, Mode::Plain), "baseline") {
            cold_rss_kb.get_or_insert(rep.rss_delta_kb);
            slices.push(rep.slice_cpu);
        }
    }
    let traced = tally.attempt(|| run::rep(w, args.seed, plan, Mode::Traced), "traced");
    let tele = tally.attempt(
        || run::rep(w, args.seed, plan, Mode::Telemetry),
        "telemetry-on",
    );
    let (Some(mut traced), Some(tele)) = (traced, tele) else {
        return Vec::new();
    };
    let Some(cold_rss_kb) = cold_rss_kb else {
        return Vec::new();
    };
    let baseline = best_window(&slices);
    let traced_cpu: f64 = traced.slice_cpu.iter().sum();
    let tele_cpu: f64 = tele.slice_cpu.iter().sum();
    let (mut metrics, notes) = trace::layers(&mut traced, plan, overhead_ns, cold_rss_kb);
    for note in notes {
        println!("  {note}");
    }
    let stats = tele.tele.as_ref().expect("telemetry-on repetition");
    println!(
        "  CPU per window: untraced per-slice best {baseline:.6} s, traced {traced_cpu:.6} s, telemetry on {tele_cpu:.6} s; timer pair {overhead_ns} ns"
    );
    metrics.extend([
        Metric::new(
            "traffic.tcp_retransmits",
            stats.tcp_retransmits as f64,
            "count",
        ),
        Metric::new("fq_codel.sojourn_p99_ms", ms(stats.sojourn_p99_ns), "ms"),
        Metric::new("telemetry.on_cost_ratio", tele_cpu / baseline, "ratio"),
        Metric::new("trace.overhead_ratio", traced_cpu / baseline, "ratio"),
    ]);
    metrics
}

fn bench<W: Workload>(w: &W, args: &Args) -> (Tally, Vec<Metric>) {
    let plan = w.plan(args.smoke);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        digest: None,
    };
    println!(
        "workload {} seed {} ({}; warm-up {} s, window {} s simulated)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        plan.warmup.as_secs_f64(),
        plan.window.as_secs_f64()
    );
    let metrics = if args.trace {
        per_layer(w, args, &plan, &mut tally)
    } else {
        end_to_end(w, args, &plan, &mut tally)
    };
    (tally, metrics)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("simbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    clock::keep_freed_memory();
    let (tally, metrics) = match args.workload.as_str() {
        "thirty_tcp_ping" => bench(&ThirtyTcpPing, &args),
        "downlink_100k" => bench(&DOWNLINK_100K, &args),
        "uplink_1k" => bench(&UPLINK_1K, &args),
        other => {
            eprintln!("simbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // JSON has no NaN or infinity: a metric that is not finite is written
    // as 0 and marks the run incorrect.
    let correct =
        tally.failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let mut fields = Vec::new();
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
