//! One repetition of a workload: construction (timed as setup), an
//! untimed warm-up, and the steady window (timed in thread CPU), plus
//! the simulated outcome and its digest.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use wifiq_mac::{App, Commands, Delivery, Packet, StationMeter, TxMonitor, TxRecord, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;

use crate::clock::{status_kb, thread_cpu_s};
use crate::trace::Tracer;
use crate::workloads::{Plan, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end repetition: no tracing, telemetry off.
    Plain,
    /// Sliced run with callback spans, a monitor and capture for the
    /// drives.
    Traced,
    /// Telemetry enabled on the network and the app.
    Telemetry,
}

/// The simulated outcome of the steady window. Deterministic for a
/// seed: every repetition must reproduce `digest` exactly.
pub struct Outcome {
    pub digest: u64,
    /// MPDUs delivered, both directions (from the meter).
    pub pkts: u64,
    pub goodput_mbps: f64,
    /// Jain's index over per-station airtime, probe station excluded.
    pub jain: f64,
    /// Creation-to-delivery delay of every delivered non-ping packet (ns,
    /// sorted).
    pub delays: Vec<u64>,
    /// Ping RTTs (ns, sorted).
    pub rtts: Vec<u64>,
    /// Events the network processed.
    pub events: u64,
    /// Per-station meter deltas over the window.
    pub meter: Vec<StationMeter>,
}

/// Host-side measurements of one repetition.
pub struct Rep<W: Workload> {
    /// Mean CPU seconds per `WifiNetwork::new` and per app install.
    pub new_s: f64,
    pub install_s: f64,
    /// Resident-set growth across construction, KiB.
    pub rss_delta_kb: i64,
    /// Thread CPU seconds of each slice of the steady window.
    pub slice_cpu: Vec<f64>,
    pub outcome: Outcome,
    pub check: Result<(), String>,
    pub net: WifiNetwork<W::Msg>,
    pub rec: Recorder<W>,
    pub log: Option<Vec<TxRecord>>,
    /// Stations (plus the AP) with queued traffic, sampled at slice edges.
    pub ready: Vec<usize>,
    pub tele: Option<TeleStats>,
}

/// Counts only the telemetry-on pass can see.
pub struct TeleStats {
    /// TCP fast retransmits plus timeouts inside the window.
    pub tcp_retransmits: u64,
    /// p99 AP CoDel sojourn over the run, ns.
    pub sojourn_p99_ns: u64,
}

/// The app wrapper every repetition runs: records delivery delays and,
/// when traced, times each callback into the wrapped app.
pub struct Recorder<W: Workload> {
    pub app: W::App,
    from: Nanos,
    delays: Vec<u64>,
    pub tracer: Option<Tracer<W::Msg>>,
}

impl<W: Workload> App<W::Msg> for Recorder<W> {
    fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<W::Msg>,
        now: Nanos,
        cmds: &mut Commands<W::Msg>,
    ) {
        if now >= self.from && !W::is_ping(&pkt.payload) {
            self.delays.push(now.saturating_sub(pkt.created).as_nanos());
        }
        match self.tracer.as_mut() {
            None => self.app.on_packet(at, pkt, now, cmds),
            Some(t) => {
                let seen = t.seen(cmds);
                let start = Instant::now();
                self.app.on_packet(at, pkt, now, cmds);
                t.after_call(start, now, cmds, seen);
            }
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<W::Msg>) {
        match self.tracer.as_mut() {
            None => self.app.on_timer(token, now, cmds),
            Some(t) => {
                let seen = t.seen(cmds);
                let start = Instant::now();
                self.app.on_timer(token, now, cmds);
                t.after_call(start, now, cmds, seen);
            }
        }
    }
}

/// Monitor sink keeping every transmission record of the traced run.
#[derive(Default)]
struct TxLog(Vec<TxRecord>);

impl TxMonitor for TxLog {
    fn on_tx(&mut self, record: &TxRecord) {
        self.0.push(*record);
    }
}

/// Builds the network and installs the traffic `setup_batch` times,
/// keeping the last. Returns mean CPU seconds per `new` and per install.
fn construct<W: Workload>(w: &W, seed: u64) -> (WifiNetwork<W::Msg>, W::App, f64, f64) {
    let (mut new_s, mut install_s) = (0.0, 0.0);
    let mut built = None;
    for _ in 0..w.setup_batch() {
        // Free the previous copy first so only one is ever resident.
        drop(built.take());
        let cfg = w.config(seed);
        let t0 = thread_cpu_s();
        let mut net = WifiNetwork::new(cfg);
        let t1 = thread_cpu_s();
        let app = w.install(seed, &mut net);
        let t2 = thread_cpu_s();
        new_s += t1 - t0;
        install_s += t2 - t1;
        built = Some((net, app));
    }
    let (net, app) = built.expect("setup_batch is at least 1");
    let batch = w.setup_batch() as f64;
    (net, app, new_s / batch, install_s / batch)
}

fn tcp_retransmits(tele: &Telemetry) -> u64 {
    tele.with_registry(|r| {
        r.counter_total("tcp", "fast_retransmits") + r.counter_total("tcp", "timeouts")
    })
    .unwrap_or(0)
}

/// Runs one repetition of `w` for `seed`.
pub fn rep<W: Workload>(w: &W, seed: u64, plan: &Plan, mode: Mode) -> Rep<W> {
    let rss0 = status_kb("VmRSS");
    let (mut net, mut app, new_s, install_s) = construct(w, seed);
    let rss_delta_kb = status_kb("VmRSS") as i64 - rss0 as i64;

    let tele = match mode {
        Mode::Telemetry => Telemetry::enabled(),
        _ => Telemetry::disabled(),
    };
    if tele.is_enabled() {
        net.set_telemetry(tele.clone());
        w.set_app_telemetry(&mut app, &tele);
    }
    let log = Rc::new(RefCell::new(TxLog::default()));
    let mut rec = Recorder {
        app,
        from: plan.warmup,
        delays: Vec::new(),
        tracer: None,
    };
    if mode == Mode::Traced {
        net.attach_monitor(Box::new(log.clone()));
        rec.tracer = Some(Tracer::new(net.config().wire_delay));
    }
    let mut ready = Vec::new();

    run_sliced(&mut net, &mut rec, Nanos::ZERO, plan, &mut ready);
    let before = net.meter().all().to_vec();
    let events0 = net.events_processed;
    let retransmits0 = tcp_retransmits(&tele);
    let slice_cpu = run_sliced(&mut net, &mut rec, plan.warmup, plan, &mut ready);

    let outcome = measure(
        w,
        &net,
        &mut rec,
        &before,
        net.events_processed - events0,
        plan,
    );
    let check = w.check(&rec.app, &outcome);
    let tele_stats = tele.is_enabled().then(|| TeleStats {
        tcp_retransmits: tcp_retransmits(&tele) - retransmits0,
        sojourn_p99_ns: tele
            .with_registry(|r| r.hist_merged("fq", "sojourn_ns").map(|h| h.quantile(0.99)))
            .flatten()
            .unwrap_or(0),
    });
    drop(net.take_monitor());
    let log = (mode == Mode::Traced).then(|| std::mem::take(&mut log.borrow_mut().0));
    Rep {
        new_s,
        install_s,
        rss_delta_kb,
        slice_cpu,
        outcome,
        check,
        net,
        rec,
        log,
        ready,
        tele: tele_stats,
    }
}

/// Runs the network from `from` to the next plan boundary (the warm-up
/// end, or the window end) in `plan.slice` steps and returns each
/// slice's thread CPU seconds. Every repetition runs the same slices, so
/// slice `k` does identical work in each. When traced, each slice is
/// also a `run_slice` span, and in the window the backlogs are sampled
/// after it, outside both the span and the slice's CPU time.
fn run_sliced<W: Workload>(
    net: &mut WifiNetwork<W::Msg>,
    rec: &mut Recorder<W>,
    from: Nanos,
    plan: &Plan,
    ready: &mut Vec<usize>,
) -> Vec<f64> {
    let window = from >= plan.warmup;
    let to = if window { plan.end() } else { plan.warmup };
    let mut cpu = Vec::new();
    let mut t = from;
    while t < to {
        t = (t + plan.slice).min(to);
        let c0 = thread_cpu_s();
        let start = Instant::now();
        net.run(t, rec);
        let end = Instant::now();
        cpu.push(thread_cpu_s() - c0);
        if let Some(tracer) = rec.tracer.as_mut() {
            if window {
                let stations = (0..net.station_slots())
                    .filter(|&i| net.station_backlog(i) > 0)
                    .count();
                ready.push(stations + usize::from(net.ap_backlog() > 0));
            }
            tracer.slice(start, end, Instant::now(), window);
        }
    }
    cpu
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn measure<W: Workload>(
    w: &W,
    net: &WifiNetwork<W::Msg>,
    rec: &mut Recorder<W>,
    before: &[StationMeter],
    events: u64,
    plan: &Plan,
) -> Outcome {
    let meter: Vec<StationMeter> = net
        .meter()
        .all()
        .iter()
        .zip(before)
        .map(|(a, b)| StationMeter {
            tx_airtime: a.tx_airtime - b.tx_airtime,
            rx_airtime: a.rx_airtime - b.rx_airtime,
            tx_frames: a.tx_frames - b.tx_frames,
            tx_bytes: a.tx_bytes - b.tx_bytes,
            rx_frames: a.rx_frames - b.rx_frames,
            rx_bytes: a.rx_bytes - b.rx_bytes,
            tx_aggregates: a.tx_aggregates - b.tx_aggregates,
            tx_aggregate_frames: a.tx_aggregate_frames - b.tx_aggregate_frames,
            failures: a.failures - b.failures,
            retry_drops: a.retry_drops - b.retry_drops,
        })
        .collect();
    let mut delays = std::mem::take(&mut rec.delays);
    delays.sort_unstable();
    let mut rtts = w.ping_rtts(&rec.app, plan.warmup);
    rtts.sort_unstable();

    let mut d = Digest::new();
    for m in &meter {
        for v in [
            m.tx_airtime.as_nanos(),
            m.rx_airtime.as_nanos(),
            m.tx_frames,
            m.tx_bytes,
            m.rx_frames,
            m.rx_bytes,
            m.tx_aggregates,
            m.tx_aggregate_frames,
            m.failures,
            m.retry_drops,
        ] {
            d.word(v);
        }
    }
    for &v in delays.iter().chain(&rtts) {
        d.word(v);
    }
    d.word(events);

    let pkts = meter.iter().map(|m| m.tx_frames + m.rx_frames).sum();
    let bytes: u64 = meter.iter().map(|m| m.tx_bytes + m.rx_bytes).sum();
    let airtime: Vec<f64> = meter
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != w.probe_station())
        .map(|(_, m)| m.total_airtime().as_nanos() as f64)
        .collect();
    let sum: f64 = airtime.iter().sum();
    let sum_sq: f64 = airtime.iter().map(|x| x * x).sum();
    let jain = if sum_sq > 0.0 {
        sum * sum / (airtime.len() as f64 * sum_sq)
    } else {
        0.0
    };
    Outcome {
        digest: d.0,
        pkts,
        goodput_mbps: bytes as f64 * 8.0 / plan.window.as_secs_f64() / 1e6,
        jain,
        delays,
        rtts,
        events,
        meter,
    }
}
