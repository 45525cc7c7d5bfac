//! The traced run's span recorder, the two drives that time layer
//! calls from outside, and the per-layer metrics derived from them.
//!
//! Spans are kept in memory and reduced when the run ends: one
//! `run_slice` span per `WifiNetwork::run` call of a fixed simulated
//! slice, and a `traffic` child span per app callback. A layer's self
//! time is its span time minus its children's.

use std::time::Instant;

use wifiq_mac::scheme::ApTxPath;
use wifiq_mac::Commands;
use wifiq_mac::{NetworkConfig, NodeAddr, Packet, TxDirection, TxRecord};
use wifiq_sim::{EventQueue, Nanos};

use crate::run::Rep;
use crate::workloads::{Plan, Workload};
use crate::Metric;

/// 1 Gbps wire serialisation, as `WifiNetwork` applies it.
fn wire_time(len: u64) -> Nanos {
    Nanos::for_bits(len * 8, 1_000_000_000)
}

/// Spans and captures of the traced run.
pub struct Tracer<M> {
    origin: Instant,
    wire_delay: Nanos,
    /// Per callback: start, end of the app call, end of the tracer's own
    /// capture (ns since `origin`).
    calls: Vec<[u64; 3]>,
    /// Per slice: start, end, end of the backlog sampling that follows
    /// it, inside the steady window.
    slices: Vec<(u64, u64, u64, bool)>,
    /// Downlink packets the app sent, stamped with their AP arrival.
    pub downlink: Vec<(Nanos, Packet<M>)>,
    /// Event-queue pushes the app caused: `(pushed at, fires at)`.
    pub pushes: Vec<(Nanos, Nanos)>,
}

impl<M: Clone> Tracer<M> {
    pub fn new(wire_delay: Nanos) -> Tracer<M> {
        Tracer {
            origin: Instant::now(),
            wire_delay,
            calls: Vec::new(),
            slices: Vec::new(),
            downlink: Vec::new(),
            pushes: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// How many sends and timers `cmds` holds before a callback: one
    /// network event can run several callbacks before the network
    /// drains the buffer, so only what comes after is the callback's.
    pub fn seen(&self, cmds: &Commands<M>) -> (usize, usize) {
        (cmds.sends().len(), cmds.timers().len())
    }

    /// Closes a callback span begun at `start` and captures what the
    /// callback asked the network to do.
    pub fn after_call(
        &mut self,
        start: Instant,
        now: Nanos,
        cmds: &Commands<M>,
        seen: (usize, usize),
    ) {
        let mid = Instant::now();
        for pkt in &cmds.sends()[seen.0..] {
            if pkt.src == NodeAddr::Server {
                let arrival = now + self.wire_delay + wire_time(pkt.len);
                self.pushes.push((now, arrival));
                self.downlink.push((arrival, pkt.clone()));
            }
        }
        for &(_, at) in &cmds.timers()[seen.1..] {
            self.pushes.push((now, at.max(now)));
        }
        let end = Instant::now();
        let span = [self.ns(start), self.ns(mid), self.ns(end)];
        self.calls.push(span);
    }

    pub fn slice(&mut self, start: Instant, end: Instant, sampled: Instant, window: bool) {
        let span = (self.ns(start), self.ns(end), self.ns(sampled), window);
        self.slices.push(span);
    }
}

/// Self times of the steady window's spans, in ns.
struct SpanTotals {
    /// `run_slice` time minus the tracer's own capture work.
    run: f64,
    traffic: f64,
    calls: u64,
    /// The tracer's own capture work inside `run_slice` spans.
    capture: f64,
    /// Backlog sampling between slices.
    sampling: f64,
}

impl SpanTotals {
    fn of<M>(t: &Tracer<M>, overhead_ns: f64) -> SpanTotals {
        let window: Vec<_> = t.slices.iter().filter(|s| s.3).collect();
        let first = window.first().map_or(u64::MAX, |s| s.0);
        let slice_ns: u64 = window.iter().map(|s| s.1 - s.0).sum();
        let sampling: u64 = window.iter().map(|s| s.2 - s.1).sum();
        let calls: Vec<_> = t.calls.iter().filter(|c| c[0] >= first).collect();
        let n = calls.len() as f64;
        let traffic: u64 = calls.iter().map(|c| c[1] - c[0]).sum();
        let own: u64 = calls.iter().map(|c| c[2] - c[1]).sum();
        // Each span costs about one timer pair of its own; it is charged
        // to the tracer, not to the layer it brackets.
        let traffic = (traffic as f64 - n * overhead_ns).max(0.0);
        let own = own as f64 + n * overhead_ns;
        SpanTotals {
            run: slice_ns as f64 - own,
            traffic,
            calls: calls.len() as u64,
            capture: own,
            sampling: sampling as f64,
        }
    }
}

/// Call counts and time of the `ap_path` drive.
#[derive(Default)]
struct ApPathDrive {
    enqueues: u64,
    enqueue_ns: f64,
    next_tx: u64,
    next_tx_ns: f64,
    builds: u64,
    build_ns: f64,
    aggregates: u64,
    frames: u64,
    charges: u64,
    charge_ns: f64,
}

/// Replays the run's downlink packets into a standalone `ApTxPath`,
/// draining one aggregate per first-attempt downlink transmission the
/// monitor saw and charging every attempt's airtime, and times each
/// public call.
fn ap_path_drive<M: Clone + std::fmt::Debug>(
    cfg: &NetworkConfig,
    downlink: &[(Nanos, Packet<M>)],
    log: &[TxRecord],
    overhead_ns: f64,
) -> ApPathDrive {
    let mut path: ApTxPath<M> = ApTxPath::new(cfg);
    let mut arrivals: Vec<&(Nanos, Packet<M>)> = downlink.iter().collect();
    arrivals.sort_by_key(|(at, _)| *at);
    let mut d = ApPathDrive::default();
    let mut next = arrivals.into_iter().peekable();
    let timed = |total: &mut f64, start: Instant| {
        *total += start.elapsed().as_nanos() as f64 - overhead_ns;
    };
    for rec in log {
        let now = rec.at.saturating_sub(rec.airtime);
        while let Some((at, pkt)) = next.next_if(|(at, _)| *at <= now) {
            let mut pkt = pkt.clone();
            pkt.enqueued = *at;
            let t = Instant::now();
            path.enqueue(pkt, *at);
            timed(&mut d.enqueue_ns, t);
            d.enqueues += 1;
        }
        let charged = match rec.direction {
            TxDirection::Uplink => {
                let Some(id) = path.sta_id(rec.station) else {
                    continue;
                };
                let t = Instant::now();
                path.on_rx_airtime(id, rec.ac, rec.airtime);
                timed(&mut d.charge_ns, t);
                d.charges += 1;
                continue;
            }
            TxDirection::Downlink if rec.retry > 0 => path.sta_id(rec.station),
            TxDirection::Downlink => loop {
                let t = Instant::now();
                let id = path.next_tx(rec.ac, now, |_| true);
                timed(&mut d.next_tx_ns, t);
                d.next_tx += 1;
                let Some(id) = id else { break None };
                let t = Instant::now();
                let agg = path.build(id, rec.ac, now);
                timed(&mut d.build_ns, t);
                d.builds += 1;
                if let Some(agg) = agg {
                    d.aggregates += 1;
                    d.frames += agg.frames.len() as u64;
                    path.recycle_frames(agg.frames);
                    break Some(id);
                }
            },
        };
        if let Some(id) = charged {
            let rate = path.rate_of(id).bits_per_second();
            let t = Instant::now();
            path.on_tx_airtime(id, rec.ac, rec.airtime, rec.at, rate);
            timed(&mut d.charge_ns, t);
            d.charges += 1;
        }
    }
    d
}

/// Call counts and time of the `event_wheel` drive.
#[derive(Default)]
struct WheelDrive {
    pushes: u64,
    push_ns: f64,
    popped: u64,
    pop_ns: f64,
}

/// Replays the run's observed event timestamps through an `EventQueue`:
/// app timers and wire arrivals from the callbacks, TX ends and uplink
/// deliveries from the monitor. Each push goes in at its push time,
/// after every tick due by then has been popped.
fn event_wheel_drive(
    mut pushes: Vec<(Nanos, Nanos)>,
    log: &[TxRecord],
    wire_delay: Nanos,
    overhead_ns: f64,
) -> WheelDrive {
    let mut last_end = None;
    for rec in log {
        // A collision reports one record per participant but ends in a
        // single TX-end event.
        if last_end != Some(rec.at) {
            pushes.push((rec.at.saturating_sub(rec.airtime), rec.at));
            last_end = Some(rec.at);
        }
        if rec.direction == TxDirection::Uplink && rec.success && rec.frames > 0 {
            let len = rec.payload_bytes / rec.frames as u64;
            let arrival = rec.at + wire_delay + wire_time(len);
            pushes.extend(std::iter::repeat_n((rec.at, arrival), rec.frames));
        }
    }
    pushes.sort_by_key(|p| p.0);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut out = Vec::new();
    let mut d = WheelDrive::default();
    let mut pop_until = |q: &mut EventQueue<u64>, d: &mut WheelDrive, until: Nanos| {
        while q.peek_time().is_some_and(|t| t <= until) {
            let t = Instant::now();
            q.pop_tick(until, &mut out);
            d.pop_ns += t.elapsed().as_nanos() as f64 - overhead_ns;
            d.popped += out.len() as u64;
            out.clear();
        }
    };
    for (i, &(pushed, fires)) in pushes.iter().enumerate() {
        pop_until(&mut q, &mut d, pushed);
        let t = Instant::now();
        q.push(fires, i as u64);
        d.push_ns += t.elapsed().as_nanos() as f64 - overhead_ns;
        d.pushes += 1;
    }
    pop_until(&mut q, &mut d, Nanos::MAX);
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced repetition (all but the telemetry and
/// trace ratios, which need the other passes), plus the lines the run
/// prints: the span totals and the drives' fidelity report.
pub fn layers<W: Workload>(
    rep: &mut Rep<W>,
    plan: &Plan,
    overhead_ns: f64,
    cold_rss_kb: i64,
) -> (Vec<Metric>, Vec<String>) {
    let tracer = rep.rec.tracer.take().expect("traced repetition");
    let log = rep.log.take().expect("traced repetition has a monitor log");
    let net = &rep.net;
    let out = &rep.outcome;
    let cfg = net.config();
    let stations = cfg.num_stations() as f64;
    let window_s = plan.window.as_secs_f64();

    let spans = SpanTotals::of(&tracer, overhead_ns);
    let mac_ns = spans.run - spans.traffic;
    let in_window = |r: &&TxRecord| r.at > plan.warmup;
    let attempts = log.iter().filter(in_window).count() as f64;
    let failed = log.iter().filter(in_window).filter(|r| !r.success).count() as f64;
    let ready_mean = ratio(
        rep.ready.iter().sum::<usize>() as f64,
        rep.ready.len() as f64,
    );

    let ap = ap_path_drive(cfg, &tracer.downlink, &log, overhead_ns);
    let real_aggregates = log
        .iter()
        .filter(|r| r.direction == TxDirection::Downlink && r.retry == 0)
        .count();
    let wheel = event_wheel_drive(tracer.pushes, &log, cfg.wire_delay, overhead_ns);
    let (aggs, agg_frames) = out.meter.iter().fold((0, 0), |(a, f), m| {
        (a + m.tx_aggregates, f + m.tx_aggregate_frames)
    });
    let downlink_pkts = tracer.downlink.len() as f64;
    let drops = (net.ap_queue_drops() + net.ap_codel_drops()) as f64;

    // Independent of the capture: a downlink packet the real AP took in
    // was delivered, dropped at the AP queues, or is still queued (retry
    // drops are left out: the meter does not split them by direction).
    let ap_fate = net.meter().all().iter().map(|m| m.tx_frames).sum::<u64>()
        + net.ap_queue_drops()
        + net.ap_codel_drops()
        + net.ap_backlog() as u64;
    let notes = vec![
        format!(
            "spans over the window: run_slice {:.6} s of which traffic {:.6} s in {} calls; tracer capture {:.6} s, backlog sampling {:.6} s",
            spans.run * 1e-9, spans.traffic * 1e-9, spans.calls, spans.capture * 1e-9, spans.sampling * 1e-9
        ),
        format!(
            "ap_path drive: {} downlink packets enqueued (run: {ap_fate} delivered, dropped or queued at the AP), {} aggregates built (run: {real_aggregates} first attempts), {} next_tx calls, {} charges",
            ap.enqueues, ap.aggregates, ap.next_tx, ap.charges
        ),
        format!(
            "event_wheel drive: {} events pushed, {} popped (run: {} events processed)",
            wheel.pushes, wheel.popped, net.events_processed
        ),
    ];
    let m = Metric::new;
    let metrics = vec![
        m("setup.network_new_s", rep.new_s, "s"),
        m("setup.app_install_s", rep.install_s, "s"),
        m(
            "setup.us_per_station",
            (rep.new_s + rep.install_s) * 1e6 / stations,
            "us",
        ),
        m(
            "setup.rss_kb_per_station",
            cold_rss_kb as f64 / stations,
            "KiB",
        ),
        m(
            "traffic.self_share",
            ratio(spans.traffic, spans.run),
            "ratio",
        ),
        m(
            "traffic.ns_per_call",
            ratio(spans.traffic, spans.calls as f64),
            "ns",
        ),
        m(
            "traffic.calls_per_pkt",
            ratio(spans.calls as f64, out.pkts as f64),
            "calls/pkt",
        ),
        m("mac.self_share", ratio(mac_ns, spans.run), "ratio"),
        m("mac.ns_per_event", ratio(mac_ns, out.events as f64), "ns"),
        m("contention.attempts_per_sim_s", attempts / window_s, "1/s"),
        m("contention.failed_ratio", ratio(failed, attempts), "ratio"),
        m("contention.ready_stations_mean", ready_mean, "stations"),
        m(
            "contention.mac_ns_per_attempt",
            ratio(mac_ns, attempts),
            "ns",
        ),
        m(
            "airtime_drr.next_tx_ns",
            ratio(ap.next_tx_ns, ap.next_tx as f64),
            "ns",
        ),
        m(
            "airtime_drr.charge_ns",
            ratio(ap.charge_ns, ap.charges as f64),
            "ns",
        ),
        m(
            "airtime_drr.decisions_per_aggregate",
            ratio(ap.next_tx as f64, ap.aggregates as f64),
            "calls/aggr",
        ),
        m(
            "fq_codel.enqueue_ns",
            ratio(ap.enqueue_ns, ap.enqueues as f64),
            "ns",
        ),
        m(
            "fq_codel.drops_per_kpkt",
            ratio(drops * 1000.0, downlink_pkts),
            "1/kpkt",
        ),
        m(
            "aggregation.build_ns",
            ratio(ap.build_ns, ap.builds as f64),
            "ns",
        ),
        m(
            "aggregation.ns_per_frame",
            ratio(ap.build_ns, ap.frames as f64),
            "ns",
        ),
        m(
            "aggregation.frames_per_aggregate",
            ratio(agg_frames as f64, aggs as f64),
            "frames",
        ),
        m(
            "event_wheel.push_ns",
            ratio(wheel.push_ns, wheel.pushes as f64),
            "ns",
        ),
        m(
            "event_wheel.pop_ns",
            ratio(wheel.pop_ns, wheel.popped as f64),
            "ns",
        ),
        m(
            "event_wheel.events_per_pkt",
            ratio(out.events as f64, out.pkts as f64),
            "events/pkt",
        ),
    ];
    (metrics, notes)
}
