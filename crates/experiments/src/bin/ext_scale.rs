//! Extension experiment: scale-out. How far does the airtime-fair MAC
//! carry beyond the paper's 30-station testbed?
//!
//! Sweeps the roster from 10 to 100,000 stations, decomposed into 1–8
//! independent BSS shards run through [`wifiq_scale::ShardSet`], with and
//! without deterministic station churn ([`wifiq_scale::ChurnDriver`]).
//! Each sweep point records saturated downlink throughput, Jain's
//! fairness index over per-station delivered bytes, simulated packets
//! delivered per wall-clock second, and a per-packet FQ hot-path cost
//! (one enqueue+dequeue pair through [`MacFq`] at that roster size).
//!
//! An artifact pair backs the determinism guarantee: the same shard
//! decomposition is executed on one worker and on four, and the merged
//! telemetry registries must be byte-identical
//! (`results/scale_rollup_seq.json` vs `results/scale_rollup_par.json`).
//! CI `cmp`s the pair. Results land in `results/BENCH_scale.json`.

use std::time::Instant;

use wifiq_codel::CodelParams;
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_experiments::report::{results_dir, write_json, Table};
use wifiq_experiments::runner::{export_metrics, mean, metrics_enabled, run_seeds};
use wifiq_experiments::RunCfg;
use wifiq_mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind, WifiNetwork,
};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_scale::{ChurnCfg, ChurnDriver, ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_telemetry::{Registry, Telemetry};

/// Offered-load pacing: a batch of MTU packets every tick, round-robined
/// over the roster. 8 × 1500 B / 500 µs ≈ 192 Mbps — saturating for the
/// fast-station PHY while keeping the event count independent of roster
/// size (per-station timers at 10k stations would swamp the event loop).
const TICK: Nanos = Nanos::from_micros(500);
const BATCH: usize = 8;
const PKT_LEN: u64 = 1500;

/// Downlink flood: server → stations, one flow per station slot, with
/// per-slot delivered-byte accounting. Sends to slots whose occupant has
/// churned away are dropped by the network (and counted there), so the
/// app never needs to track the roster.
struct FloodApp {
    slots: usize,
    cursor: usize,
    next_id: u64,
    bytes: Vec<u64>,
    pkts: u64,
}

impl FloodApp {
    fn new(slots: usize) -> FloodApp {
        FloodApp {
            slots,
            cursor: 0,
            next_id: 0,
            bytes: vec![0; slots],
            pkts: 0,
        }
    }
}

impl App<()> for FloodApp {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, _now: Nanos, _cmds: &mut Commands<()>) {
        if let Delivery::AtStation(i) = at {
            if i >= self.bytes.len() {
                self.bytes.resize(i + 1, 0);
            }
            self.bytes[i] += pkt.len;
            self.pkts += 1;
        }
    }

    fn on_timer(&mut self, _token: u64, now: Nanos, cmds: &mut Commands<()>) {
        for _ in 0..BATCH {
            let dst = self.cursor % self.slots;
            self.cursor += 1;
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(dst),
                flow: dst as u64,
                len: PKT_LEN,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(0, now + TICK);
    }
}

/// One shard's measurement-window results.
struct ShardOut {
    /// Per-slot delivered bytes inside the measurement window.
    bytes: Vec<u64>,
    /// Packets delivered inside the measurement window.
    pkts: u64,
    /// Packets delivered over the whole run (wall-clock rate numerator).
    pkts_total: u64,
    joins: u64,
    leaves: u64,
    churn_drops: u64,
}

fn drive(
    net: &mut WifiNetwork<()>,
    churn: &mut Option<ChurnDriver>,
    until: Nanos,
    app: &mut FloodApp,
) {
    match churn {
        Some(d) => d.run_until(net, until, app),
        None => net.run(until, app),
    }
}

/// Runs one BSS shard: `stations` fast stations under the airtime-fair
/// scheme, flooded downlink, optionally churned. Returns the shard's
/// window stats plus its telemetry registry (when `metrics`).
fn run_shard(
    ctx: &ShardCtx,
    stations: usize,
    churn: bool,
    warmup: Nanos,
    duration: Nanos,
    metrics: bool,
) -> (ShardOut, Option<Registry>) {
    let net_cfg = NetworkConfig::builder()
        .stations_at(stations, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(net_cfg);
    let tele = if metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    net.set_telemetry(tele.clone());

    // Start at the roster maximum so slot tables never grow past
    // `stations` (the first churn event is forced to be a leave).
    let mut driver = (churn && stations >= 2).then(|| {
        ChurnDriver::new(
            ChurnCfg {
                mean_interval: Nanos::from_millis(20),
                min_stations: (stations / 2).max(1),
                max_stations: stations,
                ..ChurnCfg::default()
            },
            ctx.seed ^ 0x00C0_FFEE,
        )
    });

    let mut app = FloodApp::new(stations);
    net.seed_timer(0, Nanos::ZERO);
    drive(&mut net, &mut driver, warmup, &mut app);
    let warm_bytes = app.bytes.clone();
    let warm_pkts = app.pkts;
    drive(&mut net, &mut driver, duration, &mut app);

    let bytes = app
        .bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| b - warm_bytes.get(i).copied().unwrap_or(0))
        .collect();
    (
        ShardOut {
            bytes,
            pkts: app.pkts - warm_pkts,
            pkts_total: app.pkts,
            joins: driver.as_ref().map_or(0, |d| d.joins),
            leaves: driver.as_ref().map_or(0, |d| d.leaves),
            churn_drops: net.churn_drops(),
        },
        tele.take_registry(),
    )
}

/// Splits `stations` over `shards` as evenly as possible (early shards
/// take the remainder).
fn split_stations(stations: usize, shards: u32) -> Vec<usize> {
    let shards = shards as usize;
    (0..shards)
        .map(|s| stations / shards + usize::from(s < stations % shards))
        .collect()
}

/// Per-packet FQ hot-path cost at this roster size: one TID per station,
/// packets round-robined over TIDs in batches, timed around the
/// enqueue+dequeue pair. Mirrors `benches/fq_hotpath.rs` but runs inline
/// so every sweep point carries its own number.
fn fq_hotpath_ns(stations: usize) -> f64 {
    let mut fq: MacFq<Packet<()>> = MacFq::new(FqParams {
        flows: 4096,
        limit: 16384,
        ..FqParams::default()
    });
    let tids: Vec<_> = (0..stations).map(|_| fq.register_tid()).collect();
    let params = CodelParams::wifi_default();
    let pkt = |i: usize, id: u64| Packet {
        id,
        src: NodeAddr::Server,
        dst: NodeAddr::Station(i),
        flow: i as u64,
        len: PKT_LEN,
        ac: AccessCategory::Be,
        created: Nanos::ZERO,
        enqueued: Nanos::ZERO,
        payload: (),
    };
    let target_pairs: usize = 200_000;
    let batch = 4096.min(target_pairs);
    let rounds = target_pairs.div_ceil(batch);
    let mut cursor = 0usize;
    let mut id = 0u64;
    let mut done = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        let base = cursor;
        for k in 0..batch {
            let tid = tids[(base + k) % tids.len()];
            id += 1;
            fq.enqueue(pkt((base + k) % tids.len(), id), tid, Nanos::from_nanos(id));
        }
        for k in 0..batch {
            let tid = tids[(base + k) % tids.len()];
            std::hint::black_box(fq.dequeue(tid, Nanos::from_nanos(id), &params));
        }
        cursor += batch;
        done += batch;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

#[derive(serde::Serialize)]
struct Row {
    stations: usize,
    shards: u32,
    churn: bool,
    throughput_mbps: f64,
    jain: f64,
    pkts_per_wall_sec: f64,
    fq_ns_per_pkt: f64,
    joins: u64,
    leaves: u64,
    churn_drops: u64,
    wall_ms: f64,
}

/// One sweep point: `reps` seeded repetitions of a sharded run (cached
/// and parallelised by the experiment harness), plus the inline FQ
/// hot-path measurement.
#[allow(clippy::too_many_arguments)]
fn run_point(
    stations: usize,
    shards: u32,
    churn: bool,
    warmup: Nanos,
    duration: Nanos,
    cfg: &RunCfg,
) -> Row {
    let cell = format!("{stations}sta");
    let config = format!(
        "{}shard{}_{}ms",
        shards,
        if churn { "_churn" } else { "" },
        duration.as_millis()
    );
    let per_shard = split_stations(stations, shards);
    let workers = cfg.jobs.max(1);
    // (window bytes across shards, window pkts, total pkts, joins,
    //  leaves, churn drops, wall ms) per repetition.
    type Rep = (Vec<u64>, u64, u64, u64, u64, u64, f64);
    let reps: Vec<Rep> = run_seeds("ext_scale", &cell, &config, cfg, |seed| {
        let wall = Instant::now();
        let run = ShardSet::new(shards, seed)
            .with_workers(workers)
            .run(|ctx| {
                // Sweep reps skip per-shard telemetry (the rollup is
                // exercised and exported by the determinism check).
                run_shard(
                    ctx,
                    per_shard[ctx.shard as usize],
                    churn,
                    warmup,
                    duration,
                    false,
                )
            });
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let bytes: Vec<u64> = run.outputs.iter().flat_map(|o| o.bytes.clone()).collect();
        let sum = |f: fn(&ShardOut) -> u64| run.outputs.iter().map(f).sum::<u64>();
        (
            bytes,
            sum(|o| o.pkts),
            sum(|o| o.pkts_total),
            sum(|o| o.joins),
            sum(|o| o.leaves),
            sum(|o| o.churn_drops),
            wall_ms,
        )
    });
    let window = (duration - warmup).as_secs_f64();
    let mbps: Vec<f64> = reps
        .iter()
        .map(|r| r.0.iter().sum::<u64>() as f64 * 8.0 / window / 1e6)
        .collect();
    let jains: Vec<f64> = reps
        .iter()
        .map(|r| {
            let shares: Vec<f64> = r.0.iter().map(|&b| b as f64).collect();
            jain_index(&shares)
        })
        .collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.2 as f64 / (r.6 / 1e3).max(1e-9))
        .collect();
    Row {
        stations,
        shards,
        churn,
        throughput_mbps: mean(&mbps),
        jain: mean(&jains),
        pkts_per_wall_sec: mean(&rates),
        fq_ns_per_pkt: fq_hotpath_ns(stations),
        joins: reps.iter().map(|r| r.3).sum::<u64>() / reps.len() as u64,
        leaves: reps.iter().map(|r| r.4).sum::<u64>() / reps.len() as u64,
        churn_drops: reps.iter().map(|r| r.5).sum::<u64>() / reps.len() as u64,
        wall_ms: mean(&reps.iter().map(|r| r.6).collect::<Vec<_>>()),
    }
}

/// The sharding determinism guarantee, executed: the same decomposition
/// on one worker vs four must produce byte-identical telemetry rollups.
/// Writes both artifacts for CI to `cmp` and aborts on any divergence.
fn determinism_check(stations: usize, shards: u32, warmup: Nanos, duration: Nanos, seed: u64) {
    let per_shard = split_stations(stations, shards);
    let rollup = |workers: usize| {
        ShardSet::new(shards, seed)
            .with_workers(workers)
            .run(|ctx| {
                run_shard(
                    ctx,
                    per_shard[ctx.shard as usize],
                    true,
                    warmup,
                    duration,
                    true,
                )
            })
    };
    let seq_run = rollup(1);
    let seq = seq_run.registry.to_json().pretty();
    let par = rollup(4).registry.to_json().pretty();
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("scale_rollup_seq.json"), &seq).expect("write seq rollup");
    std::fs::write(dir.join("scale_rollup_par.json"), &par).expect("write par rollup");
    if seq != par {
        eprintln!(
            "determinism check FAILED: {stations} stations / {shards} shards \
             rolled up differently on 1 vs 4 workers"
        );
        std::process::exit(1);
    }
    println!(
        "determinism: {stations} stations / {shards} shards, churned — \
         1-worker and 4-worker rollups byte-identical ({} bytes)",
        seq.len()
    );
    if metrics_enabled() {
        // Re-export the rollup in the standard snapshot format so
        // scripts/check_metrics.py validates the shard-labeled registry.
        let tele = Telemetry::enabled();
        tele.absorb_registry(&seq_run.registry, |l| l);
        export_metrics(&tele, "scale_rollup", seed);
    }
}

fn main() {
    let cfg = RunCfg::from_env();
    let quick = std::env::var("WIFIQ_QUICK").is_ok_and(|v| v == "1");
    // Scale sweeps set their own (short) windows: the interesting axis is
    // roster size, not duration, and 10k stations at the default 30 s
    // would take hours on one core.
    let (warmup, duration) = if quick {
        (Nanos::from_millis(100), Nanos::from_millis(400))
    } else {
        (Nanos::from_millis(250), Nanos::from_secs(1))
    };
    println!(
        "Extension: scale-out — 10 → 100k stations across 1-8 BSS shards, \
         saturated downlink, with and without churn ({} reps x {}ms sim)\n",
        cfg.reps,
        duration.as_millis()
    );

    // (stations, shards, churn). Quick mode caps the sweep at 100
    // stations — the 100k point alone would dominate a smoke run.
    let grid: &[(usize, u32, bool)] = if quick {
        &[
            (10, 1, false),
            (10, 2, false),
            (100, 2, false),
            (100, 2, true),
        ]
    } else {
        &[
            (10, 1, false),
            (10, 2, false),
            (100, 1, false),
            // 100sta/2shard doubles as the quick-mode gate case, so the
            // full-grid baseline must carry it too.
            (100, 2, false),
            (100, 4, false),
            (1000, 4, false),
            (1000, 4, true),
            (5000, 4, false),
            (5000, 8, false),
            (10000, 8, false),
            (10000, 8, true),
            (100_000, 8, false),
        ]
    };
    let rows: Vec<Row> = grid
        .iter()
        .map(|&(stations, shards, churn)| {
            run_point(stations, shards, churn, warmup, duration, &cfg)
        })
        .collect();

    let mut t = Table::new(vec![
        "Stations",
        "Shards",
        "Churn",
        "Mbps",
        "Jain",
        "pkts/wall-s",
        "FQ ns/pkt",
        "Joins",
        "Leaves",
        "Wall (ms)",
    ]);
    for r in &rows {
        t.row(vec![
            r.stations.to_string(),
            r.shards.to_string(),
            if r.churn { "yes" } else { "no" }.to_string(),
            format!("{:.1}", r.throughput_mbps),
            format!("{:.3}", r.jain),
            format!("{:.0}", r.pkts_per_wall_sec),
            format!("{:.0}", r.fq_ns_per_pkt),
            r.joins.to_string(),
            r.leaves.to_string(),
            format!("{:.0}", r.wall_ms),
        ]);
    }
    t.print();
    println!();

    let (det_sta, det_shards) = if quick { (100, 2) } else { (5000, 4) };
    determinism_check(det_sta, det_shards, warmup, duration, cfg.base_seed);

    write_json("BENCH_scale", &rows);
    let max = rows.iter().map(|r| r.stations).max().unwrap_or(0);
    println!(
        "\nscale summary: points={} max_stations={} churn_points={} det=ok",
        rows.len(),
        max,
        rows.iter().filter(|r| r.churn).count()
    );
}
