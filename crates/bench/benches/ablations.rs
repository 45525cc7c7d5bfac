//! Ablation benchmarks for the design choices DESIGN.md calls out: what
//! each mechanism costs on the hot path (behavioural ablations live in
//! the experiment binaries; these are the CPU-cost ablations).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wifiq_bench::BenchPkt;
use wifiq_codel::{CodelParams, StationCodelParams};
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_core::scheduler::{AirtimeParams, AirtimeScheduler};
use wifiq_core::table::StationTable;
use wifiq_sim::Nanos;

/// Sparse-station optimisation: scheduling cost with it on vs off.
fn sparse_on_off(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sparse_stations");
    for (label, sparse) in [("enabled", true), ("disabled", false)] {
        g.bench_function(label, |b| {
            let mut s = AirtimeScheduler::new(AirtimeParams {
                sparse_stations: sparse,
                ..AirtimeParams::default()
            });
            let mut table: StationTable<()> = StationTable::new();
            let handles: Vec<_> = (0..30)
                .map(|_| s.register_station(&mut table, ()))
                .collect();
            for &h in &handles {
                s.notify_active(&mut table, h, 2);
            }
            let mut i = 0usize;
            b.iter(|| {
                // One station keeps going idle and re-activating — the
                // path the optimisation exists for.
                i = (i + 1) % 30;
                s.notify_active(&mut table, handles[i], 2);
                let st = s.next_station(&mut table, 2, |_, _| true).expect("active");
                s.charge(&mut table, st, 2, Nanos::from_micros(400));
                black_box(st);
            });
        });
    }
    g.finish();
}

/// DRR quantum sensitivity: smaller quanta mean more list rotations per
/// transmission opportunity.
fn quantum_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_quantum");
    for quantum_us in [50u64, 300, 2000] {
        g.bench_function(format!("{quantum_us}us"), |b| {
            let mut s = AirtimeScheduler::new(AirtimeParams {
                quantum: Nanos::from_micros(quantum_us),
                ..AirtimeParams::default()
            });
            let mut table: StationTable<()> = StationTable::new();
            let handles: Vec<_> = (0..10)
                .map(|_| s.register_station(&mut table, ()))
                .collect();
            for &h in &handles {
                s.notify_active(&mut table, h, 2);
            }
            b.iter(|| {
                let st = s.next_station(&mut table, 2, |_, _| true).expect("active");
                s.charge(&mut table, st, 2, Nanos::from_micros(1_500));
                black_box(st);
            });
        });
    }
    g.finish();
}

/// Per-station CoDel parameter adaptation (§3.1.1): the update_rate call
/// made per TX completion.
fn codel_param_update(c: &mut Criterion) {
    c.bench_function("ablation_station_codel_update", |b| {
        let mut p = StationCodelParams::new();
        let mut now = Nanos::ZERO;
        let mut rate = 100_000_000u64;
        b.iter(|| {
            now += Nanos::from_micros(500);
            rate = if rate == 100_000_000 {
                7_000_000
            } else {
                100_000_000
            };
            black_box(p.update_rate(now, rate));
        });
    });
}

/// Flow-pool sizing: hash spread vs overflow-queue collisions.
fn flow_pool_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_flow_pool");
    for flows in [64usize, 1024, 8192] {
        g.bench_function(format!("{flows}_flows"), |b| {
            let mut fq: MacFq<BenchPkt> = MacFq::new(FqParams {
                flows,
                limit: 8192,
                quantum: 300,
                ..FqParams::default()
            });
            let tids: Vec<_> = (0..8).map(|_| fq.register_tid()).collect();
            let params = CodelParams::wifi_default();
            let mut now = Nanos::ZERO;
            let mut i = 0u64;
            b.iter(|| {
                now += Nanos::from_micros(5);
                i += 1;
                let tid = tids[(i % 8) as usize];
                fq.enqueue(BenchPkt::new(i % 512, now), tid, now);
                black_box(fq.dequeue(tid, now, &params));
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    sparse_on_off,
    quantum_sweep,
    codel_param_update,
    flow_pool_sweep
);
criterion_main!(benches);
