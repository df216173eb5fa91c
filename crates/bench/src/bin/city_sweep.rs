//! City-scale headline sweep: ANC vs traditional relaying on urban
//! meshes from ~100 to >100,000 nodes.
//!
//! Every point gives both schemes the **same slot horizon** and the
//! same per-slot packet-pair demand λ: ANC serves a crossing in
//! 2 slots (`rounds = slots/2`, per-round offered `2λ`), traditional
//! relaying needs 4 (`rounds = slots/4`, per-round offered `4λ`,
//! capped at one arrival per round — the cap *is* the capacity
//! starvation). The headline sweep runs **saturated** (λ = 0.5, every
//! cell backlogged): each cell can absorb at most one exchange per
//! round, so traditional tops out at 0.25 pairs/slot while ANC takes
//! 0.5 and pays only its decode losses — exactly the paper's §11.3
//! throughput-gain experiment, and with the horizon equal the gain is
//! simply `delivered_anc / delivered_trad` (theoretical 2×, measured
//! lower by the ANC BER, landing near the paper's ~1.7×). The
//! per-flow ACK latencies (tracked as O(1) streaming digests — a
//! 10k-node flash crowd holds a few hundred bytes of metric state)
//! are directly comparable in slots.
//!
//! The sweep reports, per size: deliveries and delivery rates for both
//! schemes, the ANC gain, p50/p99 ACK latency, and simulated
//! slots/second. Beyond the saturated scale rows it adds a
//! random-waypoint point, a **mobile** waypoint point (endpoints
//! walking between rounds, incremental grid relocation), a
//! flash-crowd pass, and a **100k-node rung** run light-load through
//! [`anc_sim::city::CityRun::execute_profiled`] to show whether window assembly or
//! decode dominates at city scale. A small-size identity block
//! re-runs one point deterministic vs work-stealing and asserts
//! fingerprint equality before the report is emitted.
//!
//! ```text
//! cargo run --release -p anc-bench --bin city_sweep -- --quick
//! cargo run --release -p anc-bench --bin city_sweep -- --json city.json
//! ```

use anc_bench::{emit, from_env};
use anc_netcode::Scheme;
use anc_sim::city::{CityConfig, CityLayout, CityOutcome, CityProfile, FlashCrowd};
use anc_sim::report::{ExperimentReport, FigureSeries};
use anc_sim::SchedulerSpec;
use std::time::Instant;

/// Saturating per-slot demand: every cell backlogged under either
/// scheme, so throughput is service-capacity-limited (the paper's
/// gain experiment).
const SATURATED: f64 = 0.5;
/// Light per-slot demand for the flash-crowd and 100k passes: enough
/// headroom that a hotspot spike lands inside the per-round arrival
/// cap, and that the 100k rung's cost tracks arrivals, not the grid.
const LIGHT: f64 = 0.05;

/// One measured point: both schemes over the same slot horizon.
struct Point {
    nodes: usize,
    anc: CityOutcome,
    trad: CityOutcome,
    slots_per_sec: f64,
}

fn run_one(cfg: &CityConfig, scheme: Scheme, sched: SchedulerSpec) -> CityOutcome {
    CityConfig::builder(scheme)
        .config(cfg.clone())
        .scheduler(sched)
        .build()
        .unwrap_or_else(|e| panic!("city config invalid: {e}"))
        .execute()
        .unwrap_or_else(|e| panic!("city run failed: {e}"))
}

fn run_point(cfg: &CityConfig, slots: u64, lambda: f64, sched: SchedulerSpec) -> Point {
    let anc_cfg = CityConfig {
        rounds: slots / 2,
        offered: (2.0 * lambda).min(1.0),
        ..cfg.clone()
    };
    let trad_cfg = CityConfig {
        rounds: slots / 4,
        offered: (4.0 * lambda).min(1.0),
        ..cfg.clone()
    };
    let t = Instant::now();
    let anc = run_one(&anc_cfg, Scheme::Anc, sched);
    let anc_wall = t.elapsed().as_secs_f64();
    let trad = run_one(&trad_cfg, Scheme::Traditional, sched);
    Point {
        nodes: cfg.nodes(),
        anc,
        trad,
        slots_per_sec: slots as f64 / anc_wall.max(1e-9),
    }
}

fn point_row(p: &Point) -> Vec<f64> {
    let gain = if p.trad.delivered > 0 {
        p.anc.delivered as f64 / p.trad.delivered as f64
    } else {
        f64::NAN
    };
    vec![
        p.nodes as f64,
        p.anc.delivered as f64,
        p.trad.delivered as f64,
        gain,
        p.anc.delivery_rate(),
        p.trad.delivery_rate(),
        p.anc.latency.p50(),
        p.anc.latency.p99(),
        p.trad.latency.p50(),
        p.trad.latency.p99(),
        p.slots_per_sec,
    ]
}

const COLUMNS: &[&str] = &[
    "anc_delivered",
    "trad_delivered",
    "anc_gain",
    "anc_delivery_rate",
    "trad_delivery_rate",
    "anc_p50_latency_slots",
    "anc_p99_latency_slots",
    "trad_p50_latency_slots",
    "trad_p99_latency_slots",
    "slots_per_sec",
];

fn main() {
    let args = from_env();
    // `--quick` (runs = 8) keeps the CI smoke inside one figure's wall
    // clock but still covers the full 100 → 100k scale range — the
    // 10k-node saturated point and the 100k light-load rung *are* the
    // acceptance criteria, so they never drop out; quick mode shortens
    // the horizon instead.
    let quick = args.runs <= 8;
    let slots = if quick { 48 } else { 96 };
    let payload_bits = 128;
    let sched = SchedulerSpec::work_stealing(args.threads);

    let mut report = ExperimentReport::new("city_sweep");
    report
        .param("lambda_per_slot", SATURATED)
        .param("slots", slots as f64)
        .param("payload_bits", payload_bits as f64)
        .param("seed", args.seed as f64)
        .param("threads", args.threads as f64);

    let base = CityConfig {
        seed: args.seed,
        payload_bits,
        ..CityConfig::default()
    };

    // ---- Urban-grid scale sweep: 102 → 10,080 nodes. ----
    let shapes: &[(usize, usize)] = &[(17, 2), (42, 8), (56, 24), (84, 40)];
    let mut rows = Vec::new();
    let mut biggest: Option<Point> = None;
    for &(cells_x, grid_rows) in shapes {
        let cfg = CityConfig {
            cells_x,
            rows: grid_rows,
            ..base.clone()
        };
        let p = run_point(&cfg, slots, SATURATED, sched);
        println!(
            "urban {:>6} nodes: anc {}/{} vs trad {}/{} delivered, gain {:.2}, p99 {:.0} vs {:.0} slots, {:.0} slots/s",
            p.nodes,
            p.anc.delivered,
            2 * p.anc.offered,
            p.trad.delivered,
            2 * p.trad.offered,
            p.anc.delivered as f64 / (p.trad.delivered as f64).max(1.0),
            p.anc.latency.p99(),
            p.trad.latency.p99(),
            p.slots_per_sec,
        );
        rows.push(point_row(&p));
        biggest = Some(p);
    }
    let biggest = biggest.expect("sweep has sizes");
    assert!(
        biggest.nodes >= 10_000,
        "the scale claim is 10k nodes, swept only {}",
        biggest.nodes
    );
    report.push_series(FigureSeries::sweep(
        "urban_grid_scale",
        "nodes",
        COLUMNS,
        rows,
    ));
    report.stat("max_nodes", biggest.nodes as f64);
    report.stat(
        "anc_gain_at_max_scale",
        biggest.anc.delivered as f64 / (biggest.trad.delivered as f64).max(1.0),
    );
    report.stat("slots_per_sec_at_max_scale", biggest.slots_per_sec);

    // ---- One random-waypoint point: gate-crossing interference. ----
    let rw = run_point(
        &CityConfig {
            cells_x: 42,
            rows: 8,
            layout: CityLayout::RandomWaypoint,
            ..base.clone()
        },
        slots,
        SATURATED,
        sched,
    );
    println!(
        "waypoint {:>5} nodes: anc {}/{} delivered ({:.2} rate), p99 {:.0} slots",
        rw.nodes,
        rw.anc.delivered,
        2 * rw.anc.offered,
        rw.anc.delivery_rate(),
        rw.anc.latency.p99(),
    );
    report.push_series(FigureSeries::sweep(
        "random_waypoint",
        "nodes",
        COLUMNS,
        vec![point_row(&rw)],
    ));

    // ---- Mobile waypoint point: endpoints walk between rounds. ----
    // Velocity draws move each serviced chain's endpoints along
    // random-waypoint legs; the spatial grid follows via incremental
    // relocation, metered separately by the profile.
    let mobile_cfg = CityConfig {
        cells_x: 42,
        rows: 8,
        layout: CityLayout::RandomWaypoint,
        velocity: 1.5,
        pause: 2.0,
        rounds: slots / 2,
        offered: (2.0 * SATURATED).min(1.0),
        ..base.clone()
    };
    let (mobile, mobile_profile): (CityOutcome, CityProfile) = CityConfig::builder(Scheme::Anc)
        .config(mobile_cfg)
        .scheduler(sched)
        .build()
        .unwrap_or_else(|e| panic!("mobile config invalid: {e}"))
        .execute_profiled()
        .unwrap_or_else(|e| panic!("mobile run failed: {e}"));
    println!(
        "mobile   {:>5} nodes: anc {}/{} delivered ({:.2} rate), mobility {:.1} ms",
        mobile.nodes,
        mobile.delivered,
        2 * mobile.offered,
        mobile.delivery_rate(),
        mobile_profile.mobility_ns as f64 / 1e6,
    );
    report.stat("mobile_anc_delivery_rate", mobile.delivery_rate());
    report.stat("mobile_mobility_ns", mobile_profile.mobility_ns as f64);

    // ---- Flash crowd on a mid-size grid. ----
    // A hotspot multiplies arrivals 4× for the middle half of the
    // horizon; the digests absorb the spike without growing, and the
    // queue-drain shows up as a fatter latency tail.
    let mid = CityConfig {
        cells_x: 42,
        rows: 8,
        ..base.clone()
    };
    let calm = run_point(&mid, slots, LIGHT, sched);
    let crowded = run_point(
        &CityConfig {
            flash: Some(FlashCrowd {
                center: (0.0, 0.0),
                radius: 600.0,
                factor: 4.0,
                from_round: slots / 8,
                until_round: 3 * slots / 8,
            }),
            ..mid.clone()
        },
        slots,
        LIGHT,
        sched,
    );
    assert!(
        crowded.anc.offered > calm.anc.offered,
        "flash crowd must add arrivals ({} vs {})",
        crowded.anc.offered,
        calm.anc.offered
    );
    println!(
        "flash crowd: offered {} → {}, anc p99 {:.0} → {:.0} slots",
        calm.anc.offered,
        crowded.anc.offered,
        calm.anc.latency.p99(),
        crowded.anc.latency.p99(),
    );
    report.stat("flash_offered_calm", calm.anc.offered as f64);
    report.stat("flash_offered_crowded", crowded.anc.offered as f64);
    report.stat("flash_anc_p99_calm", calm.anc.latency.p99());
    report.stat("flash_anc_p99_crowded", crowded.anc.latency.p99());

    // ---- 100k-node rung: where does city-scale time go? ----
    // Light load and a short horizon keep the cost proportional to
    // arrivals (the sparse advance skips idle rounds); the profiled
    // run splits PHY time into window assembly vs decode so the next
    // optimisation target is data, not guesswork.
    let big_slots: u64 = if quick { 8 } else { 32 };
    let big = CityConfig {
        cells_x: 167,
        rows: 200,
        rounds: big_slots / 2,
        offered: (2.0 * LIGHT).min(1.0),
        ..base.clone()
    };
    assert!(
        big.nodes() >= 100_000,
        "the 100k rung must actually hold 100k nodes, got {}",
        big.nodes()
    );
    let t = Instant::now();
    let (out_100k, prof_100k) = CityConfig::builder(Scheme::Anc)
        .config(big.clone())
        .scheduler(sched)
        .build()
        .unwrap_or_else(|e| panic!("100k config invalid: {e}"))
        .execute_profiled()
        .unwrap_or_else(|e| panic!("100k run failed: {e}"));
    let wall_100k = t.elapsed().as_secs_f64();
    println!(
        "100k    {:>6} nodes: anc {}/{} delivered ({:.2} rate), {:.1}s wall, window {:.0}ms vs decode {:.0}ms ({:.0}% window)",
        out_100k.nodes,
        out_100k.delivered,
        2 * out_100k.offered,
        out_100k.delivery_rate(),
        wall_100k,
        prof_100k.window_assembly_ns as f64 / 1e6,
        prof_100k.decode_ns as f64 / 1e6,
        100.0 * prof_100k.window_share(),
    );
    assert!(out_100k.delivered > 0, "100k rung must decode something");
    report.stat("nodes_100k", out_100k.nodes as f64);
    report.stat("delivery_rate_100k", out_100k.delivery_rate());
    report.stat(
        "window_assembly_ns_100k",
        prof_100k.window_assembly_ns as f64,
    );
    report.stat("decode_ns_100k", prof_100k.decode_ns as f64);
    report.stat("window_share_100k", prof_100k.window_share());
    report.stat("slots_per_sec_100k", big_slots as f64 / wall_100k.max(1e-9));

    // ---- Identity block: the physics is execution-order-free. ----
    // One small point, both executors: deterministic and work-stealing
    // land on the same fingerprint, or the artifact is not emitted.
    let small = CityConfig {
        cells_x: 8,
        rows: 4,
        rounds: slots / 2,
        offered: (2.0 * LIGHT).min(1.0),
        ..base.clone()
    };
    let reference = run_one(&small, Scheme::Anc, SchedulerSpec::deterministic()).fingerprint();
    let stolen = run_one(&small, Scheme::Anc, SchedulerSpec::work_stealing(4)).fingerprint();
    assert_eq!(stolen, reference, "work-stealing city run diverged");
    println!("identity: deterministic/work-stealing match ({reference:#018x})");
    report.stat("execution_order_identical", 1.0);

    emit(&report, &args);
}
