//! Measures the decode hot path and the repeated-realization sweep,
//! and writes the `BENCH_decoder_pipeline.json` perf-trajectory
//! artifact the ROADMAP tracks.
//!
//! Three measurement blocks, all in one process so ratios are
//! apples-to-apples under identical compiler flags and machine load:
//!
//! 1. **Kernels** — the §7.1→§6.3 detect→lemma→matcher chain, the
//!    batched struct-of-arrays path versus the scalar oracle it is
//!    checked against bit for bit. The acceptance metric is the batch
//!    speedup.
//! 2. **End-to-end** — full `decode_forward`/`decode_backward` with
//!    scratch reuse: ns/decode, decodes/s, Msamples/s.
//! 3. **Sweep** — the Alice-Bob repeated-realization experiment run
//!    serial (`threads = 1`) and parallel (all cores), wall-clock for
//!    both, asserting bit-identical metrics.
//!
//! ```text
//! cargo run --release -p anc-bench --bin perf_baseline -- --quick
//! cargo run --release -p anc-bench --bin perf_baseline -- --json BENCH_decoder_pipeline.json
//! ```

use anc_bench::fixtures::{decode_fixture, fixture_decoder, fixture_detector, interfered_stream};
use anc_bench::perf::{measure_ns, measure_pair, HistoryEntry, PerfReport};
use anc_channel::{within_range, SpatialGrid};
use anc_core::decoder::DecoderScratch;
use anc_core::detect::mask_span;
use anc_core::matcher::{match_bits_batch, match_bits_into};
use anc_core::MatchBatchScratch;
use anc_dsp::batch::energies_into;
use anc_netcode::Scheme;
use anc_sim::city::{CityConfig, CityLayout, CityOutcome};
use anc_sim::experiments::{alice_bob, ExperimentConfig};
use anc_sim::runs::RunConfig;
use anc_sim::topology::nodes;
use anc_sim::{Engine, FaultSpec, RunCtx, ScenarioSpec, SchedulerSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    json: Option<PathBuf>,
    seed: u64,
    threads: usize,
    sweep_runs: usize,
    sweep_packets: usize,
    /// Per-measurement batch budget (ms) and batch count.
    target_ms: u64,
    repeats: usize,
    /// Round horizon of the slot-advance measurement.
    city_rounds: u64,
    /// Short-horizon mode: shrinks the 100k-node city rung too.
    quick: bool,
}

/// City run on the deterministic executor (the perf reference arm).
fn city_run(cfg: &CityConfig, scheme: Scheme) -> CityOutcome {
    CityConfig::builder(scheme)
        .config(cfg.clone())
        .build()
        .unwrap_or_else(|e| panic!("city config invalid: {e}"))
        .execute()
        .unwrap_or_else(|e| panic!("city run failed: {e}"))
}

fn parse() -> Args {
    let mut a = Args {
        json: None,
        seed: 7,
        threads: 0,
        sweep_runs: 8,
        sweep_packets: 40,
        target_ms: 250,
        repeats: 5,
        city_rounds: 20_000,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match arg.as_str() {
            "--json" => a.json = Some(PathBuf::from(it.next().expect("--json needs a path"))),
            "--seed" => a.seed = grab("--seed"),
            "--threads" => a.threads = grab("--threads") as usize,
            "--runs" => a.sweep_runs = grab("--runs") as usize,
            "--packets" => a.sweep_packets = grab("--packets") as usize,
            "--quick" => {
                a.sweep_runs = 4;
                a.sweep_packets = 10;
                a.target_ms = 60;
                a.repeats = 3;
                a.city_rounds = 4_000;
                a.quick = true;
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\nusage: [--json PATH] [--seed N] \
                     [--threads N] [--runs N] [--packets N] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }
    a
}

fn main() {
    let args = parse();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if args.threads > 0 {
        args.threads
    } else {
        cores
    };
    let mut report = PerfReport::new("decoder_pipeline");
    report.config.insert("seed".into(), args.seed as f64);
    report.config.insert("cores".into(), cores as f64);
    report.config.insert("kernel_samples".into(), 4096.0);
    report.config.insert("payload_bits".into(), 4096.0);

    // ---- 1. detect→lemma→matcher kernel, batch vs scalar oracle. ----
    // The batch arm is the production decode path since DESIGN.md §8:
    // a struct-of-arrays energy pass feeding the interference-span
    // search plus the lane-structured matcher. The scalar arm (the
    // full `interference_mask_into` pass read by `mask_span`, plus
    // `match_bits_into`) is the oracle the proptest suite pins it to;
    // both run in the same alternating-batch harness. The span covers
    // the decoder's range for a known frame that starts the stream.
    let n = 4096usize;
    let (rx, dtheta) = interfered_stream(n, 40);
    let det = fixture_detector();
    let (from, to) = (det.config().window, n - 1);
    let mut mask = Vec::new();
    let mut err = Vec::new();
    let mut bits = Vec::new();
    let mut energies = Vec::new();
    let mut batch_scratch = MatchBatchScratch::default();
    let mut err_b = Vec::new();
    let mut bits_b = Vec::new();
    // Bit-identity sanity inside the measurement binary: the batch arm
    // must reproduce the scalar oracle exactly before its timing means
    // anything (re-checked here on live data).
    det.interference_mask_into(&rx, &mut mask);
    let span = mask_span(&mask, from, to);
    match_bits_into(&rx, &dtheta, 1.0, 1.0, &mut err, &mut bits);
    energies_into(&rx, &mut energies);
    let span_b = det.interference_span(&energies, from, to);
    match_bits_batch(
        &rx,
        &dtheta,
        1.0,
        1.0,
        &mut batch_scratch,
        &mut err_b,
        &mut bits_b,
    );
    assert!(span.is_some(), "fixture stream is not interfered");
    assert_eq!(span, span_b, "searched interference span diverged");
    assert_eq!(bits, bits_b, "batch matcher bits diverged");
    assert!(
        err.len() == err_b.len()
            && err
                .iter()
                .zip(&err_b)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "batch matcher residuals diverged"
    );
    let mut batch = || {
        energies_into(black_box(&rx), &mut energies);
        let span = det.interference_span(&energies, from, to);
        bits_b.clear();
        match_bits_batch(
            black_box(&rx),
            black_box(&dtheta),
            1.0,
            1.0,
            &mut batch_scratch,
            &mut err_b,
            &mut bits_b,
        );
        black_box((span, bits_b.len()));
    };
    let (scalar_ns, batch_ns) = measure_pair(
        || {
            det.interference_mask_into(black_box(&rx), &mut mask);
            let span = mask_span(&mask, from, to);
            bits.clear();
            match_bits_into(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut err,
                &mut bits,
            );
            black_box((span, bits.len()));
        },
        &mut batch,
        args.target_ms,
        args.repeats,
    );
    let nf = n as f64;
    report.kernels.insert(
        "batch_detect_lemma_match_ns_per_sample".into(),
        batch_ns / nf,
    );
    report.kernels.insert(
        "batch_detect_lemma_match_speedup".into(),
        scalar_ns / batch_ns,
    );
    report.kernels.insert(
        "batch_detect_lemma_match_msamples_per_sec".into(),
        nf / (batch_ns * 1e-9) / 1e6,
    );
    println!(
        "kernel detect→lemma→matcher: scalar {:.1} ns/sample, batched SoA {:.1} ns/sample ({:.2}x, {:.2} Msamples/s)",
        scalar_ns / nf,
        batch_ns / nf,
        scalar_ns / batch_ns,
        nf / (batch_ns * 1e-9) / 1e6,
    );

    // ---- 1b. Fault-realization guard on the batch hot path. ----
    // The fault layer sits in front of every receive window: a passive
    // `FaultSpec::none()` must cost nothing measurable on the decode
    // path. Time the batch kernel bare against the batch kernel plus
    // the per-window guard consults the engine makes (crash check,
    // link-gain factor, jammer draw), and gate the ratio: faults-off
    // must stay within noise of the batched baseline.
    let fspec = FaultSpec::none();
    let mut energies_g = Vec::new();
    let mut batch_scratch_g = MatchBatchScratch::default();
    let mut err_g = Vec::new();
    let mut bits_g = Vec::new();
    let mut period = 0u64;
    let (bare_ns, guarded_ns) = measure_pair(
        &mut batch,
        || {
            period = period.wrapping_add(1);
            let down = fspec.node_crashed(args.seed, nodes::ROUTER, period);
            let gain = fspec.link_gain_factor(args.seed, nodes::ALICE, nodes::ROUTER, period);
            let jam = fspec.jammer_power_at(args.seed, period);
            black_box((down, gain, jam));
            energies_into(black_box(&rx), &mut energies_g);
            let span = det.interference_span(&energies_g, from, to);
            bits_g.clear();
            match_bits_batch(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut batch_scratch_g,
                &mut err_g,
                &mut bits_g,
            );
            black_box((span, bits_g.len()));
        },
        args.target_ms,
        args.repeats,
    );
    report
        .kernels
        .insert("fault_realization_ns_per_sample".into(), guarded_ns / nf);
    report
        .kernels
        .insert("fault_realization_speedup".into(), bare_ns / guarded_ns);
    println!(
        "kernel fault guard: bare {:.1} ns/sample, faults-off guarded {:.1} ns/sample ({:.3}x)",
        bare_ns / nf,
        guarded_ns / nf,
        bare_ns / guarded_ns,
    );

    // ---- 2. End-to-end decodes with scratch reuse. ----
    let dec = fixture_decoder();
    let fwd = decode_fixture(4096, true, 10 + 4096);
    let mut scratch = DecoderScratch::default();
    let fwd_ns = measure_ns(
        || {
            black_box(dec.decode_forward_with(
                black_box(&fwd.rx),
                black_box(&fwd.known_bits),
                &mut scratch,
            ))
            .ok();
        },
        args.target_ms,
        args.repeats,
    );
    let bwd = decode_fixture(4096, false, 20 + 4096);
    let bwd_ns = measure_ns(
        || {
            black_box(dec.decode_backward_with(
                black_box(&bwd.rx),
                black_box(&bwd.known_bits),
                &mut scratch,
            ))
            .ok();
        },
        args.target_ms,
        args.repeats,
    );
    report.end_to_end.insert("decode_forward_ns".into(), fwd_ns);
    report
        .end_to_end
        .insert("decode_backward_ns".into(), bwd_ns);
    report
        .end_to_end
        .insert("decodes_per_sec".into(), 1e9 / fwd_ns);
    report.end_to_end.insert(
        "decode_forward_msamples_per_sec".into(),
        fwd.rx.len() as f64 / (fwd_ns * 1e-9) / 1e6,
    );
    println!(
        "end-to-end: forward {:.0} ns ({:.0} decodes/s, {:.2} Msamples/s), backward {:.0} ns",
        fwd_ns,
        1e9 / fwd_ns,
        fwd.rx.len() as f64 / (fwd_ns * 1e-9) / 1e6,
        bwd_ns,
    );

    // ---- 3. Repeated-realization sweep, serial vs parallel. ----
    let base = ExperimentConfig {
        runs: args.sweep_runs,
        base: RunConfig {
            seed: args.seed,
            packets_per_flow: args.sweep_packets,
            payload_bits: 4096,
            ..RunConfig::default()
        },
        threads: 1,
    };
    let t = Instant::now();
    let serial = alice_bob(&base);
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = alice_bob(&ExperimentConfig {
        threads,
        ..base.clone()
    });
    let parallel_s = t.elapsed().as_secs_f64();
    let identical = serial.gains_vs_traditional == parallel.gains_vs_traditional
        && serial.gains_vs_cope == parallel.gains_vs_cope
        && serial.anc_packet_bers == parallel.anc_packet_bers
        && serial.mean_overlap.to_bits() == parallel.mean_overlap.to_bits();
    report
        .config
        .insert("sweep_runs".into(), args.sweep_runs as f64);
    report
        .config
        .insert("sweep_packets".into(), args.sweep_packets as f64);
    report.sweep.insert("serial_seconds".into(), serial_s);
    report.sweep.insert("parallel_seconds".into(), parallel_s);
    report.sweep.insert("threads".into(), threads as f64);
    report.sweep.insert("speedup".into(), serial_s / parallel_s);
    report
        .sweep
        .insert("bit_identical".into(), if identical { 1.0 } else { 0.0 });
    println!(
        "sweep ({} runs x {} packets): serial {:.2}s, parallel {:.2}s on {} threads ({} cores) — {:.2}x, bit-identical: {}",
        args.sweep_runs, args.sweep_packets, serial_s, parallel_s, threads, cores,
        serial_s / parallel_s, identical,
    );
    assert!(
        identical,
        "parallel sweep metrics diverged from the serial baseline"
    );

    // ---- 4. City engine: gated superposition and sparse advance. ----
    // 4a. Superposition candidate selection at 4k nodes: build the
    // slot's `SpatialGrid` once, query the 3×3 neighborhood per
    // receiver and apply the exact `within_range` gate — the shape of
    // `city::CityPhy::window`. (That the grid selects exactly what a
    // scan over every node would is a unit test of
    // `anc_channel::spatial`.)
    let (cols, rows) = (64usize, 64usize);
    let g_nodes = cols * rows;
    let positions: Vec<(f64, f64)> = (0..g_nodes)
        .map(|i| ((i % cols) as f64 * 15.0, (i / cols) as f64 * 30.0))
        .collect();
    let radius = CityConfig::default().gate_radius();
    let everyone: Vec<u32> = (0..g_nodes).map(|i| i as u32).collect();
    let mut gated_lists: Vec<Vec<u32>> = Vec::new();
    let mut cands = Vec::new();
    let superpose_gated_ns = measure_ns(
        || {
            let grid = SpatialGrid::build_subset(&positions, &everyone, radius);
            gated_lists.clear();
            for r in 0..g_nodes {
                let mut l = Vec::new();
                cands.clear();
                grid.candidates_into(positions[r], &mut cands);
                for &t in cands.iter() {
                    if t as usize != r && within_range(positions[t as usize], positions[r], radius)
                    {
                        l.push(t);
                    }
                }
                gated_lists.push(l);
            }
            black_box(gated_lists.len());
        },
        args.target_ms,
        args.repeats,
    );
    report
        .engine
        .insert("superpose_gated_ns".into(), superpose_gated_ns);
    println!(
        "engine superpose ({g_nodes} nodes): gated {:.3} ms",
        superpose_gated_ns / 1e6,
    );

    // 4b. Slot advance over an idle 2k-node city: with no arrivals the
    // run is pure bookkeeping, so the timing isolates what the sparse
    // advance itself costs. (Its identity with the poll-every-chain
    // oracle is pinned by the city unit tests.)
    let city = CityConfig {
        cells_x: 32,
        rows: 21, // 672 cells = 2016 nodes
        seed: args.seed,
        rounds: args.city_rounds,
        offered: 0.0,
        ..CityConfig::default()
    };
    let advance_sparse_ns = measure_ns(
        || {
            black_box(city_run(&city, Scheme::Anc).advance_ops);
        },
        args.target_ms,
        args.repeats,
    );
    report
        .engine
        .insert("slot_advance_sparse_ns".into(), advance_sparse_ns);
    println!(
        "engine slot advance ({} cells x {} idle rounds): sparse {:.3} ms",
        city.cells(),
        city.rounds,
        advance_sparse_ns / 1e6,
    );

    // 4c. Mobility cost: a random-waypoint city whose endpoints walk
    // between rounds. The profile meters waypoint advance + the
    // incremental grid relocations separately from the PHY, so the
    // trajectory shows what motion itself costs.
    let mobile_cfg = CityConfig {
        cells_x: 16,
        rows: 8,
        layout: CityLayout::RandomWaypoint,
        velocity: 1.5,
        pause: 2.0,
        seed: args.seed,
        rounds: 64,
        offered: 0.3,
        payload_bits: 128,
        ..CityConfig::default()
    };
    let (mobile_out, mobile_profile) = CityConfig::builder(Scheme::Anc)
        .config(mobile_cfg.clone())
        .build()
        .unwrap_or_else(|e| panic!("mobile city config invalid: {e}"))
        .execute_profiled()
        .unwrap_or_else(|e| panic!("mobile city run failed: {e}"));
    assert!(
        mobile_out.delivered > 0 && mobile_profile.mobility_ns > 0,
        "mobile city must decode and meter its movers"
    );
    report
        .engine
        .insert("city_mobility_ns".into(), mobile_profile.mobility_ns as f64);
    println!(
        "engine city mobility ({} nodes x {} rounds): {:.2} ms moving endpoints ({:.1}% of PHY time)",
        mobile_cfg.nodes(),
        mobile_cfg.rounds,
        mobile_profile.mobility_ns as f64 / 1e6,
        100.0 * mobile_profile.mobility_ns as f64
            / (mobile_profile.window_assembly_ns + mobile_profile.decode_ns).max(1) as f64,
    );

    // 4d. 100k-node rung: the city engine's scale claim, profiled.
    // Light load keeps the cost proportional to arrivals; the split
    // answers whether window assembly (TX synthesis + relay amplify)
    // or endpoint decode dominates at city scale.
    let rounds_100k: u64 = if args.quick { 4 } else { 16 };
    let big_cfg = CityConfig {
        cells_x: 167,
        rows: 200, // 33,400 cells = 100,200 nodes
        seed: args.seed,
        rounds: rounds_100k,
        offered: 0.1,
        payload_bits: 128,
        ..CityConfig::default()
    };
    assert!(big_cfg.nodes() >= 100_000, "the rung must hold 100k nodes");
    let t_100k = Instant::now();
    let (out_100k, prof_100k) = CityConfig::builder(Scheme::Anc)
        .config(big_cfg.clone())
        .build()
        .unwrap_or_else(|e| panic!("100k city config invalid: {e}"))
        .execute_profiled()
        .unwrap_or_else(|e| panic!("100k city run failed: {e}"));
    let wall_100k_s = t_100k.elapsed().as_secs_f64();
    assert!(
        out_100k.delivered > 0,
        "100k-node city must decode under light load"
    );
    report.engine.insert(
        "city_100k_window_ns".into(),
        prof_100k.window_assembly_ns as f64,
    );
    report
        .engine
        .insert("city_100k_decode_ns".into(), prof_100k.decode_ns as f64);
    report
        .engine
        .insert("city_100k_window_share".into(), prof_100k.window_share());
    println!(
        "engine city 100k ({} nodes x {} rounds, {:.1}s): window {:.0} ms vs decode {:.0} ms — {} dominates ({:.0}% window)",
        big_cfg.nodes(),
        rounds_100k,
        wall_100k_s,
        prof_100k.window_assembly_ns as f64 / 1e6,
        prof_100k.decode_ns as f64 / 1e6,
        prof_100k.dominant(),
        100.0 * prof_100k.window_share(),
    );

    // ---- 5. Block-graph pipeline: ONE run, serial vs stolen. ----
    // The sweep above parallelizes *across* runs; this block pipelines
    // a single run across cores through the block-graph executor.
    // Both arms stream the same program through the same rings — the
    // deterministic executor polls blocks inline, the work-stealing
    // executor races them across `pipe_workers` threads — and the
    // determinism contract says the metrics must not move a bit.
    // Workers are floored at 2 so the threaded executor is exercised
    // even on a single-core host (where the validator skips the
    // speedup gate with a logged reason, keeping bit-identity gated).
    let pipe_workers = threads.max(2);
    let pipe_rc = RunConfig {
        seed: args.seed,
        packets_per_flow: args.sweep_runs * args.sweep_packets,
        payload_bits: 4096,
        ..RunConfig::default()
    };
    let program = ScenarioSpec::alice_bob()
        .compile(Scheme::Anc)
        .expect("alice_bob compiles");
    let det_sched = SchedulerSpec::deterministic();
    let ws_sched = SchedulerSpec::work_stealing(pipe_workers);
    let mut det_ctx = RunCtx::default();
    let mut ws_ctx = RunCtx::default();
    let m_det = Engine::try_run_ctx(&program, &pipe_rc, &det_sched, &mut det_ctx)
        .expect("deterministic pipeline run");
    let m_ws = Engine::try_run_ctx(&program, &pipe_rc, &ws_sched, &mut ws_ctx)
        .expect("work-stealing pipeline run");
    let pipeline_identical = m_det.account.goodput_bits.to_bits()
        == m_ws.account.goodput_bits.to_bits()
        && m_det.account.time_samples.to_bits() == m_ws.account.time_samples.to_bits()
        && m_det.packet_bers == m_ws.packet_bers
        && m_det.overlaps == m_ws.overlaps;
    let (pipe_serial_ns, pipe_parallel_ns) = measure_pair(
        || {
            black_box(
                Engine::try_run_ctx(&program, &pipe_rc, &det_sched, &mut det_ctx)
                    .expect("deterministic pipeline run")
                    .account
                    .delivered,
            );
        },
        || {
            black_box(
                Engine::try_run_ctx(&program, &pipe_rc, &ws_sched, &mut ws_ctx)
                    .expect("work-stealing pipeline run")
                    .account
                    .delivered,
            );
        },
        args.target_ms,
        args.repeats,
    );
    let pipe_speedup = pipe_serial_ns / pipe_parallel_ns;
    report
        .engine
        .insert("pipeline_serial_ms".into(), pipe_serial_ns / 1e6);
    report
        .engine
        .insert("pipeline_parallel_ms".into(), pipe_parallel_ns / 1e6);
    report
        .engine
        .insert("pipeline_speedup".into(), pipe_speedup);
    report
        .engine
        .insert("pipeline_workers".into(), pipe_workers as f64);
    report.engine.insert(
        "pipeline_identical".into(),
        if pipeline_identical { 1.0 } else { 0.0 },
    );
    println!(
        "engine pipeline ({} packets, 1 run): deterministic {:.1} ms, work-stealing {:.1} ms on {pipe_workers} workers ({cores} cores) — {pipe_speedup:.2}x, bit-identical: {pipeline_identical}",
        pipe_rc.packets_per_flow,
        pipe_serial_ns / 1e6,
        pipe_parallel_ns / 1e6,
    );
    assert!(
        pipeline_identical,
        "work-stealing pipeline metrics diverged from the deterministic executor"
    );

    // ---- History: carry the trajectory forward. ----
    // Regenerating the artifact must not discard previously recorded
    // points: reuse the existing file's history when it parses. The
    // hardcoded seed entry — end-to-end and kernel numbers captured
    // once at the seed commit on the same fixture — seeds the
    // trajectory's origin when no prior artifact exists.
    let prior_history = args
        .json
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|t| serde_json::from_str::<PerfReport>(&t).ok())
        .map(|prior| prior.history);
    report.history = prior_history.unwrap_or_else(|| {
        let mut seed_metrics = std::collections::BTreeMap::new();
        seed_metrics.insert("decode_forward_ns".to_string(), 1_282_255.0);
        seed_metrics.insert("decode_backward_ns".to_string(), 1_317_455.0);
        seed_metrics.insert("matcher_4k_ns_per_interval".to_string(), 177.3);
        seed_metrics.insert("interference_mask_ns_per_sample".to_string(), 56.4);
        vec![HistoryEntry {
            label: "seed (PR 1, e93692d)".to_string(),
            metrics: seed_metrics,
        }]
    });

    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", path.display());
    }
}
