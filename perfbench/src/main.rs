//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_topologies|city_10k_saturated|city_100k_light>
//!           --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` it times the workload end to end through the public
//! entry points and prints the end-to-end metrics; with `--trace 1` it
//! reruns the workload with spans around every build/execute, replays
//! the workload's stage sequence layer by layer, and prints the
//! per-layer metrics. Either way it checks the outputs (pinned
//! default-seed digests, deterministic ≡ work-stealing, the paper gain
//! bands) and ends its standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `perfbench/run.py` builds this binary and wraps it.

mod alloc;
mod digest;
mod procfs;
mod replay;
mod trace;
mod workloads;

use anc_netcode::Scheme;
use replay::{Replay, ReplayGeom, HOP_SPANS, LAYER_SPANS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{self_times, self_total, Tracer};
use workloads::{Arm, Exec, Executor, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every run ends within this many seconds of starting, or exits with
/// an error.
const HARD_DEADLINE_S: u64 = 170;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    out_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        workload: Workload::Paper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut have_workload = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                opts.workload = Workload::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value}")));
                have_workload = true;
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--commit" => opts.commit = value,
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if !have_workload {
        usage("--workload is required");
    }
    opts
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // The result line must stay valid JSON.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Linear-interpolated quantile of `v` (`q` in [0, 1]).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failures met during a run: count plus the first few messages.
#[derive(Default)]
struct Failures {
    count: u64,
    notes: Vec<String>,
}

impl Failures {
    fn add(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 20 {
            eprintln!("FAIL: {note}");
            self.notes.push(note);
        }
    }
}

/// What the closed loop observed.
#[derive(Default)]
struct Driven {
    /// Per realization, the deterministic arm's executes (complete
    /// realizations only) and its wall time.
    det: Vec<Vec<Exec>>,
    det_real_wall: Vec<f64>,
    ws: Vec<Vec<Exec>>,
    cpu_det_s: f64,
    cpu_ws_s: f64,
    attempted: u64,
    /// Set-up times sampled between realizations, seconds.
    setup: Vec<f64>,
}

/// Runs realizations back to back, each on both executors (order
/// alternating), until `budget` has passed and at least `min_real`
/// realizations are done. Work-stealing must match deterministic
/// execute for execute.
fn drive(
    exec: &mut Executor,
    seed: u64,
    budget: Duration,
    min_real: usize,
    with_setup: bool,
    fails: &mut Failures,
) -> Driven {
    let mut d = Driven::default();
    let t0 = Instant::now();
    let mut i = 0;
    // Start another realization only if it should finish inside the
    // budget, judged by the mean realization so far.
    while i < min_real || t0.elapsed() + t0.elapsed() / i.max(1) as u32 <= budget {
        if with_setup {
            if let Err(e) = sample_setup(exec, seed, &mut d.setup) {
                fails.add(format!("set-up: {e}"));
            }
        }
        let arms = if i % 2 == 0 {
            [Arm::Det, Arm::Ws]
        } else {
            [Arm::Ws, Arm::Det]
        };
        let mut got: [Option<Vec<Exec>>; 2] = [None, None];
        for arm in arms {
            let cpu0 = procfs::sample().cpu_s;
            let w0 = Instant::now();
            let res = exec.realize(seed, i, arm, &mut |_, f| f());
            let wall = w0.elapsed().as_secs_f64();
            let cpu = procfs::sample().cpu_s - cpu0;
            d.attempted += res.len() as u64;
            let mut ok = Vec::new();
            for r in res {
                match r {
                    Ok(e) => ok.push(e),
                    Err(e) => fails.add(format!("realization {i} {arm:?}: {e}")),
                }
            }
            match arm {
                Arm::Det => {
                    d.cpu_det_s += cpu;
                    d.det_real_wall.push(wall);
                }
                Arm::Ws => d.cpu_ws_s += cpu,
            }
            got[arm as usize] = Some(ok);
        }
        let [Some(det), Some(ws)] = got else {
            unreachable!("both arms ran")
        };
        if det.len() == ws.len() {
            for (a, b) in det.iter().zip(&ws) {
                if a.digest != b.digest {
                    fails.add(format!(
                        "realization {i} {}: work-stealing digest {:#018x} != deterministic {:#018x}",
                        a.label, b.digest, a.digest
                    ));
                }
            }
        }
        d.det.push(det);
        d.ws.push(ws);
        i += 1;
    }
    d
}

fn sum_where(execs: &[Vec<Exec>], scheme: Scheme, f: impl Fn(&Exec) -> f64) -> f64 {
    execs
        .iter()
        .flatten()
        .filter(|e| e.scheme == scheme)
        .map(f)
        .sum()
}

/// Median over realizations of one scheme's packets per second, so a
/// realization slowed by the host does not move the figure.
fn pkts_per_s(execs: &[Vec<Exec>], scheme: Scheme) -> f64 {
    let per: Vec<f64> = execs
        .iter()
        .map(|r| {
            let (p, t) = r
                .iter()
                .filter(|e| e.scheme == scheme)
                .fold((0.0, 0.0), |(p, t), e| (p + e.packets as f64, t + e.wall_s));
            ratio(p, t)
        })
        .filter(|&v| v > 0.0)
        .collect();
    quantile(&per, 0.5)
}

/// Paper: mean per-realization gain of each topology. City: delivered
/// ANC over delivered traditional.
fn gains(w: Workload, det: &[Vec<Exec>]) -> (f64, Vec<f64>) {
    match w {
        Workload::Paper => {
            let per_topo: Vec<f64> = (0..3)
                .map(|t| {
                    let g: Vec<f64> = det
                        .iter()
                        .filter(|r| r.len() == 6)
                        .map(|r| ratio(r[2 * t].throughput, r[2 * t + 1].throughput))
                        .filter(|g| g.is_finite() && *g > 0.0)
                        .collect();
                    ratio(g.iter().sum(), g.len() as f64)
                })
                .collect();
            (per_topo.iter().sum::<f64>() / 3.0, per_topo)
        }
        _ => (
            ratio(
                sum_where(det, Scheme::Anc, |e| e.delivered as f64),
                sum_where(det, Scheme::Traditional, |e| e.delivered as f64),
            ),
            Vec::new(),
        ),
    }
}

/// Correctness checks beyond executor identity: the pinned default-seed
/// digest and, for the paper, the gain bands.
fn check_outputs(opts: &Opts, det: &[Vec<Exec>], fails: &mut Failures) {
    let w = opts.workload;
    let n = w.pinned_realizations();
    if opts.seed == DEFAULT_SEED && det.len() >= n && det[..n].iter().all(|r| !r.is_empty()) {
        let got = digest::fnv(det[..n].iter().map(|r| workloads::realization_digest(r)));
        let want = w.pinned_digest();
        println!("pinned digest over {n} realizations: {got:#018x}");
        if got != want {
            fails.add(format!(
                "{} default-seed digest {got:#018x} != pinned {want:#018x}",
                w.name()
            ));
        }
    }
    if w == Workload::Paper {
        let (_, per_topo) = gains(w, det);
        for (t, g) in workloads::paper_topologies().iter().zip(&per_topo) {
            let (name, (lo, hi)) = (t.name, t.gain_band);
            println!("gain {name}: {g:.3} (band {lo}–{hi})");
            if !(lo..=hi).contains(g) {
                fails.add(format!("{name} mean ANC gain {g:.3} outside [{lo}, {hi}]"));
            }
        }
    }
}

/// Set-up samples taken in the gap before a realization, so they meet
/// the same host conditions as the timed executes: at least 3 samples
/// and 4 ms per gap, each sample timing as many back-to-back set-ups as
/// fill 1 ms (at least one) so microsecond set-ups stay above timer
/// noise.
fn sample_setup(exec: &Executor, seed: u64, out: &mut Vec<f64>) -> Result<(), String> {
    let t0 = Instant::now();
    let mut taken = 0;
    while taken < 3 || t0.elapsed() < Duration::from_millis(4) {
        let (mut total, mut count) = (0.0, 0u32);
        while count == 0 || total < 1e-3 {
            total += workloads::setup_once(exec.workload, seed, exec.workers)?;
            count += 1;
        }
        out.push(total / f64::from(count));
        taken += 1;
    }
    Ok(())
}

fn host_facts(opts: &Opts, workers: usize) -> Vec<(&'static str, String)> {
    let target_cpu = if cfg!(all(
        target_feature = "avx2",
        target_feature = "fma",
        target_feature = "bmi2"
    )) {
        "x86-64-v3 (avx2+fma+bmi2)"
    } else {
        "baseline"
    };
    vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("nproc", workers.to_string()),
        ("workers", workers.to_string()),
        (
            "executors",
            format!("deterministic, work_stealing({workers})"),
        ),
        ("target_cpu", target_cpu.to_string()),
        ("commit", opts.commit.clone()),
    ]
}

/// End-to-end metrics from one untraced closed-loop run.
fn end_to_end(opts: &Opts, workers: usize, fails: &mut Failures) -> (Vec<Metric>, u64) {
    let w = opts.workload;
    let mut exec = Executor::new(w, workers);
    let t0 = Instant::now();
    // Warm-up realization: fills the run contexts and the allocator's
    // free lists; its results are checked and discarded.
    let _ = drive(&mut exec, opts.seed, Duration::ZERO, 1, false, fails);
    let budget = Duration::from_secs_f64(opts.seconds).saturating_sub(t0.elapsed());
    let d = drive(
        &mut exec,
        opts.seed,
        budget,
        w.min_realizations(),
        true,
        fails,
    );
    check_outputs(opts, &d.det, fails);
    let run_ms: Vec<f64> = d
        .det
        .iter()
        .map(|r| 1e3 * r.iter().map(|e| e.wall_s).sum::<f64>())
        .collect();
    if d.det.len() <= 20 {
        for (i, (det, ws)) in d.det.iter().zip(&d.ws).enumerate() {
            let ms = |r: &[Exec]| {
                r.iter()
                    .map(|e| format!("{} {:.1} ms", e.label, 1e3 * e.wall_s))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "realization {i}: deterministic [{}]; work-stealing [{}]",
                ms(det),
                ms(ws)
            );
        }
    }
    let (gain, _) = gains(w, &d.det);
    let rss_mib = procfs::sample().vm_hwm_kib as f64 / 1024.0;
    println!(
        "realizations: {} (each on both executors); run_ms over {} deterministic realizations; setup_s over {} samples",
        d.det.len(),
        run_ms.len(),
        d.setup.len()
    );
    let metrics = vec![
        m("setup_s", quantile(&d.setup, 0.5), "s"),
        m(
            "anc_pkts_per_s",
            pkts_per_s(&d.det, Scheme::Anc),
            "packets/s",
        ),
        m(
            "trad_pkts_per_s",
            pkts_per_s(&d.det, Scheme::Traditional),
            "packets/s",
        ),
        m(
            "anc_pkts_per_s_ws",
            pkts_per_s(&d.ws, Scheme::Anc),
            "packets/s",
        ),
        m(
            "trad_pkts_per_s_ws",
            pkts_per_s(&d.ws, Scheme::Traditional),
            "packets/s",
        ),
        m("run_ms_p50", quantile(&run_ms, 0.5), "ms"),
        m("run_ms_p90", quantile(&run_ms, 0.9), "ms"),
        m("peak_rss_mb", rss_mib, "MiB"),
        m("anc_gain", gain, "ratio"),
    ];
    (metrics, d.attempted)
}

/// Per-layer metrics from one traced run.
fn per_layer(
    opts: &Opts,
    workers: usize,
    tracer: &Tracer,
    fails: &mut Failures,
) -> (Vec<Metric>, u64) {
    let w = opts.workload;
    let s = opts.seconds;
    let start = Instant::now();
    let until = |share: f64| Duration::from_secs_f64(share * s).saturating_sub(start.elapsed());
    let mut exec = Executor::new(w, workers);
    let _ = drive(&mut exec, opts.seed, Duration::ZERO, 1, false, fails);

    // A: untraced reference, both executors.
    let d = drive(
        &mut exec,
        opts.seed,
        until(0.4),
        w.pinned_realizations(),
        false,
        fails,
    );
    check_outputs(opts, &d.det, fails);
    let n = d.det.len();
    let mut attempted = d.attempted;

    // B: the same deterministic realizations again, with spans around
    // every realization and execute.
    let mut traced_wall = 0.0;
    for i in 0..n {
        let t0 = Instant::now();
        let res = tracer.span("realization", None, i as u64, |root| {
            exec.realize(opts.seed, i, Arm::Det, &mut |label, f| {
                tracer.span(label, Some(root), i as u64, |_| f())
            })
        });
        traced_wall += t0.elapsed().as_secs_f64();
        attempted += res.len() as u64;
        for (k, r) in res.into_iter().enumerate() {
            match r {
                Ok(e) if d.det[i].get(k).map(|x| x.digest) != Some(e.digest) => fails.add(format!(
                    "traced realization {i} {} digest differs from untraced",
                    e.label
                )),
                Ok(_) => {}
                Err(e) => fails.add(format!("traced realization {i}: {e}")),
            }
        }
    }
    let untraced_wall: f64 = d.det_real_wall.iter().sum();

    // Real-run counts per deterministic realization.
    let per = |f: &dyn Fn(&Exec) -> f64| ratio(d.det.iter().flatten().map(f).sum(), n as f64);
    // Every offered packet is served within the horizon: an ANC
    // exchange carries two, a traditional packet takes `hops` hops.
    let anc_exch = per(&|e| match e.scheme {
        Scheme::Anc => e.packets as f64 / 2.0,
        _ => 0.0,
    });
    let trad_hops = per(&|e| match e.scheme {
        Scheme::Anc => 0.0,
        _ => (e.packets * e.hops) as f64,
    });
    let city = |f: &dyn Fn(&anc_sim::city::CityOutcome, &anc_sim::city::CityProfile) -> u64| {
        per(&|e| e.city.as_ref().map_or(0.0, |(o, p)| f(o, p) as f64))
    };

    // C: layer replay on the workload's geometry.
    let geom = match w {
        Workload::Paper => ReplayGeom {
            cells_x: 1,
            rows: 1,
            payload_bits: workloads::PAPER_PAYLOAD_BITS,
            noise_power: 1e-3,
            activity: 1.0,
            gated: false,
        },
        _ => {
            let shape = workloads::city_shape(w);
            let cfg = workloads::city_config(w, Scheme::Anc, 0);
            let cells = (shape.cells_x * shape.rows) as f64;
            // Share of cells served per serviced ANC round.
            let anc_rounds = per(&|e| match &e.city {
                Some((o, _)) if e.scheme == Scheme::Anc => o.rounds_serviced as f64,
                _ => 0.0,
            });
            ReplayGeom {
                cells_x: shape.cells_x,
                rows: shape.rows,
                payload_bits: cfg.payload_bits,
                noise_power: cfg.noise_power,
                activity: ratio(anc_exch, anc_rounds * cells).clamp(1e-3, 1.0),
                gated: true,
            }
        }
    };
    let mut rp = Replay::new(geom, opts.seed, tracer);
    // One replayed round serves about as many cells as one street
    // (region block) serves in the real run.
    let batch = ((geom.cells_x as f64 * geom.activity).round() as u64).max(1);
    let base = n as u64;
    rp.warmup = base + 3 * batch;
    let replay_budget = until(0.9);
    let t0 = Instant::now();
    let mut req = base;
    let (mut anc_reqs, mut hop_reqs) = (Vec::new(), Vec::new());
    // Per-call means settle within a few thousand requests; the cap
    // keeps the span file and the recorder's memory small.
    const MAX_REPLAY_REQUESTS: u64 = 6000;
    while req < base + 36 * batch
        || (t0.elapsed() < replay_budget && req < base + MAX_REPLAY_REQUESTS)
    {
        rp.anc_round(req, batch);
        anc_reqs.extend(req..req + batch);
        req += batch;
        for _ in 0..2 {
            rp.trad_round(req, batch);
            hop_reqs.extend(req..req + batch);
            req += batch;
        }
    }
    let st = rp.stats;
    attempted += st.anc_exchanges + st.trad_hops;

    let spans = tracer.spans();
    let self_ns = self_times(&spans);
    let layer = |name: &str| -> (f64, f64) {
        let (k, t) = self_total(&spans, &self_ns, |sp| {
            sp.name == name && sp.request >= rp.warmup
        });
        (k as f64, t as f64)
    };
    let per_call = |name: &str| {
        let (k, t) = layer(name);
        ratio(t, k)
    };
    // Mean layer self time per replayed request of one kind.
    let per_request = |reqs: &[u64], names: &[&str]| {
        let counted: Vec<u64> = reqs.iter().copied().filter(|&r| r >= rp.warmup).collect();
        let (_, total) = self_total(&spans, &self_ns, |sp| {
            names.contains(&sp.name) && counted.binary_search(&sp.request).is_ok()
        });
        ratio(total as f64, counted.len() as f64)
    };
    let anc_ns = per_request(&anc_reqs, &LAYER_SPANS);
    let hop_ns = per_request(&hop_reqs, &HOP_SPANS);
    let det_wall_ns = 1e9 * ratio(untraced_wall, n as f64);
    let replayed_ns = anc_exch * anc_ns + trad_hops * hop_ns;

    let blocks = match w {
        Workload::Paper => 12,
        _ => 3 * workloads::city_shape(w).rows,
    };
    let handoff = replay::handoff_ns(workers, Duration::from_secs_f64(0.03 * s));
    let idle_poll = replay::idle_poll_ns(blocks, Duration::from_secs_f64(0.03 * s));

    let (decodes, windows) = (2.0 * anc_exch, 3.0 * anc_exch + trad_hops);
    let metrics = vec![
        m("node.tx_ns_per_frame", per_call("node.tx"), "ns"),
        m("node.tx_frames", 2.0 * anc_exch + trad_hops, "count"),
        m("frame.parse_ns_per_frame", per_call("frame.parse"), "ns"),
        m(
            "frame.parse_fail_ratio",
            ratio(st.parse_fails as f64, st.parses as f64),
            "ratio",
        ),
        m(
            "channel.superpose_ns_per_window",
            per_call("channel.superpose"),
            "ns",
        ),
        m(
            "channel.superpose_ns_per_sample",
            ratio(layer("channel.superpose").1, st.window_samples as f64),
            "ns",
        ),
        m("channel.windows", windows, "count"),
        m(
            "channel.refs_per_window",
            ratio(st.refs as f64, st.windows as f64),
            "count",
        ),
        m(
            "channel.allocs_per_window",
            ratio(st.window_allocs as f64, st.windows as f64),
            "count",
        ),
        m(
            "channel.alloc_bytes_per_window",
            ratio(st.window_alloc_bytes as f64, st.windows as f64),
            "B",
        ),
        m(
            "channel.noise_ns_per_sample",
            ratio(layer("channel.noise").1, st.noise_samples as f64),
            "ns",
        ),
        m("channel.gate_query_ns", per_call("channel.gate"), "ns"),
        m(
            "channel.gate_admit_ratio",
            ratio(st.gate_admitted as f64, st.gate_candidates as f64),
            "ratio",
        ),
        m(
            "channel.amplify_ns_per_window",
            per_call("channel.amplify"),
            "ns",
        ),
        m(
            "core.classify_ns_per_window",
            per_call("core.classify"),
            "ns",
        ),
        m(
            "core.decode_ns_per_sample",
            ratio(layer("core.decode").1, st.decode_samples as f64),
            "ns",
        ),
        m("core.decodes", decodes, "count"),
        m(
            "core.decode_fail_ratio",
            ratio(st.decode_fails as f64, st.decodes as f64),
            "ratio",
        ),
        m(
            "core.decode_allocs_per_call",
            ratio(st.decode_allocs as f64, st.decodes as f64),
            "count",
        ),
        m(
            "core.clean_decode_ns_per_sample",
            ratio(layer("core.clean_decode").1, st.clean_samples as f64),
            "ns",
        ),
        m("runtime.handoff_ns", handoff, "ns"),
        m("runtime.idle_poll_ns_per_block", idle_poll, "ns"),
        m(
            "runtime.ws_cpu_overhead",
            ratio(d.cpu_ws_s, d.cpu_det_s) - 1.0,
            "ratio",
        ),
        m(
            "sim.city_window_ns",
            city(&|_, p| p.window_assembly_ns),
            "ns",
        ),
        m("sim.city_decode_ns", city(&|_, p| p.decode_ns), "ns"),
        m("sim.city_mobility_ns", city(&|_, p| p.mobility_ns), "ns"),
        m("sim.advance_ops", city(&|o, _| o.advance_ops), "count"),
        m("sim.polls", city(&|o, _| o.polls), "count"),
        m(
            "sim.rounds_serviced",
            city(&|o, _| o.rounds_serviced),
            "count",
        ),
        m(
            "sim.unattributed_share",
            1.0 - ratio(replayed_ns, det_wall_ns),
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            ratio(traced_wall - untraced_wall, untraced_wall),
            "ratio",
        ),
    ];
    println!(
        "traced: {n} realizations untraced {untraced_wall:.3}s vs traced {traced_wall:.3}s; replay: {} ANC exchanges, {} traditional hops, activity {:.3}, relay misses {}",
        st.anc_exchanges, st.trad_hops, geom.activity, st.relay_misses
    );
    println!(
        "replayed layer time per deterministic realization: {:.1} ms ({anc_exch:.0} ANC exchanges x {:.1} us + {trad_hops:.0} hops x {:.1} us) of {:.1} ms wall",
        replayed_ns / 1e6,
        anc_ns / 1e3,
        hop_ns / 1e3,
        det_wall_ns / 1e6
    );
    if w == Workload::City100k {
        let win_us = per_call("channel.superpose") / 1e3 + per_call("channel.gate") / 1e3;
        let parse_s = per_call("frame.parse") * 1e-9 * (decodes + trad_hops);
        println!(
            "re-anchor figures (internal timers, 100k rung, 8 rounds, deterministic, 2-core host): 33 us per 810-sample window, 66 ns/sample decode, 0.09 s parse"
        );
        println!(
            "replayed here: {win_us:.1} us per {:.0}-sample window (gate + superpose), {:.1} ns/sample decode, {parse_s:.3} s parse per realization",
            ratio(st.window_samples as f64, st.windows as f64),
            ratio(layer("core.decode").1, st.decode_samples as f64)
        );
        println!(
            "note: CityProfile.decode_ns (sim.city_decode_ns) includes each endpoint's downlink window superposition, not only the decode kernel"
        );
    }
    (metrics, attempted)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, mt) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            mt.name,
            mt.value,
            mt.unit
        );
    }
    s.push_str("}}");
    s
}

fn write_report(
    opts: &Opts,
    facts: &[(&str, String)],
    metrics: &[Metric],
    fails: &Failures,
    attempted: u64,
    tracer: &Tracer,
) {
    let p = procfs::sample();
    let mut s = String::from("{\n  \"host\": {");
    for (i, (k, v)) in facts.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": \"{v}\"", if i == 0 { "" } else { ", " });
    }
    let _ = write!(
        s,
        "}},\n  \"process\": {{\"vm_hwm_kib\": {}, \"cpu_s\": {:?}, \"voluntary_switches\": {}, \"involuntary_switches\": {}}},\n  \"failed_frac\": {:?},\n  \"failures\": [{}],\n  \"metrics\": {{",
        p.vm_hwm_kib,
        p.cpu_s,
        p.voluntary_switches,
        p.involuntary_switches,
        ratio(fails.count as f64, attempted as f64),
        fails.notes.iter().map(|n| format!("{n:?}")).collect::<Vec<_>>().join(", ")
    );
    for (i, mt) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {:?}",
            if i == 0 { "" } else { ", " },
            mt.name,
            mt.value
        );
    }
    s.push_str("}\n}\n");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join(format!("{stem}.json")), s))
        .and_then(|()| {
            if opts.trace {
                std::fs::write(
                    opts.out_dir.join(format!("{stem}-spans.json")),
                    tracer.to_json(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write the report under {}: {e}",
            opts.out_dir.display()
        );
    }
}

fn main() {
    let opts = parse_opts();
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(HARD_DEADLINE_S));
        eprintln!("perfbench: no result after {HARD_DEADLINE_S} s; giving up");
        std::process::exit(3);
    });
    if let Err(e) = alloc::self_test() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal0 = procfs::host_steal_s();
    let mut facts = host_facts(&opts, workers);
    for (k, v) in &facts {
        println!("host {k}: {v}");
    }
    let mut fails = Failures::default();
    let tracer = Tracer::default();
    let (metrics, attempted) = if opts.trace {
        per_layer(&opts, workers, &tracer, &mut fails)
    } else {
        end_to_end(&opts, workers, &mut fails)
    };
    for mt in &metrics {
        println!("{:<36} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    println!(
        "{:<36} {:>16.6} fraction ({} of {attempted} executes)",
        "failed_frac",
        ratio(fails.count as f64, attempted as f64),
        fails.count
    );
    let steal = procfs::host_steal_s() - steal0;
    println!("host steal during the run: {steal:.2} s (CPU time the hypervisor gave other guests)");
    facts.push(("steal_s", format!("{steal:.2}")));
    write_report(&opts, &facts, &metrics, &fails, attempted, &tracer);
    let correct = fails.count == 0;
    println!(
        "{}",
        json_line(correct, attempted.max(1), fails.count, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
