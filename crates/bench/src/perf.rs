//! Perf-trajectory measurement and the `BENCH_*.json` schema.
//!
//! The ROADMAP tracks decoder performance as machine-readable
//! `BENCH_<name>.json` artifacts checked into the repository root.
//! This module owns their schema ([`PerfReport`]), a noise-resistant
//! timing helper ([`measure_ns`]), and the validation CI runs against
//! every emitted artifact ([`validate_json`]) so a perf regression —
//! or a silently broken emitter — fails loudly instead of rotting.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Schema tag of [`PerfReport`] artifacts.
pub const PERF_SCHEMA: &str = "anc-bench-perf/v1";
/// Schema tag of the criterion shim's `ANC_BENCH_JSON` dumps.
pub const CRITERION_SCHEMA: &str = "anc-bench-criterion/v1";

/// One labeled point of the perf trajectory (an earlier measurement
/// kept for before/after comparison).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Where the numbers came from (commit / PR label).
    pub label: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// The `BENCH_decoder_pipeline.json` artifact: kernel-level and
/// end-to-end throughput of the Alg.-1 decode hot path, plus the
/// repeated-realization sweep wall-clock, with history.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Always [`PERF_SCHEMA`].
    pub schema: String,
    /// Artifact name, e.g. `decoder_pipeline`.
    pub title: String,
    /// Measurement configuration (sizes, seeds, threads, cores).
    pub config: BTreeMap<String, f64>,
    /// Kernel measurements: batched ns/sample, its speedup over the
    /// scalar oracle, and derived throughputs.
    pub kernels: BTreeMap<String, f64>,
    /// End-to-end decode measurements (ns per decode, decodes/s).
    pub end_to_end: BTreeMap<String, f64>,
    /// Repeated-realization sweep wall-clock, serial vs parallel, and
    /// whether the parallel metrics were bit-identical to serial.
    pub sweep: BTreeMap<String, f64>,
    /// City-engine measurements: spatially-gated superposition
    /// candidate selection, sparse slot advance, mobility, the 100k
    /// rung and the block-graph pipeline. Absent from pre-engine
    /// artifacts, hence the defaulting hand-written
    /// `Deserialize` below (the vendored derive has no `#[serde]`
    /// attributes).
    pub engine: BTreeMap<String, f64>,
    /// Earlier trajectory points.
    pub history: Vec<HistoryEntry>,
}

impl serde::Deserialize for PerfReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = match v {
            serde::Value::Object(m) => m,
            other => return Err(serde::Error::type_mismatch("object", other)),
        };
        let req = |key: &'static str| m.get(key).ok_or_else(|| serde::Error::missing_field(key));
        Ok(PerfReport {
            schema: serde::Deserialize::from_value(req("schema")?)?,
            title: serde::Deserialize::from_value(req("title")?)?,
            config: serde::Deserialize::from_value(req("config")?)?,
            kernels: serde::Deserialize::from_value(req("kernels")?)?,
            end_to_end: serde::Deserialize::from_value(req("end_to_end")?)?,
            sweep: serde::Deserialize::from_value(req("sweep")?)?,
            // Older tracked artifacts predate the city engine; they
            // must keep parsing as `--against` baselines.
            engine: match m.get("engine") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => BTreeMap::new(),
            },
            history: serde::Deserialize::from_value(req("history")?)?,
        })
    }
}

impl PerfReport {
    /// An empty report with the given title.
    pub fn new(title: &str) -> Self {
        PerfReport {
            schema: PERF_SCHEMA.to_string(),
            title: title.to_string(),
            config: BTreeMap::new(),
            kernels: BTreeMap::new(),
            end_to_end: BTreeMap::new(),
            sweep: BTreeMap::new(),
            engine: BTreeMap::new(),
            history: Vec::new(),
        }
    }
}

/// Median ns/iteration of `f`, measured as `repeats` batches sized to
/// `target_ms` each after one warmup call. The median across batches
/// resists the scheduling noise of shared machines far better than one
/// long mean; pair it with identical in-process "before" and "after"
/// arms when a ratio matters.
pub fn measure_ns<F: FnMut()>(mut f: F, target_ms: u64, repeats: usize) -> f64 {
    f(); // warmup
    let probe_start = Instant::now();
    f();
    let probe_ns = probe_start.elapsed().as_nanos().max(100) as u64;
    let iters = (target_ms * 1_000_000 / probe_ns).clamp(1, 1_000_000);
    let mut batch_means: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    batch_means.sort_by(|a, b| a.total_cmp(b));
    batch_means[batch_means.len() / 2]
}

/// Median ns/iteration for two bodies whose *ratio* matters, measured
/// as alternating batches (`a, b, a, b, …`) so slow machine-load drift
/// hits both arms equally instead of skewing whichever ran second.
pub fn measure_pair<A: FnMut(), B: FnMut()>(
    mut a: A,
    mut b: B,
    target_ms: u64,
    repeats: usize,
) -> (f64, f64) {
    a();
    b(); // warmup
    let probe = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos().max(100) as u64
    };
    let iters_a = (target_ms * 1_000_000 / probe(&mut a)).clamp(1, 1_000_000);
    let iters_b = (target_ms * 1_000_000 / probe(&mut b)).clamp(1, 1_000_000);
    let mut means_a = Vec::with_capacity(repeats);
    let mut means_b = Vec::with_capacity(repeats);
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        for _ in 0..iters_a {
            a();
        }
        means_a.push(t.elapsed().as_nanos() as f64 / iters_a as f64);
        let t = Instant::now();
        for _ in 0..iters_b {
            b();
        }
        means_b.push(t.elapsed().as_nanos() as f64 / iters_b as f64);
    }
    means_a.sort_by(|x, y| x.total_cmp(y));
    means_b.sort_by(|x, y| x.total_cmp(y));
    (means_a[means_a.len() / 2], means_b[means_b.len() / 2])
}

fn require_positive(map: &BTreeMap<String, f64>, section: &str, key: &str) -> Result<f64, String> {
    match map.get(key) {
        Some(&v) if v.is_finite() && v > 0.0 => Ok(v),
        Some(&v) => Err(format!(
            "{section}.{key} must be finite and positive, got {v}"
        )),
        None => Err(format!("missing required field {section}.{key}")),
    }
}

fn validate_perf(text: &str) -> Result<String, String> {
    let report: PerfReport =
        serde_json::from_str(text).map_err(|e| format!("perf report does not parse: {e}"))?;
    if report.schema != PERF_SCHEMA {
        return Err(format!("unexpected schema {:?}", report.schema));
    }
    for key in [
        "batch_detect_lemma_match_ns_per_sample",
        "batch_detect_lemma_match_speedup",
        "batch_detect_lemma_match_msamples_per_sec",
    ] {
        require_positive(&report.kernels, "kernels", key)?;
    }
    let batch_speedup = report.kernels["batch_detect_lemma_match_speedup"];
    if batch_speedup < 1.0 {
        return Err(format!(
            "batched detect→lemma→matcher kernel regressed below the scalar oracle \
             (speedup {batch_speedup:.3})"
        ));
    }
    for key in ["decode_forward_ns", "decodes_per_sec"] {
        require_positive(&report.end_to_end, "end_to_end", key)?;
    }
    for key in ["serial_seconds", "parallel_seconds", "threads", "speedup"] {
        require_positive(&report.sweep, "sweep", key)?;
    }
    // The parallel-harness claim is machine-checked wherever the host
    // can actually express it: an artifact measured with several
    // workers, on at least that many cores, over a long enough sweep
    // must have gone faster. The worker count is keyed off
    // `config.cores` — an *oversubscribed* run (more workers than
    // cores, e.g. a multi-worker sweep inside a 1-core CI container)
    // can only demonstrate parity, so it skips the gate **with a
    // logged reason** instead of silently passing or spuriously
    // failing. Sub-2-second sweeps (CI's `--quick` smoke) skip too:
    // at that scale the wall-clock sits inside scheduler noise and a
    // hard gate would flake with zero code regression.
    let cores = report.config.get("cores").copied().unwrap_or(1.0);
    let threads = report.sweep["threads"];
    let sweep_speedup = report.sweep["speedup"];
    let serial_s = report.sweep["serial_seconds"];
    let sweep_note = if threads <= 1.5 {
        " [sweep gate skipped: serial sweep (1 worker)]".to_string()
    } else if threads > cores + 0.5 {
        format!(
            " [sweep gate skipped: oversubscribed ({threads:.0} workers on {cores:.0} core(s))]"
        )
    } else if serial_s < 2.0 {
        format!(" [sweep gate skipped: {serial_s:.2}s serial sweep is inside scheduler noise]")
    } else if sweep_speedup < 1.1 {
        return Err(format!(
            "no multi-core sweep speedup: {sweep_speedup:.3}x with {threads} workers on {cores} cores"
        ));
    } else {
        String::new()
    };
    match report.sweep.get("bit_identical") {
        Some(&1.0) => {}
        Some(_) => return Err("sweep.bit_identical is not 1 (parallel != serial!)".to_string()),
        None => return Err("missing required field sweep.bit_identical".to_string()),
    }
    // City-engine keys: absolute costs of gated superposition and the
    // sparse advance (compared against a tracked artifact only by the
    // absolute gate of `compare_reports`), the mobile-endpoint run's
    // mover meter, and the 100k-node profiled run's window-assembly vs
    // decode split.
    for key in [
        "superpose_gated_ns",
        "slot_advance_sparse_ns",
        "city_mobility_ns",
        "city_100k_window_ns",
        "city_100k_decode_ns",
    ] {
        require_positive(&report.engine, "engine", key)?;
    }
    let window_share = *report
        .engine
        .get("city_100k_window_share")
        .ok_or("missing required field engine.city_100k_window_share")?;
    if !(0.0..=1.0).contains(&window_share) {
        return Err(format!(
            "engine.city_100k_window_share must be a fraction in [0, 1], got {window_share}"
        ));
    }
    // Block-graph pipeline gates (PR 9): ONE run streamed across the
    // block graph, deterministic executor vs work-stealing executor.
    // Bit-identity is a correctness claim and holds on any host; the
    // wall-clock speedup claim only means something where the workers
    // actually got cores (a 1-core container can at best break even),
    // and only at a scale that clears scheduler noise — both skips are
    // logged in the summary, never silent.
    for key in [
        "pipeline_serial_ms",
        "pipeline_parallel_ms",
        "pipeline_speedup",
        "pipeline_workers",
    ] {
        require_positive(&report.engine, "engine", key)?;
    }
    match report.engine.get("pipeline_identical") {
        Some(&1.0) => {}
        Some(_) => {
            return Err(
                "engine.pipeline_identical is not 1 (work-stealing run diverged from the deterministic executor!)"
                    .to_string(),
            )
        }
        None => return Err("missing required field engine.pipeline_identical".to_string()),
    }
    let pipe_workers = report.engine["pipeline_workers"];
    let pipe_speedup = report.engine["pipeline_speedup"];
    let pipe_serial_ms = report.engine["pipeline_serial_ms"];
    let pipeline_note = if cores < 1.5 {
        format!(
            " [pipeline gate skipped: {pipe_workers:.0} workers on a single core can only show parity]"
        )
    } else if pipe_workers > cores + 0.5 {
        format!(
            " [pipeline gate skipped: oversubscribed ({pipe_workers:.0} workers on {cores:.0} core(s))]"
        )
    } else if pipe_serial_ms < 200.0 {
        format!(
            " [pipeline gate skipped: {pipe_serial_ms:.0}ms serial run is inside scheduler noise]"
        )
    } else if pipe_speedup < 1.3 {
        return Err(format!(
            "block-graph pipeline does not pay: {pipe_speedup:.2}x with {pipe_workers:.0} workers on {cores:.0} cores (need >= 1.3)"
        ));
    } else {
        String::new()
    };
    Ok(format!(
        "perf report '{}': batch kernel speedup {:.2}x, {:.0} decodes/s, sweep {:.2}s serial / {:.2}s parallel, 100k window share {:.0}%, pipeline {:.2}x{}{}",
        report.title,
        batch_speedup,
        report.end_to_end["decodes_per_sec"],
        report.sweep["serial_seconds"],
        report.sweep["parallel_seconds"],
        100.0 * window_share,
        pipe_speedup,
        sweep_note,
        pipeline_note,
    ))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(m) => m.get(key),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

fn validate_criterion(value: &Value) -> Result<String, String> {
    let records = field(value, "records")
        .and_then(as_array)
        .ok_or("criterion dump has no records array")?;
    if records.is_empty() {
        return Err("criterion dump has zero records".to_string());
    }
    for r in records {
        let name = field(r, "name")
            .and_then(as_str)
            .ok_or("record missing name")?;
        let ns = field(r, "ns_per_iter")
            .and_then(as_f64)
            .ok_or_else(|| format!("record {name} missing ns_per_iter"))?;
        if !(ns.is_finite() && ns > 0.0) {
            return Err(format!("record {name} has bad ns_per_iter {ns}"));
        }
    }
    Ok(format!("criterion dump: {} records", records.len()))
}

fn validate_experiment(value: &Value) -> Result<String, String> {
    let title = field(value, "title")
        .and_then(as_str)
        .ok_or("experiment report missing title")?;
    let series = field(value, "series")
        .and_then(as_array)
        .ok_or("experiment report missing series")?;
    if series.is_empty() {
        return Err(format!("experiment report '{title}' has zero series"));
    }
    for s in series {
        let rows = field(s, "rows")
            .and_then(as_array)
            .ok_or("series missing rows")?;
        if rows.is_empty() {
            return Err(format!("empty series in '{title}'"));
        }
    }
    Ok(format!(
        "experiment report '{title}': {} series",
        series.len()
    ))
}

/// Which way a perf metric improves, for regression gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Smaller is better (latencies: `*_ns`, `*_ns_per_sample`).
    Lower,
    /// Larger is better (rates and ratios: `*_per_sec`, `*speedup*`).
    Higher,
}

/// `true` for metrics that are in-process ratios (the batch kernel vs
/// its scalar oracle, a parallel sweep vs serial). Ratios transfer across
/// machines, so they are gated by default; absolute latencies/rates
/// depend on the host that recorded the tracked artifact and are only
/// gated on request.
fn is_ratio_metric(key: &str) -> bool {
    key.contains("speedup")
}

fn metric_direction(key: &str) -> Option<Direction> {
    if key.contains("per_sec") || key.contains("speedup") {
        Some(Direction::Higher)
    } else if key.ends_with("_ns") || key.contains("ns_per") {
        Some(Direction::Lower)
    } else {
        None
    }
}

/// Compares a candidate [`PerfReport`] against a tracked baseline
/// artifact: any gated metric that is worse than the baseline's
/// current value by more than `tolerance_pct` percent is a regression
/// and fails the comparison (all offenders listed).
///
/// By default only **ratio** metrics (the `kernels`/`end_to_end`
/// speedups) are gated — they compare a kernel against its in-process
/// reference, so they hold across machines (CI runners vs the host
/// that recorded the tracked file). The `sweep` section is never
/// gated here: its wall-clock ratios sit inside scheduler noise at
/// quick scale, and [`validate_json`] already machine-checks them
/// with the scale/core guards that comparison needs. `gate_absolute`
/// additionally gates absolute latencies and rates (`*_ns*`,
/// `*_per_sec`) for same-machine comparisons.
pub fn compare_reports(
    candidate: &str,
    baseline: &str,
    tolerance_pct: f64,
    gate_absolute: bool,
) -> Result<String, String> {
    if !(tolerance_pct.is_finite() && tolerance_pct >= 0.0) {
        return Err(format!("tolerance must be >= 0, got {tolerance_pct}"));
    }
    let cand: PerfReport =
        serde_json::from_str(candidate).map_err(|e| format!("candidate does not parse: {e}"))?;
    let base: PerfReport =
        serde_json::from_str(baseline).map_err(|e| format!("baseline does not parse: {e}"))?;
    // The pipeline speedup is an in-process ratio, but one whose
    // denominator is core availability: a tracked artifact recorded on
    // a single-core host pins ~1.0x, and holding a multi-core CI run
    // to that (or vice versa) compares machines, not code. Gate it
    // only when both reports had real parallelism to measure, at a
    // scale that clears scheduler noise (the validator's 200 ms guard).
    let pipelined = |r: &PerfReport| {
        r.config.get("cores").copied().unwrap_or(1.0) >= 2.0
            && r.engine.get("pipeline_serial_ms").copied().unwrap_or(0.0) >= 200.0
    };
    let gate_pipeline = pipelined(&cand) && pipelined(&base);
    let mut regressions = Vec::new();
    let mut gated = 0usize;
    for (section, cmap, bmap) in [
        ("kernels", &cand.kernels, &base.kernels),
        ("end_to_end", &cand.end_to_end, &base.end_to_end),
        ("engine", &cand.engine, &base.engine),
    ] {
        for (key, &b) in bmap {
            let Some(dir) = metric_direction(key) else {
                continue;
            };
            if !gate_absolute && !is_ratio_metric(key) {
                continue;
            }
            if key == "pipeline_speedup" && !gate_pipeline {
                continue;
            }
            if !(b.is_finite() && b > 0.0) {
                continue;
            }
            let Some(&c) = cmap.get(key) else {
                regressions.push(format!(
                    "{section}.{key}: tracked at {b:.3} but missing from the candidate"
                ));
                continue;
            };
            gated += 1;
            let change_pct = (c / b - 1.0) * 100.0;
            let regressed = match dir {
                Direction::Lower => change_pct > tolerance_pct,
                Direction::Higher => change_pct < -tolerance_pct,
            };
            if regressed {
                regressions.push(format!(
                    "{section}.{key}: {c:.3} vs tracked {b:.3} ({change_pct:+.1}%, tolerance ±{tolerance_pct}%)"
                ));
            }
        }
    }
    if gated == 0 && regressions.is_empty() {
        return Err("no gated metrics shared with the baseline".to_string());
    }
    if regressions.is_empty() {
        Ok(format!(
            "perf gate: {gated} metric(s) within ±{tolerance_pct}% of '{}'",
            base.title
        ))
    } else {
        Err(format!(
            "perf regression vs tracked '{}':\n  {}",
            base.title,
            regressions.join("\n  ")
        ))
    }
}

/// Validates one emitted JSON artifact, sniffing which of the three
/// kinds it is from its schema/shape: a [`PerfReport`], a criterion
/// shim dump, or an `anc-sim` experiment report. Returns a one-line
/// summary on success.
pub fn validate_json(text: &str) -> Result<String, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match field(&value, "schema").and_then(as_str) {
        Some(PERF_SCHEMA) => validate_perf(text),
        Some(CRITERION_SCHEMA) => validate_criterion(&value),
        Some(other) => Err(format!("unknown schema {other:?}")),
        None if field(&value, "series").is_some() => validate_experiment(&value),
        None => Err("JSON has neither a schema tag nor experiment series".to_string()),
    }
}

/// `true` when the JSON text carries the [`PERF_SCHEMA`] tag (the only
/// artifact kind the `--against` regression gate applies to).
pub fn is_perf_report(text: &str) -> bool {
    serde_json::from_str::<Value>(text)
        .ok()
        .and_then(|v| {
            field(&v, "schema")
                .and_then(as_str)
                .map(|s| s == PERF_SCHEMA)
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        let mut r = PerfReport::new("decoder_pipeline");
        r.kernels
            .insert("batch_detect_lemma_match_ns_per_sample".into(), 75.0);
        r.kernels
            .insert("batch_detect_lemma_match_speedup".into(), 1.25);
        r.kernels
            .insert("batch_detect_lemma_match_msamples_per_sec".into(), 13.3);
        r.end_to_end.insert("decode_forward_ns".into(), 1.0e6);
        r.end_to_end.insert("decodes_per_sec".into(), 1000.0);
        r.sweep.insert("serial_seconds".into(), 3.0);
        r.sweep.insert("parallel_seconds".into(), 1.1);
        r.sweep.insert("threads".into(), 4.0);
        r.sweep.insert("speedup".into(), 2.7);
        r.sweep.insert("bit_identical".into(), 1.0);
        r.engine.insert("superpose_gated_ns".into(), 1.3e5);
        r.engine.insert("slot_advance_sparse_ns".into(), 9.0e4);
        r.engine.insert("city_mobility_ns".into(), 2.0e6);
        r.engine.insert("city_100k_window_ns".into(), 6.0e8);
        r.engine.insert("city_100k_decode_ns".into(), 9.0e8);
        r.engine.insert("city_100k_window_share".into(), 0.4);
        r.engine.insert("pipeline_serial_ms".into(), 900.0);
        r.engine.insert("pipeline_parallel_ms".into(), 400.0);
        r.engine.insert("pipeline_speedup".into(), 2.25);
        r.engine.insert("pipeline_workers".into(), 4.0);
        r.engine.insert("pipeline_identical".into(), 1.0);
        r
    }

    #[test]
    fn valid_perf_report_passes() {
        let text = serde_json::to_string(&sample_report()).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(summary.contains("1.25x"), "{summary}");
    }

    #[test]
    fn missing_kernel_field_fails() {
        let mut r = sample_report();
        r.kernels.remove("batch_detect_lemma_match_speedup");
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text).unwrap_err().contains("speedup"));
    }

    #[test]
    fn kernel_regression_fails() {
        // A batch kernel slower than the scalar oracle defeats the
        // point of the SoA layout; the artifact must not validate.
        let mut r = sample_report();
        r.kernels
            .insert("batch_detect_lemma_match_speedup".into(), 0.8);
        let text = serde_json::to_string(&r).unwrap();
        let err = validate_json(&text).unwrap_err();
        assert!(
            err.contains("batched") && err.contains("regressed"),
            "{err}"
        );
    }

    #[test]
    fn batch_kernel_regression_fails() {
        // Every batch key is required, not optional: an emitter that
        // stopped timing the kernel fails loudly.
        for key in [
            "batch_detect_lemma_match_ns_per_sample",
            "batch_detect_lemma_match_msamples_per_sec",
        ] {
            let mut r = sample_report();
            r.kernels.remove(key);
            let text = serde_json::to_string(&r).unwrap();
            assert!(validate_json(&text).unwrap_err().contains(key), "{key}");
        }
    }

    #[test]
    fn missing_multicore_speedup_fails() {
        // Measured with several workers on several cores but no
        // wall-clock win: the parallel harness regressed.
        let mut r = sample_report();
        r.config.insert("cores".into(), 4.0);
        r.sweep.insert("speedup".into(), 0.95);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("no multi-core sweep speedup"));
        // Same numbers on a single-core host: 4 workers oversubscribe
        // the core, so the gate is skipped — but loudly, with the
        // reason in the summary, never as a silent pass.
        r.config.insert("cores".into(), 1.0);
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(
            summary.contains("sweep gate skipped") && summary.contains("oversubscribed"),
            "{summary}"
        );
        // A sub-scale sweep sits inside scheduler noise: skipped with
        // its own reason.
        r.config.insert("cores".into(), 4.0);
        r.sweep.insert("serial_seconds".into(), 0.4);
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(
            summary.contains("sweep gate skipped") && summary.contains("scheduler noise"),
            "{summary}"
        );
        // A genuinely multi-core, at-scale, faster-in-parallel sweep is
        // gated (not skipped) and passes.
        let mut r = sample_report();
        r.config.insert("cores".into(), 4.0);
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(!summary.contains("skipped"), "{summary}");
        // A serial sweep (threads == 1) has nothing to gate.
        let mut r = sample_report();
        r.config.insert("cores".into(), 4.0);
        r.sweep.insert("threads".into(), 1.0);
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(summary.contains("serial sweep"), "{summary}");
    }

    #[test]
    fn engine_section_is_required_and_floored() {
        // Every engine cost key is required and must be positive…
        for key in ["superpose_gated_ns", "slot_advance_sparse_ns"] {
            let mut r = sample_report();
            r.engine.remove(key);
            let text = serde_json::to_string(&r).unwrap();
            assert!(validate_json(&text)
                .unwrap_err()
                .contains(&format!("engine.{key}")));
        }
        let mut r = sample_report();
        r.engine.insert("superpose_gated_ns".into(), 0.0);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text).unwrap_err().contains("positive"));
        // The mobility meter and the 100k-rung profile split are
        // required too…
        let mut r = sample_report();
        r.engine.remove("city_mobility_ns");
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("engine.city_mobility_ns"));
        let mut r = sample_report();
        r.engine.remove("city_100k_window_share");
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("city_100k_window_share"));
        // …and the share must be a fraction, not a ratio or a count.
        let mut r = sample_report();
        r.engine.insert("city_100k_window_share".into(), 1.7);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text).unwrap_err().contains("fraction"));
    }

    #[test]
    fn pipeline_section_is_required_and_gated_by_cores() {
        // Bit-identity is unconditional: a work-stealing run that
        // diverged from the deterministic executor fails on any host.
        let mut r = sample_report();
        r.engine.insert("pipeline_identical".into(), 0.0);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("pipeline_identical"));
        // Every pipeline key is required.
        let mut r = sample_report();
        r.engine.remove("pipeline_parallel_ms");
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("engine.pipeline_parallel_ms"));
        // On a multi-core host with workers <= cores and an at-scale
        // run, a speedup under 1.3x fails…
        let mut r = sample_report();
        r.config.insert("cores".into(), 4.0);
        r.engine.insert("pipeline_speedup".into(), 1.05);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text)
            .unwrap_err()
            .contains("block-graph pipeline does not pay"));
        // …but the same numbers on a single core skip the gate with a
        // logged reason (the build container is 1-core).
        r.config.insert("cores".into(), 1.0);
        r.sweep.insert("threads".into(), 1.0); // keep the sweep note out of the way
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(
            summary.contains("pipeline gate skipped") && summary.contains("single core"),
            "{summary}"
        );
        // A sub-scale pipeline run skips inside scheduler noise too.
        let mut r = sample_report();
        r.config.insert("cores".into(), 4.0);
        r.engine.insert("pipeline_serial_ms".into(), 50.0);
        r.engine.insert("pipeline_speedup".into(), 1.0);
        let text = serde_json::to_string(&r).unwrap();
        let summary = validate_json(&text).unwrap();
        assert!(
            summary.contains("pipeline gate skipped") && summary.contains("scheduler noise"),
            "{summary}"
        );
    }

    #[test]
    fn pipeline_speedup_is_ratio_gated_only_between_multicore_reports() {
        // Both reports multi-core: the ratio transfers and is gated.
        let mut base = sample_report();
        base.config.insert("cores".into(), 4.0);
        let mut cand = base.clone();
        cand.engine.insert("pipeline_speedup".into(), 1.4); // -38 %
        let err = compare_reports(&json(&cand), &json(&base), 20.0, false).unwrap_err();
        assert!(err.contains("engine.pipeline_speedup"), "{err}");
        // A single-core arm on either side pins ~1x by construction,
        // so the cross-report gate stands down rather than comparing
        // machines.
        let mut single = sample_report();
        single.config.insert("cores".into(), 1.0);
        single.engine.insert("pipeline_speedup".into(), 0.97);
        assert!(compare_reports(&json(&single), &json(&base), 20.0, false).is_ok());
        assert!(compare_reports(&json(&cand), &json(&single), 20.0, false).is_ok());
        // So does a sub-scale (quick-mode) run, whose speedup sits
        // inside scheduler noise.
        cand.engine.insert("pipeline_serial_ms".into(), 150.0);
        assert!(compare_reports(&json(&cand), &json(&base), 20.0, false).is_ok());
    }

    #[test]
    fn engine_speedup_is_ratio_gated_across_reports() {
        // The engine section's one speedup is an in-process ratio, so
        // the default gate holds it to a multi-core baseline.
        let mut multicore = sample_report();
        multicore.config.insert("cores".into(), 4.0);
        let mut cand = multicore.clone();
        cand.engine.insert("pipeline_speedup".into(), 1.2); // -47 %
        let err = compare_reports(&json(&cand), &json(&multicore), 20.0, false).unwrap_err();
        assert!(err.contains("engine.pipeline_speedup"), "{err}");
        let base = sample_report();
        // Gated superposition and the sparse advance are absolute
        // costs: host-dependent, so the default ratio-only gate leaves
        // them alone and the absolute gate holds them to the baseline.
        for key in ["superpose_gated_ns", "slot_advance_sparse_ns"] {
            let mut cand = sample_report();
            cand.engine.insert(key.into(), 3.0 * base.engine[key]);
            assert!(compare_reports(&json(&cand), &json(&base), 20.0, false).is_ok());
            let err = compare_reports(&json(&cand), &json(&base), 20.0, true).unwrap_err();
            assert!(err.contains(&format!("engine.{key}")), "{err}");
        }
    }

    #[test]
    fn pre_engine_baseline_still_parses() {
        // Artifacts recorded before the engine section existed must
        // stay usable as `--against` baselines.
        let mut old = match serde::Serialize::to_value(&sample_report()) {
            Value::Object(m) => m,
            other => panic!("report serializes to an object, got {other:?}"),
        };
        old.remove("engine");
        let old = serde_json::to_string(&Value::Object(old)).unwrap();
        let summary = compare_reports(&json(&sample_report()), &old, 20.0, false).unwrap();
        assert!(summary.contains("perf gate"), "{summary}");
    }

    #[test]
    fn non_identical_sweep_fails() {
        let mut r = sample_report();
        r.sweep.insert("bit_identical".into(), 0.0);
        let text = serde_json::to_string(&r).unwrap();
        assert!(validate_json(&text).unwrap_err().contains("bit_identical"));
    }

    #[test]
    fn criterion_dump_validates() {
        let good = r#"{"schema": "anc-bench-criterion/v1", "records": [
            {"name": "a/b", "ns_per_iter": 12.5, "work_per_sec": 1e6}]}"#;
        assert!(validate_json(good).unwrap().contains("1 records"));
        let empty = r#"{"schema": "anc-bench-criterion/v1", "records": []}"#;
        assert!(validate_json(empty).is_err());
    }

    #[test]
    fn experiment_report_validates() {
        let good = r#"{"title": "fig9", "params": {}, "summary": {},
            "series": [{"name": "g", "columns": ["x"], "rows": [[1.0]]}]}"#;
        assert!(validate_json(good).unwrap().contains("fig9"));
        let no_series = r#"{"title": "fig9", "series": []}"#;
        assert!(validate_json(no_series).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json(r#"{"schema": "bogus/v9"}"#).is_err());
        assert!(validate_json(r#"{"x": 1}"#).is_err());
    }

    fn json(r: &PerfReport) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn gate_passes_when_within_tolerance() {
        let base = sample_report();
        let mut cand = sample_report();
        // 5 % worse kernel speedup: inside a 20 % tolerance.
        cand.kernels
            .insert("batch_detect_lemma_match_speedup".into(), 1.19);
        let summary = compare_reports(&json(&cand), &json(&base), 20.0, false).unwrap();
        assert!(summary.contains("within"), "{summary}");
    }

    #[test]
    fn gate_fails_on_injected_kernel_regression() {
        // The acceptance scenario: a quick-mode run whose batch kernel
        // lost its edge versus the tracked history must fail the gate.
        let base = sample_report(); // tracked speedup 1.25
        let mut cand = sample_report();
        cand.kernels
            .insert("batch_detect_lemma_match_speedup".into(), 0.9);
        let err = compare_reports(&json(&cand), &json(&base), 20.0, false).unwrap_err();
        assert!(err.contains("perf regression"), "{err}");
        assert!(err.contains("batch_detect_lemma_match_speedup"), "{err}");
        // The same numbers clear a huge tolerance.
        assert!(compare_reports(&json(&cand), &json(&base), 95.0, false).is_ok());
    }

    #[test]
    fn gate_absolute_mode_covers_latencies_and_rates() {
        let base = sample_report();
        let mut cand = sample_report();
        cand.end_to_end.insert("decode_forward_ns".into(), 3.0e6); // 3× slower
                                                                   // Default (ratio-only) gate does not look at absolutes…
        assert!(compare_reports(&json(&cand), &json(&base), 20.0, false).is_ok());
        // …the absolute gate does, in both directions.
        let err = compare_reports(&json(&cand), &json(&base), 20.0, true).unwrap_err();
        assert!(err.contains("decode_forward_ns"), "{err}");
        let mut slow_rate = sample_report();
        slow_rate.end_to_end.insert("decodes_per_sec".into(), 400.0);
        let err = compare_reports(&json(&slow_rate), &json(&base), 20.0, true).unwrap_err();
        assert!(err.contains("decodes_per_sec"), "{err}");
        // Improvements never trip the gate.
        let mut faster = sample_report();
        faster.end_to_end.insert("decode_forward_ns".into(), 0.5e6);
        faster
            .kernels
            .insert("batch_detect_lemma_match_speedup".into(), 1.5);
        assert!(compare_reports(&json(&faster), &json(&base), 20.0, true).is_ok());
    }

    #[test]
    fn gate_flags_missing_tracked_metrics() {
        let base = sample_report();
        let mut cand = sample_report();
        cand.kernels.remove("batch_detect_lemma_match_speedup");
        let err = compare_reports(&json(&cand), &json(&base), 20.0, false).unwrap_err();
        assert!(err.contains("missing from the candidate"), "{err}");
    }

    #[test]
    fn gate_rejects_bad_inputs() {
        let base = sample_report();
        assert!(compare_reports("not json", &json(&base), 20.0, false).is_err());
        assert!(compare_reports(&json(&base), "not json", 20.0, false).is_err());
        assert!(compare_reports(&json(&base), &json(&base), f64::NAN, false).is_err());
    }

    #[test]
    fn gate_applies_to_the_tracked_repo_artifact() {
        // The checked-in trajectory file must be usable as a baseline:
        // compared against itself it passes at any tolerance.
        let tracked = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_decoder_pipeline.json"
        ))
        .expect("tracked artifact exists");
        assert!(is_perf_report(&tracked));
        let summary = compare_reports(&tracked, &tracked, 0.0, true).unwrap();
        assert!(summary.contains("perf gate"), "{summary}");
        // And an injected >tolerance regression against it fails.
        let mut worse: PerfReport = serde_json::from_str(&tracked).unwrap();
        let speedup = worse.kernels["batch_detect_lemma_match_speedup"];
        worse
            .kernels
            .insert("batch_detect_lemma_match_speedup".into(), speedup * 0.5);
        assert!(compare_reports(&json(&worse), &tracked, 25.0, false).is_err());
    }

    #[test]
    fn perf_schema_sniffing() {
        assert!(is_perf_report(&json(&sample_report())));
        assert!(!is_perf_report(r#"{"title": "fig9", "series": []}"#));
        assert!(!is_perf_report("not json"));
    }

    #[test]
    fn measure_ns_returns_sane_numbers() {
        let ns = measure_ns(
            || {
                std::hint::black_box((0..64u64).sum::<u64>());
            },
            1,
            3,
        );
        assert!(ns.is_finite() && ns > 0.0 && ns < 1e7, "ns = {ns}");
    }
}
