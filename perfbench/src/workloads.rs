//! The three workloads: their seeded inputs, executes and set-up.
//!
//! A *realization* is one seeded input: for `paper_topologies` the six
//! runs (Alice–Bob, X, chain × ANC, traditional) of one channel draw;
//! for the city workloads one ANC and one traditional run over the same
//! slot horizon. `main.rs` runs realization after realization, each on
//! the deterministic executor and on `work_stealing(nproc)`, and every
//! execute starts only when the previous one has returned.

use crate::digest::{fnv, mix_seed, Fnv};
use anc_netcode::Scheme;
use anc_sim::city::{CityConfig, CityOutcome, CityProfile};
use anc_sim::metrics::RunMetrics;
use anc_sim::scenario::ScenarioSpec;
use anc_sim::{Run, RunConfig, RunCtx, SchedulerSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    City10k,
    City100k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::City10k, Workload::City100k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper_topologies",
            Workload::City10k => "city_10k_saturated",
            Workload::City100k => "city_100k_light",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Realizations the untraced run always completes, whatever the
    /// time budget: the paper workload needs ≥ 100 so that its p90 has
    /// ten samples beyond it.
    pub fn min_realizations(self) -> usize {
        match self {
            Workload::Paper => 100,
            Workload::City10k | Workload::City100k => 2,
        }
    }

    /// Realizations covered by the pinned default-seed digest.
    pub fn pinned_realizations(self) -> usize {
        match self {
            Workload::Paper => 8,
            Workload::City10k | Workload::City100k => 1,
        }
    }

    /// Digest of the first [`Self::pinned_realizations`] deterministic
    /// realizations at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::Paper => 0xf771_579f_1101_e7ce,
            Workload::City10k => 0x41b2_d173_758c_eab7,
            Workload::City100k => 0x9434_a0ef_5187_f08b,
        }
    }
}

/// The seed the digests are pinned at.
pub const DEFAULT_SEED: u64 = 1;

/// Paper workload: the paper's 8192-bit payload, four packets per flow
/// so that ≥ 100 realizations fit one run.
pub const PAPER_PACKETS_PER_FLOW: usize = 4;
pub const PAPER_PAYLOAD_BITS: usize = 8192;

/// One paper topology and what the benchmark needs to know about it.
pub struct PaperTopology {
    pub name: &'static str,
    /// Execute labels under ANC and under traditional routing.
    pub labels: [&'static str; 2],
    pub spec: ScenarioSpec,
    pub flows: u64,
    /// Hops a packet takes under traditional routing.
    pub hops: u64,
    /// Band the mean ANC/traditional gain must land in. Alice–Bob and
    /// X sit near the paper's ≈ 1.7 / ≈ 1.65. The chain's ≈ 1.36 needs
    /// long runs for its pipeline to fill; at four packets per flow it
    /// measures ≈ 1.2, so its band only demands a win.
    pub gain_band: (f64, f64),
}

pub fn paper_topologies() -> [PaperTopology; 3] {
    [
        PaperTopology {
            name: "alice_bob",
            labels: ["alice_bob/anc", "alice_bob/trad"],
            spec: ScenarioSpec::alice_bob(),
            flows: 2,
            hops: 2,
            gain_band: (1.45, 1.85),
        },
        PaperTopology {
            name: "x",
            labels: ["x/anc", "x/trad"],
            spec: ScenarioSpec::x(),
            flows: 2,
            hops: 2,
            gain_band: (1.45, 1.85),
        },
        PaperTopology {
            name: "chain",
            labels: ["chain/anc", "chain/trad"],
            spec: ScenarioSpec::chain(),
            flows: 1,
            hops: 3,
            gain_band: (1.0, 1.5),
        },
    ]
}

/// City geometry of one workload: `city_sweep`'s grids, 128-bit
/// payloads, equal slot horizons for both schemes.
pub struct CityShape {
    pub cells_x: usize,
    pub rows: usize,
    /// Per-slot packet-pair demand λ: ANC gets 2λ per round over
    /// `slots / 2` rounds, traditional 4λ over `slots / 4`.
    pub lambda: f64,
    pub slots: u64,
}

pub fn city_shape(w: Workload) -> CityShape {
    match w {
        Workload::City10k => CityShape {
            cells_x: 84,
            rows: 40,
            lambda: 0.5,
            slots: 8,
        },
        _ => CityShape {
            cells_x: 167,
            rows: 200,
            lambda: 0.05,
            slots: 8,
        },
    }
}

pub fn city_config(w: Workload, scheme: Scheme, seed: u64) -> CityConfig {
    let s = city_shape(w);
    let (div, mult) = match scheme {
        Scheme::Anc => (2, 2.0),
        _ => (4, 4.0),
    };
    CityConfig {
        cells_x: s.cells_x,
        rows: s.rows,
        seed,
        rounds: s.slots / div,
        offered: (mult * s.lambda).min(1.0),
        payload_bits: 128,
        ..CityConfig::default()
    }
}

pub fn paper_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        packets_per_flow: PAPER_PACKETS_PER_FLOW,
        payload_bits: PAPER_PAYLOAD_BITS,
        ..RunConfig::default()
    }
}

/// Seed of realization `i` under benchmark seed `seed`.
pub fn realization_seed(seed: u64, i: usize) -> u64 {
    mix_seed(seed, i as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Det,
    Ws,
}

pub fn sched(arm: Arm, workers: usize) -> SchedulerSpec {
    match arm {
        Arm::Det => SchedulerSpec::deterministic(),
        Arm::Ws => SchedulerSpec::work_stealing(workers),
    }
}

/// One execute's observable result.
#[derive(Debug, Clone)]
pub struct Exec {
    pub label: &'static str,
    pub scheme: Scheme,
    /// Packets offered (2 per exchange).
    pub packets: u64,
    /// Hops a packet takes under traditional routing.
    pub hops: u64,
    pub wall_s: f64,
    pub digest: u64,
    /// Paper: FEC-discounted throughput (bits/sample), for the gain.
    pub throughput: f64,
    pub delivered: u64,
    pub city: Option<(CityOutcome, CityProfile)>,
}

/// Digest over what `perf_baseline` checks for engine runs: goodput
/// bits, medium time, per-packet BERs and overlap fractions.
pub fn run_digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::default();
    h.eat(m.account.goodput_bits.to_bits());
    h.eat(m.account.time_samples.to_bits());
    h.eat(m.account.delivered as u64);
    h.eat(m.account.lost as u64);
    for b in &m.packet_bers {
        h.eat(b.to_bits());
    }
    for o in &m.overlaps {
        h.eat(o.to_bits());
    }
    h.finish()
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// One compiled paper run.
pub struct PaperRun {
    pub label: &'static str,
    pub scheme: Scheme,
    pub packets: u64,
    pub hops: u64,
    pub run: Run,
}

/// Builds the six paper runs of one realization on one executor.
pub fn build_paper_runs(seed: u64, sched: SchedulerSpec) -> Result<Vec<PaperRun>, String> {
    let cfg = paper_config(seed);
    let mut runs = Vec::with_capacity(6);
    for t in paper_topologies() {
        for (scheme, label) in [Scheme::Anc, Scheme::Traditional].into_iter().zip(t.labels) {
            let run = t
                .spec
                .clone()
                .builder(scheme)
                .config(cfg.clone())
                .scheduler(sched)
                .build()
                .map_err(|e| format!("{label} build: {e}"))?;
            runs.push(PaperRun {
                label,
                scheme,
                packets: t.flows * PAPER_PACKETS_PER_FLOW as u64,
                hops: t.hops,
                run,
            });
        }
    }
    Ok(runs)
}

/// Executes one prepared unit of work and reports it.
pub struct Executor {
    pub workload: Workload,
    pub workers: usize,
    ctx: [RunCtx; 2],
}

/// Surrounds one execute (given its label); the traced run records a
/// span there.
pub type Wrap<'a> =
    dyn FnMut(&'static str, &mut dyn FnMut() -> Result<Exec, String>) -> Result<Exec, String> + 'a;

/// Outcome of one realization on one arm: one result per execute (a
/// failed paper build yields a single error).
pub type RealizationResult = Vec<Result<Exec, String>>;

impl Executor {
    pub fn new(workload: Workload, workers: usize) -> Self {
        Executor {
            workload,
            workers,
            ctx: [RunCtx::default(), RunCtx::default()],
        }
    }

    /// Executes realization `i` of benchmark seed `seed` on `arm`, each
    /// execute inside `wrap`.
    pub fn realize(
        &mut self,
        seed: u64,
        i: usize,
        arm: Arm,
        wrap: &mut Wrap<'_>,
    ) -> RealizationResult {
        let rseed = realization_seed(seed, i);
        let sched = sched(arm, self.workers);
        match self.workload {
            Workload::Paper => {
                let runs = match guarded(|| build_paper_runs(rseed, sched)) {
                    Ok(r) => r,
                    Err(e) => return vec![Err(e)],
                };
                let ctx = &mut self.ctx[arm as usize];
                runs.into_iter()
                    .map(|p| {
                        wrap(p.label, &mut || {
                            guarded(|| {
                                let t0 = Instant::now();
                                let m = p
                                    .run
                                    .execute_with(ctx)
                                    .map_err(|e| format!("{}: {e}", p.label))?;
                                let wall_s = t0.elapsed().as_secs_f64();
                                Ok(Exec {
                                    label: p.label,
                                    scheme: p.scheme,
                                    packets: p.packets,
                                    hops: p.hops,
                                    wall_s,
                                    digest: run_digest(&m),
                                    throughput: m.account.throughput(),
                                    delivered: m.account.delivered as u64,
                                    city: None,
                                })
                            })
                        })
                    })
                    .collect()
            }
            Workload::City10k | Workload::City100k => [Scheme::Anc, Scheme::Traditional]
                .into_iter()
                .map(|scheme| {
                    let label = if scheme == Scheme::Anc {
                        "city/anc"
                    } else {
                        "city/trad"
                    };
                    let cfg = city_config(self.workload, scheme, rseed);
                    wrap(label, &mut || {
                        guarded(|| {
                            let run = CityConfig::builder(scheme)
                                .config(cfg.clone())
                                .scheduler(sched)
                                .build()
                                .map_err(|e| format!("{label} build: {e}"))?;
                            let t0 = Instant::now();
                            let (out, prof) = run
                                .execute_profiled()
                                .map_err(|e| format!("{label}: {e}"))?;
                            let wall_s = t0.elapsed().as_secs_f64();
                            Ok(Exec {
                                label,
                                scheme,
                                packets: 2 * out.offered,
                                hops: 2,
                                wall_s,
                                digest: out.fingerprint(),
                                throughput: 0.0,
                                delivered: out.delivered,
                                city: Some((out, prof)),
                            })
                        })
                    })
                })
                .collect(),
        }
    }
}

/// One set-up of the workload: the paper compiles its six runs; a city
/// builds its run and executes it once with zero load for one round
/// (placement, chains, spatial grid, block graph, worker spawn).
pub fn setup_once(w: Workload, seed: u64, workers: usize) -> Result<f64, String> {
    let sched = SchedulerSpec::work_stealing(workers);
    let rseed = realization_seed(seed, 0);
    guarded(|| {
        let t0 = Instant::now();
        match w {
            Workload::Paper => {
                std::hint::black_box(build_paper_runs(rseed, sched)?);
            }
            _ => {
                let cfg = CityConfig {
                    rounds: 1,
                    offered: 0.0,
                    ..city_config(w, Scheme::Anc, rseed)
                };
                let out = CityConfig::builder(Scheme::Anc)
                    .config(cfg)
                    .scheduler(sched)
                    .build()
                    .map_err(|e| format!("setup build: {e}"))?
                    .execute()
                    .map_err(|e| format!("setup execute: {e}"))?;
                if out.offered != 0 {
                    return Err("zero-load set-up run offered packets".into());
                }
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    })
}

/// Per-realization digest (deterministic arm) folded for pinning.
pub fn realization_digest(execs: &[Exec]) -> u64 {
    fnv(execs.iter().map(|e| e.digest))
}
