//! # anc — Analog Network Coding, reproduced in Rust
//!
//! A full-stack reproduction of *Katti, Gollakota, Katabi — "Embracing
//! Wireless Interference: Analog Network Coding" (SIGCOMM 2007 /
//! MIT-CSAIL-TR-2007-012)*: instead of avoiding collisions, let two
//! strategically chosen senders interfere, forward the *signal*, and
//! let receivers cancel the packet they already know.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`dsp`] | `anc-dsp` | complex samples, angles, windows, LFSRs, stats |
//! | [`modem`] | `anc-modem` | MSK (§5) + DBPSK/DQPSK modems, BER tools |
//! | [`channel`] | `anc-channel` | links, AWGN, superposition, relays, faults |
//! | [`frame`] | `anc-frame` | Fig.-6 frames, pilots, whitening, CRC, FEC |
//! | [`core`] | `anc-core` | **the ANC decoder** (§6–§7, Alg. 1) |
//! | [`node`] | `anc-node` | Fig.-8 TX/RX chains, trigger MAC, node state |
//! | [`netcode`] | `anc-netcode` | traditional-routing + COPE baselines |
//! | [`sim`] | `anc-sim` | the software testbed: scenario graphs, event engine, runs, metrics |
//! | [`capacity`] | `anc-capacity` | Theorem 8.1 bounds, Fig. 7 |
//!
//! ## Quickstart
//!
//! ```
//! use anc::prelude::*;
//!
//! // Two senders, one receiver that knows sender A's bits.
//! let mut rng = DspRng::seed_from(7);
//! let modem = MskModem::default();
//! let a_bits = rng.bits(600);
//! let b_bits = rng.bits(600);
//! let sa = modem.modulate(&a_bits);
//! let sb = modem.modulate(&b_bits);
//!
//! // The channel adds the two signals (Eq. 2), each with its own
//! // phase; the second sender's oscillator drifts slightly.
//! let (ga, gb) = (rng.phase(), rng.phase());
//! let rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate()
//!     .map(|(n, (&x, &y))| x.rotate(ga) + y.rotate(gb + 0.02 * n as f64))
//!     .collect();
//!
//! // Knowing A's phase differences, recover B's bits (§6.3).
//! let known = modem.phase_differences(&a_bits);
//! let matched = match_phase_differences(&rx, &known, 1.0, 1.0);
//! let decoded = matched.bits();
//! let errors = decoded.iter().zip(&b_bits).filter(|(x, y)| x != y).count();
//! assert!(errors < 30, "BER should be a few percent at most: {errors}/600");
//! ```
//!
//! See `examples/` for end-to-end scenarios (Alice-Bob relay exchange,
//! the chain pipeline, "X"-topology overhearing) and `crates/bench` for
//! the binaries that regenerate every figure of the paper. DESIGN.md
//! maps paper sections to modules; EXPERIMENTS.md records
//! paper-vs-measured numbers.

#![forbid(unsafe_code)]

pub use anc_capacity as capacity;
pub use anc_channel as channel;
pub use anc_core as core;
pub use anc_dsp as dsp;
pub use anc_frame as frame;
pub use anc_modem as modem;
pub use anc_netcode as netcode;
pub use anc_node as node;
pub use anc_sim as sim;

/// The commonly-used names, importable in one line.
pub mod prelude {
    pub use anc_capacity::{anc_lower_bound, gain_ratio, routing_upper_bound, CapacityModel};
    pub use anc_channel::{AmplifyForward, Awgn, Link, Medium, Transmission};
    pub use anc_core::amplitude::{estimate_amplitudes, AmplitudeEstimate};
    pub use anc_core::decoder::{AncDecoder, DecodeOutcome, DecoderConfig, DecoderScratch};
    pub use anc_core::detect::{DetectorConfig, SignalDetector};
    pub use anc_core::lemma::{solve_phases, LemmaKernel, PhaseSolutions};
    pub use anc_core::matcher::{match_bits_into, match_phase_differences, MatchOutput};
    pub use anc_core::router::{RouterAction, RouterPolicy};
    pub use anc_dsp::{wrap_pi, Cdf, Cplx, DspRng, Lfsr};
    pub use anc_frame::{Frame, FrameConfig, Header, PacketKey, SentPacketBuffer};
    pub use anc_modem::{ber, DbpskModem, DqpskModem, Modem, MskConfig, MskModem};
    pub use anc_netcode::{derive_plan, CopeCoder, FlowSpec, Scheme};
    pub use anc_node::phy::{RxChain, RxEvent, TxChain};
    pub use anc_node::{FrontEnd, MacConfig, Node, NodeConfig, NodeRole, TriggerMac};
    pub use anc_sim::engine::{Engine, Program};
    pub use anc_sim::experiments::{
        alice_bob, chain, parking_lot_sweep, random_mesh, sir_sweep, x_topology, ExperimentConfig,
        ParkingLotSweepConfig,
    };
    pub use anc_sim::runs::{
        run_alice_bob, run_chain, run_spec, run_x, Run, RunBuilder, RunConfig,
    };
    pub use anc_sim::scenario::{MeshConfig, ScenarioSpec};
    pub use anc_sim::topology::{nodes, Topology, TopologyGraph, TopologyKind};
    pub use anc_sim::{RunCtx, SchedMode, SchedulerSpec};
}
