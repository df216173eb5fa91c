//! # anc-core — the analog network coding decoder
//!
//! This crate is the paper's contribution (§6–§7): given a reception in
//! which two MSK packets interfered, and knowledge of one of the two
//! packets, recover the other packet's bits.
//!
//! The pipeline (Alg. 1 of the paper):
//!
//! 1. **Detect** a packet (energy) and classify interference
//!    (energy variance) — [`detect`].
//! 2. **Estimate amplitudes** A and B of the two constituent signals
//!    from the interfered region's energy statistics (Eqs. 5–6) —
//!    [`amplitude`].
//! 3. **Solve Lemma 6.1** per sample: the two candidate phase pairs
//!    `(θ[n], φ[n])` consistent with the received sample — [`lemma`].
//! 4. **Match phase differences**: use the known signal's `Δθ_s[n]` to
//!    pick the right candidate pair and emit the unknown signal's
//!    `Δφ[n]` (Eqs. 7–8) — [`matcher`].
//! 5. **Decide bits**: `Δφ ≥ 0 → 1` (§6.4), forward for the
//!    first-starting sender, backward from the frame tail for the
//!    second (§7.4) — [`decoder`].
//! 6. **Router policy** (§7.5): decode, amplify-and-forward, or drop —
//!    [`router`].
//!
//! [`naive`] implements the strawman §6 warns about — direct channel
//! estimation and signal subtraction — used by the ablation benches to
//! show why the phase-difference method is the robust one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplitude;
pub mod decoder;
pub mod detect;
pub mod lemma;
pub mod matcher;
pub mod naive;
pub mod router;

pub use amplitude::{estimate_amplitudes, AmplitudeEstimate};
pub use decoder::{AncDecoder, DecodeOutcome, DecoderConfig, DecoderScratch};
pub use detect::{ClassifiedSignal, DetectorConfig, SignalDetector};
pub use lemma::{solve_phases, CandidateBatch, LemmaKernel, PhasePair, PhaseSolutions};
pub use matcher::{
    match_bits_batch, match_bits_into, match_phase_differences, MatchBatchScratch, MatchOutput,
};
pub use router::{RouterAction, RouterPolicy};
