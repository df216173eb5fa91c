//! # anc-dsp — complex-baseband DSP substrate
//!
//! Foundation crate for the Analog Network Coding (ANC) reproduction of
//! *Katti, Gollakota, Katabi — "Embracing Wireless Interference: Analog
//! Network Coding", SIGCOMM 2007*.
//!
//! The paper (§5) models a wireless signal as a stream of complex samples
//! `A·e^{iθ[n]}`; everything above it — modulation, channels, interference
//! decoding — is algebra on those samples. This crate owns that algebra:
//!
//! * [`Cplx`] — a self-contained `f64` complex number (the paper's math,
//!   Lemma 6.1 in particular, is the core of the reproduction; owning the
//!   type keeps it auditable and the crate dependency-free).
//! * [`angle`] — phase wrapping and circular distance, used by the
//!   phase-difference matcher (§6.3, Eq. 8).
//! * [`db`] — decibel/linear conversions for SNR/SIR handling (§8, §11.7).
//! * [`window`] — moving-window energy and energy-variance trackers backing
//!   the packet and interference detectors of §7.1.
//! * [`lfsr`] — Fibonacci LFSR pseudo-random bit sequences for the 64-bit
//!   pilots (§7.2) and the whitening scrambler (§6.2).
//! * [`corr`] — bit-level correlation used for pilot alignment (§7.2).
//! * [`stats`] — running statistics, percentiles and CDFs for the
//!   evaluation harness (§11).
//! * [`rng`] — seedable Gaussian/uniform sampling (Box–Muller; keeps the
//!   workspace off `rand_distr`).
//! * [`batch`] — struct-of-arrays sample batches and `[f64; 4]` lane
//!   helpers behind the autovectorized RX kernels (DESIGN.md §8).
//! * [`cast`] — intent-named, saturating float→integer conversions for
//!   the timing/indexing paths.
//!
//! The crate follows the smoltcp design ethos: simple, robust, no unsafe,
//! no clever type machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod batch;
pub mod cast;
pub mod corr;
pub mod cplx;
pub mod db;
pub mod lfsr;
pub mod rng;
pub mod stats;
pub mod window;

pub use angle::{wrap_pi, AngleExt};
pub use batch::CplxBatch;
pub use cplx::Cplx;
pub use db::{db_to_linear, linear_to_db};
pub use lfsr::Lfsr;
pub use rng::DspRng;
pub use stats::{percentile, Cdf, RunningStats};
pub use window::{EnergyWindow, VarianceWindow};
