//! # anc-channel — the wireless channel simulator
//!
//! The paper's channel model (§5.3, §6, Appendix C): a transmitted
//! sample `A_s·e^{iθ_s[n]}` arrives as `h·A_s·e^{i(θ_s[n]+γ)}` plus
//! additive white Gaussian noise; interfering transmissions superpose
//! (`y = y_A + y_B`, Eq. 2); senders are not synchronized, so each
//! waveform arrives with its own time shift (§7.2).
//!
//! This crate is the substitution for the paper's USRP front ends and
//! over-the-air channel (see DESIGN.md §4): it implements exactly the
//! model the paper's own analysis assumes, so the decoder faces the same
//! mathematical problem it faced in the testbed.
//!
//! * [`link::Link`] — one directed propagation path: gain `h`, phase
//!   `γ`, (fractional) delay.
//! * [`awgn::Awgn`] — complex white Gaussian noise of configured power.
//! * [`medium::Medium`] — superposes any number of staggered
//!   transmissions at a receiver and adds its noise.
//! * [`relay::AmplifyForward`] — the §7.5 router operation, with the
//!   power-normalizing gain of Appendix C.
//! * [`fault`] — optional impairments (CFO, Rayleigh block fading,
//!   clipping) for robustness testing, in the spirit of smoltcp's fault
//!   injection options.
//! * [`impairment`] — serializable time-varying channel *processes*
//!   ([`impairment::ImpairmentSpec`]): per-packet channel re-draws,
//!   Rayleigh block fading, CFO walks, timing jitter — realized per
//!   exchange by the simulation engine from order-independent RNG
//!   streams (the Monte Carlo layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awgn;
pub mod fault;
pub mod impairment;
pub mod link;
pub mod medium;
pub mod relay;
pub mod spatial;

pub use awgn::Awgn;
pub use impairment::{ImpairmentSpec, TxImpairment};
pub use link::Link;
pub use medium::{Medium, Transmission, TransmissionRef};
pub use relay::AmplifyForward;
pub use spatial::{within_range, NodeMask, SpatialGrid};

use anc_dsp::Cplx;

/// Measures the mean power `E[|y|²]` of a sample slice (0 when empty).
pub fn mean_power(samples: &[Cplx]) -> f64 {
    Cplx::mean_energy(samples)
}

/// Empirical SNR in dB of a received stream given a noise-only
/// reference power. Useful in tests to confirm a channel realizes its
/// configured SNR.
pub fn empirical_snr_db(received_power: f64, noise_power: f64) -> f64 {
    anc_dsp::linear_to_db((received_power - noise_power).max(f64::MIN_POSITIVE) / noise_power)
}
