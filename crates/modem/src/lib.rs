//! # anc-modem — PSK modems for the ANC stack
//!
//! The paper (§4) chooses Minimum Shift Keying: *"MSK has very good
//! bit-error properties, has a simple demodulation algorithm and
//! excellent spectral efficiency."* §5 describes the scheme this crate
//! implements:
//!
//! * a **1** is a phase advance of `+π/2` over one symbol interval `T`;
//! * a **0** is a phase advance of `−π/2`;
//! * amplitude is constant — all information lives in the phase;
//! * demodulation computes `r = y[n+1]/y[n]` (Eq. 1) and maps
//!   `arg(r) ≥ 0 → 1`, `< 0 → 0`, which cancels both channel
//!   attenuation `h` and phase shift `γ` without estimating either.
//!
//! [`msk::MskModem`] generates the continuous-phase waveform at one
//! complex sample per symbol, the sample model of the paper's math, and
//! demodulates consecutive samples.
//! [`psk`] adds differential BPSK/QPSK modems — §4 argues the ANC
//! ideas apply to any phase-shift keying, and these let the decoder
//! demonstrate that claim. [`mod@ber`] holds the bit-error accounting
//! used throughout the evaluation (§11.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod msk;
pub mod psk;

pub use ber::{ber, count_bit_errors};
pub use msk::{MskConfig, MskModem};
pub use psk::{DbpskModem, DqpskModem};

use anc_dsp::Cplx;

/// A modulator/demodulator pair operating on bit slices.
///
/// All modems in this crate are *differential*: demodulation is
/// invariant to a constant channel attenuation and phase rotation, the
/// property §5.3 identifies as what makes MSK robust ("the receiver
/// does not need to accurately estimate the channel").
pub trait Modem {
    /// Modulates bits into complex baseband samples. The output carries
    /// one trailing sample beyond the final symbol so the last bit's
    /// phase transition is observable.
    fn modulate(&self, bits: &[bool]) -> Vec<Cplx>;

    /// Demodulates samples produced by [`Modem::modulate`] (possibly
    /// after channel attenuation/rotation/noise) back into bits.
    fn demodulate(&self, samples: &[Cplx]) -> Vec<bool>;

    /// Bits carried per symbol (1 for MSK/DBPSK, 2 for DQPSK).
    fn bits_per_symbol(&self) -> usize;

    /// Number of samples produced for `n_bits` input bits: one per
    /// symbol plus the trailing sample.
    fn sample_count(&self, n_bits: usize) -> usize {
        n_bits.div_ceil(self.bits_per_symbol()) + 1
    }
}
