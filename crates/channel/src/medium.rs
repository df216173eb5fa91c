//! Signal superposition at a receiver.
//!
//! §2: *"collision of two packets means that the channel adds their
//! physical signals after applying attenuations and time shifts"*. A
//! [`Medium`] computes exactly that sum for one receiver: each
//! [`Transmission`] is rotated and scaled by its [`Link`], placed at
//! its start time, summed sample-wise with every other transmission,
//! and topped with the receiver's AWGN.
//!
//! Every output sample is a pure function of its index (Eq. 2 is a
//! per-sample sum, and the noise stream seeks by sample,
//! [`Awgn::skip`]), so [`Medium::receive_range_into`] can produce any
//! contiguous range of a window on its own, bit for bit equal to that
//! stretch of the whole window.

use crate::awgn::Awgn;
use crate::link::Link;
use anc_dsp::{Cplx, DspRng};
use std::ops::Range;

/// One transmission as seen by a receiver: the transmitted waveform,
/// the moment (in receiver sample time) its first sample arrives, and
/// the link it traversed.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// The transmitted baseband waveform.
    pub samples: Vec<Cplx>,
    /// Receiver-clock sample index at which the waveform begins
    /// (MAC-level staggering, §7.2).
    pub start: usize,
    /// The propagation path from the sender to this receiver.
    pub link: Link,
}

impl Transmission {
    /// Convenience constructor.
    pub fn new(samples: Vec<Cplx>, start: usize, link: Link) -> Self {
        Transmission {
            samples,
            start,
            link,
        }
    }

    /// Last receiver-clock sample index this transmission touches
    /// (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.samples.len()
    }

    /// A borrowed view of this transmission.
    pub fn as_ref(&self) -> TransmissionRef<'_> {
        TransmissionRef {
            samples: &self.samples,
            start: self.start,
            link: self.link,
        }
    }
}

/// A [`Transmission`] that borrows its waveform. One slot's waveform
/// reaches several receivers; borrowing lets each receiver's window be
/// built without copying the samples (the engine's RX stage lends the
/// same `ScheduledTx` waves to every receiver in range).
#[derive(Debug, Clone, Copy)]
pub struct TransmissionRef<'a> {
    /// The transmitted baseband waveform.
    pub samples: &'a [Cplx],
    /// Receiver-clock sample index at which the waveform begins.
    pub start: usize,
    /// The propagation path from the sender to this receiver.
    pub link: Link,
}

/// A receiver-side channel mixer with its own noise source. The noise
/// stream's position is the window's sample 0: each call mixes one
/// window, or one range of it.
#[derive(Debug, Clone)]
pub struct Medium {
    noise: Awgn,
}

impl Medium {
    /// Creates a medium whose receiver sees AWGN of `noise_power`.
    pub fn new(noise_power: f64, seed: u64) -> Self {
        Medium {
            noise: Awgn::new(noise_power, seed),
        }
    }

    /// Creates a medium drawing noise from a forked RNG.
    pub fn from_rng(noise_power: f64, rng: DspRng) -> Self {
        Medium {
            noise: Awgn::from_rng(noise_power, rng),
        }
    }

    /// The configured noise power at this receiver.
    pub fn noise_power(&self) -> f64 {
        self.noise.power()
    }

    /// Superposes all transmissions and adds noise, producing the
    /// receiver's view over `[0, duration)` samples.
    ///
    /// Equation 2 of the paper, generalized to any number of senders and
    /// arbitrary staggering: samples outside every transmission contain
    /// pure noise (the inter-packet noise floor §7.1 detects against).
    pub fn receive(&mut self, transmissions: &[Transmission], duration: usize) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.receive_into(transmissions, duration, &mut out);
        out
    }

    /// [`Self::receive`] into caller-owned scratch: `out` is cleared,
    /// resized to `duration`, and filled with the superposition plus
    /// noise. Reusing one buffer per receiver makes per-slot receptions
    /// stop allocating once it has grown to window size.
    pub fn receive_into(
        &mut self,
        transmissions: &[Transmission],
        duration: usize,
        out: &mut Vec<Cplx>,
    ) {
        self.receive_range_into(
            transmissions.iter().map(Transmission::as_ref),
            0..duration,
            out,
        );
    }

    /// [`Self::receive_into`] over borrowed transmissions — the
    /// zero-copy entry point for callers that fan one waveform out to
    /// many receivers: the whole window `0..duration` of
    /// [`Self::receive_range_into`].
    pub fn receive_refs_into(
        &mut self,
        transmissions: &[TransmissionRef<'_>],
        duration: usize,
        out: &mut Vec<Cplx>,
    ) {
        self.receive_range_into(transmissions.iter().copied(), 0..duration, out);
    }

    /// The mixer: samples `range` of the receiver's window. `out` is
    /// cleared and resized to `range.len()`; its sample `k` is window
    /// sample `range.start + k`, bit for bit what a whole-window mix
    /// puts there. Per sample, the transmissions are summed in the
    /// order given (each `s * h·e^{iγ}`, accumulated in place), then the
    /// noise is added; the noise stream first skips the samples before
    /// `range.start` ([`Awgn::skip`]) and is left after `range.end`.
    pub fn receive_range_into<'a>(
        &mut self,
        transmissions: impl IntoIterator<Item = TransmissionRef<'a>>,
        range: Range<usize>,
        out: &mut Vec<Cplx>,
    ) {
        let first = range.start;
        out.clear();
        out.resize(range.len(), Cplx::ZERO);
        for tx in transmissions {
            let lo = tx.start.max(first);
            let hi = (tx.start + tx.samples.len()).min(range.end);
            if lo >= hi {
                continue; // outside the range
            }
            let coeff = tx.link.coefficient();
            let src = &tx.samples[lo - tx.start..hi - tx.start];
            for (o, &s) in out[lo - first..hi - first].iter_mut().zip(src) {
                *o += s * coeff;
            }
        }
        self.noise.skip(first);
        self.noise.add_to(out);
    }

    /// Injects wideband jammer energy into a mixed stretch of a receive
    /// window whose first sample is window sample `first`: complex
    /// Gaussian noise of `power` drawn from a caller-owned stream is
    /// added sample-wise on top of the superposition, the stream
    /// seeking to `first` as the medium's own noise does. The fault
    /// layer keys the stream by `(receiver, period)` so jammer bursts
    /// are coordinate-pure and never perturb the receiver's own forked
    /// noise sequence — jammer-off windows are bit-identical to a
    /// jammer-free run.
    pub fn inject_jammer(window: &mut [Cplx], first: usize, power: f64, rng: DspRng) {
        let mut jammer = Awgn::from_rng(power, rng);
        jammer.skip(first);
        jammer.add_to(window);
    }

    /// Duration that covers all transmissions plus `tail` trailing noise
    /// samples.
    pub fn span(transmissions: &[Transmission], tail: usize) -> usize {
        transmissions.iter().map(|t| t.end()).max().unwrap_or(0) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_modem::{Modem, MskModem};

    #[test]
    fn single_transmission_noise_free() {
        let sig = vec![Cplx::ONE, Cplx::I];
        let mut m = Medium::new(0.0, 0);
        let rx = m.receive(&[Transmission::new(sig.clone(), 2, Link::ideal())], 6);
        assert_eq!(rx[0], Cplx::ZERO);
        assert_eq!(rx[1], Cplx::ZERO);
        assert_eq!(rx[2], Cplx::ONE);
        assert_eq!(rx[3], Cplx::I);
        assert_eq!(rx[4], Cplx::ZERO);
    }

    #[test]
    fn two_transmissions_superpose() {
        // Eq. 2: y[n] = A·e^{iθ[n]} + B·e^{iφ[n]}.
        let a = vec![Cplx::ONE; 4];
        let b = vec![Cplx::I; 4];
        let mut m = Medium::new(0.0, 0);
        let rx = m.receive(
            &[
                Transmission::new(a, 0, Link::ideal()),
                Transmission::new(b, 2, Link::ideal()),
            ],
            8,
        );
        assert_eq!(rx[0], Cplx::ONE);
        assert_eq!(rx[2], Cplx::new(1.0, 1.0)); // overlap region
        assert_eq!(rx[3], Cplx::new(1.0, 1.0));
        assert_eq!(rx[4], Cplx::I); // only B remains
        assert_eq!(rx[6], Cplx::ZERO);
    }

    #[test]
    fn link_gain_scales_contribution() {
        let mut m = Medium::new(0.0, 0);
        let rx = m.receive(
            &[Transmission::new(
                vec![Cplx::ONE],
                0,
                Link::new(0.5, 0.0, 0.0),
            )],
            1,
        );
        assert!((rx[0].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duration_truncates() {
        let mut m = Medium::new(0.0, 0);
        let rx = m.receive(
            &[Transmission::new(vec![Cplx::ONE; 10], 5, Link::ideal())],
            8,
        );
        assert_eq!(rx.len(), 8);
        assert_eq!(rx[7], Cplx::ONE);
    }

    #[test]
    fn span_covers_all() {
        let txs = [
            Transmission::new(vec![Cplx::ONE; 10], 0, Link::ideal()),
            Transmission::new(vec![Cplx::ONE; 10], 7, Link::new(0.5, 1.0, 0.0)),
        ];
        assert_eq!(Medium::span(&txs, 3), 7 + 10 + 3);
        assert_eq!(Medium::span(&[], 5), 5);
    }

    #[test]
    fn jammer_injection_adds_energy_on_top() {
        let mut m = Medium::new(0.0, 0);
        let mut rx = m.receive(
            &[Transmission::new(vec![Cplx::ONE; 4096], 0, Link::ideal())],
            4096,
        );
        let clean = Cplx::mean_energy(&rx);
        Medium::inject_jammer(&mut rx, 0, 0.5, DspRng::seed_from(42));
        let jammed = Cplx::mean_energy(&rx);
        assert!(
            (jammed - clean - 0.5).abs() < 0.05,
            "jammer should add ~0.5 power, got {}",
            jammed - clean
        );
        // Zero power is the identity.
        let before = rx.clone();
        Medium::inject_jammer(&mut rx, 0, 0.0, DspRng::seed_from(42));
        assert_eq!(rx, before);
    }

    #[test]
    fn noise_fills_quiet_regions() {
        let mut m = Medium::new(0.1, 9);
        let rx = m.receive(&[], 10_000);
        let p = Cplx::mean_energy(&rx);
        assert!((p - 0.1).abs() < 0.01, "noise floor {p}");
    }

    #[test]
    fn interference_free_ends_enable_standard_decode() {
        // §7.2's key structural property: with staggered starts, the head
        // of the first packet and the tail of the second are clean. MSK
        // demod on the clean head must match the first packet's bits.
        let modem = MskModem::default();
        let bits_a = vec![true, false, true, true, false, true, false, false];
        let bits_b = vec![false, false, true, false, true, true, true, false];
        let sig_a = modem.modulate(&bits_a);
        let sig_b = modem.modulate(&bits_b);
        let stagger = 4; // Bob starts 4 samples after Alice
        let mut m = Medium::new(0.0, 0);
        let rx = m.receive(
            &[
                Transmission::new(sig_a, 0, Link::ideal()),
                Transmission::new(sig_b, stagger, Link::ideal()),
            ],
            24,
        );
        // First `stagger` symbol transitions of Alice are interference
        // free: samples 0..=stagger only contain Alice's signal.
        let head = modem.demodulate(&rx[..=stagger]);
        assert_eq!(&head[..], &bits_a[..stagger]);
    }
}
