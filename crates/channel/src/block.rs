//! The Eq.-2 superposition of one reception window as a pure job.
//!
//! The engine resolves everything stateful about a reception window
//! (audibility, link impairments, the forked noise stream, jammer
//! bursts) in intent order and ships the result as a [`WindowJob`];
//! the receiving node's block then runs [`mix_window`] — the expensive
//! per-sample part — wherever the scheduler runs it. Waves arrive as
//! `Arc<Vec<Cplx>>` because one slot's transmission fans out to every
//! receiver in range.

use crate::link::Link;
use crate::medium::{Medium, TransmissionRef};
use anc_dsp::{Cplx, DspRng};
use std::sync::Arc;

/// One fully resolved reception window for the superposition stage.
/// All RNG forks already happened on the engine side; mixing this job
/// is a pure function of its fields.
#[derive(Debug, Clone)]
pub struct WindowJob {
    /// Window length in samples.
    pub duration: usize,
    /// Receiver noise power.
    pub noise_power: f64,
    /// The receiver's forked noise stream for this window.
    pub noise: DspRng,
    /// Audible transmissions: shared waveform, start sample, resolved
    /// link (impairments and fault gains already folded in). Summed in
    /// slice order — the engine lists them in fired order.
    pub transmissions: Vec<(Arc<Vec<Cplx>>, usize, Link)>,
    /// Fault-injected stuck-carrier tones, superposed after the real
    /// transmissions, each starting at sample 0.
    pub tones: Vec<(Vec<Cplx>, Link)>,
    /// Optional jammer burst: power and its coordinate-keyed stream,
    /// injected on top of the finished mixture.
    pub jammer: Option<(f64, DspRng)>,
}

/// Mixes one job into `window`: [`Medium::receive_refs_into`] over the
/// transmissions then the tones, plus [`Medium::inject_jammer`] when a
/// jammer burst is set.
pub fn mix_window(job: WindowJob, window: &mut Vec<Cplx>) {
    let WindowJob {
        duration,
        noise_power,
        noise,
        transmissions,
        tones,
        jammer,
    } = job;
    let mut refs: Vec<TransmissionRef<'_>> = Vec::with_capacity(transmissions.len() + tones.len());
    for (wave, start, link) in &transmissions {
        refs.push(TransmissionRef {
            samples: wave,
            start: *start,
            link: *link,
        });
    }
    for (tone, link) in &tones {
        refs.push(TransmissionRef {
            samples: tone,
            start: 0,
            link: *link,
        });
    }
    Medium::from_rng(noise_power, noise).receive_refs_into(&refs, duration, window);
    if let Some((power, rng)) = jammer {
        Medium::inject_jammer(window, power, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, seed: u64) -> Vec<Cplx> {
        let mut rng = DspRng::seed_from(seed);
        (0..n).map(|_| Cplx::from_polar(1.0, rng.phase())).collect()
    }

    #[test]
    fn block_matches_inline_medium_path() {
        // mix_window must reproduce Medium::receive_refs_into (+ the
        // jammer) bit for bit: same summation order, same noise
        // stream, whatever the reused buffer held before.
        let w0 = Arc::new(wave(40, 1));
        let w1 = Arc::new(wave(32, 2));
        let tone = wave(64, 3);
        let links = [
            Link::new(0.9, 0.3, 0.0),
            Link::new(0.7, 1.1, 0.0),
            Link::new(0.5, 0.0, 0.0),
        ];
        let duration = 64usize;
        let noise_power = 1e-3;
        let mut rng = DspRng::seed_from(99);
        let noise = rng.fork(0);
        let jam = rng.fork(1);

        let mut expect = Vec::new();
        let refs = [
            TransmissionRef {
                samples: &w0,
                start: 4,
                link: links[0],
            },
            TransmissionRef {
                samples: &w1,
                start: 10,
                link: links[1],
            },
            TransmissionRef {
                samples: &tone,
                start: 0,
                link: links[2],
            },
        ];
        Medium::from_rng(noise_power, noise.clone()).receive_refs_into(
            &refs,
            duration,
            &mut expect,
        );
        Medium::inject_jammer(&mut expect, 0.25, jam.clone());

        let mut got = vec![Cplx::ONE; 2 * duration];
        mix_window(
            WindowJob {
                duration,
                noise_power,
                noise,
                transmissions: vec![(w0, 4, links[0]), (w1, 10, links[1])],
                tones: vec![(tone, links[2])],
                jammer: Some((0.25, jam)),
            },
            &mut got,
        );
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(&expect) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
