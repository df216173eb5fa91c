//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! 1. **offset** — sub-symbol timing offset between the interfering
//!    senders: the paper's random delays are slot-granular, but real
//!    radios also land between sample instants; this sweeps the
//!    fractional offset and shows the ISI-like BER penalty.
//! 2. **window** — amplitude-estimation window size (Eqs. 5–6 average
//!    over N samples; small N → noisy Â, B̂ → matcher errors).
//! 3. **detect** — the interference detector's normalized-variance
//!    threshold: false-positive/negative rates on clean vs interfered
//!    receptions (§7.1's 20 dB heuristic, in our scale-free units).
//! 4. **subtract** — the §6 strawman: naive channel-estimate-and-
//!    subtract vs the phase-difference decoder under carrier offset.
//! 5. **backward** — forward (Alice) vs backward (Bob) decoding parity
//!    on identical mixtures (§7.4).
//! 6. **turnaround** — the per-slot scheduling/processing latency
//!    charged to scheduled transmissions (see `RunConfig`): sweeps it
//!    from zero and reports how the Alice-Bob gains move, quantifying
//!    how much of the paper's 1.70×/1.30× rides on per-transmission
//!    overheads that all schemes pay but ANC pays fewer times.
//!
//! ```text
//! cargo run --release -p anc-bench --bin ablations
//! ```

use anc_bench::from_env;
use anc_core::amplitude::estimate_amplitudes;
use anc_core::decoder::{AncDecoder, DecoderConfig};
use anc_core::detect::{DetectorConfig, SignalDetector};
use anc_core::matcher::match_phase_differences;
use anc_core::naive::naive_decode;
use anc_dsp::cast::floor_to_usize;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_modem::ber::ber;
use anc_modem::{Modem, MskModem};
use anc_sim::report::{ExperimentReport, FigureSeries};

const NOISE: f64 = 1e-3;

/// Delays a sample stream by `delay` samples (may be fractional),
/// producing `signal.len()` output samples. Samples before the start of
/// the input are zero.
///
/// §7.2: the senders' MAC-level shift is an integer number of samples,
/// which the channel models as a transmission's start; the residual
/// sub-sample offset is what the **offset** ablation sweeps. For an
/// integer delay this is a pure shift; for a fractional delay each
/// output sample linearly interpolates its two bracketing inputs —
/// adequate for MSK, whose phase trajectory is piecewise linear.
fn fractional_delay(signal: &[Cplx], delay: f64) -> Vec<Cplx> {
    assert!(delay >= 0.0, "delay must be non-negative");
    let n = signal.len();
    let mut out = vec![Cplx::ZERO; n];
    for (i, slot) in out.iter_mut().enumerate() {
        let t = i as f64 - delay;
        if t < 0.0 {
            continue;
        }
        // t >= 0 here, so the saturating floor conversion is exact.
        let k = floor_to_usize(t);
        let frac = t - k as f64;
        if k >= n {
            continue;
        }
        let a = signal[k];
        let b = if k + 1 < n { signal[k + 1] } else { Cplx::ZERO };
        *slot = a.scale(1.0 - frac) + b.scale(frac);
    }
    out
}

/// Two interfered MSK streams with channel rotations, relative CFO and
/// an optional fractional delay on the unknown sender.
#[allow(clippy::too_many_arguments)]
fn mixture(
    rng: &mut DspRng,
    known_bits: &[bool],
    unknown_bits: &[bool],
    lead: usize,
    frac_offset: f64,
    cfo: f64,
    noise: f64,
) -> Vec<Cplx> {
    let modem = MskModem::default();
    let sk = modem.modulate(known_bits);
    let mut su = modem.modulate(unknown_bits);
    if frac_offset > 0.0 {
        let mut padded = su.clone();
        padded.push(Cplx::ZERO);
        su = fractional_delay(&padded, frac_offset);
    }
    let gk = rng.phase();
    let gu = rng.phase();
    let span = lead + su.len();
    (0..span)
        .map(|t| {
            let mut s = rng.complex_gaussian(noise);
            if t < sk.len() {
                s += sk[t].rotate(gk);
            }
            if t >= lead {
                let k = t - lead;
                s += su[k].rotate(gu + cfo * k as f64);
            }
            s
        })
        .collect()
}

fn decoder() -> AncDecoder {
    AncDecoder::new(DecoderConfig {
        detector: DetectorConfig {
            noise_floor: NOISE,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Synthetic frame pair for decode-level ablations.
fn frame_pair(rng: &mut DspRng, payload: usize) -> (Vec<bool>, Frame, Vec<bool>) {
    let cfg = FrameConfig::default();
    let kf = Frame::new(Header::new(1, 2, 1, 0), rng.bits(payload));
    let uf = Frame::new(Header::new(2, 1, 1, 0), rng.bits(payload));
    let kb = kf.to_bits(&cfg);
    let ub = uf.to_bits(&cfg);
    (kb, uf, ub)
}

/// Wraps a mixture with noise padding so the detector sees a floor.
fn pad(rng: &mut DspRng, mix: Vec<Cplx>) -> Vec<Cplx> {
    let mut rx: Vec<Cplx> = (0..128).map(|_| rng.complex_gaussian(NOISE)).collect();
    rx.extend(mix);
    rx.extend((0..128).map(|_| rng.complex_gaussian(NOISE)));
    rx
}

fn decode_ber(dec: &AncDecoder, rx: &[Cplx], kb: &[bool], truth: &Frame) -> Option<f64> {
    let out = dec.decode_forward(rx, kb).ok()?;
    let (frame, _, _) = Frame::parse_lenient(&out.bits, &FrameConfig::default()).ok()?;
    (frame.header.key() == truth.header.key()).then(|| ber(&frame.payload, &truth.payload))
}

fn ablation_offset(rng: &mut DspRng, trials: usize) -> FigureSeries {
    let dec = decoder();
    let mut rows = Vec::new();
    for step in 0..=5 {
        let frac = step as f64 * 0.1;
        let mut bers = Vec::new();
        let mut losses = 0usize;
        for _ in 0..trials {
            let (kb, uf, ub) = frame_pair(rng, 1024);
            let mix = mixture(rng, &kb, &ub, 300, frac, 0.02, NOISE);
            let rx = pad(rng, mix);
            match decode_ber(&dec, &rx, &kb, &uf) {
                Some(b) => bers.push(b),
                None => losses += 1,
            }
        }
        let mean = if bers.is_empty() {
            f64::NAN
        } else {
            bers.iter().sum::<f64>() / bers.len() as f64
        };
        rows.push(vec![frac, mean, losses as f64 / trials as f64]);
    }
    FigureSeries::sweep(
        "ablation_offset",
        "fractional_sample_offset",
        &["mean_ber", "loss_rate"],
        rows,
    )
}

fn ablation_window(rng: &mut DspRng, trials: usize) -> FigureSeries {
    // Fully-overlapped mixtures; estimate amplitudes from the first N
    // samples only, then run the matcher with those estimates.
    let modem = MskModem::default();
    let mut rows = Vec::new();
    for n in [16usize, 32, 64, 128, 256, 512, 1024] {
        let mut errs = 0usize;
        let mut bits_total = 0usize;
        for _ in 0..trials {
            let a_bits = rng.bits(1500);
            let b_bits = rng.bits(1500);
            let mix = mixture(rng, &a_bits, &b_bits, 0, 0.0, 0.02, NOISE);
            let est = match estimate_amplitudes(&mix[..n.min(mix.len())]) {
                Some(e) => e,
                None => continue,
            };
            let (a, b) = est.assign(1.0);
            let dtheta = modem.phase_differences(&a_bits);
            let m = match_phase_differences(&mix, &dtheta, a.max(0.05), b.max(0.05));
            let decoded = m.bits();
            errs += decoded.iter().zip(&b_bits).filter(|(x, y)| x != y).count();
            bits_total += decoded.len().min(b_bits.len());
        }
        let mean_ber = if bits_total == 0 {
            f64::NAN
        } else {
            errs as f64 / bits_total as f64
        };
        rows.push(vec![n as f64, mean_ber]);
    }
    FigureSeries::sweep(
        "ablation_window",
        "estimation_window_samples",
        &["mean_ber"],
        rows,
    )
}

fn ablation_detect(rng: &mut DspRng, trials: usize) -> FigureSeries {
    let modem = MskModem::default();
    let mut rows = Vec::new();
    for &thr in &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let det = SignalDetector::new(DetectorConfig {
            variance_threshold: thr,
            noise_floor: NOISE,
            ..Default::default()
        });
        let mut false_pos = 0usize;
        let mut false_neg = 0usize;
        for _ in 0..trials {
            // Clean packet.
            let clean_mix = {
                let bits = rng.bits(800);
                let g = rng.phase();
                modem
                    .modulate(&bits)
                    .iter()
                    .map(|&s| s.rotate(g) + rng.complex_gaussian(NOISE))
                    .collect()
            };
            let clean = pad(rng, clean_mix);
            if det.detect(&clean).map(|c| c.interfered).unwrap_or(false) {
                false_pos += 1;
            }
            // Interfered packet (staggered overlap).
            let a = rng.bits(800);
            let b = rng.bits(800);
            let interfered_mix = mixture(rng, &a, &b, 200, 0.0, 0.02, NOISE);
            let mix = pad(rng, interfered_mix);
            if !det.detect(&mix).map(|c| c.interfered).unwrap_or(false) {
                false_neg += 1;
            }
        }
        rows.push(vec![
            thr,
            false_pos as f64 / trials as f64,
            false_neg as f64 / trials as f64,
        ]);
    }
    FigureSeries::sweep(
        "ablation_detect",
        "variance_threshold",
        &["false_positive_rate", "false_negative_rate"],
        rows,
    )
}

fn ablation_subtract(rng: &mut DspRng, trials: usize) -> FigureSeries {
    // Naive subtraction vs phase-difference decoding as the carrier
    // offset (channel drift) grows — §6's robustness argument.
    let modem = MskModem::default();
    let dec = decoder();
    let mut rows = Vec::new();
    for &cfo in &[0.0, 0.005, 0.01, 0.02, 0.04] {
        let mut naive_bers = Vec::new();
        let mut anc_bers = Vec::new();
        for _ in 0..trials {
            let (kb, uf, ub) = frame_pair(rng, 1024);
            // The *known* sender drifts: its channel estimate from the
            // clean prefix goes stale, which is what breaks subtraction.
            let sk = modem.modulate(&kb);
            let su = modem.modulate(&ub);
            let gk = rng.phase();
            let gu = rng.phase();
            let lead = 300;
            let span = lead + su.len();
            let mix: Vec<Cplx> = (0..span)
                .map(|t| {
                    let mut s = rng.complex_gaussian(NOISE);
                    if t < sk.len() {
                        s += sk[t].rotate(gk + cfo * t as f64);
                    }
                    if t >= lead {
                        s += su[t - lead].rotate(gu);
                    }
                    s
                })
                .collect();
            // Naive path: align is exact (mix[0] = known waveform start).
            if let Some(bits) = naive_decode(&mix, &sk, 250) {
                if let Ok((frame, _, _)) = Frame::parse_lenient(&bits, &FrameConfig::default()) {
                    if frame.header.key() == uf.header.key() {
                        naive_bers.push(ber(&frame.payload, &uf.payload));
                    } else {
                        naive_bers.push(0.5);
                    }
                } else {
                    naive_bers.push(0.5); // undecodable ≈ coin-flip bits
                }
            }
            // ANC path.
            let rx = pad(rng, mix);
            match decode_ber(&dec, &rx, &kb, &uf) {
                Some(b) => anc_bers.push(b),
                None => anc_bers.push(0.5),
            }
        }
        let m = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.push(vec![cfo, m(&naive_bers), m(&anc_bers)]);
    }
    FigureSeries::sweep(
        "ablation_subtract",
        "known_sender_cfo_rad_per_sample",
        &["naive_subtraction_ber", "anc_decoder_ber"],
        rows,
    )
}

fn ablation_backward(rng: &mut DspRng, trials: usize) -> FigureSeries {
    // Same mixtures decoded forward (known first) and backward (known
    // second): the two paths should perform on par (§7.4).
    let dec = decoder();
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for _ in 0..trials {
        let (kb, uf, ub) = frame_pair(rng, 1024);
        // Forward: known starts first.
        let mix = mixture(rng, &kb, &ub, 300, 0.0, 0.02, NOISE);
        let rx = pad(rng, mix);
        if let Some(b) = decode_ber(&dec, &rx, &kb, &uf) {
            fwd.push(b);
        }
        // Backward: unknown starts first, decode from the tail.
        let mix = mixture(rng, &ub, &kb, 300, 0.0, 0.02, NOISE);
        let rx = pad(rng, mix);
        if let Ok(out) = dec.decode_backward(&rx, &kb) {
            if let Ok((frame, _, _)) = Frame::parse_lenient(&out.bits, &FrameConfig::default()) {
                if frame.header.key() == uf.header.key() {
                    bwd.push(ber(&frame.payload, &uf.payload));
                }
            }
        }
    }
    let m = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    FigureSeries::sweep(
        "ablation_backward",
        "direction",
        &["mean_ber", "decoded_packets"],
        vec![
            vec![0.0, m(&fwd), fwd.len() as f64],
            vec![1.0, m(&bwd), bwd.len() as f64],
        ],
    )
}

fn ablation_turnaround(seed: u64, packets: usize) -> FigureSeries {
    use anc_netcode::Scheme;
    use anc_sim::metrics::gain;
    use anc_sim::runs::{run_alice_bob, RunConfig};
    let mut rows = Vec::new();
    for &tau in &[0usize, 96, 192, 288, 480] {
        let cfg = RunConfig {
            seed,
            packets_per_flow: packets.clamp(10, 60),
            turnaround_bits: tau,
            ..Default::default()
        };
        let anc = run_alice_bob(Scheme::Anc, &cfg);
        let trad = run_alice_bob(Scheme::Traditional, &cfg);
        let cope = run_alice_bob(Scheme::Cope, &cfg);
        rows.push(vec![tau as f64, gain(&anc, &trad), gain(&anc, &cope)]);
    }
    FigureSeries::sweep(
        "ablation_turnaround",
        "turnaround_bits",
        &["gain_over_traditional", "gain_over_cope"],
        rows,
    )
}

fn main() {
    let args = from_env();
    let trials = (args.packets / 25).clamp(8, 200);
    let mut rng = DspRng::seed_from(args.seed);

    let mut report = ExperimentReport::new("design_ablations");
    report.param("trials_per_point", trials as f64);
    eprintln!("[1/6] fractional offset ...");
    report.push_series(ablation_offset(&mut rng, trials));
    eprintln!("[2/6] estimation window ...");
    report.push_series(ablation_window(&mut rng, trials));
    eprintln!("[3/6] detection threshold ...");
    report.push_series(ablation_detect(&mut rng, trials));
    eprintln!("[4/6] naive subtraction ...");
    report.push_series(ablation_subtract(&mut rng, trials));
    eprintln!("[5/6] backward parity ...");
    report.push_series(ablation_backward(&mut rng, trials));
    eprintln!("[6/6] turnaround sweep ...");
    report.push_series(ablation_turnaround(args.seed, args.packets / 20));
    anc_bench::emit(&report, &args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n).map(|i| Cplx::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn integer_delay_is_shift() {
        let sig = ramp(6);
        let d = fractional_delay(&sig, 2.0);
        assert_eq!(d[0], Cplx::ZERO);
        assert_eq!(d[1], Cplx::ZERO);
        assert_eq!(d[2], Cplx::new(0.0, 0.0));
        assert_eq!(d[5], Cplx::new(3.0, 0.0));
    }

    #[test]
    fn zero_delay_is_identity() {
        let sig = ramp(5);
        assert_eq!(fractional_delay(&sig, 0.0), sig);
    }

    proptest! {
        /// fractional_delay(0) is the identity.
        #[test]
        fn resample_identities(n in 1usize..100, seed in any::<u64>()) {
            let mut rng = DspRng::seed_from(seed);
            let sig: Vec<Cplx> = (0..n).map(|_| rng.complex_gaussian(1.0)).collect();
            prop_assert_eq!(fractional_delay(&sig, 0.0), sig);
        }

        /// Integer fractional_delay shifts exactly.
        #[test]
        fn integer_delay_is_exact_shift(n in 4usize..64, d in 1usize..4) {
            let sig: Vec<Cplx> = (0..n).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
            let out = fractional_delay(&sig, d as f64);
            for i in d..n {
                prop_assert!((out[i] - sig[i - d]).norm() < 1e-9);
            }
            for s in out.iter().take(d) {
                prop_assert_eq!(*s, Cplx::ZERO);
            }
        }
    }

    #[test]
    fn half_sample_delay_interpolates() {
        let sig = ramp(5);
        let d = fractional_delay(&sig, 0.5);
        // output[1] samples input at t = 0.5 -> (0 + 1)/2
        assert!((d[1].re - 0.5).abs() < 1e-12);
        assert!((d[3].re - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fractional_delay_preserves_linear_phase_ramp() {
        // MSK's phase ramps linearly; a delayed version must still ramp
        // at the same rate (sampled between grid points the interpolation
        // of a complex exponential is not exact, but for small phase
        // steps the error is second-order).
        let step = 0.1_f64;
        let sig: Vec<Cplx> = (0..100).map(|n| Cplx::cis(n as f64 * step)).collect();
        let d = fractional_delay(&sig, 0.25);
        for n in 2..99 {
            let dphi = (d[n + 1] / d[n]).arg();
            assert!((dphi - step).abs() < 1e-3, "n={n} dphi={dphi}");
        }
    }

    #[test]
    #[should_panic]
    fn negative_delay_panics() {
        let _ = fractional_delay(&ramp(3), -1.0);
    }

    #[test]
    fn delay_longer_than_signal_yields_zeros() {
        let sig = ramp(4);
        let d = fractional_delay(&sig, 10.0);
        assert!(d.iter().all(|&s| s == Cplx::ZERO));
    }
}
