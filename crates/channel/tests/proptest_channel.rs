//! Property-based tests for the channel layer.
//!
//! The load-bearing property is Eq.-2 linearity: with noise off, the
//! medium is a linear operator over transmission sets, so the
//! superposition of two groups equals the sample-wise sum of each
//! group received alone. The engine's per-receiver reception windows
//! lean on this — splitting a slot's transmissions across windows can
//! never change what a receiver hears.

use anc_channel::{Awgn, ImpairmentSpec, Link, Medium, SpatialGrid, Transmission, TransmissionRef};
use anc_dsp::{Cplx, DspRng};
use proptest::prelude::*;

/// Builds a deterministic transmission from a compact description.
fn tx(seed: u64, len: usize, start: usize, gain: f64, phase: f64) -> Transmission {
    let mut rng = DspRng::seed_from(seed);
    let samples: Vec<Cplx> = (0..len)
        .map(|_| Cplx::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0)))
        .collect();
    Transmission::new(samples, start, Link::new(gain, phase, 0.0))
}

/// Reference superposition: every wave copied through [`Link::apply`],
/// the copies summed in slice order over `[0, duration)`, then one
/// `Awgn::sample` draw added per sample.
fn apply_and_sum(txs: &[Transmission], duration: usize, noise: &mut Awgn) -> Vec<Cplx> {
    let mut out = vec![Cplx::ZERO; duration];
    for t in txs {
        for (i, s) in t.link.apply(&t.samples).into_iter().enumerate() {
            if t.start + i < duration {
                out[t.start + i] += s;
            }
        }
    }
    for s in out.iter_mut() {
        *s += noise.sample();
    }
    out
}

/// Samples every range-mixing case covers: past the longest window.
const SPAN: usize = 240;

fn bits(z: Cplx) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

proptest! {
    /// In-place `receive_refs_into` is bit-identical to applying every
    /// link and summing the copies, for waves that start at or after
    /// the window's end, waves that overrun it, and a dirty output
    /// buffer.
    #[test]
    fn receive_refs_into_matches_apply_and_sum(
        seeds in proptest::collection::vec(0u64..10_000, 0..4),
        lens in proptest::collection::vec(0usize..96, 4..5),
        starts in proptest::collection::vec(0usize..128, 4..5),
        duration in 0usize..160,
        noisy in any::<bool>(),
        noise_seed in 0u64..1_000,
    ) {
        let txs: Vec<Transmission> = seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| {
                let phase = -3.0 + 1.7 * k as f64;
                tx(seed, lens[k], starts[k], 0.3 + 0.4 * k as f64, phase)
            })
            .collect();
        let power = if noisy { 1e-3 } else { 0.0 };
        let want = apply_and_sum(&txs, duration, &mut Awgn::from_rng(power, DspRng::seed_from(noise_seed)));
        let refs: Vec<TransmissionRef<'_>> = txs.iter().map(|t| t.as_ref()).collect();
        let mut got = vec![Cplx::new(f64::NAN, 7.0); 200];
        Medium::from_rng(power, DspRng::seed_from(noise_seed))
            .receive_refs_into(&refs, duration, &mut got);
        prop_assert_eq!(got.len(), duration);
        for t in 0..duration {
            prop_assert_eq!(bits(got[t]), bits(want[t]), "sample {} differs", t);
        }
    }

    /// Mixing a window in contiguous ranges reproduces the whole-window
    /// mix bit for bit: random boundaries, empty ranges, ranges that
    /// start at or past the end of every transmission, full-window
    /// stuck-carrier tones, a jammer seeking alongside the noise, and
    /// zero noise power. Each range gets a fresh medium on the window's
    /// noise stream, as the engine's chunk jobs do.
    #[test]
    fn range_mixing_matches_whole_window(
        seeds in proptest::collection::vec(0u64..10_000, 0..4),
        lens in proptest::collection::vec(0usize..96, 4..5),
        starts in proptest::collection::vec(0usize..128, 4..5),
        tones in 0usize..3,
        duration in 0usize..160,
        cuts in proptest::collection::vec(0usize..SPAN + 8, 0..6),
        noisy in any::<bool>(),
        jammed in any::<bool>(),
        noise_seed in 0u64..1_000,
    ) {
        let mut txs: Vec<Transmission> = seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| tx(seed, lens[k], starts[k], 0.3 + 0.4 * k as f64, 1.1 - k as f64))
            .collect();
        for k in 0..tones {
            let tone = vec![Cplx::from_polar(0.2 + k as f64, 0.5 * k as f64); duration];
            txs.push(Transmission::new(tone, 0, Link::new(0.8, -0.3 * k as f64, 0.0)));
        }
        let refs: Vec<TransmissionRef<'_>> = txs.iter().map(|t| t.as_ref()).collect();
        let power = if noisy { 1e-3 } else { 0.0 };
        let mix = |range: std::ops::Range<usize>| {
            let first = range.start;
            let mut out = vec![Cplx::new(f64::NAN, 3.0); 5];
            Medium::from_rng(power, DspRng::seed_from(noise_seed))
                .receive_range_into(refs.iter().copied(), range, &mut out);
            if jammed {
                Medium::inject_jammer(&mut out, first, 0.5, DspRng::seed_from(noise_seed ^ 0xA5));
            }
            out
        };
        // The whole window, and the same mix run past its end.
        let whole = mix(0..SPAN);
        let mut window = Vec::new();
        Medium::from_rng(power, DspRng::seed_from(noise_seed))
            .receive_refs_into(&refs, duration, &mut window);
        if jammed {
            Medium::inject_jammer(&mut window, 0, 0.5, DspRng::seed_from(noise_seed ^ 0xA5));
        }
        prop_assert_eq!(&window[..], &whole[..duration]);
        // Chunk boundaries at the sorted cuts; repeated cuts give empty
        // chunks and cuts past `SPAN` empty ranges beyond the window.
        let mut bounds = cuts.clone();
        bounds.push(0);
        bounds.push(SPAN);
        bounds.sort_unstable();
        let mut joined = Vec::new();
        for pair in bounds.windows(2) {
            let chunk = mix(pair[0]..pair[1]);
            prop_assert_eq!(chunk.len(), pair[1] - pair[0]);
            joined.extend(chunk);
        }
        prop_assert_eq!(joined.len(), bounds[bounds.len() - 1]);
        for t in 0..SPAN {
            prop_assert_eq!(bits(joined[t]), bits(whole[t]), "sample {} differs", t);
        }
    }

    /// receive(A ∪ B) == receive(A) + receive(B) with noise off.
    #[test]
    fn superposition_is_linear(
        seed_a in 0u64..1_000, seed_b in 1_000u64..2_000,
        len_a in 1usize..96, len_b in 1usize..96,
        start_a in 0usize..64, start_b in 0usize..64,
        gain_a in 0.05f64..2.0, gain_b in 0.05f64..2.0,
        phase_a in -3.1f64..3.1, phase_b in -3.1f64..3.1,
    ) {
        let a = tx(seed_a, len_a, start_a, gain_a, phase_a);
        let b = tx(seed_b, len_b, start_b, gain_b, phase_b);
        let duration = a.end().max(b.end()) + 8;
        let both = Medium::new(0.0, 0).receive(&[a.clone(), b.clone()], duration);
        let only_a = Medium::new(0.0, 0).receive(&[a], duration);
        let only_b = Medium::new(0.0, 0).receive(&[b], duration);
        prop_assert_eq!(both.len(), duration);
        for t in 0..duration {
            let sum = only_a[t] + only_b[t];
            // Starting each accumulator from Cplx::ZERO makes the split
            // and joint sums the same float expression, so this holds
            // bitwise, not just approximately.
            prop_assert_eq!(both[t], sum, "sample {} differs", t);
        }
    }

    /// receive_into is bit-identical to receive, including when the
    /// scratch buffer carries garbage from a previous longer window.
    #[test]
    fn receive_into_matches_receive(
        seed in 0u64..5_000,
        len in 1usize..128,
        start in 0usize..96,
        gain in 0.05f64..2.0,
        noise_seed in 0u64..1_000,
        stale_len in 0usize..256,
    ) {
        let t = tx(seed, len, start, gain, 0.7);
        let duration = t.end() + 16;
        let fresh = Medium::from_rng(1e-3, DspRng::seed_from(noise_seed))
            .receive(std::slice::from_ref(&t), duration);
        let mut scratch = vec![Cplx::new(9.0, -9.0); stale_len];
        Medium::from_rng(1e-3, DspRng::seed_from(noise_seed))
            .receive_into(&[t], duration, &mut scratch);
        prop_assert_eq!(scratch.len(), duration);
        for i in 0..duration {
            prop_assert_eq!(fresh[i], scratch[i]);
        }
    }

    /// The borrowed-transmission path (the engine's zero-copy RX loop)
    /// is bit-identical to the owned path.
    #[test]
    fn receive_refs_matches_owned(
        seed_a in 0u64..1_000, seed_b in 1_000u64..2_000,
        len_a in 1usize..96, len_b in 1usize..96,
        start_b in 0usize..64,
        noise_seed in 0u64..1_000,
    ) {
        let a = tx(seed_a, len_a, 0, 0.9, 0.4);
        let b = tx(seed_b, len_b, start_b, 0.7, -1.1);
        let duration = a.end().max(b.end()) + 8;
        let owned = Medium::from_rng(1e-3, DspRng::seed_from(noise_seed))
            .receive(&[a.clone(), b.clone()], duration);
        let refs = [
            TransmissionRef { samples: &a.samples, start: a.start, link: a.link },
            TransmissionRef { samples: &b.samples, start: b.start, link: b.link },
        ];
        let mut borrowed = Vec::new();
        Medium::from_rng(1e-3, DspRng::seed_from(noise_seed))
            .receive_refs_into(&refs, duration, &mut borrowed);
        prop_assert_eq!(owned.len(), borrowed.len());
        for i in 0..duration {
            prop_assert_eq!(owned[i], borrowed[i]);
        }
    }

    /// Impairment streams are deterministic per (seed, link, packet
    /// index) **regardless of realization order** — the Monte Carlo
    /// layer's load-bearing property. A set of realization coordinates
    /// evaluated forward, reversed, and interleaved with unrelated
    /// realizations must produce bit-identical links and TX
    /// perturbations.
    #[test]
    fn impairment_streams_are_order_independent(
        seed in 0u64..10_000,
        from in 0u64..32, to in 32u64..64,
        packets in proptest::collection::vec(0u64..10_000, 2usize..24),
        cfo_max in 0.0f64..0.1,
        jitter_max in 0.0f64..32.0,
        shuffle_salt in 0u64..1_000,
    ) {
        let spec = ImpairmentSpec::rayleigh_fading()
            .with_cfo(cfo_max)
            .with_jitter(jitter_max);
        let base = Link::new(0.85, 0.4, 0.0);
        // Forward order.
        let forward: Vec<(Link, _)> = packets
            .iter()
            .map(|&p| (
                spec.impair_link(base, seed, from, to, p),
                spec.tx_process(seed, from, p),
            ))
            .collect();
        // Reverse order, with unrelated realizations interleaved (other
        // links, other nodes, other seeds — none may perturb ours).
        let mut backward = Vec::new();
        for (i, &p) in packets.iter().enumerate().rev() {
            let noise_key = shuffle_salt.wrapping_add(i as u64);
            let _ = spec.impair_link(base, seed ^ 1, to, from, p ^ noise_key);
            let _ = spec.tx_process(seed.wrapping_add(noise_key), to, p);
            backward.push((
                spec.impair_link(base, seed, from, to, p),
                spec.tx_process(seed, from, p),
            ));
        }
        backward.reverse();
        for (f, b) in forward.iter().zip(&backward) {
            prop_assert_eq!(f.0.gain.to_bits(), b.0.gain.to_bits());
            prop_assert_eq!(f.0.phase.to_bits(), b.0.phase.to_bits());
            prop_assert_eq!(f.1.cfo.to_bits(), b.1.cfo.to_bits());
            prop_assert_eq!(
                f.1.jitter_samples.to_bits(),
                b.1.jitter_samples.to_bits()
            );
        }
    }

    /// A passive spec never perturbs the base link, and realized gains
    /// stay positive (Link's invariant) under fading.
    #[test]
    fn impairment_respects_link_invariants(
        seed in 0u64..10_000,
        gain in 0.05f64..2.0,
        phase in -3.1f64..3.1,
        packet in 0u64..100_000,
    ) {
        let base = Link::new(gain, phase, 0.0);
        let passive = ImpairmentSpec::default().impair_link(base, seed, 1, 2, packet);
        prop_assert_eq!(passive, base);
        let faded = ImpairmentSpec::rayleigh_fading().impair_link(base, seed, 1, 2, packet);
        prop_assert!(faded.gain > 0.0);
    }

    /// Incremental [`SpatialGrid::relocate`] is indistinguishable from
    /// a fresh build after an arbitrary move sequence. Two immobile
    /// corner anchors pin the bounding box so both grids share bucket
    /// geometry, making the raw candidate lists — ids *and* order —
    /// exactly comparable, not just the post-gate admitted sets. This
    /// is the mobility fast path's contract.
    #[test]
    fn relocate_matches_fresh_build(
        seed in 0u64..10_000,
        n in 2usize..60,
        radius in 2.0f64..15.0,
        movers in proptest::collection::vec(0usize..60, 1usize..80),
        xs in proptest::collection::vec(-40.0f64..140.0, 1usize..80),
        ys in proptest::collection::vec(-40.0f64..140.0, 1usize..80),
    ) {
        let mut rng = DspRng::seed_from(seed);
        let mut positions: Vec<(f64, f64)> = vec![(-50.0, -50.0), (150.0, 150.0)];
        positions.extend((0..n).map(|_| (rng.uniform() * 100.0, rng.uniform() * 100.0)));
        let mut grid = SpatialGrid::build(&positions, radius);
        let moves: Vec<(usize, f64, f64)> = movers
            .iter()
            .zip(&xs)
            .zip(&ys)
            .map(|((&i, &x), &y)| (i, x, y))
            .collect();
        for &(idx, nx, ny) in &moves {
            // Anchors never move; everyone else wanders inside the
            // anchored box so fresh builds keep the same bounds.
            let idx = 2 + idx % n;
            let old = positions[idx];
            positions[idx] = (nx, ny);
            grid.relocate(u32::try_from(idx).unwrap(), old, positions[idx]);
        }
        let fresh = SpatialGrid::build(&positions, radius);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut queries: Vec<(f64, f64)> = positions.clone();
        queries.push((-60.0, -60.0));
        queries.push((160.0, 160.0));
        for &q in &queries {
            grid.candidates_into(q, &mut got);
            fresh.candidates_into(q, &mut want);
            prop_assert_eq!(&got, &want, "query {:?} diverged", q);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "candidates stay ascending");
        }
    }

    /// Transmissions fully outside the window leave only noise, and the
    /// window length is always exactly `duration`.
    #[test]
    fn window_truncation(
        len in 1usize..64,
        start in 0usize..64,
        duration in 1usize..64,
    ) {
        let t = tx(1, len, start, 1.0, 0.0);
        let rx = Medium::new(0.0, 0).receive(&[t], duration);
        prop_assert_eq!(rx.len(), duration);
        for (i, s) in rx.iter().enumerate() {
            if i < start {
                prop_assert_eq!(*s, Cplx::ZERO);
            }
        }
    }
}
