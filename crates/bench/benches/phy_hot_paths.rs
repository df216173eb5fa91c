//! Criterion micro-benchmarks of the PHY hot paths: modulation,
//! demodulation, superposition, detection, and the per-sample
//! Lemma-6.1 machinery the ANC decoder runs for every interfered symbol.

use anc_bench::fixtures::{fixture_detector, interfered_stream, FIXTURE_NOISE};
use anc_channel::{Link, Medium, TransmissionRef};
use anc_core::amplitude::estimate_amplitudes;
use anc_core::lemma::{solve_phases, LemmaKernel};
use anc_core::matcher::{
    match_bits_batch, match_bits_into, match_phase_differences, MatchBatchScratch,
};
use anc_dsp::batch::energies_into;
use anc_dsp::lfsr::{Lfsr, WHITEN_SEED};
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_modem::{Modem, MskModem};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_modulation(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(1);
    let bits = rng.bits(8192);
    let modem = MskModem::default();
    let mut g = c.benchmark_group("msk");
    g.throughput(Throughput::Elements(bits.len() as u64));
    g.bench_function("modulate_8k_bits", |b| {
        b.iter(|| black_box(modem.modulate(black_box(&bits))))
    });
    let signal = modem.modulate(&bits);
    g.bench_function("demodulate_8k", |b| {
        b.iter(|| black_box(modem.demodulate(black_box(&signal))))
    });
    g.finish();
}

/// The bit path of one paper-size (8192-bit payload) frame: the TX
/// serializer, the clean-RX parse, and the whitening scrambler alone.
fn bench_frame_bits(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(8);
    let cfg = FrameConfig::default();
    let frame = Frame::new(Header::new(1, 2, 3, 0), rng.bits(8192));
    let on_air = frame.to_bits(&cfg);
    let mut g = c.benchmark_group("frame");
    g.throughput(Throughput::Elements(on_air.len() as u64));
    g.bench_function("to_bits_8k", |b| {
        b.iter(|| black_box(black_box(&frame).to_bits(&cfg)))
    });
    g.bench_function("parse_lenient_8k", |b| {
        b.iter(|| black_box(Frame::parse_lenient(black_box(&on_air), &cfg)))
    });
    g.finish();
    let mut data = rng.bits(8192);
    let mut g = c.benchmark_group("lfsr");
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("whiten_8k", |b| {
        b.iter(|| {
            Lfsr::new(WHITEN_SEED).whiten(black_box(&mut data));
            black_box(data[0])
        })
    });
    g.finish();
}

fn bench_lemma(c: &mut Criterion) {
    let y = Cplx::new(0.7, -1.1);
    c.bench_function("lemma61_solve_phases", |b| {
        b.iter(|| black_box(solve_phases(black_box(y), 1.0, 0.8)))
    });
    let kernel = LemmaKernel::new(1.0, 0.8);
    c.bench_function("lemma61_candidate_vectors", |b| {
        b.iter(|| black_box(kernel.candidate_vectors(black_box(y))))
    });
}

fn bench_matcher(c: &mut Criterion) {
    let (rx, dtheta) = interfered_stream(4096, 2);
    let mut g = c.benchmark_group("matcher");
    g.throughput(Throughput::Elements(dtheta.len() as u64));
    g.bench_function("match_4k_symbols", |b| {
        b.iter(|| {
            black_box(match_phase_differences(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
            ))
        })
    });
    let mut err = Vec::new();
    let mut bits = Vec::new();
    g.bench_function("match_4k_symbols_fused", |b| {
        b.iter(|| {
            bits.clear();
            match_bits_into(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut err,
                &mut bits,
            );
            black_box(bits.len())
        })
    });
    // The SoA batch kernel (DESIGN.md §8): solve every interval's
    // candidate vectors up front in lane-parallel passes, then decide.
    let mut scratch = MatchBatchScratch::default();
    g.bench_function("match_4k_symbols_batch", |b| {
        b.iter(|| {
            bits.clear();
            match_bits_batch(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut scratch,
                &mut bits,
            );
            black_box(bits.len())
        })
    });
    g.finish();
}

fn bench_amplitude(c: &mut Criterion) {
    let (rx, _) = interfered_stream(4096, 3);
    c.bench_function("amplitude_estimate_4k", |b| {
        b.iter(|| black_box(estimate_amplitudes(black_box(&rx))))
    });
}

fn bench_detector(c: &mut Criterion) {
    let (mix, _) = interfered_stream(4096, 4);
    let mut rng = DspRng::seed_from(5);
    let mut rx: Vec<Cplx> = (0..256).map(|_| rng.complex_gaussian(1e-3)).collect();
    rx.extend(mix);
    rx.extend((0..256).map(|_| rng.complex_gaussian(1e-3)));
    let det = fixture_detector();
    let mut g = c.benchmark_group("detector");
    g.throughput(Throughput::Elements(rx.len() as u64));
    g.bench_function("detect_and_classify_4k", |b| {
        b.iter(|| black_box(det.detect(black_box(&rx))))
    });
    // Bounds only: the two energy scans, without the variance test.
    g.bench_function("locate_4k", |b| {
        b.iter(|| black_box(det.locate(black_box(&rx))))
    });
    // The full per-sample pass, kept as the span search's oracle.
    let mut mask = Vec::new();
    g.bench_function("interference_mask_4k", |b| {
        b.iter(|| {
            det.interference_mask_into(black_box(&rx), &mut mask);
            black_box(mask.len())
        })
    });
    // The decoder's search: the lane-parallel energy map, then only the
    // windows that decide the span's two ends.
    let mut energies = Vec::new();
    g.bench_function("interference_span_4k", |b| {
        b.iter(|| {
            energies_into(black_box(&rx), &mut energies);
            let from = det.config().window;
            black_box(det.interference_span(&energies, from, rx.len() - 256))
        })
    });
    // Paper-size receptions (an 8192-bit frame): the clean one runs the
    // variance test over its whole interior, the interfered one (a
    // second frame 1000 samples in) stops at the first firing window.
    let modem = MskModem::default();
    let a = modem.modulate(&rng.bits(8192));
    let b2 = modem.modulate(&rng.bits(8192));
    let noise = |rng: &mut DspRng, n: usize| -> Vec<Cplx> {
        (0..n)
            .map(|_| rng.complex_gaussian(FIXTURE_NOISE))
            .collect()
    };
    let mut clean = noise(&mut rng, 256);
    clean.extend(a.iter().map(|&s| s + rng.complex_gaussian(FIXTURE_NOISE)));
    clean.extend(noise(&mut rng, 256));
    let stagger = 1000;
    let mut interfered = noise(&mut rng, 256);
    interfered.extend((0..stagger + b2.len()).map(|i| {
        let mut s = rng.complex_gaussian(FIXTURE_NOISE);
        if i < a.len() {
            s += a[i];
        }
        if i >= stagger {
            s += b2[i - stagger].rotate(0.7);
        }
        s
    }));
    interfered.extend(noise(&mut rng, 256));
    g.throughput(Throughput::Elements(clean.len() as u64));
    g.bench_function("detect_clean_8k", |b| {
        b.iter(|| black_box(det.detect(black_box(&clean))))
    });
    g.throughput(Throughput::Elements(interfered.len() as u64));
    g.bench_function("detect_interfered_8k", |b| {
        b.iter(|| black_box(det.detect(black_box(&interfered))))
    });
    g.finish();
}

/// One city-sized receive window: a 562-sample frame plus 64 samples
/// of noise padding on each side, through one zero-delay link
/// (superposed in place) and AWGN.
fn bench_medium(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(6);
    let wave = MskModem::default().modulate(&rng.bits(561));
    let refs = [TransmissionRef {
        samples: &wave,
        start: 64,
        link: Link::new(0.6, rng.phase(), 0.0),
    }];
    let len = wave.len() + 128;
    let mut out = Vec::new();
    let mut g = c.benchmark_group("medium");
    g.throughput(Throughput::Elements(len as u64));
    g.bench_function("receive_refs_690", |b| {
        b.iter(|| {
            Medium::new(FIXTURE_NOISE, 7).receive_refs_into(black_box(&refs), len, &mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_modulation,
    bench_frame_bits,
    bench_medium,
    bench_lemma,
    bench_matcher,
    bench_amplitude,
    bench_detector
);
criterion_main!(benches);
