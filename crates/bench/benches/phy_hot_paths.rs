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
use anc_dsp::{Cplx, DspRng};
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
    g.bench_function("demodulate_8k_bits", |b| {
        b.iter(|| black_box(modem.demodulate(black_box(&signal))))
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
                &mut err,
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
    // Bounds only: the two energy scans, without the variance pass.
    g.bench_function("locate_4k", |b| {
        b.iter(|| black_box(det.locate(black_box(&rx))))
    });
    let mut mask = Vec::new();
    g.bench_function("interference_mask_4k", |b| {
        b.iter(|| {
            det.interference_mask_into(black_box(&rx), &mut mask);
            black_box(mask.len())
        })
    });
    // The batch front-end splits energy extraction (lane-parallel)
    // from the bit-pinned variance walk over precomputed energies.
    let mut energies = Vec::new();
    g.bench_function("interference_mask_4k_batch", |b| {
        b.iter(|| {
            energies_into(black_box(&rx), &mut energies);
            det.interference_mask_from_energies(&energies, &mut mask);
            black_box(mask.len())
        })
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
    bench_medium,
    bench_lemma,
    bench_matcher,
    bench_amplitude,
    bench_detector
);
criterion_main!(benches);
