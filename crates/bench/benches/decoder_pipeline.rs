//! Criterion benchmarks of the full Alg.-1 interference decode — the
//! per-packet cost an ANC receiver pays — forward and backward, at two
//! frame sizes, with and without scratch reuse, plus the
//! detect→lemma→matcher composite, batched versus the scalar oracle
//! (`BENCH_decoder_pipeline.json` tracks it; fixtures live in
//! `anc_bench::fixtures`).

use anc_bench::fixtures::{
    decode_fixture, fixture_decoder, fixture_detector, interfered_stream, FIXTURE_NOISE,
};
use anc_core::decoder::DecoderScratch;
use anc_core::detect::mask_span;
use anc_core::matcher::{match_bits_batch, match_bits_into, MatchBatchScratch};
use anc_dsp::batch::energies_into;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_modem::{Modem, MskModem};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_forward(c: &mut Criterion) {
    let dec = fixture_decoder();
    let mut g = c.benchmark_group("anc_decode_forward");
    for payload in [1024usize, 4096] {
        let f = decode_fixture(payload, true, 10 + payload as u64);
        g.throughput(Throughput::Elements(payload as u64));
        g.bench_with_input(BenchmarkId::from_parameter(payload), &f, |b, f| {
            b.iter(|| black_box(dec.decode_forward(black_box(&f.rx), black_box(&f.known_bits))))
        });
        let mut scratch = DecoderScratch::default();
        g.bench_with_input(BenchmarkId::new("scratch", payload), &f, |b, f| {
            b.iter(|| {
                black_box(dec.decode_forward_with(
                    black_box(&f.rx),
                    black_box(&f.known_bits),
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

fn bench_backward(c: &mut Criterion) {
    let dec = fixture_decoder();
    let mut g = c.benchmark_group("anc_decode_backward");
    for payload in [1024usize, 4096] {
        let f = decode_fixture(payload, false, 20 + payload as u64);
        g.throughput(Throughput::Elements(payload as u64));
        g.bench_with_input(BenchmarkId::from_parameter(payload), &f, |b, f| {
            b.iter(|| black_box(dec.decode_backward(black_box(&f.rx), black_box(&f.known_bits))))
        });
        let mut scratch = DecoderScratch::default();
        g.bench_with_input(BenchmarkId::new("scratch", payload), &f, |b, f| {
            b.iter(|| {
                black_box(dec.decode_backward_with(
                    black_box(&f.rx),
                    black_box(&f.known_bits),
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

fn bench_clean(c: &mut Criterion) {
    // Baseline cost: a clean (non-interfered) detection + demod.
    let mut rng = DspRng::seed_from(30);
    let cfg = FrameConfig::default();
    let modem = MskModem::default();
    let f = Frame::new(Header::new(1, 2, 1, 0), rng.bits(4096));
    let wave = modem.modulate(&f.to_bits(&cfg));
    let g0 = rng.phase();
    let mut rx: Vec<Cplx> = (0..128)
        .map(|_| rng.complex_gaussian(FIXTURE_NOISE))
        .collect();
    rx.extend(
        wave.iter()
            .map(|&s| s.rotate(g0) + rng.complex_gaussian(FIXTURE_NOISE)),
    );
    rx.extend((0..128).map(|_| rng.complex_gaussian(FIXTURE_NOISE)));
    let dec = fixture_decoder();
    c.bench_function("clean_decode_4096", |b| {
        b.iter(|| black_box(dec.decode_clean(black_box(&rx))))
    });
}

/// The §7.1→§6.3 per-packet hot chain (interference detect → Lemma 6.1
/// → matcher → bits) at paper scale, the scalar oracle versus the
/// batched struct-of-arrays path. Throughput is in samples through the
/// chain.
fn bench_pipeline(c: &mut Criterion) {
    let n = 4096usize;
    let (rx, dtheta) = interfered_stream(n, 40);
    let det = fixture_detector();
    // The decoder's span range for a known frame that starts the stream.
    let (from, to) = (det.config().window, n - 1);
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(rx.len() as u64));
    let mut mask = Vec::new();
    let mut err = Vec::new();
    let mut bits = Vec::new();
    g.bench_function("detect_lemma_match_scalar", |b| {
        b.iter(|| {
            det.interference_mask_into(black_box(&rx), &mut mask);
            let span = mask_span(&mask, from, to);
            bits.clear();
            match_bits_into(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut err,
                &mut bits,
            );
            black_box((span, bits.len()))
        })
    });
    let mut energies = Vec::new();
    let mut scratch = MatchBatchScratch::default();
    g.bench_function("detect_lemma_match_batch", |b| {
        b.iter(|| {
            energies_into(black_box(&rx), &mut energies);
            let span = det.interference_span(&energies, from, to);
            bits.clear();
            match_bits_batch(
                black_box(&rx),
                black_box(&dtheta),
                1.0,
                1.0,
                &mut scratch,
                &mut bits,
            );
            black_box((span, bits.len()))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_backward,
    bench_clean,
    bench_pipeline
);
criterion_main!(benches);
