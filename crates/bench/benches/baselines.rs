//! Criterion benchmarks of the baseline machinery: COPE XOR coding,
//! the naive subtraction strawman and framing — the costs the
//! comparison schemes pay per packet.

use anc_core::naive::{estimate_channel, subtract_and_demodulate};
use anc_dsp::DspRng;
use anc_frame::{Frame, FrameConfig, Header, SentPacketBuffer};
use anc_modem::{Modem, MskModem};
use anc_netcode::CopeCoder;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_cope(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(1);
    let fa = Frame::new(Header::new(1, 2, 1, 0), rng.bits(8192));
    let fb = Frame::new(Header::new(2, 1, 1, 0), rng.bits(8192));
    let coder = CopeCoder;
    let mut g = c.benchmark_group("cope");
    g.throughput(Throughput::Elements(8192));
    g.bench_function("encode_8k", |b| {
        b.iter(|| black_box(coder.encode(black_box(&fa), black_box(&fb), 5, 1)))
    });
    let coded = coder.encode(&fa, &fb, 5, 1);
    let mut buf = SentPacketBuffer::new(4);
    buf.insert(fa.clone());
    g.bench_function("decode_8k", |b| {
        b.iter(|| black_box(coder.decode(black_box(&coded), black_box(&buf))))
    });
    g.finish();
}

fn bench_naive(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(2);
    let modem = MskModem::default();
    let known = modem.modulate(&rng.bits(4096));
    let other = modem.modulate(&rng.bits(4096));
    let rx: Vec<_> = known
        .iter()
        .zip(&other)
        .map(|(&a, &b)| a.scale(0.9).rotate(0.3) + b.rotate(-1.0))
        .collect();
    let mut g = c.benchmark_group("naive_subtraction");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("estimate_channel_4k", |b| {
        b.iter(|| {
            black_box(estimate_channel(
                black_box(&rx[..512]),
                black_box(&known[..512]),
            ))
        })
    });
    let ch = estimate_channel(&rx[..512], &known[..512]).unwrap();
    g.bench_function("subtract_demod_4k", |b| {
        b.iter(|| {
            black_box(subtract_and_demodulate(
                black_box(&rx),
                black_box(&known),
                ch,
            ))
        })
    });
    g.finish();
}

fn bench_framing(c: &mut Criterion) {
    let mut rng = DspRng::seed_from(3);
    let cfg = FrameConfig::default();
    let f = Frame::new(Header::new(1, 2, 1, 0), rng.bits(8192));
    let mut g = c.benchmark_group("framing");
    g.throughput(Throughput::Elements(8192));
    g.bench_function("frame_to_bits_8k", |b| {
        b.iter(|| black_box(f.to_bits(black_box(&cfg))))
    });
    let bits = f.to_bits(&cfg);
    g.bench_function("parse_lenient_8k", |b| {
        b.iter(|| black_box(Frame::parse_lenient(black_box(&bits), &cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench_cope, bench_naive, bench_framing);
criterion_main!(benches);
