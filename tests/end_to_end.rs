//! Cross-crate integration tests: full node-level scenarios through
//! frames, modulation, channels, detection, and decoding.

use anc::prelude::*;
use anc_core::decoder::DecoderConfig;
use anc_core::detect::DetectorConfig;
use anc_modem::ber::ber;

const NOISE: f64 = 1e-3;

fn node(id: u8, role: NodeRole, seed: u64) -> Node {
    let mut cfg = NodeConfig::new(id, role);
    cfg.decoder = DecoderConfig {
        detector: DetectorConfig {
            noise_floor: NOISE,
            ..Default::default()
        },
        ..Default::default()
    };
    Node::new(cfg, DspRng::seed_from(seed))
}

/// Alice-Bob over the relay, entirely through the public Node/Medium
/// API: simultaneous uplink, amplify-and-forward, both endpoints
/// decode.
#[test]
fn alice_bob_full_exchange() {
    let mut rng = DspRng::seed_from(100);
    let mut alice = node(1, NodeRole::Endpoint, 1);
    let mut bob = node(2, NodeRole::Endpoint, 2);
    let mut router = node(5, NodeRole::AmplifyRelay, 3);
    router.policy.add_relay_pair(1, 2);

    let fa = alice.enqueue_packet(2, rng.bits(1024));
    let fb = bob.enqueue_packet(1, rng.bits(1024));
    let (_, wa) = alice.transmit_next().unwrap();
    let (_, wb) = bob.transmit_next().unwrap();

    // Uplink: staggered interference at the router.
    let link_ar = Link::new(0.9, 0.7, 0.0);
    let link_br = Link::new(0.85, -1.1, 0.0);
    let mut medium = Medium::new(NOISE, 50);
    // Rotate Bob's waveform progressively: independent oscillator.
    let wb_cfo: Vec<Cplx> = wb
        .iter()
        .enumerate()
        .map(|(k, s)| s.rotate(0.02 * k as f64))
        .collect();
    let txs = [
        Transmission::new(wa, 64, link_ar),
        Transmission::new(wb_cfo, 64 + 400, link_br),
    ];
    let at_router = medium.receive(&txs, Medium::span(&txs, 64));

    let RxEvent::Relay {
        start,
        end,
        head,
        tail,
    } = router.poll(&at_router)
    else {
        panic!("router must classify as relay case");
    };
    assert_eq!(head.unwrap().key(), fa.header.key());
    assert_eq!(tail.unwrap().key(), fb.header.key());

    // Downlink broadcast.
    let (amp, _) = AmplifyForward::new(1.0).amplify_window(&at_router, start, end);
    for (me, theirs, seed) in [(&mut alice, &fb, 60u64), (&mut bob, &fa, 61u64)] {
        let mut m = Medium::new(NOISE, seed);
        let down = [Transmission::new(amp.clone(), 64, Link::new(0.9, 0.3, 0.0))];
        let rx = m.receive(&down, Medium::span(&down, 64));
        match me.poll(&rx) {
            RxEvent::AncDecoded { frame, .. } => {
                assert_eq!(frame.header.key(), theirs.header.key());
                assert!(
                    ber(&frame.payload, &theirs.payload) < 0.08,
                    "payload BER too high"
                );
            }
            other => panic!("expected AncDecoded, got {other:?}"),
        }
    }
}

/// The chain's N2 decodes N1's new packet through the collision with
/// the packet it just forwarded to N3 (Fig. 2c).
#[test]
fn chain_relay_survives_collision() {
    let mut rng = DspRng::seed_from(200);
    let mut n2 = node(12, NodeRole::DecodeRelay, 4);

    // The frame N2 forwarded (thus knows) and N1's next packet.
    let forwarded = Frame::new(Header::new(11, 14, 7, 0), rng.bits(1024));
    let fresh = Frame::new(Header::new(11, 14, 8, 0), rng.bits(1024));
    // N2 transmitted `forwarded` → it's in its sent-packet buffer.
    let _ = n2.transmit_frame(&forwarded);

    // Collision at N2: N1's fresh packet + N3's re-forward of the old.
    let fresh_bits = fresh.to_bits(n2.frame_config());
    let fwd_bits = forwarded.to_bits(n2.frame_config());
    let modem = MskModem::default();
    let s_fresh = modem.modulate(&fresh_bits);
    let s_fwd: Vec<Cplx> = modem
        .modulate(&fwd_bits)
        .iter()
        .enumerate()
        .map(|(k, s)| s.rotate(0.015 * k as f64))
        .collect();
    let mut medium = Medium::new(NOISE, 70);
    let txs = [
        Transmission::new(s_fresh, 64, Link::new(0.8, 0.2, 0.0)),
        Transmission::new(s_fwd, 64 + 350, Link::new(0.9, -0.9, 0.0)),
    ];
    let rx = medium.receive(&txs, Medium::span(&txs, 64));

    match n2.poll(&rx) {
        RxEvent::AncDecoded { frame, known, .. } => {
            assert_eq!(known, forwarded.header.key());
            assert_eq!(frame.header.key(), fresh.header.key());
            assert!(ber(&frame.payload, &fresh.payload) < 0.08);
        }
        other => panic!("expected AncDecoded at N2, got {other:?}"),
    }
}

/// COPE endpoint path: XOR broadcast decoded against the buffered
/// native packet.
#[test]
fn cope_roundtrip_over_the_air() {
    let mut rng = DspRng::seed_from(300);
    let mut alice = node(1, NodeRole::Endpoint, 5);
    let fa = alice.enqueue_packet(2, rng.bits(512));
    let _ = alice.transmit_next().unwrap(); // buffers fa
    let fb = Frame::new(Header::new(2, 1, 3, 0), rng.bits(512));

    let coded = CopeCoder.encode(&fa, &fb, 5, 1);
    let modem = MskModem::default();
    let wave = modem.modulate(&coded.to_bits(alice.frame_config()));
    let mut medium = Medium::new(NOISE, 80);
    let txs = [Transmission::new(wave, 64, Link::new(0.9, 1.0, 0.0))];
    let rx = medium.receive(&txs, Medium::span(&txs, 64));

    match alice.poll(&rx) {
        RxEvent::Clean { frame, crc_ok } => {
            assert!(crc_ok);
            assert!(frame.header.is_xor());
            let dec = CopeCoder.decode(&frame, &alice.buffer).unwrap();
            assert_eq!(dec.header.key(), fb.header.key());
            assert_eq!(dec.payload, fb.payload);
        }
        other => panic!("expected Clean XOR frame, got {other:?}"),
    }
}

/// A node with nothing relevant buffered and no relay flows drops the
/// interfered signal (§7.5's final case) — and never fabricates a
/// packet.
#[test]
fn bystander_drops_unknown_interference() {
    let mut rng = DspRng::seed_from(400);
    let mut bystander = node(9, NodeRole::Endpoint, 6);
    let f1 = Frame::new(Header::new(1, 2, 1, 0), rng.bits(512));
    let f2 = Frame::new(Header::new(2, 1, 1, 0), rng.bits(512));
    let modem = MskModem::default();
    let s1 = modem.modulate(&f1.to_bits(bystander.frame_config()));
    let s2 = modem.modulate(&f2.to_bits(bystander.frame_config()));
    let mut medium = Medium::new(NOISE, 90);
    let txs = [
        Transmission::new(s1, 64, Link::new(0.9, 0.0, 0.0)),
        Transmission::new(s2, 64 + 300, Link::new(0.8, 1.0, 0.0)),
    ];
    let rx = medium.receive(&txs, Medium::span(&txs, 64));
    match bystander.poll(&rx) {
        RxEvent::Dropped(_) => {}
        other => panic!("bystander must drop, got {other:?}"),
    }
}

/// Overhearing path: a snooping node picks up a clean transmission,
/// then uses it to decode the relayed mixture (the "X" flow).
#[test]
fn overhear_then_cancel() {
    let mut rng = DspRng::seed_from(500);
    let mut x2 = node(22, NodeRole::Endpoint, 7);
    let f1 = Frame::new(Header::new(21, 24, 1, 0), rng.bits(1024));
    let f3 = Frame::new(Header::new(23, 22, 1, 0), rng.bits(1024));
    let modem = MskModem::default();
    let s1 = modem.modulate(&f1.to_bits(x2.frame_config()));
    let s3: Vec<Cplx> = modem
        .modulate(&f3.to_bits(x2.frame_config()))
        .iter()
        .enumerate()
        .map(|(k, s)| s.rotate(0.02 * k as f64))
        .collect();

    // Slot 1 at X2: X1 strong, X3 weak (leakage).
    let mut medium = Medium::new(NOISE, 95);
    let txs = [
        Transmission::new(s1.clone(), 64, Link::new(0.8, 0.5, 0.0)),
        Transmission::new(s3.clone(), 64 + 500, Link::new(0.18, -0.2, 0.0)),
    ];
    let rx = medium.receive(&txs, Medium::span(&txs, 64));
    let (heard, _) = x2.try_overhear(&rx).expect("overhearing succeeds");
    assert_eq!(heard.header.key(), f1.header.key());

    // Slot 2: relayed mixture; X2 cancels the overheard packet.
    let mut medium_r = Medium::new(NOISE, 96);
    let up = [
        Transmission::new(s1, 64, Link::new(0.9, 0.1, 0.0)),
        Transmission::new(s3, 64 + 500, Link::new(0.85, 1.3, 0.0)),
    ];
    let at_router = medium_r.receive(&up, Medium::span(&up, 64));
    let (amp, _) = AmplifyForward::new(1.0).amplify(&at_router);
    let mut medium_d = Medium::new(NOISE, 97);
    let down = [Transmission::new(amp, 0, Link::new(0.9, -0.4, 0.0))];
    let rx = medium_d.receive(&down, Medium::span(&down, 64));
    match x2.poll(&rx) {
        RxEvent::AncDecoded { frame, known, .. } => {
            assert_eq!(known, f1.header.key());
            assert_eq!(frame.header.key(), f3.header.key());
            assert!(ber(&frame.payload, &f3.payload) < 0.08);
        }
        other => panic!("expected AncDecoded at X2, got {other:?}"),
    }
}
