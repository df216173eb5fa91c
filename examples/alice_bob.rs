//! The Alice-Bob exchange (Fig. 1d), end to end at signal level:
//!
//! * **Slot 1** — Alice and Bob are triggered, wait their random §7.2
//!   delays, and transmit *simultaneously*; the router receives the
//!   interfered sum.
//! * **Slot 2** — the router reads the two clean headers, confirms the
//!   amplify case (§7.5), normalizes power (Appendix C) and
//!   re-broadcasts the raw mixture.
//! * Each endpooint cancels its own packet's phase footprint and
//!   decodes the other's (§6), Alice forward and Bob backward (§7.4).
//!
//! Two packets exchanged in 2 slots instead of routing's 4.
//!
//! ```text
//! cargo run --release --example alice_bob
//! ```

use anc::prelude::*;
use anc_core::decoder::DecoderConfig;
use anc_modem::ber::ber as bit_error_rate;

const NOISE: f64 = 1e-3;

fn main() {
    run(2048);
}

/// Runs the two-slot exchange with `payload_bits`-bit packets; the
/// examples smoke test calls this with a tiny payload.
pub fn run(payload_bits: usize) {
    // Seed 43 is pinned to a realization whose §7.2 random delays
    // stagger the two packets by ~170 samples — enough clean head/tail
    // for the router to read both 64-bit headers (§7.5). Seeds that
    // draw near-equal delays produce a full collision the policy
    // rightly refuses to amplify.
    let mut rng = DspRng::seed_from(43);
    let frame_cfg = FrameConfig::default();
    let det = DetectorConfig {
        noise_floor: NOISE,
        ..Default::default()
    };
    let dec_cfg = DecoderConfig {
        detector: det,
        ..Default::default()
    };

    // --- The players -----------------------------------------------------
    let mut alice = Node::new(
        {
            let mut c = NodeConfig::new(1, NodeRole::Endpoint);
            c.decoder = dec_cfg;
            c
        },
        rng.fork(1),
    );
    let mut bob = Node::new(
        {
            let mut c = NodeConfig::new(2, NodeRole::Endpoint);
            c.decoder = dec_cfg;
            c
        },
        rng.fork(2),
    );
    let mut router = Node::new(
        {
            let mut c = NodeConfig::new(5, NodeRole::AmplifyRelay);
            c.decoder = dec_cfg;
            c
        },
        rng.fork(3),
    );
    router.policy.add_relay_pair(1, 2);

    // Channels: Alice↔Router and Bob↔Router; Alice cannot hear Bob.
    let link_ar = Link::new(0.9, rng.phase(), 0.0);
    let link_br = Link::new(0.8, rng.phase(), 0.0);
    let link_ra = Link::new(0.9, rng.phase(), 0.0);
    let link_rb = Link::new(0.8, rng.phase(), 0.0);

    // --- Slot 1: simultaneous transmission -------------------------------
    let fa = alice.enqueue_packet(2, rng.bits(payload_bits));
    let fb = bob.enqueue_packet(1, rng.bits(payload_bits));
    let (_, wave_a) = alice.transmit_next().expect("queued");
    let (_, wave_b) = bob.transmit_next().expect("queued");
    let da = alice.draw_delay();
    let db = bob.draw_delay();
    println!("Alice delays {da} samples, Bob {db} (random trigger slots, §7.2)");

    let mut medium_r = Medium::new(NOISE, 99);
    let txs = [
        Transmission::new(wave_a.clone(), 64 + da, link_ar),
        Transmission::new(wave_b.clone(), 64 + db, link_br),
    ];
    let span = Medium::span(&txs, 64);
    let at_router = medium_r.receive(&txs, span);
    println!(
        "Router hears {} samples of interfered signal (slot 1)",
        at_router.len()
    );

    // --- Slot 2: amplify and forward --------------------------------------
    let RxEvent::Relay {
        start,
        end,
        head,
        tail,
    } = router.poll(&at_router)
    else {
        panic!("router should classify this as the amplify case");
    };
    println!(
        "Router read headers: head = {:?}, tail = {:?} → amplify (§7.5)",
        head.map(|h| (h.src, h.dst, h.seq)),
        tail.map(|h| (h.src, h.dst, h.seq))
    );
    let relay = AmplifyForward::new(1.0);
    let (amplified, gain) = relay.amplify_window(&at_router, start, end);
    println!("Relay gain {gain:.3} (power renormalized to P, Appendix C)");

    // --- Endpoints decode --------------------------------------------------
    for (name, node, link, theirs) in [
        ("Alice", &mut alice, link_ra, &fb),
        ("Bob", &mut bob, link_rb, &fa),
    ] {
        let mut medium = Medium::new(NOISE, 7 + theirs.header.src as u64);
        let rtx = [Transmission::new(amplified.clone(), 64, link)];
        let rx = medium.receive(&rtx, Medium::span(&rtx, 64));
        match node.poll(&rx) {
            RxEvent::AncDecoded {
                frame,
                crc_ok,
                diagnostics,
                ..
            } => {
                let b = bit_error_rate(&frame.payload, &theirs.payload);
                println!(
                    "{name}: decoded {} payload bits from the interference — BER {:.3}%, \
                     CRC {}, overlap {:.0}%, Â = {:.2}, B̂ = {:.2}",
                    frame.payload.len(),
                    100.0 * b,
                    if crc_ok {
                        "ok"
                    } else {
                        "failed (FEC would repair)"
                    },
                    100.0 * diagnostics.overlap_fraction,
                    diagnostics.known_amplitude,
                    diagnostics.unknown_amplitude,
                );
            }
            other => println!("{name}: decode failed: {other:?}"),
        }
    }
    println!();
    println!(
        "Two packets exchanged in 2 slots; traditional routing needs 4 (Fig. 1), \
         so ANC's ceiling here is a 2× throughput gain (§8)."
    );
    let _ = frame_cfg;
}
