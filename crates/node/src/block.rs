//! The node front end as a pure synthesis job.
//!
//! [`synthesize`] is the pure half of a transmission, lifted out of
//! the engine's slot loop so its TX stage can run it on any worker:
//! modulation, the §5.3 front-end rotation, the
//! §7.5 amplify-forward normalization, and the Monte-Carlo CFO
//! rotation are all functions of the job alone. Everything stateful
//! about a transmission (frame sourcing, buffer bookkeeping,
//! carrier-phase and MAC-delay draws) stays with the engine, which
//! resolves it *before* the job is shipped — that split is what keeps
//! every scheduler bit-identical.

use crate::node::FrontEnd;
use crate::phy::TxChain;
use anc_channel::fault::{CarrierOffset, Impairment};
use anc_channel::AmplifyForward;
use anc_dsp::Cplx;
use anc_frame::Frame;

/// What a synthesis job turns into samples.
#[derive(Debug, Clone)]
pub enum SynthSource {
    /// Modulate a resolved frame through the sender's TX chain.
    Frame(Frame),
    /// Amplify-and-forward a captured mixture window (§7.5): the
    /// region `[start, end)` is power-normalized and broadcast.
    Amplify {
        /// The captured reception window.
        window: Vec<Cplx>,
        /// First sample of the packet region within the window.
        start: usize,
        /// One past the last sample of the packet region.
        end: usize,
    },
}

/// One fully resolved transmission for the synthesis stage. All RNG
/// draws already happened on the engine side; the job is pure data.
#[derive(Debug, Clone)]
pub struct SynthJob {
    /// Sample source.
    pub source: SynthSource,
    /// This transmission's carrier phase (drawn from the engine's
    /// shared carrier stream, §5.3's `γ`).
    pub carrier_phase: f64,
    /// Residual carrier-frequency offset in rad/sample (the Monte
    /// Carlo TX process; `0.0` is a no-op and leaves the waveform
    /// bit-identical).
    pub cfo: f64,
}

/// Synthesizes one job into an on-air waveform. This is the exact
/// per-transmission math of the engine's serial path, factored out so
/// the inline and staged routes share one implementation.
pub fn synthesize(chain: &TxChain, front_end: &FrontEnd, job: SynthJob) -> Vec<Cplx> {
    let mut wave = match job.source {
        SynthSource::Frame(frame) => chain.modulate_frame(&frame),
        SynthSource::Amplify { window, start, end } => {
            let (amp, _) = AmplifyForward::new(1.0).amplify_window(&window, start, end);
            amp
        }
    };
    front_end.apply(&mut wave, job.carrier_phase);
    if job.cfo != 0.0 {
        CarrierOffset::new(job.cfo).apply(&mut wave);
    }
    wave
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeConfig, NodeRole};
    use anc_dsp::DspRng;
    use anc_frame::Header;

    fn test_node() -> Node {
        Node::new(NodeConfig::new(1, NodeRole::Endpoint), DspRng::seed_from(7))
    }

    #[test]
    fn block_matches_inline_transmit_path() {
        // synthesize() must equal transmit_frame + apply_front_end to
        // the last bit — it is the same math, run on a node's block.
        let mut node = test_node();
        node.front_end.osc_offset = 3e-4;
        node.front_end.amplitude = 0.8;
        let frame = Frame::new(Header::new(1, 2, 5, 0), vec![true, false, true, true]);
        let mut inline = node.transmit_frame(&frame);
        node.apply_front_end(&mut inline, 0.37);

        let wave = synthesize(
            node.tx_chain(),
            &node.front_end,
            SynthJob {
                source: SynthSource::Frame(frame),
                carrier_phase: 0.37,
                cfo: 0.0,
            },
        );
        assert_eq!(wave.len(), inline.len());
        for (a, b) in wave.iter().zip(&inline) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
