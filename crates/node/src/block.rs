//! The node front end as a pure synthesis job.
//!
//! [`synthesize`] is the pure half of a transmission, lifted out of
//! the engine's slot loop so its TX stages can run it on any worker:
//! modulation, the §5.3 front-end rotation, the
//! §7.5 amplify-forward normalization, and the Monte-Carlo CFO
//! rotation are all functions of the job alone. It comes in two
//! halves: [`source_wave`] (modulation or amplification, sequential)
//! and [`TxRotation`] (front end and CFO, per sample, so it runs in
//! chunks of one wave). Everything stateful
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

impl SynthJob {
    /// Splits the job into its two halves: the source wave to build
    /// ([`source_wave`]) and the per-sample rotation to apply to it
    /// ([`TxRotation::apply`]).
    pub fn split(self, front_end: FrontEnd) -> (SynthSource, TxRotation) {
        let rotation = TxRotation {
            front_end,
            carrier_phase: self.carrier_phase,
            cfo: self.cfo,
        };
        (self.source, rotation)
    }
}

/// The per-sample half of a transmission: the sender's front end and
/// the job's carrier phase and CFO. Every output sample is a function
/// of its input sample and its index alone, so a wave can be rotated
/// in independent chunks.
#[derive(Debug, Clone, Copy)]
pub struct TxRotation {
    front_end: FrontEnd,
    carrier_phase: f64,
    cfo: f64,
}

impl TxRotation {
    /// Rotates samples `first..first + chunk.len()` of a source wave in
    /// place: the §5.3 front end, then the Monte-Carlo CFO. The CFO's
    /// running phase at `first` comes from the same `first` sequential
    /// adds a whole-wave rotation makes ([`CarrierOffset::skip`]), so
    /// chunks rotated on their own join into the whole wave bit for
    /// bit. A CFO of `0.0` is a no-op and leaves the samples
    /// bit-identical.
    pub fn apply(&self, chunk: &mut [Cplx], first: usize) {
        self.front_end.apply(chunk, first, self.carrier_phase);
        if self.cfo != 0.0 {
            let mut cfo = CarrierOffset::new(self.cfo);
            cfo.skip(first);
            cfo.apply(chunk);
        }
    }
}

/// The source half of a transmission: the frame modulated through the
/// sender's TX chain, or the captured mixture amplified for broadcast
/// (§7.5), before the front end. Sequential by nature (MSK phase
/// accumulates, and the amplifier normalizes over the whole region).
pub fn source_wave(chain: &TxChain, source: SynthSource) -> Vec<Cplx> {
    match source {
        SynthSource::Frame(frame) => chain.modulate_frame(&frame),
        SynthSource::Amplify { window, start, end } => {
            let (amp, _) = AmplifyForward::new(1.0).amplify_window(&window, start, end);
            amp
        }
    }
}

/// Synthesizes one job into an on-air waveform: [`source_wave`], then
/// [`TxRotation::apply`] over the whole wave. This is the exact
/// per-transmission math of the engine's serial path; the engine's TX
/// stages run the same two halves, the second one in chunks.
pub fn synthesize(chain: &TxChain, front_end: &FrontEnd, job: SynthJob) -> Vec<Cplx> {
    let (source, rotation) = job.split(*front_end);
    let mut wave = source_wave(chain, source);
    rotation.apply(&mut wave, 0);
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

    #[test]
    fn chunked_rotation_matches_whole_wave() {
        // Front end plus CFO applied chunk by chunk, each chunk on its
        // own with the CFO phase reached by sequential adds, equals the
        // whole-wave synthesis bit for bit — at boundaries that split
        // the wave unevenly, leave empty chunks, and end at the wave.
        let node = test_node();
        let front_end = FrontEnd {
            osc_offset: 3e-4,
            amplitude: 0.8,
        };
        let frame = Frame::new(Header::new(1, 2, 5, 0), DspRng::seed_from(3).bits(300));
        let bits = |v: &[Cplx]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for cfo in [0.0, 0.01, -0.37] {
            let job = SynthJob {
                source: SynthSource::Frame(frame.clone()),
                carrier_phase: 0.37,
                cfo,
            };
            let whole = synthesize(node.tx_chain(), &front_end, job.clone());
            let (source, rotation) = job.split(front_end);
            let raw = source_wave(node.tx_chain(), source);
            let n = raw.len();
            for cuts in [vec![0, n], vec![0, 1, 1, 100, 257, n], vec![0, n - 1, n, n]] {
                let mut chunked = Vec::new();
                for pair in cuts.windows(2) {
                    let mut chunk = raw[pair[0]..pair[1]].to_vec();
                    rotation.apply(&mut chunk, pair[0]);
                    chunked.extend(chunk);
                }
                assert_eq!(bits(&chunked), bits(&whole), "cfo {cfo}, cuts {cuts:?}");
            }
        }
    }
}
