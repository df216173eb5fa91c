//! Evaluation metrics (§11.2).
//!
//! * **Network throughput** — "the sum of the end-to-end throughput of
//!   all flows", measured here in payload bits per sample-time. ANC
//!   packets are charged the extra error-correction redundancy their
//!   BER requires ("We account for this overhead in our throughput
//!   computation"), via the 2×BER rule of `anc-frame::fec`.
//! * **Gain over traditional / over COPE** — throughput ratios between
//!   schemes run on the *same* topology realization (the paper's "two
//!   consecutive runs in the same topology").
//! * **BER** — per decoded packet, against the transmitted payload.

use anc_dsp::stats::P2Quantile;
use anc_frame::fec::ideal_redundancy_for_ber;
use anc_netcode::Scheme;
use serde::{Deserialize, Serialize};

/// O(1) streaming summary of one sample stream: Welford count and
/// mean, and fixed-size P² estimators for the median and the 99th
/// percentile. A city run pushes millions of ACK latencies and BERs
/// through one of these instead of growing a `Vec<f64>` ledger
/// ([`crate::city::CityOutcome`]).
///
/// NaN observations are skipped (the ledger NaN-sentinel convention);
/// `mean()` and the quantile accessors report NaN when empty.
#[derive(Debug, Clone)]
pub struct StatDigest {
    count: u64,
    mean: f64,
    p50: P2Quantile,
    p99: P2Quantile,
}

impl Default for StatDigest {
    fn default() -> Self {
        StatDigest {
            count: 0,
            mean: 0.0,
            p50: P2Quantile::new(0.5),
            p99: P2Quantile::new(0.99),
        }
    }
}

impl StatDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation (NaN sentinels are dropped).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.p50.push(x);
        self.p99.push(x);
    }

    /// Number of (non-NaN) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Streaming median estimate; NaN when empty, exact below five
    /// observations.
    pub fn p50(&self) -> f64 {
        self.p50.value()
    }

    /// Streaming 99th-percentile estimate; NaN when empty.
    pub fn p99(&self) -> f64 {
        self.p99.value()
    }
}

/// Time/goodput ledger for one scheme's run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputAccount {
    /// FEC-discounted delivered payload bits.
    pub goodput_bits: f64,
    /// Raw packets delivered end-to-end.
    pub delivered: usize,
    /// Packets lost (decode or identification failure).
    pub lost: usize,
    /// Elapsed medium time in samples.
    pub time_samples: f64,
}

impl ThroughputAccount {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an end-to-end delivery of `payload_bits` decoded with
    /// the given `ber`; goodput is discounted by the redundancy an
    /// ideal outer code would need (§11.2/§11.4: 4 % BER → 8 %
    /// overhead). Returns the goodput contribution so per-flow ledgers
    /// can attribute it without recomputing the discount.
    pub fn deliver(&mut self, payload_bits: usize, ber: f64) -> f64 {
        let redundancy = ideal_redundancy_for_ber(ber);
        let contribution = payload_bits as f64 / (1.0 + redundancy);
        self.goodput_bits += contribution;
        self.delivered += 1;
        contribution
    }

    /// Records a lost packet.
    pub fn lose(&mut self) {
        self.lost += 1;
    }

    /// Advances the medium clock.
    pub fn tick(&mut self, samples: f64) {
        self.time_samples += samples;
    }

    /// Network throughput in payload bits per sample; 0 before any
    /// time has elapsed.
    pub fn throughput(&self) -> f64 {
        if self.time_samples <= 0.0 {
            0.0
        } else {
            self.goodput_bits / self.time_samples
        }
    }

    /// Delivery rate over attempted packets.
    pub fn delivery_rate(&self) -> f64 {
        let total = self.delivered + self.lost;
        if total == 0 {
            0.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

/// Closed-loop per-flow ledger (ARQ runs only; empty open-loop).
///
/// Tracks what the §11 flow-level figures need: offered vs delivered
/// vs dropped packets, retransmission spend, FEC-discounted goodput,
/// and per-packet latency samples (enqueue → acknowledgment, in
/// medium samples).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Flow index within the program.
    pub flow: usize,
    /// Packets that entered the flow's transmit queue.
    pub offered: usize,
    /// Packets acknowledged end-to-end (or via the §7.6 implicit ACK).
    pub delivered: usize,
    /// Packets dropped after exhausting `1 + max_retries` attempts.
    pub dropped: usize,
    /// Packets whose retransmission was suppressed by the §7.6
    /// implicit ACK (the relay's forward copy) but whose final decode
    /// failed — the residual losses the transport layer sees.
    pub lost_after_ack: usize,
    /// Retransmission attempts beyond each packet's first.
    pub retransmissions: usize,
    /// FEC-discounted payload bits this flow delivered.
    pub goodput_bits: f64,
    /// Per-acknowledged-packet latency, enqueue → ACK, in samples.
    pub latency_samples: Vec<f64>,
    /// Packets still queued (or staged) when the run ended — offered
    /// packets that neither completed nor dropped. Always 0 for runs
    /// that drain their queues; nonzero under fault churn when the run
    /// ends mid-outage.
    pub in_flight: usize,
    /// Packets purged from the transmit queue by the crash fault
    /// policy (`FaultSpec::drop_queue_on_crash`) — losses attributable
    /// to node churn rather than the channel. Subset of `dropped`.
    pub lost_to_churn: usize,
}

impl FlowMetrics {
    /// Records one ACK latency observation.
    pub fn record_latency(&mut self, latency: f64) {
        self.latency_samples.push(latency);
    }

    /// Fraction of offered packets acknowledged (0 when none offered).
    pub fn delivery_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Mean ACK latency in samples (NaN when nothing was delivered).
    pub fn mean_latency(&self) -> f64 {
        self.latency_samples.iter().sum::<f64>() / self.latency_samples.len() as f64
    }

    /// Mean retransmissions per completed packet (delivered, dropped,
    /// or implicitly ACKed with a residual loss — the same denominator
    /// the load sweep and Monte Carlo aggregator use); 0 when nothing
    /// completed.
    pub fn retransmissions_per_packet(&self) -> f64 {
        let done = self.delivered + self.dropped + self.lost_after_ack;
        if done == 0 {
            0.0
        } else {
            self.retransmissions as f64 / done as f64
        }
    }
}

/// One detected outage episode from the closed loop's health
/// estimator: when the trouble started, when the EWMA crossed the
/// unhealthy threshold, when the fallback path first delivered again,
/// and when sustained recovery flipped the monitor back to healthy.
/// All timestamps are slot-period indices; goodput/delivered cover the
/// unhealthy span only.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OutageRecord {
    /// Period of the first failure in the streak that tripped the
    /// monitor (onset of trouble, assigned retroactively).
    pub onset_period: u64,
    /// Period at which the health EWMA crossed the unhealthy
    /// threshold and the scheduler fell back.
    pub detect_period: u64,
    /// First period after detection with an end-to-end delivery on the
    /// fallback path (`None` if nothing got through before recovery).
    pub failover_period: Option<u64>,
    /// Period at which sustained success flipped the monitor back to
    /// healthy (`None` when the run ended mid-outage).
    pub recover_period: Option<u64>,
    /// FEC-discounted payload bits delivered while unhealthy.
    pub goodput_bits: f64,
    /// Packets delivered end-to-end while unhealthy.
    pub delivered: usize,
}

impl OutageRecord {
    /// Periods from the onset of trouble to threshold crossing.
    pub fn time_to_detect(&self) -> u64 {
        self.detect_period.saturating_sub(self.onset_period)
    }

    /// Periods from detection to the first fallback delivery.
    pub fn time_to_failover(&self) -> Option<u64> {
        self.failover_period
            .map(|p| p.saturating_sub(self.detect_period))
    }

    /// Periods from detection back to a healthy verdict (`None` for an
    /// outage still open at the end of the run).
    pub fn time_to_recover(&self) -> Option<u64> {
        self.recover_period
            .map(|p| p.saturating_sub(self.detect_period))
    }
}

/// Everything measured in one run of one scheme on one topology
/// realization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Which scheme ran.
    pub scheme: String,
    /// The time/goodput ledger.
    pub account: ThroughputAccount,
    /// BER of each decoded data packet (interference-decoded packets
    /// for ANC; all end-to-end deliveries for the baselines).
    pub packet_bers: Vec<f64>,
    /// Per-packet BER tagged with the receiving node — lets sweeps
    /// look at one receiver (Fig. 13 reads only Alice's decodes).
    pub ber_by_receiver: Vec<(u8, f64)>,
    /// Overlap fraction of each interfered pair (ANC only; §11.4's
    /// ≈ 80 % statistic).
    pub overlaps: Vec<f64>,
    /// Closed-loop per-flow ledgers (ARQ runs only; empty — and absent
    /// from the golden fingerprints — when the run is open-loop).
    pub flows: Vec<FlowMetrics>,
    /// Outage episodes the health estimator detected (fault-injected
    /// closed-loop runs only; always empty — and outside the golden
    /// fingerprints — when faults are off).
    pub outages: Vec<OutageRecord>,
}

impl RunMetrics {
    /// Creates an empty record for a scheme.
    pub fn new(scheme: Scheme) -> Self {
        RunMetrics {
            scheme: scheme.name().to_string(),
            account: ThroughputAccount::new(),
            packet_bers: Vec::new(),
            ber_by_receiver: Vec::new(),
            overlaps: Vec::new(),
            flows: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Records a decoded packet's BER at a given receiver.
    pub fn record_ber(&mut self, receiver: u8, ber: f64) {
        self.packet_bers.push(ber);
        self.ber_by_receiver.push((receiver, ber));
    }

    /// Records a decoded packet's BER without a receiver tag (the
    /// untagged-traditional accounting path): feeds the pooled ledger,
    /// never the per-receiver one.
    pub fn record_untagged_ber(&mut self, ber: f64) {
        self.packet_bers.push(ber);
    }

    /// Records an interfered pair's overlap fraction.
    pub fn record_overlap(&mut self, overlap: f64) {
        self.overlaps.push(overlap);
    }

    /// BERs observed at one receiver, in decode order. Borrows the
    /// ledger instead of allocating a fresh `Vec` per call — sweeps
    /// and Monte Carlo pooling call this per trial.
    pub fn bers_at(&self, receiver: u8) -> impl Iterator<Item = f64> + '_ {
        self.ber_by_receiver
            .iter()
            .filter(move |(r, _)| *r == receiver)
            .map(|(_, b)| *b)
    }

    /// Mean packet BER (0 when none recorded).
    pub fn mean_ber(&self) -> f64 {
        mean_or_zero(&self.packet_bers)
    }

    /// Mean overlap fraction (0 when none recorded).
    pub fn mean_overlap(&self) -> f64 {
        mean_or_zero(&self.overlaps)
    }

    /// FNV-1a over the metric words that define a run's identity:
    /// delivery counts, the goodput and medium-clock floats, and every
    /// per-packet BER, overlap fraction and receiver tag. The golden,
    /// fault-injection and scheduler/gating equivalence suites compare
    /// runs by this value. Flow ledgers and outage records are left
    /// out, so open-loop and closed-loop runs share one definition.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(self.account.delivered as u64);
        eat(self.account.lost as u64);
        eat(self.account.goodput_bits.to_bits());
        eat(self.account.time_samples.to_bits());
        eat(self.packet_bers.len() as u64);
        for b in &self.packet_bers {
            eat(b.to_bits());
        }
        eat(self.overlaps.len() as u64);
        for o in &self.overlaps {
            eat(o.to_bits());
        }
        eat(self.ber_by_receiver.len() as u64);
        for (r, b) in &self.ber_by_receiver {
            eat(u64::from(*r));
            eat(b.to_bits());
        }
        h
    }
}

fn mean_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Throughput gain of `new` over `base` (the §11.2 gain metrics).
/// NaN when the baseline saw no throughput.
pub fn gain(new: &RunMetrics, base: &RunMetrics) -> f64 {
    let b = base.account.throughput();
    if b <= 0.0 {
        f64::NAN
    } else {
        new.account.throughput() / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_arithmetic() {
        let mut a = ThroughputAccount::new();
        a.deliver(1000, 0.0);
        a.tick(500.0);
        assert!((a.throughput() - 2.0).abs() < 1e-12);
        assert_eq!(a.delivered, 1);
    }

    #[test]
    fn fec_discount_matches_paper_rule() {
        // 4 % BER → 8 % redundancy → goodput / 1.08.
        let mut a = ThroughputAccount::new();
        a.deliver(1080, 0.04);
        assert!((a.goodput_bits - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_zero_throughput() {
        let a = ThroughputAccount::new();
        assert_eq!(a.throughput(), 0.0);
    }

    #[test]
    fn delivery_rate() {
        let mut a = ThroughputAccount::new();
        a.deliver(10, 0.0);
        a.deliver(10, 0.0);
        a.lose();
        assert!((a.delivery_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ThroughputAccount::new().delivery_rate(), 0.0);
    }

    #[test]
    fn run_metrics_means() {
        let mut m = RunMetrics::new(Scheme::Anc);
        assert_eq!(m.mean_ber(), 0.0);
        m.packet_bers.extend([0.02, 0.04]);
        m.overlaps.extend([0.8, 0.9]);
        assert!((m.mean_ber() - 0.03).abs() < 1e-12);
        assert!((m.mean_overlap() - 0.85).abs() < 1e-12);
        assert_eq!(m.scheme, "anc");
    }

    #[test]
    fn deliver_returns_its_goodput_contribution() {
        let mut a = ThroughputAccount::new();
        let c = a.deliver(1080, 0.04);
        assert!((c - 1000.0).abs() < 1e-9);
        assert_eq!(c.to_bits(), a.goodput_bits.to_bits());
    }

    #[test]
    fn flow_metrics_rates() {
        let mut f = FlowMetrics {
            flow: 1,
            offered: 10,
            delivered: 8,
            dropped: 2,
            lost_after_ack: 0,
            retransmissions: 5,
            goodput_bits: 800.0,
            latency_samples: vec![100.0, 300.0],
            ..FlowMetrics::default()
        };
        assert!((f.delivery_rate() - 0.8).abs() < 1e-12);
        assert!((f.mean_latency() - 200.0).abs() < 1e-12);
        assert!((f.retransmissions_per_packet() - 0.5).abs() < 1e-12);
        f.lost_after_ack = 10;
        assert!(
            (f.retransmissions_per_packet() - 0.25).abs() < 1e-12,
            "implicitly-ACKed packets count as completed"
        );
        f.latency_samples.clear();
        assert!(f.mean_latency().is_nan());
        assert_eq!(FlowMetrics::default().delivery_rate(), 0.0);
        assert_eq!(FlowMetrics::default().retransmissions_per_packet(), 0.0);
    }

    #[test]
    fn outage_record_timing() {
        let rec = OutageRecord {
            onset_period: 10,
            detect_period: 14,
            failover_period: Some(16),
            recover_period: Some(30),
            goodput_bits: 4096.0,
            delivered: 2,
        };
        assert_eq!(rec.time_to_detect(), 4);
        assert_eq!(rec.time_to_failover(), Some(2));
        assert_eq!(rec.time_to_recover(), Some(16));
        let open = OutageRecord {
            onset_period: 5,
            detect_period: 7,
            ..OutageRecord::default()
        };
        assert_eq!(open.time_to_failover(), None);
        assert_eq!(open.time_to_recover(), None);
    }

    #[test]
    fn run_metrics_json_with_retired_digest_keys_still_loads() {
        use serde::Value;
        let mut m = RunMetrics::new(Scheme::Anc);
        m.record_ber(1, 0.02);
        m.record_untagged_ber(0.01);
        m.record_overlap(0.8);
        m.account.deliver(1024, 0.02);
        m.account.tick(3000.0);
        let mut flow = FlowMetrics {
            flow: 0,
            offered: 2,
            delivered: 1,
            ..FlowMetrics::default()
        };
        flow.record_latency(250.0);
        m.flows.push(flow);
        let plain = m.to_value();
        // Metrics saved while `RunMetrics` and `FlowMetrics` still
        // carried streaming digests beside the exact ledgers.
        let digest = || Value::Object(Default::default());
        let mut saved = plain.clone();
        let Value::Object(obj) = &mut saved else {
            panic!("RunMetrics is a JSON object");
        };
        obj.insert("streaming".to_string(), Value::Bool(false));
        obj.insert(concat!("ber", "_stats").to_string(), digest());
        obj.insert(
            concat!("receiver_ber", "_stats").to_string(),
            Value::Array(Vec::new()),
        );
        obj.insert(concat!("overlap", "_stats").to_string(), digest());
        let Some(Value::Array(flows)) = obj.get_mut("flows") else {
            panic!("flows is a JSON array");
        };
        for f in flows {
            let Value::Object(f) = f else {
                panic!("FlowMetrics is a JSON object");
            };
            f.insert("streaming".to_string(), Value::Bool(false));
            f.insert(concat!("latency", "_stats").to_string(), digest());
        }
        let old = RunMetrics::from_value(&saved).unwrap();
        let new = RunMetrics::from_value(&plain).unwrap();
        assert_eq!(format!("{old:?}"), format!("{new:?}"));
        assert_eq!(format!("{new:?}"), format!("{m:?}"));
    }

    #[test]
    fn gain_ratio() {
        let mut a = RunMetrics::new(Scheme::Anc);
        a.account.deliver(2000, 0.0);
        a.account.tick(100.0);
        let mut t = RunMetrics::new(Scheme::Traditional);
        t.account.deliver(1000, 0.0);
        t.account.tick(100.0);
        assert!((gain(&a, &t) - 2.0).abs() < 1e-12);
        assert!(gain(&a, &RunMetrics::new(Scheme::Traditional)).is_nan());
    }
}
