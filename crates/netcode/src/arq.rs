//! Closed-loop MAC/ARQ scheduling state (§7.6, §11).
//!
//! The paper's system results (Figs. 9–12) come from a *closed-loop*
//! stack: senders queue packets, retransmit on decode failure, and
//! suppress the retransmission when an acknowledgment — or the relay's
//! overheard forward copy, which *"doubles as an implicit ACK"* (§7.6)
//! — arrives. This module owns that loop's bookkeeping, scheme- and
//! signal-agnostically:
//!
//! * [`TrafficModel`] — how a flow's source offers packets (saturated,
//!   Poisson arrivals, or a fixed backlog), drawn from a caller-owned
//!   uniform stream so the module stays dependency- and
//!   evaluation-order-free;
//! * [`ArqConfig`] — bounded retries with exponential backoff and the
//!   explicit-ACK airtime charged where no implicit ACK exists;
//! * [`DynamicScheduler`] — per-flow queues plus head-of-line ARQ
//!   state. The simulation engine consults it every slot period: the
//!   ready set decides who contends, carrier sense serializes partial
//!   sets, and attempt/ack/failure callbacks advance the state machine.
//!
//! The scheduler never touches frames or waveforms — it tracks
//! *timestamps and counts* — so the engine remains the single owner of
//! signal-level state, and the invariants (`offered == delivered +
//! dropped + pending`, a drop happens after exactly
//! `1 + max_retries` attempts) are testable in isolation.

#![deny(clippy::cast_possible_truncation)]

use anc_dsp::cast::round_to_usize;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a flow's source offers packets to its transmit queue, per slot
/// period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// The source always has a packet ready when the queue runs dry
    /// (the paper's backlogged senders — offered load = capacity).
    Saturated,
    /// Independent Poisson arrivals with the given mean packets per
    /// slot period (open-loop offered load; > 1 saturates the medium).
    Poisson {
        /// Mean arrivals per slot period.
        rate: f64,
    },
    /// The whole backlog arrives at time zero, then nothing (a file
    /// transfer; the drain profile isolates queueing from arrivals).
    FixedBacklog {
        /// Packets queued at period 0.
        packets: usize,
    },
}

// The vendored serde shim derives only plain structs, so the enum is
// lowered by hand: a tag string plus the numeric payload when present.
impl Serialize for TrafficModel {
    fn to_value(&self) -> serde::Value {
        let mut obj = std::collections::BTreeMap::new();
        let tag = match self {
            TrafficModel::Saturated => "saturated",
            TrafficModel::Poisson { rate } => {
                obj.insert("rate".to_string(), serde::Value::Number(*rate));
                "poisson"
            }
            TrafficModel::FixedBacklog { packets } => {
                obj.insert("packets".to_string(), serde::Value::Number(*packets as f64));
                "fixed_backlog"
            }
        };
        obj.insert("model".to_string(), serde::Value::String(tag.to_string()));
        serde::Value::Object(obj)
    }
}

impl Deserialize for TrafficModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = v else {
            return Err(serde::Error::type_mismatch("object", v));
        };
        let tag = match obj.get("model") {
            Some(serde::Value::String(s)) => s.as_str(),
            _ => return Err(serde::Error::missing_field("model")),
        };
        let num = |key: &str| -> Result<f64, serde::Error> {
            match obj.get(key) {
                Some(serde::Value::Number(n)) => Ok(*n),
                _ => Err(serde::Error::missing_field(key)),
            }
        };
        match tag {
            "saturated" => Ok(TrafficModel::Saturated),
            "poisson" => Ok(TrafficModel::Poisson { rate: num("rate")? }),
            "fixed_backlog" => Ok(TrafficModel::FixedBacklog {
                // Saturating, NaN-safe: a malformed scenario value
                // (negative, huge, NaN) can't wrap into a bogus backlog.
                packets: round_to_usize(num("packets")?),
            }),
            other => Err(serde::Error::custom(format!(
                "unknown traffic model {other}"
            ))),
        }
    }
}

/// Closed-loop MAC/ARQ parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Offered-load process of every flow.
    pub traffic: TrafficModel,
    /// Retransmissions allowed after the first attempt; a packet is
    /// dropped after `1 + max_retries` failed attempts.
    pub max_retries: usize,
    /// Base backoff after a failed attempt, in slot periods; doubles
    /// per consecutive failure of the same packet.
    pub backoff_periods: u64,
    /// Exponential-backoff ceiling, in slot periods.
    pub backoff_cap_periods: u64,
    /// Airtime of an explicit link-layer ACK, in bit-times — charged
    /// per delivery on paths with no implicit ACK (traditional
    /// unicasts, serialized fallbacks). ANC/COPE broadcast forwards
    /// double as implicit ACKs (§7.6) and are free.
    pub ack_bits: usize,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            traffic: TrafficModel::Saturated,
            max_retries: 4,
            backoff_periods: 1,
            backoff_cap_periods: 8,
            ack_bits: 64,
        }
    }
}

impl ArqConfig {
    /// Builder-style traffic override.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> ArqConfig {
        self.traffic = traffic;
        self
    }
}

/// Verdict of a failed attempt (see [`DynamicScheduler::fail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArqVerdict {
    /// The packet stays at the head of the queue; the flow yields the
    /// medium (carrier-sense backoff) until the given period.
    Backoff {
        /// First period the flow may contend again.
        until_period: u64,
    },
    /// Retries exhausted: the packet was dropped from the queue after
    /// exactly `1 + max_retries` attempts.
    Dropped,
}

/// Lifetime counters of one flow's closed loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowArqStats {
    /// Packets that entered the queue.
    pub offered: usize,
    /// Packets acknowledged (delivered or implicitly ACKed).
    pub delivered: usize,
    /// Packets dropped after exhausting their retries.
    pub dropped: usize,
    /// Retransmission attempts (attempts beyond each packet's first).
    pub retransmissions: usize,
}

/// Per-flow queue + head-of-line ARQ state.
#[derive(Debug, Clone)]
struct FlowArq {
    /// Enqueue timestamps of pending packets; the head is in service.
    queue: VecDeque<f64>,
    /// Attempts made for the head packet (0 = untried).
    head_attempts: usize,
    /// First period the head may be attempted again.
    backoff_until: u64,
    stats: FlowArqStats,
}

impl FlowArq {
    fn new() -> FlowArq {
        FlowArq {
            queue: VecDeque::new(),
            head_attempts: 0,
            backoff_until: 0,
            stats: FlowArqStats::default(),
        }
    }
}

/// The dynamic closed-loop scheduler the engine consults each slot
/// period (see module docs).
#[derive(Debug, Clone)]
pub struct DynamicScheduler {
    cfg: ArqConfig,
    flows: Vec<FlowArq>,
}

/// Knuth's Poisson sampler over a caller-owned uniform stream.
fn poisson(rate: f64, mut uniform: impl FnMut() -> f64) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= uniform();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

impl DynamicScheduler {
    /// Creates the scheduler for `num_flows` flows.
    pub fn new(num_flows: usize, cfg: ArqConfig) -> DynamicScheduler {
        DynamicScheduler {
            cfg,
            flows: (0..num_flows).map(|_| FlowArq::new()).collect(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ArqConfig {
        &self.cfg
    }

    /// Draws this period's arrivals for one flow from the traffic
    /// model and enqueues them at timestamp `now` (the medium clock, in
    /// samples). `cap` bounds the run length for the open-ended models
    /// (saturated / Poisson); a fixed backlog carries its own length.
    /// `target` is the backlog a saturated source keeps materialized —
    /// 1 for stop-and-wait service, the pipeline window for batched
    /// chain service (conceptually the backlog is infinite; only what
    /// the server can lift per period needs to exist). Returns the
    /// number of packets that arrived.
    pub fn offer(
        &mut self,
        flow: usize,
        period: u64,
        now: f64,
        cap: usize,
        target: usize,
        uniform: impl FnMut() -> f64,
    ) -> usize {
        let f = &mut self.flows[flow];
        let n = match self.cfg.traffic {
            TrafficModel::FixedBacklog { packets } => {
                if period == 0 {
                    packets
                } else {
                    0
                }
            }
            TrafficModel::Saturated => {
                let remaining = cap.saturating_sub(f.stats.offered);
                target.max(1).saturating_sub(f.queue.len()).min(remaining)
            }
            TrafficModel::Poisson { rate } => {
                if f.stats.offered >= cap {
                    0
                } else {
                    poisson(rate, uniform).min(cap - f.stats.offered)
                }
            }
        };
        for _ in 0..n {
            f.queue.push_back(now);
        }
        f.stats.offered += n;
        n
    }

    /// `true` once the flow's source will never offer another packet.
    pub fn source_exhausted(&self, flow: usize, period: u64, cap: usize) -> bool {
        match self.cfg.traffic {
            TrafficModel::FixedBacklog { .. } => period > 0,
            TrafficModel::Poisson { rate } if rate <= 0.0 => true,
            TrafficModel::Saturated | TrafficModel::Poisson { .. } => {
                self.flows[flow].stats.offered >= cap
            }
        }
    }

    /// Whether a flow may contend for the medium this period: it has a
    /// head packet and is not backing off.
    pub fn ready(&self, flow: usize, period: u64) -> bool {
        let f = &self.flows[flow];
        !f.queue.is_empty() && period >= f.backoff_until
    }

    /// The flows that contend this period, rotated by period index so
    /// serialized (carrier-sensed) service is round-robin fair and
    /// still deterministic.
    pub fn contenders(&self, period: u64) -> Vec<usize> {
        contention_rotation(self.flows.len(), period)
            .filter(|&f| self.ready(f, period))
            .collect()
    }

    /// Begins an attempt for the flow's head packet; returns the
    /// attempt number (1 = first transmission). Attempts beyond the
    /// first count as retransmissions.
    ///
    /// # Panics
    /// Panics if the flow has no pending packet.
    pub fn begin_attempt(&mut self, flow: usize) -> usize {
        let f = &mut self.flows[flow];
        assert!(!f.queue.is_empty(), "attempt on an empty queue");
        f.head_attempts += 1;
        if f.head_attempts > 1 {
            f.stats.retransmissions += 1;
        }
        f.head_attempts
    }

    /// Acknowledges the head packet (explicit ACK or the §7.6 implicit
    /// forward copy): it leaves the queue. Returns its queueing+service
    /// latency `now − enqueue_time` (same clock units as `offer`'s
    /// `now`).
    ///
    /// # Panics
    /// Panics if the flow has no pending packet.
    pub fn ack(&mut self, flow: usize, now: f64) -> f64 {
        self.ack_nth(flow, 0, now)
    }

    /// Acknowledges the `idx`-th queued packet (0 = head). Batched
    /// chain service completes packets out of order when an older
    /// packet dies mid-pipeline while a younger one behind it reaches
    /// the destination; only the head carries ARQ attempt state, so
    /// acking a younger packet leaves the head's retry ledger intact.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn ack_nth(&mut self, flow: usize, idx: usize, now: f64) -> f64 {
        let f = &mut self.flows[flow];
        let enqueued = f.queue.remove(idx).expect("ack_nth index in range");
        if idx == 0 {
            f.head_attempts = 0;
            f.backoff_until = 0;
        }
        f.stats.delivered += 1;
        now - enqueued
    }

    /// Records a failed attempt: the flow backs off exponentially, or
    /// drops the head packet once `1 + max_retries` attempts are spent.
    ///
    /// # Panics
    /// Panics if the flow has no pending packet or no attempt was begun.
    pub fn fail(&mut self, flow: usize, period: u64) -> ArqVerdict {
        let max_attempts = 1 + self.cfg.max_retries;
        let f = &mut self.flows[flow];
        assert!(f.head_attempts >= 1, "fail without begin_attempt");
        if f.head_attempts >= max_attempts {
            debug_assert_eq!(f.head_attempts, max_attempts);
            f.queue.pop_front().expect("fail with an empty queue");
            f.head_attempts = 0;
            f.backoff_until = 0;
            f.stats.dropped += 1;
            return ArqVerdict::Dropped;
        }
        let exp = u32::try_from((f.head_attempts - 1).min(63)).expect("bounded by 63");
        let backoff = self
            .cfg
            .backoff_periods
            .saturating_mul(1u64 << exp.min(62))
            .min(self.cfg.backoff_cap_periods)
            .max(1);
        f.backoff_until = period + 1 + backoff;
        ArqVerdict::Backoff {
            until_period: f.backoff_until,
        }
    }

    /// Drops every pending packet of the flow (crash-and-recover churn
    /// with a drop-queue policy: the crashed node's buffer is gone).
    /// The purged packets count as dropped so the conservation
    /// invariant `offered == delivered + dropped + pending` survives
    /// the fault. Returns how many packets were purged.
    pub fn purge(&mut self, flow: usize) -> usize {
        let f = &mut self.flows[flow];
        let n = f.queue.len();
        f.queue.clear();
        f.head_attempts = 0;
        f.backoff_until = 0;
        f.stats.dropped += n;
        n
    }

    /// Whether the flow's head packet has been attempted before (the
    /// next transmission is a retransmission).
    pub fn is_retransmission(&self, flow: usize) -> bool {
        self.flows[flow].head_attempts > 0
    }

    /// Pending packets in the flow's queue.
    pub fn pending(&self, flow: usize) -> usize {
        self.flows[flow].queue.len()
    }

    /// `true` when no flow holds any pending packet.
    pub fn all_drained(&self) -> bool {
        self.flows.iter().all(|f| f.queue.is_empty())
    }

    /// The flow's lifetime counters.
    pub fn stats(&self, flow: usize) -> FlowArqStats {
        self.flows[flow].stats
    }
}

/// Round-robin contention order over `n` contenders at the given
/// period: indices `0..n` rotated so the head advances by one each
/// period. Deterministic and starvation-free — the election rule for
/// serialized (carrier-sensed) service, used by
/// [`DynamicScheduler::contenders`].
pub fn contention_rotation(n: usize, period: u64) -> impl Iterator<Item = usize> {
    let start = if n == 0 {
        0
    } else {
        usize::try_from(period % n as u64).expect("residue < n fits in usize")
    };
    (0..n).map(move |i| (start + i) % n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;

    fn sched(traffic: TrafficModel, max_retries: usize) -> DynamicScheduler {
        DynamicScheduler::new(
            2,
            ArqConfig {
                traffic,
                max_retries,
                backoff_periods: 1,
                backoff_cap_periods: 4,
                ack_bits: 64,
            },
        )
    }

    #[test]
    fn fixed_backlog_arrives_once() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 5 }, 2);
        assert_eq!(s.offer(0, 0, 0.0, 100, 1, || 0.5), 5);
        assert_eq!(s.offer(0, 1, 10.0, 100, 1, || 0.5), 0);
        assert_eq!(s.pending(0), 5);
        assert!(s.source_exhausted(0, 1, 100));
        assert!(!s.source_exhausted(0, 0, 100));
    }

    #[test]
    fn saturated_tops_up_one_packet_until_cap() {
        let mut s = sched(TrafficModel::Saturated, 0);
        for period in 0..3u64 {
            assert_eq!(s.offer(0, period, period as f64, 3, 1, || 0.5), 1);
            assert_eq!(s.pending(0), 1);
            s.begin_attempt(0);
            s.ack(0, period as f64 + 0.5);
        }
        assert!(s.source_exhausted(0, 3, 3));
        assert_eq!(s.offer(0, 3, 3.0, 3, 1, || 0.5), 0);
        assert_eq!(s.stats(0).offered, 3);
        assert_eq!(s.stats(0).delivered, 3);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut rng = DspRng::seed_from(11);
        let mut total = 0usize;
        let periods = 4000;
        let mut s = sched(TrafficModel::Poisson { rate: 0.7 }, 0);
        for period in 0..periods {
            total += s.offer(0, period, 0.0, usize::MAX, 1, || rng.uniform());
            // Drain so the queue never caps arrivals.
            while s.pending(0) > 0 {
                s.begin_attempt(0);
                s.ack(0, 0.0);
            }
        }
        let mean = total as f64 / periods as f64;
        assert!((mean - 0.7).abs() < 0.05, "Poisson mean {mean}");
    }

    #[test]
    fn dropped_after_exactly_one_plus_max_retries_attempts() {
        let max_retries = 3;
        let mut s = sched(TrafficModel::FixedBacklog { packets: 1 }, max_retries);
        s.offer(0, 0, 0.0, 1, 1, || 0.5);
        let mut attempts = 0;
        let mut period = 0u64;
        loop {
            assert!(s.ready(0, period), "head must be ready at {period}");
            attempts += s.begin_attempt(0) - attempts; // attempt number
            match s.fail(0, period) {
                ArqVerdict::Backoff { until_period } => {
                    assert!(until_period > period, "backoff must advance time");
                    period = until_period;
                }
                ArqVerdict::Dropped => break,
            }
        }
        assert_eq!(attempts, 1 + max_retries);
        assert_eq!(s.stats(0).dropped, 1);
        assert_eq!(s.stats(0).retransmissions, max_retries);
        assert!(s.all_drained());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 1 }, 10);
        s.offer(0, 0, 0.0, 1, 1, || 0.5);
        let mut period = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..5 {
            s.begin_attempt(0);
            match s.fail(0, period) {
                ArqVerdict::Backoff { until_period } => {
                    gaps.push(until_period - period - 1);
                    period = until_period;
                }
                ArqVerdict::Dropped => unreachable!("retries not exhausted"),
            }
        }
        assert_eq!(gaps, vec![1, 2, 4, 4, 4], "doubling, capped at 4");
    }

    #[test]
    fn backoff_gates_readiness_and_carrier_sense_set() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 1 }, 5);
        s.offer(0, 0, 0.0, 1, 1, || 0.5);
        s.offer(1, 0, 0.0, 1, 1, || 0.5);
        assert_eq!(s.contenders(0), vec![0, 1]);
        assert_eq!(s.contenders(1), vec![1, 0], "rotation is fair");
        s.begin_attempt(0);
        let ArqVerdict::Backoff { until_period } = s.fail(0, 0) else {
            panic!("expected backoff");
        };
        assert!(!s.ready(0, until_period - 1));
        assert_eq!(s.contenders(until_period - 1), vec![1]);
        assert!(s.ready(0, until_period));
    }

    #[test]
    fn ack_reports_latency_and_resets_head() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 2 }, 2);
        s.offer(0, 0, 100.0, 2, 1, || 0.5);
        s.begin_attempt(0);
        s.fail(0, 0);
        s.begin_attempt(0);
        assert!(s.is_retransmission(0));
        let latency = s.ack(0, 350.0);
        assert_eq!(latency, 250.0);
        assert!(!s.is_retransmission(0), "next head starts fresh");
        assert_eq!(s.stats(0).retransmissions, 1);
        assert_eq!(s.pending(0), 1);
    }

    #[test]
    fn saturated_materializes_the_requested_backlog() {
        // Batched chain service asks for a deeper materialized backlog
        // (the pipeline window); the source keeps the queue topped up
        // to it until the run-length cap runs out.
        let mut s = sched(TrafficModel::Saturated, 0);
        assert_eq!(s.offer(0, 0, 0.0, 10, 4, || 0.5), 4);
        assert_eq!(s.pending(0), 4);
        s.begin_attempt(0);
        s.ack(0, 1.0);
        assert_eq!(s.offer(0, 1, 1.0, 10, 4, || 0.5), 1, "top-up to 4");
        // Cap exhausts: 5 offered so far, cap 6 → only 1 more.
        s.begin_attempt(0);
        s.ack(0, 2.0);
        assert_eq!(s.offer(0, 2, 2.0, 6, 4, || 0.5), 1);
        assert_eq!(s.offer(0, 3, 3.0, 6, 4, || 0.5), 0);
        assert!(s.source_exhausted(0, 3, 6));
    }

    #[test]
    fn ack_nth_completes_out_of_order_and_keeps_head_retry_state() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 3 }, 3);
        s.offer(0, 0, 0.0, 3, 1, || 0.5);
        // Head fails once (it keeps its attempt count)…
        s.begin_attempt(0);
        s.fail(0, 0);
        assert!(s.is_retransmission(0));
        // …then the *second* packet completes out of order.
        let latency = s.ack_nth(0, 1, 50.0);
        assert_eq!(latency, 50.0);
        assert_eq!(s.pending(0), 2);
        assert!(s.is_retransmission(0), "head retry state survives");
        assert_eq!(s.stats(0).delivered, 1);
        // The head can still be failed through its normal ladder.
        s.begin_attempt(0);
        s.fail(0, 5);
        assert_eq!(s.stats(0).retransmissions, 1);
    }

    #[test]
    fn zero_rate_poisson_is_exhausted_immediately() {
        let s = sched(TrafficModel::Poisson { rate: 0.0 }, 0);
        assert!(s.source_exhausted(0, 0, 100));
    }

    #[test]
    fn conservation_offered_equals_delivered_dropped_pending() {
        let mut rng = DspRng::seed_from(3);
        let mut s = sched(TrafficModel::Poisson { rate: 0.9 }, 1);
        for period in 0..200u64 {
            for f in 0..2 {
                s.offer(f, period, period as f64, 40, 1, || rng.uniform());
                if s.ready(f, period) {
                    s.begin_attempt(f);
                    if rng.chance(0.6) {
                        s.ack(f, period as f64);
                    } else {
                        s.fail(f, period);
                    }
                }
            }
        }
        for f in 0..2 {
            let st = s.stats(f);
            assert_eq!(
                st.offered,
                st.delivered + st.dropped + s.pending(f),
                "flow {f} leaked packets"
            );
        }
    }

    #[test]
    fn traffic_model_serde_roundtrip() {
        use serde::{Deserialize as _, Serialize as _};
        for model in [
            TrafficModel::Saturated,
            TrafficModel::Poisson { rate: 0.35 },
            TrafficModel::FixedBacklog { packets: 12 },
        ] {
            let back = TrafficModel::from_value(&model.to_value()).unwrap();
            assert_eq!(back, model);
        }
        let cfg = ArqConfig::default().with_traffic(TrafficModel::Poisson { rate: 2.0 });
        let back = ArqConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn purge_counts_pending_as_dropped_and_resets_head() {
        let mut s = sched(TrafficModel::FixedBacklog { packets: 4 }, 3);
        s.offer(0, 0, 0.0, 4, 1, || 0.5);
        s.begin_attempt(0);
        s.fail(0, 0);
        assert!(s.is_retransmission(0));
        assert_eq!(s.purge(0), 4);
        assert_eq!(s.pending(0), 0);
        assert!(!s.is_retransmission(0), "head state resets on purge");
        let st = s.stats(0);
        assert_eq!(st.offered, st.delivered + st.dropped + s.pending(0));
        assert_eq!(st.dropped, 4);
        assert!(!s.ready(0, 0));
        assert_eq!(s.purge(0), 0, "purging an empty queue is a no-op");
    }

    #[test]
    #[should_panic]
    fn ack_on_empty_queue_panics() {
        let mut s = sched(TrafficModel::Saturated, 0);
        s.ack(0, 0.0);
    }
}
