//! # anc-node — software-radio node model
//!
//! §10 and Fig. 8 of the paper describe each node as a user-space
//! software radio: a TX chain (framer → modulator → RF) and an RX chain
//! (packet detector → interference classifier → {MSK demod | header
//! decode → matcher → ANC decode} → deframer). This crate realizes that
//! node, minus the USRP: samples go to/come from the simulated medium.
//!
//! * [`phy::TxChain`] / [`phy::RxChain`] — the Fig. 8 pipelines.
//! * [`block::synthesize`] — one transmission's pure synthesis job,
//!   run in the simulator's TX stage on the sender's borrowed node.
//! * [`mac::TriggerMac`] — the §7.6 random-delay draw: triggered
//!   neighbours transmit after the §7.2 random delay (slots + user-space
//!   jitter), which is what limits packet overlap to ≈ 80 % in the
//!   paper (§11.4).
//! * [`node::Node`] — queues, sent-packet buffer, role (endpoint,
//!   amplifying relay, decoding relay), and the poll-based interface
//!   the simulator drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod mac;
pub mod node;
pub mod phy;

pub use block::{synthesize, SynthJob, SynthSource};
pub use mac::{CsmaConfig, MacConfig, TriggerMac};
pub use node::{FrontEnd, Node, NodeConfig, NodeRole};
pub use phy::{RxChain, RxEvent, TxChain};
