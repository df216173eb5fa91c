//! # anc-frame — frame layout and coding substrate
//!
//! Fig. 6 of the paper gives the ANC frame: `Header (SrcID, DstID,
//! SeqNo) | Pilot Sequence | PAYLOAD`, and §7.4 adds that *"our packets
//! have the header and the pilot sequence both at the beginning and
//! end"* so that Bob — whose packet starts second in the interfered
//! reception — can decode backward from the tail. This crate owns:
//!
//! * [`header::Header`] — source, destination, sequence number, payload
//!   length, flags (the COPE baseline's XOR bit), plus serialization to
//!   bits.
//! * [`frame::Frame`] — build the full layout including the 64-bit
//!   pilot (§7.2), its mirrored tail copy, whitening of the payload
//!   (§6.2) and a CRC over the payload, and parse it back leniently
//!   (the CRC is reported, not enforced).
//! * [`fec`] — §11.2 charges ANC for the extra error-correction
//!   redundancy its higher BER needs (8 % in the paper); the throughput
//!   metrics apply that rule.
//! * [`buffer::SentPacketBuffer`] — §7.3's *Sent Packet Buffer*: copies
//!   of transmitted/overheard frames keyed by (src, dst, seqno), looked
//!   up via decoded headers to find the known signal for cancellation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod crc;
pub mod fec;
pub mod frame;
pub mod header;

pub use buffer::SentPacketBuffer;
pub use frame::{Frame, FrameConfig, FrameError};
pub use header::{Header, NodeId, PacketKey};
