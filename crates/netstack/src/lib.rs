//! # `netstack` — the small IP stack of Wolf's §7
//!
//! *"These devices can make use of the small IP stacks that have been
//! developed over the past several years"* — for limited purposes such as
//! content access or DRM. This crate is such a stack, simulated end to
//! end:
//!
//! * [`link`] — deterministic lossy/latency point-to-point link, with a
//!   bounded drop-tail queue (bufferbloat knob), Gilbert–Elliott bursty
//!   loss, and piecewise bandwidth/loss traces.
//! * [`packet`] — IP-style packets with checksums, fragmentation, and
//!   reassembly.
//! * [`udp`] — best-effort datagrams (the baseline of experiment E14).
//! * [`tcplite`] — reliable streams: cumulative-ACK, adaptive-RTO,
//!   congestion-controlled (fixed window, AIMD, or CUBIC-flavored).
//! * [`fetch`](mod@fetch) — named-object content access over TCP-lite (the DRM
//!   license path of the integration tests).
//!
//! # Example
//!
//! ```
//! use netstack::link::LinkConfig;
//! use netstack::tcplite::{transfer, TcpConfig};
//!
//! let data = vec![9u8; 4096];
//! let report = transfer(&data, TcpConfig::default(),
//!                       LinkConfig::default().with_loss(0.1), 7)?;
//! assert_eq!(report.data, data); // reliable despite loss
//! # Ok::<(), netstack::tcplite::TcpError>(())
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod fetch;
pub mod link;
pub mod packet;
pub mod tcplite;
pub mod udp;

pub use fetch::{fetch, fetch_traced, ContentServer, FetchError};
pub use link::{Link, LinkConfig, LinkTrace, LossModel, TracePhase};
pub use packet::{Addr, Packet, Protocol};
pub use tcplite::{transfer, CongestionControl, TcpConfig, TcpError, TransferReport};
