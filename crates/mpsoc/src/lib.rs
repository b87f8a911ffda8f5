//! # `mpsoc` — multiprocessor system-on-chip platform simulator
//!
//! The substrate for the reproduction of Wolf, *Multimedia Applications of
//! Multiprocessor Systems-on-Chips* (DATE 2005). The paper surveys the
//! application side; this crate supplies the *platform* side those
//! applications run on: heterogeneous processing elements ([`pe`]),
//! task-graph workloads ([`task`]), shared-bus and mesh-NoC interconnects
//! ([`interconnect`]), mapping heuristics ([`map`]), a deterministic
//! discrete-event scheduler ([`sched`]), an activity-based [`energy`]
//! model, and execution [`trace`]s.
//!
//! ## Fidelity
//!
//! The simulator is *task-level*, not cycle-accurate RTL: tasks carry
//! operation counts per operation class, PEs carry cycles-per-operation
//! tables, and transfers contend on the interconnect. That is the right
//! granularity for the paper's claims, which are about relative compute
//! structure (where the cycles go, how many PEs a workload needs, when the
//! interconnect saturates) rather than absolute silicon numbers.
//!
//! # Example
//!
//! ```
//! use mpsoc::platform::Platform;
//! use mpsoc::task::{OpCounts, TaskGraph};
//! use mpsoc::map::Mapping;
//! use mpsoc::sched::Simulator;
//!
//! // Two-stage pipeline on a 2-PE shared-bus platform.
//! let mut g = TaskGraph::new("pipeline");
//! let a = g.add_task("produce", OpCounts::new().with_int_alu(10_000), 0);
//! let b = g.add_task("consume", OpCounts::new().with_int_alu(10_000), 0);
//! g.add_edge(a, b, 4_096).unwrap();
//!
//! let platform = Platform::symmetric_bus("demo", 2, 200_000_000.0);
//! let mapping = Mapping::round_robin(&g, platform.pe_count());
//! let run = Simulator::new(&platform).run(&g, &mapping).unwrap();
//! assert!(run.makespan_s() > 0.0);
//! ```

pub mod energy;
pub mod headend;
pub mod interconnect;
pub mod map;
pub mod pe;
pub mod platform;
pub mod sched;
pub mod task;
pub mod trace;

pub use energy::EnergyReport;
pub use map::Mapping;
pub use platform::Platform;
pub use sched::{RunReport, Simulator};
pub use task::{OpCounts, TaskGraph, TaskId};
