//! # jetty-sim — a bus-based SMP cache-coherence substrate
//!
//! The simulation substrate for the JETTY reproduction: a trace-driven,
//! count-based model of the paper's evaluation platform (§4.1) —
//! a 4-way (or 8-way) SMP where each node has a 64 KB direct-mapped L1,
//! a 1 MB direct-mapped L2 with 64-byte blocks of two 32-byte subblocks,
//! a small writeback buffer, and subblock-grain coherence over an atomic
//! snoopy bus. The coherence protocol is a configuration value
//! ([`ProtocolKind`]): the paper's MOESI is the default, with MESI and MSI
//! opening the protocol axis as a sweepable scenario dimension.
//!
//! The paper used the Wisconsin Wind Tunnel II executing SPLASH-2 binaries;
//! JETTY only observes the *bus reference stream* and the *local cache
//! contents*, so a trace-driven simulator exercises the identical code
//! path: snoop → writeback-buffer probe → filter probe → L2 tag probe →
//! protocol reaction. Synthetic traces calibrated to the paper's
//! per-workload statistics come from the `jetty-workloads` crate.
//!
//! ## Quick start
//!
//! ```
//! use jetty_core::FilterSpec;
//! use jetty_sim::{MemRef, Op, System, SystemConfig};
//!
//! // A 4-way SMP with the paper's best hybrid filter on every node.
//! let spec = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4);
//! let mut smp = System::new(SystemConfig::paper_4way(), &[spec]);
//!
//! // CPU 0 produces, CPU 1 consumes.
//! smp.access(0, Op::Write, 0x1000);
//! smp.access(1, Op::Read, 0x1000);
//! // CPUs 2 and 3 never see the data; their snoops were filterable.
//! let report = &smp.filter_reports()[0];
//! assert!(report.would_miss > 0);
//! ```
//!
//! ## Verification
//!
//! With [`CheckLevel::Full`] (the default) the system asserts, after every
//! transaction: the protocol's single-writer and state-subset invariants,
//! L1⊆L2 inclusion, version-exact data coherence (every load observes the
//! newest store), and — at all check levels — that no filter ever filters
//! a snoop to a cached unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod config;
mod gate;
mod l1;
mod l2;
mod moesi;
pub mod protocol;
mod stats;
mod system;
mod trace;
mod wb;

pub use bus::{BusKind, SnoopResponse};
pub use config::{CheckLevel, L1Config, L2Config, SystemConfig};
pub use gate::{GateStop, RunGate};
pub use l1::{L1Cache, L1Lookup, L1Victim};
pub use l2::{EvictedUnit, L2Cache};
pub use moesi::Moesi;
pub use protocol::{ProtocolKind, ReadReaction};
pub use stats::{NodeStats, RunStats, SystemStats};
pub use system::{AccessOutcome, FilterReport, System};
pub use trace::{MemRef, Op};
pub use wb::{WbEntry, WritebackBuffer};
