//! # brainsim-noc
//!
//! The 2-D mesh network-on-chip that carries spike packets between
//! neurosynaptic cores.
//!
//! The design mirrors the silicon:
//!
//! * **Relative addressing** — a [`Packet`] carries a signed `(dx, dy)`
//!   offset that is decremented hop by hop; no global routing tables exist.
//! * **Dimension-order routing (DOR)** — packets exhaust `dx` (east/west)
//!   before turning to `dy` (north/south). DOR on a mesh admits no cyclic
//!   channel dependency, so the network is deadlock-free by construction
//!   (see [`Router`] docs); the conservation property (packets in = packets
//!   delivered, no loss, hops = |dx| + |dy|) is property-tested.
//! * **Bounded FIFOs with backpressure** — a hop only proceeds when the
//!   downstream input buffer has space; otherwise the packet stalls and
//!   latency accrues, which is what the saturation experiment (figure F4)
//!   measures.
//!
//! [`MeshNoc::cycle`] is a cycle-accurate simulation with contention, for
//! latency/saturation studies. The functional chip simulator does not use
//! this crate: under its deterministic tick barrier in-tick network timing
//! is unobservable, so it charges each spike the closed-form `|dx| + |dy|`
//! hops that DOR takes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod mesh;
mod packet;
mod router;

pub use mesh::{MeshNoc, NocConfig, NocInjectError, NocStats};
pub use packet::{Packet, PacketDecodeError};
pub use router::{Flit, Port, Router, RoutingOrder, PORTS};

// Re-export the fault vocabulary accepted by `MeshNoc::set_fault_injector`.
pub use brainsim_faults::{FaultInjector, FaultPlan, FaultStats, OverflowPolicy};
