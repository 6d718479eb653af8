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
//! Two usage modes:
//!
//! * [`MeshNoc::cycle`] — cycle-accurate simulation with contention, for
//!   latency/saturation studies;
//! * [`route_hops`] — the closed-form hop count used by the functional chip
//!   simulator, where the deterministic tick barrier makes in-tick network
//!   timing unobservable.

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

/// Closed-form number of mesh hops a packet with the given offset travels
/// under dimension-order routing (one hop per traversed link; 0 for a
/// core-local delivery).
pub fn route_hops(dx: i32, dy: i32) -> u32 {
    dx.unsigned_abs() + dy.unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_is_manhattan_distance() {
        assert_eq!(route_hops(0, 0), 0);
        assert_eq!(route_hops(3, -2), 5);
        assert_eq!(route_hops(-7, 7), 14);
    }
}
