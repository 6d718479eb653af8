//! A single 5-port mesh router.

use std::collections::VecDeque;

use crate::packet::Packet;

/// Dimension order of the deterministic route.
///
/// Both orders are deadlock-free on a mesh (each admits only one turn
/// class); they differ in which links congest under asymmetric traffic —
/// the routing ablation of the NoC experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RoutingOrder {
    /// Exhaust `dx` before `dy` (the silicon's order).
    #[default]
    XThenY,
    /// Exhaust `dy` before `dx`.
    YThenX,
}

/// Number of router ports.
pub const PORTS: usize = 5;

/// A router port. `Local` connects to the core; the four compass ports
/// connect to neighbouring routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Port {
    /// The attached core.
    Local = 0,
    /// +x neighbour.
    East = 1,
    /// −x neighbour.
    West = 2,
    /// +y neighbour.
    North = 3,
    /// −y neighbour.
    South = 4,
}

impl Port {
    /// All ports in index order.
    pub const ALL: [Port; PORTS] = [
        Port::Local,
        Port::East,
        Port::West,
        Port::North,
        Port::South,
    ];

    /// The array index of the port.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A packet in flight with its bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet (offsets are decremented as it travels).
    pub packet: Packet,
    /// Mesh cycle at which the packet was injected.
    pub injected_at: u64,
    /// Links traversed so far.
    pub hops: u32,
}

/// One mesh router: five bounded input FIFOs and a dimension-order routing
/// function.
///
/// **Deadlock freedom.** Dimension-order routing permits only X→Y turns.
/// Orienting each unidirectional channel by its dimension and direction, any
/// waits-for cycle would need a Y→X turn to close; DOR never makes one, so
/// the channel dependency graph is acyclic and the mesh cannot deadlock,
/// regardless of buffer sizes.
#[derive(Debug, Clone)]
pub struct Router {
    inputs: [VecDeque<Flit>; PORTS],
    capacity: usize,
    /// Round-robin arbitration pointer per output port.
    rr: [usize; PORTS],
}

impl Router {
    /// Creates a router whose input FIFOs hold `capacity` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Router {
        assert!(capacity > 0, "router FIFO capacity must be non-zero");
        Router {
            inputs: Default::default(),
            capacity,
            rr: [0; PORTS],
        }
    }

    /// The FIFO capacity per input port.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The dimension-order output port for a packet at this router.
    pub fn route(packet: &Packet) -> Port {
        Router::route_ordered(packet, RoutingOrder::XThenY)
    }

    /// The output port under an explicit dimension order.
    pub fn route_ordered(packet: &Packet, order: RoutingOrder) -> Port {
        let (first, second) = match order {
            RoutingOrder::XThenY => (
                (packet.dx, Port::East, Port::West),
                (packet.dy, Port::North, Port::South),
            ),
            RoutingOrder::YThenX => (
                (packet.dy, Port::North, Port::South),
                (packet.dx, Port::East, Port::West),
            ),
        };
        for (delta, positive, negative) in [first, second] {
            if delta > 0 {
                return positive;
            }
            if delta < 0 {
                return negative;
            }
        }
        Port::Local
    }

    /// Whether the input FIFO of `port` has space.
    pub fn can_accept(&self, port: Port) -> bool {
        self.inputs[port.index()].len() < self.capacity
    }

    /// Pushes a flit into the input FIFO of `port`.
    ///
    /// Returns `false` (leaving the flit untaken) if the FIFO is full.
    pub fn accept(&mut self, port: Port, flit: Flit) -> bool {
        let queue = &mut self.inputs[port.index()];
        if queue.len() >= self.capacity {
            return false;
        }
        queue.push_back(flit);
        true
    }

    /// Pops the oldest flit of one input FIFO, regardless of routing.
    ///
    /// Used by fault injection's `DropOldest` overflow policy to evict the
    /// head of a full queue; returns `None` when the queue is empty.
    pub fn evict_oldest(&mut self, port: Port) -> Option<Flit> {
        self.inputs[port.index()].pop_front()
    }

    /// Occupancy of one input FIFO.
    pub fn occupancy(&self, port: Port) -> usize {
        self.inputs[port.index()].len()
    }

    /// Total flits buffered in this router.
    pub fn buffered(&self) -> usize {
        self.inputs.iter().map(VecDeque::len).sum()
    }

    /// Selects (and pops) one flit destined for `output`, arbitrating
    /// round-robin across input ports. Returns `None` if no buffered flit
    /// wants that output.
    pub fn arbitrate(&mut self, output: Port) -> Option<Flit> {
        self.arbitrate_ordered(output, RoutingOrder::XThenY)
    }

    /// [`Router::arbitrate`] under an explicit dimension order.
    pub fn arbitrate_ordered(&mut self, output: Port, order: RoutingOrder) -> Option<Flit> {
        let start = self.rr[output.index()];
        for k in 0..PORTS {
            let input = (start + k) % PORTS;
            if let Some(front) = self.inputs[input].front() {
                if Router::route_ordered(&front.packet, order) == output {
                    self.rr[output.index()] = (input + 1) % PORTS;
                    return self.inputs[input].pop_front();
                }
            }
        }
        None
    }

    /// Peeks whether some buffered flit wants `output` (without popping).
    pub fn wants(&self, output: Port) -> bool {
        self.wants_ordered(output, RoutingOrder::XThenY)
    }

    /// [`Router::wants`] under an explicit dimension order.
    pub fn wants_ordered(&self, output: Port, order: RoutingOrder) -> bool {
        self.inputs
            .iter()
            .filter_map(VecDeque::front)
            .any(|f| Router::route_ordered(&f.packet, order) == output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(dx: i16, dy: i16) -> Flit {
        Flit {
            packet: Packet::new(dx, dy, 0, 1).unwrap(),
            injected_at: 0,
            hops: 0,
        }
    }

    #[test]
    fn dor_exhausts_x_before_y() {
        assert_eq!(Router::route(&flit(3, 2).packet), Port::East);
        assert_eq!(Router::route(&flit(-1, 2).packet), Port::West);
        assert_eq!(Router::route(&flit(0, 2).packet), Port::North);
        assert_eq!(Router::route(&flit(0, -5).packet), Port::South);
        assert_eq!(Router::route(&flit(0, 0).packet), Port::Local);
    }

    #[test]
    fn yx_order_exhausts_y_first() {
        use super::RoutingOrder::YThenX;
        assert_eq!(
            Router::route_ordered(&flit(3, 2).packet, YThenX),
            Port::North
        );
        assert_eq!(
            Router::route_ordered(&flit(3, -2).packet, YThenX),
            Port::South
        );
        assert_eq!(
            Router::route_ordered(&flit(3, 0).packet, YThenX),
            Port::East
        );
        assert_eq!(
            Router::route_ordered(&flit(-3, 0).packet, YThenX),
            Port::West
        );
        assert_eq!(
            Router::route_ordered(&flit(0, 0).packet, YThenX),
            Port::Local
        );
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Router::new(2);
        assert!(r.accept(Port::Local, flit(1, 0)));
        assert!(r.accept(Port::Local, flit(1, 0)));
        assert!(!r.accept(Port::Local, flit(1, 0)));
        assert!(!r.can_accept(Port::Local));
        assert!(r.can_accept(Port::East));
        assert_eq!(r.buffered(), 2);
    }

    #[test]
    fn arbitration_is_round_robin() {
        let mut r = Router::new(4);
        // Two inputs both want East.
        r.accept(Port::Local, flit(5, 0));
        r.accept(Port::West, flit(3, 0));
        let first = r.arbitrate(Port::East).unwrap();
        let second = r.arbitrate(Port::East).unwrap();
        assert_ne!(first.packet.dx, second.packet.dx);
        assert!(r.arbitrate(Port::East).is_none());
    }

    #[test]
    fn arbitrate_skips_flits_for_other_outputs() {
        let mut r = Router::new(4);
        r.accept(Port::Local, flit(0, 3)); // wants North
        assert!(r.arbitrate(Port::East).is_none());
        assert!(r.wants(Port::North));
        assert!(r.arbitrate(Port::North).is_some());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Router::new(0);
    }
}
