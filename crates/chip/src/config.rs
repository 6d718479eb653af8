//! Chip-level configuration.

/// Multi-chip tiling: the core grid is divided into tiles of
/// `width × height` cores, each tile modelling one physical chip. Packets
/// crossing a tile boundary traverse the serialised peripheral link:
/// each boundary crossing adds `link_latency` ticks of delivery delay and
/// one link-crossing event to the energy census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Tile width in cores.
    pub width: usize,
    /// Tile height in cores.
    pub height: usize,
    /// Extra delivery latency per boundary crossing, ticks.
    pub link_latency: u8,
}

/// Static parameters of a chip instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipConfig {
    /// Cores per row.
    pub width: usize,
    /// Cores per column.
    pub height: usize,
    /// Axons per core (256 on the silicon).
    pub core_axons: usize,
    /// Neurons per core (256 on the silicon).
    pub core_neurons: usize,
    /// Base LFSR seed; core `(x, y)` is seeded with a value derived from it.
    pub seed: u32,
    /// Most shards a tick's evaluation is cut into, after clamping to the
    /// host's available parallelism and to at least 1. Each shard ticks its
    /// cores and routes the spikes they fire. One shard runs inline on the
    /// ticking thread, more on scoped threads via [`crate::run_shards`];
    /// results are bit-identical at every count.
    pub threads: usize,
    /// Multi-chip tiling, if the grid spans several physical chips.
    pub tile: Option<TileConfig>,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            width: 4,
            height: 4,
            core_axons: 256,
            core_neurons: 256,
            seed: 0x5EED_C0DE,
            threads: 1,
            tile: None,
        }
    }
}

impl ChipConfig {
    /// The tile index of core `(x, y)` (both zero when untiled).
    pub fn tile_of(&self, x: usize, y: usize) -> (usize, usize) {
        match self.tile {
            Some(t) => (x / t.width.max(1), y / t.height.max(1)),
            None => (0, 0),
        }
    }

    /// Number of tile-boundary crossings between two cores under
    /// dimension-order routing (0 when untiled or same tile).
    pub fn crossings(&self, from: (usize, usize), to: (usize, usize)) -> u32 {
        let a = self.tile_of(from.0, from.1);
        let b = self.tile_of(to.0, to.1);
        (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as u32
    }
}

impl ChipConfig {
    /// Total number of cores.
    pub fn cores(&self) -> usize {
        self.width * self.height
    }

    /// Total number of neurons.
    pub fn neurons(&self) -> usize {
        self.cores() * self.core_neurons
    }

    /// Total number of programmable synapses (crossbar bits).
    pub fn synapses(&self) -> u64 {
        self.cores() as u64 * self.core_axons as u64 * self.core_neurons as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(ChipConfig::default().threads, 1);
    }

    #[test]
    fn totals() {
        let c = ChipConfig {
            width: 64,
            height: 64,
            core_axons: 256,
            core_neurons: 256,
            ..ChipConfig::default()
        };
        assert_eq!(c.cores(), 4096);
        assert_eq!(c.neurons(), 1_048_576);
        assert_eq!(c.synapses(), 268_435_456);
    }
}
