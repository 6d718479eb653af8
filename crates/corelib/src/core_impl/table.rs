//! The builder's neuron table and a core's parameter tables.

use brainsim_neuron::{scalar_quiescent, DeterministicParams, NeuronConfig};

use super::EvalStrategy;
use crate::spike::Destination;

/// One parameter block per neuron, with a uniform population stored once.
///
/// The one shape of both of a core's parameter tables: its
/// [`NeuronConfig`]s (every core, dormant or not) and the fast path's
/// [`DeterministicParams`]. Cores are overwhelmingly programmed with one
/// parameter block for the whole population; storing that block once
/// costs one block where the per-neuron vector costs ~9 KiB on a
/// full-size core — and, as important for the tick path, it stops a cold
/// per-neuron allocation from sitting between consecutive cores' hot
/// membrane planes in memory.
#[derive(Debug, Clone)]
pub(super) enum ParamStore<P> {
    /// Every neuron shares this block.
    Uniform(P),
    /// Per-neuron blocks, index-aligned with the membrane plane.
    PerNeuron(Vec<P>),
}

impl<P: PartialEq> ParamStore<P> {
    /// Stores one block per neuron (`params` must be non-empty),
    /// collapsing a population that shares one block.
    pub(super) fn collapse(mut params: Vec<P>) -> ParamStore<P> {
        if params.windows(2).all(|pair| pair[0] == pair[1]) {
            ParamStore::Uniform(params.swap_remove(0))
        } else {
            ParamStore::PerNeuron(params)
        }
    }

    /// Neuron `index`'s block, whatever the storage.
    #[inline]
    pub(super) fn get(&self, index: usize) -> &P {
        match self {
            ParamStore::Uniform(p) => p,
            ParamStore::PerNeuron(v) => &v[index],
        }
    }

    /// The stored blocks: the one shared block, or one per neuron.
    fn blocks(&self) -> &[P] {
        match self {
            ParamStore::Uniform(p) => std::slice::from_ref(p),
            ParamStore::PerNeuron(v) => v,
        }
    }
}

impl ParamStore<NeuronConfig> {
    /// The fast path's parameters for a core of these configs under
    /// `strategy` (uniform populations collapse to one block), or `None`
    /// when the core runs the scalar phase-2 walk. This is the one place
    /// fast-path eligibility is decided: the scalar oracle never takes it,
    /// and a single stochastic neuron anywhere keeps the whole core off it
    /// (the LFSR draw order is global to the core).
    pub(super) fn fast_path(
        &self,
        strategy: EvalStrategy,
    ) -> Option<ParamStore<DeterministicParams>> {
        if strategy == EvalStrategy::Sparse {
            return None;
        }
        let params = self.blocks().iter().map(NeuronConfig::deterministic_params);
        Some(ParamStore::collapse(params.collect::<Option<Vec<_>>>()?))
    }

    /// Whether every neuron at rest (V = 0) is a zero-input fixed point:
    /// the settled flag of a core just built or reset.
    pub(super) fn quiescent_at_rest(&self) -> bool {
        self.blocks().iter().all(|c| scalar_quiescent(c, 0))
    }
}

impl ParamStore<DeterministicParams> {
    /// Whether phase 2 runs the vectorised population scan: one block
    /// shared by every neuron, and scan-safe.
    pub(super) fn scans(&self) -> bool {
        matches!(self, ParamStore::Uniform(p) if p.scan_safe())
    }
}

/// The builder's per-neuron programming table, with uniform-run
/// compression.
///
/// Sparse full-silicon workloads program thousands of structurally silent
/// cores by writing the *same* `(config, destination)` pair to every
/// neuron in index order. The table recognises that pattern and stores the
/// pair once — a 64×64 chip builder then holds a few hundred bytes per
/// quiescent core instead of ~25 KiB of identical parameter blocks — and
/// falls back to dense per-neuron vectors on the first write that breaks
/// the run.
#[derive(Debug, Clone)]
pub(super) enum NeuronTable {
    /// Neurons `0..programmed` hold `front`; the rest hold the default
    /// `back` pair (`NeuronConfig::default()`, [`Destination::Disabled`]).
    Uniform {
        front: Box<(NeuronConfig, Destination)>,
        back: Box<(NeuronConfig, Destination)>,
        programmed: usize,
    },
    /// Per-neuron storage.
    Dense {
        configs: Vec<NeuronConfig>,
        destinations: Vec<Destination>,
    },
}

impl NeuronTable {
    pub(super) fn new() -> NeuronTable {
        let default = (NeuronConfig::default(), Destination::Disabled);
        NeuronTable::Uniform {
            front: Box::new(default.clone()),
            back: Box::new(default),
            programmed: 0,
        }
    }

    /// Records one neuron programming, compressing uniform runs.
    pub(super) fn set(
        &mut self,
        index: usize,
        config: NeuronConfig,
        destination: Destination,
        n: usize,
    ) {
        if let NeuronTable::Uniform {
            front, programmed, ..
        } = self
        {
            let matches_front = front.0 == config && front.1 == destination;
            if *programmed == 0 && index == 0 {
                **front = (config, destination);
                *programmed = 1;
                return;
            }
            if matches_front && index <= *programmed {
                if index == *programmed {
                    *programmed += 1;
                }
                return;
            }
            self.densify(n);
        }
        if let NeuronTable::Dense {
            configs,
            destinations,
        } = self
        {
            configs[index] = config;
            destinations[index] = destination;
        }
    }

    /// Expands to per-neuron storage.
    fn densify(&mut self, n: usize) {
        let (configs, destinations) = self.expanded(n);
        *self = NeuronTable::Dense {
            configs,
            destinations,
        };
    }

    /// Every neuron's parameter block and destination, as per-neuron
    /// vectors of length `n`.
    pub(super) fn expanded(&self, n: usize) -> (Vec<NeuronConfig>, Vec<Destination>) {
        match self {
            NeuronTable::Uniform {
                front,
                back,
                programmed,
            } => (0..n)
                .map(|i| if i < *programmed { front } else { back })
                .map(|pair| (pair.0.clone(), pair.1))
                .unzip(),
            NeuronTable::Dense {
                configs,
                destinations,
            } => (configs.clone(), destinations.clone()),
        }
    }

    /// The single `(config, destination)` pair shared by *all* `n` neurons,
    /// if the table is provably uniform.
    pub(super) fn fully_uniform(&self, n: usize) -> Option<&(NeuronConfig, Destination)> {
        match self {
            NeuronTable::Uniform {
                front,
                back,
                programmed,
            } => {
                if *programmed == n || **front == **back {
                    Some(front)
                } else if *programmed == 0 {
                    Some(back)
                } else {
                    None
                }
            }
            NeuronTable::Dense { .. } => None,
        }
    }
}
