//! The builder's neuron table and the fast path's parameter store.

use brainsim_neuron::{DeterministicParams, NeuronConfig};

use super::EvalStrategy;
use crate::spike::Destination;

/// Parameter storage for the struct-of-arrays fast path.
///
/// Cores are overwhelmingly programmed with one parameter block for the
/// whole population; storing that block once costs ~40 bytes where the
/// per-neuron vector costs ~10 KiB on a full-size core — and, as important
/// for the tick path, it stops a cold 10 KiB allocation from sitting
/// between consecutive cores' hot membrane planes in memory.
#[derive(Debug, Clone)]
pub(super) enum ParamStore {
    /// Every neuron shares this block.
    Uniform(DeterministicParams),
    /// Per-neuron blocks, index-aligned with the neuron array.
    PerNeuron(Vec<DeterministicParams>),
}

impl ParamStore {
    /// The fast path's parameters for a core of `configs` under `strategy`
    /// (uniform populations collapse to one block), or `None` when the
    /// core runs the scalar phase-2 walk. This is the one place fast-path
    /// eligibility is decided: the scalar oracle never takes it, and a
    /// single stochastic neuron anywhere keeps the whole core off it (the
    /// LFSR draw order is global to the core). `configs` must be non-empty.
    pub(super) fn fast_path(
        strategy: EvalStrategy,
        configs: &[NeuronConfig],
    ) -> Option<ParamStore> {
        if strategy == EvalStrategy::Sparse {
            return None;
        }
        let params = configs
            .iter()
            .map(NeuronConfig::deterministic_params)
            .collect::<Option<Vec<_>>>()?;
        Some(if params.windows(2).all(|pair| pair[0] == pair[1]) {
            ParamStore::Uniform(params[0])
        } else {
            ParamStore::PerNeuron(params)
        })
    }

    /// Whether phase 2 runs the vectorised population scan: one block
    /// shared by every neuron, and scan-safe.
    pub(super) fn scans(&self) -> bool {
        matches!(self, ParamStore::Uniform(p) if p.scan_safe())
    }

    /// Neuron `index`'s block, whatever the storage.
    #[inline]
    pub(super) fn get(&self, index: usize) -> &DeterministicParams {
        match self {
            ParamStore::Uniform(p) => p,
            ParamStore::PerNeuron(v) => &v[index],
        }
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
