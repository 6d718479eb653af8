//! The builder's neuron table and a core's parameter tables.

use brainsim_neuron::{scalar_quiescent, DeterministicParams, NeuronConfig};

use crate::spike::RouteWord;

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
    /// The fast path's parameters for a core of these configs (uniform
    /// populations collapse to one block), or `None` when the core runs the
    /// scalar phase-2 walk. This is the one place fast-path eligibility is
    /// decided: a single stochastic neuron anywhere keeps the whole core off
    /// it (the LFSR draw order is global to the core).
    pub(super) fn fast_path(&self) -> Option<ParamStore<DeterministicParams>> {
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

/// The builder's per-neuron programming table: the parameter blocks and
/// the route words, each its own [`Column`].
///
/// The columns compress independently. A structured core writes one shared
/// config with a distinct destination per neuron: its route column
/// densifies while its config column stays one block, instead of 256
/// copies of it (~9 KiB per full-size core), and [`CoreBuilder::build`]
/// takes the core's uniform parameter table straight from the column and
/// moves the dense route column into the core.
/// Sparse full-silicon workloads program thousands of structurally silent
/// cores with the *same* config and destination for every neuron, in index
/// order; both columns stay runs, and the core is a dormancy candidate.
///
/// [`CoreBuilder::build`]: super::CoreBuilder::build
#[derive(Debug, Clone)]
pub(super) struct NeuronTable {
    /// Every neuron's parameter block.
    pub(super) configs: Column<NeuronConfig>,
    /// Every neuron's spike destination, compiled.
    pub(super) routes: Column<RouteWord>,
}

impl NeuronTable {
    /// Every neuron at the default config and [`RouteWord::DISABLED`].
    pub(super) fn new() -> NeuronTable {
        NeuronTable {
            configs: Column::new(NeuronConfig::default()),
            routes: Column::new(RouteWord::DISABLED),
        }
    }

    /// Records one neuron programming of a core of `n` neurons.
    pub(super) fn set(&mut self, index: usize, config: NeuronConfig, route: RouteWord, n: usize) {
        self.configs.set(index, config, n);
        self.routes.set(index, route, n);
    }
}

/// One column of the builder's [`NeuronTable`], with uniform-run
/// compression: writes of one value in index order from neuron 0 are
/// stored once, and the first write that breaks the run expands the column
/// to one value per neuron.
#[derive(Debug, Clone)]
pub(super) enum Column<T> {
    /// Neurons `0..programmed` hold `front`; the rest hold the column's
    /// default, `back`.
    Run {
        front: T,
        back: T,
        programmed: usize,
    },
    /// One value per neuron.
    Dense(Vec<T>),
}

impl<T: Clone + PartialEq> Column<T> {
    fn new(default: T) -> Column<T> {
        Column::Run {
            front: default.clone(),
            back: default,
            programmed: 0,
        }
    }

    /// Records neuron `index`'s value, extending or breaking the run.
    fn set(&mut self, index: usize, value: T, n: usize) {
        if let Column::Run {
            front, programmed, ..
        } = self
        {
            if *programmed == 0 && index == 0 {
                *front = value;
                *programmed = 1;
                return;
            }
            if *front == value && index <= *programmed {
                if index == *programmed {
                    *programmed += 1;
                }
                return;
            }
            let run = std::mem::replace(self, Column::Dense(Vec::new()));
            *self = Column::Dense(run.into_expanded(n));
        }
        if let Column::Dense(values) = self {
            values[index] = value;
        }
    }

    /// Every neuron's value, one per neuron, for `n` neurons: a dense
    /// column moves out as it is.
    pub(super) fn into_expanded(self, n: usize) -> Vec<T> {
        match self {
            Column::Run {
                front,
                back,
                programmed,
            } => (0..n)
                .map(|i| if i < programmed { &front } else { &back })
                .cloned()
                .collect(),
            Column::Dense(values) => values,
        }
    }

    /// The single value shared by *all* `n` neurons, if the column is a
    /// provably uniform run.
    pub(super) fn uniform(&self, n: usize) -> Option<&T> {
        match self {
            Column::Run {
                front,
                back,
                programmed,
            } => {
                if *programmed == n || front == back {
                    Some(front)
                } else if *programmed == 0 {
                    Some(back)
                } else {
                    None
                }
            }
            Column::Dense(_) => None,
        }
    }

    /// The column as a core's parameter table: a uniform run is stored
    /// once as it is, anything else is expanded and collapsed.
    pub(super) fn into_store(self, n: usize) -> ParamStore<T> {
        match self.uniform(n) {
            Some(value) => ParamStore::Uniform(value.clone()),
            None => ParamStore::collapse(self.into_expanded(n)),
        }
    }
}
