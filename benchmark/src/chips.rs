//! The five workloads that step chips directly: four solo chips from the
//! corpus shapes and one eight-lane batch.

use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

use brainsim_chip::{Chip, ChipBatch, TelemetryConfig};

use brainsim_serve::InjectCmd;

use crate::gen::{self, Fnv1a, NetDef, Stimulus};
use crate::run::{Check, Counts, Step, Twin, Workload};
use crate::trace::Tracer;

/// `def`'s chip on its own with `def`'s solo drive stream.
pub fn twin_of(def: NetDef, threads: usize) -> Twin {
    let mut stim = Stimulus::new(&def, 0);
    let drive = move |tick, cmds: &mut Vec<InjectCmd>| {
        stim.generate();
        cmds.extend(stim.words().map(|(x, y, word, bits)| InjectCmd {
            x,
            y,
            word,
            bits,
            target_tick: tick,
        }));
    };
    Twin::new(gen::build(&def, threads), Box::new(drive))
}

/// Names a corpus shape at the type level, so each solo workload is a
/// type of its own with its own constants.
pub trait Shape {
    /// The corpus entry.
    const DEF: NetDef;
    /// Whether the chip records telemetry (default configuration).
    const TELEMETRY: bool = false;
    /// See [`Workload::SETUPS`].
    const SETUPS: usize;
    /// See [`Workload::WINDOW`]; a tenth of it is the warm-up.
    const WINDOW: u64;
}

/// `dense_8x8`: synaptic integration does nearly all the work.
pub struct Dense8x8;
impl Shape for Dense8x8 {
    const DEF: NetDef = gen::DENSE_8X8;
    const SETUPS: usize = 20;
    const WINDOW: u64 = 500;
}

/// `nemo_64x64_edge`: active-core scheduling and sparse residency.
pub struct Edge64x64;
impl Shape for Edge64x64 {
    const DEF: NetDef = gen::NEMO_64X64_EDGE;
    const SETUPS: usize = 16;
    const WINDOW: u64 = 500;
}

/// `nemo_64x64_full`: one million neurons, memory bandwidth.
pub struct Full64x64;
impl Shape for Full64x64 {
    const DEF: NetDef = gen::NEMO_64X64_FULL;
    const SETUPS: usize = 5;
    const WINDOW: u64 = 100;
}

/// `telemetry_32x32_sparse`: the same tick path with telemetry recording.
pub struct Telemetry32x32;
impl Shape for Telemetry32x32 {
    const DEF: NetDef = gen::NEMO_32X32_SPARSE;
    const TELEMETRY: bool = true;
    const SETUPS: usize = 50;
    const WINDOW: u64 = 5000;
}

/// A solo-chip workload over shape `S`: what `chip.*` spans wrap.
pub struct Solo<S> {
    def: NetDef,
    chip: Chip,
    stim: Stimulus,
    hash: Fnv1a,
    cores_evaluated: u64,
    salt: u32,
    shape: PhantomData<S>,
}

impl<S: Shape> Workload for Solo<S> {
    const SETUPS: usize = S::SETUPS;
    const STARTS: usize = 0;
    const WARMUP: u64 = S::WINDOW / 10;
    const WINDOW: u64 = S::WINDOW;

    fn start(salt: u32, _state_root: &Path, tr: &mut Tracer) -> Self {
        let def = S::DEF.salted(salt);
        let mut chip = tr.span("chip.build", |_| gen::build(&def, 1));
        if S::TELEMETRY {
            chip.enable_telemetry(TelemetryConfig::default());
        }
        let mut w = Solo {
            stim: Stimulus::new(&def, 0),
            def,
            chip,
            hash: Fnv1a::default(),
            cores_evaluated: 0,
            salt,
            shape: PhantomData,
        };
        w.step(tr);
        w
    }

    /// Steps up to the end of the corpus's pinned window; the checksum is
    /// the corpus's: every tick so far, then the census.
    fn conform(&mut self, tr: &mut Tracer) -> Check {
        while self.chip.now() < self.def.pin_ticks {
            self.step(tr);
        }
        let census = tr.span("chip.census", |_| self.chip.census());
        let checksum = self.hash.with_census(&census);
        Check {
            checksum,
            ok: self
                .def
                .expected(self.salt)
                .is_none_or(|pin| pin == checksum),
        }
    }

    /// Generates one tick's stimulus (untimed), then injects it and ticks
    /// (timed), folding the tick's raster into the running checksum.
    fn step(&mut self, tr: &mut Tracer) -> Step {
        tr.span("stimulus.generate", |_| self.stim.generate());
        let now = self.chip.now();
        let mut step = Step::default();
        let began = Instant::now();
        tr.span("chip.inject", |_| {
            for (x, y, word, bits) in self.stim.words() {
                step.attempted += 1;
                step.failed += u64::from(self.chip.inject_word(x, y, word, bits, now).is_err());
            }
        });
        let ticked = tr.span("chip.tick", |_| self.chip.try_tick());
        step.nanos = began.elapsed().as_nanos() as u64;
        step.attempted += 1;
        match ticked {
            Ok(summary) => {
                step.ticks = 1;
                self.cores_evaluated += summary.cores_evaluated;
                self.hash.write_tick(&summary);
            }
            Err(_) => step.failed += 1,
        }
        step
    }

    fn counts(&self) -> Counts {
        let census = self.chip.census();
        Counts {
            ticks: census.ticks,
            spikes: census.spikes,
            synaptic_events: census.synaptic_events,
            hops: census.hops,
            cores_evaluated: self.cores_evaluated,
            checkpoints: 0,
        }
    }

    fn twin(salt: u32, threads: usize) -> Twin {
        twin_of(S::DEF.salted(salt), threads)
    }
}

/// Lanes of the batch workload.
pub const LANES: usize = 8;

/// `batch8_64x64_edge`: eight replicas of the edge chip, each under its
/// own drive stream, stepped through `ChipBatch`.
pub struct Batch8 {
    def: NetDef,
    batch: ChipBatch,
    stims: Vec<Stimulus>,
    hashes: Vec<Fnv1a>,
    cores_evaluated: u64,
    salt: u32,
}

impl Workload for Batch8 {
    const SETUPS: usize = 8;
    const STARTS: usize = 0;
    const WARMUP: u64 = 10;
    const WINDOW: u64 = 100;

    fn start(salt: u32, _state_root: &Path, tr: &mut Tracer) -> Self {
        let def = gen::NEMO_64X64_EDGE.salted(salt);
        let batch = tr.span("batch.build", |tr| {
            let proto = tr.span("chip.build", |_| gen::build(&def, 1));
            ChipBatch::new_replicas(&proto, LANES).expect("lane count is in 1..=64")
        });
        let mut w = Batch8 {
            stims: (0..LANES).map(|lane| Stimulus::new(&def, lane)).collect(),
            hashes: vec![Fnv1a::default(); LANES],
            def,
            batch,
            cores_evaluated: 0,
            salt,
        };
        w.step(tr);
        w
    }

    fn conform(&mut self, tr: &mut Tracer) -> Check {
        while self.batch.now() < self.def.pin_ticks {
            self.step(tr);
        }
        let lanes: Vec<u64> = (0..LANES)
            .map(|lane| self.hashes[lane].with_census(&self.batch.lane(lane).census()))
            .collect();
        let mut all = Fnv1a::default();
        for &lane in &lanes {
            all.write(lane);
        }
        Check {
            checksum: all.finish(),
            // Lane 0 consumes the solo drive stream, so it owes the pin.
            ok: self
                .def
                .expected(self.salt)
                .is_none_or(|pin| pin == lanes[0]),
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        tr.span("stimulus.generate", |_| {
            for stim in &mut self.stims {
                stim.generate();
            }
        });
        let now = self.batch.now();
        let mut step = Step::default();
        let began = Instant::now();
        tr.span("batch.inject", |_| {
            for (lane, stim) in self.stims.iter().enumerate() {
                for (x, y, word, bits) in stim.words() {
                    step.attempted += 1;
                    let refused = self.batch.inject_word(lane, x, y, word, bits, now).is_err();
                    step.failed += u64::from(refused);
                }
            }
        });
        let ticked = tr.span("batch.tick", |_| self.batch.try_tick());
        step.nanos = began.elapsed().as_nanos() as u64;
        step.attempted += 1;
        match ticked {
            Ok(summaries) => {
                step.ticks = LANES as u64;
                for (hash, summary) in self.hashes.iter_mut().zip(&summaries) {
                    self.cores_evaluated += summary.cores_evaluated;
                    hash.write_tick(summary);
                }
            }
            Err(_) => step.failed += 1,
        }
        step
    }

    fn counts(&self) -> Counts {
        let mut counts = Counts {
            cores_evaluated: self.cores_evaluated,
            ..Counts::default()
        };
        for lane in 0..LANES {
            let census = self.batch.lane(lane).census();
            counts.ticks += census.ticks;
            counts.spikes += census.spikes;
            counts.synaptic_events += census.synaptic_events;
            counts.hops += census.hops;
        }
        counts
    }

    fn twin(salt: u32, threads: usize) -> Twin {
        twin_of(gen::NEMO_64X64_EDGE.salted(salt), threads)
    }
}
