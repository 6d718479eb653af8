//! The two workloads that go through `serve::Fleet`: whole tenant
//! lifecycles (corelet → compile → admit → rounds → evict) and eight
//! long-lived tenants served round after round.

use std::path::Path;
use std::time::Instant;

use brainsim_compiler::{compile, CompileOptions, CompiledNetwork};
use brainsim_corelet::{connectors, Corelet, NodeRef};
use brainsim_neuron::{Lfsr, NeuronConfig};
use brainsim_serve::{Fleet, InjectCmd, ServeConfig, SessionMetrics};

use crate::gen::{self, Fnv1a, NetDef};
use crate::run::{Check, Counts, StateDir, Step, Twin, Workload};
use crate::trace::Tracer;

/// The checksum a `serve` session keeps: FNV-1a over the little-endian
/// bytes of each tick number and of that tick's output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHash(pub u64);

impl Default for SessionHash {
    fn default() -> Self {
        SessionHash(0xCBF2_9CE4_8422_2325)
    }
}

impl SessionHash {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one tick's observable output.
    pub fn fold_tick(&mut self, tick: u64, outputs: &[u32]) {
        self.bytes(&tick.to_le_bytes());
        for port in outputs {
            self.bytes(&port.to_le_bytes());
        }
    }
}

/// Runs a twin for `ticks` ticks and returns the checksum a fleet session
/// driven the same way must report.
fn served_checksum(mut twin: Twin, ticks: u64) -> u64 {
    let mut hash = SessionHash::default();
    let mut untraced = Tracer::new(false);
    for _ in 0..ticks {
        let (summary, ..) = twin.tick(&mut untraced);
        hash.fold_tick(summary.tick, &summary.outputs);
    }
    hash.0
}

/// What of a session's counters counts as failed operations.
fn session_failures(m: &SessionMetrics) -> u64 {
    m.stale_dropped + m.inject_rejected + m.checkpoint_failures + m.panics
}

fn session_counts(m: &SessionMetrics) -> Counts {
    Counts {
        ticks: m.ticks,
        spikes: m.spikes,
        // A session meters `cores_evaluated + spikes` per tick.
        cores_evaluated: m.cost_units - m.spikes,
        checkpoints: m.checkpoints_written,
        ..Counts::default()
    }
}

fn add(total: &mut Counts, one: &Counts) {
    total.ticks += one.ticks;
    total.spikes += one.spikes;
    total.cores_evaluated += one.cores_evaluated;
    total.checkpoints += one.checkpoints;
}

/// Rounds one lifecycle serves before its tenant is evicted.
const LIFECYCLE_ROUNDS: u64 = 8;

/// One word of Bernoulli drive per tick, walking the compiled grid.
struct LifecycleDrive {
    noise: Lfsr,
    width: usize,
    cores: usize,
}

impl LifecycleDrive {
    fn new(salt: u32, compiled: &CompiledNetwork) -> LifecycleDrive {
        let config = compiled.chip().config();
        LifecycleDrive {
            noise: Lfsr::new(0x11FE_C7C1 ^ salt),
            width: config.width,
            cores: config.cores(),
        }
    }

    fn tick(&mut self, tick: u64, cmds: &mut Vec<InjectCmd>) {
        let core = tick as usize % self.cores;
        cmds.push(InjectCmd {
            x: core % self.width,
            y: core / self.width,
            word: 0,
            bits: self.noise.bernoulli_mask(96, 64) | 1,
            target_tick: tick,
        });
    }
}

/// A tenant between admission and eviction, in a fleet of its own: a
/// fleet never reuses a slot, so one kept across lifecycles would grow with
/// their number, and the run's peak memory with its speed.
struct Admitted {
    fleet: Fleet,
    drive: LifecycleDrive,
}

/// `lifecycle_compile`: every step builds a recurrent corelet, compiles it
/// with default annealing, admits it to a fleet, serves eight rounds and
/// evicts it. Ticking is a small part of the step.
pub struct Lifecycle {
    state: StateDir,
    salt: u32,
    ticks_per_round: u64,
    /// The lifecycle in flight, if one is.
    open: Option<Admitted>,
    /// Session checksum every lifecycle must end with: the twin's.
    expected: Option<u64>,
    done: Counts,
}

impl Lifecycle {
    const TENANT: &'static str = "lifecycle";

    /// The `placement` bench's shape, a recurrent random population on
    /// small cores so that placement has something to anneal, with leak and
    /// inhibition added: the bench's all-excitatory network saturates, and
    /// ticking it would then cost as much as compiling it. The wiring does
    /// not follow the run's seed: some random wirings do not compile at all
    /// (`DelayTooSmallForFanout`), and the others differ sixfold in cost.
    pub(crate) fn corelet() -> Corelet {
        let mut corelet = Corelet::new("lifecycle", 4);
        let template = NeuronConfig::builder()
            .threshold(4)
            .leak(-1)
            .build()
            .expect("static neuron parameters");
        let pop = corelet.add_population(template, 120);
        let pres: Vec<NodeRef> = pop.iter().map(|&p| NodeRef::Neuron(p)).collect();
        // Delay-3 links leave the splitter chains headroom on small cores.
        connectors::random(&mut corelet, &pres, &pop, 2, 3, 24, 5).expect("static wiring");
        connectors::random(&mut corelet, &pres, &pop, -2, 3, 20, 9).expect("static wiring");
        for i in 0..4 {
            corelet
                .connect(NodeRef::Input(i), pop[i * 17], 4, 1)
                .expect("static wiring");
        }
        for &neuron in pop.iter().step_by(8) {
            corelet.mark_output(neuron).expect("static wiring");
        }
        corelet
    }

    /// The seed salts placement annealing and the cores' LFSRs.
    pub(crate) fn options(salt: u32, threads: usize) -> CompileOptions {
        let defaults = CompileOptions::default();
        CompileOptions {
            core_axons: 64,
            core_neurons: 24,
            relay_reserve: 8,
            seed: defaults.seed ^ salt,
            threads,
            ..defaults
        }
    }

    /// Corelet → compile → admit → first round. Leaves the tenant live.
    fn open(&mut self, tr: &mut Tracer, step: &mut Step) {
        let corelet = tr.span("corelet.build", |_| Lifecycle::corelet());
        let compiled = tr.span("compiler.compile", |_| {
            compile(corelet.network(), &Lifecycle::options(self.salt, 1))
        });
        step.attempted += 2;
        let Ok(compiled) = compiled else {
            step.failed += 1;
            return;
        };
        let mut fleet = Fleet::new(ServeConfig::default(), self.state.path());
        let admitted = tr.span("serve.admit", |_| {
            fleet.admit(Lifecycle::TENANT, compiled.chip().clone())
        });
        step.failed += u64::from(admitted.is_err());
        self.open = Some(Admitted {
            fleet,
            drive: LifecycleDrive::new(self.salt, &compiled),
        });
        self.round(0, tr, step);
    }

    /// Submits one round's stimulus and runs the round.
    fn round(&mut self, round: u64, tr: &mut Tracer, step: &mut Step) {
        let Some(Admitted { fleet, drive }) = &mut self.open else {
            return;
        };
        let mut cmds = Vec::new();
        for tick in round * self.ticks_per_round..(round + 1) * self.ticks_per_round {
            drive.tick(tick, &mut cmds);
        }
        tr.span("serve.submit", |_| {
            for &cmd in &cmds {
                step.attempted += 1;
                step.failed += u64::from(fleet.submit(Lifecycle::TENANT, cmd).is_err());
            }
        });
        let report = tr.span("serve.run_round", |_| fleet.run_round());
        step.attempted += 1;
        step.ticks += report.ticks;
        step.failed += report.panics as u64;
    }

    /// Remaining rounds → evict. Returns the session's final checksum.
    fn close(&mut self, tr: &mut Tracer, step: &mut Step) -> Option<u64> {
        for round in 1..LIFECYCLE_ROUNDS {
            self.round(round, tr, step);
        }
        let mut fleet = self.open.take()?.fleet;
        let report = tr.span("serve.evict", |_| fleet.evict(Lifecycle::TENANT))?;
        step.attempted += 1;
        step.failed += session_failures(&report.metrics);
        add(&mut self.done, &session_counts(&report.metrics));
        Some(report.checksum)
    }
}

impl Workload for Lifecycle {
    const SETUPS: usize = 20;
    const STARTS: usize = 4;
    const WARMUP: u64 = 5;
    const WINDOW: u64 = 50;

    fn start(salt: u32, state_root: &Path, tr: &mut Tracer) -> Self {
        let mut w = Lifecycle {
            state: StateDir::create(state_root),
            salt,
            ticks_per_round: ServeConfig::default().ticks_per_round,
            open: None,
            expected: None,
            done: Counts::default(),
        };
        w.open(tr, &mut Step::default());
        w
    }

    fn conform(&mut self, tr: &mut Tracer) -> Check {
        let mut step = Step::default();
        let served = self.close(tr, &mut step);
        let ticks = LIFECYCLE_ROUNDS * self.ticks_per_round;
        let twin = served_checksum(Lifecycle::twin(self.salt, 1), ticks);
        self.expected = Some(twin);
        Check {
            checksum: twin,
            ok: served == Some(twin) && step.failed == 0,
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let mut step = Step::default();
        let began = Instant::now();
        self.open(tr, &mut step);
        let served = self.close(tr, &mut step);
        step.nanos = began.elapsed().as_nanos() as u64;
        step.failed += u64::from(served.is_none() || served != self.expected);
        step
    }

    fn counts(&self) -> Counts {
        self.done
    }

    fn twin(salt: u32, threads: usize) -> Twin {
        let compiled = compile(
            Lifecycle::corelet().network(),
            &Lifecycle::options(salt, threads),
        )
        .expect("the lifecycle corelet compiles");
        let mut drive = LifecycleDrive::new(salt, &compiled);
        Twin::new(
            compiled.chip().clone(),
            Box::new(move |tick, cmds| drive.tick(tick, cmds)),
        )
    }
}

/// Tenants of the serving workload.
pub const TENANTS: usize = 8;
/// Rounds the serving workload's conformance prefix covers.
const SERVE_PREFIX_ROUNDS: u64 = 16;
/// Word injections submitted per tenant per tick.
const SUBMITS_PER_TICK: u64 = 8;

struct Tenant {
    name: String,
    def: NetDef,
    noise: Lfsr,
}

impl Tenant {
    fn new(index: usize, salt: u32) -> Tenant {
        let def = NetDef {
            seed: gen::NEMO_8X8_HI.seed ^ (77 * index as u32),
            ..gen::NEMO_8X8_HI
        }
        .salted(salt);
        Tenant {
            name: format!("tenant{index}"),
            noise: Lfsr::new(def.drive_seed(0)),
            def,
        }
    }

    /// The first row of cores gets a word of drive each every tick: a
    /// tenant's queue (256 deep) holds one round of that, not of all 64.
    fn drive(&mut self, tick: u64, cmds: &mut Vec<InjectCmd>) {
        for core in 0..SUBMITS_PER_TICK as usize {
            cmds.push(InjectCmd {
                x: core % self.def.width,
                y: core / self.def.width,
                word: 0,
                bits: self
                    .noise
                    .bernoulli_mask(self.def.drive_rate, self.def.size),
                target_tick: tick,
            });
        }
    }

    fn twin(index: usize, salt: u32, threads: usize) -> Twin {
        let mut tenant = Tenant::new(index, salt);
        Twin::new(
            gen::build(&tenant.def, threads),
            Box::new(move |tick, cmds| tenant.drive(tick, cmds)),
        )
    }
}

/// `serve_fleet8`: eight tenants under `ServeConfig::default()` but for
/// its worker count; a step is one round: 64 submits per tenant, then
/// `run_round`, which about every sixth time also writes eight checkpoints.
pub struct ServeFleet8 {
    fleet: Fleet,
    _state: StateDir,
    tenants: Vec<Tenant>,
    /// The coming round's injections, per tenant; reused.
    cmds: Vec<Vec<InjectCmd>>,
    ticks_per_round: u64,
    salt: u32,
    failures_seen: u64,
}

impl ServeFleet8 {
    /// Workers of the workload's fleet. One, as chips have one thread: on
    /// the two-CPU host this was written on, spawning the default two
    /// workers every round makes a plain round slower (670 against 600 µs)
    /// and twice as unsteady, so the default is a per-layer diagnostic.
    pub const WORKERS: usize = 1;

    /// Builds the eight chips, admits them to a fleet of `workers` workers
    /// and runs the first round.
    pub(crate) fn with_workers(
        workers: usize,
        salt: u32,
        state_root: &Path,
        tr: &mut Tracer,
    ) -> ServeFleet8 {
        let state = StateDir::create(state_root);
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let mut w = ServeFleet8 {
            ticks_per_round: config.ticks_per_round,
            fleet: Fleet::new(config, state.path()),
            _state: state,
            tenants: (0..TENANTS).map(|i| Tenant::new(i, salt)).collect(),
            cmds: vec![Vec::new(); TENANTS],
            salt,
            failures_seen: 0,
        };
        for tenant in &w.tenants {
            let chip = tr.span("chip.build", |_| gen::build(&tenant.def, 1));
            tr.span("serve.admit", |_| w.fleet.admit(&tenant.name, chip))
                .expect("a fresh fleet admits eight tenants");
        }
        w.step(tr);
        w
    }

    /// Word injections submitted before each round, over all tenants.
    pub(crate) fn submits_per_round(&self) -> u64 {
        TENANTS as u64 * SUBMITS_PER_TICK * self.ticks_per_round
    }

    /// Every tenant's cumulative session counters, in tenant order.
    pub(crate) fn session_metrics(&self) -> impl Iterator<Item = SessionMetrics> + '_ {
        self.tenants
            .iter()
            .filter_map(|t| self.fleet.session(&t.name))
            .map(|view| view.metrics)
    }
}

impl Workload for ServeFleet8 {
    const SETUPS: usize = 12;
    const STARTS: usize = 4;
    const WARMUP: u64 = 50;
    const WINDOW: u64 = 500;

    fn start(salt: u32, state_root: &Path, tr: &mut Tracer) -> Self {
        ServeFleet8::with_workers(ServeFleet8::WORKERS, salt, state_root, tr)
    }

    fn conform(&mut self, tr: &mut Tracer) -> Check {
        let mut failed = 0;
        while self.fleet.round() < SERVE_PREFIX_ROUNDS {
            failed += self.step(tr).failed;
        }
        let ticks = SERVE_PREFIX_ROUNDS * self.ticks_per_round;
        let mut all = Fnv1a::default();
        let mut ok = failed == 0;
        for (index, tenant) in self.tenants.iter().enumerate() {
            let twin = served_checksum(Tenant::twin(index, self.salt, 1), ticks);
            let served = self.fleet.session(&tenant.name).map(|view| view.checksum);
            ok &= served == Some(twin);
            all.write(twin);
        }
        Check {
            checksum: all.finish(),
            ok,
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let first = self.fleet.round() * self.ticks_per_round;
        tr.span("stimulus.generate", |_| {
            for (tenant, cmds) in self.tenants.iter_mut().zip(&mut self.cmds) {
                cmds.clear();
                for tick in first..first + self.ticks_per_round {
                    tenant.drive(tick, cmds);
                }
            }
        });
        let mut step = Step::default();
        let began = Instant::now();
        tr.span("serve.submit", |_| {
            for (tenant, cmds) in self.tenants.iter().zip(&self.cmds) {
                for &cmd in cmds {
                    step.attempted += 1;
                    step.failed += u64::from(self.fleet.submit(&tenant.name, cmd).is_err());
                }
            }
        });
        let report = tr.span("serve.run_round", |_| self.fleet.run_round());
        step.nanos = began.elapsed().as_nanos() as u64;
        step.attempted += 1;
        step.ticks = report.ticks;
        // Dropped, rejected and failed work shows in the session counters.
        let failures: u64 = self.session_metrics().map(|m| session_failures(&m)).sum();
        step.failed += failures - self.failures_seen;
        self.failures_seen = failures;
        step
    }

    fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for m in self.session_metrics() {
            add(&mut total, &session_counts(&m));
        }
        total
    }

    fn twin(salt: u32, threads: usize) -> Twin {
        Tenant::twin(0, salt, threads)
    }
}
