//! The closed-loop runner: one client (this thread) sets a workload up
//! several times and, after each set-up, issues its next step only after
//! the previous one returned, for an equal share of a fixed time.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use brainsim_chip::{Chip, TickSummary};
use brainsim_serve::InjectCmd;

use crate::stats;
use crate::trace::Tracer;

/// What one closed-loop step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// Host time of the step's timed part: the calls into the simulator,
    /// without generating the stimulus before them or auditing after.
    pub nanos: u64,
    /// Simulated chip-ticks completed, summed over lanes or tenants.
    pub ticks: u64,
    /// Operations issued: injections, submits, ticks, rounds, compiles…
    pub attempted: u64,
    /// Operations that returned an error, were refused or dropped, or
    /// produced a wrong result.
    pub failed: u64,
}

/// Outcome of a conformance prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Checksum of the prefix's observable output.
    pub checksum: u64,
    /// Whether it equals the workload's reference: the corpus pin or a
    /// solo twin. Where there is neither, `true`; the runner still
    /// requires every construction of a run to agree.
    pub ok: bool,
}

/// Simulated (not host) quantities, cumulative since construction. They
/// are functions of the seed alone, so two runs must report them equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Chip-ticks simulated.
    pub ticks: u64,
    /// Spikes produced.
    pub spikes: u64,
    /// Synaptic events integrated (0 where only a fleet can see them).
    pub synaptic_events: u64,
    /// Router hops charged (0 where only a fleet can see them).
    pub hops: u64,
    /// Cores the scheduler evaluated.
    pub cores_evaluated: u64,
    /// Checkpoints a fleet wrote.
    pub checkpoints: u64,
}

impl Counts {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            ticks: self.ticks - earlier.ticks,
            spikes: self.spikes - earlier.spikes,
            synaptic_events: self.synaptic_events - earlier.synaptic_events,
            hops: self.hops - earlier.hops,
            cores_evaluated: self.cores_evaluated - earlier.cores_evaluated,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

/// A directory for fleet state that is removed when dropped, also while
/// unwinding from a panic, so a failed run leaves nothing behind.
#[derive(Debug)]
pub struct StateDir(PathBuf);

impl StateDir {
    /// Creates a fresh, uniquely named directory under `root`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created: no fleet workload can
    /// run without one.
    pub fn create(root: &Path) -> StateDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("state-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create state dir {}: {e}", path.display()));
        StateDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where one tick's stimulus comes from: called once per tick, in tick
/// order, it appends that tick's word injections.
pub type Drive = Box<dyn FnMut(u64, &mut Vec<InjectCmd>)>;

/// The chip a workload is about, on its own — outside any batch or fleet —
/// with the stimulus the workload gives it. Fleet workloads check their
/// sessions against it, and the chip-level layer metrics are taken on it.
pub struct Twin {
    /// The chip, not yet ticked.
    pub chip: Chip,
    drive: Drive,
    cmds: Vec<InjectCmd>,
}

impl Twin {
    /// `chip` under the stimulus `drive` draws for it.
    pub fn new(chip: Chip, drive: Drive) -> Twin {
        Twin {
            chip,
            drive,
            cmds: Vec::new(),
        }
    }

    /// One tick: draws the stimulus, injects it, ticks. Returns the tick's
    /// summary and the nanoseconds the injection and the tick took.
    ///
    /// # Panics
    ///
    /// Panics if the chip refuses its own workload's stimulus.
    pub fn tick(&mut self, tr: &mut Tracer) -> (TickSummary, u64, u64) {
        let now = self.chip.now();
        self.cmds.clear();
        tr.span("stimulus.generate", |_| (self.drive)(now, &mut self.cmds));
        let began = Instant::now();
        tr.span("chip.inject", |_| {
            for cmd in &self.cmds {
                self.chip
                    .inject_word(cmd.x, cmd.y, cmd.word, cmd.bits, cmd.target_tick)
                    .expect("a twin's stimulus addresses its own chip");
            }
        });
        let injected = began.elapsed().as_nanos() as u64;
        let summary = tr.span("chip.tick", |_| self.chip.tick());
        let ticked = began.elapsed().as_nanos() as u64 - injected;
        (summary, injected, ticked)
    }
}

/// One benchmark workload, driven by [`measure`] and [`crate::layers`].
pub trait Workload: Sized {
    /// Rounds of a run, each on a fresh construction; set-up time and time
    /// to first tick are the minimum over them.
    const SETUPS: usize;
    /// Constructions a round makes and drops after their first tick, before
    /// the one it keeps: more samples for the time to first tick where that
    /// has an `fsync` in it and so varies most.
    const STARTS: usize;
    /// Warm-up steps between the conformance prefix and the first
    /// measured step.
    const WARMUP: u64;
    /// Steps of the fixed window at the start of the measurement that the
    /// exact simulated counts are taken over.
    const WINDOW: u64;

    /// Constructs the workload from nothing and runs it through its first
    /// simulated tick (or fleet round). `salt` is XORed into every network
    /// and stimulus seed; `state_root` is where fleets may keep state.
    fn start(salt: u32, state_root: &Path, tr: &mut Tracer) -> Self;

    /// Runs the rest of the conformance prefix and checks its output.
    fn conform(&mut self, tr: &mut Tracer) -> Check;

    /// One closed-loop step.
    fn step(&mut self, tr: &mut Tracer) -> Step;

    /// Simulated counts so far. Called outside the timed part of a step.
    fn counts(&self) -> Counts;

    /// This workload's chip on its own: the solo chip itself, batch lane
    /// 0, the compiled network of a lifecycle, or fleet tenant 0. `threads`
    /// is 1 everywhere except in the thread-scaling diagnostic.
    fn twin(salt: u32, threads: usize) -> Twin;
}

/// One fresh construction of a workload, checked and warmed up.
pub struct Construction<W> {
    /// The workload, ready for its first measured step.
    pub workload: W,
    /// Seconds from nothing to the end of the warm-up.
    pub setup_s: f64,
    /// Milliseconds from nothing to the end of the first tick.
    pub first_tick_ms: f64,
    /// The conformance prefix's outcome.
    pub check: Check,
    /// Operations that failed while warming up.
    pub warm_failed: u64,
}

/// Constructs `W` from nothing, runs its conformance prefix and warms it up.
pub fn construct<W: Workload>(salt: u32, state_root: &Path, tr: &mut Tracer) -> Construction<W> {
    let began = Instant::now();
    let mut workload = W::start(salt, state_root, tr);
    let first_tick_ms = began.elapsed().as_secs_f64() * 1e3;
    let check = workload.conform(tr);
    let warm_failed = (0..W::WARMUP).map(|_| workload.step(tr).failed).sum();
    Construction {
        workload,
        setup_s: began.elapsed().as_secs_f64(),
        first_tick_ms,
        check,
        warm_failed,
    }
}

/// The measured part of a run.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Timed nanoseconds of every step, in order.
    pub step_nanos: Vec<u32>,
    /// Simulated ticks completed.
    pub ticks: u64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Simulated counts over the first `window` steps.
    pub window: Counts,
    /// Wall time of the whole loop, stimulus generation included.
    pub wall: Duration,
    /// Steps of each round, where the steps come from several rounds; empty
    /// where they come from one loop.
    pub round_steps: Vec<usize>,
}

/// Steps `w` in a closed loop until `budget` has passed and `window` steps
/// are done; the exact simulated counts are taken over those first `window`
/// steps. With the tracer on, every step runs under a `step` parent span.
pub fn measure<W: Workload>(w: &mut W, window: u64, budget: Duration, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let before = w.counts();
    let began = Instant::now();
    let mut steps = 0u64;
    while steps < window || began.elapsed() < budget {
        tr.set_step(steps);
        let step = tr.span("step", |tr| w.step(tr));
        m.step_nanos
            .push(u32::try_from(step.nanos).unwrap_or(u32::MAX));
        m.ticks += step.ticks;
        m.attempted += step.attempted;
        m.failed += step.failed;
        steps += 1;
        if steps == window {
            m.window = w.counts().since(&before);
        }
    }
    m.wall = began.elapsed();
    m
}

/// A whole untraced run.
pub struct Rounds {
    /// Seconds each construction took, start to end of warm-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds each construction took to finish its first tick, those
    /// dropped right after it included.
    pub first_tick_ms: Vec<f64>,
    /// The prefix checksum all constructions agreed on (the last one's,
    /// if they did not).
    pub checksum: u64,
    /// Whether every construction matched its reference and each other.
    pub correct: bool,
    /// The CPUs the rounds took turns on; empty if they ran wherever the
    /// scheduler put them.
    pub cpus: Vec<usize>,
    /// The measured steps of all rounds, in order; the count window is
    /// the first round's.
    pub measured: Measured,
}

/// The CPUs this process may run on, from `/proc/self/status`; none where
/// that cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// Moves this process's main thread (and the threads it starts from then
/// on) to `cpu`, by `taskset`: there is no safe call for it. Returns
/// whether that worked.
fn move_to_cpu(cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Runs `W::SETUPS` rounds, each a fresh construction stepped for an equal
/// share of `budget`, one construction alive at a time so that peak memory
/// is one instance's.
///
/// The constructions are spread over the whole run, and the rounds take
/// turns on the CPUs of this host, because of what the host does: for
/// seconds to a minute at a time it runs the same code slower by 40 %,
/// sometimes on one of its two virtual CPUs only, and the scheduler leaves
/// a lone busy thread where it is. Set up in one block, all constructions
/// of a run can fall into such a stretch.
pub fn rounds<W: Workload>(
    budget: Duration,
    salt: u32,
    state_root: &Path,
    tr: &mut Tracer,
) -> Rounds {
    let mut run = Rounds {
        setup_s: Vec::with_capacity(W::SETUPS),
        first_tick_ms: Vec::with_capacity(W::SETUPS * (W::STARTS + 1)),
        checksum: 0,
        correct: true,
        cpus: allowed_cpus(),
        measured: Measured::default(),
    };
    let mut first = None;
    for round in 0..W::SETUPS {
        if run.cpus.len() > 1 && !move_to_cpu(run.cpus[round % run.cpus.len()]) {
            run.cpus.clear();
        }
        for _ in 0..W::STARTS {
            let began = Instant::now();
            let started = W::start(salt, state_root, tr);
            run.first_tick_ms.push(began.elapsed().as_secs_f64() * 1e3);
            drop(started);
        }
        let mut c = construct::<W>(salt, state_root, tr);
        run.setup_s.push(c.setup_s);
        run.first_tick_ms.push(c.first_tick_ms);
        run.checksum = c.check.checksum;
        let first = *first.get_or_insert(c.check.checksum);
        run.correct &= c.check.ok && c.check.checksum == first && c.warm_failed == 0;

        // Every round steps for the same time, so that every repetition is
        // as long as every other; the first goes on until the count window
        // is full, if that takes longer.
        let window = if round == 0 { W::WINDOW } else { 1 };
        let share = budget / W::SETUPS as u32;
        let part = measure(&mut c.workload, window, share, tr);
        let m = &mut run.measured;
        m.round_steps.push(part.step_nanos.len());
        m.step_nanos.extend(part.step_nanos);
        m.ticks += part.ticks;
        m.attempted += part.attempted;
        m.failed += part.failed;
        m.wall += part.wall;
        if round == 0 {
            m.window = part.window;
        }
    }
    run
}

/// Repetitions the measured steps are split into, at least; the reported
/// latency and throughput are the best repetition's.
pub const REPETITIONS: usize = 40;

/// The timed steps in equal consecutive repetitions, none of them reaching
/// across two rounds: every round is split into as many as it takes to
/// have [`REPETITIONS`] in all.
fn repetitions(m: &Measured) -> Vec<&[u32]> {
    let whole = [m.step_nanos.len()];
    let rounds = if m.round_steps.is_empty() {
        &whole[..]
    } else {
        &m.round_steps[..]
    };
    let per_round = REPETITIONS.div_ceil(rounds.len());
    let mut rest = &m.step_nanos[..];
    let mut reps = Vec::new();
    for &steps in rounds {
        let (round, later) = rest.split_at(steps);
        rest = later;
        reps.extend(stats::repetitions(round, per_round.min(steps)));
    }
    reps
}

/// Median timed step of each repetition, in microseconds.
pub fn repetition_p50_us(m: &Measured) -> Vec<f64> {
    repetitions(m)
        .into_iter()
        .map(|rep| f64::from(stats::median(rep)) / 1e3)
        .collect()
}

/// Simulated ticks per timed host second of each repetition.
pub fn repetition_ticks_per_s(m: &Measured) -> Vec<f64> {
    let ticks_per_step = m.ticks as f64 / m.step_nanos.len() as f64;
    repetitions(m)
        .into_iter()
        .map(|rep| {
            let nanos: u64 = rep.iter().map(|&n| u64::from(n)).sum();
            ticks_per_step * rep.len() as f64 / (nanos as f64 / 1e9)
        })
        .collect()
}

/// A memory figure of this process from `/proc/self/status`, in bytes:
/// `VmHWM` is the peak resident set, which is why every workload runs in
/// a process of its own, and `VmRSS` the resident set now.
pub fn proc_status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0)
}
