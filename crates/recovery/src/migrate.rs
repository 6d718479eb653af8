//! Checkpointed hot migration: graft a running chip's dynamic state onto
//! a repaired placement and resume, mid-run, without losing a tick.
//!
//! The mechanism reuses the checkpoint/restore machinery end to end. The
//! running chip is checkpointed (any tick boundary is crash-consistent);
//! the repaired chip — freshly built by [`brainsim_compiler::repair`],
//! with the retained fault plan burned in so every cell carries its
//! correct structural damage — is checkpointed too; then a hybrid
//! snapshot is assembled per cell and validated by [`Chip::restore`]:
//!
//! * **Unmoved cores** keep their old state verbatim, except that spike
//!   destinations are taken from the repaired emission (a neighbour may
//!   have moved) and the quiescence flag is dropped when they did.
//! * **Migrated cores** take the repaired cell's static image (wiring,
//!   crossbar and neuron-level damage of the *new* cell) and graft the
//!   old dynamic state on top: membrane potentials, the delay-scheduler
//!   ring (slot indexing is absolute in the tick, and the core keeps its
//!   clock, so the ring copies verbatim), the LFSR state and the
//!   statistics — fault counters re-based from the condemned cell's
//!   structural burn to the new cell's, and the destination cell's own
//!   history merged in so the chip-wide census is preserved exactly.
//! * **Vacated cells** take the repaired cell's (empty) image.
//!
//! In-flight spikes need no special channel: between ticks every pending
//! event lives in some core's scheduler ring, so the graft carries them.

use brainsim_chip::{Chip, Snapshot};
use brainsim_compiler::{CoreMove, RepairedNetwork};
use brainsim_core::CoreState;

use crate::error::RecoveryError;

/// Grafts `old`'s dynamic state onto the repaired network's chip and
/// swaps the result in, leaving `repaired.compiled` running at `old`'s
/// tick with every healthy core's state carried over. `old` is the chip
/// being replaced (read-only: on error it keeps running untouched).
///
/// # Errors
///
/// [`RecoveryError::GridChanged`] when the repaired grid differs,
/// [`RecoveryError::Restore`] when the grafted snapshot fails validation,
/// [`RecoveryError::Migrate`] for internal assembly failures. The
/// repaired network is consumed either way; the caller retries from a
/// fresh [`brainsim_compiler::repair`].
pub fn hot_migrate(old: &Chip, repaired: &mut RepairedNetwork) -> Result<(), RecoveryError> {
    let old_dims = (old.config().width, old.config().height);
    let new_cfg = *repaired.compiled.chip().config();
    if (new_cfg.width, new_cfg.height) != old_dims {
        return Err(RecoveryError::GridChanged {
            old: old_dims,
            new: (new_cfg.width, new_cfg.height),
        });
    }

    let snapshot = old.checkpoint();
    // Burn the retained plan into the fresh chip: each cell — including
    // every migration destination — receives exactly the structural damage
    // the plan assigns to *that* cell. (The fresh chip has never had a
    // plan applied, so this cannot compound.)
    if let Some(plan) = snapshot.plan {
        repaired.compiled.chip_mut().set_fault_plan(&plan);
    }
    let fresh = repaired.compiled.chip().checkpoint();
    if fresh.cores.len() != snapshot.cores.len() {
        return Err(RecoveryError::Migrate(format!(
            "repaired chip has {} cores, expected {}",
            fresh.cores.len(),
            snapshot.cores.len()
        )));
    }

    let width = new_cfg.width;
    let flat = |(x, y): (usize, usize)| y * width + x;
    let mut source_of: Vec<Option<usize>> = vec![None; fresh.cores.len()];
    let mut vacated: Vec<bool> = vec![false; fresh.cores.len()];
    for &CoreMove { from, to, .. } in &repaired.moves {
        source_of[flat(to)] = Some(flat(from));
        vacated[flat(from)] = true;
    }

    let cores: Vec<CoreState> = (0..fresh.cores.len())
        .map(|idx| {
            let fresh_state = &fresh.cores[idx];
            if let Some(src) = source_of[idx] {
                graft(
                    fresh_state,
                    &snapshot.cores[src],
                    &snapshot.cores[idx],
                    snapshot.now,
                )
            } else if vacated[idx] {
                let mut state = fresh_state.clone();
                state.now = snapshot.now;
                state
            } else {
                let mut state = snapshot.cores[idx].clone();
                if state.destinations != fresh_state.destinations {
                    state.destinations = fresh_state.destinations.clone();
                    // A re-pointed core must be re-evaluated: its proven
                    // quiescence predates the rewire.
                    state.settled = false;
                }
                state
            }
        })
        .collect();

    let assembled = Snapshot {
        config: new_cfg,
        now: snapshot.now,
        hops: snapshot.hops,
        link_crossings: snapshot.link_crossings,
        outputs_total: snapshot.outputs_total,
        fault_stats: snapshot.fault_stats,
        cores,
        plan: snapshot.plan,
        telemetry: snapshot.telemetry,
        app: snapshot.app,
    };
    let chip = Chip::restore(assembled)?;
    repaired
        .compiled
        .replace_chip(chip)
        .map_err(|e| RecoveryError::Migrate(e.to_string()))?;
    Ok(())
}

/// A migrated core's state: the new cell's static image with the old
/// cell's dynamic state grafted on. `old_dest` is the destination cell's
/// state in the *running* chip (the spare it used to be).
fn graft(fresh: &CoreState, old: &CoreState, old_dest: &CoreState, now: u64) -> CoreState {
    let mut state = fresh.clone();
    state.potentials = old.potentials.clone();
    state.scheduler_slots = old.scheduler_slots.clone();
    state.rng_state = old.rng_state;
    state.now = now;
    // Chip-wide accounting must survive migration (the energy model reads
    // the census cumulatively): the incoming core's history — with its
    // fault counters re-based off the condemned cell's structural burn —
    // merges with everything that already happened at the destination
    // cell. The destination's history already contains its own structural
    // burn, so the fresh chip's burn counters are NOT added again.
    let old_structural = old
        .faults
        .as_ref()
        .map(|f| f.structural)
        .unwrap_or_default();
    let mut stats = old.stats;
    stats.faults = stats.faults.saturating_sub(&old_structural);
    stats.merge(&old_dest.stats);
    // `ticks` is a high-water mark (census takes the max across cores),
    // not additive work: two 50-tick histories at one cell are still a
    // 50-tick run.
    stats.ticks = old.stats.ticks.max(old_dest.stats.ticks);
    state.stats = stats;
    // Never resume a migrated core as provably quiescent.
    state.settled = false;
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    use brainsim_chip::{ChipBuilder, ChipConfig};
    use brainsim_compiler::RepairedNetwork;

    fn tiny_chip(width: usize, height: usize) -> Chip {
        ChipBuilder::new(ChipConfig {
            width,
            height,
            core_axons: 4,
            core_neurons: 4,
            ..ChipConfig::default()
        })
        .build()
        .expect("build")
    }

    #[test]
    fn grid_change_is_rejected_before_any_state_moves() {
        let old = tiny_chip(2, 2);
        let mut repaired = RepairedNetwork {
            compiled: brainsim_compiler::compile(
                &trivial_net(),
                &brainsim_compiler::CompileOptions {
                    core_axons: 4,
                    core_neurons: 4,
                    relay_reserve: 1,
                    grid: Some((1, 1)),
                    ..Default::default()
                },
            )
            .expect("compile"),
            moves: Vec::new(),
        };
        match hot_migrate(&old, &mut repaired) {
            Err(RecoveryError::GridChanged { old, new }) => {
                assert_eq!(old, (2, 2));
                assert_eq!(new, (1, 1));
            }
            other => panic!("expected GridChanged, got {other:?}"),
        }
    }

    fn trivial_net() -> brainsim_corelet::LogicalNetwork {
        let mut c = brainsim_corelet::Corelet::new("t", 1);
        let n = c.add_neuron(
            brainsim_neuron::NeuronConfig::builder()
                .threshold(1)
                .build()
                .expect("config"),
        );
        c.connect(brainsim_corelet::NodeRef::Input(0), n, 1, 1)
            .expect("connect");
        c.mark_output(n).expect("output");
        c.into_network()
    }
}
