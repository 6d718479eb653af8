//! The benchmark barometer: sweeps the generated TrueNorth workload
//! corpus across the {eval strategy × scheduler × threads} matrix, proves
//! bit-identity across every variant (differential conformance), and
//! emits versioned JSONL records plus a ranked markdown summary. Replaces
//! the retired hand-rolled `bench_chip_tick` path.
//!
//! Usage:
//!
//! * `barometer measure [--out FILE] [--smoke] [--only A,B] [--reps N]
//!   [--ticks N]` — sweep the corpus (and the checkpoint/recovery ops
//!   workloads), verify conformance, write records (default
//!   `BENCH_barometer.jsonl`) and print the ranked summary to stderr.
//!   `--reps` sets the best-of-N pass count per timed variant; `--ticks`
//!   overrides every entry's measured window for quick local iteration
//!   (the pin comparison is skipped, so such records must not be
//!   committed as the baseline).
//! * `barometer check <baseline.jsonl> [--smoke] [--only A,B]` —
//!   re-measure and compare per (workload, variant): exits non-zero on
//!   census divergence, lost coverage, peak-RSS regression, or timing
//!   regression beyond each record's `check_factor` (timing is advisory
//!   when the baseline came from a different host shape — see the
//!   `cpus_mismatch` verdict field; memory never is). The CI bench gate;
//!   `--only` restricts it to named workloads (the memory-conformance CI
//!   leg runs just the two 64×64 full-silicon entries).
//! * `barometer summary <records.jsonl>` — render the ranked markdown
//!   summary for an existing record file (the EXPERIMENTS.md table).
//! * `barometer pin` — run the conformance matrix over every corpus entry
//!   and print each entry's computed checksum: the BYOB flow for pinning
//!   a new `WorkloadDef` (paste the value into `corpus()`).

use std::process::ExitCode;

use brainsim_bench::corpus::{self, WorkloadDef};
use brainsim_bench::record::{from_jsonl, to_jsonl, Host, Record};
use brainsim_bench::sweep::SweepOptions;
use brainsim_bench::{summary, sweep};

/// Workload selection shared by every subcommand: the `--smoke` subset
/// intersected with an optional `--only` comma-separated name list.
fn selected(smoke: bool, only: Option<&str>) -> Vec<WorkloadDef> {
    let names: Option<Vec<&str>> = only.map(|o| o.split(',').map(str::trim).collect());
    corpus::corpus()
        .into_iter()
        .filter(|d| !smoke || d.smoke)
        .filter(|d| names.as_ref().is_none_or(|n| n.contains(&d.name)))
        .collect()
}

/// Parses the value of a `--flag VALUE` pair.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Sweeps the selected corpus plus the ops workloads, verifying
/// conformance entry by entry. Returns `None` (after reporting) if any
/// entry fails conformance. A `--only` selection skips the ops workloads
/// — they have no corpus names to select by.
fn measure_all(
    smoke: bool,
    only: Option<&str>,
    opts: SweepOptions,
    host: Host,
) -> Option<Vec<Record>> {
    let mut records = Vec::new();
    let mut failed = false;
    for def in selected(smoke, only) {
        eprintln!(
            "[barometer] {} ({} cores): conformance × {} variants",
            def.name,
            def.cores(),
            sweep::conformance_matrix().len(),
        );
        match sweep::sweep_workload_opts(&def, host, opts) {
            Ok(rows) => {
                for r in &rows {
                    eprintln!(
                        "  {:<28} {:>14.0} {}{}",
                        r.variant,
                        r.value,
                        r.unit,
                        r.peak_rss_bytes
                            .map(|b| format!("  (peak rss {:.1} MiB)", b as f64 / (1 << 20) as f64))
                            .unwrap_or_default(),
                    );
                }
                records.extend(rows);
            }
            Err(e) => {
                eprintln!("  CONFORMANCE FAILURE: {e}");
                failed = true;
                continue;
            }
        }
        if def.batch {
            eprintln!(
                "[barometer] {}: batched backend, lanes {:?} (lane-vs-solo differential)",
                def.name,
                sweep::BATCH_LANES,
            );
            match sweep::batch_records_opts(&def, host, opts) {
                Ok(rows) => {
                    for r in &rows {
                        eprintln!(
                            "  {:<28} {:>14.0} {} (per chip)",
                            r.variant, r.value, r.unit
                        );
                    }
                    records.extend(rows);
                }
                Err(e) => {
                    eprintln!("  BATCH CONFORMANCE FAILURE: {e}");
                    failed = true;
                }
            }
        }
    }
    if only.is_none() {
        let checkpoint_def = corpus::find("nemo_8x8_lo").expect("corpus has nemo_8x8_lo");
        for r in sweep::checkpoint_records(&checkpoint_def, host)
            .into_iter()
            .chain(sweep::recovery_records(host))
        {
            eprintln!("  {:<28} {:>14.0} {}", r.variant, r.value, r.unit);
            records.push(r);
        }
    }
    (!failed).then_some(records)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only = flag_value(&args, "--only");
    let mut opts = SweepOptions::default();
    if let Some(reps) = flag_value(&args, "--reps") {
        match reps.parse::<u32>() {
            Ok(n) if n > 0 => opts.reps = n,
            _ => {
                eprintln!("[barometer] --reps expects a positive integer, got {reps:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(ticks) = flag_value(&args, "--ticks") {
        match ticks.parse::<u64>() {
            Ok(n) if n > 0 => opts.ticks = Some(n),
            _ => {
                eprintln!("[barometer] --ticks expects a positive integer, got {ticks:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if only.is_some() && selected(smoke, only).is_empty() {
        eprintln!("[barometer] --only matched no corpus entries");
        return ExitCode::FAILURE;
    }
    let host = Host::detect();
    match args.first().map(String::as_str) {
        Some("measure") | None => {
            let out = flag_value(&args, "--out")
                .unwrap_or("BENCH_barometer.jsonl")
                .to_string();
            if opts.ticks.is_some() {
                eprintln!(
                    "[barometer] --ticks override active: checksums are unpinned and the \
                     records are not comparable to the committed baseline"
                );
            }
            // Refuse to clobber a record file this build cannot even
            // parse: a head line of an unreadable schema version means the
            // existing records came from an incompatible toolchain, and
            // replacing them would silently discard that baseline.
            // Readable older schemas (schema 1) are overwritten — that is
            // the migration path to the current schema.
            if let Ok(existing) = std::fs::read_to_string(&out) {
                let head = brainsim_bench::record::head_schema(&existing);
                if head.is_some_and(|v| !brainsim_bench::record::schema_readable(v)) {
                    eprintln!(
                        "[barometer] refusing to overwrite {out}: its records are schema {}, \
                         this barometer writes schema {} — move the file aside or migrate it",
                        head.unwrap_or(0),
                        brainsim_bench::record::SCHEMA_VERSION,
                    );
                    return ExitCode::FAILURE;
                }
            }
            let Some(records) = measure_all(smoke, only, opts, host) else {
                return ExitCode::FAILURE;
            };
            if let Err(e) = std::fs::write(&out, to_jsonl(&records)) {
                eprintln!("[barometer] cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[barometer] wrote {} records to {out}", records.len());
            eprint!("{}", summary::render(&records));
            ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: barometer check <baseline.jsonl> [--smoke]");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[barometer] cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut baseline = from_jsonl(&text);
            if smoke || only.is_some() {
                let names: Vec<&str> = selected(smoke, only).iter().map(|d| d.name).collect();
                baseline.retain(|r| {
                    names.contains(&r.workload.as_str())
                        || (only.is_none()
                            && (r.workload == "chip_checkpoint" || r.workload == "chip_recovery"))
                });
            }
            if baseline.is_empty() {
                eprintln!("[barometer] no readable records in {path} after selection");
                return ExitCode::FAILURE;
            }
            let Some(fresh) = measure_all(smoke, only, opts, host) else {
                return ExitCode::FAILURE;
            };
            let verdicts = sweep::check(&baseline, &fresh, host);
            let mut failed = false;
            for v in &verdicts {
                println!("{}", v.to_line());
                failed |= v.failing();
            }
            if failed {
                eprintln!("[barometer] GATE FAILED");
                ExitCode::FAILURE
            } else {
                eprintln!("[barometer] gate passed: {} verdicts", verdicts.len());
                ExitCode::SUCCESS
            }
        }
        Some("summary") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: barometer summary <records.jsonl>");
                return ExitCode::FAILURE;
            };
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    print!("{}", summary::render(&from_jsonl(&text)));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("[barometer] cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("pin") => {
            // BYOB: report every entry's computed checksum so a new def's
            // `checksum: Some(..)` can be pasted in. Conformance (variant
            // bit-identity, non-silence) is still enforced — only the pin
            // comparison itself is reported instead of failed. An optional
            // name argument restricts the run to one entry.
            let pin_only = args.get(1).filter(|a| !a.starts_with("--"));
            let mut failed = false;
            for def in selected(smoke, None)
                .into_iter()
                .filter(|d| pin_only.is_none_or(|n| n == d.name))
            {
                match sweep::verify_workload(&def) {
                    Ok(v) => {
                        println!(
                            "{:<24} checksum: Some({:#018x})  // pinned",
                            def.name, v.checksum
                        );
                    }
                    Err(sweep::ConformanceError::Pin { computed, .. }) => {
                        println!(
                            "{:<24} checksum: Some({computed:#018x})  // UPDATE",
                            def.name
                        );
                    }
                    Err(e) => {
                        println!("{:<24} FAILED: {e}", def.name);
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("unknown subcommand {other}; expected measure|check|summary|pin");
            ExitCode::FAILURE
        }
    }
}
