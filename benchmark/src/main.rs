//! The benchmark's command line.
//!
//! ```text
//! brainsim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! brainsim-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints every
//! metric as `name value unit`, then one JSON object on the last line. With
//! none it runs all of them, each in a child process of its own so that
//! none inherits another's peak memory, and writes `out/results.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use brainsim_benchmark::{run_workload, Options, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: brainsim_benchmark::RUN_SECONDS as f64,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => {
                // Any 64-bit integer is a seed; a negative one by its bits.
                parsed.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                    .map_err(|e| bad(&e))?;
            }
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("brainsim-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Fleet state and traces stay inside the benchmark's own directory.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("brainsim-benchmark: {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => one(name, &args, out_dir),
        None => all(&args, &out_dir),
    }
}

fn one(name: &str, args: &Args, out_dir: PathBuf) -> ExitCode {
    let options = Options {
        // Seeds are 32 bits wide in the simulator: fold the halves.
        salt: (args.seed ^ (args.seed >> 32)) as u32,
        budget: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        out_dir,
    };
    let Some(report) = run_workload(name, &options) else {
        eprintln!("brainsim-benchmark: no workload called {name}");
        return ExitCode::from(2);
    };
    print!("{}", report.lines());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

fn all(args: &Args, out_dir: &Path) -> ExitCode {
    let header = header(args, out_dir);
    for (key, value) in &header {
        println!("# {key} {value}");
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("brainsim-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        println!("\n== {name}");
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        // A child that died leaves its fleet state behind.
        clean_state(out_dir);
        let stdout = match child {
            Ok(output) if output.status.success() => output.stdout,
            Ok(output) => {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                eprintln!("brainsim-benchmark: {name} ended with {}", output.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("brainsim-benchmark: cannot start {name}: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&stdout);
        let (lines, json) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{lines}");
        ok &= json.starts_with("{\"correct\": true,");
        results.push(format!("\"{name}\": {json}"));
    }
    let header: Vec<String> = header
        .iter()
        .map(|(key, value)| format!("\"{key}\": \"{}\"", value.replace(['"', '\\'], "'")))
        .collect();
    let results = format!(
        "{{\"header\": {{{}}},\n \"workloads\": {{\n  {}\n }}}}\n",
        header.join(", "),
        results.join(",\n  ")
    );
    let path = out_dir.join("results.json");
    if let Err(e) = std::fs::write(&path, results) {
        eprintln!("brainsim-benchmark: {}: {e}", path.display());
        ok = false;
    }
    println!("\n# results {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("brainsim-benchmark: a workload failed or was incorrect");
        ExitCode::FAILURE
    }
}

fn clean_state(out_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with("state-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// What the numbers depend on besides the code: recorded with every run.
fn header(args: &Args, out_dir: &Path) -> Vec<(&'static str, String)> {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let features: Vec<&str> = [
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect();
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", command("rustc", &["-V"])),
        // What the flags in effect at build time came to: the repository's
        // .cargo/config.toml asks for target-cpu=native.
        ("target_features", features.join(",")),
        ("commit", command("git", &["rev-parse", "HEAD"])),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("state_dir", out_dir.display().to_string()),
        ("state_dir_filesystem", filesystem_of(out_dir)),
    ]
}

/// The type of the filesystem holding `path`: the longest mount point that
/// is a prefix of it.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, at, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(at).then_some((at.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}
