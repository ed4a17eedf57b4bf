//! `perfbench`: the repository's closed-loop load generator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced run.
//! `--trace 1` runs the workload untraced, then again with the
//! pass-through wrappers installed, and prints the per-layer metrics, the
//! tracing overhead, and the coverage of the busy time by the layers; the
//! span sample goes to `.perfbench_out/`. `--short` shrinks every
//! workload for the self-tests. The last line of standard output is the
//! JSON result; the line before it (`{"det": ...}`) holds the figures that
//! must repeat exactly for one seed. See `perfbench/README.md`.

mod drive;
mod inproc;
mod report;
mod sys;
mod trace;
mod travel;
mod wrap;

use std::process::ExitCode;
use std::time::Duration;

/// Output directory (relative to the working directory) for sockets,
/// WAL directories, and span dumps.
pub const OUT_DIR: &str = ".perfbench_out";

/// Workload scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few agents, for the self-tests.
    Short,
}

/// The workloads.
pub const WORKLOADS: [&str; 5] = [
    "fleet_forward",
    "rollback_crash",
    "rollback_nocrash",
    "travel_uds",
    "travel_uds_wal",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--short" => size = Size::Short,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    match report::run(&args.workload, args.seed, budget, args.trace, args.size) {
        Ok(result) => {
            for line in &result.notes {
                eprintln!("perfbench: {line}");
            }
            println!("{}", result.det_json);
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
