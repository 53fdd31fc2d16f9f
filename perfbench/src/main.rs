//! Runs one benchmark workload and prints the result line.
//!
//! ```sh
//! perfbench --workload paper_soc5 --seed 1 --seconds 10 --trace 0 \
//!     --worker path/to/ssresf-serve --work-dir path/to/cache-dir
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use ssresf_perfbench::report::{result_line, Ops};
use ssresf_perfbench::workload::{self, RunArgs, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --worker PATH --work-dir DIR";

fn parse() -> Result<(String, bool, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--worker" => worker = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    let worker = worker.ok_or_else(|| missing("--worker"))?;
    // Falling back to in-process shards would measure another program.
    if !worker.is_file() {
        return Err(format!("worker binary {} does not exist", worker.display()));
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        trace.ok_or_else(|| missing("--trace"))?,
        RunArgs {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            threads,
            shards: threads,
            worker,
            work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
        },
    ))
}

fn main() -> ExitCode {
    let (name, trace, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&name) else {
        eprintln!("perfbench: unknown workload {name:?} (one of {NAMES:?})");
        return ExitCode::from(2);
    };
    if ssresf_bench::quick() {
        eprintln!("perfbench: SSRESF_QUICK=1 shrinks the workloads; unset it");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ops = Ops::default();
    let run = if trace {
        workload::run_traced(&w, &args, &mut ops)
    } else {
        workload::run_untraced(&w, &args, &mut ops)
    };
    match run {
        Ok(metrics) => {
            println!("{}", result_line(&ops, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
