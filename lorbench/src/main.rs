//! `lorbench` — the repo's one benchmark: what the *simulator* costs in host
//! time, end to end and layer by layer, on five long workloads.  Simulated
//! results are deterministic and are checked, never timed.  See `README.md`
//! beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! lorbench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--trace-out PATH]
//! lorbench all [--seed N] [--seconds S] [--trace 0|1]
//! lorbench selftest
//! lorbench bless
//! ```
//!
//! A run prints the self-describing document on one line and, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`.

mod aging;
mod digest;
mod host;
mod json;
mod kernels;
mod reference;
mod replay;
mod run;
mod spec;
mod stats;
mod timed_store;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{Options, Outcome};
use spec::{Workload, DEFAULT_SECONDS, FLEET_THREADS, GOLDEN_SEED, PER_LAYER};

const USAGE: &str = "usage: lorbench [run] --workload age_db|age_fs|age_log|serve_db|fleet_db \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
       lorbench all [--seed N] [--seconds S] [--trace 0|1]
       lorbench selftest | bless";

/// Scale divisor of the selftest.
const SELFTEST_DIV: u64 = 50;

struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        seed: GOLDEN_SEED,
        seconds: DEFAULT_SECONDS as f64,
        traced: false,
        trace_out: None,
    };
    let mut args = args.iter().peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            cli.command = args.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => cli.seed = number(flag, value()?)?,
            "--seconds" => {
                cli.seconds = number(flag, value()?)?;
                if !(0.0..=3600.0).contains(&cli.seconds) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Host conditions that would make a run's numbers mean something else.
fn check_host(workload: Workload) -> Result<(), String> {
    if workload == Workload::FleetDb && std::env::var_os("LOR_FLEET_PARALLELISM").is_some() {
        return Err(format!(
            "LOR_FLEET_PARALLELISM is set: it would silently override fleet_db's \
             {FLEET_THREADS} worker threads; unset it"
        ));
    }
    if host::nproc() < 2 {
        eprintln!(
            "lorbench: warning: {} core available; fleet_db's {FLEET_THREADS} threads will \
             measure pool overhead, not speed-up",
            host::nproc()
        );
    }
    Ok(())
}

/// Prints one line to stdout.  A reader that went away (`| head -1`) is not
/// this program's failure, so a closed pipe is ignored rather than panicking.
fn emit(line: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn print_run(outcome: &Outcome) {
    emit(&outcome.detail.render());
    emit(&outcome.result.render());
}

fn options(cli: &Cli, workload: Workload, process_start: Instant) -> Options {
    Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        trace_out: cli.trace_out.clone(),
        scale_div: 1,
        process_start,
    }
}

/// The golden seed and the minimum number of reps: what `selftest` and
/// `bless` run.
fn minimal_run(
    workload: Workload,
    traced: bool,
    scale_div: u64,
    process_start: Instant,
) -> Options {
    Options {
        workload,
        seed: GOLDEN_SEED,
        seconds: 0.0,
        traced,
        trace_out: None,
        scale_div,
        process_start,
    }
}

/// Re-executes this binary once per workload, so peak RSS and CPU time are
/// each workload's own, and prints one document keyed by workload.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;
    let mut documents = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|err| format!("spawning {}: {err}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines();
        let (Some(detail), Some(result)) = (lines.next(), lines.next()) else {
            return Err(format!("{} printed no result", workload.name()));
        };
        all_correct &= output.status.success() && result.contains("\"correct\": true");
        documents.push(format!("\"{}\": {detail}", workload.name()));
    }
    emit(&format!("{{{}}}", documents.join(", ")));
    Ok(all_correct)
}

/// Every workload at `1 / SELFTEST_DIV` scale, untraced then traced twice:
/// every declared metric present and finite, count metrics equal between
/// the two traced runs, nothing failed.
fn selftest(process_start: Instant) -> Result<(), String> {
    for workload in Workload::ALL {
        check_host(workload)?;
        let run = |traced: bool| {
            let outcome = run::run(&minimal_run(workload, traced, SELFTEST_DIV, process_start));
            if outcome.correct {
                Ok(outcome)
            } else {
                Err(format!(
                    "{} (traced: {traced}) is not correct: {}",
                    workload.name(),
                    outcome.detail.render()
                ))
            }
        };
        let untraced = run(false)?;
        for (name, value) in &untraced.metrics {
            if !(value.is_finite() && *value >= 0.0) {
                return Err(format!("{}: {name} = {value}", workload.name()));
            }
        }
        let (first, second) = (run(true)?, run(true)?);
        if first.metrics.len() != PER_LAYER.len() {
            return Err(format!(
                "{}: a per-layer metric is missing",
                workload.name()
            ));
        }
        for (decl, (a, b)) in PER_LAYER
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            if decl.count && a.1 != b.1 {
                return Err(format!(
                    "{}: count metric {} differs between two runs: {} vs {}",
                    workload.name(),
                    decl.name,
                    a.1,
                    b.1
                ));
            }
        }
        eprintln!("lorbench: selftest {} ok", workload.name());
    }
    Ok(())
}

/// Rewrites `golden/*.txt` from one rep of each workload at the golden seed.
fn bless(process_start: Instant) -> Result<(), String> {
    for workload in Workload::ALL {
        check_host(workload)?;
        // The run also compares with the golden being replaced; that verdict
        // is ignored here.
        let outcome = run::run(&minimal_run(workload, false, 1, process_start));
        let sim = outcome
            .sim
            .ok_or(format!("{} produced no result", workload.name()))?;
        let path = run::golden_path(workload);
        std::fs::write(&path, sim.as_str())
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
        eprintln!(
            "lorbench: blessed {} ({:016x}); rebuild to embed it",
            path.display(),
            sim.digest()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("lorbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.command.as_str() {
        "run" => match cli.workload {
            None => Err("run needs --workload".to_string()),
            // A run that printed its result line succeeded as a process;
            // whether the outputs were right is that line's `correct`.
            Some(workload) => check_host(workload).map(|()| {
                print_run(&run::run(&options(&cli, workload, process_start)));
                true
            }),
        },
        "all" => run_all(&cli),
        "selftest" => selftest(process_start).map(|()| true),
        "bless" => bless(process_start).map(|()| true),
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lorbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
