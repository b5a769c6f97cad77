//! The benchmark's one binary.
//!
//! ```text
//! avcc-e2e --workload NAME --seed N --seconds S --trace 0|1   one run; the last
//!                                                             stdout line is the result
//! avcc-e2e --seed N [--seconds S]                             the whole suite: every
//!                                                             workload, timed and traced
//! avcc-e2e --selfcheck [--seed N] [--seconds S]               the suite twice, compared
//!                                                             under the metrics' bounds
//! ```
//!
//! `--sabotage` corrupts one output before the oracle looks at it, to show
//! that a wrong result makes the run fail.

use std::process::ExitCode;

use avcc_e2e::fleet;
use avcc_e2e::run::{self, RunConfig, Scale};
use avcc_e2e::spec::RUN_SECONDS;
use avcc_e2e::suite::{self, SuiteConfig};
use avcc_sim::socket::WorkerBackend;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    sabotage: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        sabotage: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--sabotage" => args.sabotage = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main_impl() -> Result<bool, String> {
    let args = parse_args()?;
    fleet::confine_temp_dir()?;
    let worker = fleet::worker_binary()?;

    if let Some(workload) = args.workload {
        let result = run::run(&RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale::Full,
            backend: WorkerBackend::Process { binary: worker },
            sabotage: args.sabotage,
            trace_dir: Some(fleet::trace_dir()?),
        })?;
        for note in &result.notes {
            eprintln!("{note}");
        }
        for (name, value, unit) in &result.metrics {
            eprintln!("{name:<34} {value:>18.6} {unit}");
        }
        println!("{}", result.to_json());
        return Ok(result.correct());
    }

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let config = SuiteConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: true,
        sabotage: args.sabotage,
    };
    if args.selfcheck {
        let breaches = suite::selfcheck(&exe, &config)?;
        println!("selfcheck: {breaches} breach(es)");
        return Ok(breaches == 0);
    }
    let report = suite::run_suite(&exe, &config)?;
    suite::print_report(&report);
    let (attempted, failed) = report.totals();
    println!("{failed} of {attempted} operations failed their oracle");
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match main_impl() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("avcc-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
