//! `mcss_perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload from the current directory, keeping its
//! state files under `.bench_state/`, and prints the result as one JSON
//! object on the last line of standard output.

use mcss_perfbench::{run, spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: mcss_perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed: u64 = 1;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let parsed = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.clone());
                Ok(())
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).map_err(|e| e.to_string()),
            ("--seconds", Some(v)) => v.parse::<f64>().map_err(|e| e.to_string()).and_then(|s| {
                (s > 0.0 && s.is_finite())
                    .then(|| seconds = s)
                    .ok_or_else(|| "--seconds must be positive".into())
            }),
            ("--trace", Some(v)) => match v.as_str() {
                "0" | "1" => {
                    traced = v == "1";
                    Ok(())
                }
                _ => Err("--trace takes 0 or 1".into()),
            },
            _ => Err(format!("unexpected argument {flag:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    }
    let Some(spec) = workload.as_deref().and_then(spec) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let state = PathBuf::from(".bench_state").join(format!("{}-{}", spec.name, std::process::id()));
    let result = run(&spec, seed, seconds, traced, &state);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(".bench_state");
    match result {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            eprintln!("a metric is not finite: {:?}", outcome.metrics);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
