//! Runs every experiment (Figs. 1–12 plus the extension figures) and
//! archives the reports under `results/`, along with the machine-readable
//! extension baselines (`BENCH_*.json`) at the repository root. Any
//! `BENCH_*` write failure makes the run exit non-zero — the recorded
//! results must never silently go missing.
//!
//! Run with: `cargo run --release -p mcss_bench --bin run_all`
//! A single figure: `cargo run --release -p mcss_bench --bin run_all -- --only fig_packing`
//! Size overrides: `MCSS_SPOTIFY_SUBS`, `MCSS_TWITTER_USERS`.
//!
//! End-to-end performance (store load, plan, churn epochs, resume) is
//! measured by `perfbench/`, not here.

use cloud_cost::instances;
use mcss_bench::experiments;
use mcss_bench::scenario::{env_size, Scenario};
use std::cell::LazyCell;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Names accepted by `--only`, one per figure block below.
const FIGURES: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4_5",
    "fig6_7",
    "fig8_12",
    "fig_sharded",
    "fig_failures",
    "fig_mixed",
    "fig_packing",
];

fn save(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    fs::write(&path, content).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("{content}");
    println!("-> saved {}\n", path.display());
}

/// Writes a machine-readable benchmark baseline; returns false (instead
/// of panicking) so `main` can finish the remaining experiments and still
/// exit non-zero.
fn save_bench_json(path: &Path, content: &str) -> bool {
    match fs::write(path, content) {
        Ok(()) => {
            println!("-> saved {}\n", path.display());
            true
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => match it.next() {
                Some(name) => only = Some(name.clone()),
                None => {
                    eprintln!(
                        "error: --only needs a figure name (one of: {})",
                        FIGURES.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}` (usage: run_all [--only FIGURE])");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(name) = &only {
        if !FIGURES.contains(&name.as_str()) {
            eprintln!(
                "error: unknown figure `{name}` (one of: {})",
                FIGURES.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }
    let wants = |name: &str| only.as_deref().is_none_or(|o| o == name);

    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let started = Instant::now();
    let mut bench_writes_ok = true;

    // Built on first use, so `--only` runs skip the scenarios they never
    // touch (`--only fig_failures` never builds twitter).
    let spotify =
        LazyCell::new(|| Scenario::spotify(env_size("MCSS_SPOTIFY_SUBS", 100_000), 20140113));
    let twitter =
        LazyCell::new(|| Scenario::twitter(env_size("MCSS_TWITTER_USERS", 20_000), 20131030));

    if wants("fig1") {
        save(dir, "fig1_example.txt", &experiments::fig1_example());
    }

    if wants("fig2") {
        let mut fig2 = String::from("== Fig. 2a ==\n");
        fig2.push_str(&experiments::fig_cost_metrics(
            &spotify,
            instances::C3_LARGE,
        ));
        fig2.push_str("\n== Fig. 2b ==\n");
        fig2.push_str(&experiments::fig_cost_metrics(
            &spotify,
            instances::C3_XLARGE,
        ));
        save(dir, "fig2_spotify_cost.txt", &fig2);
    }

    if wants("fig3") {
        let mut fig3 = String::from("== Fig. 3a ==\n");
        fig3.push_str(&experiments::fig_cost_metrics(
            &twitter,
            instances::C3_LARGE,
        ));
        fig3.push_str("\n== Fig. 3b ==\n");
        fig3.push_str(&experiments::fig_cost_metrics(
            &twitter,
            instances::C3_XLARGE,
        ));
        save(dir, "fig3_twitter_cost.txt", &fig3);
    }

    if wants("fig4_5") {
        let mut fig45 = String::from("== Fig. 4 (Spotify) ==\n");
        fig45.push_str(&experiments::fig_stage1_runtime(
            &spotify,
            instances::C3_LARGE,
            3,
        ));
        fig45.push_str("\n== Fig. 5 (Twitter) ==\n");
        fig45.push_str(&experiments::fig_stage1_runtime(
            &twitter,
            instances::C3_LARGE,
            3,
        ));
        save(dir, "fig4_5_stage1_runtime.txt", &fig45);
    }

    if wants("fig6_7") {
        let mut fig67 = String::from("== Fig. 6 (Spotify, c3.large) ==\n");
        fig67.push_str(&experiments::fig_stage2_runtime(
            &spotify,
            instances::C3_LARGE,
            3,
        ));
        fig67.push_str("\n== Fig. 7 (Twitter, c3.large) ==\n");
        fig67.push_str(&experiments::fig_stage2_runtime(
            &twitter,
            instances::C3_LARGE,
            2,
        ));
        save(dir, "fig6_7_stage2_runtime.txt", &fig67);
    }

    if wants("fig8_12") {
        save(
            dir,
            "fig8_12_trace_analysis.txt",
            &experiments::fig_trace_analysis(env_size("MCSS_TWITTER_USERS", 100_000), 20131030),
        );
    }

    if wants("fig_sharded") {
        let mut sharded = String::from("== sharded vs monolithic (Spotify) ==\n");
        sharded.push_str(&experiments::fig_sharded_speedup(
            &spotify,
            instances::C3_LARGE,
            100,
        ));
        sharded.push_str("\n== sharded vs monolithic (Twitter) ==\n");
        sharded.push_str(&experiments::fig_sharded_speedup(
            &twitter,
            instances::C3_LARGE,
            100,
        ));
        save(dir, "sharded_speedup.txt", &sharded);
    }

    if wants("fig_failures") {
        let (drill_text, drill_json) =
            experiments::fig_failure_drills(&spotify, instances::C3_LARGE, 100);
        let mut drills = String::from("== SLA-budgeted failure drills (Spotify) ==\n");
        drills.push_str(&drill_text);
        save(dir, "failure_drills.txt", &drills);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_failures.json"), &drill_json);
    }

    if wants("fig_mixed") {
        let (mixed_text, mixed_json) = experiments::fig_mixed_fleet(&[&spotify, &twitter], 100, 4);
        let mut mixed = String::from("== mixed fleet vs best homogeneous (Spotify + Twitter) ==\n");
        mixed.push_str(&mixed_text);
        save(dir, "mixed_fleet.txt", &mixed);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_mixed.json"), &mixed_json);
    }

    if wants("fig_packing") {
        let (packing_text, packing_json) =
            experiments::fig_packing_frontier(&[&spotify, &twitter], 100);
        let mut packing =
            String::from("== anytime Stage-2 packing frontier (Spotify + Twitter) ==\n");
        packing.push_str(&packing_text);
        save(dir, "packing_frontier.txt", &packing);
        bench_writes_ok &= save_bench_json(Path::new("BENCH_packing.json"), &packing_json);
    }

    println!(
        "all experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if bench_writes_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: one or more BENCH_*.json baselines failed to write");
        ExitCode::FAILURE
    }
}
