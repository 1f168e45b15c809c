//! `mcss` — command-line front end for the MCSS solver.
//!
//! ```text
//! mcss generate spotify --size 50000 --seed 7 --out trace.tsv
//! mcss analyze trace.tsv
//! mcss solve trace.tsv --tau 100 --instance c3.large --effective --simulate
//! ```
//!
//! Each subcommand declares its flags once, in a table in [`cli`]; the
//! parser and `mcss help` both read it. No CLI dependency.

mod cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args).and_then(cli::run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("try `mcss help`");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
