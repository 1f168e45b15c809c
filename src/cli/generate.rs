//! `mcss generate`: write a synthetic trace.

use super::{flag, Args, Positional, Spec};
use pubsub_model::Workload;
use pubsub_traces::io::write_workload;
use pubsub_traces::{SpotifyLike, TwitterLike};
use std::fs::File;
use std::io::BufWriter;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "generate",
    usage: "mcss generate <spotify|twitter> [options]",
    summary: "write a synthetic trace",
    positional: Positional::Required("a family: spotify | twitter"),
    flags: &[
        flag("--size", "N", "subscribers (spotify) or users (twitter) [10000]"),
        flag("--seed", "N", "RNG seed [42]"),
        flag("--out", "FILE", "output path [stdout]"),
    ],
};

/// A synthetic trace family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// [`SpotifyLike`]: `size` subscribers.
    Spotify,
    /// [`TwitterLike`]: `size` users of a follow graph.
    Twitter,
}

impl Family {
    /// Parses a family name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "spotify" => Ok(Family::Spotify),
            "twitter" => Ok(Family::Twitter),
            other => Err(format!("unknown trace family {other:?}")),
        }
    }

    /// The family name, as typed.
    pub fn name(self) -> &'static str {
        match self {
            Family::Spotify => "spotify",
            Family::Twitter => "twitter",
        }
    }

    /// Reads `--size`, refusing sizes the generator cannot build: a
    /// Spotify trace needs a subscriber, a follow graph two users.
    pub fn size(self, args: &Args, default: usize) -> Result<usize, String> {
        let min = match self {
            Family::Spotify => 1,
            Family::Twitter => 2,
        };
        let size = args.num_or("--size", default)?;
        if size < min {
            return Err(format!("--size must be at least {min}"));
        }
        Ok(size)
    }

    /// Generates a trace of `size` subscribers (or users) from `seed`.
    pub fn generate(self, size: usize, seed: u64) -> Workload {
        match self {
            Family::Spotify => SpotifyLike::new(size, seed).generate(),
            Family::Twitter => TwitterLike::new(size, seed).generate(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub family: Family,
    pub size: usize,
    pub seed: u64,
    pub out: Option<String>,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    let family = Family::parse(&args.positional())?;
    Ok(Opts {
        family,
        size: family.size(args, 10_000)?,
        seed: args.num_or("--seed", 42)?,
        out: args.text("--out"),
    })
}

/// Writes the trace to `--out` (summary on stderr) or stdout.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = opts.family.generate(opts.size, opts.seed);
    match opts.out {
        Some(path) => {
            let file = File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
            write_workload(BufWriter::new(file), &workload).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} topics / {} subscribers / {} pairs to {path}",
                workload.num_topics(),
                workload.num_subscribers(),
                workload.pair_count()
            );
        }
        None => {
            let stdout = std::io::stdout();
            write_workload(stdout.lock(), &workload).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cli::{parse, Command};

    fn words(w: &[&str]) -> Vec<String> {
        w.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sizes_the_generators_cannot_build_are_refused_at_parse() {
        // The generators assert on these sizes; the parser must refuse
        // them before a panic can exit 101.
        for (cmd, err) in [
            (
                &["generate", "spotify", "--size", "0"][..],
                "--size must be at least 1",
            ),
            (
                &["generate", "twitter", "--size", "1"],
                "--size must be at least 2",
            ),
            (
                &["serve", "--trace", "spotify", "--size", "0"],
                "--size must be at least 1",
            ),
            (
                &["serve", "--trace", "twitter", "--size", "1"],
                "--size must be at least 2",
            ),
        ] {
            assert_eq!(parse(&words(cmd)).unwrap_err(), err, "{cmd:?}");
        }
        assert!(matches!(
            parse(&words(&["generate", "twitter", "--size", "2"])),
            Ok(Command::Generate(_))
        ));
        // A store seeds serve, so --size is not read there.
        assert!(parse(&words(&["serve", "--store", "w.mcss", "--size", "0"])).is_ok());
    }
}
