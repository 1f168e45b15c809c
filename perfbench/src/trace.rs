//! In-memory spans recorded around calls into the program's layers.
//! Spans are kept in a vector and aggregated when the run ends; a
//! disabled tracer records nothing and only calls through.

use std::time::Instant;

/// Parent id of spans that belong to no serve epoch (set-up, plans).
pub const NO_EPOCH: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `incremental.step`; epochs are named `epoch`.
    pub name: &'static str,
    /// The epoch this call belongs to, or [`NO_EPOCH`].
    pub epoch: u32,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    /// Nanoseconds since the tracer was created.
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as span `name` of `epoch` when enabled.
    pub fn span<T>(&mut self, name: &'static str, epoch: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            epoch,
            start,
            end,
        });
        out
    }

    /// Records a span timed by the caller, when enabled.
    pub fn record(&mut self, name: &'static str, epoch: u32, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                epoch,
                start: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end: end.saturating_duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// Every recorded span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// For each `epoch` span: its duration and the part of it covered by
    /// other spans of the same epoch, in milliseconds. Calls made at
    /// submit time fall outside the epoch's interval and do not count.
    pub fn epoch_coverage(&self) -> Vec<(f64, f64)> {
        let mut by_epoch: std::collections::BTreeMap<u32, (Option<Span>, Vec<Span>)> =
            std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.epoch != NO_EPOCH) {
            let entry = by_epoch.entry(s.epoch).or_default();
            if s.name == "epoch" {
                entry.0 = Some(*s);
            } else {
                entry.1.push(*s);
            }
        }
        by_epoch
            .into_values()
            .filter_map(|(epoch, children)| {
                let epoch = epoch?;
                let covered: u64 = children
                    .iter()
                    .map(|c| {
                        c.end
                            .min(epoch.end)
                            .saturating_sub(c.start.max(epoch.start))
                    })
                    .sum();
                Some((epoch.ms(), covered as f64 / 1e6))
            })
            .collect()
    }
}
