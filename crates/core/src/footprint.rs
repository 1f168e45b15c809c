//! Memory accounting for the solver's resident structures.
//!
//! At 10⁶–10⁷ subscribers the churn path is memory-bound before it is
//! compute-bound: every epoch streams the workload arenas, the previous
//! selection, and the fleet ledger through cache. [`MemoryFootprint`]
//! reports the allocated bytes behind each of them — by *capacity*, so
//! construction slack (doubling growth, over-reservation) is visible —
//! normalized to bytes per subscriber, the figure the scale-up benches
//! record alongside ns/epoch.

use crate::{FleetLedger, Selection};
use pubsub_model::{Workload, WorkloadFootprint};
use std::fmt;

/// Bytes-per-subscriber report over the structures a long-running churn
/// loop keeps resident: the workload arenas, the previous epoch's
/// selection, and the fleet ledger. Built by [`MemoryFootprint::measure`];
/// surfaced by `mcss analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Per-arena workload bytes.
    pub workload: WorkloadFootprint,
    /// Selection CSR bytes (0 when no selection was measured).
    pub selection_bytes: usize,
    /// Fleet-ledger bytes (0 when no ledger was measured).
    pub ledger_bytes: usize,
    /// Subscriber count the per-subscriber figures are normalized by.
    pub subscribers: usize,
}

impl MemoryFootprint {
    /// Measures a workload plus whatever epoch state the caller has.
    /// `mcss analyze` passes `None` for both (it sees only the trace);
    /// `crates/bench/tests/footprint.rs` passes a reallocator's
    /// checkpointed selection and ledger.
    pub fn measure(
        workload: &Workload,
        selection: Option<&Selection>,
        ledger: Option<&FleetLedger>,
    ) -> MemoryFootprint {
        MemoryFootprint {
            workload: workload.footprint(),
            selection_bytes: selection.map_or(0, Selection::heap_bytes),
            ledger_bytes: ledger.map_or(0, FleetLedger::heap_bytes),
            subscribers: workload.num_subscribers(),
        }
    }

    /// Total allocated bytes across every measured structure.
    pub fn total_bytes(&self) -> usize {
        self.workload.total() + self.selection_bytes + self.ledger_bytes
    }

    /// `total_bytes / subscribers` (0.0 for an empty workload).
    pub fn bytes_per_subscriber(&self) -> f64 {
        if self.subscribers == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.subscribers as f64
        }
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory footprint ({} subscribers):", self.subscribers)?;
        writeln!(f, "{}", self.workload)?;
        if self.selection_bytes > 0 {
            writeln!(f, "  selection:        {:>12} B", self.selection_bytes)?;
        }
        if self.ledger_bytes > 0 {
            writeln!(f, "  fleet ledger:     {:>12} B", self.ledger_bytes)?;
        }
        writeln!(f, "  total:            {:>12} B", self.total_bytes())?;
        write!(
            f,
            "  bytes/subscriber: {:>15.2}",
            self.bytes_per_subscriber()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_model::Rate;

    #[test]
    fn footprint_counts_every_arena_and_normalizes() {
        let mut b = Workload::builder();
        let t0 = b.add_topic(Rate::new(20)).unwrap();
        let t1 = b.add_topic(Rate::new(10)).unwrap();
        b.add_subscriber([t0, t1]).unwrap();
        b.add_subscriber([t1]).unwrap();
        let w = b.build();

        let fp = MemoryFootprint::measure(&w, None, None);
        assert_eq!(fp.subscribers, 2);
        assert_eq!(fp.selection_bytes, 0);
        assert_eq!(fp.ledger_bytes, 0);
        // Every arena is non-empty on a non-trivial workload.
        let wf = fp.workload;
        for part in [
            wf.rates,
            wf.interest_offsets,
            wf.interest_topics,
            wf.ranked_topics,
            wf.follower_offsets,
            wf.follower_ids,
        ] {
            assert!(part > 0, "empty arena in {wf:?}");
        }
        assert_eq!(fp.total_bytes(), wf.total());
        assert!(fp.bytes_per_subscriber() > 0.0);
        let rendered = fp.to_string();
        assert!(rendered.contains("bytes/subscriber"));
    }

    #[test]
    fn empty_workload_reports_zero_per_subscriber() {
        let w = Workload::builder().build();
        let fp = MemoryFootprint::measure(&w, None, None);
        assert_eq!(fp.bytes_per_subscriber(), 0.0);
    }
}
