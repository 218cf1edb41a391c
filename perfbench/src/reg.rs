//! Before/after deltas of the program's `taxorec_telemetry` registry.

use std::collections::BTreeMap;

use taxorec_telemetry::registry::{self, bucket_upper_bound, N_BUCKETS};

/// A copy of every counter and histogram at one instant.
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (Vec<u64>, f64)>,
}

impl Snapshot {
    pub fn take() -> Self {
        let counters = registry::counters()
            .iter()
            .map(|c| (c.name().to_string(), c.get()))
            .collect();
        let hists = registry::histograms()
            .iter()
            .map(|h| {
                let buckets = (0..N_BUCKETS).map(|i| h.bucket_count(i)).collect();
                (h.name().to_string(), (buckets, h.sum()))
            })
            .collect();
        Snapshot { counters, hists }
    }
}

/// What happened in the registry between two snapshots.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn between(before: Snapshot, after: Snapshot) -> Self {
        Delta { before, after }
    }

    /// Counter increase (0 for a counter that never fired).
    pub fn count(&self, name: &str) -> f64 {
        let a = self.after.counters.get(name).copied().unwrap_or(0);
        let b = self.before.counters.get(name).copied().unwrap_or(0);
        a.saturating_sub(b) as f64
    }

    fn buckets(&self, name: &str) -> (Vec<u64>, f64) {
        let empty = (vec![0; N_BUCKETS], 0.0);
        let (a, sa) = self.after.hists.get(name).cloned().unwrap_or(empty.clone());
        let (b, sb) = self.before.hists.get(name).cloned().unwrap_or(empty);
        let d = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.saturating_sub(*y))
            .collect();
        (d, sa - sb)
    }

    /// Observations added to a histogram.
    pub fn hist_count(&self, name: &str) -> f64 {
        self.buckets(name).0.iter().sum::<u64>() as f64
    }

    /// Mean of the observations added (0 when none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (b, sum) = self.buckets(name);
        crate::stats::ratio(sum, b.iter().sum::<u64>() as f64)
    }

    /// Quantile of the observations added, at the histogram's bucket
    /// resolution (upper bucket bound; 0 when none).
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let (b, _) = self.buckets(name);
        let total: u64 = b.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, n) in b.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(N_BUCKETS - 1)
    }
}
