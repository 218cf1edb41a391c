//! Order statistics, capacity-ladder search and the result format.

use std::fmt::Write as _;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `rungs` rates from `start`, each `factor` times the one before.
pub fn geometric_ladder(start: f64, factor: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|i| start * factor.powi(i as i32)).collect()
}

/// Highest rate on a fixed ascending `ladder` whose tail latency stays
/// within `limit`. `probe(rate)` runs one load step and returns its
/// tail latency (`f64::INFINITY` for a step with failures or a growing
/// backlog).
///
/// The climb stops at the first of two consecutive failing rungs, so
/// one transient stall does not end it. The result interpolates, in
/// log latency, between the last passing rung below that failure and
/// the failing rung, where the tail crosses `limit`; the top rung when
/// nothing failed; `None` when the first two rungs failed. Every probe
/// is appended to `probed` as (rate, tail).
pub fn search_capacity(
    ladder: &[f64],
    limit: f64,
    probed: &mut Vec<(f64, f64)>,
    mut probe: impl FnMut(f64) -> f64,
) -> Option<f64> {
    let mut last_pass: Option<(f64, f64)> = None;
    let mut pending_fail: Option<(f64, f64)> = None;
    for &rate in ladder {
        let tail = probe(rate);
        probed.push((rate, tail));
        if tail <= limit {
            last_pass = Some((rate, tail));
            pending_fail = None;
            continue;
        }
        match pending_fail {
            None => pending_fail = Some((rate, tail)),
            Some(fail) => {
                let (lo, lo_tail) = last_pass?;
                let (hi, hi_tail) = fail;
                let t = if hi_tail.is_finite() {
                    ((limit.ln() - lo_tail.ln()) / (hi_tail.ln() - lo_tail.ln())).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                return Some(lo + t * (hi - lo));
            }
        }
    }
    last_pass.map(|(rate, _)| rate)
}

/// A valid metric name of the result format: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A valid unit of the result format: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric.
    ///
    /// # Panics
    /// On a malformed or repeated name or unit, or a non-finite value:
    /// each is a bug in this benchmark, not in the program measured.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{}` on f64 prints the shortest string that round-trips:
            // every digit as measured.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_of_a_uniform_ramp() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&v, 0.99) - 990.01).abs() < 1e-9);
        assert_eq!(median(&v), 500.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn geometric_ladder_multiplies() {
        assert_eq!(
            geometric_ladder(100.0, 2.0, 4),
            vec![100.0, 200.0, 400.0, 800.0]
        );
    }

    #[test]
    fn ladder_interpolates_where_the_tail_crosses_the_limit() {
        // Tail 5 ms up to 400/s, 80 ms beyond: the crossing of a 20 ms
        // limit sits halfway (in log latency) between 400 and 800.
        let tail = |r: f64| if r <= 400.0 { 5.0 } else { 80.0 };
        let mut probed = Vec::new();
        let cap = search_capacity(
            &[100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0],
            20.0,
            &mut probed,
            tail,
        )
        .expect("capacity found");
        assert!((cap - 600.0).abs() < 1e-9, "{cap}");
        let rates: Vec<f64> = probed.iter().map(|p| p.0).collect();
        assert_eq!(
            rates,
            vec![100.0, 200.0, 400.0, 800.0, 1600.0],
            "stops after two failures"
        );
    }

    #[test]
    fn one_transient_failure_does_not_end_the_climb() {
        let tail = |r: f64| match r as u32 {
            200 => 90.0, // a stall
            800 => f64::INFINITY,
            1600 => f64::INFINITY,
            _ => 5.0,
        };
        let mut probed = Vec::new();
        let cap = search_capacity(
            &[100.0, 200.0, 400.0, 800.0, 1600.0],
            20.0,
            &mut probed,
            tail,
        );
        // Failures without a latency interpolate to the last pass.
        assert_eq!(cap, Some(400.0));
    }

    #[test]
    fn ladder_that_never_fails_reports_its_top() {
        let mut probed = Vec::new();
        assert_eq!(
            search_capacity(&[1.0, 2.0, 3.0], 20.0, &mut probed, |_| 1.0),
            Some(3.0)
        );
        assert_eq!(probed.len(), 3);
    }

    #[test]
    fn ladder_failing_at_its_first_rungs_has_no_capacity() {
        let mut probed = Vec::new();
        let cap = search_capacity(&[10.0, 20.0, 40.0], 20.0, &mut probed, |_| 99.0);
        assert_eq!(cap, None);
        assert_eq!(probed, vec![(10.0, 99.0), (20.0, 99.0)]);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "p50_ms",
            "serve.cache.hit_frac",
            "0a",
            "a-b.c_d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "a:b",
            "naïve",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn units_are_restricted() {
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok));
        }
        for bad in ["", "m s", "µs", "seconds-per-calls"] {
            assert!(!valid_unit(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn recording_a_bad_name_panics() {
        Metrics::default().set("bad name", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn recording_a_name_twice_panics() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "ms");
        m.set("a", 2.0, "ms");
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.203_456_789_1, "ms");
        let line = result_line(true, 0, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
    }
}
