//! The run's result: metrics, failure accounting and correctness checks,
//! printed as the one JSON line the benchmark ends with.

/// Outcome of every distinct operation of a workload's fixed list. Each
/// item is counted once however often the timed loop repeats it, so the
/// counts repeat exactly for a seed; every repeat must reproduce the
/// first outcome bit for bit.
#[derive(Debug, Clone)]
pub struct Tally {
    first: Vec<Option<(bool, u64)>>,
    mismatches: usize,
}

impl Tally {
    /// A tally over `items` operations, none run yet.
    pub fn new(items: usize) -> Self {
        Tally { first: vec![None; items], mismatches: 0 }
    }

    /// Records one run of item `i`: whether it succeeded and a digest of
    /// its output. Returns false when a repeat differs from the first.
    pub fn record(&mut self, i: usize, ok: bool, digest: u64) -> bool {
        match self.first[i] {
            None => {
                self.first[i] = Some((ok, digest));
                true
            }
            Some(seen) if seen == (ok, digest) => true,
            Some(_) => {
                self.mismatches += 1;
                false
            }
        }
    }

    /// The first recorded digest of item `i`.
    pub fn digest(&self, i: usize) -> Option<u64> {
        self.first[i].map(|(_, d)| d)
    }

    /// Distinct items run.
    pub fn attempted(&self) -> u64 {
        self.first.iter().flatten().count() as u64
    }

    /// Distinct items that failed.
    pub fn failed(&self) -> u64 {
        self.first.iter().flatten().filter(|(ok, _)| !ok).count() as u64
    }

    /// Repeats whose output differed from the item's first run.
    pub fn mismatches(&self) -> usize {
        self.mismatches
    }

    /// Items in the list.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// Whether every item has run at least once.
    pub fn complete(&self) -> bool {
        self.first.iter().all(Option::is_some)
    }
}

/// FNV-1a over a byte string: a stable digest of decoded outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Failed correctness checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// Adds a metric. A non-finite value is a failed check.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("metric {name} is not finite ({value})"));
            return;
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a metric from a fallible computation (a percentile that lacks
    /// samples is a failed check, not a number).
    pub fn metric_or_error(&mut self, name: &str, value: Result<f64, String>, unit: &'static str) {
        match value {
            Ok(v) => self.metric(name, v, unit),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.attempted > 0
    }

    /// The names of the metrics recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_do_not_change_the_counts() {
        let mut t = Tally::new(3);
        assert!(t.record(0, true, 7));
        assert!(t.record(1, false, 8));
        for _ in 0..5 {
            assert!(t.record(0, true, 7));
            assert!(t.record(1, false, 8));
        }
        assert_eq!((t.attempted(), t.failed()), (2, 1));
        assert!(!t.complete());
        assert!(t.record(2, true, 9));
        assert!(t.complete());
        assert_eq!((t.attempted(), t.failed(), t.mismatches()), (3, 1, 0));
    }

    #[test]
    fn a_repeat_that_differs_is_a_mismatch() {
        let mut t = Tally::new(1);
        t.record(0, true, 1);
        assert!(!t.record(0, true, 2));
        assert!(!t.record(0, false, 1));
        assert_eq!(t.mismatches(), 2);
        // The first outcome stands.
        assert_eq!((t.attempted(), t.failed(), t.digest(0)), (1, 0, Some(1)));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"00"), fnv1a(b"01"));
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report { attempted: 4, failed: 1, ..Report::default() };
        r.metric("pass_ms_p10", 1.25, "ms");
        r.metric("bad", f64::NAN, "ms");
        assert!(!r.correct());
        let mut ok = Report { attempted: 1, ..Report::default() };
        ok.metric("setup_s", 0.5, "s");
        assert_eq!(
            ok.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(r.to_json().starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        let mut none = Report::default();
        none.metric_or_error("x", Err("too few".into()), "ms");
        assert_eq!(none.errors, vec!["x: too few".to_string()]);
    }
}
