//! Where a run's measurements accumulate: one sample series per metric
//! name, a reason for each metric that could not be measured, and the
//! tally of checked operations.

use std::collections::BTreeMap;

/// One checked operation (a compile, a replay pass, a control burst). It
/// fails when any expectation on it does; a failure is data, not a panic.
pub struct Op {
    what: String,
    errors: Vec<String>,
}

impl Op {
    pub fn new(what: impl Into<String>) -> Op {
        Op { what: what.into(), errors: Vec::new() }
    }

    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }
}

#[derive(Default)]
pub struct Recorder {
    /// One series per metric name; `MetricDef::value` turns a series into
    /// the value reported.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Why a metric has no number (`null` in the result, never a guess).
    pub reasons: BTreeMap<&'static str, String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, for the report.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Record that `name` cannot be measured here, and why.
    pub fn null(&mut self, name: &'static str, reason: impl Into<String>) {
        self.reasons.entry(name).or_insert_with(|| reason.into());
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Count the operation and keep its errors.
    pub fn finish(&mut self, op: Op) -> bool {
        self.attempted += 1;
        let ok = op.errors.is_empty();
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{}: {}", op.what, op.errors.join("; ")));
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_expectation_fails_the_operation_once() {
        let mut rec = Recorder::default();
        let mut good = Op::new("compile a");
        good.expect(true, || unreachable!());
        assert!(rec.finish(good));
        let mut bad = Op::new("replay b");
        bad.expect(false, || "dropped 3".into());
        bad.fail("snapshot differs");
        assert!(!rec.finish(bad));
        assert_eq!((rec.attempted, rec.failed), (2, 1));
        assert_eq!(rec.failures, ["replay b: dropped 3; snapshot differs"]);
    }

    #[test]
    fn the_first_reason_for_a_null_is_kept() {
        let mut rec = Recorder::default();
        rec.null("sim.sharded2.pkts_per_s", "1 core");
        rec.null("sim.sharded2.pkts_per_s", "later");
        assert_eq!(rec.reasons["sim.sharded2.pkts_per_s"], "1 core");
        rec.push("pkts_per_s", 2.0);
        assert_eq!(rec.series("pkts_per_s"), [2.0]);
        assert!(rec.series("absent").is_empty());
    }
}
