//! What a run reports: named metrics with units, the operation counts, and
//! the three renderings of them — the printed table, the result document
//! (`--out`) and the one-line result the contract in `BENCHMARK.json` reads.

use crate::json::Json;
use crate::stats::{summarize, Summary};

/// Schema tag of result documents.
pub const SCHEMA: &str = "gaspi-ft/benchmark/v1";

/// Names are made of `[A-Za-z0-9_.-]`, start alphanumeric, at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named metric of one workload.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The reported figure: the median of `samples` unless stated otherwise
    /// in `detail`.
    pub value: f64,
    pub samples: Summary,
    pub detail: Option<String>,
}

impl Metric {
    pub fn from_samples(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        let s = summarize(&samples);
        Metric { name: name.into(), unit, value: s.median, samples: s, detail: None }
    }

    /// A single figure with no sample distribution behind it (a count, a
    /// value computed from array sizes, a ratio of two medians).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64, detail: &str) -> Metric {
        let mut m = Metric::from_samples(name, unit, vec![value]);
        m.detail = (!detail.is_empty()).then(|| detail.to_string());
        m
    }

    fn to_json(&self) -> Json {
        let s = &self.samples;
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("spread", Json::Num(s.spread())),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("n", Json::Num(s.n as f64)),
        ];
        if let Some(d) = &self.detail {
            pairs.push(("detail", Json::str(d.as_str())));
        }
        Json::obj(pairs)
    }
}

/// Everything one pass over one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    /// The traced pass reports per-layer metrics, the untraced end-to-end.
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Why operations failed (and anything else worth a line).
    pub problems: Vec<String>,
    /// Repeats the metrics are taken over.
    pub repeats: usize,
    /// Repeats set aside because the hypervisor took the CPU away meanwhile.
    pub set_aside: usize,
    /// Seconds spent waiting for a disturbed machine to calm down.
    pub waited_s: f64,
    pub measured_s: f64,
}

impl RunResult {
    pub fn new(workload: &str, traced: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            traced,
            metrics: Vec::new(),
            ops_attempted: 0,
            ops_failed: 0,
            problems: Vec::new(),
            repeats: 0,
            set_aside: 0,
            waited_s: 0.0,
            measured_s: 0.0,
        }
    }

    /// Outputs are correct when nothing failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.ops_failed == 0
            && self.ops_attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result object, to be printed as the last stdout line.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops_attempted.max(1) as f64)),
            ("failed", Json::Num(self.ops_failed as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .encode()
    }

    /// This pass as a fragment of a result document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("repeats", Json::Num(self.repeats as f64)),
            ("set_aside", Json::Num(self.set_aside as f64)),
            ("waited_s", Json::Num(self.waited_s)),
            ("measured_s", Json::Num(self.measured_s)),
            ("problems", Json::Arr(self.problems.iter().map(|p| Json::str(p.as_str())).collect())),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_json())).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        let pass = if self.traced { "per-layer (traced pass)" } else { "end-to-end" };
        println!(
            "== {} · {pass} · {} repeats ({} set aside as disturbed, {:.1} s waited) in {:.1} s · ops {}/{} ok ==",
            self.workload,
            self.repeats,
            self.set_aside,
            self.waited_s,
            self.measured_s,
            self.ops_attempted - self.ops_failed,
            self.ops_attempted
        );
        println!(
            "{:<34} {:>14} {:<6} {:>12} {:>12} {:>6}",
            "metric", "value", "unit", "min", "max", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>14} {:<6} {:>12} {:>12} {:>6}  {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                fmt_num(m.samples.min),
                fmt_num(m.samples.max),
                m.samples.n,
                m.detail.as_deref().unwrap_or("")
            );
        }
        for p in &self.problems {
            println!("  ! {p}");
        }
    }
}

/// Six significant digits, plain or scientific as the magnitude asks.
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "—".into();
    }
    let a = x.abs();
    if a != 0.0 && !(1e-3..1e7).contains(&a) {
        format!("{x:.5e}")
    } else {
        let decimals = (5 - a.max(1.0).log10().floor() as i32).clamp(0, 9) as usize;
        format!("{x:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for ok in ["wall_s", "cr-latency", "gaspi.allreduce_us.tail", "1st", "A9_.-"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", "a%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new("cr-latency", false);
        r.ops_attempted = 18;
        r.metrics.push(Metric::from_samples("wall_s", "s", vec![0.5123456789, 0.5, 0.6]));
        let doc = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.5123456789));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!r.contract_line().contains('\n'));
    }

    #[test]
    fn a_failed_operation_or_a_missing_number_is_not_correct() {
        let mut r = RunResult::new("w", false);
        r.ops_attempted = 2;
        r.metrics.push(Metric::single("m", "s", 1.0, ""));
        assert!(r.correct());
        r.ops_failed = 1;
        assert!(!r.correct());
        r.ops_failed = 0;
        r.metrics.push(Metric::from_samples("empty", "s", vec![]));
        assert!(!r.correct());
    }

    #[test]
    fn numbers_print_with_six_significant_digits() {
        assert_eq!(fmt_num(1234.5678), "1234.57");
        assert_eq!(fmt_num(0.0123456), "0.01235");
        assert_eq!(fmt_num(1.5e-7), "1.50000e-7");
        assert_eq!(fmt_num(f64::NAN), "—");
    }
}
