//! The `compare` subcommand: per (metric, workload) verdicts between two
//! result documents, judged by the bounds fixed in `BENCHMARK.json`.
//!
//! A result file holds one set, or several under `"sets"`; `FILE:N` picks
//! set `N`. Sets taken on different core counts, profiles, time budgets or
//! seeds are not comparable and are refused.

use crate::json::Json;

/// Exit codes: 0 nothing regressed · 1 a regression or more failed
/// operations · 2 the sets cannot be compared.
const REFUSED: i32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// The run's own uncertainty is wider than the bound: the difference
    /// cannot be told from noise either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in one set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    pub value: f64,
    /// How far the run's median could be off: the interquartile range of
    /// its samples as a share of their median, ÷ √(independent repeats).
    pub spread: f64,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(a: View, b: View, bound: f64, lower_is_better: bool) -> Verdict {
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.value, b.value, lower_is_better);
    if !w.is_finite() {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Regressed
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// `(name, bound, lower_is_better)` of every end-to-end metric in the
/// contract.
pub fn contract_bounds() -> Result<Vec<(String, f64, bool)>, String> {
    crate::sysinfo::contract()?
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str)?;
            let bound = m.get("bound").and_then(Json::as_f64)?;
            let better = m.get("better").and_then(Json::as_str)?;
            Some((name.to_string(), bound, better == "lower"))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Load `FILE` or `FILE:N`.
fn load_set(spec: &str) -> Result<Json, String> {
    let (path, index) = match spec.rsplit_once(':') {
        Some((p, n)) if n.parse::<usize>().is_ok() => (p, n.parse::<usize>().ok()),
        _ => (spec, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match (doc.get("sets").and_then(Json::as_arr), index) {
        (Some(sets), Some(i)) => {
            sets.get(i).cloned().ok_or(format!("{path}: holds {} sets, no set {i}", sets.len()))
        }
        (Some(sets), None) => {
            Err(format!("{path}: holds {} sets, pick one with {path}:N", sets.len()))
        }
        (None, None | Some(0)) => Ok(doc),
        (None, Some(i)) => Err(format!("{path}: a single set, no set {i}")),
    }
}

fn view(set: &Json, workload: &str, metric: &str) -> Option<View> {
    let pass = set.get("workloads")?.get(workload)?.get("end_to_end")?;
    let m = pass.get("metrics")?.get(metric)?;
    // Samples of one repeat share its stretch of machine time, so repeats,
    // not samples, are what is independent.
    let repeats = pass.get("repeats")?.as_f64()?.max(1.0);
    Some(View {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread")?.as_f64()? / repeats.sqrt(),
    })
}

fn failed_share(set: &Json, workload: &str) -> Option<f64> {
    let pass = set.get("workloads")?.get(workload)?.get("end_to_end")?;
    let attempted = pass.get("ops_attempted")?.as_f64()?;
    Some(pass.get("ops_failed")?.as_f64()? / attempted.max(1.0))
}

/// Why two sets cannot be compared, if they cannot.
pub fn incomparable(a: &Json, b: &Json) -> Option<String> {
    let cores = |s: &Json| s.get("header").and_then(|h| h.get("cores")).cloned();
    let differs = |what: &str, x: Option<Json>, y: Option<Json>| {
        (x != y).then(|| format!("{what} differs: {x:?} vs {y:?}"))
    };
    differs("cores", cores(a), cores(b))
        .or_else(|| differs("profile", a.get("profile").cloned(), b.get("profile").cloned()))
        .or_else(|| differs("seed", a.get("seed").cloned(), b.get("seed").cloned()))
        .or_else(|| differs("seconds", a.get("seconds").cloned(), b.get("seconds").cloned()))
}

pub fn main(args: &[String]) -> i32 {
    let [spec_a, spec_b] = args else {
        eprintln!("usage: ft-benchmark compare A.json[:SET] B.json[:SET]");
        return REFUSED;
    };
    let loaded = load_set(spec_a).and_then(|a| Ok((a, load_set(spec_b)?, contract_bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ft-benchmark compare: {e}");
            return REFUSED;
        }
    };
    if let Some(why) = incomparable(&a, &b) {
        eprintln!("ft-benchmark compare: refusing to compare, {why}");
        return REFUSED;
    }
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .map_or(Vec::new(), |w| w.iter().map(|(k, _)| k.as_str()).collect());
    println!(
        "{:<20} {:<16} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%"
    );
    let mut bad = false;
    for w in workloads {
        for (metric, bound, lower) in &bounds {
            let (Some(va), Some(vb)) = (view(&a, w, metric), view(&b, w, metric)) else {
                println!("{w:<20} {metric:<16} missing from one set");
                bad = true;
                continue;
            };
            let v = verdict(va, vb, *bound, *lower);
            bad |= v == Verdict::Regressed;
            println!(
                "{w:<20} {metric:<16} {:>13.6} {:>13.6} {:>8.2} {:>7.2} {:>7.0}  {}",
                va.value,
                vb.value,
                100.0 * worsening(va.value, vb.value, *lower),
                100.0 * va.spread.max(vb.spread),
                100.0 * bound,
                v.name()
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(&a, w), failed_share(&b, w)) {
            if fb > fa {
                println!("{w:<20} ops_failed share rose from {fa:.4} to {fb:.4}");
                bad = true;
            }
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(value: f64, spread: f64) -> View {
        View { value, spread }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(v(1.0, 0.02), v(1.05, 0.02), 0.10, true), Verdict::Ok);
        assert_eq!(verdict(v(1.0, 0.02), v(1.15, 0.02), 0.10, true), Verdict::Regressed);
        assert_eq!(verdict(v(1.0, 0.02), v(0.85, 0.02), 0.10, true), Verdict::Improved);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(v(100.0, 0.0), v(85.0, 0.0), 0.10, false), Verdict::Regressed);
        assert_eq!(verdict(v(100.0, 0.0), v(115.0, 0.0), 0.10, false), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_whatever_the_medians_say() {
        assert_eq!(verdict(v(1.0, 0.12), v(2.0, 0.01), 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(v(1.0, 0.01), v(1.0, 0.30), 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(v(0.0, 0.0), v(1.0, 0.0), 0.10, true), Verdict::Unresolved);
    }

    fn set(cores: f64, profile: &str, seed: f64) -> Json {
        Json::obj([
            ("header", Json::obj([("cores", Json::Num(cores))])),
            ("profile", Json::str(profile)),
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
        ])
    }

    #[test]
    fn refuses_other_cores_profile_or_seed() {
        assert_eq!(incomparable(&set(2.0, "full", 1.0), &set(2.0, "full", 1.0)), None);
        assert!(incomparable(&set(2.0, "full", 1.0), &set(4.0, "full", 1.0))
            .unwrap()
            .contains("cores"));
        assert!(incomparable(&set(2.0, "quick", 1.0), &set(2.0, "full", 1.0))
            .unwrap()
            .contains("profile"));
        assert!(incomparable(&set(2.0, "full", 1.0), &set(2.0, "full", 2.0))
            .unwrap()
            .contains("seed"));
    }
}
