//! The `run` subcommand: one workload in this process, or every workload
//! each in a re-executed process of its own, merged into one result document.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::job::Job;
use crate::json::Json;
use crate::report::{RunResult, SCHEMA};
use crate::sysinfo::{contract, header, out_dir};
use crate::workloads::{self, Kind, Workload};
use crate::{e2e, layers};

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    /// `None`: the contract's `run_seconds` (full) or the bare minimum (quick).
    pub seconds: Option<f64>,
    /// `None` when `--trace` was not given at all.
    pub trace: Option<bool>,
    pub quick: bool,
    pub out: Option<PathBuf>,
    /// Back-to-back repetitions of the whole all-workloads run, written as
    /// `{"sets": [...]}` (the shape of `results/BENCH_*.json`).
    pub sets: usize,
}

pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        sets: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if workloads::by_name(&name).is_none() {
                    let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                o.workload = Some(name);
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                o.seconds = Some(s);
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--sets" => {
                o.sets = value("--sets")?.parse().map_err(|e| format!("--sets: {e}"))?;
                if o.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--quick" => o.quick = true,
            "--trace" => {
                // `--trace 0|1` (the contract's form) or a bare `--trace`.
                o.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.sets > 1 && o.workload.is_some() {
        return Err("--sets repeats the all-workloads run; drop --workload".into());
    }
    Ok(o)
}

/// `run_seconds` of `BENCHMARK.json`, the full profile's time budget.
fn contract_seconds() -> f64 {
    contract().ok().and_then(|d| d.get("run_seconds").and_then(Json::as_f64)).unwrap_or(10.0)
}

impl Opts {
    fn budget_s(&self) -> f64 {
        self.seconds.unwrap_or_else(|| if self.quick { 0.0 } else { contract_seconds() })
    }

    fn profile(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// One pass over one workload, in this process.
fn run_pass(w: &Workload, o: &Opts, traced: bool) -> RunResult {
    let seconds = o.budget_s();
    match (&w.kind, traced) {
        (Kind::Job(shape), false) => {
            e2e::measure_job(&Job::new(w.name, shape.clone(), o.quick, o.seed), seconds)
        }
        (Kind::FdScale, false) => e2e::measure_fd_scale(o.seed, seconds, o.quick),
        (_, true) => layers::measure(w, o.seed, o.quick),
    }
}

/// A result document holding the given `(workload, pass, fragment)` triples.
fn document(o: &Opts, parts: &[(String, &'static str, Json)]) -> Json {
    let mut per_workload: Vec<(String, Json)> = Vec::new();
    for (name, pass, fragment) in parts {
        let at = per_workload.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
            per_workload.push((name.clone(), Json::Obj(Vec::new())));
            per_workload.len() - 1
        });
        if let Json::Obj(passes) = &mut per_workload[at].1 {
            passes.push((pass.to_string(), fragment.clone()));
        }
    }
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("header", header()),
        ("profile", Json::str(o.profile())),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.budget_s())),
        ("workloads", Json::Obj(per_workload)),
    ])
}

fn pass_name(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload NAME`: the contract's form. Prints the table, then the one
/// result object as the last line of stdout.
fn run_one(w: &Workload, o: &Opts) -> Result<i32, String> {
    let traced = o.trace == Some(true);
    let result = run_pass(w, o, traced);
    println!("{}: {}", w.name, w.why);
    result.print_table();
    if let Some(path) = &o.out {
        let parts = [(w.name.to_string(), pass_name(traced), result.to_json())];
        write_doc(path, &document(o, &parts))?;
    }
    println!("{}", result.contract_line());
    Ok(if result.correct() { 0 } else { 1 })
}

/// No `--workload`: every workload in a re-executed process of its own (so
/// `peak_rss_mb` is the workload's alone), untraced, then — with `--trace` —
/// the traced pass; merged into one document.
fn run_all(o: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = out_dir().map_err(|e| format!("benchmark/out: {e}"))?;
    let passes: &[bool] = if o.trace == Some(true) { &[false, true] } else { &[false] };
    let mut sets = Vec::new();
    let mut all_correct = true;
    for _ in 0..o.sets {
        let mut parts = Vec::new();
        for w in workloads::all() {
            for &traced in passes {
                let part = scratch.join(format!(".part-{}-{}.json", w.name, pass_name(traced)));
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", w.name, "--seed", &o.seed.to_string()])
                    .args(["--seconds", &o.budget_s().to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&part);
                if o.quick {
                    cmd.arg("--quick");
                }
                let status = cmd.status().map_err(|e| format!("re-exec for {}: {e}", w.name))?;
                all_correct &= status.success();
                let text = std::fs::read_to_string(&part)
                    .map_err(|e| format!("{}: {e}", part.display()))?;
                let _ = std::fs::remove_file(&part);
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
                let fragment = doc
                    .get("workloads")
                    .and_then(|ws| ws.get(w.name))
                    .and_then(|passes| passes.get(pass_name(traced)))
                    .ok_or(format!("{}: no {} result", part.display(), w.name))?;
                parts.push((w.name.to_string(), pass_name(traced), fragment.clone()));
            }
        }
        sets.push(document(o, &parts));
    }
    let doc = if o.sets == 1 {
        sets.remove(0)
    } else {
        Json::obj([("schema", Json::str(SCHEMA)), ("sets", Json::Arr(sets))])
    };
    let path = o.out.clone().unwrap_or_else(|| scratch.join("results.json"));
    write_doc(&path, &doc)?;
    println!("result document: {}", path.display());
    Ok(if all_correct { 0 } else { 1 })
}

pub fn main(args: &[String]) -> i32 {
    let outcome =
        parse(args).and_then(|o| match o.workload.as_deref().and_then(workloads::by_name) {
            Some(w) => run_one(&w, &o),
            None => run_all(&o),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("ft-benchmark run: {e}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_form() {
        let o = parse(&args("--workload cr-tcp --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("cr-tcp"));
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (42, Some(10.0), Some(true), false));
        let o = parse(&args("--trace 0 --workload fd-scale")).unwrap();
        assert_eq!(o.trace, Some(false));
    }

    #[test]
    fn bare_trace_and_defaults() {
        let o = parse(&args("--trace --quick --out x.json")).unwrap();
        assert_eq!((o.trace, o.quick, o.seed), (Some(true), true, 1));
        assert_eq!(o.out, Some(PathBuf::from("x.json")));
        assert_eq!(o.budget_s(), 0.0);
        assert_eq!(parse(&[]).unwrap().trace, None);
    }

    /// `BENCHMARK.json` is written from the constants below; this keeps the
    /// two from drifting apart.
    #[test]
    fn the_contract_declares_exactly_what_the_runner_measures() {
        let doc = contract().unwrap();
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    fields
                        .iter()
                        .map(|f| e.get(f).and_then(Json::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let strings = |rows: Vec<Vec<&str>>| -> Vec<Vec<String>> {
            rows.into_iter().map(|r| r.into_iter().map(String::from).collect()).collect()
        };
        assert_eq!(
            list("workloads", &["name", "why"]),
            strings(workloads::all().iter().map(|w| vec![w.name, w.why]).collect())
        );
        assert_eq!(
            list("end_to_end", &["name", "unit"]),
            strings(e2e::END_TO_END.iter().map(|&(n, u)| vec![n, u]).collect())
        );
        assert_eq!(
            list("per_layer", &["name", "unit", "better"]),
            strings(layers::PER_LAYER.iter().map(|&(n, u, b)| vec![n, u, b]).collect())
        );
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25), "{bounds:?}");
        let setup = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"));
        assert_eq!(setup.and_then(|e| e.get("better")).and_then(Json::as_str), Some("lower"));
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![Json::str("benchmark")])));
    }

    #[test]
    fn rejects_bad_input() {
        let sets_of_one = "--sets 2 --workload cr-tcp";
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds",
            "--frobnicate",
            "--sets 0",
            sets_of_one,
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
