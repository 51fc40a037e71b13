//! Chrome trace-event output of the traced pass.
//!
//! One process per variant run (its name is the run's id, which every span
//! carries as `parent`), one thread per GASPI rank; the layer probes are a
//! process of their own with one thread per probe. Load the file in
//! `chrome://tracing` or Perfetto.

use std::io::{BufWriter, Write};
use std::path::Path;

use crate::job::VariantRun;
use crate::probes::ProbeSpan;

/// Thread id of the span covering the whole variant run (ranks are below).
const JOB_TID: u64 = 1_000_000;

/// A variant run and the id its spans name as their parent.
pub struct TracedRun<'a> {
    pub id: String,
    pub run: &'a VariantRun,
}

fn event(
    out: &mut impl Write,
    first: &mut bool,
    name: &str,
    (pid, tid): (usize, u64),
    t0: u64,
    (start, end): (u64, u64),
    args: &str,
) -> std::io::Result<()> {
    let sep = if std::mem::take(first) { "" } else { ",\n" };
    // Trace-event timestamps are microseconds; keep the ns as decimals.
    let ts = start.saturating_sub(t0) as f64 / 1e3;
    let dur = end.saturating_sub(start) as f64 / 1e3;
    write!(
        out,
        "{sep}{{\"name\":\"{name}\",\"cat\":\"ft\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
    )
}

fn process_name(
    out: &mut impl Write,
    first: &mut bool,
    pid: usize,
    name: &str,
) -> std::io::Result<()> {
    let sep = if std::mem::take(first) { "" } else { ",\n" };
    write!(
        out,
        "{sep}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Write every span of `runs` and `probes` to `path`; returns the span count.
pub fn write(path: &Path, runs: &[TracedRun], probes: &[ProbeSpan]) -> std::io::Result<usize> {
    let t0 = runs.iter().map(|r| r.run.t0).chain(probes.iter().map(|s| s.start)).min().unwrap_or(0);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut first = true;
    let mut count = 0;
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, tr) in runs.iter().enumerate() {
        let pid = i + 1;
        process_name(&mut out, &mut first, pid, &tr.id)?;
        // The run itself, as the span that caused the others.
        event(&mut out, &mut first, &tr.id, (pid, JOB_TID), t0, (tr.run.t0, tr.run.t_end), "")?;
        for w in &tr.run.workers {
            let rank = u64::from(w.timing.gaspi_rank);
            for s in &w.timing.spans {
                let args = format!("\"rank\":{rank},\"iter\":{},\"parent\":\"{}\"", s.iter, tr.id);
                event(
                    &mut out,
                    &mut first,
                    s.call.name(),
                    (pid, rank),
                    t0,
                    (s.start, s.end),
                    &args,
                )?;
                count += 1;
            }
        }
    }
    let pid = runs.len() + 1;
    process_name(&mut out, &mut first, pid, "layer probes")?;
    let mut names: Vec<&str> = Vec::new();
    for s in probes {
        let tid = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
            names.push(s.name);
            names.len() - 1
        });
        event(
            &mut out,
            &mut first,
            s.name,
            (pid, tid as u64),
            t0,
            (s.start, s.end),
            "\"parent\":\"layer probes\"",
        )?;
        count += 1;
    }
    out.write_all(b"\n]}\n")?;
    // Surface a full disk now rather than in `Drop`, which cannot report it.
    out.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Variant, WorkerOut};
    use crate::json::Json;
    use crate::timed::{Call, RankTiming, Span};

    #[test]
    fn the_trace_is_valid_json_with_one_event_per_span() {
        let timing = RankTiming {
            gaspi_rank: 2,
            spans: vec![
                Span { call: Call::Setup, iter: 0, start: 1_000, end: 2_500 },
                Span { call: Call::Step, iter: 7, start: 3_000, end: 3_750 },
            ],
            ..RankTiming::default()
        };
        let run = VariantRun {
            variant: Variant::Ft,
            t0: 500,
            t_launch: 600,
            t_end: 9_000,
            workers: vec![WorkerOut {
                app_rank: 2,
                iters: 8,
                alphas: vec![],
                betas: vec![],
                timing,
            }],
            problems: vec![],
        };
        let probes = [ProbeSpan { name: "gaspi.barrier", start: 10_000, end: 10_400 }];
        let dir = crate::sysinfo::out_dir().unwrap();
        let path = dir.join(".trace-unit-test.json");
        let n = write(&path, &[TracedRun { id: "w/ft#1".into(), run: &run }], &probes).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(n, 3);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 process names + the run span + 2 call spans + 1 probe span.
        assert_eq!(events.len(), 6);
        let step =
            events.iter().find(|e| e.get("name").and_then(Json::as_str) == Some("step")).unwrap();
        assert_eq!(step.get("ts").and_then(Json::as_f64), Some(2.5));
        assert_eq!(step.get("dur").and_then(Json::as_f64), Some(0.75));
        assert_eq!(step.get("tid").and_then(Json::as_f64), Some(2.0));
        let args = step.get("args").unwrap();
        assert_eq!(args.get("iter").and_then(Json::as_f64), Some(7.0));
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("w/ft#1"));
    }
}
