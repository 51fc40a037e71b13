//! The repo's benchmark: one runner, six workloads, eight end-to-end
//! metrics, per-layer probes and a traced pass. See `README.md` beside this
//! package for the glossary and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! ft-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--sets N] [--out FILE]
//! ft-benchmark compare A.json[:SET] B.json[:SET]
//! ```

mod api;
mod compare;
mod e2e;
mod fd;
mod job;
mod json;
mod layers;
mod probes;
mod quiet;
mod report;
mod run;
mod stats;
mod sysinfo;
mod timed;
mod trace;
mod workloads;

const USAGE: &str = "usage:
  ft-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--sets N] [--out FILE]
  ft-benchmark compare A.json[:SET] B.json[:SET]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A supervised rank child of the cr-tcp workload diverts before anything
    // else: the supervisor re-executes this binary once per rank.
    if let Some(env) = api::child_env() {
        std::process::exit(job::run_tcp_child(env, &args));
    }
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run::main(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        // Internal: a fresh process whose memory high-water mark is one job's.
        Some((cmd, rest)) if cmd == "footprint" => e2e::footprint_child(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
