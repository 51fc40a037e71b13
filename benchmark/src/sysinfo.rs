//! The benchmark's own clock and what it knows about the machine it runs on.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Nanoseconds since the Unix epoch on a monotonic clock: the wall clock is
/// read once per process and `Instant` supplies every later tick, so the
/// supervisor and its `cr-tcp` rank children share one time base without
/// any reading going backwards.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<(Instant, u64)> = OnceLock::new();
    let (start, epoch_ns) = BASE.get_or_init(|| {
        let epoch = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64);
        (Instant::now(), epoch)
    });
    epoch_ns + start.elapsed().as_nanos() as u64
}

/// The `benchmark/` directory this binary was built from.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The contract, `BENCHMARK.json` at the repo root, parsed.
pub fn contract() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `benchmark/out/`, created on demand: traces and scratch results.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// Size in bytes of the largest cache level CPU 0 reports.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let p = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let s = std::fs::read_to_string(p).ok()?;
            let s = s.trim();
            let (digits, scale) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                b'G' => (&s[..s.len() - 1], 1 << 30),
                _ => (s, 1),
            };
            digits.parse::<u64>().ok().map(|n| n * scale)
        })
        .max()
}

/// Total physical memory in bytes.
pub fn mem_total_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb = info.lines().find_map(|l| l.strip_prefix("MemTotal:"))?;
    kb.split_whitespace().next()?.parse::<u64>().ok().map(|k| k * 1024)
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The result header: where and with what the numbers were taken.
pub fn header() -> Json {
    Json::obj([
        ("cores", Json::Num(cores() as f64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["--version"], bench_dir()))),
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"], bench_dir()))),
        ("kernel_policy", Json::str(format!("{:?}", crate::api::KernelPolicy::auto()))),
        ("default_shards", Json::Num(crate::api::default_shards() as f64)),
        ("llc_mib", llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64 / (1 << 20) as f64))),
    ])
}
