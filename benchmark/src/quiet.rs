//! Telling a quiet machine from one whose hypervisor is taking the CPU away.
//!
//! The reference box is a 2-vCPU guest whose host is busy for minutes at a
//! time; the guest sees it as *steal* time in `/proc/stat`. Jobs that run at
//! 2 % steal or less repeat to ±3 %; at 25 % steal the same job takes twice
//! as long. Steal is therefore measured around every repeat, disturbed
//! repeats are set aside, and after one the run waits (a bounded while) for
//! the machine to calm down. Where the kernel reports no steal, every repeat
//! counts as quiet and nothing here has any effect.

use std::time::{Duration, Instant};

/// Largest steal share at which a repeat still counts as quiet.
pub const QUIET_STEAL: f64 = 0.03;
/// How long one probe keeps every core busy.
const PROBE: Duration = Duration::from_millis(200);
const PAUSE: Duration = Duration::from_millis(300);

/// Cumulative CPU time of the whole machine, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

fn parse_cpu_line(stat: &str) -> Option<CpuTimes> {
    // cpu  user nice system idle iowait irq softirq steal guest guest_nice
    let mut fields = stat.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| CpuTimes { steal: ticks[7], total: ticks.iter().sum() })
}

pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_line(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of the machine's CPU time since `start` that the hypervisor took;
/// 0 where steal is not reported.
pub fn steal_since(start: Option<CpuTimes>) -> f64 {
    match (start, cpu_times()) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// Steal only accrues while the guest wants to run: keep every core busy
/// for [`PROBE`] and report the share of it that was stolen.
fn probe_steal() -> f64 {
    let start = cpu_times();
    let until = Instant::now() + PROBE;
    std::thread::scope(|s| {
        for _ in 0..crate::sysinfo::cores() {
            s.spawn(move || {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                }
            });
        }
    });
    steal_since(start)
}

/// Probe until the machine is quiet or `max_wait_s` is spent; returns the
/// seconds this took.
pub fn wait_until_quiet(max_wait_s: f64) -> f64 {
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() + (PROBE + PAUSE).as_secs_f64() <= max_wait_s {
        if probe_steal() <= QUIET_STEAL {
            break;
        }
        std::thread::sleep(PAUSE);
    }
    t0.elapsed().as_secs_f64()
}

/// Choose which repeats to report: the quiet ones; if there are fewer than
/// `need`, the least disturbed of the rest on top. Returns indices into
/// `steal`, ascending.
pub fn select(steal: &[f64], need: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].partial_cmp(&steal[b]).expect("finite shares"));
    let quiet = order.iter().filter(|&&i| steal[i] <= QUIET_STEAL).count();
    order.truncate(quiet.max(need.min(steal.len())));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_steal_share_comes_from_the_eighth_field() {
        let a =
            parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n").unwrap();
        assert_eq!(a, CpuTimes { steal: 35, total: 1000 });
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
        assert_eq!(parse_cpu_line(""), None);
    }

    #[test]
    fn quiet_repeats_are_kept_and_topped_up_with_the_least_disturbed() {
        // Enough quiet ones: exactly those, in run order.
        assert_eq!(select(&[0.01, 0.30, 0.0, 0.02, 0.12], 3), vec![0, 2, 3]);
        // Too few: the least disturbed of the rest fill up to `need`.
        assert_eq!(select(&[0.25, 0.01, 0.10, 0.40], 3), vec![0, 1, 2]);
        // Never more than there are.
        assert_eq!(select(&[0.5], 3), vec![0]);
        assert_eq!(select(&[], 3), Vec::<usize>::new());
        // No steal reported anywhere: everything is quiet.
        assert_eq!(select(&[0.0; 4], 2), vec![0, 1, 2, 3]);
    }
}
