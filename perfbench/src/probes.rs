//! Process probes read from `/proc`, and the metadata every result carries.

use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Voluntary plus involuntary context switches summed over the live
/// threads of this process. Threads can exit while `/proc/self/task` is
/// walked; a task that vanishes between listing and reading is skipped
/// rather than failing the whole probe.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        total += status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum::<u64>();
    }
    total
}

/// User plus system CPU time of the whole process (all threads, exited
/// ones included), in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest` starts
    // at field 3.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 / clock_ticks_per_s()
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), in seconds, summed
/// over all CPUs.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let steal = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .unwrap_or(0);
    steal as f64 / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a configuration value; no memory is passed.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Peak resident set size (VmHWM) in MiB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn clocksource() -> String {
    fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The commit the benchmark runs on, read from `.git` when the working
/// directory is a git checkout; "unknown" otherwise.
pub fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    rev.unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds() > 0.0);
        assert!(rss_peak_mb() > 0.0);
        // Threads exiting during the walk must not zero the sum.
        let churn: Vec<_> = (0..8).map(|_| std::thread::spawn(|| ())).collect();
        assert!(context_switches() > 0);
        for t in churn {
            t.join().expect("churn thread");
        }
    }
}
