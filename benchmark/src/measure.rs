//! Exact-sample statistics, process counters and the check ledger.

use std::fmt::Display;
use std::time::Instant;

/// The `q`-quantile of `samples` by nearest rank: the smallest sample
/// with at least `q·n` samples at or below it. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile reported as a tail. Logs the latency distribution
/// on stderr, with a warning when fewer than ten samples lie beyond the
/// tail (a run cut shorter than the workload is sized for).
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    let beyond = n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let at = |q| quantile(samples, q).unwrap_or(f64::NAN);
    eprintln!(
        "latency ms over {n} operations: p50 {:.4} p75 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} max {:.4}",
        at(0.5),
        at(0.75),
        at(0.9),
        at(0.95),
        at(0.99),
        at(1.0)
    );
    if beyond < 10 {
        eprintln!(
            "warning: only {beyond} of {n} samples lie beyond the p{}",
            q * 100.0
        );
    }
    at(q)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so a spread
/// printed here matches one computed with Python.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`. The kernel reports it in USER_HZ = 100 ticks/s.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the first field is field 3 (state); utime and stime are
    // fields 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {i} unreadable"))
    };
    Ok((tick(14)? + tick(15)?) / 100.0)
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb / 1024.0)
}

/// Seconds the hypervisor ran something else while this machine's vCPUs
/// wanted to run (the `steal` column of `/proc/stat`'s `cpu` line, summed
/// over vCPUs), if the kernel reports it.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = line.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal / 100.0)
}

/// Wall and CPU clocks over a timed phase.
pub struct Phase {
    start: Instant,
    cpu0: f64,
    steal0: Option<f64>,
}

impl Phase {
    pub fn start() -> Result<Phase, String> {
        Ok(Phase {
            cpu0: process_cpu_s()?,
            steal0: host_steal_s(),
            start: Instant::now(),
        })
    }

    /// `(wall_s, cpu_s)` since the phase started. Reports on stderr how
    /// much CPU the host took from this machine meanwhile: wall-clock
    /// figures grow with it, CPU figures do not.
    pub fn stop(&self) -> Result<(f64, f64), String> {
        let wall = self.start.elapsed().as_secs_f64();
        if let (Some(a), Some(b)) = (self.steal0, host_steal_s()) {
            eprintln!(
                "host steal over the timed phase: {:.2} vCPU-s in {wall:.1} s",
                b - a
            );
        }
        Ok((wall, process_cpu_s()? - self.cpu0))
    }
}

/// Every output check of a run; the run is correct when none failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what.to_string());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Whether two float slices are equal bit for bit.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
