//! Spread mode: runs one workload N times, each in its own process with
//! its own seed, and prints each metric's median, quartiles and spread
//! (interquartile distance over the median) next to its bound in
//! `BENCHMARK.json`, so the bounds can be rechecked on another host.

use crate::measure::{median, quartiles};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `(bound, better)` of each end-to-end metric in `BENCHMARK.json`, when
/// the file is in the working directory.
fn bounds() -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(v) = tinyjson::parse(&text) else {
        return out;
    };
    for m in v.fetch("end_to_end").as_arr().unwrap_or_default() {
        if let (Ok(name), Ok(bound), Ok(better)) = (
            m.fetch("name").as_str(),
            m.fetch("bound").as_f64(),
            m.fetch("better").as_str(),
        ) {
            out.insert(name.to_string(), (bound, better.to_string()));
        }
    }
    out
}

pub fn run(argv: &[String], workload: &str, first_seed: u64, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Forward every flag but --spread and --seed.
    let mut forward = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        if flag != "--spread" && flag != "--seed" {
            forward.push(flag.clone());
            forward.push(value);
        }
    }
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + runs as u64 {
        let out = Command::new(&exe)
            .args(&forward)
            .arg("--seed")
            .arg(seed.to_string())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!(
                    "seed {seed}: exit {}\n{}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr)
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stderr = String::from_utf8_lossy(&out.stderr);
        for line in stderr.lines().filter(|l| {
            ["latency", "fit repetitions", "host steal"]
                .iter()
                .any(|p| l.starts_with(p))
        }) {
            eprintln!("seed {seed}: {line}");
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(v) = stdout.lines().last().and_then(|l| tinyjson::parse(l).ok()) else {
            eprintln!("seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        all_correct &= v.fetch("correct").as_bool().unwrap_or(false);
        let attempted = v.fetch("attempted").as_f64().unwrap_or(f64::NAN);
        let failed = v.fetch("failed").as_f64().unwrap_or(f64::NAN);
        shares.push(failed / attempted);
        let mut line = format!("seed {seed}:");
        for (name, m) in v.fetch("metrics").as_obj().unwrap_or_default() {
            let value = m.fetch("value").as_f64().unwrap_or(f64::NAN);
            let unit = m.fetch("unit").as_str().unwrap_or_default().to_string();
            line.push_str(&format!(" {name}={value:.6}"));
            values
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
        eprintln!("{line}");
    }
    let bounds = bounds();
    println!(
        "{workload}: {runs} runs, seeds {first_seed}..{}, all correct: {all_correct}",
        first_seed + runs as u64 - 1
    );
    println!("failed share per run: {shares:?}");
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound", "ok"
    );
    for (name, (v, unit)) in &values {
        let med = median(v).unwrap_or(f64::NAN);
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let spread = (q3 - q1) / med.abs();
        let (bound, verdict) = match bounds.get(name) {
            Some((b, _)) if name == "setup_s" => (format!("{b}"), "-".to_string()),
            Some((b, _)) => (
                format!("{b}"),
                if spread <= b / 3.0 {
                    "yes"
                } else if spread <= *b {
                    "wide"
                } else {
                    "NO"
                }
                .to_string(),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!("{:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>8} {verdict:>6}  {unit}", name);
    }
    ExitCode::SUCCESS
}
