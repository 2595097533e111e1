//! The rDRP benchmark: four workloads, each run as its own process,
//! printing end-to-end metrics (or, traced, per-layer metrics) as one
//! JSON line. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload offline-rdrp --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-binary --seconds 20 --spread 10
//! ```

mod batch;
mod client;
mod layer;
mod measure;
mod offline;
mod oracle;
mod serving;
mod spread;
mod trace;

use datasets::{CriteoLike, ExperimentData, Population, RctGenerator, Setting, SettingSizes};
use linalg::random::Prng;
use measure::Checks;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const OFFLINE: &str = "offline-rdrp";
const NET: &str = "batch-karm-net";
const FOREST: &str = "batch-karm-forest";
const BINARY: &str = "serve-binary";
const JSONL: &str = "serve-jsonl-feedback";

/// The workloads: the two `BENCHMARK.json` gates first, then the three
/// whose figures drift too far between sets of runs to gate on (see the
/// README); these still run on their own and supply the per-layer
/// figures of the layers they exercise.
pub const WORKLOADS: [&str; 5] = [OFFLINE, NET, FOREST, BINARY, JSONL];

/// Budget as a share of the population's total true incremental cost.
pub const BUDGET_FRACTION: f64 = 0.3;
/// Cutoffs of every AUCC the benchmark computes.
pub const AUCC_BINS: usize = 100;

/// End-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("cpu_us_per_row", "us"),
    ("peak_rss_mb", "MB"),
    ("aucc", "1"),
    ("reward_at_budget", "revenue"),
];

/// Per-layer metrics, their units, and the workloads where each layer
/// does its work (README, "Layers"). A traced run of a workload takes a
/// metric from its own spans when it is one of those workloads, or when
/// none are named (every workload reports it); otherwise from a probe of
/// the first one named.
pub const PER_LAYER: [(&str, &str, &[&str]); 32] = [
    ("datasets.generate_ms", "ms", &[]),
    ("nn.train_ms", "ms", &[OFFLINE, BINARY, JSONL]),
    ("nn.mc_ms", "ms", &[OFFLINE, BINARY]),
    ("nn.predict_ms", "ms", &[OFFLINE]),
    ("core.roi_star_us", "us", &[OFFLINE]),
    ("core.form_select_ms", "ms", &[OFFLINE]),
    ("core.greedy_allocate_ms", "ms", &[OFFLINE]),
    ("core.mckp_allocate_ms", "ms", &[FOREST]),
    ("core.artifact_save_ms", "ms", &[FOREST, BINARY, JSONL]),
    ("core.artifact_load_ms", "ms", &[FOREST]),
    ("core.artifact_mb", "MB", &[FOREST]),
    ("tinyjson.parse_mb_per_s", "MB/s", &[FOREST]),
    ("tinyjson.request_parse_us", "us", &[JSONL]),
    ("tinyjson.render_us", "us", &[JSONL]),
    ("conformal.calibrate_us", "us", &[OFFLINE]),
    ("conformal.monitor_observe_us", "us", &[JSONL]),
    ("metrics.aucc_ms", "ms", &[OFFLINE]),
    ("uplift.karm_fit_ms", "ms", &[FOREST]),
    ("trees.score_ms", "ms", &[FOREST]),
    ("linalg.layout_ms", "ms", &[FOREST]),
    ("serve.encode_us", "us", &[JSONL, BINARY]),
    ("serve.decode_us", "us", &[JSONL, BINARY]),
    ("serve.score_us", "us", &[BINARY]),
    ("serve.engine_us", "us", &[BINARY, JSONL]),
    ("serve.response_encode_us", "us", &[JSONL, BINARY]),
    ("serve.client_decode_us", "us", &[JSONL, BINARY]),
    ("serve.unexplained_us", "us", &[BINARY, JSONL]),
    ("serve.batch_rows", "rows", &[JSONL]),
    ("client.lag_ms", "ms", &[BINARY, JSONL]),
    ("trace.p50_ms", "ms", &[]),
    ("trace.p50_residual_ms", "ms", &[]),
    ("trace.fit_residual_ms", "ms", &[]),
];

/// A full run, or the probe a traced run makes of another workload to
/// time the layers its own workload does not exercise. A probe runs the
/// workload's own configuration; it only sets up once and measures for
/// [`PROBE_S`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Probe,
}

/// What a workload run needs to know.
pub struct Cx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// When the process (or the probe) started.
    pub started: Instant,
    /// Working directory for artifacts, under the current directory.
    pub work: PathBuf,
}

/// Repeated set-up and fit steps span at least this long, so that their
/// median does not hang on one moment of a host whose speed drifts.
const REP_SPAN_S: f64 = 2.0;
/// Timed phase of a probe, in seconds.
const PROBE_S: f64 = 2.0;

impl Cx {
    /// Repetitions of a step whose first repetition took `first_s`: at
    /// least three and enough to span [`REP_SPAN_S`], at most fifteen (one
    /// in a probe). The reported figure is their median.
    pub fn reps(&self, first_s: f64) -> usize {
        match self.scale {
            Scale::Full => ((REP_SPAN_S / first_s.max(1e-3)).ceil() as usize).clamp(3, 15),
            Scale::Probe => 1,
        }
    }

    /// Fits through `fit` (which builds and fits a fresh model from the
    /// same RNG state each time), each repetition inside a `span` span, as
    /// many times as [`Cx::reps`] asks for. Returns the first model, the
    /// seconds of every repetition, and the first repetition's span.
    pub fn fit_reps<M>(
        &self,
        tr: &mut Tracer,
        span: &'static str,
        mut fit: impl FnMut() -> Result<M, String>,
    ) -> Result<(M, Vec<f64>, Option<trace::SpanId>), String> {
        let mut timed = |tr: &mut Tracer| -> Result<(M, f64, Option<trace::SpanId>), String> {
            let t0 = Instant::now();
            let id = tr.open(span, 0, None);
            let m = fit()?;
            tr.close(id);
            Ok((m, t0.elapsed().as_secs_f64(), id))
        };
        let (first, s, id) = timed(tr)?;
        let mut secs = vec![s];
        for _ in 1..self.reps(s) {
            let (m, s, _) = timed(tr)?;
            std::hint::black_box(m);
            secs.push(s);
        }
        eprintln!("fit repetitions: {secs:?} s");
        Ok((first, secs, id))
    }

    /// Repeats a set-up step whose first repetition took `first_s`, as
    /// many times as [`Cx::reps`] asks for; returns every repetition's
    /// seconds, the first included.
    pub fn setup_reps(
        &self,
        first_s: f64,
        mut again: impl FnMut() -> Result<(), String>,
    ) -> Result<Vec<f64>, String> {
        let mut secs = vec![first_s];
        for _ in 1..self.reps(first_s) {
            let t0 = Instant::now();
            again()?;
            secs.push(t0.elapsed().as_secs_f64());
        }
        Ok(secs)
    }

    /// Length of the timed phase.
    pub fn duration(&self) -> Duration {
        match self.scale {
            Scale::Full => Duration::from_secs_f64(self.seconds),
            Scale::Probe => Duration::from_secs_f64(PROBE_S.min(self.seconds)),
        }
    }
}

/// The nine end-to-end figures of a run, but `peak_rss_mb`, which is
/// read once the run is over.
#[derive(Debug, Clone)]
pub struct E2e {
    pub setup_s: f64,
    pub fit_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub rows_per_s: f64,
    pub cpu_us_per_row: f64,
    pub aucc: f64,
    pub reward_at_budget: f64,
}

/// A workload run's result.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: E2e,
    pub layers: layer::Layers,
}

/// Seed of every training and calibration RCT and of every fit, so that
/// each run evaluates the same fitted model and the quality metrics move
/// with the code only; `--seed` draws the populations the model scores
/// and the request streams.
pub const MODEL_SEED: u64 = 1;

/// The fit's RNG.
pub fn fit_rng() -> Prng {
    Prng::seed_from_u64(MODEL_SEED ^ 0xF17)
}

/// The binary-treatment inputs of `offline-rdrp` and both serving
/// workloads: CriteoLike in the InCo setting (training on the base
/// population, insufficient; calibration and test covariate-shifted),
/// at Table II's training and calibration sizes, with `test_rows` test
/// customers drawn from `seed`.
pub fn binary_data(seed: u64, test_rows: usize) -> ExperimentData {
    let sizes = SettingSizes {
        train_sufficient: 16_000,
        insufficient_fraction: 0.15,
        calibration: 10_000,
        test: 1,
    };
    let generator = CriteoLike::new();
    let mut data = ExperimentData::build(
        &generator,
        Setting::InCo,
        &sizes,
        &mut Prng::seed_from_u64(MODEL_SEED),
    );
    data.test = generator.sample(
        test_rows,
        Population::Shifted,
        &mut Prng::seed_from_u64(seed),
    );
    data
}

fn run_workload(
    name: &str,
    cx: &Cx,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<Report, String> {
    std::fs::create_dir_all(&cx.work).map_err(|e| format!("{}: {e}", cx.work.display()))?;
    let report = match name {
        OFFLINE => offline::run(cx, tr, checks),
        NET => batch::run(cx, batch::Family::Net, tr, checks),
        FOREST => batch::run(cx, batch::Family::Forest, tr, checks),
        BINARY => serving::run(cx, serving::Codec::Binary, tr, checks),
        JSONL => serving::run(cx, serving::Codec::Jsonl, tr, checks),
        other => Err(format!(
            "unknown workload {other:?}; workloads: {}",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&cx.work);
    report
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        spread: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--spread" => args.spread = Some(value.parse().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return spread::run(&argv, &args.workload, args.seed, runs);
    }
    match measure_run(&args, started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()))
}

/// Runs one workload and renders the result line.
fn measure_run(args: &Args, started: Instant) -> Result<String, String> {
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
        started,
        work: work_dir(&args.workload),
    };
    let mut tr = Tracer::new(args.trace, started);
    let mut checks = Checks::default();
    let report = run_workload(&args.workload, &cx, &mut tr, &mut checks)?;
    let peak_rss_mb = measure::peak_rss_mb()?;
    let mut layers = report.layers.clone();
    if args.trace {
        // A layer this workload does not exercise is timed on a probe of
        // the workload where it does its work.
        let foreign =
            |homes: &[&str]| !homes.is_empty() && !homes.contains(&args.workload.as_str());
        for other in WORKLOADS {
            let taken: Vec<&str> = PER_LAYER
                .iter()
                .filter(|(_, _, homes)| foreign(homes) && homes[0] == other)
                .map(|(m, _, _)| *m)
                .collect();
            if taken.is_empty() {
                continue;
            }
            let probe_cx = Cx {
                scale: Scale::Probe,
                started: Instant::now(),
                work: work_dir(other),
                ..cx
            };
            let mut probe_tr = Tracer::new(true, probe_cx.started);
            let probe = run_workload(other, &probe_cx, &mut probe_tr, &mut checks)?;
            for m in taken {
                layers.remove(m);
                if let Some(v) = probe.layers.get(m) {
                    layers.insert(m, *v);
                }
            }
            tr.absorb(probe_tr);
        }
        let path = PathBuf::from(".bench_work")
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        tr.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    }
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    eprintln!(
        "checks: {} passed, {} failed",
        checks.passed,
        checks.failures.len()
    );
    let e = &report.e2e;
    let values: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(m, u, _)| {
                layers
                    .get(m)
                    .map(|v| (m, *v, u))
                    .ok_or_else(|| format!("no figure for {m}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        let v = [
            e.setup_s,
            e.fit_s,
            e.p50_ms,
            e.tail_ms,
            e.rows_per_s,
            e.cpu_us_per_row,
            peak_rss_mb,
            e.aucc,
            e.reward_at_budget,
        ];
        END_TO_END
            .iter()
            .zip(v)
            .map(|(&(m, u), v)| (m, v, u))
            .collect()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v, u)| {
            if v.is_finite() {
                Ok(format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            } else {
                Err(format!("{m} is not finite ({v})"))
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.ok(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}
