//! `serve-binary` and `serve-jsonl-feedback`: an open loop at a fixed
//! rate against `serve_poll` in this process, with the engine settings
//! `rdrp-cli serve` defaults to.
//!
//! * `serve-binary` serves a `drp-mc` artifact over the binary codec on
//!   two connections, one per engine shard. Every request runs its own
//!   MC-dropout sweep.
//! * `serve-jsonl-feedback` serves the `rdrp` artifact over JSONL with a
//!   calibration monitor attached: one connection sends score requests
//!   pinned to the loaded version, the other sends feedback lines from
//!   the shifted population carrying the served prediction, so the
//!   drift detector fires and hot-swaps during the run.

use crate::client::{self, Done, Payload, Reply, Send};
use crate::measure::{bitwise_eq, median, quantile, tail, Checks, Phase};
use crate::oracle;
use crate::trace::Tracer;
use crate::{binary_data, layer, offline, Cx, E2e, Report, Scale, AUCC_BINS, BUDGET_FRACTION};
use datasets::{ExperimentData, FeatureReference};
use linalg::random::Prng;
use linalg::Matrix;
use nn::Workspace;
use obs::{InMemoryRecorder, Obs};
use rdrp::{DrpModel, MethodConfig, RoiMethod, SCORING_SEED};
use serve::wire::{Decoded, Frame};
use serve::{
    BackoffPolicy, BatchScorer, BinaryCodec, CalibrationMonitor, CalibrationMonitorConfig,
    EngineConfig, FrameBuf, JsonlCodec, ModelRegistry, NetConfig, ObserveRequest, ScoreRequest,
    SessionLimits, ShardedEngine, WireCodec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::client::Codec;

/// The tail percentile both serving workloads report as `tail_ms`. On a
/// two-core host that stalls now and then for tens of milliseconds, p99
/// and p90 follow how many stalls a run happens to meet; p75 leaves 500
/// (serve-binary) or 1 000 samples beyond it and holds still. Every run
/// prints the full distribution on stderr.
pub const TAIL_Q: f64 = 0.75;
/// Rows per score request.
const ROWS: usize = 16;
/// Score requests per second, evenly spaced: well under what the host
/// serves even while it runs slow, so that queueing does not magnify its
/// speed drift.
const RATE: f64 = 100.0;
/// Test population the requests cycle through.
const TEST_ROWS: usize = 32_000;
/// Feedback lines per second (`serve-jsonl-feedback`), evenly spaced.
const FEEDBACK_RATE: f64 = 100.0;
/// Client connections: the load generator uses no more than the host's
/// two cores.
const CONNS: usize = 2;
/// Closed-loop warm-up requests per scoring connection.
const WARMUP: usize = 20;
/// Score requests the traced run replays through the engine in process,
/// at the workload's rate.
const ENGINE_REPLAY_S: f64 = 2.0;
/// Rolling feedback window, drift batch and threshold: `rdrp-cli serve`
/// defaults.
const CAL_WINDOW: usize = 256;
const DRIFT_BATCH: usize = 64;
const DRIFT_THRESHOLD: f64 = 0.25;
const MODEL: &str = serve::DEFAULT_MODEL;
const VERSION: &str = "1";

fn method_name(codec: Codec) -> &'static str {
    match codec {
        Codec::Binary => "drp-mc",
        Codec::Jsonl => "rdrp",
    }
}

fn server_codec(codec: Codec) -> Box<dyn WireCodec> {
    match codec {
        Codec::Binary => Box::new(BinaryCodec::new()),
        Codec::Jsonl => Box::new(JsonlCodec::new()),
    }
}

/// A running server with its client connections.
struct Live {
    registry: Arc<ModelRegistry>,
    engine: Arc<ShardedEngine>,
    recorder: Option<Arc<InMemoryRecorder>>,
    server: JoinHandle<std::io::Result<()>>,
    streams: Vec<TcpStream>,
}

/// The serving set-up: save the fitted model, load it into a registry,
/// start the engine (and monitor) and the poll loop, connect, warm up.
fn start(
    codec: Codec,
    method: &dyn RoiMethod,
    data: &ExperimentData,
    path: &Path,
    tr: &mut Tracer,
    traced: bool,
) -> Result<Live, String> {
    let (saved, _) = tr.time("core.artifact_save", 0, None, || {
        rdrp::save_method(method, path)
    });
    saved.map_err(|e| format!("save {}: {e}", path.display()))?;
    let registry = Arc::new(ModelRegistry::new());
    let (loaded, _) = tr.time("core.artifact_load", 0, None, || {
        registry.load_with_retry(
            MODEL,
            VERSION,
            path,
            &BackoffPolicy::default(),
            &Obs::disabled(),
        )
    });
    loaded.map_err(|e| format!("load {}: {e}", path.display()))?;
    if tr.on() {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        // Beside the load, not under it, as in the batch workloads.
        tr.time("tinyjson.parse", 0, None, || {
            black_box(tinyjson::parse(&text).is_ok())
        });
    }
    let (obs, recorder) = if traced {
        let (obs, recorder) = Obs::in_memory();
        (obs, Some(recorder))
    } else {
        (Obs::disabled(), None)
    };
    let shards = match codec {
        Codec::Binary => CONNS,
        Codec::Jsonl => 1,
    };
    let cfg = EngineConfig::builder()
        .shards(shards)
        .build()
        .map_err(|e| e.to_string())?;
    let engine = Arc::new(ShardedEngine::start(cfg, obs.clone()));
    if codec == Codec::Jsonl {
        engine.attach_monitor(Arc::new(monitor(&registry, data, obs)?));
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = {
        let (engine, registry) = (Arc::clone(&engine), Arc::clone(&registry));
        let net = NetConfig {
            max_conns: Some(CONNS),
            conn_timeout: Some(Duration::from_secs(30)),
            ..NetConfig::default()
        };
        std::thread::spawn(move || {
            serve::serve_poll(
                &listener,
                &engine,
                &registry,
                &SessionLimits::default(),
                &net,
                &Obs::disabled(),
            )
        })
    };
    let mut streams = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let mut live = Live {
        registry,
        engine,
        recorder,
        server,
        streams,
    };
    // Warm-up: closed-loop score requests on the scoring connections.
    let scoring = match codec {
        Codec::Binary => CONNS,
        Codec::Jsonl => 1,
    };
    for k in 0..WARMUP * scoring {
        let send = Send {
            conn: k % scoring,
            due: Duration::ZERO,
            payload: Payload::Score(score_request(
                &format!("w{k}"),
                rows(&data.test.x, k),
                codec,
            )),
        };
        let done = client::run(
            &mut live.streams,
            codec,
            &[send],
            Instant::now(),
            Duration::from_secs(10),
        )?;
        if !matches!(done[0].reply, Reply::Scores(_)) {
            return Err(format!("warm-up request failed: {:?}", done[0].reply));
        }
    }
    Ok(live)
}

/// Half-closes every connection, waits for the server to drain and
/// return, and stops the engine.
fn stop(live: Live) -> Result<(), String> {
    for mut s in live.streams {
        s.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).map_err(|e| e.to_string())?;
    }
    live.server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve_poll: {e}"))?;
    drop(live.engine);
    Ok(())
}

fn monitor(
    registry: &Arc<ModelRegistry>,
    data: &ExperimentData,
    obs: Obs,
) -> Result<CalibrationMonitor, String> {
    let reference = FeatureReference::from_dataset(&data.train).map_err(|e| e.to_string())?;
    CalibrationMonitor::new(
        Arc::clone(registry),
        reference,
        CalibrationMonitorConfig {
            model: MODEL.to_string(),
            base_version: VERSION.to_string(),
            online: conformal::OnlineConformalConfig {
                window: CAL_WINDOW,
                ..conformal::OnlineConformalConfig::default()
            },
            drift: datasets::DriftDetectorConfig {
                batch_rows: DRIFT_BATCH,
                threshold: DRIFT_THRESHOLD,
                ..datasets::DriftDetectorConfig::default()
            },
        },
        obs,
    )
    .map_err(|e| e.to_string())
}

/// The `ROWS` test rows of request `i`, cycling through the population.
fn rows(x: &Matrix, i: usize) -> Vec<Vec<f64>> {
    (0..ROWS)
        .map(|r| x.row((i * ROWS + r) % x.rows()).to_vec())
        .collect()
}

fn score_request(id: &str, rows: Vec<Vec<f64>>, codec: Codec) -> ScoreRequest {
    ScoreRequest {
        id: id.to_string(),
        model: None,
        // The feedback workload pins the loaded version across hot-swaps.
        version: (codec == Codec::Jsonl).then(|| VERSION.to_string()),
        rows,
        deadline_ms: None,
    }
}

pub fn run(cx: &Cx, codec: Codec, tr: &mut Tracer, checks: &mut Checks) -> Result<Report, String> {
    let obs = Obs::disabled();
    let path = cx.work.join(format!("{}.json", method_name(codec)));
    let mcfg = MethodConfig {
        rdrp: offline::rdrp_config(),
        ..MethodConfig::default()
    };

    // Set-up, first repetition: inputs; then the fit, timed on its own.
    let (data, _) = tr.time("datasets.generate", 0, None, || {
        binary_data(cx.seed, TEST_ROWS)
    });
    let gen_s = cx.started.elapsed().as_secs_f64();
    let fit_rng = crate::fit_rng();
    let (method, fit_s, fit_span) = cx.fit_reps(tr, "core.fit", || {
        let mut m = rdrp::build(method_name(codec), &mcfg).map_err(|e| e.to_string())?;
        m.fit(&data.train, &data.calibration, &mut fit_rng.clone(), &obs)
            .map_err(|e| format!("{} fit: {e}", method_name(codec)))?;
        Ok(m)
    })?;
    if let Some(model) = method.as_rdrp() {
        offline::log_calibration(model);
    }
    // Traced runs decompose the fit into its public calls; the drp-mc
    // replay also yields the network its scoring sweeps run.
    let mut replay_drp = None;
    if tr.on() {
        match method.as_rdrp() {
            Some(rdrp) => {
                offline::decompose_fit(rdrp, &mcfg.rdrp, &data, &fit_rng, tr, fit_span, checks)
            }
            None => {
                // Three replays, for a median; the first, under the fit's
                // span, is the network the scoring replays run.
                for rep in 0..3 {
                    let mut drp = DrpModel::new(mcfg.rdrp.drp.clone());
                    let parent = if rep == 0 { fit_span } else { None };
                    let (fitted, _) = tr.time("nn.train", 0, parent, || {
                        drp.fit(&data.train, &mut fit_rng.clone(), &obs)
                    });
                    fitted.map_err(|e| format!("replayed DRP fit: {e}"))?;
                    replay_drp.get_or_insert(drp);
                }
            }
        }
    }

    // The rest of the set-up, repeated; the last repetition serves. A
    // probe sets up once.
    let mut setup_s = Vec::new();
    let mut untraced = Tracer::new(false, cx.started);
    let mut reps = 1;
    let mut rep = 0;
    let mut live = loop {
        let last = if rep == 0 {
            cx.scale == Scale::Probe
        } else {
            rep + 1 == reps
        };
        let t0 = Instant::now();
        if rep > 0 {
            black_box(binary_data(cx.seed, TEST_ROWS));
        }
        let traced = last && tr.on();
        let t = if last { &mut *tr } else { &mut untraced };
        let l = start(codec, method.as_ref(), &data, &path, t, traced)?;
        setup_s.push(t0.elapsed().as_secs_f64() + if rep == 0 { gen_s } else { 0.0 });
        if rep == 0 {
            reps = cx.reps(setup_s[0]);
        }
        if last {
            break l;
        }
        stop(l)?;
        rep += 1;
    };
    let pinned = live
        .registry
        .get(MODEL, Some(VERSION))
        .ok_or("pinned model missing from the registry")?;

    // The schedule. What a client knows of the served scores (the feedback
    // lines carry them) is what the pinned model scores directly; the
    // checks below hold the server to exactly that.
    let test = &data.test;
    let n_score = match cx.scale {
        Scale::Full => ((cx.seconds * RATE).ceil() as usize).max(test.len().div_ceil(ROWS)),
        Scale::Probe => (cx.duration().as_secs_f64() * RATE).ceil() as usize,
    };
    let mut ws = Workspace::new();
    let expected: Vec<Vec<f64>> = (0..n_score)
        .map(|i| pinned.score(&Matrix::from_rows(&rows(&test.x, i)), &mut ws, &obs))
        .collect();
    let mut sends: Vec<Send> = (0..n_score)
        .map(|i| Send {
            conn: match codec {
                Codec::Binary => i % CONNS,
                Codec::Jsonl => 0,
            },
            due: Duration::from_secs_f64(i as f64 / RATE),
            payload: Payload::Score(score_request(&format!("s{i}"), rows(&test.x, i), codec)),
        })
        .collect();
    if codec == Codec::Jsonl {
        let tau_r = test.true_tau_r.as_ref().ok_or("generator lost τ^r")?;
        let tau_c = test.true_tau_c.as_ref().ok_or("generator lost τ^c")?;
        let n_feedback = (n_score as f64 / RATE * FEEDBACK_RATE) as usize;
        for j in 0..n_feedback {
            let row = j % test.len();
            sends.push(Send {
                conn: 1,
                due: Duration::from_secs_f64(j as f64 / FEEDBACK_RATE),
                payload: Payload::Observe(ObserveRequest {
                    id: format!("f{j}"),
                    row: test.x.row(row).to_vec(),
                    pred: Some(expected[j / ROWS][j % ROWS]),
                    scale: None,
                    outcome: tau_r[row] / tau_c[row],
                }),
            });
        }
        sends.sort_by_key(|s| s.due);
    }

    // Timed phase.
    let phase = Phase::start()?;
    let t_start = Instant::now() + Duration::from_millis(5);
    let done = client::run(
        &mut live.streams,
        codec,
        &sends,
        t_start,
        Duration::from_secs(30),
    )?;
    let (wall, cpu) = phase.stop()?;
    let batch_rows = live
        .recorder
        .as_ref()
        .and_then(|r| r.histogram("serve.batch_rows"))
        .and_then(|h| h.mean());

    // Output checks: every request answered once, in order (the client
    // enforces both), scores bitwise equal to the pinned model's, and one
    // ack per feedback line with the window filling to capacity.
    let mut failed = 0u64;
    let mut served: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut acks = 0usize;
    let mut swaps = 0usize;
    for (s, d) in sends.iter().zip(&done) {
        match (&s.payload, &d.reply) {
            (Payload::Score(r), Reply::Scores(scores)) => {
                let i: usize = r.id[1..].parse().map_err(|_| "bad request id")?;
                checks.check(
                    bitwise_eq(scores, &expected[i]),
                    format_args!("request {i}: served scores differ from the pinned model's"),
                );
                served.insert(i, scores.clone());
            }
            (Payload::Observe(_), Reply::Observed { window, swapped }) => {
                acks += 1;
                let want = acks.min(CAL_WINDOW) as u64;
                checks.check(
                    *window == want,
                    format_args!("feedback ack {acks}: window {window}, expected {want}"),
                );
                swaps += usize::from(swapped.is_some());
            }
            (p, Reply::Error(e)) => {
                failed += 1;
                eprintln!("request {}: {e}", p.id());
            }
            (p, reply) => {
                failed += 1;
                eprintln!("request {}: unexpected reply {reply:?}", p.id());
            }
        }
    }
    if codec == Codec::Jsonl && cx.scale == Scale::Full {
        checks.check(
            swaps > 0,
            "the drift detector never hot-swapped during the run",
        );
    }

    // Quality of the served scores over the first pass of the population
    // (a probe's shorter schedule covers a prefix of it). The rows of a
    // failed request rank last.
    let covered = test.len().min(n_score * ROWS);
    let prefix;
    let test = if covered < test.len() {
        prefix = test.subset(&(0..covered).collect::<Vec<_>>());
        &prefix
    } else {
        test
    };
    let served_test: Vec<f64> = (0..test.len())
        .map(|row| {
            served
                .get(&(row / ROWS))
                .map_or(f64::MIN, |s| s[row % ROWS])
        })
        .collect();
    let (aucc, _) = tr.time("metrics.aucc", 0, None, || {
        metrics::aucc_from_labels(test, &served_test, AUCC_BINS)
    });
    let own = oracle::aucc(test, &served_test, AUCC_BINS);
    checks.check(
        oracle::close(aucc, own, 1e-9),
        format_args!("served AUCC {aucc} != recomputed {own}"),
    );
    let costs = test.true_tau_c.as_ref().ok_or("generator lost τ^c")?;
    let tau_r = test.true_tau_r.as_ref().ok_or("generator lost τ^r")?;
    let budget = BUDGET_FRACTION * costs.iter().sum::<f64>();
    let alloc = rdrp::greedy_allocate(&served_test, costs, budget);
    if let Err(e) = oracle::greedy_prefix(&served_test, costs, budget, &alloc.treated) {
        checks.check(false, format_args!("served greedy allocation: {e}"));
    }
    let reward: f64 = (0..test.len())
        .filter(|&i| alloc.treated[i])
        .map(|i| tau_r[i])
        .sum();
    let library_reward = rdrp::allocator::allocation_value(&alloc, tau_r);
    checks.check(
        oracle::close(reward, library_reward, 1e-9),
        format_args!("served reward {reward} != allocation_value {library_reward}"),
    );

    // Latency samples of the answered requests; a failed one has none.
    let answered = |d: &&Done| !matches!(d.reply, Reply::Error(_));
    let latencies: Vec<f64> = done
        .iter()
        .filter(answered)
        .map(|d| (d.decode.1 - d.due).as_secs_f64() * 1e3)
        .collect();
    let lags: Vec<f64> = done
        .iter()
        .filter(answered)
        .map(|d| (d.sent.saturating_duration_since(d.due)).as_secs_f64() * 1e3)
        .collect();

    let mut layers = layer::Layers::default();
    if tr.on() {
        trace_stages(
            codec,
            method.as_ref(),
            replay_drp.as_ref(),
            &mcfg,
            &data,
            &live,
            &pinned,
            &sends,
            &done,
            tr,
            checks,
        )?;
        layer::spans(
            &mut layers,
            tr,
            &[
                ("datasets.generate_ms", "datasets.generate", 1e6),
                ("nn.train_ms", "nn.train", 1e6),
                ("nn.mc_ms", "nn.mc", 1e6),
                ("nn.predict_ms", "nn.predict", 1e6),
                ("core.roi_star_us", "core.roi_star", 1e3),
                ("conformal.calibrate_us", "conformal.calibrate", 1e3),
                ("metrics.aucc_ms", "metrics.aucc", 1e6),
                ("core.artifact_save_ms", "core.artifact_save", 1e6),
                ("core.artifact_load_ms", "core.artifact_load", 1e6),
                ("serve.encode_us", "serve.encode", 1e3),
                ("serve.decode_us", "serve.decode", 1e3),
                ("serve.score_us", "serve.score", 1e3),
                ("serve.engine_us", "serve.engine", 1e3),
                ("serve.response_encode_us", "serve.response_encode", 1e3),
                ("serve.client_decode_us", "serve.client_decode", 1e3),
                ("tinyjson.request_parse_us", "tinyjson.request_parse", 1e3),
                ("tinyjson.render_us", "tinyjson.render", 1e3),
                (
                    "conformal.monitor_observe_us",
                    "conformal.monitor_observe",
                    1e3,
                ),
            ],
        );
        let artifact_mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
        layers.insert("core.artifact_mb", artifact_mb);
        if let Some(parse_ns) = median(&tr.durations("tinyjson.parse")) {
            layers.insert("tinyjson.parse_mb_per_s", artifact_mb / (parse_ns / 1e9));
        }
        if let Some(b) = batch_rows {
            layers.insert("serve.batch_rows", b);
        }
        if let Some(lag) = quantile(&lags, TAIL_Q) {
            layers.insert("client.lag_ms", lag);
        }
        // What the stage medians leave of the answered score requests'
        // median.
        let score_ops: Vec<u64> = done
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.reply, Reply::Scores(_)))
            .map(|(k, _)| k as u64 + 1)
            .collect();
        let e2e: Vec<f64> = score_ops
            .iter()
            .map(|&op| {
                let d = &done[op as usize - 1];
                (d.decode.1 - d.due).as_secs_f64() * 1e9
            })
            .collect();
        let explained: f64 = [
            "serve.encode",
            "serve.decode",
            "serve.engine",
            "serve.response_encode",
            "serve.client_decode",
        ]
        .iter()
        .map(|stage| {
            let per_op = tr.per_op_ns(stage);
            let v: Vec<f64> = score_ops
                .iter()
                .filter_map(|op| per_op.get(op).copied())
                .collect();
            median(&v).unwrap_or(0.0)
        })
        .sum();
        let unexplained = median(&e2e).unwrap_or(f64::NAN) - explained;
        layers.insert("serve.unexplained_us", unexplained / 1e3);
        let fit_stages: &[&str] = match codec {
            Codec::Binary => &["nn.train"],
            Codec::Jsonl => &offline::FIT_STAGES,
        };
        layer::residuals(&mut layers, tr, "op", &[], &fit_s, fit_stages);
        layers.insert("trace.p50_residual_ms", unexplained / 1e6);
        if codec == Codec::Jsonl {
            layers.insert("core.form_select_ms", layers["trace.fit_residual_ms"]);
        }
    }
    stop(live)?;

    let rows_scored = n_score * ROWS;
    Ok(Report {
        attempted: sends.len() as u64,
        failed,
        e2e: E2e {
            setup_s: median(&setup_s).unwrap_or(f64::NAN),
            fit_s: median(&fit_s).unwrap_or(f64::NAN),
            p50_ms: median(&latencies).unwrap_or(f64::NAN),
            tail_ms: tail(&latencies, TAIL_Q),
            rows_per_s: rows_scored as f64 / wall,
            cpu_us_per_row: cpu * 1e6 / rows_scored as f64,
            aucc,
            reward_at_budget: reward,
        },
        layers,
    })
}

/// Traced runs: records each request's client-side spans, then replays
/// in process, on the same bytes and rows, every server stage of its
/// path — decode, the engine round trip at the workload's rate (for the
/// first seconds of the schedule), scoring, the monitor's write path and
/// the response encode — each under the request's span.
#[allow(clippy::too_many_arguments)]
fn trace_stages(
    codec: Codec,
    method: &dyn RoiMethod,
    replay_drp: Option<&DrpModel>,
    mcfg: &MethodConfig,
    data: &ExperimentData,
    live: &Live,
    pinned: &Arc<dyn BatchScorer>,
    sends: &[Send],
    done: &[Done],
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(), String> {
    let obs = Obs::disabled();
    let mut ops = Vec::with_capacity(done.len());
    for (k, d) in done.iter().enumerate() {
        let op = k as u64 + 1;
        let span = tr.record("op", op, None, d.due, d.decode.1);
        tr.record("serve.encode", op, span, d.encode.0, d.encode.1);
        tr.record("serve.client_decode", op, span, d.decode.0, d.decode.1);
        ops.push(span);
    }
    let mut server = server_codec(codec);
    let mut ws = Workspace::new();
    let replay_monitor = if codec == Codec::Jsonl {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert(MODEL, VERSION, Arc::clone(pinned));
        Some(monitor(&registry, data, Obs::disabled())?)
    } else {
        None
    };
    let replay_start = Instant::now();
    for (k, (s, d)) in sends.iter().zip(done).enumerate() {
        let op = k as u64 + 1;
        let parent = ops[k];
        let mut buf = FrameBuf::new();
        buf.extend(&d.bytes);
        let (frame, decode_span) =
            tr.time("serve.decode", op, parent, || server.decode_frame(&mut buf));
        if !matches!(frame, Decoded::Frame(Frame::Score(_) | Frame::Observe(_))) {
            checks.check(
                false,
                format_args!("request {k}: the server codec does not decode the client's bytes"),
            );
        }
        let mut out = Vec::new();
        match (&s.payload, &d.reply) {
            (Payload::Score(req), Reply::Scores(scores)) => {
                if codec == Codec::Jsonl {
                    let line = std::str::from_utf8(&d.bytes)
                        .map_err(|e| e.to_string())?
                        .trim_end();
                    tr.time("tinyjson.request_parse", op, decode_span, || {
                        black_box(serve::protocol::parse_request(line).is_ok())
                    });
                }
                let x = Matrix::from_rows(&req.rows);
                if s.due.as_secs_f64() < ENGINE_REPLAY_S {
                    let due = replay_start + s.due;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let (answer, engine_span) = tr.time("serve.engine", op, parent, || {
                        live.engine
                            .submit_to(s.conn as u64, pinned, x.clone(), None)
                            .map(|p| p.wait())
                    });
                    if !matches!(&answer, Ok(Ok(a)) if bitwise_eq(a, scores)) {
                        checks.check(
                            false,
                            format_args!(
                                "request {k}: engine replay disagrees with the served scores"
                            ),
                        );
                    }
                    let (direct, _) = tr.time("serve.score", op, engine_span, || {
                        pinned.score(&x, &mut ws, &obs)
                    });
                    black_box(direct);
                    replay_scoring(method, replay_drp, mcfg, &x, scores, tr, op, checks);
                }
                let (_, enc_span) = tr.time("serve.response_encode", op, parent, || {
                    server.encode_response(&req.id, scores, &mut out)
                });
                if codec == Codec::Jsonl {
                    tr.time("tinyjson.render", op, enc_span, || {
                        black_box(serve::protocol::render_scores(&req.id, scores))
                    });
                }
            }
            (Payload::Observe(req), Reply::Observed { window, swapped }) => {
                let m = replay_monitor
                    .as_ref()
                    .ok_or("feedback without a monitor")?;
                let (outcome, _) = tr.time("conformal.monitor_observe", op, parent, || {
                    m.observe(&req.row, req.pred, req.scale, req.outcome)
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                checks.check(
                    outcome.observation.window as u64 == *window
                        && outcome.swapped_version.is_some() == swapped.is_some(),
                    format_args!("feedback {k}: monitor replay disagrees with the served ack"),
                );
                tr.time("serve.response_encode", op, parent, || {
                    server.encode_observed(&req.id, &outcome, &mut out)
                });
            }
            _ => {}
        }
        black_box(out);
    }
    Ok(())
}

/// The model calls a scoring pass makes, replayed: the MC sweep of
/// `drp-mc`, or rDRP's point estimate (and sweep, for a non-Identity
/// form). They are not hung under the scoring call's span: the call is
/// little more than they are, and a replay's own noise made its self time
/// read negative, so `serve.score_us` is the whole call.
#[allow(clippy::too_many_arguments)]
fn replay_scoring(
    method: &dyn RoiMethod,
    replay_drp: Option<&DrpModel>,
    mcfg: &MethodConfig,
    x: &Matrix,
    served: &[f64],
    tr: &mut Tracer,
    op: u64,
    checks: &mut Checks,
) {
    let obs = Obs::disabled();
    let cfg = &mcfg.rdrp;
    let mut rng = Prng::seed_from_u64(SCORING_SEED);
    if let Some(drp) = replay_drp {
        let (mc, _) = tr.time("nn.mc", op, None, || {
            drp.mc_roi(x, cfg.mc_passes, cfg.std_floor, &mut rng, &obs)
        });
        let again: Vec<f64> = mc.mean.iter().zip(&mc.std).map(|(m, s)| m + s).collect();
        checks.check(
            bitwise_eq(&again, served),
            "drp-mc replay does not reproduce the served scores",
        );
    } else if let Some(model) = method.as_rdrp() {
        tr.time("nn.predict", op, None, || {
            black_box(model.drp().predict_roi(x, &obs))
        });
        if model.selected_form() != Some(rdrp::CalibrationForm::Identity) {
            tr.time("nn.mc", op, None, || {
                black_box(model.drp().mc_roi_with_rate(
                    x,
                    cfg.mc_passes,
                    cfg.mc_dropout,
                    cfg.std_floor,
                    &mut rng,
                    &obs,
                ))
            });
        }
    }
}
