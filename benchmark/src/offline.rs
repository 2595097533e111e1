//! `offline-rdrp`: Algorithm 4 on the CriteoLike InCo setting. One rDRP
//! fit, then a closed loop in which each operation scores a batch of
//! test customers (conformal intervals and calibrated scores, both
//! through MC-dropout) and allocates the batch's budget greedily.

use crate::measure::{bitwise_eq, median, tail, Checks, Phase};
use crate::oracle;
use crate::trace::{SpanId, Tracer};
use crate::{binary_data, layer, Cx, E2e, Report, AUCC_BINS, BUDGET_FRACTION};
use conformal::SplitConformal;
use datasets::RctDataset;
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;
use rdrp::{greedy_allocate, DrpConfig, DrpModel, Rdrp, RdrpConfig, SCORING_SEED};
use std::hint::black_box;
use std::time::Instant;

/// The tail percentile this workload reports as `tail_ms` (about 55
/// samples beyond it at 20 s).
pub const TAIL_Q: f64 = 0.9;
/// Test customers scored per operation.
const BATCH_ROWS: usize = 500;
/// Test population.
const TEST_ROWS: usize = 60_000;

/// Table II's rDRP hyperparameters (`bench::harness::table_rdrp_config`).
pub fn rdrp_config() -> RdrpConfig {
    RdrpConfig {
        drp: DrpConfig {
            epochs: 40,
            dropout: 0.2,
            ..DrpConfig::default()
        },
        mc_passes: 50,
        ..RdrpConfig::default()
    }
}

/// A test batch with its ground truth.
struct Batch {
    x: Matrix,
    costs: Vec<f64>,
    tau_r: Vec<f64>,
    budget: f64,
}

fn batches(test: &RctDataset) -> Vec<Batch> {
    let costs = test
        .true_tau_c
        .as_ref()
        .expect("synthetic data carries τ^c");
    let tau_r = test
        .true_tau_r
        .as_ref()
        .expect("synthetic data carries τ^r");
    (0..test.len())
        .step_by(BATCH_ROWS)
        .map(|lo| {
            let idx: Vec<usize> = (lo..(lo + BATCH_ROWS).min(test.len())).collect();
            let costs: Vec<f64> = idx.iter().map(|&i| costs[i]).collect();
            Batch {
                x: test.x.select_rows(&idx),
                budget: BUDGET_FRACTION * costs.iter().sum::<f64>(),
                tau_r: idx.iter().map(|&i| tau_r[i]).collect(),
                costs,
            }
        })
        .collect()
}

/// One operation: intervals and calibrated scores through MC-dropout,
/// then the greedy allocation at the batch's budget. Returns the spans
/// of the two scoring calls, for [`replay_op`].
fn op(
    model: &Rdrp,
    b: &Batch,
    tr: &mut Tracer,
    op_id: u64,
    parent: Option<SpanId>,
) -> (Vec<f64>, rdrp::Allocation, [Option<SpanId>; 2]) {
    let obs = Obs::disabled();
    let mut rng = Prng::seed_from_u64(SCORING_SEED);
    let (intervals, iv_span) = tr.time("core.predict_intervals", op_id, parent, || {
        model.predict_intervals(&b.x, &mut rng)
    });
    black_box(&intervals);
    let (scores, sc_span) = tr.time("core.predict_scores", op_id, parent, || {
        model.predict_scores(&b.x, &mut rng, &obs)
    });
    let (alloc, _) = tr.time("core.greedy_allocate", op_id, parent, || {
        greedy_allocate(&scores, &b.costs, b.budget)
    });
    (scores, alloc, [iv_span, sc_span])
}

/// Replays, after the operation, the DRP calls its two scoring entry
/// points make internally (same inputs, same RNG stream), each under the
/// span of the call it reproduces.
fn replay_op(
    model: &Rdrp,
    cfg: &RdrpConfig,
    b: &Batch,
    tr: &mut Tracer,
    op_id: u64,
    spans: [Option<SpanId>; 2],
) {
    let obs = Obs::disabled();
    let drp = model.drp();
    let mut rng = Prng::seed_from_u64(SCORING_SEED);
    let [iv_span, sc_span] = spans;
    tr.time("nn.predict", op_id, iv_span, || {
        black_box(drp.predict_roi(&b.x, &obs))
    });
    tr.time("nn.mc", op_id, iv_span, || {
        black_box(drp.mc_roi_with_rate(
            &b.x,
            cfg.mc_passes,
            cfg.mc_dropout,
            cfg.std_floor,
            &mut rng,
            &obs,
        ))
    });
    tr.time("nn.predict", op_id, sc_span, || {
        black_box(drp.predict_roi(&b.x, &obs))
    });
    if model.selected_form() != Some(rdrp::CalibrationForm::Identity) {
        tr.time("nn.mc", op_id, sc_span, || {
            black_box(drp.mc_roi_with_rate(
                &b.x,
                cfg.mc_passes,
                cfg.mc_dropout,
                cfg.std_floor,
                &mut rng,
                &obs,
            ))
        });
    }
}

pub fn run(cx: &Cx, tr: &mut Tracer, checks: &mut Checks) -> Result<Report, String> {
    let obs = Obs::disabled();
    let cfg = rdrp_config();

    // Set-up, first repetition: inputs. The fit is timed on its own.
    let (data, _) = tr.time("datasets.generate", 0, None, || {
        binary_data(cx.seed, TEST_ROWS)
    });
    let batches = batches(&data.test);
    let gen_s = cx.started.elapsed().as_secs_f64();

    // Fit through the public entry point, from the same RNG state each
    // repetition, so every repetition fits the same model.
    let fit_rng = crate::fit_rng();
    let (model, fit_s, fit_span) = cx.fit_reps(tr, "core.fit", || {
        let mut m = Rdrp::new(cfg.clone()).map_err(|e| e.to_string())?;
        m.fit_with_calibration(&data.train, &data.calibration, &mut fit_rng.clone(), &obs)
            .map_err(|e| format!("rDRP fit: {e}"))?;
        Ok(m)
    })?;
    log_calibration(&model);
    decompose_fit(&model, &cfg, &data, &fit_rng, tr, fit_span, checks);

    // Warm-up ends the first set-up repetition; the others repeat
    // generation and warm-up.
    let warm_up = |model: &Rdrp| {
        black_box(op(
            model,
            &batches[0],
            &mut Tracer::new(false, cx.started),
            0,
            None,
        ))
    };
    let t0 = Instant::now();
    warm_up(&model);
    let setup_s = cx.setup_reps(gen_s + t0.elapsed().as_secs_f64(), || {
        black_box(binary_data(cx.seed, TEST_ROWS));
        warm_up(&model);
        Ok(())
    })?;

    // Timed phase: a closed loop over the test batches, at least one full
    // pass, then until the run's time is up.
    let phase = Phase::start()?;
    let deadline = Instant::now() + cx.duration();
    let mut latencies = Vec::new();
    let mut first_pass = Vec::with_capacity(batches.len());
    let mut rows = 0usize;
    let mut i = 0usize;
    while i < batches.len() || Instant::now() < deadline {
        let b = &batches[i % batches.len()];
        let op_id = i as u64 + 1;
        let t0 = Instant::now();
        let span = tr.open("op", op_id, None);
        let (scores, alloc, spans) = op(&model, b, tr, op_id, span);
        let end = Instant::now();
        tr.close(span);
        if tr.on() {
            replay_op(&model, &cfg, b, tr, op_id, spans);
        }
        latencies.push((end - t0).as_secs_f64() * 1e3);
        rows += b.x.rows();
        if i < batches.len() {
            first_pass.push((scores, alloc));
        }
        i += 1;
    }
    let (wall, cpu) = phase.stop()?;

    // Quality of the first full pass, and the output checks.
    let scores: Vec<f64> = first_pass
        .iter()
        .flat_map(|(s, _)| s.iter().copied())
        .collect();
    let (aucc, _) = tr.time("metrics.aucc", 0, None, || {
        metrics::aucc_from_labels(&data.test, &scores, AUCC_BINS)
    });
    let own = oracle::aucc(&data.test, &scores, AUCC_BINS);
    checks.check(
        oracle::close(aucc, own, 1e-9),
        format_args!("offline AUCC {aucc} != recomputed {own}"),
    );
    let mut reward = 0.0;
    let mut library_reward = 0.0;
    for (k, ((s, alloc), b)) in first_pass.iter().zip(&batches).enumerate() {
        if let Err(e) = oracle::greedy_prefix(s, &b.costs, b.budget, &alloc.treated) {
            checks.check(
                false,
                format_args!("offline batch {k}: greedy allocation: {e}"),
            );
        }
        checks.check(
            alloc.spent <= b.budget,
            format_args!("offline batch {k}: overspent"),
        );
        reward += (0..s.len())
            .filter(|&j| alloc.treated[j])
            .map(|j| b.tau_r[j])
            .sum::<f64>();
        library_reward += rdrp::allocator::allocation_value(alloc, &b.tau_r);
    }
    checks.check(
        oracle::close(reward, library_reward, 1e-9),
        format_args!("offline reward {reward} != allocation_value {library_reward}"),
    );

    let mut layers = layer::Layers::default();
    if tr.on() {
        layer::spans(
            &mut layers,
            tr,
            &[
                ("datasets.generate_ms", "datasets.generate", 1e6),
                ("nn.train_ms", "nn.train", 1e6),
                ("nn.mc_ms", "nn.mc", 1e6),
                ("nn.predict_ms", "nn.predict", 1e6),
                ("core.roi_star_us", "core.roi_star", 1e3),
                ("core.greedy_allocate_ms", "core.greedy_allocate", 1e6),
                ("conformal.calibrate_us", "conformal.calibrate", 1e3),
                ("metrics.aucc_ms", "metrics.aucc", 1e6),
            ],
        );
        layer::residuals(
            &mut layers,
            tr,
            "op",
            &["nn.predict", "nn.mc", "core.greedy_allocate"],
            &fit_s,
            &FIT_STAGES,
        );
        layers.insert("core.form_select_ms", layers["trace.fit_residual_ms"]);
    }
    Ok(Report {
        attempted: i as u64,
        // The scoring calls and the greedy allocator have no error path.
        failed: 0,
        e2e: E2e {
            setup_s: median(&setup_s).unwrap_or(f64::NAN),
            fit_s: median(&fit_s).unwrap_or(f64::NAN),
            p50_ms: median(&latencies).unwrap_or(f64::NAN),
            tail_ms: tail(&latencies, TAIL_Q),
            rows_per_s: rows as f64 / wall,
            cpu_us_per_row: cpu * 1e6 / rows as f64,
            aucc,
            reward_at_budget: reward,
        },
        layers,
    })
}

/// Reports the calibration outcome on stderr.
pub fn log_calibration(model: &Rdrp) {
    let d = model.diagnostics();
    eprintln!(
        "rDRP calibration: form {}, roi* {:?}, q̂ {}, degraded {:?}",
        d.selected_form.label(),
        d.roi_star,
        d.qhat,
        d.degraded
    );
}

/// The public calls of Algorithm 4's fit, replayed.
struct FitReplay {
    preds: Vec<f64>,
    std: Vec<f64>,
    roi_star: f64,
    conformal: SplitConformal,
}

/// Replays Algorithm 4's public calls from the fit's RNG state: DRP
/// training, calibration-set inference and MC sweep, the roi\* search and
/// the conformal calibration, each in a span under `parent`.
fn replay_fit(
    cfg: &RdrpConfig,
    data: &datasets::ExperimentData,
    fit_rng: &Prng,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<FitReplay, String> {
    let obs = Obs::disabled();
    let cal = &data.calibration;
    let mut rng = fit_rng.clone();
    let mut drp = DrpModel::new(cfg.drp.clone());
    let (trained, _) = tr.time("nn.train", 0, parent, || {
        drp.fit(&data.train, &mut rng, &obs)
    });
    trained.map_err(|e| format!("replayed DRP fit failed: {e}"))?;
    let (preds, _) = tr.time("nn.predict", 0, parent, || drp.predict_roi(&cal.x, &obs));
    let (mc, _) = tr.time("nn.mc", 0, parent, || {
        drp.mc_roi_with_rate(
            &cal.x,
            cfg.mc_passes,
            cfg.mc_dropout,
            cfg.std_floor,
            &mut rng,
            &obs,
        )
    });
    let (roi_star, _) = tr.time("core.roi_star", 0, parent, || {
        rdrp::find_roi_star(&cal.t, &cal.y_r, &cal.y_c, cfg.search_eps, &obs)
    });
    let roi_star =
        roi_star.map_err(|e| format!("roi* search failed on the calibration set: {e}"))?;
    let (conformal, _) = tr.time("conformal.calibrate", 0, parent, || {
        SplitConformal::calibrate(
            &vec![roi_star; cal.len()],
            &preds,
            &mc.std,
            cfg.alpha,
            cfg.std_floor,
        )
    });
    let conformal = conformal.map_err(|e| format!("conformal calibration failed: {e}"))?;
    Ok(FitReplay {
        preds,
        std: mc.std,
        roi_star,
        conformal,
    })
}

/// The public calls [`replay_fit`] times; what they leave of `fit_s` is
/// the private bootstrap form selection.
pub const FIT_STAGES: [&str; 5] = [
    "nn.train",
    "nn.predict",
    "nn.mc",
    "core.roi_star",
    "conformal.calibrate",
];

/// Replays the fit (under the fit's span; a traced run replays it twice
/// more, for medians) and checks the calibration outputs against the
/// fitted model and against independent computations.
pub fn decompose_fit(
    model: &Rdrp,
    cfg: &RdrpConfig,
    data: &datasets::ExperimentData,
    fit_rng: &Prng,
    tr: &mut Tracer,
    fit_span: Option<SpanId>,
    checks: &mut Checks,
) {
    let obs = Obs::disabled();
    let cal = &data.calibration;
    let replay = match replay_fit(cfg, data, fit_rng, tr, fit_span) {
        Ok(r) => r,
        Err(e) => return checks.check(false, e),
    };
    if tr.on() {
        for _ in 0..2 {
            if let Err(e) = replay_fit(cfg, data, fit_rng, tr, None) {
                checks.check(false, e);
            }
        }
    }
    let FitReplay {
        preds,
        std,
        roi_star,
        conformal,
    } = replay;
    let (cal_aucc, _) = tr.time("metrics.aucc", 0, None, || {
        metrics::aucc_from_labels(cal, &preds, AUCC_BINS)
    });

    // The replay is the fit: same network, same roi*, same q̂.
    checks.check(
        bitwise_eq(&preds, &model.drp().predict_roi(&cal.x, &obs)),
        "replayed DRP training does not reproduce the fitted network",
    );
    let diag = model.diagnostics();
    checks.check(
        diag.roi_star == Some(roi_star),
        format_args!("fit roi* {:?} != replayed {roi_star}", diag.roi_star),
    );
    // roi* against the calibration set's difference-in-means ratio, within
    // what the bisection's stopping rule allows.
    let (_, tau_c) = uplifts(cal);
    let eps = cfg.search_eps;
    let target = oracle::dim_roi(&cal.t, &cal.y_r, &cal.y_c).clamp(eps, 1.0 - eps);
    let tol = eps.max(eps / tau_c);
    checks.check(
        (roi_star - target).abs() <= tol,
        format_args!("roi* {roi_star} vs τ̄r/τ̄c {target} beyond {tol}"),
    );
    // q̂ by our own sort.
    let own = oracle::conformal_qhat(roi_star, &preds, &std, cfg.alpha, cfg.std_floor);
    let fitted = model.qhat().unwrap_or(f64::NAN);
    checks.check(
        own == conformal.qhat() && own == fitted,
        format_args!(
            "q̂: own sort {own}, calibrate {}, fitted model {fitted}",
            conformal.qhat()
        ),
    );
    let own_aucc = oracle::aucc(cal, &preds, AUCC_BINS);
    checks.check(
        oracle::close(cal_aucc, own_aucc, 1e-9),
        format_args!("calibration AUCC {cal_aucc} != recomputed {own_aucc}"),
    );
}

/// Difference-in-means revenue and cost uplifts `(τ̄^r, τ̄^c)`.
fn uplifts(d: &RctDataset) -> (f64, f64) {
    let mean = |v: &[f64], arm: u8| {
        let (s, n) =
            d.t.iter()
                .zip(v)
                .filter(|(t, _)| **t == arm)
                .fold((0.0, 0.0), |(s, n), (_, y)| (s + y, n + 1.0));
        s / n
    };
    (
        mean(&d.y_r, 1) - mean(&d.y_r, 0),
        mean(&d.y_c, 1) - mean(&d.y_c, 0),
    )
}
