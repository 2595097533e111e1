//! `batch-karm-forest` and `batch-karm-net`: a nightly K-arm job. One
//! fit, saved as an artifact; each operation reloads the artifact from
//! disk, scores the (K−1)×n matrix through the columnar kernel path and
//! runs the MCKP allocator on the budget.
//!
//! * `batch-karm-forest` fits `karm-tpm-sl`, whose forests make a
//!   ≈1 MB artifact: parsing it, flat-tree traversal and MCKP do the
//!   work.
//! * `batch-karm-net` fits `karm-net`, whose 0.44 MB artifact is nearly
//!   all numbers, which parse in linear time: the f32 GEMM of the block
//!   path and MCKP do the work.

use crate::measure::{bitwise_eq, median, tail, Checks, Phase};
use crate::oracle;
use crate::trace::{SpanId, Tracer};
use crate::{layer, Cx, E2e, Report, AUCC_BINS, BUDGET_FRACTION};
use datasets::generator::Population;
use datasets::multi::{MultiCouponGenerator, MultiRctDataset};
use linalg::block::FeatureBlock;
use linalg::random::Prng;
use obs::Obs;
use rdrp::{
    build_karm, load_karm_method, mckp_allocate, save_karm_method, MethodConfig, MultiAllocation,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Coupon arms besides control (K = 4).
const LEVELS: u8 = 3;

/// Operations a run makes at the least, however short its timed phase.
const MIN_OPS: usize = 3;

/// The K-arm model family a batch workload fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Forest,
    Net,
}

impl Family {
    fn method(self) -> &'static str {
        match self {
            Family::Forest => "karm-tpm-sl",
            Family::Net => "karm-net",
        }
    }

    /// Training rows. A forest's size, and so its artifact's, follows
    /// from them at the default forest settings.
    fn train_rows(self) -> usize {
        match self {
            Family::Forest => 1_500,
            Family::Net => 1_500,
        }
    }

    /// Nightly population rows. The net's is smaller so that a 20 s run
    /// makes about 130 operations, enough for a p90 tail.
    fn population(self) -> usize {
        match self {
            Family::Forest => 40_000,
            Family::Net => 10_000,
        }
    }

    /// The tail percentile the workload reports as `tail_ms`, the highest
    /// with ten samples beyond it in a 20 s run: a forest run completes
    /// too few operations for any percentile above the median.
    fn tail_q(self) -> f64 {
        match self {
            Family::Forest => 0.5,
            Family::Net => 0.9,
        }
    }

    /// Name of the scoring span.
    fn score_span(self) -> &'static str {
        match self {
            Family::Forest => "trees.score",
            Family::Net => "core.score_block",
        }
    }

    /// Whether block scores may differ from `score_matrix` by `s` against
    /// `reference`: DESIGN.md §11's gate for the family (bitwise for
    /// trees on f32-representable features, `2e-2·(1+|s|)` for neural
    /// TPMs).
    fn block_agrees(self, block: f64, reference: f64) -> bool {
        match self {
            Family::Forest => block.to_bits() == reference.to_bits(),
            Family::Net => (block - reference).abs() <= 2e-2 * (1.0 + reference.abs()),
        }
    }
}

/// Training RCT (from the model seed) and the nightly population (from
/// `seed`), whose features are rounded to f32 so the block path's
/// contract with the scalar path holds.
fn generate(seed: u64, family: Family) -> (MultiRctDataset, MultiRctDataset) {
    let (n_train, n_test) = (family.train_rows(), family.population());
    let generator = MultiCouponGenerator::new(LEVELS);
    let train = generator.sample(
        n_train,
        Population::Base,
        &mut Prng::seed_from_u64(crate::MODEL_SEED),
    );
    let mut test = generator.sample(n_test, Population::Base, &mut Prng::seed_from_u64(seed));
    test.x.map_mut(|v| f64::from(v as f32));
    (train, test)
}

/// An operation's score matrix and allocation, with the score span.
type Scored = (Vec<Vec<f64>>, MultiAllocation, Option<SpanId>);

/// What every operation of a run works on.
struct Job<'a> {
    family: Family,
    path: &'a Path,
    test: &'a MultiRctDataset,
    costs: &'a [Vec<f64>],
    budget: f64,
}

/// One operation: reload, score, allocate. Returns the score span for
/// [`replay_op`].
fn op(job: &Job, tr: &mut Tracer, op_id: u64, parent: Option<SpanId>) -> Result<Scored, String> {
    let obs = Obs::disabled();
    let (model, _) = tr.time("core.artifact_load", op_id, parent, || {
        load_karm_method(job.path)
    });
    let model = model.map_err(|e| format!("reload {}: {e}", job.path.display()))?;
    let (scores, score_span) = tr.time(job.family.score_span(), op_id, parent, || {
        model.score_matrix_block(&job.test.x, &obs)
    });
    let (alloc, _) = tr.time("core.mckp_allocate", op_id, parent, || {
        mckp_allocate(&scores, job.costs, job.budget)
    });
    let alloc = alloc.map_err(|e| format!("mckp_allocate: {e}"))?;
    Ok((scores, alloc, score_span))
}

/// Replays, after the operation, the parse inside the artifact load and,
/// for forests, the two feature-block conversions inside block scoring
/// (one per component model: revenue and cost). The parse is not hung
/// under the load's span: the load is little more than the parse, and a
/// replay's own noise would swamp its self time (it read negative), so
/// `core.artifact_load_ms` is the whole load.
fn replay_op(
    family: Family,
    text: &str,
    test: &MultiRctDataset,
    tr: &mut Tracer,
    op_id: u64,
    score_span: Option<SpanId>,
) {
    tr.time("tinyjson.parse", op_id, None, || {
        black_box(tinyjson::parse(text).is_ok())
    });
    if family == Family::Forest {
        for _ in 0..2 {
            tr.time("linalg.layout", op_id, score_span, || {
                black_box(FeatureBlock::from_matrix(&test.x))
            });
        }
    }
}

pub fn run(
    cx: &Cx,
    family: Family,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<Report, String> {
    let obs = Obs::disabled();
    let path = cx.work.join(format!("{}.json", family.method()));

    // Set-up, first repetition: inputs; then the fit, timed on its own.
    let ((train, test), _) = tr.time("datasets.generate", 0, None, || generate(cx.seed, family));
    let gen_s = cx.started.elapsed().as_secs_f64();
    let k = usize::from(LEVELS);
    let costs = test.true_tau_c.clone().ok_or("generator lost τ^c")?;
    let tau_r = test.true_tau_r.clone().ok_or("generator lost τ^r")?;
    let budget = BUDGET_FRACTION * costs.iter().flatten().sum::<f64>() / k as f64;

    let fit_rng = crate::fit_rng();
    let (fitted, fit_s, _) = cx.fit_reps(tr, "uplift.karm_fit", || {
        let mut m = build_karm(family.method(), LEVELS + 1, &MethodConfig::default())
            .map_err(|e| e.to_string())?;
        m.fit(&train, &train, &mut fit_rng.clone(), &obs)
            .map_err(|e| format!("{} fit: {e}", family.method()))?;
        Ok(m)
    })?;

    // The rest of the first set-up repetition (save; a warm-up operation,
    // which loads), then the others (generation, save, warm-up).
    let save = |t: &mut Tracer| -> Result<(), String> {
        let (saved, _) = t.time("core.artifact_save", 0, None, || {
            save_karm_method(fitted.as_ref(), &path)
        });
        saved.map_err(|e| format!("save {}: {e}", path.display()))
    };
    let job = Job {
        family,
        path: &path,
        test: &test,
        costs: &costs,
        budget,
    };
    let mut untraced = Tracer::new(false, cx.started);
    let t0 = Instant::now();
    save(tr)?;
    black_box(op(&job, &mut untraced, 0, None)?);
    let setup_s = cx.setup_reps(gen_s + t0.elapsed().as_secs_f64(), || {
        black_box(generate(cx.seed, family));
        save(&mut untraced)?;
        black_box(op(&job, &mut untraced, 0, None)?);
        Ok(())
    })?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let artifact_mb = text.len() as f64 / 1e6;

    // Timed phase: a closed loop, at least `MIN_OPS` operations, then
    // until the run's time is up. A failed operation is counted and
    // skipped.
    let phase = Phase::start()?;
    let deadline = Instant::now() + cx.duration();
    let mut latencies = Vec::new();
    let mut last = None;
    let mut i = 0usize;
    let mut failed = 0u64;
    while i < MIN_OPS || Instant::now() < deadline {
        let op_id = i as u64 + 1;
        let t0 = Instant::now();
        let span = tr.open("op", op_id, None);
        let result = op(&job, tr, op_id, span);
        let end = Instant::now();
        tr.close(span);
        i += 1;
        match result {
            Ok((scores, alloc, score_span)) => {
                if tr.on() {
                    replay_op(family, &text, &test, tr, op_id, score_span);
                }
                latencies.push((end - t0).as_secs_f64() * 1e3);
                last = Some((scores, alloc));
            }
            Err(e) => {
                failed += 1;
                eprintln!("operation {op_id}: {e}");
            }
        }
    }
    let (wall, cpu) = phase.stop()?;
    let rows = latencies.len() * test.len();
    let (scores, alloc) = last.ok_or("every operation failed")?;

    // Artifact round trip and the block-vs-scalar contract.
    let in_memory_block = fitted.score_matrix_block(&test.x, &obs);
    checks.check(
        scores.len() == k
            && scores
                .iter()
                .zip(&in_memory_block)
                .all(|(a, b)| bitwise_eq(a, b)),
        "reloaded artifact's block scores differ from the fitted model's",
    );
    let reloaded = load_karm_method(&path).map_err(|e| e.to_string())?;
    let in_memory = fitted.score_matrix(&test.x, &obs);
    checks.check(
        in_memory
            .iter()
            .zip(&reloaded.score_matrix(&test.x, &obs))
            .all(|(a, b)| bitwise_eq(a, b)),
        "reloaded artifact's scalar scores differ from the fitted model's",
    );
    checks.check(
        in_memory.iter().zip(&in_memory_block).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(r, s)| family.block_agrees(*s, *r))
        }),
        format_args!("block scores differ from score_matrix beyond the {family:?} gate"),
    );

    // MCKP properties.
    let mut spent = 0.0;
    let mut captured = 0.0;
    let mut reward = 0.0;
    let mut arms_ok = alloc.assigned.len() == test.len();
    for (i, a) in alloc.assigned.iter().enumerate() {
        if let Some(arm) = *a {
            if arm == 0 || arm > LEVELS {
                arms_ok = false;
                continue;
            }
            let a = usize::from(arm) - 1;
            spent += costs[a][i];
            captured += scores[a][i];
            reward += tau_r[a][i];
        }
    }
    checks.check(
        arms_ok,
        "MCKP assigned an arm outside 1..K or lost individuals",
    );
    checks.check(
        alloc.spent <= budget && spent <= budget * (1.0 + 1e-12),
        format_args!(
            "MCKP spent {} (recomputed {spent}) over budget {budget}",
            alloc.spent
        ),
    );
    let mut best_single = 0.0f64;
    for a in 0..k {
        for i in 0..test.len() {
            if costs[a][i] <= budget {
                best_single = best_single.max(scores[a][i]);
            }
        }
    }
    checks.check(
        captured >= best_single,
        format_args!(
            "MCKP captured score {captured} below the best affordable single option {best_single}"
        ),
    );
    let library_reward = rdrp::multi_allocation_value(&alloc, &tau_r);
    checks.check(
        oracle::close(reward, library_reward, 1e-9),
        format_args!("batch reward {reward} != multi_allocation_value {library_reward}"),
    );

    // AUCC: mean over arms of the arm-vs-control slice.
    let mut auccs = Vec::with_capacity(k);
    for arm in 1..=LEVELS {
        let slice = test.to_binary(arm);
        let rows: Vec<usize> = (0..test.len())
            .filter(|&i| test.level[i] == 0 || test.level[i] == arm)
            .collect();
        let s: Vec<f64> = rows
            .iter()
            .map(|&i| scores[usize::from(arm) - 1][i])
            .collect();
        let (a, _) = tr.time("metrics.aucc", 0, None, || {
            metrics::aucc_from_labels(&slice, &s, AUCC_BINS)
        });
        let own = oracle::aucc(&slice, &s, AUCC_BINS);
        checks.check(
            oracle::close(a, own, 1e-9),
            format_args!("arm {arm} AUCC {a} != recomputed {own}"),
        );
        auccs.push(a);
    }
    let aucc = auccs.iter().sum::<f64>() / auccs.len() as f64;

    let mut layers = layer::Layers::default();
    if tr.on() {
        layer::spans(
            &mut layers,
            tr,
            &[
                ("datasets.generate_ms", "datasets.generate", 1e6),
                ("uplift.karm_fit_ms", "uplift.karm_fit", 1e6),
                ("core.artifact_save_ms", "core.artifact_save", 1e6),
                ("core.artifact_load_ms", "core.artifact_load", 1e6),
                ("trees.score_ms", "trees.score", 1e6),
                ("linalg.layout_ms", "linalg.layout", 1e6),
                ("core.mckp_allocate_ms", "core.mckp_allocate", 1e6),
                ("metrics.aucc_ms", "metrics.aucc", 1e6),
            ],
        );
        layers.insert("core.artifact_mb", artifact_mb);
        if let Some(parse_ns) = median(&tr.durations("tinyjson.parse")) {
            layers.insert("tinyjson.parse_mb_per_s", artifact_mb / (parse_ns / 1e9));
        }
        layer::residuals(
            &mut layers,
            tr,
            "op",
            &[
                "core.artifact_load",
                family.score_span(),
                "core.mckp_allocate",
            ],
            &fit_s,
            &["uplift.karm_fit"],
        );
    }
    Ok(Report {
        attempted: i as u64,
        failed,
        e2e: E2e {
            setup_s: median(&setup_s).unwrap_or(f64::NAN),
            fit_s: median(&fit_s).unwrap_or(f64::NAN),
            p50_ms: median(&latencies).unwrap_or(f64::NAN),
            tail_ms: tail(&latencies, family.tail_q()),
            rows_per_s: rows as f64 / wall,
            cpu_us_per_row: cpu * 1e6 / rows as f64,
            aucc,
            reward_at_budget: reward,
        },
        layers,
    })
}
