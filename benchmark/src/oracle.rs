//! Independent computations the output checks compare against. None of
//! them calls the library function it checks.

use datasets::RctDataset;

/// AUCC recomputed from scratch: rank by score (descending, ties by
/// index), difference-in-means incremental revenue and cost of each
/// top-`k` set at `bins` evenly spaced cutoffs, normalized by the full
/// population's, integrated by the trapezoid rule over cost.
pub fn aucc(data: &RctDataset, scores: &[f64], bins: usize) -> f64 {
    let n = scores.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Equal scores (0.0 and -0.0 included) rank by index.
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Running sums over the ranked prefix: (n1, n0, r1, r0, c1, c0).
    let mut prefix = Vec::with_capacity(n + 1);
    let mut acc = (0usize, 0usize, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    prefix.push(acc);
    for &i in &order {
        if data.t[i] == 1 {
            acc.0 += 1;
            acc.2 += data.y_r[i];
            acc.4 += data.y_c[i];
        } else {
            acc.1 += 1;
            acc.3 += data.y_r[i];
            acc.5 += data.y_c[i];
        }
        prefix.push(acc);
    }
    let uplift = |k: usize| -> (f64, f64) {
        let (n1, n0, r1, r0, c1, c0) = prefix[k];
        if n1 == 0 || n0 == 0 {
            return (0.0, 0.0);
        }
        let (n1, n0) = (n1 as f64, n0 as f64);
        (
            (c1 / n1 - c0 / n0) * k as f64,
            (r1 / n1 - r0 / n0) * k as f64,
        )
    };
    let (total_c, total_r) = uplift(n);
    let mut area = 0.0;
    let (mut x0, mut y0) = (0.0, 0.0);
    for b in 1..=bins {
        let (x1, y1) = if b == bins {
            (1.0, 1.0)
        } else {
            let (c, r) = uplift((n * b / bins).max(1));
            (c / total_c, r / total_r)
        };
        area += (x1 - x0) * 0.5 * (y0 + y1);
        (x0, y0) = (x1, y1);
    }
    area
}

/// Whether `treated` is exactly the longest prefix of the score ranking
/// (descending) whose costs fit in `budget`: every treated score is at
/// least every untreated one, the treated costs fit, and adding the
/// best-ranked untreated individual would not fit. Returns a reason on
/// failure.
pub fn greedy_prefix(
    scores: &[f64],
    costs: &[f64],
    budget: f64,
    treated: &[bool],
) -> Result<(), String> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut spent = 0.0;
    let mut k = 0;
    while k < order.len() && spent + costs[order[k]] <= budget {
        spent += costs[order[k]];
        k += 1;
    }
    let n_treated = treated.iter().filter(|&&t| t).count();
    if n_treated != k {
        return Err(format!(
            "treated {n_treated} individuals, the budget fits a prefix of {k}"
        ));
    }
    let lowest_treated = (0..scores.len())
        .filter(|&i| treated[i])
        .map(|i| scores[i])
        .fold(f64::INFINITY, f64::min);
    let highest_untreated = (0..scores.len())
        .filter(|&i| !treated[i])
        .map(|i| scores[i])
        .fold(f64::NEG_INFINITY, f64::max);
    if lowest_treated < highest_untreated {
        return Err(format!(
            "an untreated score {highest_untreated} outranks a treated one {lowest_treated}"
        ));
    }
    Ok(())
}

/// The split-conformal quantile by sorting: the ⌈(1−α)(n+1)⌉-th smallest
/// of `|truth − pred| / max(scale, floor)`, infinite when that rank
/// exceeds `n`.
pub fn conformal_qhat(truth: f64, preds: &[f64], scales: &[f64], alpha: f64, floor: f64) -> f64 {
    let mut scores: Vec<f64> = preds
        .iter()
        .zip(scales)
        .map(|(p, s)| (truth - p).abs() / s.max(floor))
        .collect();
    scores.sort_by(f64::total_cmp);
    let rank = ((1.0 - alpha) * (scores.len() as f64 + 1.0)).ceil() as usize;
    if rank > scores.len() {
        f64::INFINITY
    } else {
        scores[rank.max(1) - 1]
    }
}

/// The calibration set's difference-in-means ROI `τ̄^r / τ̄^c`.
pub fn dim_roi(t: &[u8], y_r: &[f64], y_c: &[f64]) -> f64 {
    let (mut n1, mut n0, mut r1, mut r0, mut c1, mut c0) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..t.len() {
        if t[i] == 1 {
            n1 += 1.0;
            r1 += y_r[i];
            c1 += y_c[i];
        } else {
            n0 += 1.0;
            r0 += y_r[i];
            c0 += y_c[i];
        }
    }
    (r1 / n1 - r0 / n0) / (c1 / n1 - c0 / n0)
}

/// Relative closeness for values that two correct computations may
/// round differently.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-12)
}
