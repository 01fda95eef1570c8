//! The trained response-surface model used by schedulers.
//!
//! A [`QrsModel`] starts from an initial fit on a training corpus ("an
//! initial best estimate model based on a standard set of production data",
//! Sec. III-A-1) and is then tuned online: every observed `(features, actual
//! time)` pair enters a sliding window, and the model refits periodically.
//!
//! # The incremental fast path
//!
//! Online tuning is sliding-window **recursive least squares** over the
//! normal equations. The window stores each *expanded design row* exactly
//! once, in a flat ring buffer, and the model maintains
//!
//! ```text
//! G = XᵀX   (lower triangle),   b = Xᵀy,   s = Σ y²
//! ```
//!
//! incrementally: an incoming observation is a rank-1 **up-date** of
//! `(G, b, s)`, an observation falling out of the window is a rank-1
//! **down-date** — both `O(terms²)`. A refit then solves the small
//! `terms×terms` system `G·β = b` by Cholesky into pre-allocated workspace
//! (`O(terms³)`), instead of re-expanding the whole window and re-running a
//! Householder QR (`O(window × terms²)` plus per-refit allocations). That
//! makes refitting *every* observation affordable, which is what keeps the
//! estimate error — and hence the SLA penalty — low under drift.
//!
//! Steady-state costs:
//!
//! * [`QrsModel::observe`] (non-refit step): zero heap allocations.
//! * [`QrsModel::predict`]: zero heap allocations (term-wise evaluation,
//!   no design row is materialized).
//! * [`QrsModel::refit`]: `O(terms³ + window × terms)` for OLS/ridge, no
//!   allocations (the Cholesky workspace and solve buffer are owned by the
//!   model); LAD falls back to IRLS over the stored rows (allocates per
//!   iteration, still never re-expands the window).
//!
//! Floating-point drift from long up/down-date chains is bounded by a full
//! normal-equation rebuild from the stored rows every
//! `REBUILD_DOWNDATES` (8192) evictions (amortized `O(terms²)` per observe).

use crate::decomp::Cholesky;
use crate::design::QuadraticDesign;
use crate::fit::{fit, lad_irls_rows, FitError, Method};
use crate::matrix::Matrix;

/// Down-dates between full normal-equation rebuilds. Each up/down-date pair
/// loses at most a few ulps, so thousands of them keep the maintained
/// `XᵀX` within ~1e-12 relative of exact; rebuilding this rarely makes the
/// amortized cost negligible.
const REBUILD_DOWNDATES: usize = 8_192;

/// A fitted quadratic response-surface model `features → processing seconds`.
#[derive(Clone, Debug)]
pub struct QrsModel {
    design: QuadraticDesign,
    coeffs: Vec<f64>,
    method: Method,
    /// Root-mean-square training residual (seconds).
    rmse: f64,
    /// Mean absolute percentage training error, in `[0, ∞)`.
    mape: f64,
    /// Sliding-window design rows: a flat ring of `window_capacity` rows ×
    /// `n_terms` columns. Each row is expanded exactly once, on entry.
    rows: Vec<f64>,
    /// Responses, ring-ordered alongside `rows`.
    ys: Vec<f64>,
    /// Ring index of the oldest live row.
    head: usize,
    /// Live rows in the window.
    len: usize,
    window_capacity: usize,
    /// `XᵀX` over the window; only the lower triangle is maintained (the
    /// Cholesky factorization reads nothing above the diagonal).
    gram: Matrix,
    /// `Xᵀy` over the window.
    xty: Vec<f64>,
    /// `Σ y²` over the window (kept alongside the other moments; cheap and
    /// useful for fast SSE identities).
    yty: f64,
    /// Evictions since the last full rebuild (drift control).
    downdates: usize,
    /// Observations accumulated since the last refit.
    since_refit: usize,
    /// Refit after this many new observations (0 disables auto-refit).
    refit_every: usize,
    /// Cholesky workspace (lower factor), reused across refits.
    chol: Matrix,
    /// Ridge/LAD workspace for the modified normal matrix.
    work: Matrix,
    /// Right-hand-side / solution buffer, reused across refits.
    solve_buf: Vec<f64>,
}

impl QrsModel {
    /// Fits a model on raw feature vectors `xs` and responses `ys`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], method: Method) -> Result<QrsModel, FitError> {
        if xs.is_empty() {
            return Err(FitError::TooFewObservations);
        }
        let design = QuadraticDesign::new(xs[0].len());
        let x = design.design_matrix(xs);
        let coeffs = fit(&x, ys, method)?;
        let p = design.n_terms();
        let window_capacity = xs.len().max(64);
        let mut m = QrsModel {
            design,
            coeffs,
            method,
            rmse: 0.0,
            mape: 0.0,
            rows: vec![0.0; window_capacity * p],
            ys: vec![0.0; window_capacity],
            head: 0,
            len: 0,
            window_capacity,
            gram: Matrix::zeros(p, p),
            xty: vec![0.0; p],
            yty: 0.0,
            downdates: 0,
            since_refit: 0,
            refit_every: 50,
            chol: Matrix::zeros(p, p),
            work: Matrix::zeros(p, p),
            solve_buf: vec![0.0; p],
        };
        for (x, &y) in xs.iter().zip(ys) {
            m.push_observation(x, y);
        }
        let (rmse, mape) = m.window_residual_stats();
        m.rmse = rmse;
        m.mape = mape;
        Ok(m)
    }

    /// Sets the sliding-window capacity for online tuning (default: the
    /// initial training-set size). Keeps the newest rows when shrinking.
    pub fn with_window_capacity(mut self, cap: usize) -> QrsModel {
        let p = self.design.n_terms();
        let cap = cap.max(p + 1);
        let keep = self.len.min(cap);
        let mut rows = vec![0.0; cap * p];
        let mut ys = vec![0.0; cap];
        for k in 0..keep {
            let src = (self.head + self.len - keep + k) % self.window_capacity;
            rows[k * p..(k + 1) * p].copy_from_slice(&self.rows[src * p..(src + 1) * p]);
            ys[k] = self.ys[src];
        }
        self.rows = rows;
        self.ys = ys;
        self.head = 0;
        self.len = keep;
        self.window_capacity = cap;
        self.rebuild_normals();
        self
    }

    /// Sets how many observations trigger an automatic refit in
    /// [`QrsModel::observe`] (0 disables).
    pub fn with_refit_every(mut self, every: usize) -> QrsModel {
        self.refit_every = every;
        self
    }

    /// Predicted processing time (seconds) for a raw feature vector. Floored
    /// at 0.1 s — a response surface extrapolating negative time is treated
    /// as "effectively instant". Heap-allocation-free.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.design.eval(&self.coeffs, x).max(0.1)
    }

    /// Conservative prediction: point estimate plus `k` training-RMSEs.
    /// `k ≈ 1` gives roughly 84 % coverage under normal residuals.
    /// Heap-allocation-free.
    pub fn predict_upper(&self, x: &[f64], k: f64) -> f64 {
        self.predict(x) + k * self.rmse
    }

    /// Records an observed `(features, actual seconds)` pair in the sliding
    /// window and refits if the refit interval elapsed. Returns `true` if a
    /// refit happened (a failed refit keeps the old coefficients and also
    /// returns `false`). The non-refit step performs no heap allocation:
    /// the design row is expanded straight into its ring slot and the
    /// normal equations are rank-1 up/down-dated in place.
    pub fn observe(&mut self, x: &[f64], y: f64) -> bool {
        self.push_observation(x, y);
        self.since_refit += 1;
        if self.refit_every > 0 && self.since_refit >= self.refit_every {
            self.since_refit = 0;
            return self.refit().is_ok();
        }
        false
    }

    /// Records an observation without refitting: the rank-1 window update
    /// (`O(terms²)`, allocation-free) happens now, the `O(terms³ +
    /// window × terms)` coefficient refit is deferred to the next
    /// [`QrsModel::flush_refit`]. Because [`QrsModel::refit`] is a pure
    /// function of the maintained `(XᵀX, Xᵀy, window)` state — the current
    /// coefficients never feed back into it — queueing any number of
    /// observations and flushing once yields bitwise the same coefficients,
    /// RMSE and MAPE as calling [`QrsModel::observe`] with
    /// `refit_every(1)` for each, *as read at the flush point*. This is
    /// the epoch-barrier discipline: updates accumulate during an epoch,
    /// the refit runs once at the barrier where predictions are next read.
    pub fn observe_queued(&mut self, x: &[f64], y: f64) {
        self.push_observation(x, y);
        self.since_refit += 1;
    }

    /// Refits if any observations were queued since the last refit (and
    /// auto-refit is enabled), making the coefficients current with the
    /// window. Returns `true` if a refit ran and succeeded; `false` when
    /// nothing was pending or the refit failed (old coefficients kept, as
    /// in [`QrsModel::observe`]). Idempotent between observations.
    pub fn flush_refit(&mut self) -> bool {
        if self.refit_every == 0 || self.since_refit == 0 {
            return false;
        }
        self.since_refit = 0;
        self.refit().is_ok()
    }

    /// Re-solves the coefficients from the incrementally maintained normal
    /// equations, keeping old coefficients on failure. `O(terms³)` plus a
    /// single `O(window × terms)` residual pass — the window is never
    /// re-expanded or cloned.
    pub fn refit(&mut self) -> Result<(), FitError> {
        let p = self.design.n_terms();
        if self.len < p {
            return Err(FitError::TooFewObservations);
        }
        match self.method {
            Method::Ols => {
                Cholesky::factorize_into(&self.gram, &mut self.chol)
                    .map_err(FitError::from)?;
                self.solve_buf.copy_from_slice(&self.xty);
                Cholesky::solve_in_place(&self.chol, &mut self.solve_buf)
                    .map_err(FitError::from)?;
                self.coeffs.copy_from_slice(&self.solve_buf);
            }
            Method::Ridge(lambda) => {
                debug_assert!(lambda >= 0.0, "ridge penalty must be non-negative");
                self.load_penalized_work(lambda);
                Cholesky::factorize_into(&self.work, &mut self.chol)
                    .map_err(FitError::from)?;
                self.solve_buf.copy_from_slice(&self.xty);
                Cholesky::solve_in_place(&self.chol, &mut self.solve_buf)
                    .map_err(FitError::from)?;
                self.coeffs.copy_from_slice(&self.solve_buf);
            }
            Method::Lad => {
                // IRLS over the ring-stored rows (Schlossmacher), started
                // from the normal-equation OLS solution (mild ridge if the
                // window is degenerate) — mirrors the batch fit's QR start.
                let start = match self.normal_solve(0.0) {
                    Ok(b) => b,
                    Err(_) => self.normal_solve(1e-6)?,
                };
                let p = self.design.n_terms();
                let coeffs = lad_irls_rows(self.window_iter(), p, start, 40, 1e-8)?;
                self.coeffs = coeffs;
            }
        }
        let (rmse, mape) = self.window_residual_stats();
        self.rmse = rmse;
        self.mape = mape;
        Ok(())
    }

    /// The fitted coefficient vector (ordered per [`QuadraticDesign::terms`]).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The basis in use.
    pub fn design(&self) -> &QuadraticDesign {
        &self.design
    }

    /// Training RMSE in seconds.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }

    /// Training mean absolute percentage error.
    pub fn mape(&self) -> f64 {
        self.mape
    }

    /// Number of observations currently in the tuning window.
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Inserts one observation into the ring, down-dating the evicted row
    /// first when the window is full. No heap allocation.
    fn push_observation(&mut self, x: &[f64], y: f64) {
        let p = self.design.n_terms();
        let slot = if self.len == self.window_capacity {
            // Evict the oldest row: remove its contribution, reuse its slot.
            let h = self.head;
            let Self { rows, ys, gram, xty, yty, .. } = self;
            rank1(gram, xty, yty, &rows[h * p..(h + 1) * p], ys[h], -1.0);
            self.head = (self.head + 1) % self.window_capacity;
            self.downdates += 1;
            h
        } else {
            let s = (self.head + self.len) % self.window_capacity;
            self.len += 1;
            s
        };
        {
            let Self { design, rows, ys, gram, xty, yty, .. } = self;
            let row = &mut rows[slot * p..(slot + 1) * p];
            design.expand_into(x, row);
            ys[slot] = y;
            rank1(gram, xty, yty, row, y, 1.0);
        }
        if self.downdates >= REBUILD_DOWNDATES {
            self.rebuild_normals();
        }
    }

    /// Recomputes `XᵀX`, `Xᵀy` and `Σy²` exactly from the stored rows.
    fn rebuild_normals(&mut self) {
        let p = self.design.n_terms();
        let Self { rows, ys, gram, xty, yty, head, len, window_capacity, .. } = self;
        for i in 0..p {
            for j in 0..=i {
                gram[(i, j)] = 0.0;
            }
        }
        xty.fill(0.0);
        *yty = 0.0;
        for k in 0..*len {
            let i = (*head + k) % *window_capacity;
            rank1(gram, xty, yty, &rows[i * p..(i + 1) * p], ys[i], 1.0);
        }
        self.downdates = 0;
    }

    /// Copies the gram lower triangle into `work` with the ridge penalty
    /// added to every non-intercept diagonal entry.
    fn load_penalized_work(&mut self, lambda: f64) {
        let p = self.design.n_terms();
        for i in 0..p {
            for j in 0..=i {
                self.work[(i, j)] = self.gram[(i, j)];
            }
        }
        for i in 1..p {
            self.work[(i, i)] += lambda;
        }
    }

    /// Solves `(XᵀX + λD)·β = Xᵀy` into a fresh vector (LAD start point).
    fn normal_solve(&mut self, lambda: f64) -> Result<Vec<f64>, FitError> {
        self.load_penalized_work(lambda);
        Cholesky::factorize_into(&self.work, &mut self.chol).map_err(FitError::from)?;
        let mut beta = self.xty.clone();
        Cholesky::solve_in_place(&self.chol, &mut beta).map_err(FitError::from)?;
        Ok(beta)
    }

    /// Oldest-first `(design row, response)` view of the window.
    fn window_iter(&self) -> impl Iterator<Item = (&[f64], f64)> + Clone + '_ {
        let p = self.design.n_terms();
        (0..self.len).map(move |k| {
            let i = (self.head + k) % self.window_capacity;
            (&self.rows[i * p..(i + 1) * p], self.ys[i])
        })
    }

    /// RMSE/MAPE over the window for the current coefficients, streamed
    /// over the stored rows — one dot product per row, no re-expansion, no
    /// allocation.
    fn window_residual_stats(&self) -> (f64, f64) {
        let n = self.len as f64;
        let mut sse = 0.0;
        let mut ape = 0.0;
        for (row, y) in self.window_iter() {
            let pred: f64 = row.iter().zip(&self.coeffs).map(|(b, c)| b * c).sum();
            sse += (pred - y) * (pred - y);
            if y.abs() > 1e-9 {
                ape += ((pred - y) / y).abs();
            }
        }
        ((sse / n).sqrt(), ape / n)
    }
}

/// Rank-1 up-date (`sign = +1`) or down-date (`sign = -1`) of the normal
/// equations with one `(row, y)` pair. Touches only the gram lower triangle.
fn rank1(gram: &mut Matrix, xty: &mut [f64], yty: &mut f64, row: &[f64], y: f64, sign: f64) {
    for i in 0..row.len() {
        let ai = sign * row[i];
        if ai == 0.0 {
            continue;
        }
        xty[i] += ai * y;
        for j in 0..=i {
            gram[(i, j)] += ai * row[j];
        }
    }
    *yty += sign * y * y;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(x: &[f64]) -> f64 {
        10.0 + 3.0 * x[0] + 0.5 * x[1] + 0.2 * x[0] * x[1] + 0.05 * x[0] * x[0]
    }

    fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i % 17) as f64, ((i * 3) % 11) as f64]).collect();
        let ys = xs.iter().map(|x| truth(x)).collect();
        (xs, ys)
    }

    #[test]
    fn fit_and_predict_exactly_on_clean_data() {
        let (xs, ys) = dataset(100);
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        for x in [[4.0, 7.0], [16.0, 10.0], [0.0, 0.0]] {
            assert!((m.predict(&x) - truth(&x)).abs() < 1e-6);
        }
        assert!(m.rmse() < 1e-6);
        assert!(m.mape() < 1e-6);
    }

    #[test]
    fn prediction_is_floored() {
        // A surface fitted to descend below zero still predicts ≥ 0.1 s.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 - 20.0 * x[0]).collect();
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        assert_eq!(m.predict(&[1000.0]), 0.1);
    }

    #[test]
    fn predict_upper_adds_margin() {
        let (xs, mut ys) = dataset(100);
        for (i, y) in ys.iter_mut().enumerate() {
            *y += if i % 2 == 0 { 5.0 } else { -5.0 };
        }
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        assert!(m.rmse() > 1.0);
        let x = [4.0, 7.0];
        assert!(m.predict_upper(&x, 1.0) > m.predict(&x));
        assert!((m.predict_upper(&x, 2.0) - m.predict(&x) - 2.0 * m.rmse()).abs() < 1e-9);
    }

    #[test]
    fn online_tuning_adapts_to_drift() {
        // Train on one regime, then observe a 2× slower regime; after enough
        // observations + refit the prediction follows the new regime.
        let (xs, ys) = dataset(80);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols)
            .expect("full-rank training corpus")
            .with_window_capacity(80)
            .with_refit_every(20);
        let probe = [4.0, 7.0];
        let before = m.predict(&probe);
        let mut refits = 0;
        for i in 0..100 {
            let x = vec![(i % 17) as f64, ((i * 5) % 11) as f64];
            let y = 2.0 * truth(&x);
            if m.observe(&x, y) {
                refits += 1;
            }
        }
        let after = m.predict(&probe);
        assert!(refits >= 4, "expected periodic refits, got {refits}");
        assert!(
            (after - 2.0 * truth(&probe)).abs() < 0.2 * truth(&probe),
            "before={before} after={after} target={}",
            2.0 * truth(&probe)
        );
    }

    #[test]
    fn refit_fails_gracefully_with_tiny_window() {
        let (xs, ys) = dataset(100);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus").with_window_capacity(1);
        // Window shrank below n_terms; refit reports the problem but keeps
        // the model usable.
        assert_eq!(m.window_len(), 7); // capacity floored at n_terms + 1
        let before = m.coeffs().to_vec();
        m.observe(&[1.0, 1.0], 1.0);
        assert_eq!(m.coeffs().len(), before.len());
        assert!(m.predict(&[4.0, 7.0]) > 0.0);
    }

    #[test]
    fn queued_flush_is_bitwise_identical_to_eager_refit() {
        // The deferred path (observe_queued × n, then one flush_refit) must
        // land on exactly the same coefficients/RMSE/MAPE bytes as the
        // eager path (observe with refit_every(1)) at every flush point —
        // including across ring wrap-around and drift rebuilds.
        let (xs, ys) = dataset(60);
        let fresh = || {
            QrsModel::fit(&xs, &ys, Method::Ols)
                .expect("full-rank training corpus")
                .with_window_capacity(40)
                .with_refit_every(1)
        };
        let mut eager = fresh();
        let mut deferred = fresh();
        for round in 0..30 {
            // Variable-length bursts between flushes, like batches of
            // completions between decision points.
            for i in 0..(1 + round % 7) {
                let x = vec![((round * 5 + i) % 13) as f64, ((round * 7 + i) % 9) as f64];
                let y = truth(&x) + ((round + i) % 3) as f64;
                eager.observe(&x, y);
                deferred.observe_queued(&x, y);
            }
            assert!(deferred.flush_refit(), "refit must succeed on well-posed data");
            assert!(!deferred.flush_refit(), "second flush must be a no-op");
            for (a, b) in deferred.coeffs().iter().zip(eager.coeffs()) {
                assert_eq!(a.to_bits(), b.to_bits(), "coeff bytes diverged at round {round}");
            }
            assert_eq!(deferred.rmse().to_bits(), eager.rmse().to_bits());
            assert_eq!(deferred.mape().to_bits(), eager.mape().to_bits());
        }
    }

    #[test]
    fn empty_fit_is_rejected() {
        assert_eq!(QrsModel::fit(&[], &[], Method::Ols).unwrap_err(), FitError::TooFewObservations);
    }

    #[test]
    fn rls_refit_matches_cold_batch_fit() {
        // After a full wrap of the ring (every original row evicted), the
        // incrementally maintained coefficients still agree with a batch
        // refit on exactly the surviving window.
        let (xs, ys) = dataset(60);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols)
            .expect("full-rank training corpus")
            .with_window_capacity(40)
            .with_refit_every(1);
        let mut window: Vec<(Vec<f64>, f64)> =
            xs.iter().cloned().zip(ys.iter().copied()).collect();
        for i in 0..120 {
            let x = vec![((i * 5) % 13) as f64, ((i * 7) % 9) as f64];
            let y = truth(&x) + (i % 3) as f64;
            assert!(m.observe(&x, y), "refit must succeed on well-posed data");
            window.push((x, y));
        }
        let tail = &window[window.len() - 40..];
        let bxs: Vec<Vec<f64>> = tail.iter().map(|(x, _)| x.clone()).collect();
        let bys: Vec<f64> = tail.iter().map(|(_, y)| *y).collect();
        let batch = QrsModel::fit(&bxs, &bys, Method::Ols).expect("full-rank training corpus");
        for (a, b) in m.coeffs().iter().zip(batch.coeffs()) {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "RLS {a} vs batch {b}\nrls={:?}\nbatch={:?}",
                m.coeffs(),
                batch.coeffs()
            );
        }
        assert!((m.rmse() - batch.rmse()).abs() < 1e-6 * (1.0 + batch.rmse()));
        assert!((m.mape() - batch.mape()).abs() < 1e-6 * (1.0 + batch.mape()));
    }
}
