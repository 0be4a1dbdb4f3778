//! Sparse LU factorization of the simplex basis with a product-form eta file.
//!
//! The basis matrices arising from the modulo-scheduling formulations are
//! extremely sparse (the 0-1-structured rows of Ineq. 20 carry a handful of
//! ±1 entries each), so an explicit dense inverse wastes both the
//! factorization (O(m³)) and every FTRAN/BTRAN (O(m²)). This module stores
//! the basis as `P B Q = L U` with
//!
//! * `L` unit lower triangular, held column-wise in pivot coordinates,
//! * `U` upper triangular, held column-wise (off-diagonal) plus a diagonal,
//! * `P`/`Q` the row/column pivot orders chosen by Markowitz selection with
//!   threshold partial pivoting,
//!
//! which supports all four triangular solves (`L`, `Lᵀ`, `U`, `Uᵀ`) needed
//! by FTRAN (`B v = a`) and BTRAN (`Bᵀ y = c`) with a single dense scratch
//! vector. Between refactorizations, basis changes are absorbed as
//! product-form eta updates: after a pivot on basis position `r` with
//! transformed column `v = B⁻¹ a`, the new basis is `B' = B·E` where `E` is
//! the identity with column `r` replaced by `v`, so
//!
//! * FTRAN applies the etas **in order** after the base LU solve
//!   (`z_r ← z_r / v_r`, then `z_i ← z_i − v_i z_r`), and
//! * BTRAN applies the transposed etas **in reverse** before the base
//!   transpose solve (`y_r ← (y_r − Σ_{i≠r} v_i y_i) / v_r`).
//!
//! The eta file is bounded: [`SparseBasis::eta_nnz`] lets the caller force a
//! refactorization once the accumulated update entries outgrow the factor.
//!
//! The LU factor never changes between refactorizations, so [`SparseBasis`]
//! holds it behind an [`Arc`]: cloning a basis representation — which is how
//! a branch-and-bound parent hands its factorization to both children —
//! copies only the eta file and shares `L`/`U`.
//!
//! # Pivot selection
//!
//! Each elimination step pivots on the entry of the active submatrix that
//! minimizes the Markowitz score `(r − 1)(c − 1)` (`r`, `c`: live entries in
//! its row and column) among entries with `|a| ≥ SINGULAR_TOL` and
//! `|a| ≥ LU_PIVOT_REL · max|column|`. Among equal scores the largest `|a|`
//! wins, then the lowest row, then the lowest column. This total order fixes
//! the pivot sequence, and with it `L`, `U` and every simplex path, however
//! the search below visits the entries.
//!
//! The search costs time in proportion to the basis and its fill, not to
//! `m × nnz` (Suhl & Suhl, *Computing sparse LU factorizations for
//! large-scale linear programming bases*, 1990). Simplex bases of these
//! models are mostly slack and other singleton columns, so most steps have
//! score 0:
//!
//! * **Singletons.** Exact live column counts are kept incrementally, and a
//!   max-heap holds every row- or column-singleton entry keyed by
//!   (`|a|` desc, row asc, column asc). An entry is pushed when its row or
//!   column becomes a singleton or a row rewrite changes its value, and is
//!   validated lazily on pop (both sides active, value bits unchanged, still
//!   a singleton). A row singleton below the threshold is set aside and
//!   pushed back after the step, so the first valid pop is the rule's pick.
//! * **Nucleus.** With no eligible singleton, the exact minimum is searched
//!   over columns and rows filed by live count, visiting counts `k = 2, 3,
//!   …` and stopping once every unseen entry must score at least `k²` and
//!   the best so far scores less. Column maxima are computed on demand and
//!   cached until elimination next touches the column. No eligible entry at
//!   all means the basis is [`Singular`].
//!
//! The elimination scratch lives in an [`LuWorkspace`] that [`SparseBasis`]
//! reuses across refactorizations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::tol::{ELIM_SKIP_TOL, LU_DROP_TOL, LU_PIVOT_REL, SINGULAR_TOL};

/// A numerically singular basis was handed to [`LuFactor::factor_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Singular;

/// Sparse LU factors of one basis matrix, `P B Q = L U`.
///
/// All internal row/column indices of `L` and `U` are *pivot coordinates*
/// (elimination order); `row_of`/`col_of` map them back to original
/// constraint rows and basis positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    m: usize,
    /// `row_of[k]` = original constraint row eliminated at step `k`.
    row_of: Vec<u32>,
    /// `col_of[k]` = basis position whose column was the pivot at step `k`.
    col_of: Vec<u32>,
    /// Unit-lower-triangular multipliers, column-wise: column `k` is
    /// `l_ent[l_start[k]..l_start[k + 1]]`, holding `(i, L_ik)` with `i > k`.
    l_start: Vec<usize>,
    l_ent: Vec<(u32, f64)>,
    /// Off-diagonal of `U`, column-wise: column `k` is
    /// `u_ent[u_start[k]..u_start[k + 1]]`, holding `(i, U_ik)` with `i < k`
    /// in increasing `i`.
    u_start: Vec<usize>,
    u_ent: Vec<(u32, f64)>,
    u_diag: Vec<f64>,
}

impl LuFactor {
    /// Factor for a ±1-diagonal basis (the initial slack basis, possibly
    /// with signed artificial columns): `B = diag(signs)` in original
    /// coordinates, no fill, no permutation.
    pub(crate) fn diagonal(signs: &[f64]) -> Self {
        let m = signs.len();
        LuFactor {
            m,
            row_of: (0..m as u32).collect(),
            col_of: (0..m as u32).collect(),
            l_start: vec![0; m + 1],
            l_ent: Vec::new(),
            u_start: vec![0; m + 1],
            u_ent: Vec::new(),
            u_diag: signs.to_vec(),
        }
    }

    /// Dimension of the factored basis.
    pub(crate) fn dim(&self) -> usize {
        self.m
    }

    /// Column `k` of `L` below the unit diagonal.
    fn l_col(&self, k: usize) -> &[(u32, f64)] {
        &self.l_ent[self.l_start[k]..self.l_start[k + 1]]
    }

    /// Column `k` of `U` above the diagonal.
    fn u_col(&self, k: usize) -> &[(u32, f64)] {
        &self.u_ent[self.u_start[k]..self.u_start[k + 1]]
    }

    /// True while the factor is a pure diagonal (no elimination happened),
    /// which is when [`LuFactor::set_diag`] is legal.
    pub(crate) fn is_diagonal(&self) -> bool {
        self.l_ent.is_empty()
            && self.u_ent.is_empty()
            && self
                .row_of
                .iter()
                .enumerate()
                .all(|(k, &r)| r as usize == k)
            && self
                .col_of
                .iter()
                .enumerate()
                .all(|(k, &c)| c as usize == k)
    }

    /// Overwrites one diagonal entry of a diagonal factor (phase 1 installs
    /// signed artificial columns into the initial slack basis this way).
    pub(crate) fn set_diag(&mut self, i: usize, sign: f64) {
        debug_assert!(self.is_diagonal(), "set_diag on a factored basis");
        self.u_diag[i] = sign;
    }

    /// Factorizes an `m × m` basis given by a column oracle with a fresh
    /// workspace; see [`LuFactor::factor_in`].
    #[cfg(test)]
    pub(crate) fn factor(
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<Self, Singular> {
        Self::factor_in(&mut LuWorkspace::default(), m, col)
    }

    /// Factorizes an `m × m` basis given by a column oracle: `col(q, f)`
    /// must call `f(row, value)` for every nonzero of the basis column at
    /// position `q`. Pivots follow the rule in the module docs: minimum
    /// Markowitz score over threshold-eligible entries, then largest `|a|`,
    /// then lowest row, then lowest column. `ws` only lends its allocations.
    pub(crate) fn factor_in(
        ws: &mut LuWorkspace,
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<Self, Singular> {
        ws.load(m, col);
        let mut fac = LuFactor {
            m,
            row_of: Vec::with_capacity(m),
            col_of: Vec::with_capacity(m),
            l_start: Vec::with_capacity(m + 1),
            l_ent: Vec::new(),
            u_start: Vec::new(),
            u_ent: Vec::new(),
            u_diag: vec![0.0; m],
        };
        fac.l_start.push(0);
        for step in 0..m {
            debug_assert!(
                !(step + 1).is_power_of_two() || ws.counts_match_recount(),
                "incremental column counts or cached maxima drifted at step {step}"
            );
            let Some((pr, pc, pv)) = ws.pop_singleton().or_else(|| ws.search_nucleus()) else {
                return Err(Singular);
            };
            fac.row_of.push(pr as u32);
            fac.col_of.push(pc as u32);
            fac.u_diag[step] = pv;
            ws.eliminate(pr, pc, pv, &mut fac.l_ent);
            fac.l_start.push(fac.l_ent.len());
        }
        debug_assert!(ws.col_active.iter().all(|&a| !a));
        ws.remap(&mut fac);
        Ok(fac)
    }

    /// Solves `B x = rhs`. `rhs` is dense in original row coordinates and is
    /// consumed as scratch; the solution lands in `out`, indexed by **basis
    /// position**. `work` is an `m`-length scratch vector.
    pub(crate) fn ftran(&self, rhs: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Permute into pivot coordinates: w = P·rhs.
        for k in 0..m {
            work[k] = rhs[self.row_of[k] as usize];
        }
        // Forward solve L z = w (column-oriented).
        for k in 0..m {
            let val = work[k];
            if val != 0.0 {
                for &(i, mult) in self.l_col(k) {
                    work[i as usize] -= mult * val;
                }
            }
        }
        // Back solve U x = z (column-oriented).
        for k in (0..m).rev() {
            let xk = work[k] / self.u_diag[k];
            work[k] = xk;
            if xk != 0.0 {
                for &(i, v) in self.u_col(k) {
                    work[i as usize] -= v * xk;
                }
            }
        }
        // Scatter back to basis positions: x = Q·w.
        for k in 0..m {
            out[self.col_of[k] as usize] = work[k];
        }
    }

    /// Solves `Bᵀ y = c`. `c` is dense, indexed by basis position; the
    /// solution lands in `out`, indexed by original constraint row. `work`
    /// is an `m`-length scratch vector.
    pub(crate) fn btran(&self, c: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // With M = L·U in pivot coordinates, Bᵀ y = c becomes Mᵀ yp = cp
        // where cp_q = c[col_of[q]] and yp_k = y[row_of[k]].
        // Forward solve Uᵀ w = cp (column q of U is row q of Uᵀ).
        for q in 0..m {
            let mut s = c[self.col_of[q] as usize];
            for &(i, v) in self.u_col(q) {
                s -= v * work[i as usize];
            }
            work[q] = s / self.u_diag[q];
        }
        // Back solve Lᵀ yp = w (column k of L is row k of Lᵀ, entries i > k).
        for k in (0..m).rev() {
            let mut s = work[k];
            for &(i, mult) in self.l_col(k) {
                s -= mult * work[i as usize];
            }
            work[k] = s;
        }
        for k in 0..m {
            out[self.row_of[k] as usize] = work[k];
        }
    }
}

/// A row- or column-singleton entry on the candidate heap. The derived
/// order is the pivot rule's order among score-0 entries: larger `|a|`
/// first, then lower row, then lower column. `bits` identifies the value
/// the entry had when pushed, for lazy validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    /// `|a|` as bits; non-negative floats order like their bit patterns.
    mag: u64,
    row: Reverse<u32>,
    col: Reverse<u32>,
    bits: u64,
}

impl Candidate {
    fn new(row: u32, col: u32, a: f64) -> Self {
        Candidate {
            mag: a.abs().to_bits(),
            row: Reverse(row),
            col: Reverse(col),
            bits: a.to_bits(),
        }
    }
}

/// The best nucleus entry so far under the pivot rule.
#[derive(Debug, Clone, Copy)]
struct Pick {
    score: u64,
    mag: f64,
    row: u32,
    col: u32,
    a: f64,
}

impl Pick {
    /// Whether entry `(i, q)` with value `a` cannot replace `best`: a higher
    /// score, or an equal score and a smaller `|a|`, or an equal `|a|` and a
    /// position at or after `best`'s in row-major order.
    fn loses(best: Option<Pick>, score: u64, i: usize, q: usize, a: f64) -> bool {
        best.is_some_and(|b| {
            let mag = a.abs();
            score > b.score
                || (score == b.score
                    && (mag < b.mag || (mag == b.mag && (i as u32, q as u32) >= (b.row, b.col))))
        })
    }

    /// Makes `(i, q)` the best entry if it passes the threshold against
    /// its column's maximum `max` and wins under the pivot rule.
    fn offer(best: &mut Option<Pick>, score: u64, i: usize, q: usize, a: f64, max: f64) {
        let mag = a.abs();
        if mag < SINGULAR_TOL || mag < LU_PIVOT_REL * max || Pick::loses(*best, score, i, q, a) {
            return;
        }
        *best = Some(Pick {
            score,
            mag,
            row: i as u32,
            col: q as u32,
            a,
        });
    }
}

/// End of a [`CountLists`] chain.
const NIL: u32 = u32::MAX;

/// Items `0..n` filed by a count in one doubly linked list per count, so
/// the nucleus search can visit rows and columns by increasing count.
#[derive(Default)]
struct CountLists {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The count each item is filed under, or `NIL` when it is not filed.
    at: Vec<u32>,
}

impl CountLists {
    fn reset(&mut self, n: usize) {
        for v in [&mut self.head, &mut self.next, &mut self.prev, &mut self.at] {
            v.clear();
            v.resize(n, NIL);
        }
        self.head.push(NIL);
    }

    fn first(&self, count: usize) -> u32 {
        self.head.get(count).copied().unwrap_or(NIL)
    }

    fn filed(&self, item: usize) -> Option<usize> {
        (self.at[item] != NIL).then_some(self.at[item] as usize)
    }

    fn insert(&mut self, item: usize, count: usize) {
        if count >= self.head.len() {
            self.head.resize(count + 1, NIL);
        }
        let h = self.head[count];
        self.next[item] = h;
        self.prev[item] = NIL;
        if h != NIL {
            self.prev[h as usize] = item as u32;
        }
        self.head[count] = item as u32;
        self.at[item] = count as u32;
    }

    fn remove(&mut self, item: usize) {
        let Some(count) = self.filed(item) else {
            return;
        };
        let (p, n) = (self.prev[item], self.next[item]);
        if p == NIL {
            self.head[count] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.at[item] = NIL;
    }

    fn refile(&mut self, item: usize, count: usize) {
        if self.filed(item) != Some(count) {
            self.remove(item);
            self.insert(item, count);
        }
    }
}

/// Elimination scratch for [`LuFactor::factor_in`]. It carries no state
/// from one factorization to the next, only allocations, so a clone starts
/// empty.
#[derive(Default)]
pub(crate) struct LuWorkspace {
    /// Active-submatrix rows, sorted by column. Active rows only ever hold
    /// unpivoted columns, so `rows[i].len()` is the live row count.
    rows: Vec<Vec<(u32, f64)>>,
    /// Rows known to contain each column, in the order they gained it.
    /// Entries go stale when a row is pivoted or drops the column and are
    /// re-checked on use. A row that drops a column and is filled in again
    /// appears twice; its first appearance fixes its place in `L`.
    col_rows: Vec<Vec<u32>>,
    /// Live entries per column over the active rows.
    col_cnt: Vec<u32>,
    /// `max |a|` over a column's active entries, valid while `col_max_ok`.
    col_max: Vec<f64>,
    col_max_ok: Vec<bool>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Active rows filed by live length, active columns by live count.
    rows_by_len: CountLists,
    cols_by_count: CountLists,
    /// Singleton candidates, best on top; may hold stale entries.
    heap: BinaryHeap<Candidate>,
    /// Row singletons that failed the threshold during this step.
    aside: Vec<Candidate>,
    /// Rows rewritten by this step's elimination.
    touched: Vec<u32>,
    pivot_row: Vec<(u32, f64)>,
    spill: Vec<(u32, f64)>,
    /// `U` row by row in pivot order, with original column indices.
    u_row_start: Vec<usize>,
    u_row_ent: Vec<(u32, f64)>,
    pos_of_row: Vec<u32>,
    pos_of_col: Vec<u32>,
}

impl Clone for LuWorkspace {
    fn clone(&self) -> Self {
        LuWorkspace::default()
    }
}

impl fmt::Debug for LuWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LuWorkspace").finish_non_exhaustive()
    }
}

impl LuWorkspace {
    /// Loads the basis into the active submatrix and seeds the singleton
    /// heap.
    fn load(&mut self, m: usize, col: impl Fn(usize, &mut dyn FnMut(usize, f64))) {
        self.rows.resize_with(m, Vec::new);
        self.rows.iter_mut().for_each(Vec::clear);
        let rows = &mut self.rows;
        for q in 0..m {
            col(q, &mut |i, a| {
                if a != 0.0 {
                    rows[i].push((q as u32, a));
                }
            });
        }
        for r in rows.iter_mut() {
            r.sort_unstable_by_key(|&(q, _)| q);
        }
        self.col_rows.resize_with(m, Vec::new);
        self.col_rows.iter_mut().for_each(Vec::clear);
        for (i, r) in self.rows.iter().enumerate() {
            for &(q, _) in r {
                self.col_rows[q as usize].push(i as u32);
            }
        }
        self.col_cnt.clear();
        self.col_cnt
            .extend(self.col_rows.iter().map(|rows| rows.len() as u32));
        self.col_max.clear();
        self.col_max.resize(m, 0.0);
        self.col_max_ok.clear();
        self.col_max_ok.resize(m, false);
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.col_active.clear();
        self.col_active.resize(m, true);
        self.rows_by_len.reset(m);
        self.cols_by_count.reset(m);
        for i in 0..m {
            self.rows_by_len.insert(i, self.rows[i].len());
            self.cols_by_count.insert(i, self.col_cnt[i] as usize);
        }
        self.aside.clear();
        self.touched.clear();
        self.u_row_start.clear();
        self.u_row_start.push(0);
        self.u_row_ent.clear();
        self.heap.clear();
        for (i, r) in self.rows.iter().enumerate() {
            for &(q, a) in r {
                if r.len() == 1 || self.col_cnt[q as usize] == 1 {
                    self.heap.push(Candidate::new(i as u32, q, a));
                }
            }
        }
    }

    /// Value of column `q` in row `i`, if the row holds it.
    fn entry(&self, i: usize, q: usize) -> Option<f64> {
        let row = &self.rows[i];
        row.binary_search_by_key(&(q as u32), |&(c, _)| c)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// Drops pivoted rows from column `q`'s row list. The rest keep their
    /// order, which is the order elimination visits them in.
    fn prune_col_rows(&mut self, q: usize) {
        let row_active = &self.row_active;
        self.col_rows[q].retain(|&i| row_active[i as usize]);
    }

    /// `max |a|` over the active entries of column `q`, from the cache when
    /// elimination has not touched the column since it was computed.
    fn col_max(&mut self, q: usize) -> f64 {
        if !self.col_max_ok[q] {
            self.prune_col_rows(q);
            let mut max = 0.0f64;
            for &i in &self.col_rows[q] {
                if let Some(a) = self.entry(i as usize, q) {
                    if a.abs() > max {
                        max = a.abs();
                    }
                }
            }
            self.col_max[q] = max;
            self.col_max_ok[q] = true;
        }
        self.col_max[q]
    }

    /// Pops the best eligible score-0 entry `(row, col, value)`, if any.
    fn pop_singleton(&mut self) -> Option<(usize, usize, f64)> {
        while let Some(c) = self.heap.pop() {
            let (i, q) = (c.row.0 as usize, c.col.0 as usize);
            if !self.row_active[i] || !self.col_active[q] {
                continue;
            }
            let Some(a) = self.entry(i, q) else { continue };
            if a.to_bits() != c.bits || a.abs() < SINGULAR_TOL {
                // Stale, or never eligible: a new value is pushed anew.
                continue;
            }
            if self.col_cnt[q] == 1 {
                // The column's maximum is `|a|` itself.
                return Some((i, q, a));
            }
            if self.rows[i].len() != 1 {
                continue;
            }
            if a.abs() >= LU_PIVOT_REL * self.col_max(q) {
                return Some((i, q, a));
            }
            if self.aside.last() != Some(&c) {
                self.aside.push(c);
            }
        }
        None
    }

    /// Exact Markowitz search when no score-0 entry is eligible: every
    /// eligible entry then has row and column counts of at least 2. Columns
    /// and rows are visited by increasing count `k`. After count `k`, every
    /// unseen entry scores at least `k²`, so a best scoring below that
    /// cannot be beaten or tied.
    fn search_nucleus(&mut self) -> Option<(usize, usize, f64)> {
        let mut best = None;
        let top = self
            .rows_by_len
            .head
            .len()
            .max(self.cols_by_count.head.len());
        for k in 2..top {
            let mut q = self.cols_by_count.first(k);
            while q != NIL {
                self.scan_column(q as usize, k, &mut best);
                q = self.cols_by_count.next[q as usize];
            }
            let mut i = self.rows_by_len.first(k);
            while i != NIL {
                self.scan_row(i as usize, k, &mut best);
                i = self.rows_by_len.next[i as usize];
            }
            if best.is_some_and(|b: Pick| b.score < (k * k) as u64) {
                break;
            }
        }
        best.map(|b| (b.row as usize, b.col as usize, b.a))
    }

    /// Offers the entries of column `q`, which has `k ≥ 2` live entries.
    fn scan_column(&mut self, q: usize, k: usize, best: &mut Option<Pick>) {
        let cdeg = (k - 1) as u64;
        if best.is_some_and(|b| b.score < cdeg) {
            return;
        }
        let max = self.col_max(q);
        for slot in 0..self.col_rows[q].len() {
            let i = self.col_rows[q][slot] as usize;
            let len = self.rows[i].len();
            if len < 2 {
                continue; // pivoted, or a row singleton (the heap's)
            }
            let score = (len - 1) as u64 * cdeg;
            if best.is_some_and(|b| score > b.score) {
                continue;
            }
            let Some(a) = self.entry(i, q) else { continue };
            Pick::offer(best, score, i, q, a, max);
        }
    }

    /// Offers the entries of active row `i`, which has `k ≥ 2` of them.
    fn scan_row(&mut self, i: usize, k: usize, best: &mut Option<Pick>) {
        let rdeg = (k - 1) as u64;
        if best.is_some_and(|b| b.score < rdeg) {
            return;
        }
        for slot in 0..self.rows[i].len() {
            let (q, a) = self.rows[i][slot];
            let cnt = self.col_cnt[q as usize];
            if cnt < 2 {
                continue; // a column singleton (the heap's)
            }
            let score = rdeg * u64::from(cnt - 1);
            if Pick::loses(*best, score, i, q as usize, a) {
                continue;
            }
            let max = self.col_max(q as usize);
            Pick::offer(best, score, i, q as usize, a, max);
        }
    }

    /// Pivots on `(pr, pc)` with value `pv`: records the pivot row as a row
    /// of `U`, eliminates the pivot column from the other active rows
    /// (appending the multipliers, in original row indices, to `l_ent`),
    /// and pushes the singletons the step created.
    fn eliminate(&mut self, pr: usize, pc: usize, pv: f64, l_ent: &mut Vec<(u32, f64)>) {
        self.row_active[pr] = false;
        self.col_active[pc] = false;
        self.rows_by_len.remove(pr);
        self.cols_by_count.remove(pc);

        // The pivot row (minus the pivot entry) becomes this step's row of
        // U and leaves the active submatrix. Elimination changes nothing
        // outside its columns, so their cached maxima are all that expire.
        let mut pivot_row = std::mem::take(&mut self.pivot_row);
        pivot_row.clear();
        pivot_row.extend_from_slice(&self.rows[pr]);
        self.rows[pr].clear();
        for &(q, v) in &pivot_row {
            self.col_cnt[q as usize] -= 1;
            self.col_max_ok[q as usize] = false;
            if q as usize != pc {
                self.u_row_ent.push((q, v));
            }
        }
        self.u_row_start.push(self.u_row_ent.len());

        // Eliminate the pivot column from every other active row.
        let candidates = std::mem::take(&mut self.col_rows[pc]);
        for &ri in &candidates {
            let ri = ri as usize;
            if !self.row_active[ri] {
                continue;
            }
            let Some(a) = self.entry(ri, pc) else {
                continue; // stale index entry
            };
            let mult = a / pv;
            l_ent.push((ri as u32, mult));
            // rows[ri] ← rows[ri] − mult · pivot_row, merged by column.
            self.spill.clear();
            let old = &self.rows[ri];
            let (mut ia, mut ib) = (0, 0);
            while ia < old.len() || ib < pivot_row.len() {
                let qa = old.get(ia).map_or(u32::MAX, |e| e.0);
                let qb = pivot_row.get(ib).map_or(u32::MAX, |e| e.0);
                if qa == qb {
                    let (av, bv) = (old[ia].1, pivot_row[ib].1);
                    ia += 1;
                    ib += 1;
                    if qa as usize != pc {
                        let x = av - mult * bv;
                        if x.abs() > LU_DROP_TOL {
                            self.spill.push((qa, x));
                        } else {
                            self.col_cnt[qa as usize] -= 1;
                        }
                    }
                } else if qa < qb {
                    self.spill.push(old[ia]);
                    ia += 1;
                } else {
                    let x = -mult * pivot_row[ib].1;
                    ib += 1;
                    if x.abs() > LU_DROP_TOL {
                        // Fill-in: register the row under the new column.
                        self.col_rows[qb as usize].push(ri as u32);
                        self.col_cnt[qb as usize] += 1;
                        self.spill.push((qb, x));
                    }
                }
            }
            std::mem::swap(&mut self.rows[ri], &mut self.spill);
            self.touched.push(ri as u32);
        }
        // Column `pc` is never filled again; keep its list's allocation.
        self.col_rows[pc] = candidates;

        // Every changed count is in a rewritten row or a column of the pivot
        // row, and so is every new singleton or changed singleton value.
        for &ri in &self.touched {
            let row = &self.rows[ri as usize];
            self.rows_by_len.refile(ri as usize, row.len());
            if let [(q, a)] = row[..] {
                self.heap.push(Candidate::new(ri, q, a));
            }
        }
        self.touched.clear();
        for &(q, _) in &pivot_row {
            let q = q as usize;
            if q == pc {
                continue;
            }
            self.cols_by_count.refile(q, self.col_cnt[q] as usize);
            if self.col_cnt[q] != 1 {
                continue;
            }
            self.prune_col_rows(q);
            let lone = self.col_rows[q]
                .iter()
                .find_map(|&i| Some((i, self.entry(i as usize, q)?)));
            let (i, a) = lone.expect("a column counted once has one active entry");
            self.heap.push(Candidate::new(i, q as u32, a));
        }
        self.heap.extend(self.aside.drain(..));
        self.pivot_row = pivot_row;
    }

    /// Recounts the active submatrix and compares it with the incremental
    /// column counts, the count lists and the cached column maxima.
    fn counts_match_recount(&self) -> bool {
        let m = self.rows.len();
        let mut cnt = vec![0u32; m];
        let mut max = vec![0.0f64; m];
        for i in (0..m).filter(|&i| self.row_active[i]) {
            for &(q, a) in &self.rows[i] {
                cnt[q as usize] += 1;
                if a.abs() > max[q as usize] {
                    max[q as usize] = a.abs();
                }
            }
        }
        let rows_filed = (0..m)
            .all(|i| self.rows_by_len.filed(i) == self.row_active[i].then(|| self.rows[i].len()));
        let cols_filed = (0..m)
            .all(|q| self.cols_by_count.filed(q) == self.col_active[q].then(|| cnt[q] as usize));
        rows_filed
            && cols_filed
            && (0..m).filter(|&q| self.col_active[q]).all(|q| {
                cnt[q] == self.col_cnt[q]
                    && (!self.col_max_ok[q] || max[q].to_bits() == self.col_max[q].to_bits())
            })
    }

    /// Moves `fac`'s `L` from original row indices into pivot coordinates
    /// and builds its column-wise `U` from the recorded rows.
    fn remap(&mut self, fac: &mut LuFactor) {
        let m = fac.m;
        self.pos_of_row.clear();
        self.pos_of_row.resize(m, 0);
        self.pos_of_col.clear();
        self.pos_of_col.resize(m, 0);
        for k in 0..m {
            self.pos_of_row[fac.row_of[k] as usize] = k as u32;
            self.pos_of_col[fac.col_of[k] as usize] = k as u32;
        }
        for e in &mut fac.l_ent {
            e.0 = self.pos_of_row[e.0 as usize];
        }
        debug_assert!((0..m).all(|k| fac.l_col(k).iter().all(|&(i, _)| i as usize > k)));
        // Scattering U's rows in pivot order leaves each column sorted by
        // row.
        let mut start = vec![0usize; m + 1];
        for &(q, _) in &self.u_row_ent {
            start[self.pos_of_col[q as usize] as usize + 1] += 1;
        }
        for k in 0..m {
            start[k + 1] += start[k];
        }
        let mut next = start[..m].to_vec();
        let mut ent = vec![(0u32, 0.0f64); self.u_row_ent.len()];
        for k in 0..m {
            let row = &self.u_row_ent[self.u_row_start[k]..self.u_row_start[k + 1]];
            for &(q, v) in row {
                let qc = self.pos_of_col[q as usize] as usize;
                debug_assert!(qc > k);
                ent[next[qc]] = (k as u32, v);
                next[qc] += 1;
            }
        }
        fac.u_start = start;
        fac.u_ent = ent;
    }
}

/// One product-form update: basis position `r` was replaced by a column
/// whose transformed image was `v = B⁻¹ a`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    r: u32,
    /// `1 / v_r`.
    inv_piv: f64,
    /// This eta's span of [`EtaFile::entries`].
    start: usize,
    end: usize,
}

/// Bounded product-form eta file layered on top of an [`LuFactor`].
///
/// The off-pivot entries of all etas sit back to back in one array, so a
/// clone is two flat copies however many etas are stacked.
#[derive(Debug, Clone, Default)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
    /// `(i, v_i)` for `i ≠ r` with `|v_i|` above the skip tolerance, per
    /// eta in push order.
    entries: Vec<(u32, f64)>,
}

impl EtaFile {
    pub(crate) fn clear(&mut self) {
        self.etas.clear();
        self.entries.clear();
    }

    /// Number of eta updates currently stacked on the base factor.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by the unit tests
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// Total stored off-pivot entries across all etas — the FTRAN/BTRAN
    /// surcharge per solve, and the quantity the refactorization cadence
    /// bounds.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Records the pivot `(r, v)`; `v` is the dense transformed column.
    pub(crate) fn push(&mut self, r: usize, v: &[f64]) {
        let start = self.entries.len();
        self.entries.extend(
            v.iter()
                .enumerate()
                .filter(|&(i, &x)| i != r && x.abs() > ELIM_SKIP_TOL)
                .map(|(i, &x)| (i as u32, x)),
        );
        self.etas.push(Eta {
            r: r as u32,
            inv_piv: 1.0 / v[r],
            start,
            end: self.entries.len(),
        });
    }

    /// Applies the eta inverses in chronological order (FTRAN tail):
    /// `z ← E_k⁻¹ ⋯ E_1⁻¹ z`, all in basis-position coordinates.
    pub(crate) fn ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            let zr = z[eta.r as usize] * eta.inv_piv;
            z[eta.r as usize] = zr;
            if zr != 0.0 {
                for &(i, v) in &self.entries[eta.start..eta.end] {
                    z[i as usize] -= v * zr;
                }
            }
        }
    }

    /// Applies the transposed eta inverses in reverse order (BTRAN head):
    /// `y ← E_1⁻ᵀ ⋯ E_k⁻ᵀ y`, all in basis-position coordinates.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = y[eta.r as usize];
            for &(i, v) in &self.entries[eta.start..eta.end] {
                s -= v * y[i as usize];
            }
            y[eta.r as usize] = s * eta.inv_piv;
        }
    }
}

/// The complete sparse basis representation: base LU factor + eta file +
/// scratch storage, exposing exactly the operations the simplex loops need.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseBasis {
    m: usize,
    /// Shared by every clone until the next refactorization replaces it.
    lu: Arc<LuFactor>,
    etas: EtaFile,
    /// Pivot-coordinate scratch for the triangular solves.
    work: Vec<f64>,
    /// Original-row-coordinate scratch for gathers.
    rhs: Vec<f64>,
    /// Elimination scratch reused by every refactorization.
    lu_ws: LuWorkspace,
}

impl SparseBasis {
    /// Fresh identity basis of dimension `m` (the initial slack basis).
    pub(crate) fn identity(m: usize) -> Self {
        let ones = vec![1.0; m];
        SparseBasis {
            m,
            lu: Arc::new(LuFactor::diagonal(&ones)),
            etas: EtaFile::default(),
            work: vec![0.0; m],
            rhs: vec![0.0; m],
            lu_ws: LuWorkspace::default(),
        }
    }

    /// Resets to the identity basis of dimension `m`, reusing the scratch
    /// allocations where possible.
    pub(crate) fn reset_identity(&mut self, m: usize) {
        let ones = vec![1.0; m];
        self.m = m;
        self.lu = Arc::new(LuFactor::diagonal(&ones));
        self.etas.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
    }

    /// Phase-1 hook: replace the `i`-th diagonal of the (still diagonal)
    /// factor with the sign of an installed artificial column.
    pub(crate) fn set_diag_sign(&mut self, i: usize, sign: f64) {
        Arc::make_mut(&mut self.lu).set_diag(i, sign);
    }

    /// The factor and eta file that represent the current basis, for
    /// [`SparseBasis::install`] elsewhere: `L`/`U` are shared, the etas
    /// copied.
    pub(crate) fn factor_state(&self) -> (Arc<LuFactor>, EtaFile) {
        (Arc::clone(&self.lu), self.etas.clone())
    }

    /// Adopts a factor and eta file captured by
    /// [`SparseBasis::factor_state`] in place of a refactorization.
    pub(crate) fn install(&mut self, lu: &Arc<LuFactor>, etas: &EtaFile) {
        let m = lu.dim();
        self.m = m;
        self.lu = Arc::clone(lu);
        self.etas.clone_from(etas);
        self.work.resize(m, 0.0);
        self.rhs.resize(m, 0.0);
    }

    #[cfg_attr(not(test), allow(dead_code))] // exercised by the unit tests
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    pub(crate) fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// FTRAN of a sparse column: `out = B⁻¹ a` (basis-position coords).
    pub(crate) fn ftran_col(&mut self, entries: &[(u32, f64)], out: &mut [f64]) {
        self.rhs.iter_mut().for_each(|x| *x = 0.0);
        for &(i, a) in entries {
            self.rhs[i as usize] += a;
        }
        self.lu.ftran(&self.rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// FTRAN of a dense right-hand side in original row coordinates.
    pub(crate) fn ftran_rhs(&mut self, rhs: &[f64], out: &mut [f64]) {
        self.lu.ftran(rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// BTRAN: `out = B⁻ᵀ c` where `c` is indexed by basis position (consumed
    /// as scratch) and `out` by original constraint row.
    pub(crate) fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        self.etas.btran(c);
        self.lu.btran(c, &mut self.work, out);
    }

    /// Absorbs a pivot at basis position `r` with transformed column `v` as
    /// an eta update.
    pub(crate) fn push_eta(&mut self, r: usize, v: &[f64]) {
        self.etas.push(r, v);
    }

    /// Refactorizes from the column oracle. On success the eta file is
    /// cleared; on a singular basis the previous factor (including etas) is
    /// kept so the caller can continue exactly like the dense path does when
    /// its Gauss-Jordan rebuild bails.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> bool {
        match LuFactor::factor_in(&mut self.lu_ws, m, col) {
            Ok(lu) => {
                self.m = m;
                self.lu = Arc::new(lu);
                self.etas.clear();
                self.work.resize(m, 0.0);
                self.rhs.resize(m, 0.0);
                true
            }
            Err(Singular) => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full-sweep factorization this module used before singleton
    /// heaps and cached column maxima, kept verbatim as the differential
    /// oracle: every step recounts the whole active submatrix.
    mod reference {
        use crate::factor::Singular;
        use crate::tol::{LU_DROP_TOL, LU_PIVOT_REL, SINGULAR_TOL};

        /// The factors in their former nested layout.
        pub(crate) struct LuFactor {
            pub(crate) m: usize,
            pub(crate) row_of: Vec<u32>,
            pub(crate) col_of: Vec<u32>,
            pub(crate) l_cols: Vec<Vec<(u32, f64)>>,
            pub(crate) u_cols: Vec<Vec<(u32, f64)>>,
            pub(crate) u_diag: Vec<f64>,
        }

        impl LuFactor {
            /// Factorizes an `m × m` basis given by a column oracle: `col(q, f)`
            /// must call `f(row, value)` for every nonzero of the basis column at
            /// position `q`. Markowitz pivot selection — minimize
            /// `(row_count − 1)(col_count − 1)` over entries passing the relative
            /// threshold `|a| ≥ LU_PIVOT_REL · max|column|` — with ties broken
            /// toward larger magnitude.
            #[allow(clippy::needless_range_loop)] // pivot steps index parallel arrays
            pub(crate) fn factor(
                m: usize,
                col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
            ) -> Result<Self, Singular> {
                // Active-submatrix rows, sorted by column position. The invariant
                // maintained below: active rows only ever contain unpivoted columns,
                // so `rows[i].len()` is the live Markowitz row count.
                let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
                for q in 0..m {
                    col(q, &mut |i, a| {
                        if a != 0.0 {
                            rows[i].push((q as u32, a));
                        }
                    });
                }
                for r in rows.iter_mut() {
                    r.sort_unstable_by_key(|&(q, _)| q);
                }
                // Rows known to contain each column; entries can go stale after
                // elimination and are re-checked (lazy deletion).
                let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
                for (i, r) in rows.iter().enumerate() {
                    for &(q, _) in r {
                        col_rows[q as usize].push(i as u32);
                    }
                }
                let mut row_active = vec![true; m];
                let mut col_active = vec![true; m];
                let mut col_max = vec![0.0f64; m];
                let mut col_cnt = vec![0u32; m];

                let mut fac = LuFactor {
                    m,
                    row_of: Vec::with_capacity(m),
                    col_of: Vec::with_capacity(m),
                    l_cols: vec![Vec::new(); m],
                    u_cols: vec![Vec::new(); m],
                    u_diag: vec![0.0; m],
                };
                // L and U are recorded in original coordinates during elimination
                // and remapped to pivot coordinates once the full orders are known.
                let mut l_tmp: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
                let mut u_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
                let mut spill: Vec<(u32, f64)> = Vec::new();

                for step in 0..m {
                    // One sweep over the active submatrix recovers the exact column
                    // maxima and counts (cheaper and safer than maintaining them
                    // incrementally under drop tolerances).
                    col_max.iter_mut().for_each(|x| *x = 0.0);
                    col_cnt.iter_mut().for_each(|x| *x = 0);
                    for (i, row) in rows.iter().enumerate() {
                        if !row_active[i] {
                            continue;
                        }
                        for &(q, a) in row {
                            let q = q as usize;
                            col_cnt[q] += 1;
                            if a.abs() > col_max[q] {
                                col_max[q] = a.abs();
                            }
                        }
                    }
                    // Markowitz selection over threshold-eligible entries.
                    let mut best: Option<(usize, usize, f64, u64)> = None; // (row, col, val, score)
                    for (i, row) in rows.iter().enumerate() {
                        if !row_active[i] {
                            continue;
                        }
                        let rdeg = row.len() as u64;
                        for &(q, a) in row {
                            let q = q as usize;
                            if a.abs() < SINGULAR_TOL || a.abs() < LU_PIVOT_REL * col_max[q] {
                                continue;
                            }
                            let score = (rdeg - 1) * (col_cnt[q] as u64 - 1);
                            let better = match best {
                                None => true,
                                Some((_, _, bv, bs)) => {
                                    score < bs || (score == bs && a.abs() > bv.abs())
                                }
                            };
                            if better {
                                best = Some((i, q, a, score));
                            }
                        }
                    }
                    let Some((pr, pc, pv, _)) = best else {
                        return Err(Singular);
                    };
                    fac.row_of.push(pr as u32);
                    fac.col_of.push(pc as u32);
                    fac.u_diag[step] = pv;
                    row_active[pr] = false;
                    col_active[pc] = false;

                    // The pivot row (minus the pivot entry) becomes row `step` of U.
                    let pivot_row = std::mem::take(&mut rows[pr]);
                    u_rows[step] = pivot_row
                        .iter()
                        .filter(|&&(q, _)| q as usize != pc)
                        .copied()
                        .collect();

                    // Eliminate the pivot column from every other active row.
                    let candidates = std::mem::take(&mut col_rows[pc]);
                    for &ri in &candidates {
                        let ri = ri as usize;
                        if !row_active[ri] {
                            continue;
                        }
                        let Ok(pos) = rows[ri].binary_search_by_key(&(pc as u32), |&(q, _)| q)
                        else {
                            continue; // stale index entry
                        };
                        let mult = rows[ri][pos].1 / pv;
                        l_tmp[step].push((ri as u32, mult));
                        // rows[ri] ← rows[ri] − mult · pivot_row, merged by column.
                        spill.clear();
                        let old = &rows[ri];
                        let mut a_it = old.iter().copied().peekable();
                        let mut b_it = pivot_row.iter().copied().peekable();
                        while a_it.peek().is_some() || b_it.peek().is_some() {
                            let take_a = match (a_it.peek(), b_it.peek()) {
                                (Some(&(qa, _)), Some(&(qb, _))) => {
                                    if qa == qb {
                                        let (q, av) = a_it.next().unwrap();
                                        let (_, bv) = b_it.next().unwrap();
                                        if q as usize != pc {
                                            let x = av - mult * bv;
                                            if x.abs() > LU_DROP_TOL {
                                                spill.push((q, x));
                                            }
                                        }
                                        continue;
                                    }
                                    qa < qb
                                }
                                (Some(_), None) => true,
                                (None, Some(_)) => false,
                                (None, None) => unreachable!(),
                            };
                            if take_a {
                                let (q, av) = a_it.next().unwrap();
                                if q as usize != pc {
                                    spill.push((q, av));
                                }
                            } else {
                                let (q, bv) = b_it.next().unwrap();
                                if q as usize != pc {
                                    let x = -mult * bv;
                                    if x.abs() > LU_DROP_TOL {
                                        // Fill-in: register the row under the new column.
                                        col_rows[q as usize].push(ri as u32);
                                        spill.push((q, x));
                                    }
                                }
                            }
                        }
                        rows[ri].clear();
                        rows[ri].extend_from_slice(&spill);
                    }
                }
                debug_assert!(col_active.iter().all(|&a| !a));

                // Remap L and U from original coordinates into pivot coordinates.
                let mut pos_of_row = vec![0u32; m];
                let mut pos_of_col = vec![0u32; m];
                for k in 0..m {
                    pos_of_row[fac.row_of[k] as usize] = k as u32;
                    pos_of_col[fac.col_of[k] as usize] = k as u32;
                }
                for k in 0..m {
                    let col: Vec<(u32, f64)> = l_tmp[k]
                        .iter()
                        .map(|&(ri, v)| (pos_of_row[ri as usize], v))
                        .collect();
                    debug_assert!(col.iter().all(|&(i, _)| i as usize > k));
                    fac.l_cols[k] = col;
                    // U row `k` scatters into the columns of its entries.
                    for &(q, v) in &u_rows[k] {
                        let qc = pos_of_col[q as usize] as usize;
                        debug_assert!(qc > k);
                        fac.u_cols[qc].push((k as u32, v));
                    }
                }
                for c in fac.u_cols.iter_mut() {
                    c.sort_unstable_by_key(|&(i, _)| i);
                }
                Ok(fac)
            }
        }
    }

    /// Dense reference: `cols[q]` is the dense basis column at position `q`.
    fn dense_cols(cols: &[Vec<f64>]) -> impl Fn(usize, &mut dyn FnMut(usize, f64)) + '_ {
        move |q, f| {
            for (i, &a) in cols[q].iter().enumerate() {
                if a != 0.0 {
                    f(i, a);
                }
            }
        }
    }

    fn mat_vec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (q, col) in cols.iter().enumerate() {
            for (i, &a) in col.iter().enumerate() {
                out[i] += a * x[q];
            }
        }
        out
    }

    fn mat_t_vec(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().zip(y).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn check_solves(cols: &[Vec<f64>]) {
        let m = cols.len();
        let fac = LuFactor::factor(m, dense_cols(cols)).expect("nonsingular");
        let mut work = vec![0.0; m];
        let mut out = vec![0.0; m];
        // FTRAN: B x = e_i for each i.
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            fac.ftran(&rhs, &mut work, &mut out);
            let back = mat_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == i { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "ftran col {i} row {k}: {b}");
            }
        }
        // BTRAN: Bᵀ y = e_q for each q.
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            fac.btran(&c, &mut work, &mut out);
            let back = mat_t_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == q { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "btran col {q} pos {k}: {b}");
            }
        }
    }

    #[test]
    fn factors_identity() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        check_solves(&cols);
    }

    #[test]
    fn factors_permuted_signed_diagonal() {
        let cols = vec![
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![1.0, 0.0, 0.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_dense_3x3() {
        let cols = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_zero_one_structured() {
        // The shape the structured formulation produces: 0-1 rows with a
        // handful of entries, including duplicated-pattern columns that
        // force genuine elimination.
        let cols = vec![
            vec![1.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 1.0],
        ];
        // This circulant is nonsingular for odd m.
        check_solves(&cols);
    }

    #[test]
    fn rejects_singular_matrix() {
        let cols = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(LuFactor::factor(2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn rejects_zero_column() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        assert!(LuFactor::factor(2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn eta_updates_track_basis_change() {
        // Start from B0 = I, replace column 1 with a = (1, 2, 1)ᵀ, then
        // column 0 with a' = (3, 0, 1)ᵀ; compare eta-updated solves against
        // a direct factorization of the final basis.
        let m = 3;
        let mut sb = SparseBasis::identity(m);
        let a1 = [(0u32, 1.0), (1u32, 2.0), (2u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a1, &mut v);
        sb.push_eta(1, &v);
        let a0 = [(0u32, 3.0), (2u32, 1.0)];
        sb.ftran_col(&a0, &mut v);
        sb.push_eta(0, &v);

        let final_cols = vec![
            vec![3.0, 0.0, 1.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ];
        let direct = LuFactor::factor(m, dense_cols(&final_cols)).unwrap();
        let mut work = vec![0.0; m];
        let mut want = vec![0.0; m];
        let mut got = vec![0.0; m];
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            direct.ftran(&rhs, &mut work, &mut want);
            sb.ftran_rhs(&rhs, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "ftran {i}/{k}");
            }
        }
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            direct.btran(&c, &mut work, &mut want);
            let mut c2 = vec![0.0; m];
            c2[q] = 1.0;
            sb.btran(&mut c2, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "btran {q}/{k}");
            }
        }
        assert_eq!(sb.eta_count(), 2);
        assert!(sb.eta_nnz() > 0);
    }

    #[test]
    fn refactor_clears_eta_file_and_keeps_old_factor_on_singular() {
        let m = 2;
        let mut sb = SparseBasis::identity(m);
        let a = [(0u32, 2.0), (1u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a, &mut v);
        sb.push_eta(0, &v);
        assert_eq!(sb.eta_count(), 1);

        // Singular refactor target: factor must refuse and keep the etas.
        let singular = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(!sb.refactor(m, dense_cols(&singular)));
        assert_eq!(sb.eta_count(), 1);

        // A good refactor clears them.
        let good = vec![vec![2.0, 1.0], vec![0.0, 1.0]];
        assert!(sb.refactor(m, dense_cols(&good)));
        assert_eq!(sb.eta_count(), 0);
        assert_eq!(sb.eta_nnz(), 0);
    }

    #[test]
    fn markowitz_keeps_arrow_matrix_sparse() {
        // Arrow matrix: dense first row and column + diagonal. Eliminating
        // the dense corner first would fill the whole matrix; Markowitz
        // must pick diagonal pivots and keep L/U linear-sized.
        let m = 20;
        let mut cols = vec![vec![0.0; m]; m];
        for (q, col) in cols.iter_mut().enumerate() {
            col[q] = 4.0;
            col[0] = 1.0;
        }
        for v in cols[0].iter_mut() {
            *v = 1.0;
        }
        cols[0][0] = 4.0;
        let fac = LuFactor::factor(m, dense_cols(&cols)).expect("nonsingular");
        let (l_nnz, u_nnz) = (fac.l_ent.len(), fac.u_ent.len());
        // A fill-free arrow factorization has m−1 entries in each factor.
        assert!(
            l_nnz <= 2 * m && u_nnz <= 2 * m,
            "fill-in exploded: L {l_nnz}, U {u_nnz}"
        );
        check_solves(&cols);
    }

    /// Bitwise view of a factor column, so `-0.0` vs `0.0` or a last-bit
    /// difference counts as a mismatch.
    fn bits(entries: &[(u32, f64)]) -> Vec<(u32, u64)> {
        entries.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// Factors one basis with [`LuFactor::factor`] and the verbatim
    /// full-sweep reference. Both must agree bit for bit on the pivot
    /// orders, `L`, `U` and the diagonal, or both report [`Singular`].
    /// Returns whether the basis factored.
    pub(crate) fn same_as_reference(
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<bool, String> {
        match (
            LuFactor::factor(m, &col),
            reference::LuFactor::factor(m, &col),
        ) {
            (Ok(new), Ok(old)) => {
                if (new.m, &new.row_of, &new.col_of) != (old.m, &old.row_of, &old.col_of) {
                    return Err(format!(
                        "pivot orders differ: rows {:?} vs {:?}, cols {:?} vs {:?}",
                        new.row_of, old.row_of, new.col_of, old.col_of
                    ));
                }
                for k in 0..m {
                    if bits(new.l_col(k)) != bits(&old.l_cols[k]) {
                        return Err(format!("L column {k} differs"));
                    }
                    if bits(new.u_col(k)) != bits(&old.u_cols[k]) {
                        return Err(format!("U column {k} differs"));
                    }
                    if new.u_diag[k].to_bits() != old.u_diag[k].to_bits() {
                        return Err(format!("U diagonal {k} differs"));
                    }
                }
                Ok(true)
            }
            (Err(Singular), Err(Singular)) => Ok(false),
            (new, old) => Err(format!(
                "verdicts differ: factored {} vs reference {}",
                new.is_ok(),
                old.is_ok()
            )),
        }
    }

    /// A generated basis: `cols[q]` lists `(row, value)` of column `q`,
    /// each row at most once.
    type Cols = Vec<Vec<(usize, f64)>>;

    fn sparse_cols(cols: &Cols) -> impl Fn(usize, &mut dyn FnMut(usize, f64)) + '_ {
        move |q, f| {
            for &(i, a) in &cols[q] {
                f(i, a);
            }
        }
    }

    fn from_dense(dense: &[Vec<f64>]) -> Cols {
        let m = dense.len();
        (0..m)
            .map(|q| {
                (0..m)
                    .filter(|&i| dense[i][q] != 0.0)
                    .map(|i| (i, dense[i][q]))
                    .collect()
            })
            .collect()
    }

    fn sign(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.5) {
            1.0
        } else {
            -1.0
        }
    }

    /// A random permutation, so generated bases carry a transversal.
    fn permutation(m: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut p: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
        p
    }

    /// ±1 columns shaped like simplex bases of the structured formulation:
    /// a share of slack-like unit columns, the rest 2–5 entries, all over a
    /// permuted diagonal.
    fn pm1_basis(m: usize, rng: &mut StdRng) -> Cols {
        let slack = rng.gen_range(0.2..0.9);
        let perm = permutation(m, rng);
        let mut dense = vec![vec![0.0; m]; m];
        for q in 0..m {
            if !rng.gen_bool(slack) {
                for _ in 0..rng.gen_range(1..=4usize) {
                    dense[rng.gen_range(0..m)][q] = sign(rng);
                }
            }
            dense[perm[q]][q] = sign(rng);
        }
        from_dense(&dense)
    }

    /// Small-integer rows built as combinations of a few base rows plus one
    /// entry of their own on a permuted diagonal, so elimination cancels entries exactly, drops
    /// them, and fills some of them back in later.
    fn cancelling_basis(m: usize, rng: &mut StdRng) -> Cols {
        let perm = permutation(m, rng);
        let density = rng.gen_range(1.0..6.0) / m as f64;
        let base: Vec<Vec<f64>> = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                (0..m)
                    .map(|_| {
                        if rng.gen_bool(density.min(1.0)) {
                            rng.gen_range(-2i32..=2) as f64
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let dense: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                let (a, b) = (rng.gen_range(0..base.len()), rng.gen_range(0..base.len()));
                let (ca, cb) = (
                    rng.gen_range(-2i32..=2) as f64,
                    rng.gen_range(-1i32..=1) as f64,
                );
                let mut row: Vec<f64> = (0..m).map(|q| ca * base[a][q] + cb * base[b][q]).collect();
                row[perm[i]] += rng.gen_range(1i32..=3) as f64;
                row
            })
            .collect();
        from_dense(&dense)
    }

    /// A diagonally weighted random basis in which a few rows keep only a
    /// small diagonal entry under a column holding an entry ≥ 1 elsewhere:
    /// row singletons that fail the `LU_PIVOT_REL` threshold until
    /// elimination shrinks their column.
    fn weak_singleton_basis(m: usize, rng: &mut StdRng) -> Cols {
        let mut dense = vec![vec![0.0; m]; m];
        for (i, row) in dense.iter_mut().enumerate() {
            for _ in 0..rng.gen_range(0..=3usize) {
                row[rng.gen_range(0..m)] = rng.gen_range(1.0..3.0) * sign(rng);
            }
            row[i] = rng.gen_range(1.0..4.0);
        }
        for _ in 0..rng.gen_range(1..=(m / 4).max(1)) {
            let (r, other) = (rng.gen_range(0..m), rng.gen_range(0..m));
            dense[r] = vec![0.0; m];
            dense[r][r] = rng.gen_range(0.001..0.09) * sign(rng);
            if other != r {
                dense[other][r] = rng.gen_range(1.0..3.0);
            }
        }
        from_dense(&dense)
    }

    /// A ±1 basis with entries below `SINGULAR_TOL` scattered in, some of
    /// them between `LU_DROP_TOL` and `SINGULAR_TOL` (kept, never pivots),
    /// and now and then a column made of them alone.
    fn tiny_entry_basis(m: usize, rng: &mut StdRng) -> Cols {
        let mut cols = pm1_basis(m, rng);
        for _ in 0..rng.gen_range(1..=m) {
            let (i, q) = (rng.gen_range(0..m), rng.gen_range(0..m));
            let tiny = rng.gen_range(1e-15..5e-12) * sign(rng);
            if !cols[q].iter().any(|&(r, _)| r == i) {
                cols[q].push((i, tiny));
            }
        }
        if rng.gen_bool(0.2) {
            let q = rng.gen_range(0..m);
            cols[q] = vec![(rng.gen_range(0..m), 5e-13)];
        }
        cols
    }

    /// A basis made singular by a zero column, a column equal to an integer
    /// multiple of another, or a row equal to the sum of two others.
    fn singular_basis(m: usize, rng: &mut StdRng) -> Cols {
        let mut cols = if rng.gen_bool(0.5) {
            pm1_basis(m, rng)
        } else {
            cancelling_basis(m, rng)
        };
        let (p, q) = (rng.gen_range(0..m), rng.gen_range(0..m));
        match rng.gen_range(0..3u32) {
            0 => cols[q].clear(),
            1 if p != q => {
                let k = rng.gen_range(-3i32..=3) as f64;
                cols[q] = cols[p].iter().map(|&(i, a)| (i, k * a)).collect();
                cols[q].retain(|&(_, a)| a != 0.0);
            }
            _ => {
                let r = rng.gen_range(0..m);
                let mut dense = vec![vec![0.0; m]; m];
                for (c, col) in cols.iter().enumerate() {
                    for &(i, a) in col {
                        dense[i][c] = a;
                    }
                }
                dense[r] = (0..m).map(|c| dense[p][c] + dense[q][c]).collect();
                cols = from_dense(&dense);
            }
        }
        cols
    }

    fn check_generated(
        m: usize,
        seed: u64,
        gen: fn(usize, &mut StdRng) -> Cols,
    ) -> Result<bool, String> {
        let cols = gen(m, &mut StdRng::seed_from_u64(seed));
        same_as_reference(m, sparse_cols(&cols))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_reference_on_pm1_bases(m in 1usize..=200, seed in 0u64..u64::MAX) {
            check_generated(m, seed, pm1_basis)?;
        }

        #[test]
        fn matches_reference_with_exact_cancellation(m in 1usize..=200, seed in 0u64..u64::MAX) {
            check_generated(m, seed, cancelling_basis)?;
        }

        #[test]
        fn matches_reference_with_weak_row_singletons(m in 1usize..=200, seed in 0u64..u64::MAX) {
            check_generated(m, seed, weak_singleton_basis)?;
        }

        #[test]
        fn matches_reference_with_tiny_entries(m in 1usize..=200, seed in 0u64..u64::MAX) {
            check_generated(m, seed, tiny_entry_basis)?;
        }

        #[test]
        fn matches_reference_on_singular_bases(m in 2usize..=200, seed in 0u64..u64::MAX) {
            check_generated(m, seed, singular_basis)?;
        }
    }

    #[test]
    fn workspace_reuse_across_sizes_matches_fresh() {
        // One workspace through shrinking and growing bases, singular ones
        // included, must give what a fresh workspace gives.
        let mut ws = LuWorkspace::default();
        let mut rng = StdRng::seed_from_u64(7);
        for &m in &[60usize, 5, 120, 1, 60, 200, 33] {
            let cols = if m % 2 == 0 {
                cancelling_basis(m, &mut rng)
            } else {
                singular_basis(m.max(2), &mut rng)
            };
            let m = cols.len();
            let reused = LuFactor::factor_in(&mut ws, m, sparse_cols(&cols));
            let fresh = LuFactor::factor(m, sparse_cols(&cols));
            match (reused, fresh) {
                (Ok(a), Ok(b)) => {
                    assert_eq!((&a.row_of, &a.col_of), (&b.row_of, &b.col_of));
                    assert_eq!(bits(&a.l_ent), bits(&b.l_ent));
                    assert_eq!(bits(&a.u_ent), bits(&b.u_ent));
                    assert_eq!((&a.l_start, &a.u_start), (&b.l_start, &b.u_start));
                }
                (Err(Singular), Err(Singular)) => {}
                _ => panic!("reused workspace changed the verdict at m = {m}"),
            }
        }
    }
}
