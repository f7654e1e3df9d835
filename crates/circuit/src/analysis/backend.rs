//! The linear-algebra backend under every Newton solve: a dense LU
//! workspace or a sparse LU over a cached symbolic analysis, behind one
//! enum, plus the one clamped Newton update loop that DC and transient
//! share.
//!
//! Both variants stamp through the same
//! [`StampTarget`](crate::stamp::StampTarget) formulas, so the sparse
//! system cannot drift from the dense one; only the factorization (partial
//! pivoting vs. a fill-reducing structural order) differs.

use std::sync::Arc;

use crate::netlist::Netlist;
use crate::stamp::{
    build_system, stamp_linear_matrix, stamp_linear_rhs, transient_stamp_pattern, Mode,
    SparseStamper,
};
use crate::{CircuitError, Result};
use lcosc_num::linalg::{LuFactors, Matrix};
use lcosc_num::sparse::{SparseLu, SparseMatrix, SparseSymbolic};

/// Reusable scratch buffers for a dense Newton solve: the stamped system,
/// the in-place LU factorization and the solve target.
///
/// The transient loops keep one workspace alive for the whole run, so
/// stepping performs no heap allocation after the first step; DC creates
/// one per solve.
pub(crate) struct NewtonWorkspace {
    /// Stamped MNA matrix `A`.
    a: Matrix,
    /// Stamped right-hand side `b`.
    b: Vec<f64>,
    /// Solution of `A·xn = b` for the current iteration.
    xn: Vec<f64>,
    /// In-place LU factorization of `a`.
    lu: LuFactors,
}

impl NewtonWorkspace {
    /// Allocates buffers for an `n`-unknown system (4 heap allocations).
    /// The matrix is kept at least 1×1 (`Matrix` rejects zero dimensions);
    /// an `n == 0` workspace is never factored.
    fn new(n: usize) -> Self {
        NewtonWorkspace {
            a: Matrix::zeros(n.max(1), n.max(1)),
            b: vec![0.0; n],
            xn: vec![0.0; n],
            lu: LuFactors::with_dim(n),
        }
    }
}

/// Persistent buffers for the sparse backend: the pattern-fixed matrix,
/// the numeric factorization (holding the shared symbolic analysis), RHS,
/// solution and substitution scratch. Sized once; stepping is
/// allocation-free.
pub(crate) struct SparseWorkspace {
    a: SparseMatrix,
    lu: SparseLu,
    b: Vec<f64>,
    xn: Vec<f64>,
    y: Vec<f64>,
}

impl SparseWorkspace {
    fn new(a: SparseMatrix, sym: Arc<SparseSymbolic>) -> Self {
        let n = a.dim();
        SparseWorkspace {
            a,
            lu: SparseLu::new(sym),
            b: vec![0.0; n],
            xn: vec![0.0; n],
            y: vec![0.0; n],
        }
    }

    /// Factors the stamped matrix, turning a stamp outside the pattern
    /// into a typed error.
    fn factor(&mut self, missed: bool, at: f64) -> Result<()> {
        if missed {
            return Err(CircuitError::InvalidInput("sparse pattern missed a stamp"));
        }
        self.lu
            .factor_into(&self.a)
            .map_err(|_| CircuitError::Singular { at })
    }

    fn solve(&mut self, at: f64) -> Result<()> {
        self.lu
            .solve_with(&self.b, &mut self.xn, &mut self.y)
            .map_err(|_| CircuitError::Singular { at })
    }
}

/// The linear solver under a Newton solve.
pub(crate) enum LinearBackend {
    /// Dense MNA matrix with partial-pivoting LU.
    Dense(NewtonWorkspace),
    /// Pattern-fixed CSC matrix with a sparse LU over the symbolic
    /// analysis cached for the netlist's structure.
    Sparse(SparseWorkspace),
}

impl LinearBackend {
    /// A dense backend for an `n`-unknown system.
    pub(crate) fn dense(n: usize) -> Self {
        LinearBackend::Dense(NewtonWorkspace::new(n))
    }

    /// A sparse backend over the transient stamp pattern of `nl`. The
    /// symbolic analysis comes from the process-wide cache; `true` in the
    /// second slot means it was a cache hit.
    pub(crate) fn sparse(nl: &Netlist) -> Result<(Self, bool)> {
        let pattern = transient_stamp_pattern(nl);
        let a = SparseMatrix::from_pattern(nl.unknown_count(), &pattern)
            .map_err(|_| CircuitError::InvalidInput("sparse pattern construction failed"))?;
        let (sym, reused) = cached_symbolic(nl, &a)?;
        Ok((LinearBackend::Sparse(SparseWorkspace::new(a, sym)), reused))
    }

    /// A fresh backend of the same kind and size, sharing the symbolic
    /// analysis, for a second integrator member with its own factors.
    pub(crate) fn twin(&self) -> Self {
        match self {
            LinearBackend::Dense(ws) => LinearBackend::dense(ws.b.len()),
            LinearBackend::Sparse(sws) => LinearBackend::Sparse(SparseWorkspace::new(
                sws.a.clone(),
                Arc::clone(sws.lu.symbolic()),
            )),
        }
    }

    /// Heap allocations the backend's buffers took, for the transient
    /// allocation counters.
    pub(crate) fn buffers(&self) -> u64 {
        match self {
            LinearBackend::Dense(_) => 4,  // matrix + rhs + solution + LU storage
            LinearBackend::Sparse(_) => 6, // pattern + matrix + LU values/work + rhs/solution
        }
    }

    /// Whether this is the sparse backend.
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, LinearBackend::Sparse(_))
    }

    /// Stamps the iterate-independent matrix of a linear deck under `mode`
    /// and factors it.
    pub(crate) fn factor_linear(&mut self, nl: &Netlist, mode: &Mode<'_>, at: f64) -> Result<()> {
        match self {
            LinearBackend::Dense(ws) => {
                stamp_linear_matrix(nl, mode, &mut ws.a);
                ws.lu
                    .factor_into(&ws.a)
                    .map_err(|_| CircuitError::Singular { at })
            }
            LinearBackend::Sparse(sws) => {
                let mut target = SparseStamper::new(&mut sws.a);
                stamp_linear_matrix(nl, mode, &mut target);
                let missed = target.missed;
                sws.factor(missed, at)
            }
        }
    }

    /// Stamps the right-hand side of a linear deck under `mode` and solves
    /// it against the current factorization.
    pub(crate) fn solve_linear(&mut self, nl: &Netlist, mode: &Mode<'_>, at: f64) -> Result<()> {
        match self {
            LinearBackend::Dense(ws) => {
                stamp_linear_rhs(nl, mode, &mut ws.b);
                ws.lu
                    .solve_into(&ws.b, &mut ws.xn)
                    .map_err(|_| CircuitError::Singular { at })
            }
            LinearBackend::Sparse(sws) => {
                stamp_linear_rhs(nl, mode, &mut sws.b);
                sws.solve(at)
            }
        }
    }

    /// Stamps the full system linearized at `x`, factors and solves it.
    fn solve_linearized(
        &mut self,
        nl: &Netlist,
        x: &[f64],
        mode: &Mode<'_>,
        at: f64,
    ) -> Result<()> {
        match self {
            LinearBackend::Dense(ws) => {
                build_system(nl, x, mode, &mut ws.a, &mut ws.b);
                if ws.lu.factor_into(&ws.a).is_err() || ws.lu.solve_into(&ws.b, &mut ws.xn).is_err()
                {
                    return Err(CircuitError::Singular { at });
                }
                Ok(())
            }
            LinearBackend::Sparse(sws) => {
                let mut target = SparseStamper::new(&mut sws.a);
                build_system(nl, x, mode, &mut target, &mut sws.b);
                let missed = target.missed;
                sws.factor(missed, at)?;
                sws.solve(at)
            }
        }
    }

    /// The latest solution `xn`.
    fn solution(&self) -> &[f64] {
        match self {
            LinearBackend::Dense(ws) => &ws.xn,
            LinearBackend::Sparse(sws) => &sws.xn,
        }
    }

    /// The one Newton routine: iterates clamped updates of `x` toward the
    /// solution of the system linearized at `x` until the largest
    /// node-voltage move is below `lim.v_tol`, returning the iteration
    /// count (including the converging one).
    ///
    /// With `cached` set, the solution already held by the backend is the
    /// target of every iteration instead of a fresh stamp-factor-solve. On
    /// a linear deck the stamped system never reads `x`, so every
    /// re-solving iteration would obtain that identical solution; only the
    /// clamped update evolves, and replaying it reproduces the re-solving
    /// iterates bit for bit.
    pub(crate) fn newton(
        &mut self,
        nl: &Netlist,
        x: &mut [f64],
        mode: &Mode<'_>,
        lim: &NewtonLimits,
        at: f64,
        cached: bool,
    ) -> Result<u64> {
        if x.is_empty() {
            return Ok(0);
        }
        let nn = nl.node_count() - 1;
        for iter in 1..=lim.max_iter {
            if !cached {
                self.solve_linearized(nl, x, mode, at)?;
            }
            if clamped_update(x, self.solution(), nn, lim, at)? {
                return Ok(iter as u64);
            }
        }
        Err(CircuitError::NoConvergence {
            analysis: lim.analysis,
            at,
        })
    }
}

/// Settings of the clamped Newton update loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonLimits {
    /// Iteration budget.
    pub max_iter: usize,
    /// Convergence tolerance on the largest node-voltage update, volts.
    pub v_tol: f64,
    /// Per-iteration node-voltage step limit, volts (SPICE-style limiting,
    /// which keeps exponential devices stable).
    pub v_step_limit: f64,
    /// Analysis named in a convergence error.
    pub analysis: &'static str,
}

/// One clamped Newton update `x += clamp(xn − x)`: node-voltage moves are
/// limited to `±v_step_limit`, branch currents (index `nn` on) move
/// freely. Returns whether the largest node-voltage move was below
/// `v_tol`.
fn clamped_update(
    x: &mut [f64],
    xn: &[f64],
    nn: usize,
    lim: &NewtonLimits,
    at: f64,
) -> Result<bool> {
    let mut max_delta = 0.0f64;
    for (i, (xi, &xni)) in x.iter_mut().zip(xn).enumerate() {
        let mut delta = xni - *xi;
        if i < nn {
            delta = delta.clamp(-lim.v_step_limit, lim.v_step_limit);
            max_delta = max_delta.max(delta.abs());
        }
        *xi += delta;
    }
    if !x.iter().all(|v| v.is_finite()) {
        return Err(CircuitError::NoConvergence {
            analysis: lim.analysis,
            at,
        });
    }
    Ok(max_delta < lim.v_tol)
}

/// Process-wide symbolic-analysis cache keyed by the netlist's structural
/// digest. The symbolic result is a pure function of the structure, so a
/// cache hit is observationally identical to recomputing — whichever thread
/// populated the entry, factorization results are the same bits.
fn cached_symbolic(nl: &Netlist, a: &SparseMatrix) -> Result<(Arc<SparseSymbolic>, bool)> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<SparseSymbolic>>>> = OnceLock::new();
    let key = nl.structural_digest();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Ok(map) = cache.lock() {
        if let Some(sym) = map.get(&key) {
            // Digest collisions are astronomically unlikely; the dimension
            // check (and the pattern check inside `factor_into`) turn one
            // into a typed error instead of a wrong answer.
            if sym.dim() == a.dim() {
                return Ok((Arc::clone(sym), true));
            }
        }
    }
    let sym = Arc::new(SparseSymbolic::analyze(a).map_err(|_| CircuitError::Singular { at: 0.0 })?);
    if let Ok(mut map) = cache.lock() {
        map.insert(key, Arc::clone(&sym));
    }
    Ok((sym, false))
}
