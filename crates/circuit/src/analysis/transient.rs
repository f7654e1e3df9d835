//! Transient analysis: backward-Euler or trapezoidal integration with a
//! Newton solve at every time step.
//!
//! There is one fixed-grid loop and one LTE-adaptive loop
//! ([`Stepping`]). Both start from the same set-up, call the same step
//! routine and solve through a linear backend built once per run from the
//! resolved [`SolverPath`]:
//!
//! - the **dense** backend keeps one workspace (matrix, RHS, LU factors)
//!   for the whole run;
//! - the **sparse** backend ([`SolverPath::Sparse`]) solves through a CSC
//!   sparse LU whose symbolic analysis (ordering + elimination pattern) is
//!   computed once per netlist structural digest and cached process-wide.
//!   Its elimination order differs from dense partial pivoting, so results
//!   agree with dense to solver tolerance, not bitwise — but the sparse
//!   path itself is a pure function of (pattern, values) and therefore
//!   bit-identical across runs and thread counts.
//!
//! On fully linear decks ([`Netlist::is_linear`]) the step routine takes
//! the **linear shortcut**: it stamps and factors the MNA matrix once per
//! step size and only restamps the right-hand side and substitutes per
//! step, replaying the Newton update against the cached solution. The
//! **reference path** ([`SolverPath::Reference`]) is the dense backend with
//! the shortcut off, refactoring on every Newton iteration; the shortcut
//! is bit-identical to it by construction.
//!
//! [`SolverPath::Auto`] (the default) picks dense below
//! [`SPARSE_MIN_UNKNOWNS`] MNA unknowns and sparse at or above it (linear
//! decks only). See `DESIGN.md` §9 and §13 and the differential suites in
//! `crates/circuit/tests/solver_differential.rs` and
//! `crates/circuit/tests/sparse_differential.rs`.

use crate::analysis::dc::{solve_dc_with, DcOptions};
use crate::analysis::{LinearBackend, NewtonLimits};
use crate::netlist::{ElementId, Netlist, NodeId};
use crate::stamp::{element_current, AbsorbRule, History, Mode};
use crate::{CircuitError, Result};
use lcosc_num::{StepController, StepDecision};

pub use crate::stamp::Integrator;

/// Unknown count at or above which [`SolverPath::Auto`] routes linear decks
/// to the sparse solver. Below it the dense fast path wins (and keeps its
/// bit-identity guarantee vs. the reference path); above it sparse wins by
/// a growing margin — see the crossover table in `BENCH_PR8.json` and
/// README's performance section.
pub const SPARSE_MIN_UNKNOWNS: usize = 64;

/// Which transient solver implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverPath {
    /// Pick the fastest correct path: the dense cached-factorization /
    /// workspace-Newton solver below [`SPARSE_MIN_UNKNOWNS`] unknowns, the
    /// sparse solver at or above it (linear decks only — nonlinear decks
    /// stay dense, where partial pivoting is the safer default).
    #[default]
    Auto,
    /// Force the dense fast path regardless of deck size.
    Dense,
    /// Force the sparse path regardless of deck size. Results agree with
    /// dense to solver tolerance (different elimination order), and are
    /// bit-identical across runs and thread counts.
    Sparse,
    /// The dense backend with the linear shortcut off: a full Newton solve,
    /// refactoring on every iteration, at every step. Kept as the
    /// differential-testing oracle; bit-identical to the dense fast path.
    Reference,
}

/// Time-stepping policy of a transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Stepping {
    /// Fixed `dt` steps — the bit-stable house default. Every recorded
    /// sample sits exactly on the `k·dt` grid.
    #[default]
    Fixed,
    /// Local-truncation-error–controlled adaptive stepping: each internal
    /// step is taken with both the configured integrator (trapezoidal by
    /// default) and backward Euler; the difference between the pair is the
    /// LTE estimate judged by [`lcosc_num::StepController`] (the same
    /// embedded-pair controller behind `rkf45_adaptive`). Accepted states
    /// are interpolated onto the uniform `opts.dt` output grid, so
    /// [`TransientResult`] keeps its fixed-path shape. A failing error
    /// test at `h_min` is a typed [`CircuitError::StepStall`], never a
    /// silent clamp.
    AdaptiveLte {
        /// Per-step LTE tolerance (infinity norm over node voltages).
        tol: f64,
        /// Minimum internal step (must be positive).
        h_min: f64,
        /// Maximum internal step.
        h_max: f64,
    },
}

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Fixed time step in seconds (the output-grid spacing under
    /// [`Stepping::AdaptiveLte`]).
    pub dt: f64,
    /// End time in seconds (simulation runs from 0 to `t_end`).
    pub t_end: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// When `true`, start from element initial conditions instead of a DC
    /// operating point (SPICE "UIC").
    pub use_initial_conditions: bool,
    /// Record every `record_stride`-th step (must be nonzero).
    pub record_stride: usize,
    /// Newton budget per step.
    pub max_iter: usize,
    /// Newton voltage tolerance.
    pub v_tol: f64,
    /// Solver implementation to use.
    pub solver: SolverPath,
    /// Time-stepping policy (fixed grid by default).
    pub stepping: Stepping,
}

impl TransientOptions {
    /// Creates options for a run to `t_end` with step `dt`, trapezoidal
    /// integration, starting from initial conditions.
    ///
    /// # Panics
    ///
    /// Panics unless `dt > 0` and `t_end > dt`.
    pub fn new(dt: f64, t_end: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        assert!(t_end > dt, "t_end must exceed dt");
        TransientOptions {
            dt,
            t_end,
            integrator: Integrator::Trapezoidal,
            use_initial_conditions: true,
            record_stride: 1,
            max_iter: 50,
            v_tol: 1e-9,
            solver: SolverPath::Auto,
            stepping: Stepping::Fixed,
        }
    }

    /// Switches the run to LTE-adaptive stepping with tolerance `tol`,
    /// allowing internal steps between `dt / 64` and `64 · dt`.
    pub fn with_adaptive_lte(mut self, tol: f64) -> Self {
        self.stepping = Stepping::AdaptiveLte {
            tol,
            h_min: self.dt / 64.0,
            h_max: self.dt * 64.0,
        };
        self
    }

    /// Checks the options for values that would panic or loop forever
    /// downstream (non-finite or non-positive `dt`/`t_end`, a zero
    /// `record_stride` or `max_iter`, a useless `v_tol`).
    ///
    /// Called by [`run_transient`]; exposed so callers constructing options
    /// field-by-field can fail early.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient dt must be finite and positive",
            ));
        }
        if !self.t_end.is_finite() || self.t_end <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient t_end must be finite and positive",
            ));
        }
        if self.record_stride == 0 {
            return Err(CircuitError::InvalidInput(
                "transient record_stride must be nonzero",
            ));
        }
        if self.max_iter == 0 {
            return Err(CircuitError::InvalidInput(
                "transient max_iter must be nonzero",
            ));
        }
        if !self.v_tol.is_finite() || self.v_tol <= 0.0 {
            return Err(CircuitError::InvalidInput(
                "transient v_tol must be finite and positive",
            ));
        }
        if let Stepping::AdaptiveLte { tol, h_min, h_max } = self.stepping {
            if self.integrator == Integrator::BackwardEuler {
                return Err(CircuitError::InvalidInput(
                    "adaptive lte stepping needs the trapezoidal integrator (backward Euler is the embedded lower-order member)",
                ));
            }
            if !tol.is_finite() || tol <= 0.0 {
                return Err(CircuitError::InvalidInput(
                    "adaptive lte tol must be finite and positive",
                ));
            }
            if !h_min.is_finite() || h_min <= 0.0 {
                return Err(CircuitError::InvalidInput(
                    "adaptive h_min must be finite and positive",
                ));
            }
            if !h_max.is_finite() || h_max < h_min {
                return Err(CircuitError::InvalidInput(
                    "adaptive h_max must be finite and >= h_min",
                ));
            }
        }
        Ok(())
    }
}

/// Counters describing the work a transient solve performed. Deterministic
/// (no wall-clock): two runs of the same deck and options produce the same
/// stats, so they are safe to assert on in tests and to emit as trace
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Time steps integrated (excluding the recorded `t = 0` state).
    pub steps: u64,
    /// Total Newton iterations across all steps (for the linear fast path:
    /// update-replay iterations, which mirror what the reference Newton
    /// loop would have counted).
    pub newton_iterations: u64,
    /// LU factorizations performed.
    pub factorizations: u64,
    /// Steps solved by reusing a previously computed factorization.
    pub factor_reuses: u64,
    /// Heap allocations attributable to the stepping machinery (workspace
    /// buffers, result storage, per-step scratch), counted at their
    /// allocation sites.
    pub allocations: u64,
    /// The subset of [`SolverStats::allocations`] performed after the first
    /// time step completed. Zero on every path — the acceptance gate for
    /// "allocation-free stepping".
    pub post_warmup_allocations: u64,
    /// Whether the run used the cached-factorization linear fast path.
    pub used_linear_fast_path: bool,
    /// Whether the run solved through the sparse path.
    pub used_sparse_path: bool,
    /// Sparse symbolic analyses computed by this run (0 or 1: a cache miss
    /// on the netlist's structural digest).
    pub symbolic_analyses: u64,
    /// Sparse symbolic analyses reused from the process-wide cache (0 or 1:
    /// a cache hit on the netlist's structural digest).
    pub symbolic_reuses: u64,
    /// Lanes of a batched solve. Always zero: every deck is solved on its
    /// own. The field stays so the `batched_lanes` key of the golden trace
    /// and metrics JSON keeps its bytes.
    pub batched_lanes: u64,
    /// Internal steps the adaptive LTE controller accepted (zero on the
    /// fixed-grid path, whose steps are unconditional).
    pub steps_accepted: u64,
    /// Internal steps the adaptive LTE controller rejected and retried.
    pub steps_rejected: u64,
    /// Envelope↔cycle fidelity hand-offs performed by a multi-rate run
    /// (zero for plain circuit-level solves; filled in by the closed-loop
    /// multi-rate simulation that owns the hand-off state machine).
    pub mode_switches: u64,
    /// Thousandths of the run's simulated time spent in envelope fidelity
    /// (0 = all cycle-accurate, 1000 = all envelope). An integer so the
    /// value can ride the byte-stable golden trace stream unchanged.
    pub envelope_permille: u64,
}

impl SolverStats {
    /// Fraction of simulated time spent in envelope fidelity, from
    /// [`SolverStats::envelope_permille`].
    pub fn envelope_fraction(&self) -> f64 {
        self.envelope_permille as f64 / 1000.0
    }
}

/// Allocation bookkeeping for [`SolverStats`]: counts allocations at their
/// sites and splits them into warm-up vs. steady-state.
struct AllocCounter {
    warm: bool,
    total: u64,
    post_warmup: u64,
}

impl AllocCounter {
    fn new() -> Self {
        AllocCounter {
            warm: false,
            total: 0,
            post_warmup: 0,
        }
    }

    /// Records `n` allocations just performed.
    fn note(&mut self, n: u64) {
        self.total += n;
        if self.warm {
            self.post_warmup += n;
        }
    }

    /// Marks the end of warm-up (first step complete).
    fn finish_warmup(&mut self) {
        self.warm = true;
    }

    /// Writes the tallies into the finished result's stats.
    fn settle(&self, mut result: TransientResult, steps: usize, stride: usize) -> TransientResult {
        debug_assert_eq!(
            result.times.len(),
            sample_count(steps, stride),
            "sample_count mismatch"
        );
        result.stats.allocations = self.total;
        result.stats.post_warmup_allocations = self.post_warmup;
        result
    }
}

/// Recorded transient waveforms in contiguous row-major storage: sample `k`
/// occupies `voltages[k·(node_count−1) ..]` and `currents[k·element_count ..]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    node_count: usize,
    element_count: usize,
    /// Row-major node voltages; row `k` is the full node-voltage vector at
    /// `times[k]` (column 0 = node 1; ground is implicit 0).
    voltages: Vec<f64>,
    /// Row-major element currents; row `k` column `e` is element `e`'s
    /// current at `times[k]`.
    currents: Vec<f64>,
    stats: SolverStats,
}

impl TransientResult {
    /// Recorded sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Work counters of the solve that produced this result.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The full node-voltage row of sample `k` (index 0 = node 1; ground is
    /// not stored).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sample.
    pub fn voltages_at(&self, k: usize) -> &[f64] {
        let nn = self.node_count - 1;
        &self.voltages[k * nn..(k + 1) * nn]
    }

    /// The full element-current row of sample `k`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sample.
    pub fn currents_at(&self, k: usize) -> &[f64] {
        let ec = self.element_count;
        &self.currents[k * ec..(k + 1) * ec]
    }

    /// The entire row-major voltage storage (all samples back to back) —
    /// handy for bitwise comparisons between runs.
    pub fn voltages_flat(&self) -> &[f64] {
        &self.voltages
    }

    /// The entire row-major current storage (all samples back to back).
    pub fn currents_flat(&self) -> &[f64] {
        &self.currents
    }

    /// Voltage trace of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn voltage_trace(&self, n: NodeId) -> Vec<f64> {
        assert!(n.index() < self.node_count, "node {n} not in result");
        if n.is_ground() {
            return vec![0.0; self.times.len()];
        }
        let nn = self.node_count - 1;
        self.voltages
            .iter()
            .skip(n.index() - 1)
            .step_by(nn.max(1))
            .copied()
            .collect()
    }

    /// Voltage of a node at sample `k`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sample or foreign node.
    pub fn voltage_at(&self, n: NodeId, k: usize) -> f64 {
        assert!(n.index() < self.node_count, "node {n} not in result");
        assert!(k < self.times.len(), "sample {k} out of range");
        if n.is_ground() {
            0.0
        } else {
            self.voltages[k * (self.node_count - 1) + n.index() - 1]
        }
    }

    /// Current trace of one element.
    ///
    /// # Panics
    ///
    /// Panics if the element does not belong to the simulated netlist.
    pub fn current_trace(&self, e: ElementId) -> Vec<f64> {
        assert!(e.index() < self.element_count, "element not in result");
        self.currents
            .iter()
            .skip(e.index())
            .step_by(self.element_count.max(1))
            .copied()
            .collect()
    }

    /// Appends one sample row. `branch` is the netlist's branch-index table,
    /// hoisted once per run so recording stays linear in element count.
    pub(crate) fn push_sample(
        &mut self,
        nl: &Netlist,
        branch: &[Option<usize>],
        t: f64,
        x: &[f64],
        mode: &Mode<'_>,
    ) {
        self.times.push(t);
        self.voltages.extend_from_slice(&x[..self.node_count - 1]);
        for k in 0..self.element_count {
            self.currents.push(element_current(nl, branch, k, x, mode));
        }
    }
}

/// Number of samples `run_transient` records: `t = 0`, every `stride`-th
/// step, and the final step.
pub(crate) fn sample_count(steps: usize, stride: usize) -> usize {
    1 + steps / stride + usize::from(!steps.is_multiple_of(stride) && steps > 0)
}

/// Number of fixed-size steps a run from 0 to `t_end` takes:
/// `ceil(t_end / dt)`, so any fractional remainder — including one produced
/// purely by floating-point rounding, e.g. `t_end / dt` landing a ulp above
/// an integer — adds a final step past `t_end`.
///
/// This is the **single** definition of the step count: the fixed-grid and
/// adaptive transient paths both call it, so an FP boundary case cannot give
/// them different output grids.
pub(crate) fn step_count(t_end: f64, dt: f64) -> usize {
    (t_end / dt).ceil() as usize
}

/// Runs a transient analysis.
///
/// # Errors
///
/// Propagates Newton convergence failures annotated with the failing time
/// point, DC failures when `use_initial_conditions` is `false`, and
/// [`CircuitError::InvalidInput`] for options rejected by
/// [`TransientOptions::validate`].
pub fn run_transient(nl: &Netlist, opts: &TransientOptions) -> Result<TransientResult> {
    opts.validate()?;
    match opts.stepping {
        Stepping::Fixed => run_fixed(nl, opts),
        Stepping::AdaptiveLte { tol, h_min, h_max } => run_adaptive(nl, opts, tol, h_min, h_max),
    }
}

/// One step to take: its end time, size and companion model.
#[derive(Debug, Clone, Copy)]
struct StepSpec {
    t: f64,
    h: f64,
    integrator: Integrator,
}

impl StepSpec {
    /// The stamping mode of this step against the pre-step `history`.
    fn mode(self, history: &History) -> Mode<'_> {
        Mode::Transient {
            t: self.t,
            dt: self.h,
            integrator: self.integrator,
            history,
        }
    }

    /// The history update that accepts this step's solution.
    fn absorb_rule(self) -> AbsorbRule {
        AbsorbRule::Transient {
            dt: self.h,
            integrator: self.integrator,
        }
    }
}

/// What every step of one run shares.
struct Stepper<'a> {
    nl: &'a Netlist,
    /// The linear shortcut: on for linear decks (except on the reference
    /// path), where the MNA matrix depends only on the step size and
    /// integrator, so it is factored once per step size and each step only
    /// restamps the right-hand side and substitutes.
    shortcut: bool,
    lim: NewtonLimits,
}

impl Stepper<'_> {
    /// The step routine both loops call: advances `x` across `spec`.
    ///
    /// `factored` is the factor-cache key: the bits of the step size the
    /// backend's current linear factorization was built for (`None` before
    /// the first). The fixed grid factors on its first step and reuses the
    /// factorization for every later one; the adaptive loop refactors only
    /// when its controller changes the step size. Without the shortcut the
    /// key is unused and every Newton iteration refactors.
    fn step(
        &self,
        backend: &mut LinearBackend,
        x: &mut [f64],
        spec: StepSpec,
        history: &History,
        factored: &mut Option<u64>,
        stats: &mut SolverStats,
    ) -> Result<()> {
        let mode = spec.mode(history);
        if self.shortcut {
            let key = Some(spec.h.to_bits());
            if *factored == key {
                stats.factor_reuses += 1;
            } else {
                backend.factor_linear(self.nl, &mode, spec.t)?;
                *factored = key;
                stats.factorizations += 1;
            }
            backend.solve_linear(self.nl, &mode, spec.t)?;
            stats.newton_iterations +=
                backend.newton(self.nl, x, &mode, &self.lim, spec.t, true)?;
        } else {
            let iters = backend.newton(self.nl, x, &mode, &self.lim, spec.t, false)?;
            stats.newton_iterations += iters;
            stats.factorizations += iters;
        }
        Ok(())
    }
}

/// The state both stepping loops start from.
struct Start<'a> {
    stepper: Stepper<'a>,
    backend: LinearBackend,
    history: History,
    /// The state at `t = 0`: zero (initial conditions live in the history)
    /// or the DC operating point.
    x: Vec<f64>,
    /// Result storage sized for the whole run, holding the `t = 0` sample.
    result: TransientResult,
    /// Branch-index table for current recording, hoisted once per run.
    branch: Vec<Option<usize>>,
    alloc: AllocCounter,
    /// Fixed-grid step count, which is also the output grid's length.
    steps: usize,
}

/// The start-up both loops share: resolves the solver path and builds its
/// backend, the history, the initial state or DC point, the result storage,
/// the branch table and the `t = 0` sample.
fn start<'a>(nl: &'a Netlist, opts: &TransientOptions) -> Result<Start<'a>> {
    let n = nl.unknown_count();
    let nn = nl.node_count() - 1;
    let path = resolve_solver_path(opts.solver, nl);
    let mut alloc = AllocCounter::new();

    let mut history = History::from_initial_conditions(nl);
    alloc.note(4); // the four history vectors

    let x = if opts.use_initial_conditions {
        vec![0.0; n]
    } else {
        let dc = solve_dc_with(nl, &DcOptions::default(), None)?;
        let x = dc.raw().to_vec();
        // Absorb the DC point into the reactive-element history so the first
        // step starts from steady state.
        history.absorb(nl, &x, AbsorbRule::Dc);
        x
    };
    alloc.note(1);

    let steps = step_count(opts.t_end, opts.dt);
    let samples = sample_count(steps, opts.record_stride);
    let mut result = TransientResult {
        times: Vec::with_capacity(samples),
        node_count: nl.node_count(),
        element_count: nl.elements().len(),
        voltages: Vec::with_capacity(samples * nn),
        currents: Vec::with_capacity(samples * nl.elements().len()),
        stats: SolverStats::default(),
    };
    alloc.note(3); // times / voltages / currents storage

    let branch = nl.branch_indices();
    alloc.note(1);

    // Record t = 0 under DC conventions (reactive currents are zero).
    let mode0 = Mode::Dc {
        gmin: 1e-12,
        source_scale: 1.0,
    };
    result.push_sample(nl, &branch, 0.0, &x, &mode0);

    // `n > 0` keeps the degenerate empty deck off the sparse backend and
    // the shortcut (nothing to factor; Newton returns at once).
    let backend = if path == SolverPath::Sparse && n > 0 {
        let (backend, reused) = LinearBackend::sparse(nl)?;
        if reused {
            result.stats.symbolic_reuses += 1;
        } else {
            result.stats.symbolic_analyses += 1;
        }
        backend
    } else {
        LinearBackend::dense(n)
    };
    alloc.note(backend.buffers());
    let shortcut = path != SolverPath::Reference && n > 0 && nl.is_linear();
    result.stats.used_linear_fast_path = shortcut && !backend.is_sparse();
    result.stats.used_sparse_path = backend.is_sparse();

    Ok(Start {
        stepper: Stepper {
            nl,
            shortcut,
            lim: NewtonLimits {
                max_iter: opts.max_iter,
                v_tol: opts.v_tol,
                v_step_limit: 2.0,
                analysis: "transient",
            },
        },
        backend,
        history,
        x,
        result,
        branch,
        alloc,
        steps,
    })
}

/// The fixed-grid loop: `steps` steps of `opts.dt`.
fn run_fixed(nl: &Netlist, opts: &TransientOptions) -> Result<TransientResult> {
    let Start {
        stepper,
        mut backend,
        mut history,
        mut x,
        mut result,
        branch,
        mut alloc,
        steps,
    } = start(nl, opts)?;
    let mut factored = None;

    for step in 1..=steps {
        let spec = StepSpec {
            t: step as f64 * opts.dt,
            h: opts.dt,
            integrator: opts.integrator,
        };
        result.stats.steps += 1;
        stepper.step(
            &mut backend,
            &mut x,
            spec,
            &history,
            &mut factored,
            &mut result.stats,
        )?;
        if step % opts.record_stride == 0 || step == steps {
            result.push_sample(nl, &branch, spec.t, &x, &spec.mode(&history));
        }
        // Update history *after* recording so recorded currents use the
        // pre-step history (consistent companion model).
        history.absorb(nl, &x, spec.absorb_rule());
        alloc.finish_warmup();
    }

    Ok(alloc.settle(result, steps, opts.record_stride))
}

/// The LTE-adaptive loop.
///
/// Each internal step is attempted with the configured (trapezoidal)
/// integrator and its backward-Euler shadow from the same state and
/// history; the infinity-norm difference over node voltages is the
/// local-truncation-error estimate fed to the shared
/// [`StepController`] (the TR/BE embedded pair, controller order 1).
/// Accepted states are linearly interpolated onto the uniform `opts.dt`
/// output grid, so the result has exactly the fixed path's sample times
/// and storage shape. The two members run on twin backends with separate
/// factor caches, so a controller holding its step size refactors
/// nothing.
fn run_adaptive(
    nl: &Netlist,
    opts: &TransientOptions,
    tol: f64,
    h_min: f64,
    h_max: f64,
) -> Result<TransientResult> {
    let Start {
        stepper,
        backend: mut hi,
        mut history,
        mut x,
        mut result,
        branch,
        mut alloc,
        steps,
    } = start(nl, opts)?;
    let n = x.len();
    let nn = nl.node_count() - 1;
    let stride = opts.record_stride;

    let controller = StepController::new(tol, h_min, h_max, 1)
        .map_err(|_| CircuitError::InvalidInput("adaptive controller rejected its bounds"))?;
    let mut lo = hi.twin();
    alloc.note(lo.buffers());
    let mut x_hi = vec![0.0; n];
    let mut x_lo = vec![0.0; n];
    let mut x_rec = vec![0.0; n];
    alloc.note(3);
    let mut key_hi: Option<u64> = None;
    let mut key_lo: Option<u64> = None;

    // Integrate to the fixed path's grid end (`steps · dt`, which step_count
    // rounds past t_end), so every output grid point is covered.
    let t_final = steps as f64 * opts.dt;
    let mut t = 0.0f64;
    let mut h = controller.clamp(opts.dt);
    let mut next_grid = 1usize;

    // The stored reactive history at t = 0 is not necessarily consistent
    // with the post-step derivative (a source discontinuity leaves the
    // capacitor currents stale), which turns the TR/BE pair difference
    // into an O(h) artifact no step size can push below tolerance. The
    // first step is therefore a lone backward-Euler step at the minimum
    // size, accepted unconditionally, to establish a consistent history
    // before the error-controlled pair takes over.
    let mut startup = true;
    while t < t_final {
        let h_want = if startup { controller.h_min() } else { h };
        // Land the final step exactly on the grid end.
        let clamped = h_want >= t_final - t;
        let spec = StepSpec {
            t: if clamped { t_final } else { t + h_want },
            h: if clamped { t_final - t } else { h_want },
            integrator: if startup {
                Integrator::BackwardEuler
            } else {
                opts.integrator
            },
        };
        if !startup {
            x_hi.copy_from_slice(&x);
            stepper.step(
                &mut hi,
                &mut x_hi,
                spec,
                &history,
                &mut key_hi,
                &mut result.stats,
            )?;
        }
        x_lo.copy_from_slice(&x);
        let lo_spec = StepSpec {
            integrator: Integrator::BackwardEuler,
            ..spec
        };
        stepper.step(
            &mut lo,
            &mut x_lo,
            lo_spec,
            &history,
            &mut key_lo,
            &mut result.stats,
        )?;

        let decision = if startup {
            StepDecision::Accept { h_next: h }
        } else {
            let mut err = 0.0f64;
            for i in 0..nn {
                err = err.max((x_hi[i] - x_lo[i]).abs());
            }
            controller.decide(spec.h, err)
        };
        match decision {
            StepDecision::Accept { h_next } => {
                let x_new = if startup { &x_lo } else { &x_hi };
                result.stats.steps += 1;
                result.stats.steps_accepted += 1;
                // Record every uniform grid point this step crossed,
                // linearly interpolated between the step endpoints; the
                // recording mode mirrors the fixed path (pre-step history).
                let mode = spec.mode(&history);
                while next_grid <= steps {
                    let g = next_grid as f64 * opts.dt;
                    if g > spec.t {
                        break;
                    }
                    if next_grid.is_multiple_of(stride) || next_grid == steps {
                        let w = ((g - t) / spec.h).clamp(0.0, 1.0);
                        for i in 0..n {
                            x_rec[i] = x[i] + w * (x_new[i] - x[i]);
                        }
                        result.push_sample(nl, &branch, g, &x_rec, &mode);
                    }
                    next_grid += 1;
                }
                x.copy_from_slice(x_new);
                history.absorb(nl, &x, spec.absorb_rule());
                t = spec.t;
                h = h_next;
            }
            StepDecision::Reject { h_next } => {
                result.stats.steps_rejected += 1;
                h = h_next;
            }
            StepDecision::Stall => {
                return Err(CircuitError::StepStall {
                    at: t,
                    h_min: controller.h_min(),
                });
            }
        }
        startup = false;
        alloc.finish_warmup();
    }

    Ok(alloc.settle(result, steps, stride))
}

/// Resolves the effective solver path: [`SolverPath::Auto`] picks dense
/// below [`SPARSE_MIN_UNKNOWNS`] unknowns and sparse at or above it —
/// linear decks only. Nonlinear decks stay dense under `Auto`: an off-state
/// device can zero a conductance that the structure-only sparse pivot order
/// relies on, where dense partial pivoting recovers.
pub(crate) fn resolve_solver_path(configured: SolverPath, nl: &Netlist) -> SolverPath {
    match configured {
        SolverPath::Auto => {
            if nl.unknown_count() >= SPARSE_MIN_UNKNOWNS && nl.is_linear() {
                SolverPath::Sparse
            } else {
                SolverPath::Dense
            }
        }
        explicit => explicit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn rc_charge_curve() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6); // tau = 1 ms
        let opts = TransientOptions::new(1e-6, 1e-3);
        let res = run_transient(&nl, &opts).unwrap();
        let v_end = *res.voltage_trace(out).last().unwrap();
        let expect = 1.0 - (-1.0f64).exp();
        assert!((v_end - expect).abs() < 1e-3, "{v_end} vs {expect}");
    }

    #[test]
    fn rc_from_dc_operating_point_stays_flat() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(2.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6);
        let mut opts = TransientOptions::new(1e-5, 5e-4);
        opts.use_initial_conditions = false;
        let res = run_transient(&nl, &opts).unwrap();
        for &v in &res.voltage_trace(out) {
            assert!((v - 2.0).abs() < 1e-6, "drifted to {v}");
        }
    }

    #[test]
    fn lc_tank_oscillates_at_resonance() {
        // 1 µH with 1 µF -> f0 = 1/(2π·1µ) ≈ 159.15 kHz
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let opts = TransientOptions::new(5e-9, 40e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let trace = res.voltage_trace(a);
        let f = lcosc_num::ode::frequency_from_crossings(0.0, 5e-9, &trace).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e-6);
        assert!((f / f0 - 1.0).abs() < 0.01, "f {f} vs {f0}");
    }

    #[test]
    fn trapezoidal_preserves_lc_amplitude_better_than_be() {
        let build = || {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
            nl.inductor(a, Netlist::GROUND, 1e-6);
            (nl, a)
        };
        let run = |integrator| {
            let (nl, a) = build();
            let mut opts = TransientOptions::new(2e-8, 60e-6);
            opts.integrator = integrator;
            let res = run_transient(&nl, &opts).unwrap();
            let trace = res.voltage_trace(a);
            trace[trace.len() / 2..]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let amp_trap = run(Integrator::Trapezoidal);
        let amp_be = run(Integrator::BackwardEuler);
        assert!(amp_trap > 0.95, "trapezoidal amplitude {amp_trap}");
        assert!(amp_be < amp_trap, "BE should damp: {amp_be} vs {amp_trap}");
    }

    #[test]
    fn sine_source_passes_through() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(
            a,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e6,
                phase: 0.0,
            },
        );
        nl.resistor(a, Netlist::GROUND, 1e3);
        let opts = TransientOptions::new(1e-9, 2e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let trace = res.voltage_trace(a);
        let peak = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((peak - 1.0).abs() < 1e-3);
    }

    #[test]
    fn record_stride_thins_output() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1.0);
        let mut opts = TransientOptions::new(1e-6, 1e-4);
        opts.record_stride = 10;
        let res = run_transient(&nl, &opts).unwrap();
        assert!(res.len() <= 12, "{} samples", res.len());
        assert!(!res.is_empty());
    }

    #[test]
    fn inductor_current_ramp() {
        // V = L di/dt: 1 V across 1 mH ramps 1 A/ms.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        let l = nl.inductor(a, Netlist::GROUND, 1e-3);
        let opts = TransientOptions::new(1e-6, 1e-3);
        let res = run_transient(&nl, &opts).unwrap();
        let i_end = *res.current_trace(l).last().unwrap();
        assert!((i_end - 1.0).abs() < 2e-3, "i {i_end}");
    }

    #[test]
    fn voltage_at_and_ground_queries() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1.0);
        let res = run_transient(&nl, &TransientOptions::new(1e-6, 1e-5)).unwrap();
        assert_eq!(res.voltage_at(Netlist::GROUND, 0), 0.0);
        assert!((res.voltage_at(a, res.len() - 1) - 1.0).abs() < 1e-9);
        assert_eq!(res.voltage_trace(Netlist::GROUND).len(), res.len());
    }

    #[test]
    fn validate_rejects_degenerate_options() {
        let base = TransientOptions::new(1e-6, 1e-3);
        assert!(base.validate().is_ok());
        for bad in [
            TransientOptions { dt: 0.0, ..base },
            TransientOptions {
                dt: f64::NAN,
                ..base
            },
            TransientOptions {
                dt: f64::INFINITY,
                ..base
            },
            TransientOptions {
                t_end: -1.0,
                ..base
            },
            TransientOptions {
                t_end: f64::NAN,
                ..base
            },
            TransientOptions {
                record_stride: 0,
                ..base
            },
            TransientOptions {
                max_iter: 0,
                ..base
            },
            TransientOptions { v_tol: 0.0, ..base },
            TransientOptions {
                v_tol: f64::NAN,
                ..base
            },
        ] {
            let err = bad.validate().expect_err("should reject");
            assert!(matches!(err, CircuitError::InvalidInput(_)), "{err}");
            // run_transient surfaces the same typed error.
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.resistor(a, Netlist::GROUND, 1.0);
            assert_eq!(run_transient(&nl, &bad).expect_err("reject"), err);
        }
    }

    #[test]
    fn linear_fast_path_stats_show_single_factorization() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let opts = TransientOptions::new(5e-9, 5e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(s.used_linear_fast_path);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.factor_reuses, s.steps - 1);
        assert_eq!(s.post_warmup_allocations, 0, "stepping must not allocate");
        assert!(s.newton_iterations >= s.steps);
    }

    #[test]
    fn reference_path_stats_show_per_step_factorization() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.capacitor_ic(a, Netlist::GROUND, 1e-6, 1.0);
        nl.inductor(a, Netlist::GROUND, 1e-6);
        let mut opts = TransientOptions::new(5e-9, 5e-6);
        opts.solver = SolverPath::Reference;
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(!s.used_linear_fast_path);
        assert_eq!(s.factorizations, s.newton_iterations);
        assert_eq!(s.factor_reuses, 0);
        assert_eq!(
            s.post_warmup_allocations, 0,
            "the reference path reuses its workspace too"
        );
    }

    #[test]
    fn nonlinear_deck_uses_workspace_newton_without_allocating() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.diode(
            out,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        nl.capacitor(out, Netlist::GROUND, 1e-9);
        let opts = TransientOptions::new(1e-8, 1e-6);
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(!s.used_linear_fast_path);
        assert_eq!(s.factorizations, s.newton_iterations);
        assert_eq!(s.post_warmup_allocations, 0, "workspace must be reused");
    }

    #[test]
    fn flat_row_accessors_agree_with_traces() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6);
        let res = run_transient(&nl, &TransientOptions::new(1e-6, 1e-4)).unwrap();
        let trace = res.voltage_trace(out);
        for (k, &traced) in trace.iter().enumerate() {
            assert_eq!(res.voltages_at(k)[out.index() - 1], traced);
            assert_eq!(res.voltages_at(k).len(), 2);
            assert_eq!(res.currents_at(k).len(), 3);
        }
        assert_eq!(trace.len(), res.len());
        assert_eq!(res.voltages_flat().len(), res.len() * 2);
        assert_eq!(res.currents_flat().len(), res.len() * 3);
    }

    #[test]
    fn sample_count_matches_recording_rule() {
        for steps in 0..40usize {
            for stride in 1..7usize {
                let expect = (1..=steps)
                    .filter(|s| s % stride == 0 || *s == steps)
                    .count()
                    + 1;
                assert_eq!(
                    sample_count(steps, stride),
                    expect,
                    "steps {steps} stride {stride}"
                );
            }
        }
    }

    #[test]
    fn step_count_pins_fp_boundary_semantics() {
        // Exact quotients stay exact.
        assert_eq!(step_count(1.0, 0.25), 4);
        assert_eq!(step_count(1e-6, 1e-9), 1000);
        // A quotient a hair above an integer rounds up to an extra step.
        let t_end = 0.25 * (4.0 + f64::EPSILON * 8.0);
        assert_eq!(step_count(t_end, 0.25), 5);
        // The classic inexact-decimal case: 0.3 / 0.1 is slightly below 3
        // in binary, so it must NOT round up to 4.
        assert_eq!(step_count(0.3, 0.1), 3);
        // Fractional remainders always add the final partial step.
        assert_eq!(step_count(1.05, 0.25), 5);
        // Degenerate but well-defined: zero duration takes zero steps.
        assert_eq!(step_count(0.0, 0.25), 0);
    }

    #[test]
    fn step_count_is_the_recorded_step_count() {
        // The fixed-grid path records `step_count` steps; pin the
        // observable count through a real run so a future divergence in
        // any caller is caught here.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.current_source(a, Netlist::GROUND, Waveform::Dc(1e-3));
        nl.resistor(a, Netlist::GROUND, 1e3);
        let res = run_transient(&nl, &TransientOptions::new(0.25e-9, 1.05e-9)).unwrap();
        assert_eq!(res.stats().steps, step_count(1.05e-9, 0.25e-9) as u64);
    }

    #[test]
    fn resolve_solver_path_auto_splits_on_size_and_linearity() {
        let small = crate::workloads::rc_ladder(4);
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &small),
            SolverPath::Dense
        );
        let large = crate::workloads::rc_ladder(200);
        assert!(large.unknown_count() >= SPARSE_MIN_UNKNOWNS);
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &large),
            SolverPath::Sparse
        );
        // Nonlinear decks stay dense under Auto regardless of size.
        let mut nonlinear = crate::workloads::rc_ladder(200);
        let a = nonlinear.node("d");
        nonlinear.diode(
            a,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        assert_eq!(
            resolve_solver_path(SolverPath::Auto, &nonlinear),
            SolverPath::Dense
        );
        // Explicit configuration passes through untouched.
        assert_eq!(
            resolve_solver_path(SolverPath::Sparse, &small),
            SolverPath::Sparse
        );
        assert_eq!(
            resolve_solver_path(SolverPath::Dense, &large),
            SolverPath::Dense
        );
    }

    #[test]
    fn adaptive_matches_fixed_grid_on_rc_charge() {
        let build = || {
            let mut nl = Netlist::new();
            let vin = nl.node("vin");
            let out = nl.node("out");
            nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
            nl.resistor(vin, out, 1e3);
            nl.capacitor(out, Netlist::GROUND, 1e-6); // tau = 1 ms
            (nl, out)
        };
        let (nl, out) = build();
        let fixed_opts = TransientOptions::new(1e-7, 1e-3);
        let fixed = run_transient(&nl, &fixed_opts).unwrap();
        let adaptive_opts = fixed_opts.with_adaptive_lte(1e-6);
        let adaptive = run_transient(&nl, &adaptive_opts).unwrap();
        // Identical output grid, bitwise.
        assert_eq!(fixed.times(), adaptive.times());
        assert_eq!(adaptive.len(), fixed.len());
        // The adaptive run tracks the analytic charge curve within the
        // accumulated LTE band, and stays inside the fixed path's
        // start-up-artifact envelope (the fixed trapezoidal run carries a
        // decaying O(dt) error from its inconsistent t = 0 history).
        let tau = 1e-3;
        for ((&t, f), a) in adaptive
            .times()
            .iter()
            .zip(fixed.voltage_trace(out).iter())
            .zip(adaptive.voltage_trace(out).iter())
        {
            let exact = 1.0 - (-t / tau).exp();
            assert!((a - exact).abs() < 5e-4, "adaptive {a} vs exact {exact}");
            assert!((f - a).abs() < 1e-3, "fixed {f} vs adaptive {a}");
        }
        // The controller must have grown the step well past dt on this
        // smooth trajectory: far fewer internal steps than grid points.
        let s = adaptive.stats();
        assert!(s.steps_accepted > 0);
        assert_eq!(s.steps, s.steps_accepted);
        assert!(
            s.steps_accepted < fixed.stats().steps / 4,
            "adaptive took {} steps vs fixed {}",
            s.steps_accepted,
            fixed.stats().steps
        );
        // Fixed-path runs leave the adaptive counters at zero.
        assert_eq!(fixed.stats().steps_accepted, 0);
        assert_eq!(fixed.stats().steps_rejected, 0);
    }

    #[test]
    fn adaptive_holds_step_without_refactoring() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1e3);
        // A purely resistive deck has zero LTE: the controller pins the
        // step at h_max immediately, and each member workspace factors once.
        let mut opts = TransientOptions::new(1e-6, 1e-4);
        opts.stepping = Stepping::AdaptiveLte {
            tol: 1e-9,
            h_min: 1e-6,
            h_max: 4e-6,
        };
        let res = run_transient(&nl, &opts).unwrap();
        let s = res.stats();
        assert!(s.used_linear_fast_path);
        // One factorization per (step size, integrator member) seen; the
        // growth phase 1µs→4µs passes through at most a few sizes.
        assert!(
            s.factorizations <= 8,
            "expected cached factors, saw {} factorizations",
            s.factorizations
        );
        assert!(s.factor_reuses > s.factorizations);
    }

    #[test]
    fn adaptive_nonlinear_deck_agrees_with_fixed() {
        let build = || {
            let mut nl = Netlist::new();
            let vin = nl.node("vin");
            let out = nl.node("out");
            nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
            nl.resistor(vin, out, 1e3);
            nl.diode(
                out,
                Netlist::GROUND,
                lcosc_device::diode::DiodeModel::default(),
            );
            nl.capacitor(out, Netlist::GROUND, 1e-9);
            (nl, out)
        };
        let (nl, out) = build();
        // Reference: a 10× finer fixed grid thinned back onto the adaptive
        // run's sample times (the coarse fixed grid's own start-up
        // trapezoidal artifact would dominate the comparison band).
        let mut fine_opts = TransientOptions::new(1e-9, 1e-6);
        fine_opts.record_stride = 10;
        let fixed = run_transient(&nl, &fine_opts).unwrap();
        let adaptive = run_transient(
            &nl,
            &TransientOptions::new(1e-8, 1e-6).with_adaptive_lte(1e-7),
        )
        .unwrap();
        assert_eq!(fixed.len(), adaptive.len());
        for (f, a) in fixed
            .voltage_trace(out)
            .iter()
            .zip(adaptive.voltage_trace(out).iter())
        {
            assert!((f - a).abs() < 1e-3, "fixed {f} vs adaptive {a}");
        }
        assert!(adaptive.stats().steps_accepted > 0);
    }

    #[test]
    fn adaptive_stall_is_a_typed_error() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 1e3);
        nl.capacitor(out, Netlist::GROUND, 1e-6);
        // An unreachable tolerance with no room to shrink: the controller
        // must stall with the typed error, not clamp-and-accept.
        let mut opts = TransientOptions::new(1e-6, 1e-3);
        opts.stepping = Stepping::AdaptiveLte {
            tol: 1e-300,
            h_min: 1e-6,
            h_max: 1e-6,
        };
        match run_transient(&nl, &opts) {
            Err(CircuitError::StepStall { at, h_min }) => {
                // The backward-Euler start-up step is always accepted, so
                // the stall lands after exactly one h_min-sized step.
                assert_eq!(at, 1e-6);
                assert_eq!(h_min, 1e-6);
            }
            other => panic!("expected StepStall, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_validation_rejects_degenerate_controllers() {
        let base = TransientOptions::new(1e-6, 1e-3);
        let with = |stepping| TransientOptions { stepping, ..base };
        for bad in [
            with(Stepping::AdaptiveLte {
                tol: 0.0,
                h_min: 1e-9,
                h_max: 1e-6,
            }),
            with(Stepping::AdaptiveLte {
                tol: 1e-6,
                h_min: 0.0,
                h_max: 1e-6,
            }),
            with(Stepping::AdaptiveLte {
                tol: 1e-6,
                h_min: 1e-6,
                h_max: 1e-9,
            }),
            with(Stepping::AdaptiveLte {
                tol: f64::NAN,
                h_min: 1e-9,
                h_max: 1e-6,
            }),
            TransientOptions {
                integrator: Integrator::BackwardEuler,
                ..base.with_adaptive_lte(1e-6)
            },
        ] {
            assert!(matches!(bad.validate(), Err(CircuitError::InvalidInput(_))));
        }
    }

    #[test]
    fn forced_sparse_runs_nonlinear_newton() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(vin, out, 100.0);
        nl.diode(
            out,
            Netlist::GROUND,
            lcosc_device::diode::DiodeModel::default(),
        );
        nl.capacitor(out, Netlist::GROUND, 1e-9);
        let mut opts = TransientOptions::new(1e-9, 50e-9);
        opts.solver = SolverPath::Sparse;
        let mut dense_opts = TransientOptions::new(1e-9, 50e-9);
        dense_opts.solver = SolverPath::Dense;
        let sparse = run_transient(&nl, &opts).unwrap();
        let dense = run_transient(&nl, &dense_opts).unwrap();
        assert!(sparse.stats().used_sparse_path);
        assert!(!dense.stats().used_sparse_path);
        // Nonlinear sparse refactors every Newton iteration.
        assert_eq!(sparse.stats().factor_reuses, 0);
        assert!(sparse.stats().factorizations >= sparse.stats().steps);
        for (s, d) in sparse
            .voltages_flat()
            .iter()
            .zip(dense.voltages_flat().iter())
        {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }
    }
}
