//! ODE integration for behavioral circuit models.
//!
//! Provides a classic fixed-step RK4 ([`rk4_step`]), an adaptive
//! Runge–Kutta–Fehlberg 4(5) driver ([`rkf45_adaptive`]) and a zero-crossing
//! event scanner used for oscillation frequency measurement.

use crate::{NumError, Result};

/// A first-order ODE system `x' = f(t, x)`.
///
/// Implementors describe only the dynamics; integration state is owned by
/// the caller so the same system can be integrated from many initial
/// conditions.
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Writes `f(t, x)` into `dx`. `dx.len() == x.len() == self.dim()`.
    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]);
}

/// Performs one classic fourth-order Runge–Kutta step of size `dt` in place.
///
/// The stage derivatives and the stage state live on the stack.
///
/// The arithmetic is a bit-exact contract: every component is computed as
/// `x + 0.5 * dt * k1`, `x + 0.5 * dt * k2`, `x + dt * k3` and finally
/// `x += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)`, in that order,
/// without fused multiply-add or reciprocal rewriting. Golden FMEA results
/// depend on these exact bits.
///
/// # Panics
///
/// Panics if `sys.dim() != N`.
pub fn rk4_step<S: OdeSystem + ?Sized, const N: usize>(sys: &S, t: f64, dt: f64, x: &mut [f64; N]) {
    assert_eq!(sys.dim(), N, "state length mismatch");
    let mut k1 = [0.0; N];
    let mut k2 = [0.0; N];
    let mut k3 = [0.0; N];
    let mut k4 = [0.0; N];
    let mut xt = [0.0; N];

    sys.derivatives(t, x, &mut k1);
    for i in 0..N {
        xt[i] = x[i] + 0.5 * dt * k1[i];
    }
    sys.derivatives(t + 0.5 * dt, &xt, &mut k2);
    for i in 0..N {
        xt[i] = x[i] + 0.5 * dt * k2[i];
    }
    sys.derivatives(t + 0.5 * dt, &xt, &mut k3);
    for i in 0..N {
        xt[i] = x[i] + dt * k3[i];
    }
    sys.derivatives(t + dt, &xt, &mut k4);
    for i in 0..N {
        x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Outcome of one attempted adaptive step, as judged by a
/// [`StepController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepDecision {
    /// Error test passed: commit the step, then try `h_next`.
    Accept {
        /// Proposed size for the next step.
        h_next: f64,
    },
    /// Error test failed: retry the same interval with `h_next`.
    Reject {
        /// Shrunken size for the retry.
        h_next: f64,
    },
    /// The error test failed at the minimum permitted step — the
    /// integration cannot proceed. Callers must surface this as
    /// [`NumError::StepStall`] rather than silently clamping.
    Stall,
}

/// Proportional embedded-pair step-size controller.
///
/// Shared by [`rkf45_adaptive`] and the MNA adaptive transient path: both
/// produce a per-step local-truncation-error estimate and ask the
/// controller to accept or reject the step and propose the next size.
/// The accept boundary is exact (`err <= tol` in floating point); a step
/// whose error test fails at `h <= h_min` is a [`StepDecision::Stall`],
/// never a silent acceptance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepController {
    tol: f64,
    h_min: f64,
    h_max: f64,
    /// Exponent of the proportional update, `1 / (order + 1)` for an
    /// embedded pair whose lower member has the given order.
    exponent: f64,
}

/// Growth/shrink clamp of the proportional update (classic RKF values).
const STEP_SCALE_MIN: f64 = 0.2;
const STEP_SCALE_MAX: f64 = 4.0;
/// Safety factor applied to the proportional step update.
const STEP_SAFETY: f64 = 0.9;

impl StepController {
    /// Creates a controller for an embedded pair whose lower-order member
    /// has order `order` (4 for RKF4(5), 1 for the TR/BE pair of the MNA
    /// transient).
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidInput`] unless `tol > 0`, `0 < h_min <= h_max`
    /// and `order >= 1`, all finite.
    pub fn new(tol: f64, h_min: f64, h_max: f64, order: u32) -> Result<Self> {
        if !(tol > 0.0) || !tol.is_finite() {
            return Err(NumError::InvalidInput("tolerance must be positive"));
        }
        if !(h_min > 0.0) || !h_min.is_finite() {
            return Err(NumError::InvalidInput("minimum step must be positive"));
        }
        if !(h_max >= h_min) || !h_max.is_finite() {
            return Err(NumError::InvalidInput("maximum step must be >= minimum"));
        }
        if order == 0 {
            return Err(NumError::InvalidInput("pair order must be >= 1"));
        }
        Ok(StepController {
            tol,
            h_min,
            h_max,
            exponent: 1.0 / (f64::from(order) + 1.0),
        })
    }

    /// Error tolerance of the controller.
    pub fn tol(&self) -> f64 {
        self.tol
    }

    /// Minimum permitted step.
    pub fn h_min(&self) -> f64 {
        self.h_min
    }

    /// Maximum permitted step.
    pub fn h_max(&self) -> f64 {
        self.h_max
    }

    /// Clamps a proposed initial step into the controller's `[h_min,
    /// h_max]` range.
    pub fn clamp(&self, h: f64) -> f64 {
        h.clamp(self.h_min, self.h_max)
    }

    /// Judges one attempted step of size `h` with local-error estimate
    /// `err` (infinity norm). A non-finite `err` counts as a rejection
    /// with a hard 5× shrink; a failing error test at `h <= h_min` is a
    /// [`StepDecision::Stall`].
    pub fn decide(&self, h: f64, err: f64) -> StepDecision {
        if !err.is_finite() {
            if h <= self.h_min {
                return StepDecision::Stall;
            }
            return StepDecision::Reject {
                h_next: (h * STEP_SCALE_MIN).max(self.h_min),
            };
        }
        let scale = if err > 0.0 {
            (STEP_SAFETY * (self.tol / err).powf(self.exponent))
                .clamp(STEP_SCALE_MIN, STEP_SCALE_MAX)
        } else {
            STEP_SCALE_MAX
        };
        let h_next = (h * scale).clamp(self.h_min, self.h_max);
        if err <= self.tol {
            StepDecision::Accept { h_next }
        } else if h <= self.h_min {
            StepDecision::Stall
        } else {
            StepDecision::Reject { h_next }
        }
    }
}

/// Result of an adaptive integration run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun {
    /// Final time reached (equals the requested end time on success).
    pub t_end: f64,
    /// Final state.
    pub x: Vec<f64>,
    /// Number of accepted steps.
    pub accepted: usize,
    /// Number of rejected (re-tried) steps.
    pub rejected: usize,
}

/// Integrates `sys` from `t0` to `t1` with the Runge–Kutta–Fehlberg 4(5)
/// embedded pair and proportional step-size control.
///
/// `tol` is the per-step absolute error tolerance (infinity norm).
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] if the time span, tolerance or initial
/// state is degenerate (non-finite, `t1 <= t0`, `tol <= 0`), and
/// [`NumError::StepStall`] if the error test still fails at the minimum
/// step size (stiff or discontinuous system, or derivatives that turn
/// non-finite mid-run).
pub fn rkf45_adaptive<S: OdeSystem + ?Sized>(
    sys: &S,
    t0: f64,
    t1: f64,
    x0: &[f64],
    tol: f64,
) -> Result<AdaptiveRun> {
    if !t0.is_finite() || !t1.is_finite() {
        return Err(NumError::InvalidInput("time span must be finite"));
    }
    if !(t1 > t0) {
        return Err(NumError::InvalidInput("t1 must exceed t0"));
    }
    if !(tol > 0.0) || !tol.is_finite() {
        return Err(NumError::InvalidInput("tolerance must be positive"));
    }
    let n = sys.dim();
    if x0.len() != n {
        return Err(NumError::InvalidInput("state length mismatch"));
    }
    if x0.iter().any(|v| !v.is_finite()) {
        return Err(NumError::InvalidInput("initial state must be finite"));
    }

    // Fehlberg coefficients.
    const A: [[f64; 5]; 5] = [
        [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [
            -8.0 / 27.0,
            2.0,
            -3544.0 / 2565.0,
            1859.0 / 4104.0,
            -11.0 / 40.0,
        ],
    ];
    const C: [f64; 6] = [0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5];
    const B4: [f64; 6] = [
        25.0 / 216.0,
        0.0,
        1408.0 / 2565.0,
        2197.0 / 4104.0,
        -1.0 / 5.0,
        0.0,
    ];
    const B5: [f64; 6] = [
        16.0 / 135.0,
        0.0,
        6656.0 / 12825.0,
        28561.0 / 56430.0,
        -9.0 / 50.0,
        2.0 / 55.0,
    ];

    let mut x = x0.to_vec();
    let mut t = t0;
    let controller = StepController::new(tol, (t1 - t0) * 1e-14, t1 - t0, 4)?;
    let mut h = controller.clamp((t1 - t0) / 100.0);
    let mut k = vec![vec![0.0; n]; 6];
    let mut xt = vec![0.0; n];
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    while t < t1 {
        // The final step is shortened to land exactly on t1; the error
        // test still applies to it (a short step only lowers the error).
        let h_try = h.min(t1 - t);
        // Stage evaluations.
        sys.derivatives(t, &x, &mut k[0]);
        for s in 1..6 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, kj) in k.iter().enumerate().take(s) {
                    acc += A[s - 1][j] * kj[i];
                }
                xt[i] = x[i] + h_try * acc;
            }
            let (head, tail) = k.split_at_mut(s);
            let _ = head;
            sys.derivatives(t + C[s] * h_try, &xt, &mut tail[0]);
        }
        // Error estimate: |x5 - x4|.
        let mut err = 0.0f64;
        for i in 0..n {
            let mut d4 = 0.0;
            let mut d5 = 0.0;
            for (s, ks) in k.iter().enumerate() {
                d4 += B4[s] * ks[i];
                d5 += B5[s] * ks[i];
            }
            err = err.max((h_try * (d5 - d4)).abs());
        }
        match controller.decide(h_try, err) {
            StepDecision::Accept { h_next } => {
                // Accept with the 5th-order solution.
                for i in 0..n {
                    let mut d5 = 0.0;
                    for (s, ks) in k.iter().enumerate() {
                        d5 += B5[s] * ks[i];
                    }
                    x[i] += h_try * d5;
                }
                t += h_try;
                accepted += 1;
                h = h_next;
            }
            StepDecision::Reject { h_next } => {
                rejected += 1;
                h = h_next;
            }
            StepDecision::Stall => {
                return Err(NumError::StepStall {
                    t,
                    h_min: controller.h_min(),
                });
            }
        }
    }

    Ok(AdaptiveRun {
        t_end: t,
        x,
        accepted,
        rejected,
    })
}

/// A detected zero crossing of a sampled signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroCrossing {
    /// Linearly interpolated crossing time.
    pub t: f64,
    /// `true` when the signal crosses from negative to positive.
    pub rising: bool,
}

/// Scans a uniformly sampled signal for zero crossings with linear
/// interpolation of the crossing time.
///
/// Samples exactly at zero are treated as part of the following half-wave.
/// Returns crossings in time order.
pub fn zero_crossings(t0: f64, dt: f64, samples: &[f64]) -> Vec<ZeroCrossing> {
    let mut out = Vec::new();
    for w in 1..samples.len() {
        let (a, b) = (samples[w - 1], samples[w]);
        if (a < 0.0 && b >= 0.0) || (a > 0.0 && b <= 0.0) {
            let frac = a / (a - b);
            out.push(ZeroCrossing {
                t: t0 + dt * ((w - 1) as f64 + frac),
                rising: a < 0.0,
            });
        }
    }
    out
}

/// Estimates the fundamental frequency of a sampled signal from the mean
/// period between same-direction zero crossings.
///
/// Returns `None` when fewer than two rising crossings are present, or when
/// the crossings do not span a positive time interval (degenerate `dt = 0`
/// sampling or NaN-polluted signals would otherwise divide by zero here).
pub fn frequency_from_crossings(t0: f64, dt: f64, samples: &[f64]) -> Option<f64> {
    let rising: Vec<f64> = zero_crossings(t0, dt, samples)
        .into_iter()
        .filter(|z| z.rising)
        .map(|z| z.t)
        .collect();
    let (first, last) = (rising.first()?, rising.last()?);
    if rising.len() < 2 {
        return None;
    }
    let span = last - first;
    if !(span > 0.0) || !span.is_finite() {
        return None;
    }
    Some((rising.len() - 1) as f64 / span)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Decay;
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = -x[0];
        }
    }

    /// Undamped harmonic oscillator with unit angular frequency.
    struct Harmonic;
    impl OdeSystem for Harmonic {
        fn dim(&self) -> usize {
            2
        }
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[1];
            dx[1] = -x[0];
        }
    }

    #[test]
    fn rk4_matches_exponential_decay() {
        let sys = Decay;
        let mut x = [1.0];
        let dt = 1e-2;
        for s in 0..100 {
            rk4_step(&sys, s as f64 * dt, dt, &mut x);
        }
        assert!((x[0] - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn rk4_conserves_harmonic_energy_to_fourth_order() {
        let sys = Harmonic;
        let mut x = [1.0, 0.0];
        let dt = 1e-3;
        for s in 0..10_000 {
            rk4_step(&sys, s as f64 * dt, dt, &mut x);
        }
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-9, "energy drift {energy}");
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn rk4_rejects_state_of_wrong_dimension() {
        let mut x = [1.0, 0.0, 0.0];
        rk4_step(&Harmonic, 0.0, 1e-3, &mut x);
    }

    #[test]
    fn rkf45_hits_tolerance_on_decay() {
        let run = rkf45_adaptive(&Decay, 0.0, 5.0, &[1.0], 1e-10).unwrap();
        assert!((run.x[0] - (-5.0f64).exp()).abs() < 1e-7);
        assert!(run.accepted > 0);
        assert_eq!(run.t_end, 5.0);
    }

    #[test]
    fn rkf45_adapts_step_count_to_tolerance() {
        let loose = rkf45_adaptive(&Harmonic, 0.0, 20.0, &[1.0, 0.0], 1e-4).unwrap();
        let tight = rkf45_adaptive(&Harmonic, 0.0, 20.0, &[1.0, 0.0], 1e-10).unwrap();
        assert!(
            tight.accepted > loose.accepted,
            "tight {} vs loose {}",
            tight.accepted,
            loose.accepted
        );
    }

    #[test]
    fn rkf45_rejects_bad_time_span() {
        assert!(matches!(
            rkf45_adaptive(&Decay, 1.0, 1.0, &[1.0], 1e-6),
            Err(NumError::InvalidInput(_))
        ));
    }

    #[test]
    fn rkf45_rejects_bad_tolerance() {
        assert!(rkf45_adaptive(&Decay, 0.0, 1.0, &[1.0], 0.0).is_err());
    }

    #[test]
    fn rkf45_rejects_non_finite_inputs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                rkf45_adaptive(&Decay, 0.0, 1.0, &[bad], 1e-6),
                Err(NumError::InvalidInput(_))
            ));
            assert!(rkf45_adaptive(&Decay, bad, 1.0, &[1.0], 1e-6).is_err());
            assert!(rkf45_adaptive(&Decay, 0.0, bad, &[1.0], 1e-6).is_err());
        }
        assert!(rkf45_adaptive(&Decay, 0.0, 1.0, &[1.0], f64::NAN).is_err());
    }

    /// Dynamics that blow up to NaN in finite time (x' = x², pole at t=1).
    struct FiniteTimeBlowup;
    impl OdeSystem for FiniteTimeBlowup {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[0] * x[0];
        }
    }

    #[test]
    fn rkf45_terminates_with_error_when_derivatives_blow_up() {
        // Used to loop forever: a NaN error estimate fell into the
        // `err > 0.0 == false` branch, *growing* the step instead of
        // shrinking it toward the h_min bail-out. Since the step-stall
        // rework the failure is a typed `StepStall` at the pole (t = 1)
        // rather than an untyped `NoConvergence`.
        let r = rkf45_adaptive(&FiniteTimeBlowup, 0.0, 2.0, &[1.0], 1e-9);
        match r {
            Err(NumError::StepStall { t, h_min }) => {
                assert!((0.5..1.5).contains(&t), "stalled at t = {t}");
                assert!(h_min > 0.0);
            }
            other => panic!("expected StepStall, got {other:?}"),
        }
    }

    /// The next representable f64 above `v` (avoids relying on
    /// `f64::next_up` stabilization).
    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn controller_accept_boundary_is_exact_in_floating_point() {
        // Same style as the PR 8 `step_count` FP-boundary tests: the
        // accept/reject boundary sits exactly at `err == tol`, with no
        // epsilon slop in either direction.
        let c = StepController::new(1e-9, 1e-15, 1.0, 4).unwrap();
        assert!(
            matches!(c.decide(1e-3, 1e-9), StepDecision::Accept { .. }),
            "err == tol must accept"
        );
        assert!(
            matches!(c.decide(1e-3, next_up(1e-9)), StepDecision::Reject { .. }),
            "one ulp above tol must reject"
        );
        // Zero error is the cleanest accept and proposes maximal growth.
        match c.decide(1e-3, 0.0) {
            StepDecision::Accept { h_next } => assert_eq!(h_next, 4e-3),
            other => panic!("zero error must accept, got {other:?}"),
        }
    }

    #[test]
    fn controller_stalls_instead_of_silently_clamping() {
        let c = StepController::new(1e-9, 1e-6, 1.0, 4).unwrap();
        // A failing error test strictly above h_min shrinks toward it...
        match c.decide(2e-6, 1.0) {
            StepDecision::Reject { h_next } => {
                assert!(h_next >= c.h_min(), "reject must respect h_min");
                assert!(h_next < 2e-6, "reject must shrink");
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        // ...and a failing error test *at* h_min is a stall, never an
        // acceptance (the old controller accepted any step at h <= 2*h_min).
        assert_eq!(c.decide(1e-6, 1.0), StepDecision::Stall);
        assert_eq!(c.decide(1e-6, f64::NAN), StepDecision::Stall);
        // Non-finite error above h_min is a hard 5x shrink, floored at h_min.
        assert_eq!(
            c.decide(3e-6, f64::NAN),
            StepDecision::Reject { h_next: 1e-6 }
        );
    }

    #[test]
    fn controller_rejects_degenerate_construction() {
        assert!(StepController::new(0.0, 1e-12, 1.0, 4).is_err());
        assert!(StepController::new(1e-9, 0.0, 1.0, 4).is_err());
        assert!(StepController::new(1e-9, 1.0, 0.5, 4).is_err());
        assert!(StepController::new(1e-9, 1e-12, 1.0, 0).is_err());
        assert!(StepController::new(f64::NAN, 1e-12, 1.0, 4).is_err());
    }

    #[test]
    fn controller_growth_and_shrink_are_clamped() {
        let c = StepController::new(1e-6, 1e-12, 1e-2, 1).unwrap();
        // Tiny error: growth clamps at 4x, then at h_max.
        match c.decide(5e-3, 1e-30) {
            StepDecision::Accept { h_next } => assert_eq!(h_next, 1e-2),
            other => panic!("expected clamped accept, got {other:?}"),
        }
        // Huge error: shrink clamps at 0.2x.
        match c.decide(5e-3, 1e6) {
            StepDecision::Reject { h_next } => assert_eq!(h_next, 1e-3),
            other => panic!("expected clamped reject, got {other:?}"),
        }
    }

    #[test]
    fn zero_crossings_of_sine_alternate() {
        let n = 1000;
        let dt = 2.0 * std::f64::consts::PI / n as f64;
        // 1.1 periods: crossings at pi (falling) and 2*pi (rising); the t=0
        // start sample is exactly zero and belongs to the first half-wave.
        let samples: Vec<f64> = (0..=(11 * n / 10)).map(|i| (i as f64 * dt).sin()).collect();
        let zc = zero_crossings(0.0, dt, &samples);
        assert_eq!(zc.len(), 2);
        assert!(!zc[0].rising);
        assert!((zc[0].t - std::f64::consts::PI).abs() < 1e-4);
        assert!(zc[1].rising);
        assert!((zc[1].t - 2.0 * std::f64::consts::PI).abs() < 1e-4);
    }

    #[test]
    fn frequency_estimate_matches_sine() {
        let f = 3.0;
        let fs = 1000.0;
        let samples: Vec<f64> = (0..4000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let est = frequency_from_crossings(0.0, 1.0 / fs, &samples).unwrap();
        assert!((est - f).abs() < 1e-3, "estimated {est}");
    }

    #[test]
    fn frequency_needs_two_rising_crossings() {
        let samples = [1.0, 0.5, 0.25];
        assert!(frequency_from_crossings(0.0, 1.0, &samples).is_none());
    }

    #[test]
    fn frequency_rejects_zero_span_instead_of_dividing_by_zero() {
        // dt = 0 collapses every crossing onto t0: used to return Some(inf).
        let samples = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0];
        assert!(frequency_from_crossings(0.0, 0.0, &samples).is_none());
        // NaN sampling period must not leak a NaN frequency either.
        assert!(frequency_from_crossings(0.0, f64::NAN, &samples).is_none());
    }
}
