//! Cycle-accurate coupled dual-oscillator model (paper §8, Fig 9).
//!
//! The envelope-level [`crate::dual::DualSystem`] reflects the dead
//! partner's load through a secant conductance; this module is the
//! waveform-level ground truth: two complete tanks with mutual inductance
//! `M = k·√(La·Lb)`, each with its own cross-coupled limited driver, and a
//! piecewise pin load standing in for the dead chip's pad behavior.
//!
//! States: `[v1a, v2a, iLa, v1b, v2b, iLb]`. The coupled coil equations
//!
//! ```text
//! [La M; M Lb] · [diLa/dt; diLb/dt] = [vda − Rsa·iLa; vdb − Rsb·iLb]
//! ```
//!
//! are solved in closed form each evaluation.

use lcosc_core::gm_driver::GmDriver;
use lcosc_core::oscillator::OscillatorState;
use lcosc_core::tank::LcTank;
use lcosc_num::ode::{rk4_step, OdeSystem};

/// Pin load presented by an unsupplied partner chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnsuppliedLoad {
    /// Fig 11 pad: no conduction inside the operating range.
    Isolated,
    /// Fig 10a pad: junction/channel clamp conducting `g` siemens beyond
    /// `v_knee` volts from ground in either direction.
    DiodeClamp {
        /// Knee voltage, volts.
        v_knee: f64,
        /// Conductance beyond the knee, siemens.
        g: f64,
    },
}

impl UnsuppliedLoad {
    /// Pin current drawn by the load at pin voltage `v` (positive current
    /// leaves the pin).
    pub fn current(&self, v: f64) -> f64 {
        match *self {
            UnsuppliedLoad::Isolated => 0.0,
            UnsuppliedLoad::DiodeClamp { v_knee, g } => {
                if v > v_knee {
                    g * (v - v_knee)
                } else if v < -v_knee {
                    g * (v + v_knee)
                } else {
                    0.0
                }
            }
        }
    }
}

/// Two mutually coupled oscillator systems.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledOscillators {
    tank_a: LcTank,
    tank_b: LcTank,
    mutual: f64,
    driver_a: GmDriver,
    driver_b: GmDriver,
    vref_a: f64,
    vref_b: f64,
    b_supplied: bool,
    b_load: UnsuppliedLoad,
}

impl CoupledOscillators {
    /// Creates the pair with coupling factor `k` (mutual inductance
    /// `M = k·√(La·Lb)`); both systems biased at `vref` and supplied.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= k < 1` (k = 1 makes the inductance matrix
    /// singular).
    pub fn new(tank_a: LcTank, tank_b: LcTank, k: f64, driver: GmDriver, vref: f64) -> Self {
        assert!((0.0..1.0).contains(&k), "coupling must be in [0, 1)");
        let mutual = k * (tank_a.l().value() * tank_b.l().value()).sqrt();
        CoupledOscillators {
            tank_a,
            tank_b,
            mutual,
            driver_a: driver,
            driver_b: driver,
            vref_a: vref,
            vref_b: vref,
            b_supplied: true,
            b_load: UnsuppliedLoad::Isolated,
        }
    }

    /// Removes system B's supply: its drivers die, its DC bias collapses to
    /// ground and its pads present `load`.
    pub fn kill_supply_b(&mut self, load: UnsuppliedLoad) {
        self.b_supplied = false;
        self.vref_b = 0.0;
        self.b_load = load;
    }

    /// Runs for `duration` seconds with RK4 steps `dt`; returns the
    /// differential waveforms of both systems.
    ///
    /// # Panics
    ///
    /// Panics unless `dt > 0` and `duration > dt`.
    pub fn run(&self, duration: f64, dt: f64) -> (Vec<f64>, Vec<f64>) {
        assert!(dt > 0.0 && duration > dt, "need duration > dt > 0");
        let steps = (duration / dt).ceil() as usize;
        let a0 = OscillatorState::at_rest(self.vref_a);
        let b0 = OscillatorState::at_rest(self.vref_b);
        let mut x = [a0.v1, a0.v2, a0.il, b0.v1, b0.v2, b0.il];
        let mut vd_a = Vec::with_capacity(steps);
        let mut vd_b = Vec::with_capacity(steps);
        for k in 0..steps {
            rk4_step(self, k as f64 * dt, dt, &mut x);
            vd_a.push(x[0] - x[1]);
            vd_b.push(x[3] - x[4]);
        }
        (vd_a, vd_b)
    }

    /// Steady-state differential amplitude of system A (peak, from the
    /// trailing fifth of a run).
    pub fn survivor_amplitude(&self, duration: f64, dt: f64) -> f64 {
        let (vd_a, _) = self.run(duration, dt);
        vd_a[4 * vd_a.len() / 5..]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

impl OdeSystem for CoupledOscillators {
    fn dim(&self) -> usize {
        6
    }

    fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
        let (v1a, v2a, ila, v1b, v2b, ilb) = (x[0], x[1], x[2], x[3], x[4], x[5]);

        // Driver currents (cross-coupled inverting stages).
        let (i1a, i2a) = (
            -self.driver_a.current(v2a - self.vref_a),
            -self.driver_a.current(v1a - self.vref_a),
        );
        let (i1b, i2b) = if self.b_supplied {
            (
                -self.driver_b.current(v2b - self.vref_b),
                -self.driver_b.current(v1b - self.vref_b),
            )
        } else {
            (-self.b_load.current(v1b), -self.b_load.current(v2b))
        };

        let (c1a, c2a) = (self.tank_a.c1().value(), self.tank_a.c2().value());
        let (c1b, c2b) = (self.tank_b.c1().value(), self.tank_b.c2().value());
        dx[0] = (i1a - ila) / c1a;
        dx[1] = (i2a + ila) / c2a;
        dx[3] = (i1b - ilb) / c1b;
        dx[4] = (i2b + ilb) / c2b;

        // Coupled inductors: solve the 2x2 system for the current slopes.
        let la = self.tank_a.l().value();
        let lb = self.tank_b.l().value();
        let m = self.mutual;
        let ea = (v1a - v2a) - self.tank_a.rs().value() * ila;
        let eb = (v1b - v2b) - self.tank_b.rs().value() * ilb;
        let det = la * lb - m * m;
        dx[2] = (lb * ea - m * eb) / det;
        dx[5] = (la * eb - m * ea) / det;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcosc_core::gm_driver::DriverShape;
    use lcosc_num::ode::frequency_from_crossings;
    use lcosc_num::units::{Farads, Henries};

    fn tank() -> LcTank {
        LcTank::with_q(Henries::from_micro(25.0), Farads::from_nano(2.0), 10.0)
            .expect("tank constants are valid")
    }

    fn driver(i_max: f64) -> GmDriver {
        GmDriver::new(DriverShape::LinearSaturate { gm: 10e-3 }, i_max)
    }

    fn dt() -> f64 {
        1.0 / tank().f0().value() / 100.0
    }

    #[test]
    fn both_systems_lock_to_a_common_frequency() {
        let sys = CoupledOscillators::new(tank(), tank(), 0.3, driver(1e-3), 1.65);
        let span = 300.0 / tank().f0().value();
        let (vd_a, vd_b) = sys.run(span, dt());
        let fa = frequency_from_crossings(0.0, dt(), &vd_a[vd_a.len() / 2..])
            .expect("system A oscillates");
        let fb = frequency_from_crossings(0.0, dt(), &vd_b[vd_b.len() / 2..])
            .expect("system B oscillates");
        // Paper: "the two systems are running at the same frequency".
        assert!((fa / fb - 1.0).abs() < 0.01, "fa {fa} vs fb {fb}");
    }

    #[test]
    fn passive_dead_partner_keeps_survivor_running() {
        // The dead partner's *passive* tank loss always reflects into the
        // survivor (the coils are coupled by design); the §8 claim is that
        // the chip adds nothing beyond it. The survivor must keep a robust
        // oscillation — the regulation loop (not modeled here; i_max fixed)
        // would then restore the amplitude.
        let span = 400.0 / tank().f0().value();
        let solo = CoupledOscillators::new(tank(), tank(), 0.0, driver(1e-3), 1.65)
            .survivor_amplitude(span, dt());
        let mut pair = CoupledOscillators::new(tank(), tank(), 0.5, driver(1e-3), 1.65);
        pair.kill_supply_b(UnsuppliedLoad::Isolated);
        let with_dead = pair.survivor_amplitude(span, dt());
        assert!(
            with_dead > 0.6 * solo,
            "solo {solo} vs with dead partner {with_dead}"
        );
        // And raising the current limit recovers the amplitude — the loop's
        // compensation path exists.
        let mut compensated = CoupledOscillators::new(tank(), tank(), 0.5, driver(1.5e-3), 1.65);
        compensated.kill_supply_b(UnsuppliedLoad::Isolated);
        let recovered = compensated.survivor_amplitude(span, dt());
        assert!(
            recovered > 0.95 * solo,
            "recovered {recovered} vs solo {solo}"
        );
    }

    #[test]
    fn clamping_dead_partner_loads_survivor() {
        let span = 400.0 / tank().f0().value();
        let mut isolated = CoupledOscillators::new(tank(), tank(), 0.5, driver(1e-3), 1.65);
        isolated.kill_supply_b(UnsuppliedLoad::Isolated);
        let a_isolated = isolated.survivor_amplitude(span, dt());

        let mut clamped = CoupledOscillators::new(tank(), tank(), 0.5, driver(1e-3), 1.65);
        clamped.kill_supply_b(UnsuppliedLoad::DiodeClamp {
            v_knee: 0.6,
            g: 20e-3,
        });
        let a_clamped = clamped.survivor_amplitude(span, dt());
        assert!(
            a_clamped < 0.9 * a_isolated,
            "isolated {a_isolated} vs clamped {a_clamped}"
        );
    }

    #[test]
    fn dead_partner_pins_stay_bounded_when_isolated() {
        let mut sys = CoupledOscillators::new(tank(), tank(), 0.5, driver(1e-3), 1.65);
        sys.kill_supply_b(UnsuppliedLoad::Isolated);
        let (_, vd_b) = sys.run(300.0 / tank().f0().value(), dt());
        let peak_b = vd_b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // The passive tank rings with the coupled energy but stays within
        // the same order as the survivor's swing.
        assert!(peak_b > 0.05, "coupling should induce a swing: {peak_b}");
        assert!(peak_b < 10.0, "unphysical swing {peak_b}");
    }

    #[test]
    fn load_current_shape() {
        let clamp = UnsuppliedLoad::DiodeClamp {
            v_knee: 0.6,
            g: 0.02,
        };
        assert_eq!(clamp.current(0.3), 0.0);
        assert_eq!(clamp.current(-0.3), 0.0);
        assert!((clamp.current(1.6) - 0.02).abs() < 1e-12);
        assert!((clamp.current(-1.6) + 0.02).abs() < 1e-12);
        assert_eq!(UnsuppliedLoad::Isolated.current(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "coupling")]
    fn rejects_unity_coupling() {
        let _ = CoupledOscillators::new(tank(), tank(), 1.0, driver(1e-3), 1.65);
    }
}
