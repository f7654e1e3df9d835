//! DC operating-point analysis: Newton–Raphson with gmin stepping and
//! source stepping fallbacks.

use crate::analysis::{newton_solve, NewtonLimits};
use crate::netlist::{ElementId, Netlist, NodeId};
use crate::stamp::{element_current, Mode};
use crate::Result;

/// Options controlling the DC solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Newton iteration budget per continuation step.
    pub max_iter: usize,
    /// Convergence tolerance on node-voltage updates, volts.
    pub v_tol: f64,
    /// Per-iteration node-voltage step limit, volts.
    pub v_step_limit: f64,
    /// Final gmin left in place (0 disables; keep small but non-zero for
    /// floating nodes such as an unsupplied Vdd rail).
    pub gmin_final: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iter: 200,
            v_tol: 1e-9,
            v_step_limit: 2.0,
            gmin_final: 1e-12,
        }
    }
}

/// A converged DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    x: Vec<f64>,
    node_count: usize,
    currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage of a node relative to ground.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved netlist.
    pub fn voltage(&self, n: NodeId) -> f64 {
        assert!(n.index() < self.node_count, "node {n} not in solution");
        if n.is_ground() {
            0.0
        } else {
            self.x[n.index() - 1]
        }
    }

    /// Current through an element (see [`crate::netlist::Element`] docs for
    /// sign conventions; for a voltage source, positive current flows from
    /// the positive terminal through the source).
    ///
    /// # Panics
    ///
    /// Panics if the element does not belong to the solved netlist.
    pub fn current(&self, e: ElementId) -> f64 {
        self.currents[e.index()]
    }

    /// Raw unknown vector (node voltages then branch currents) — useful as
    /// a warm start for continuation.
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Solves the DC operating point with default options.
///
/// # Errors
///
/// Returns [`crate::CircuitError::NoConvergence`] when Newton, gmin
/// stepping *and* source stepping all fail, or
/// [`crate::CircuitError::Singular`] for a structurally singular netlist.
pub fn solve_dc(nl: &Netlist) -> Result<DcSolution> {
    solve_dc_with(nl, &DcOptions::default(), None)
}

/// Solves the DC operating point with explicit options and an optional warm
/// start (e.g. the previous point of a sweep).
///
/// # Errors
///
/// See [`solve_dc`].
pub fn solve_dc_with(
    nl: &Netlist,
    opts: &DcOptions,
    warm_start: Option<&[f64]>,
) -> Result<DcSolution> {
    let n = nl.unknown_count();
    let x0: Vec<f64> = match warm_start {
        Some(w) if w.len() == n => w.to_vec(),
        _ => vec![0.0; n],
    };

    let lim = NewtonLimits {
        max_iter: opts.max_iter,
        v_tol: opts.v_tol,
        v_step_limit: opts.v_step_limit,
        analysis: "dc",
    };
    let mode_final = Mode::Dc {
        gmin: opts.gmin_final,
        source_scale: 1.0,
    };

    // 1. Direct Newton from the warm start.
    let direct = newton_solve(nl, &x0, &mode_final, &lim, 0.0);
    let x = match direct {
        Ok(x) => x,
        Err(_) => {
            // 2. gmin stepping: relax then tighten.
            let mut x = x0.clone();
            let mut ok = true;
            for gmin in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, opts.gmin_final.max(1e-14)] {
                let mode = Mode::Dc {
                    gmin,
                    source_scale: 1.0,
                };
                match newton_solve(nl, &x, &mode, &lim, 0.0) {
                    Ok(xn) => x = xn,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                x
            } else {
                // 3. Source stepping at a mildly relaxed gmin.
                let mut x = x0.clone();
                for step in 1..=10 {
                    let scale = step as f64 / 10.0;
                    let mode = Mode::Dc {
                        gmin: opts.gmin_final.max(1e-12),
                        source_scale: scale,
                    };
                    x = newton_solve(nl, &x, &mode, &lim, scale)?;
                }
                x
            }
        }
    };

    let branch = nl.branch_indices();
    let currents = (0..nl.elements().len())
        .map(|k| element_current(nl, &branch, k, &x, &mode_final))
        .collect();
    Ok(DcSolution {
        x,
        node_count: nl.node_count(),
        currents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;
    use lcosc_device::diode::DiodeModel;
    use lcosc_device::mos::MosModel;

    #[test]
    fn voltage_divider() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(10.0));
        nl.resistor(vin, out, 1e3);
        nl.resistor(out, Netlist::GROUND, 3e3);
        let s = solve_dc(&nl).unwrap();
        assert!((s.voltage(out) - 7.5).abs() < 1e-6);
        assert_eq!(s.voltage(Netlist::GROUND), 0.0);
    }

    #[test]
    fn source_current_through_divider() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let v = nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(10.0));
        nl.resistor(vin, Netlist::GROUND, 2e3);
        let s = solve_dc(&nl).unwrap();
        // 5 mA flows out of the + terminal, i.e. -5 mA through the source.
        assert!((s.current(v) + 5e-3).abs() < 1e-8);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.current_source(a, Netlist::GROUND, Waveform::Dc(1e-3));
        nl.resistor(a, Netlist::GROUND, 1e3);
        let s = solve_dc(&nl).unwrap();
        assert!((s.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diode_drop_under_bias() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let d = nl.node("d");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(5.0));
        let r = nl.resistor(vin, d, 10e3);
        nl.diode(d, Netlist::GROUND, DiodeModel::default());
        let s = solve_dc(&nl).unwrap();
        let vd = s.voltage(d);
        assert!((0.4..0.8).contains(&vd), "diode drop {vd}");
        // KCL: resistor current equals diode current.
        let ir = s.current(r);
        assert!((ir - (5.0 - vd) / 10e3).abs() < 1e-9);
    }

    #[test]
    fn reverse_diode_blocks() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let d = nl.node("d");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(-5.0));
        nl.resistor(vin, d, 10e3);
        let diode = nl.diode(d, Netlist::GROUND, DiodeModel::default());
        let s = solve_dc(&nl).unwrap();
        assert!(s.current(diode).abs() < 1e-10);
        assert!((s.voltage(d) + 5.0).abs() < 1e-3);
    }

    #[test]
    fn nmos_common_source_pulls_down() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let gate = nl.node("gate");
        let drain = nl.node("drain");
        nl.voltage_source(vdd, Netlist::GROUND, Waveform::Dc(3.3));
        nl.voltage_source(gate, Netlist::GROUND, Waveform::Dc(3.3));
        nl.resistor(vdd, drain, 10e3);
        nl.mosfet(
            drain,
            gate,
            Netlist::GROUND,
            Netlist::GROUND,
            MosModel::nmos_035um(),
        );
        let s = solve_dc(&nl).unwrap();
        assert!(
            s.voltage(drain) < 0.3,
            "on transistor should pull low: {}",
            s.voltage(drain)
        );
    }

    #[test]
    fn nmos_off_leaves_drain_high() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let drain = nl.node("drain");
        nl.voltage_source(vdd, Netlist::GROUND, Waveform::Dc(3.3));
        nl.resistor(vdd, drain, 10e3);
        nl.mosfet(
            drain,
            Netlist::GROUND,
            Netlist::GROUND,
            Netlist::GROUND,
            MosModel::nmos_035um(),
        );
        let s = solve_dc(&nl).unwrap();
        assert!(s.voltage(drain) > 3.2);
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        let build = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let inp = nl.node("in");
            let out = nl.node("out");
            nl.voltage_source(vdd, Netlist::GROUND, Waveform::Dc(3.3));
            nl.voltage_source(inp, Netlist::GROUND, Waveform::Dc(vin));
            nl.mosfet(
                out,
                inp,
                Netlist::GROUND,
                Netlist::GROUND,
                MosModel::nmos_035um(),
            );
            nl.mosfet(out, inp, vdd, vdd, MosModel::pmos_035um());
            (nl, out)
        };
        let (nl, out) = build(0.0);
        let s = solve_dc(&nl).unwrap();
        assert!(
            s.voltage(out) > 3.25,
            "low in -> high out: {}",
            s.voltage(out)
        );
        let (nl, out) = build(3.3);
        let s = solve_dc(&nl).unwrap();
        assert!(
            s.voltage(out) < 0.05,
            "high in -> low out: {}",
            s.voltage(out)
        );
    }

    #[test]
    fn vccs_acts_as_transconductor() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.voltage_source(inp, Netlist::GROUND, Waveform::Dc(0.1));
        nl.vccs(out, Netlist::GROUND, inp, Netlist::GROUND, 1e-3);
        nl.resistor(out, Netlist::GROUND, 10e3);
        let s = solve_dc(&nl).unwrap();
        // i = gm*vin = 0.1 mA leaves node out -> out voltage = -i*R = -1 V.
        assert!((s.voltage(out) + 1.0).abs() < 1e-6, "{}", s.voltage(out));
    }

    #[test]
    fn floating_node_settles_via_gmin() {
        let mut nl = Netlist::new();
        let float = nl.node("float");
        let a = nl.node("a");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        nl.resistor(a, Netlist::GROUND, 1e3);
        // "float" only connects through a reverse diode: gmin must keep the
        // matrix solvable.
        nl.diode(float, a, DiodeModel::default());
        let s = solve_dc(&nl).unwrap();
        assert!(s.voltage(float).is_finite());
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(2.0));
        let l = nl.inductor(a, b, 1e-6);
        nl.resistor(b, Netlist::GROUND, 1e3);
        let s = solve_dc(&nl).unwrap();
        assert!((s.voltage(b) - 2.0).abs() < 1e-6);
        assert!((s.current(l) - 2e-3).abs() < 1e-8);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.voltage_source(a, Netlist::GROUND, Waveform::Dc(2.0));
        nl.capacitor(a, b, 1e-9);
        nl.resistor(b, Netlist::GROUND, 1e3);
        let s = solve_dc(&nl).unwrap();
        assert!(s.voltage(b).abs() < 1e-6);
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let d = nl.node("d");
        nl.voltage_source(vin, Netlist::GROUND, Waveform::Dc(5.0));
        nl.resistor(vin, d, 10e3);
        nl.diode(d, Netlist::GROUND, DiodeModel::default());
        let cold = solve_dc(&nl).unwrap();
        let warm = solve_dc_with(&nl, &DcOptions::default(), Some(cold.raw())).unwrap();
        assert!((cold.voltage(d) - warm.voltage(d)).abs() < 1e-9);
    }

    #[test]
    fn empty_netlist_solves_trivially() {
        let nl = Netlist::new();
        let s = solve_dc(&nl).unwrap();
        assert_eq!(s.voltage(Netlist::GROUND), 0.0);
    }
}
