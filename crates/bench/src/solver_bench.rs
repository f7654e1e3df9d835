//! Deterministic benchmark harness for the PR 4 transient-solver fast path.
//!
//! Runs a fixed set of transient decks through both solver paths
//! ([`SolverPath::Auto`] and [`SolverPath::Reference`]), hard-fails unless
//! the two produce bit-identical waveforms, and reports wall-clock plus the
//! deterministic [`SolverStats`] counters as a byte-stable-format JSON
//! document (ordered keys, shortest-roundtrip floats — the same renderer as
//! the campaign reports). Only the `wall_s`/`speedup` *values* are
//! machine-dependent; everything else is a pure function of the decks.
//!
//! The headline number, `cycle_fidelity_speedup`, is measured on the
//! paper's §2 tank (L = 25 µH, C1 = C2 = 2 nF, Rs = 15 Ω) ring-down at
//! cycle-fidelity step density (200 steps per carrier cycle, trapezoidal)
//! — the deck shape behind every startup-envelope, Q-sweep and FMEA
//! artifact. The regression trajectory lives in `BENCH_*.json` files at
//! the repository root (`repro --bench-out BENCH_PR4.json`).

use lcosc_campaign::Json;
use lcosc_circuit::{
    run_transient, Integrator, Netlist, SolverPath, SolverStats, TransientOptions, TransientResult,
    Waveform,
};
use lcosc_trace::{Trace, TraceEvent};
use std::time::{Duration, Instant};

/// Timing laps per (case, path); the minimum is reported, which is the
/// standard way to suppress scheduler noise on a shared machine.
const LAPS: u32 = 3;

/// Paper tank parameters (§2 / Table: L = 25 µH, C1 = C2 = 2 nF in series
/// around the loop, Rs = 15 Ω) → f0 ≈ 1.0066 MHz.
const TANK_L: f64 = 25e-6;
const TANK_C: f64 = 2e-9;
const TANK_RS: f64 = 15.0;

/// One benchmark deck plus its run options.
struct BenchCase {
    name: &'static str,
    /// Whether this case is the cycle-fidelity headline measurement.
    headline: bool,
    netlist: Netlist,
    opts: TransientOptions,
}

/// Measured outcome of one case: both paths, their stats, the speedup.
pub struct CaseOutcome {
    /// Case identifier (stable across PRs — the regression key).
    pub name: &'static str,
    /// Whether this case produces the headline `cycle_fidelity_speedup`.
    pub headline: bool,
    /// MNA unknowns of the deck.
    pub unknowns: usize,
    /// Fast-path ([`SolverPath::Auto`]) minimum wall-clock over the laps.
    pub fast_wall: Duration,
    /// Reference-path minimum wall-clock over the laps.
    pub reference_wall: Duration,
    /// Fast-path solver counters.
    pub fast_stats: SolverStats,
    /// Reference-path solver counters.
    pub reference_stats: SolverStats,
}

impl CaseOutcome {
    /// Reference wall-clock divided by fast wall-clock.
    pub fn speedup(&self) -> f64 {
        self.reference_wall.as_secs_f64() / self.fast_wall.as_secs_f64().max(1e-12)
    }
}

/// The full benchmark report.
pub struct SolverBenchReport {
    /// Per-case outcomes in declaration order.
    pub cases: Vec<CaseOutcome>,
}

impl SolverBenchReport {
    /// The headline speedup: the cycle-fidelity tank ring-down case.
    pub fn cycle_fidelity_speedup(&self) -> f64 {
        self.cases
            .iter()
            .find(|c| c.headline)
            .map(CaseOutcome::speedup)
            .unwrap_or(0.0)
    }

    /// Renders the report (plus the campaign speedups measured by the
    /// caller) as the `BENCH_*.json` document.
    pub fn to_json(&self, campaigns: &[(String, Option<f64>)]) -> Json {
        Json::obj([
            ("bench", Json::from("pr4_transient_solver_fast_path")),
            (
                "cycle_fidelity_speedup",
                Json::from(self.cycle_fidelity_speedup()),
            ),
            (
                "cases",
                Json::Array(self.cases.iter().map(case_json).collect()),
            ),
            (
                "campaigns",
                Json::Array(
                    campaigns
                        .iter()
                        .map(|(name, speedup)| {
                            Json::obj([
                                ("name", Json::from(name.clone())),
                                ("speedup_vs_serial", speedup.map_or(Json::Null, Json::from)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn case_json(c: &CaseOutcome) -> Json {
    Json::obj([
        ("name", Json::from(c.name)),
        ("headline", Json::from(c.headline)),
        ("unknowns", Json::from(c.unknowns)),
        ("bit_identical", Json::from(true)),
        ("speedup", Json::from(c.speedup())),
        ("fast_wall_s", Json::from(c.fast_wall.as_secs_f64())),
        (
            "reference_wall_s",
            Json::from(c.reference_wall.as_secs_f64()),
        ),
        ("fast", stats_json(&c.fast_stats)),
        ("reference", stats_json(&c.reference_stats)),
    ])
}

fn stats_json(s: &SolverStats) -> Json {
    let int = |v: u64| Json::from(i64::try_from(v).unwrap_or(i64::MAX));
    Json::obj([
        ("steps", int(s.steps)),
        ("newton_iterations", int(s.newton_iterations)),
        ("factorizations", int(s.factorizations)),
        ("factor_reuses", int(s.factor_reuses)),
        ("allocations", int(s.allocations)),
        ("post_warmup_allocations", int(s.post_warmup_allocations)),
        ("linear_fast_path", Json::from(s.used_linear_fast_path)),
    ])
}

/// The paper tank as a ring-down deck: both loop capacitors precharged to
/// ±1 V, no driver — the same construction the substrate cross-validation
/// tests use.
fn paper_tank() -> Netlist {
    paper_tank_with_lc2().0
}

/// [`paper_tank`] plus the LC2 node id, for decks that attach extra
/// elements to it (`Netlist::node` always mints a fresh node, so the id
/// must be threaded out).
fn paper_tank_with_lc2() -> (Netlist, lcosc_circuit::NodeId) {
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    nl.capacitor_ic(lc1, Netlist::GROUND, TANK_C, 1.0);
    nl.capacitor_ic(lc2, Netlist::GROUND, TANK_C, -1.0);
    nl.inductor(lc1, mid, TANK_L);
    nl.resistor(mid, lc2, TANK_RS);
    (nl, lc2)
}

/// Paper-tank resonance, series Ceff = C/2.
fn tank_f0() -> f64 {
    1.0 / (2.0 * std::f64::consts::PI * (TANK_L * TANK_C / 2.0).sqrt())
}

/// A larger linear deck: an `n`-section RC ladder driven by a sine source,
/// exercising the factorization cache where the dense LU actually
/// dominates (MNA size `n + 2`).
fn rc_ladder(n: usize) -> Netlist {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    nl.voltage_source(
        vin,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 1.0,
            frequency: 1e6,
            phase: 0.0,
        },
    );
    let mut prev = vin;
    for i in 0..n {
        let node = nl.node(&format!("n{i}"));
        nl.resistor(prev, node, 100.0);
        nl.capacitor(node, Netlist::GROUND, 100e-12);
        prev = node;
    }
    nl
}

/// The nonlinear variant: the tank with a diode clamp across LC2, forcing
/// the per-iteration Newton restamp (the fast path degrades gracefully to
/// workspace reuse only).
fn diode_clamped_tank() -> Netlist {
    let (mut nl, lc2) = paper_tank_with_lc2();
    nl.diode(
        lc2,
        Netlist::GROUND,
        lcosc_device::diode::DiodeModel::default(),
    );
    nl
}

fn cases() -> Vec<BenchCase> {
    let f0 = tank_f0();
    // Cycle fidelity: 200 steps per carrier cycle (OscillatorConfig's
    // steps_per_cycle default), a few hundred cycles of ring-down.
    let dt = 1.0 / (f0 * 200.0);
    let mut trap = TransientOptions::new(dt, 300.0 / f0);
    trap.record_stride = 8;
    let mut be = trap;
    be.integrator = Integrator::BackwardEuler;
    let mut ladder_opts = TransientOptions::new(1e-9, 20e-6);
    ladder_opts.record_stride = 16;
    let mut diode_opts = TransientOptions::new(dt, 60.0 / f0);
    diode_opts.record_stride = 8;
    vec![
        BenchCase {
            name: "tank_ring_down_cycle_trap",
            headline: true,
            netlist: paper_tank(),
            opts: trap,
        },
        BenchCase {
            name: "tank_ring_down_cycle_be",
            headline: false,
            netlist: paper_tank(),
            opts: be,
        },
        BenchCase {
            name: "rc_ladder_32",
            headline: false,
            netlist: rc_ladder(32),
            opts: ladder_opts,
        },
        BenchCase {
            name: "diode_clamped_tank",
            headline: false,
            netlist: diode_clamped_tank(),
            opts: diode_opts,
        },
    ]
}

/// Runs one (deck, options) pair `LAPS` times, returning the minimum
/// wall-clock and the (identical every lap) result.
fn time_path(nl: &Netlist, opts: &TransientOptions) -> Result<(Duration, TransientResult), String> {
    let mut best: Option<(Duration, TransientResult)> = None;
    for _ in 0..LAPS {
        let start = Instant::now();
        let res = run_transient(nl, opts).map_err(|e| format!("{}: {e}", "bench transient"))?;
        let wall = start.elapsed();
        best = match best {
            Some((w, r)) if w <= wall => Some((w, r)),
            _ => Some((wall, res)),
        };
    }
    best.ok_or_else(|| "no laps run".to_string())
}

/// Bitwise equality for f64 slices (NaN-safe, distinguishes signed zeros —
/// stricter than `==`).
pub(crate) fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the full benchmark. Every case runs both solver paths; a bitwise
/// waveform mismatch is a hard error (the bench refuses to report a
/// speedup for a wrong answer). Fast-path solver counters are emitted as
/// [`TraceEvent::SolverStats`] on `tracer`.
///
/// # Errors
///
/// A transient failure or a fast/reference bitwise mismatch, with the case
/// name.
pub fn run_solver_bench(tracer: &Trace) -> Result<SolverBenchReport, String> {
    let mut outcomes = Vec::new();
    for case in cases() {
        let fast_opts = case.opts;
        let mut ref_opts = case.opts;
        ref_opts.solver = SolverPath::Reference;

        let (fast_wall, fast_res) = time_path(&case.netlist, &fast_opts)?;
        let (reference_wall, ref_res) = time_path(&case.netlist, &ref_opts)?;

        if !bits_equal(fast_res.times(), ref_res.times())
            || !bits_equal(fast_res.voltages_flat(), ref_res.voltages_flat())
            || !bits_equal(fast_res.currents_flat(), ref_res.currents_flat())
        {
            return Err(format!(
                "case {}: fast path diverged bitwise from the reference path",
                case.name
            ));
        }

        let s = fast_res.stats();
        tracer.emit(|| TraceEvent::SolverStats {
            steps: s.steps,
            newton_iterations: s.newton_iterations,
            factorizations: s.factorizations,
            factor_reuses: s.factor_reuses,
            post_warmup_allocations: s.post_warmup_allocations,
            batched_lanes: s.batched_lanes,
            symbolic_analyses: s.symbolic_analyses,
            symbolic_reuses: s.symbolic_reuses,
            steps_accepted: s.steps_accepted,
            steps_rejected: s.steps_rejected,
            mode_switches: s.mode_switches,
            envelope_permille: s.envelope_permille,
        });

        outcomes.push(CaseOutcome {
            name: case.name,
            headline: case.headline,
            unknowns: case.netlist.unknown_count(),
            fast_wall,
            reference_wall,
            fast_stats: s,
            reference_stats: ref_res.stats(),
        });
    }
    Ok(SolverBenchReport { cases: outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_are_well_formed() {
        assert!(paper_tank().is_linear());
        assert_eq!(paper_tank().unknown_count(), 4);
        assert!(!diode_clamped_tank().is_linear());
        assert!(rc_ladder(8).is_linear());
        assert_eq!(rc_ladder(8).unknown_count(), 10);
        let f0 = tank_f0();
        assert!((f0 / 1.0066e6 - 1.0).abs() < 1e-3, "f0 {f0}");
    }

    #[test]
    fn bits_equal_is_strict() {
        assert!(bits_equal(&[1.0, 0.0], &[1.0, 0.0]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
        assert!(bits_equal(&[f64::NAN], &[f64::NAN]));
    }

    #[test]
    fn short_bench_runs_and_reports() {
        // A miniature version of the real bench: same machinery, tiny deck.
        let nl = paper_tank();
        let mut opts = TransientOptions::new(1.0 / (tank_f0() * 50.0), 5.0 / tank_f0());
        opts.record_stride = 4;
        let (_, fast) = time_path(&nl, &opts).expect("fast run");
        let mut ref_opts = opts;
        ref_opts.solver = SolverPath::Reference;
        let (_, reference) = time_path(&nl, &ref_opts).expect("reference run");
        assert!(bits_equal(fast.voltages_flat(), reference.voltages_flat()));
        assert!(fast.stats().used_linear_fast_path);
        assert_eq!(fast.stats().factorizations, 1);
        assert_eq!(fast.stats().post_warmup_allocations, 0);
        assert_eq!(reference.stats().post_warmup_allocations, 0);
    }

    #[test]
    fn report_json_is_ordered_and_complete() {
        let report = SolverBenchReport {
            cases: vec![CaseOutcome {
                name: "case_a",
                headline: true,
                unknowns: 4,
                fast_wall: Duration::from_millis(10),
                reference_wall: Duration::from_millis(40),
                fast_stats: SolverStats::default(),
                reference_stats: SolverStats::default(),
            }],
        };
        assert!((report.cycle_fidelity_speedup() - 4.0).abs() < 1e-12);
        let json = report
            .to_json(&[("fmea".to_string(), Some(2.5))])
            .render_pretty(2);
        for key in [
            "cycle_fidelity_speedup",
            "bit_identical",
            "factor_reuses",
            "post_warmup_allocations",
            "speedup_vs_serial",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
