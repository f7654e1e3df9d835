//! Property-based tests on the static safety prover: the soundness
//! contract (abstract intervals contain every concrete die in the box),
//! the widening lattice laws, and the byte-stable JSON round-trip of the
//! `A0xx` verdict document.

use lcosc_campaign::Json;
use lcosc_check::{prove, AbstractDacParams, ConcreteDie, Interval, ProveFacts};
use lcosc_dac::Code;
use proptest::prelude::*;

/// Nominal leg weights mirrored from the Table 1 DAC model.
const FIXED_NOMINAL: [f64; 4] = [16.0, 16.0, 32.0, 64.0];

/// A concrete die drawn anywhere inside the abstract mismatch box:
/// every device at `nominal * (1 + u * tol)` with `u` in [-1, 1].
fn die_in_box(params: &AbstractDacParams, u: &[f64]) -> ConcreteDie {
    let k = params.k_sigma;
    let mut die = ConcreteDie::nominal();
    for (i, stage) in die.prescale_stage.iter_mut().enumerate() {
        *stage = 2.0 * (1.0 + u[i] * k * params.sigma_prescale);
    }
    for (i, leg) in die.fixed.iter_mut().enumerate() {
        // Pelgrom scaling: wider legs match better.
        let sigma = params.sigma_fixed / (FIXED_NOMINAL[i] / 16.0).sqrt();
        *leg = FIXED_NOMINAL[i] * (1.0 + u[3 + i] * k * sigma);
    }
    for (i, leg) in die.bank.iter_mut().enumerate() {
        let nominal = f64::from(1u32 << i);
        *leg = nominal * (1.0 + u[7 + i] * k * params.sigma_unit);
    }
    die
}

fn unit_box() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0..=1.0f64, 14)
}

proptest! {
    /// Soundness: for every die in the box and every code, the concrete
    /// output sits inside the abstract units interval, and the concrete
    /// relative step inside the abstract step interval.
    #[test]
    fn abstract_intervals_contain_every_die_in_the_box(
        u in unit_box(),
        code in 0u8..=127,
    ) {
        let params = AbstractDacParams::default();
        let die = die_in_box(&params, &u);
        let code = Code::new(u32::from(code)).expect("0..=127 is in range");
        let abs_units = params.side_units(code);
        let conc_units = die.units(code);
        prop_assert!(
            abs_units.contains(conc_units),
            "units at {code:?}: {conc_units} outside [{}, {}]",
            abs_units.lo,
            abs_units.hi
        );
        if let (Some(conc_step), Some(abs_step)) =
            (die.relative_step(code), params.relative_step(code))
        {
            prop_assert!(
                abs_step.rel_step.contains(conc_step),
                "step at {code:?}: {conc_step} outside [{}, {}]",
                abs_step.rel_step.lo,
                abs_step.rel_step.hi
            );
        }
    }

    /// Widening is monotone and convergent: the result encloses both
    /// arguments (an upper bound in the interval lattice), and widening
    /// with an already-enclosed interval is the identity.
    #[test]
    fn widening_is_an_upper_bound_and_stabilizes(
        a_lo in -1e3..1e3f64, a_w in 0.0..1e3f64,
        b_lo in -1e3..1e3f64, b_w in 0.0..1e3f64,
    ) {
        let a = Interval::new(a_lo, a_lo + a_w);
        let b = Interval::new(b_lo, b_lo + b_w);
        let w = a.widen(b);
        prop_assert!(w.encloses(a), "widen lost self");
        prop_assert!(w.encloses(b), "widen lost rhs");
        prop_assert!(w.encloses(a.hull(b)), "widen below the hull");
        // Once the iterate is enclosed, widening has reached a fixpoint.
        prop_assert_eq!(w.widen(b), w);
        prop_assert_eq!(w.widen(a), w);
    }

    /// The rendered verdict document survives a parse → canonicalize →
    /// render round trip byte-identically, for passing and failing
    /// windows alike (the serve cache and golden fixtures rely on it).
    #[test]
    fn verdict_json_round_trips_canonically(window in 0.02..0.40f64) {
        let facts = ProveFacts {
            window_rel_width: window,
            ..ProveFacts::chip(0.15, 4.7e-6, 1.5e-9, 1.5e-9, 1e-3)
        };
        let outcome = prove(&facts);
        let rendered = outcome.render_json();
        let parsed = Json::parse(&rendered).expect("verdict renders valid JSON");
        prop_assert_eq!(
            parsed.render_canonical(),
            outcome.to_json().render_canonical()
        );
        // The verdict is a pure function of the facts.
        prop_assert_eq!(rendered, prove(&facts).render_json());
    }
}

/// Conformance: `ConcreteDie` must decode the control bus and combine
/// devices in exactly the same operation order as the runtime DAC model
/// (`MismatchedDac`), or the soundness property above proves the wrong
/// semantics. Pinned on the ideal die and the skewed reference die.
#[test]
fn concrete_die_matches_the_runtime_dac_model() {
    use lcosc_dac::{multiplication_factor, MismatchedDac};

    let ideal = ConcreteDie::nominal();
    let reference = MismatchedDac::reference_die();
    let mut skewed = ConcreteDie::nominal();
    skewed.prescale_stage = [2.0, 2.02, 1.93];
    skewed.fixed = [16.10, 15.95, 32.25, 63.40];
    for code in Code::all() {
        let nominal_units = f64::from(multiplication_factor(code));
        assert!(
            (ideal.units(code) - nominal_units).abs() < 1e-9,
            "ideal die diverges at {code:?}"
        );
        // The reference die's top side shares the skewed prescaler and
        // fixed legs with an ideal bank — exactly `skewed`.
        let (a, b) = (skewed.units(code), reference.top_units(code));
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "skewed die diverges at {code:?}: {a} vs {b}"
        );
    }
    // The signature Fig 14 artifact survives the mirror: the 95 → 96
    // hand-over steps down on this die (the ×4 → ×8 prescaler swap).
    let step95 = skewed.relative_step(Code::new(95).expect("95 in range"));
    assert!(step95.expect("interior code") < 0.0);
}
