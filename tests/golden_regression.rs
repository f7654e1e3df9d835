//! Golden-file regression harness: key reports are rendered to byte-stable
//! JSON and compared against fixtures under `tests/golden/`. Regenerate a
//! fixture after an intentional model change with
//!
//! ```text
//! LCOSC_BLESS=1 cargo test -q --test golden_regression
//! ```
//!
//! and review the fixture diff like any other code change. Byte stability
//! comes from the [`lcosc::campaign::Json`] renderer: ordered keys and
//! shortest-roundtrip float formatting, so any byte difference is a real
//! behavioural difference.

use lcosc::campaign::Json;
use lcosc::circuit::{run_transient, Netlist, TransientOptions};
use lcosc::core::config::OscillatorConfig;
use lcosc::dac::{multiplication_factor, relative_step, Code, DacMismatchParams};
use lcosc::safety::FmeaReport;
use std::path::PathBuf;

/// Compares `rendered` against `tests/golden/<name>`, or rewrites the
/// fixture when `LCOSC_BLESS=1` is set.
fn golden(name: &str, rendered: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    // The workspace's one sanctioned environment read (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let bless = std::env::var_os("LCOSC_BLESS").is_some_and(|v| v == "1");
    if bless {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(regenerate with LCOSC_BLESS=1 cargo test --test golden_regression)",
            path.display()
        )
    });
    if expected != rendered {
        // Point at the first differing line to keep the failure readable.
        let diff_line = expected
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.lines().count().min(rendered.lines().count()));
        panic!(
            "golden mismatch for {name} at line {}:\n  expected: {}\n  actual:   {}\n\
             (regenerate with LCOSC_BLESS=1 if the change is intentional)",
            diff_line + 1,
            expected.lines().nth(diff_line).unwrap_or("<eof>"),
            rendered.lines().nth(diff_line).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn fmea_fast_test_matrix_is_stable() {
    let report =
        FmeaReport::run(&OscillatorConfig::fast_test()).expect("fast_test preset is valid");
    golden("fmea_fast_test.json", &report.to_json().render_pretty(2));
}

#[test]
fn yield_analysis_summary_is_stable() {
    // Same campaign the repro binary tracks: 200 dies, seed 1, ±15 % window.
    let run = lcosc::dac::yield_analysis_campaign(&DacMismatchParams::default(), 200, 1, 0.15, 1);
    golden("yield_default.json", &run.report.to_json().render_pretty(2));
}

#[test]
fn tank_ring_down_waveform_is_stable() {
    // Cycle-fidelity fixture for the paper's series tank (L = 25 µH,
    // C1 = C2 = 2 nF, Rs = 15 Ω, f0 ≈ 1.007 MHz): ten ring-down cycles at
    // 64 points/cycle, sampled every 8th step. The waveform is pinned
    // bit-for-bit, so it holds under both `SolverPath`s (which are
    // required to be bit-identical) and trips on any arithmetic change
    // in stamping, integration, or the linear solver.
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    nl.capacitor_ic(lc1, Netlist::GROUND, 2e-9, 1.0);
    nl.capacitor_ic(lc2, Netlist::GROUND, 2e-9, -1.0);
    nl.inductor(lc1, mid, 25e-6);
    nl.resistor(mid, lc2, 15.0);

    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (25e-6_f64 * 1e-9).sqrt());
    let mut opts = TransientOptions::new(1.0 / (f0 * 64.0), 10.0 / f0);
    opts.record_stride = 8;
    let res = run_transient(&nl, &opts).expect("ring-down converges");

    let vdiff: Vec<Json> = (0..res.len())
        .map(|k| {
            let v = res.voltages_at(k);
            Json::from(v[lc1.index() - 1] - v[lc2.index() - 1])
        })
        .collect();
    let times: Vec<Json> = res.times().iter().map(|&t| Json::from(t)).collect();
    golden(
        "tank_ring_down.json",
        &Json::obj([
            ("f0_hz", Json::from(f0)),
            ("samples", Json::from(res.len())),
            ("times", Json::Array(times)),
            ("vdiff", Json::Array(vdiff)),
        ])
        .render_pretty(2),
    );
}

#[test]
fn dac_transfer_staircase_is_stable() {
    // Fig 3/Fig 4 + Table 1: the full 128-code staircase with relative
    // steps (null where the step is undefined).
    let rows: Vec<Json> = Code::all()
        .map(|c| {
            Json::obj([
                ("code", Json::from(c.value())),
                ("units", Json::from(multiplication_factor(c))),
                ("relative_step", Json::from(relative_step(c))),
            ])
        })
        .collect();
    golden(
        "dac_transfer.json",
        &Json::obj([("codes", Json::Array(rows))]).render_pretty(2),
    );
}

/// The prover fixtures hold exactly what `lcosc-check --json --prove
/// config <preset>` prints (compact JSON plus trailing newline), so the
/// CI smoke job can `cmp` the CLI output against them directly.
#[test]
fn prover_verdicts_are_stable_for_every_preset() {
    for (name, cfg) in [
        ("prove_fast_test.json", OscillatorConfig::fast_test()),
        (
            "prove_datasheet_3mhz.json",
            OscillatorConfig::datasheet_3mhz(),
        ),
        ("prove_low_q.json", OscillatorConfig::low_q()),
    ] {
        let outcome = lcosc::proving::prove_config(&cfg);
        assert!(outcome.proved(), "{name}:\n{}", outcome.render_human());
        golden(name, &format!("{}\n", outcome.render_json()));
    }
}

/// Mirrors `lcosc-check --json prove-faults fast_test`: the 11-fault
/// fitment proof document, byte-compared.
#[test]
fn fault_fitment_proofs_are_stable() {
    let proofs = lcosc::proving::prove_fault_responses(&OscillatorConfig::fast_test());
    let doc = lcosc::proving::fault_responses_to_json("fast_test", &proofs);
    golden(
        "prove_faults_fast_test.json",
        &format!("{}\n", doc.render()),
    );
}

/// A seeded failing configuration: the pre-quirk-fix regulation FSM
/// cleared the saturation latches on an in-window hold, which silently
/// disarms the low-amplitude detector. The prover refutes A007 and
/// renders the offending tick sequence as an `lcosc-trace` event stream.
#[test]
fn legacy_hold_quirk_is_refuted_with_a_counterexample_trace() {
    let mut facts = OscillatorConfig::fast_test().prove_facts();
    facts.legacy_hold_clears_saturation = true;
    let outcome = lcosc::check::prove(&facts);
    assert!(!outcome.proved());
    assert!(
        outcome.report.contains("A007"),
        "{}",
        outcome.render_human()
    );
    let cex = outcome
        .counterexamples
        .iter()
        .find(|c| c.obligation == "A007")
        .expect("A007 carries a counterexample");
    assert!(!cex.events.is_empty());
    // The counterexample is a valid trace stream: every event renders to
    // one parseable JSONL line.
    for ev in &cex.events {
        let line = ev.to_jsonl();
        Json::parse(line.trim_end()).expect("counterexample event is valid JSON");
    }
    golden(
        "prove_refuted_legacy_hold.json",
        &format!("{}\n", outcome.render_json()),
    );
}

/// Pins the satellite render-order contract: diagnostics render sorted
/// by (code, location) regardless of emission order.
#[test]
fn report_rendering_orders_by_code_and_location() {
    use lcosc::check::{Provenance, Report};
    let mut report = Report::new();
    // Emit deliberately out of order.
    report.warning(
        "S001",
        "window vs step (emitted first)".to_string(),
        Some(Provenance::Field("window_rel_width")),
    );
    report.error(
        "A001",
        "abstract step exceeds window".to_string(),
        Some(Provenance::Field("window_rel_width")),
    );
    report.error(
        "C001",
        "bad supply rail".to_string(),
        Some(Provenance::Field("vdd")),
    );
    golden("report_render_order.json", &report.render_json());
    let human = report.render_human();
    let a = human.find("A001").expect("A001 rendered");
    let c = human.find("C001").expect("C001 rendered");
    let s = human.find("S001").expect("S001 rendered");
    assert!(a < c && c < s, "{human}");
}
