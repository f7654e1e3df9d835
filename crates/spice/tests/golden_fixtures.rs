//! Golden `.sp` fixtures: each deck under `tests/golden/spice/` parses to
//! a byte-stable deck JSON document, compared against its committed
//! `.deck.json` twin. Regenerate after an intentional dialect change with
//!
//! ```text
//! LCOSC_BLESS=1 cargo test -q -p lcosc-spice --test golden_fixtures
//! ```
//!
//! and review the fixture diff like any other code change.

use lcosc_campaign::Json;
use lcosc_circuit::netlist_to_json;
use lcosc_spice::{parse_spice, render_netlist, Analysis};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "tests",
        "golden",
        "spice",
    ]
    .iter()
    .collect()
}

fn golden(name: &str, rendered: &str) {
    let path = fixture_dir().join(name);
    // The workspace's one sanctioned environment read (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let bless = std::env::var_os("LCOSC_BLESS").is_some_and(|v| v == "1");
    if bless {
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(regenerate with LCOSC_BLESS=1)",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden mismatch for {name} (regenerate with LCOSC_BLESS=1 if intentional)"
    );
}

/// Parses one `.sp` fixture and renders its full observable outcome —
/// title, netlist deck JSON, analyses, warnings — as a stable document.
fn deck_document(sp: &str) -> String {
    let deck = parse_spice(sp).expect("golden fixtures parse cleanly");
    let analyses: Vec<Json> = deck
        .analyses
        .iter()
        .map(|a| match a {
            Analysis::Tran { tstep, tstop, uic } => Json::obj([
                ("kind", Json::Str("tran".to_string())),
                ("tstep", Json::Float(*tstep)),
                ("tstop", Json::Float(*tstop)),
                ("uic", Json::Bool(*uic)),
            ]),
            Analysis::Dc {
                source,
                start,
                stop,
                step,
            } => Json::obj([
                ("kind", Json::Str("dc".to_string())),
                ("source", Json::Str(source.clone())),
                ("start", Json::Float(*start)),
                ("stop", Json::Float(*stop)),
                ("step", Json::Float(*step)),
            ]),
        })
        .collect();
    let warnings: Vec<Json> = deck
        .warnings
        .iter()
        .map(|w| Json::Str(format!("{w}")))
        .collect();
    Json::obj([
        (
            "title",
            match &deck.title {
                Some(t) => Json::Str(t.clone()),
                None => Json::Null,
            },
        ),
        (
            "elements",
            Json::Array(
                deck.element_names
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("deck", netlist_to_json(&deck.netlist)),
        ("analyses", Json::Array(analyses)),
        ("warnings", Json::Array(warnings)),
    ])
    .render_pretty(2)
}

fn check_fixture(stem: &str) {
    let sp_path = fixture_dir().join(format!("{stem}.sp"));
    let sp = std::fs::read_to_string(&sp_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", sp_path.display()));
    golden(&format!("{stem}.deck.json"), &deck_document(&sp));
    // The renderer must be a parse fixed point: render(parse(sp)) parses
    // back to the identical netlist.
    let deck = parse_spice(&sp).expect("fixture parses");
    let rendered = render_netlist(&deck.netlist, stem, deck.tran_options().as_ref());
    let reparsed = parse_spice(&rendered).expect("rendered deck parses");
    assert_eq!(
        deck.netlist.elements(),
        reparsed.netlist.elements(),
        "{stem}"
    );
}

#[test]
fn paper_tank_deck_is_stable() {
    check_fixture("paper_tank");
}

#[test]
fn rc_ladder_deck_is_stable() {
    check_fixture("rc_ladder");
}

#[test]
fn pulse_switch_deck_is_stable() {
    check_fixture("pulse_switch");
}

#[test]
fn antiparallel_diodes_deck_is_stable() {
    check_fixture("antiparallel_diodes");
}
