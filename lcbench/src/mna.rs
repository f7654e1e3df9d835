//! `mna-transient`: `run_transient` on the production (`Auto`) solver path
//! over one deck class per production branch. The classes use the layer
//! differently, so a change to the stepping loop shows its cost on each:
//!
//! - `sparse`: the 1002-unknown RC ladder and a 48-tank coupled network
//!   (factor once, sparse substitution per step);
//! - `dense`: the paper tank ring-down at cycle-fidelity `dt` and a
//!   32-section ladder (factor once, dense substitution);
//! - `newton`: the anti-parallel diode clamp tank (refactor every Newton
//!   iteration);
//! - `adaptive`: the tank under LTE-adaptive stepping (reject and retry).
//!
//! A pass solves every deck once. Deck values are jittered from the seed;
//! structure and step counts are not, so every seed does the same work.

use crate::measure::{self, Rng, SpanId, Tracer};
use crate::{Args, Outcome, Samples};
use lcosc_circuit::{run_transient, Netlist, NodeId, SolverStats, TransientOptions, Waveform};
use lcosc_device::diode::DiodeModel;
use std::time::Instant;

/// Deck classes, one per production branch of `run_transient`.
pub const CLASSES: [&str; 4] = ["sparse", "dense", "newton", "adaptive"];

/// The `SolverStats` counters reported per class, with their direction.
pub const COUNTERS: [(&str, &str); 6] = [
    ("newton_iterations", "lower"),
    ("factorizations", "lower"),
    ("factor_reuses", "higher"),
    ("symbolic_analyses", "lower"),
    ("symbolic_reuses", "higher"),
    ("steps_rejected", "lower"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Paper tank (§2): L = 25 µH, C1 = C2 = 2 nF in series, Rs = 15 Ω.
const TANK_L: f64 = 25e-6;
const TANK_C: f64 = 2e-9;
const TANK_RS: f64 = 15.0;

/// Nominal tank resonance; step sizes derive from it, not from the
/// jittered values, so the step count is the same for every seed.
fn tank_f0() -> f64 {
    1.0 / (2.0 * std::f64::consts::PI * (TANK_L * TANK_C / 2.0).sqrt())
}

/// Cycle-fidelity step: 200 steps per carrier cycle.
fn cycle_dt() -> f64 {
    1.0 / (tank_f0() * 200.0)
}

struct Deck {
    class: &'static str,
    name: &'static str,
    netlist: Netlist,
    opts: TransientOptions,
}

/// The paper tank as a ring-down deck (both capacitors precharged), plus
/// its LC2 node for attachments.
fn tank(rng: &mut Rng, spread: f64) -> (Netlist, NodeId) {
    let mut nl = Netlist::new();
    let lc1 = nl.node("lc1");
    let lc2 = nl.node("lc2");
    let mid = nl.node("mid");
    let v0 = rng.jitter(1.0, spread);
    nl.capacitor_ic(lc1, Netlist::GROUND, rng.jitter(TANK_C, spread), v0);
    nl.capacitor_ic(lc2, Netlist::GROUND, rng.jitter(TANK_C, spread), -v0);
    nl.inductor(lc1, mid, rng.jitter(TANK_L, spread));
    nl.resistor(mid, lc2, rng.jitter(TANK_RS, spread));
    (nl, lc2)
}

/// `sections`-section RC ladder driven by a 1 MHz sine, the structure of
/// `lcosc_circuit::workloads::rc_ladder` with seeded element values.
fn rc_ladder(rng: &mut Rng, sections: usize) -> Netlist {
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
    for k in 0..sections {
        let n = nl.node(&format!("n{k}"));
        nl.resistor(prev, n, rng.jitter(100.0, 0.1));
        nl.capacitor(n, Netlist::GROUND, rng.jitter(100e-12, 0.1));
        prev = n;
    }
    nl
}

fn opts(dt: f64, steps: u32, stride: usize) -> TransientOptions {
    let mut o = TransientOptions::new(dt, dt * f64::from(steps));
    o.record_stride = stride;
    o
}

/// Every deck, generated from the seed.
fn decks(seed: u64) -> Vec<Deck> {
    let mut rng = Rng::new(seed, 0x6d6e61);
    let dt = cycle_dt();
    let (mut clamp, lc2) = tank(&mut rng, 0.02);
    clamp.diode(lc2, Netlist::GROUND, DiodeModel::default());
    clamp.diode(Netlist::GROUND, lc2, DiodeModel::default());
    vec![
        Deck {
            class: "sparse",
            name: "rc_ladder_1000",
            netlist: rc_ladder(&mut rng, 1000),
            opts: opts(1e-9, 2000, 16),
        },
        Deck {
            class: "sparse",
            name: "coupled_tank_network_48",
            netlist: lcosc_circuit::workloads::coupled_tank_network_scaled(
                48,
                rng.jitter(1.0, 0.05),
            ),
            opts: opts(dt, 20_000, 16),
        },
        Deck {
            class: "dense",
            name: "tank_ring_down",
            netlist: tank(&mut rng, 0.02).0,
            opts: opts(dt, 60_000, 8),
        },
        Deck {
            class: "dense",
            name: "rc_ladder_32",
            netlist: rc_ladder(&mut rng, 32),
            opts: opts(1e-9, 20_000, 16),
        },
        Deck {
            class: "newton",
            name: "diode_clamp_tank",
            netlist: clamp,
            opts: opts(dt, 24_000, 8),
        },
        Deck {
            class: "adaptive",
            name: "tank_adaptive_lte",
            netlist: tank(&mut rng, 0.01).0,
            opts: opts(dt, 60_000, 8).with_adaptive_lte(1e-6),
        },
    ]
}

/// Digest of a result's waveforms and work counters.
fn digest(r: &lcosc_circuit::TransientResult) -> u64 {
    let s = r.stats();
    let counters = [
        s.steps,
        s.newton_iterations,
        s.factorizations,
        s.steps_accepted,
        s.steps_rejected,
    ]
    .map(|c| c as f64);
    let h = measure::fnv_f64(measure::FNV_BASIS, r.times());
    let h = measure::fnv_f64(h, r.voltages_flat());
    let h = measure::fnv_f64(h, r.currents_flat());
    measure::fnv_f64(h, &counters)
}

/// Per-deck expectations fixed by the first solve of the run.
struct Expected {
    digest: u64,
    stats: SolverStats,
}

/// Solves every deck once. Returns each solve's wall and CPU seconds and
/// stats; records failures and digest mismatches.
fn pass(
    decks: &[Deck],
    expected: &mut Vec<Expected>,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> (Vec<(f64, f64)>, Vec<SolverStats>) {
    let mut solve_s = Vec::with_capacity(decks.len());
    let mut stats = Vec::with_capacity(decks.len());
    for (k, deck) in decks.iter().enumerate() {
        out.attempted += 1;
        let t = Instant::now();
        let cpu0 = measure::process_cpu_s();
        let result = tracer.span("circuit.run_transient", parent, k as u64, |_| {
            run_transient(&deck.netlist, &deck.opts)
        });
        solve_s.push((t.elapsed().as_secs_f64(), measure::process_cpu_s() - cpu0));
        match result {
            Ok(r) => {
                let d = digest(&r);
                match expected.get(k) {
                    None => expected.push(Expected {
                        digest: d,
                        stats: r.stats(),
                    }),
                    Some(e) if e.digest != d => out.mismatches.push(format!(
                        "{}: solution digest changed between repetitions",
                        deck.name
                    )),
                    Some(_) => {}
                }
                stats.push(r.stats());
            }
            Err(e) => {
                out.failed += 1;
                out.mismatches.push(format!("{}: {e}", deck.name));
            }
        }
    }
    (solve_s, stats)
}

/// One set-up: generate the decks and solve each once. The first solve of
/// a run fills the process-wide sparse symbolic cache and fixes the
/// digests every later solve must reproduce.
fn setup(
    args: &Args,
    tracer: &Tracer,
    expected: &mut Vec<Expected>,
    samples: &mut Samples,
    out: &mut Outcome,
) -> Vec<Deck> {
    let t = Instant::now();
    let decks = tracer.span("bench.setup", SpanId::ROOT, 0, |id| {
        let decks = decks(args.seed);
        pass(&decks, expected, tracer, id, out);
        decks
    });
    samples.setup_s.push(t.elapsed().as_secs_f64());
    decks
}

/// What a measured phase saw: the samples, the decks, and each pass's
/// time per class (ms, in [`CLASSES`] order).
struct Phase {
    samples: Samples,
    decks: Vec<Deck>,
    class_ms: Vec<[f64; 4]>,
}

/// Passes until `seconds` have passed, with the set-ups spread evenly over
/// the phase.
fn measure_phase(
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
    expected: &mut Vec<Expected>,
    out: &mut Outcome,
) -> Phase {
    let mut samples = Samples::default();
    let mut class_ms = Vec::new();
    let start = Instant::now();
    let mut decks = setup(args, tracer, expected, &mut samples, out);
    let mut n = 0u64;
    while samples.another_pass_fits(start, seconds) {
        let due = samples.setup_s.len() as f64 * seconds / SETUPS as f64;
        if samples.setup_s.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            decks = setup(args, tracer, expected, &mut samples, out);
        }
        let (solve_s, _) = tracer.span("bench.pass", SpanId::ROOT, n, |id| {
            pass(&decks, expected, tracer, id, out)
        });
        let op_ms: Vec<f64> = solve_s.iter().map(|s| s.0 * 1e3).collect();
        samples.push_pass(&solve_s, &op_ms);
        let mut per_class = [0.0; 4];
        for (deck, ms) in decks.iter().zip(&op_ms) {
            if let Some(c) = CLASSES.iter().position(|&c| c == deck.class) {
                per_class[c] += ms;
            }
        }
        class_ms.push(per_class);
        samples.probe_host();
        n += 1;
    }
    while samples.setup_s.len() < SETUPS {
        decks = setup(args, tracer, expected, &mut samples, out);
    }
    Phase {
        samples,
        decks,
        class_ms,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut expected = Vec::new();
    let phase = measure_phase(args, args.seconds, &Tracer::off(), &mut expected, &mut out);
    out.untraced = phase.samples.e2e();
    out.notes.push(phase.samples.host_note("untraced"));
    for (deck, e) in phase.decks.iter().zip(&expected) {
        out.notes.push(format!(
            "{} ({}): {} unknowns, {} steps, digest {:016x}",
            deck.name,
            deck.class,
            deck.netlist.unknown_count(),
            e.stats.steps,
            e.digest
        ));
    }
    if !args.trace {
        return Ok(out);
    }
    let tracer = Tracer::on();
    let traced = measure_phase(args, args.seconds / 3.0, &tracer, &mut expected, &mut out);
    out.traced = Some(traced.samples.e2e());
    // Counters of one timed pass (the set-up solves do the symbolic
    // analyses; a timed pass reuses them).
    let (_, timed) = pass(
        &phase.decks,
        &mut expected,
        &Tracer::off(),
        SpanId::ROOT,
        &mut out,
    );
    for (c, class) in CLASSES.iter().enumerate() {
        let in_class = || {
            phase
                .decks
                .iter()
                .zip(&timed)
                .filter(|(d, _)| d.class == *class)
                .map(|(_, s)| s)
        };
        let steps: u64 = in_class().map(|s| s.steps).sum();
        let fastest_ms = phase
            .class_ms
            .iter()
            .map(|p| p[c])
            .fold(f64::INFINITY, f64::min);
        out.layers.insert(
            format!("circuit.{class}.step_us"),
            fastest_ms * 1e3 / steps.max(1) as f64,
        );
        let sum = |f: fn(&SolverStats) -> u64| in_class().map(f).sum::<u64>() as f64;
        for (counter, value) in [
            ("newton_iterations", sum(|s| s.newton_iterations)),
            ("factorizations", sum(|s| s.factorizations)),
            ("factor_reuses", sum(|s| s.factor_reuses)),
            ("symbolic_analyses", sum(|s| s.symbolic_analyses)),
            ("symbolic_reuses", sum(|s| s.symbolic_reuses)),
            ("steps_rejected", sum(|s| s.steps_rejected)),
        ] {
            out.layers
                .insert(format!("circuit.{class}.{counter}"), value);
        }
    }
    out.span_buffer_mb = tracer.buffer_mb();
    out.spans = tracer.spans();
    Ok(out)
}
