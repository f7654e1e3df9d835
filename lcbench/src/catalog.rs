//! `fault-catalog`: the paper's FMEA sign-off — the 11-fault catalog on the
//! `fast_test` tank at production defaults (multi-rate fidelity,
//! `SCENARIO_POST_FAULT_TICKS`), scheduled on two threads.
//!
//! The catalog's input is fixed by the paper, so the seed changes nothing
//! here. The traced run adds a serial `run_scenario_mission` per fault (the
//! per-fault cost, and the reference the 2-thread report must match) and
//! `ClosedLoopSim` probes of each fidelity.

use crate::measure::{self, SpanId, Tracer};
use crate::{Args, Outcome, Samples};
use lcosc_core::config::{Fidelity, OscillatorConfig};
use lcosc_core::ClosedLoopSim;
use lcosc_safety::fmea::FmeaRun;
use lcosc_safety::scenario::{run_scenario_mission, SCENARIO_POST_FAULT_TICKS};
use lcosc_safety::{Fault, FmeaReport};
use lcosc_serve::protocol::fault_token;
use lcosc_trace::Trace;
use std::time::Instant;

/// Threads the campaign is asked to use (the container has two cores).
const THREADS: usize = 2;

/// Set-ups before and after the campaigns of a run; `setup_s` is their
/// median.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// The blessed FMEA matrix of `fast_test`, relative to the checkout root.
const GOLDEN: &str = "tests/golden/fmea_fast_test.json";

/// Faults that stay at cycle fidelity for most of their mission.
const CYCLE_BOUND: [&str; 7] = [
    "coil_short",
    "pin_short_gnd0",
    "pin_short_gnd1",
    "pin_short_vdd0",
    "pin_short_vdd1",
    "missing_cap0",
    "missing_cap1",
];

fn fault_name(fault: Fault) -> String {
    match fault {
        Fault::PinShortToGround { pin }
        | Fault::PinShortToSupply { pin }
        | Fault::MissingCapacitor { pin } => format!("{}{pin}", fault_token(fault)),
        other => fault_token(other).to_string(),
    }
}

/// Metric-name form of every catalog fault, in catalog order.
pub fn fault_names() -> Vec<String> {
    Fault::catalog().into_iter().map(fault_name).collect()
}

/// One set-up: build the configuration and settle a multi-rate closed loop
/// on it, the first thing every fault scenario does.
fn setup(cfg: &OscillatorConfig) -> Result<(), String> {
    let mut warm = cfg.clone();
    warm.fidelity = Fidelity::MultiRate;
    let mut sim = ClosedLoopSim::new(warm).map_err(|e| e.to_string())?;
    sim.run_until_settled().map_err(|e| e.to_string())?;
    Ok(())
}

/// Times one set-up into `samples`.
fn timed_setup(cfg: &OscillatorConfig, tracer: &Tracer, samples: &mut Samples, out: &mut Outcome) {
    let t = Instant::now();
    if let Err(e) = tracer.span("bench.setup", SpanId::ROOT, 0, |_| setup(cfg)) {
        out.mismatches.push(format!("set-up failed: {e}"));
    }
    samples.setup_s.push(t.elapsed().as_secs_f64());
}

/// Runs campaigns while another fits in `seconds` (at least one; a
/// campaign takes about 31 s), returning the samples and every campaign's
/// result. Set-ups run before and after
/// the campaigns, so their median does not hinge on one moment of the run.
fn passes(
    cfg: &OscillatorConfig,
    args: &Args,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Samples, Vec<FmeaRun>) {
    let mut samples = Samples::default();
    let mut runs = Vec::new();
    for _ in 0..SETUPS_BEFORE {
        timed_setup(cfg, tracer, &mut samples, out);
    }
    let jobs = Fault::catalog().len() as u64;
    let start = Instant::now();
    let mut pass = 0;
    while samples.another_pass_fits(start, args.seconds) {
        let t = Instant::now();
        let cpu0 = measure::process_cpu_s();
        let run = tracer.span("campaign.fmea", SpanId::ROOT, pass, |_| {
            FmeaReport::run_with_threads(cfg, THREADS)
        });
        let wall = t.elapsed().as_secs_f64();
        samples.push_pass(&[(wall, measure::process_cpu_s() - cpu0)], &[wall * 1e3]);
        out.attempted += jobs;
        match run {
            Ok(run) => runs.push(run),
            Err(e) => {
                out.failed += jobs;
                out.mismatches.push(format!("campaign {pass} failed: {e}"));
            }
        }
        pass += 1;
    }
    for _ in 0..SETUPS_AFTER {
        timed_setup(cfg, tracer, &mut samples, out);
    }
    (samples, runs)
}

/// Checks every campaign's matrix byte for byte against the blessed one.
fn check_reports(runs: &[FmeaRun], golden: &str, what: &str, out: &mut Outcome) {
    for (k, run) in runs.iter().enumerate() {
        if run.report.to_json().render_pretty(2) != golden {
            out.mismatches.push(format!(
                "{what} campaign {k}: FMEA matrix differs from {GOLDEN}"
            ));
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = OscillatorConfig::fast_test();
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("reading {GOLDEN}: {e}"))?;
    let mut out = Outcome::default();
    let (samples, runs) = passes(&cfg, args, &Tracer::off(), &mut out);
    out.untraced = samples.e2e();
    check_reports(&runs, &golden, "untraced", &mut out);
    let Some(first) = runs.first() else {
        return Ok(out);
    };
    out.notes.push(format!(
        "safety_coverage={} detection_coverage={} (recorded, not gated)",
        first.report.safety_coverage(),
        first.report.detection_coverage()
    ));
    out.notes.push(format!(
        "campaign threads_used={} of {THREADS} requested",
        first.stats.threads
    ));
    if !args.trace {
        return Ok(out);
    }

    let tracer = Tracer::on();
    let (traced, traced_runs) = passes(&cfg, args, &tracer, &mut out);
    out.traced = Some(traced.e2e());
    check_reports(&traced_runs, &golden, "traced", &mut out);
    let layers = &mut out.layers;
    layers.insert(
        "campaign.threads_used".to_string(),
        first.stats.threads as f64,
    );
    layers.insert(
        "campaign.efficiency".to_string(),
        samples.pass_cpu_s.iter().sum::<f64>()
            / (THREADS as f64 * samples.pass_wall_s.iter().sum::<f64>()),
    );

    // Serial per-fault missions: the cost of each job, and the reference
    // the 2-thread matrix must reproduce row by row.
    let mut cycle_bound_s = 0.0;
    let mut total_s = 0.0;
    for (k, (fault, entry)) in Fault::catalog()
        .into_iter()
        .zip(first.report.entries())
        .enumerate()
    {
        let name = fault_name(fault);
        let t = Instant::now();
        out.attempted += 1;
        let result = tracer.span("safety.scenario", SpanId::ROOT, k as u64, |_| {
            run_scenario_mission(
                fault,
                &cfg,
                &Trace::off(),
                Fidelity::MultiRate,
                SCENARIO_POST_FAULT_TICKS,
            )
        });
        let secs = t.elapsed().as_secs_f64();
        total_s += secs;
        if CYCLE_BOUND.contains(&name.as_str()) {
            cycle_bound_s += secs;
        }
        out.layers.insert(format!("safety.scenario.{name}_s"), secs);
        match result {
            Ok(r) if r == entry.result => {}
            Ok(_) => out.mismatches.push(format!(
                "serial {name} differs from the 2-thread campaign row"
            )),
            Err(e) => {
                out.failed += 1;
                out.mismatches.push(format!("serial {name} failed: {e}"));
            }
        }
    }
    out.notes.push(format!(
        "cycle-bound faults take {cycle_bound_s:.3} s of the {total_s:.3} s serial catalog ({:.1} %)",
        100.0 * cycle_bound_s / total_s
    ));
    core_probes(&cfg, &tracer, &mut out)?;
    out.span_buffer_mb = tracer.buffer_mb();
    out.spans = tracer.spans();
    Ok(out)
}

/// `ClosedLoopSim` probes on `fast_test`: settle time per fidelity, the
/// cost of one regulation tick after settling, and the multi-rate hand-off
/// counters.
fn core_probes(cfg: &OscillatorConfig, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    for (k, (fidelity, name, ticks)) in [
        (Fidelity::Cycle, "cycle", 20),
        (Fidelity::Envelope, "envelope", 2000),
        (Fidelity::MultiRate, "multirate", 2000),
    ]
    .into_iter()
    .enumerate()
    {
        let mut c = cfg.clone();
        c.fidelity = fidelity;
        let mut sim = ClosedLoopSim::new(c).map_err(|e| e.to_string())?;
        let t = Instant::now();
        tracer
            .span("core.settle", SpanId::ROOT, k as u64, |_| {
                sim.run_until_settled()
            })
            .map_err(|e| e.to_string())?;
        out.layers
            .insert(format!("core.settle_s.{name}"), t.elapsed().as_secs_f64());
        let t = Instant::now();
        tracer.span("core.run_ticks", SpanId::ROOT, k as u64, |_| {
            sim.run_ticks(ticks);
        });
        let tick_name = if name == "multirate" {
            "multirate_quiet"
        } else {
            name
        };
        out.layers.insert(
            format!("core.{tick_name}_tick_us"),
            t.elapsed().as_secs_f64() * 1e6 / ticks as f64,
        );
        if fidelity == Fidelity::MultiRate {
            let stats = sim.mode_stats();
            for (key, v) in [
                ("mode_switches", stats.mode_switches),
                ("envelope_ticks", stats.envelope_ticks),
                ("cycle_ticks", stats.cycle_ticks),
                ("bisections", stats.bisections),
            ] {
                out.layers.insert(format!("core.{key}"), v as f64);
            }
        }
    }
    Ok(())
}
