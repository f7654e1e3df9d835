//! Deterministic benchmark harness for the PR 9 multi-rate engine.
//!
//! One measurement family, recorded in `BENCH_PR9.json`
//! (`repro --multirate-bench`): every fault in the 11-entry FMEA catalog
//! is run as a long mission profile — settle, inject, then
//! [`MISSION_POST_FAULT_TICKS`] regulation ticks of observation
//! (≥ 100 ms of simulated time on the fast-test configuration) — once
//! pinned to full cycle fidelity and once multi-rate. The discrete
//! outcomes (triggered detector set, trip latencies, code saturation,
//! final DAC code) must be identical per fault. Any divergence is a hard
//! error: the bench refuses to report a speedup for a wrong answer.
//!
//! The ≥ [`GATE_MIN_SPEEDUP`]× wall-clock gate applies to the *headline
//! mission* (`DriverDead`, the paper's motivating scenario: a dead
//! oscillator coasting through a long watchdog horizon), not to the
//! summed catalog. That is deliberate: several catalog faults (shorted
//! turns, pin shorts) leave a post-fault operating point the envelope
//! model cannot represent — a relaxation-style oscillation on an
//! overdamped tank — and for those the hand-off controller correctly
//! *refuses* envelope re-entry and pays full cycle price forever. Gating
//! the sum would reward an engine that fakes envelope speed on faults
//! where the envelope answer is wrong; the identity check plus the
//! headline gate reward the engine for being fast exactly where the
//! approximation is faithful. Per-fault timings are still reported so
//! the cycle-bound faults are visible, not hidden.
//!
//! The `DriverDead` mission additionally runs instrumented to publish the
//! hand-off statistics (mode switches, envelope tick share, bisections)
//! as a [`TraceEvent::SolverStats`] on the bench tracer.

use lcosc_campaign::Json;
use lcosc_core::config::Fidelity;
use lcosc_core::{ClosedLoopSim, ModeStats, OscillatorConfig};
use lcosc_safety::{run_scenario_mission, Fault};
use lcosc_trace::{DetectorId, MemorySink, Trace, TraceEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing laps per (fault, fidelity); the minimum is reported.
const LAPS: u32 = 2;

/// Post-fault observation horizon of the mission profile, in regulation
/// ticks. At the fast-test 1 ms tick this alone is 260 ms of simulated
/// time — comfortably past the 100 ms mission-profile floor the gate is
/// specified against — and long enough that the quiet post-event tail,
/// not the guard windows, dominates the work.
pub const MISSION_POST_FAULT_TICKS: usize = 260;

/// The headline gate: minimum multi-rate-vs-cycle speedup on the
/// [`HEADLINE_FAULT`] mission.
pub const GATE_MIN_SPEEDUP: f64 = 10.0;

/// The mission the wall-clock gate is measured on. `DriverDead` is the
/// long-horizon scenario the multi-rate engine exists for: one guarded
/// event, then hundreds of quiet envelope-faithful ticks.
pub const HEADLINE_FAULT: Fault = Fault::DriverDead;

/// The discrete outcome of one mission, extracted from the scenario
/// result and its golden trace stream. Two runs of the same fault at
/// different fidelities must produce *equal* values of this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// At least one detector fired.
    pub detected: bool,
    /// The FMEA safety verdict.
    pub safe: bool,
    /// Detectors that fired, in evaluation order.
    pub triggered: Vec<DetectorId>,
    /// Fault-to-evaluation latency of each trip, regulation ticks.
    pub trip_latencies: Vec<(DetectorId, u64)>,
    /// The regulation code was pinned at maximum after the fault.
    pub code_saturated: bool,
    /// Final regulation code (last `CodeStep` of the stream).
    pub final_code: u8,
}

/// One fault's mission, cycle vs multi-rate.
pub struct FaultMission {
    /// Human-readable fault name.
    pub name: String,
    /// Full cycle fidelity, minimum wall-clock over the laps.
    pub cycle_wall: Duration,
    /// Multi-rate, minimum wall-clock over the laps.
    pub multirate_wall: Duration,
    /// The (identical across fidelities and laps) discrete outcome.
    pub outcome: MissionOutcome,
}

impl FaultMission {
    /// Cycle wall divided by multi-rate wall (> 1 means multi-rate wins).
    pub fn speedup(&self) -> f64 {
        self.cycle_wall.as_secs_f64() / self.multirate_wall.as_secs_f64().max(1e-12)
    }
}

/// The full multi-rate benchmark report.
pub struct MultirateBenchReport {
    /// Per-fault missions, catalog order.
    pub missions: Vec<FaultMission>,
    /// Hand-off statistics of the instrumented `DriverDead` mission.
    pub mode_stats: ModeStats,
}

impl MultirateBenchReport {
    /// Summed cycle wall-clock across the catalog.
    pub fn cycle_total(&self) -> Duration {
        self.missions.iter().map(|m| m.cycle_wall).sum()
    }

    /// Summed multi-rate wall-clock across the catalog.
    pub fn multirate_total(&self) -> Duration {
        self.missions.iter().map(|m| m.multirate_wall).sum()
    }

    /// Catalog-level speedup: total cycle wall over total multi-rate
    /// wall. Informational — the cycle-bound faults (see module docs)
    /// keep this well below the headline number by design.
    pub fn catalog_speedup(&self) -> f64 {
        self.cycle_total().as_secs_f64() / self.multirate_total().as_secs_f64().max(1e-12)
    }

    /// The gated [`HEADLINE_FAULT`] mission's row.
    pub fn headline(&self) -> Option<&FaultMission> {
        let name = HEADLINE_FAULT.to_string();
        self.missions.iter().find(|m| m.name == name)
    }

    /// The gated speedup: the [`HEADLINE_FAULT`] mission's cycle wall
    /// over its multi-rate wall (0.0 if the mission is absent).
    pub fn speedup(&self) -> f64 {
        self.headline().map_or(0.0, FaultMission::speedup)
    }

    /// Whether the headline speedup gate holds. Outcome identity is not a
    /// term here because any divergence already failed the bench hard.
    pub fn gate_met(&self) -> bool {
        self.speedup() >= GATE_MIN_SPEEDUP
    }

    /// Renders the report as the `BENCH_PR9.json` document.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::from(i64::try_from(v).unwrap_or(i64::MAX));
        let mission = |m: &FaultMission| {
            Json::obj([
                ("fault", Json::from(m.name.clone())),
                ("cycle_wall_s", Json::from(m.cycle_wall.as_secs_f64())),
                (
                    "multirate_wall_s",
                    Json::from(m.multirate_wall.as_secs_f64()),
                ),
                ("speedup", Json::from(m.speedup())),
                ("detected", Json::from(m.outcome.detected)),
                ("safe", Json::from(m.outcome.safe)),
                (
                    "triggered",
                    Json::Array(
                        m.outcome
                            .triggered
                            .iter()
                            .map(|d| Json::from(d.label()))
                            .collect(),
                    ),
                ),
                (
                    "trip_latency_ticks",
                    Json::Array(
                        m.outcome
                            .trip_latencies
                            .iter()
                            .map(|(d, l)| {
                                Json::obj([("detector", Json::from(d.label())), ("ticks", int(*l))])
                            })
                            .collect(),
                    ),
                ),
                ("code_saturated", Json::from(m.outcome.code_saturated)),
                ("final_code", Json::from(m.outcome.final_code)),
            ])
        };
        Json::obj([
            ("bench", Json::from("pr9_multirate")),
            ("gate_min_speedup", Json::from(GATE_MIN_SPEEDUP)),
            ("gate_met", Json::from(self.gate_met())),
            (
                "mission_post_fault_ticks",
                Json::from(MISSION_POST_FAULT_TICKS),
            ),
            ("catalog_faults", Json::from(self.missions.len())),
            ("headline_fault", Json::from(HEADLINE_FAULT.to_string())),
            ("speedup", Json::from(self.speedup())),
            (
                "cycle_total_s",
                Json::from(self.cycle_total().as_secs_f64()),
            ),
            (
                "multirate_total_s",
                Json::from(self.multirate_total().as_secs_f64()),
            ),
            ("catalog_speedup", Json::from(self.catalog_speedup())),
            ("outcomes_identical", Json::from(true)),
            (
                "mode_stats",
                Json::obj([
                    ("mode_switches", int(self.mode_stats.mode_switches)),
                    ("envelope_ticks", int(self.mode_stats.envelope_ticks)),
                    ("cycle_ticks", int(self.mode_stats.cycle_ticks)),
                    ("bisections", int(self.mode_stats.bisections)),
                    (
                        "envelope_permille",
                        int(self.mode_stats.envelope_permille()),
                    ),
                ]),
            ),
            (
                "missions",
                Json::Array(self.missions.iter().map(mission).collect()),
            ),
        ])
    }
}

/// Runs one mission and extracts its discrete outcome from the trace.
fn run_mission(
    fault: Fault,
    cfg: &OscillatorConfig,
    fidelity: Fidelity,
    post_fault_ticks: usize,
) -> Result<MissionOutcome, String> {
    let sink = Arc::new(MemorySink::new());
    let r = run_scenario_mission(
        fault,
        cfg,
        &Trace::new(sink.clone()),
        fidelity,
        post_fault_ticks,
    )
    .map_err(|e| format!("mission {fault}: {e}"))?;
    let events = sink.snapshot();
    let final_code = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::CodeStep { new, .. } => Some(*new),
            _ => None,
        })
        .ok_or_else(|| format!("mission {fault}: no regulation ticks traced"))?;
    let trip_latencies = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DetectorTrip {
                detector,
                latency_ticks,
                ..
            } => Some((*detector, *latency_ticks)),
            _ => None,
        })
        .collect();
    Ok(MissionOutcome {
        detected: r.detected,
        safe: r.is_safe(),
        triggered: r
            .triggered
            .iter()
            .map(|&k| lcosc_safety::detector_id(k))
            .collect(),
        trip_latencies,
        code_saturated: r.code_saturated,
        final_code,
    })
}

/// Minimum-of-[`LAPS`] wall-clock of one (fault, fidelity) mission, with
/// the lap outcomes byte-compared (the engines are deterministic; a lap
/// divergence means a reproducibility bug, not noise).
fn time_mission(
    fault: Fault,
    cfg: &OscillatorConfig,
    fidelity: Fidelity,
    post_fault_ticks: usize,
) -> Result<(Duration, MissionOutcome), String> {
    let mut best: Option<(Duration, MissionOutcome)> = None;
    for lap in 0..LAPS {
        let start = Instant::now();
        let outcome = run_mission(fault, cfg, fidelity, post_fault_ticks)?;
        let wall = start.elapsed();
        if let Some((_, first)) = &best {
            if *first != outcome {
                return Err(format!(
                    "mission {fault} ({fidelity:?}): lap {lap} diverged from lap 0"
                ));
            }
        }
        best = match best {
            Some((w, o)) if w <= wall => Some((w, o)),
            _ => Some((wall, outcome)),
        };
    }
    best.ok_or_else(|| "no laps run".to_string())
}

/// The instrumented multi-rate mission the hand-off statistics are taken
/// from: settle, kill both driver stages, observe the long tail.
fn driver_dead_mode_stats(
    cfg: &OscillatorConfig,
    post_fault_ticks: usize,
) -> Result<ModeStats, String> {
    let mut mission_cfg = cfg.clone();
    mission_cfg.fidelity = Fidelity::MultiRate;
    let mut sim =
        ClosedLoopSim::new_unchecked(mission_cfg).map_err(|e| format!("mode-stats sim: {e}"))?;
    sim.run_until_settled()
        .map_err(|e| format!("mode-stats settle: {e}"))?;
    sim.inject_driver_failure();
    sim.run_ticks(post_fault_ticks);
    Ok(sim.mode_stats())
}

fn run_multirate_bench_with(
    tracer: &Trace,
    cfg: &OscillatorConfig,
    post_fault_ticks: usize,
) -> Result<MultirateBenchReport, String> {
    let mut missions = Vec::new();
    for fault in Fault::catalog() {
        let (cycle_wall, cycle) = time_mission(fault, cfg, Fidelity::Cycle, post_fault_ticks)?;
        let (multirate_wall, multirate) =
            time_mission(fault, cfg, Fidelity::MultiRate, post_fault_ticks)?;
        if cycle != multirate {
            return Err(format!(
                "mission {fault}: multi-rate outcome diverged from full fidelity\n  cycle:      {cycle:?}\n  multi-rate: {multirate:?}"
            ));
        }
        missions.push(FaultMission {
            name: fault.to_string(),
            cycle_wall,
            multirate_wall,
            outcome: cycle,
        });
    }

    let mode_stats = driver_dead_mode_stats(cfg, post_fault_ticks)?;
    tracer.emit(|| TraceEvent::SolverStats {
        steps: mode_stats.envelope_ticks + mode_stats.cycle_ticks,
        newton_iterations: 0,
        factorizations: 0,
        factor_reuses: 0,
        post_warmup_allocations: 0,
        batched_lanes: 0,
        symbolic_analyses: 0,
        symbolic_reuses: 0,
        steps_accepted: 0,
        steps_rejected: 0,
        mode_switches: mode_stats.mode_switches,
        envelope_permille: mode_stats.envelope_permille(),
    });

    Ok(MultirateBenchReport {
        missions,
        mode_stats,
    })
}

/// Runs the full multi-rate benchmark: the 11-fault mission catalog at
/// cycle and multi-rate fidelity with hard outcome identity, plus the
/// instrumented hand-off statistics (emitted as
/// [`TraceEvent::SolverStats`] on `tracer`).
///
/// # Errors
///
/// A simulation failure, a lap divergence, or any fault whose multi-rate
/// discrete outcome differs from the full-fidelity reference.
pub fn run_multirate_bench(tracer: &Trace) -> Result<MultirateBenchReport, String> {
    run_multirate_bench_with(
        tracer,
        &OscillatorConfig::fast_test(),
        MISSION_POST_FAULT_TICKS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mission_profile_clears_the_hundred_millisecond_floor() {
        let cfg = OscillatorConfig::fast_test();
        assert!(
            MISSION_POST_FAULT_TICKS as f64 * cfg.tick_period >= 0.1,
            "the post-fault horizon alone must cover the 100 ms mission floor"
        );
    }

    #[test]
    fn short_bench_reports_identical_outcomes() {
        // A miniature of the real bench: same machinery, a shorter
        // regulation tick (fewer ODE steps per cycle-fidelity tick) and a
        // shorter horizon. Outcome identity and report shape are fully
        // meaningful at any size; only the headline speedup needs the
        // long-tick, long-tail run.
        let mut cfg = OscillatorConfig::fast_test();
        cfg.tick_period = 0.2e-3;
        cfg.detector_tau = 15e-6;
        // `expect` is the identity assertion: any cycle-vs-multi-rate
        // outcome divergence makes the bench return Err.
        let report = run_multirate_bench_with(&Trace::off(), &cfg, 40).expect("bench");
        assert_eq!(report.missions.len(), 11);
        // Safety verdicts at this shortened horizon are mid-transient for
        // the regulable faults, so assert only the hard-kill missions.
        let dead = report.missions.last().expect("catalog is non-empty");
        assert_eq!(dead.name, HEADLINE_FAULT.to_string());
        assert!(
            dead.outcome.detected && dead.outcome.safe,
            "{:?}",
            dead.outcome
        );
        assert!(report.mode_stats.envelope_ticks > 0);
        let json = report.to_json().render_pretty(2);
        for key in [
            "pr9_multirate",
            "gate_min_speedup",
            "gate_met",
            "mission_post_fault_ticks",
            "headline_fault",
            "cycle_total_s",
            "multirate_total_s",
            "catalog_speedup",
            "outcomes_identical",
            "envelope_permille",
            "trip_latency_ticks",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn gate_logic_reads_the_headline_mission_only() {
        let mission = |name: &str, cycle_ms: u64, multirate_ms: u64| FaultMission {
            name: name.to_string(),
            cycle_wall: Duration::from_millis(cycle_ms),
            multirate_wall: Duration::from_millis(multirate_ms),
            outcome: MissionOutcome {
                detected: true,
                safe: true,
                triggered: vec![DetectorId::MissingOscillation],
                trip_latencies: vec![(DetectorId::MissingOscillation, 40)],
                code_saturated: true,
                final_code: 127,
            },
        };
        let headline = HEADLINE_FAULT.to_string();
        let mk = |missions: Vec<FaultMission>| MultirateBenchReport {
            missions,
            mode_stats: ModeStats::default(),
        };
        // A cycle-bound catalog fault at 1x must not sink the gate...
        let r = mk(vec![
            mission("shorted coil turns", 100, 100),
            mission(&headline, 120, 10),
        ]);
        assert!(r.gate_met());
        assert!(r.catalog_speedup() < GATE_MIN_SPEEDUP);
        // ...and a slow headline must fail it even if the rest is fast.
        let r = mk(vec![
            mission("shorted coil turns", 100, 1),
            mission(&headline, 90, 10),
        ]);
        assert!(!r.gate_met(), "headline speedup gate");
        // No headline mission at all reads as gate not met.
        assert!(!mk(vec![mission("shorted coil turns", 100, 1)]).gate_met());
    }
}
