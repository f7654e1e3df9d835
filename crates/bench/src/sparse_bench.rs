//! Deterministic benchmark harness for the PR 8 sparse MNA solver.
//!
//! Four measurements, all recorded in `BENCH_PR8.json`
//! (`repro --sparse-bench`):
//!
//! - **ladder gate**: the 1000-node RC ladder solved with the solver
//!   forced dense and forced sparse; the sparse path must be at least
//!   [`GATE_MIN_SPEEDUP`]× faster.
//! - **crossover table**: the same ladder across sizes spanning
//!   [`SPARSE_MIN_UNKNOWNS`], dense vs sparse wall-clock per size plus the
//!   path [`SolverPath::Auto`] actually picked — proving Auto stays dense
//!   below the threshold and goes sparse above it.
//! - **fleet determinism**: a campaign of value-variant coupled sensor
//!   networks (one shared structural digest) run on 1 and 4 worker
//!   threads; every waveform is byte-compared, and the per-job symbolic
//!   counters of the serial run must show the cached analysis being
//!   reused across jobs.
//! - **differential**: every workload deck solved on both paths and
//!   compared within the dense/sparse tolerance band (the two paths use
//!   different elimination orders, so bit-identity is not the contract
//!   there — agreement within rounding is).
//!
//! Any bitwise campaign divergence or out-of-tolerance differential is a
//! hard error: the bench refuses to report a speedup for a wrong answer.

use crate::solver_bench::bits_equal;
use lcosc_campaign::{Campaign, Json};
use lcosc_circuit::workloads::{
    coupled_tank_network, coupled_tank_network_scaled, pad_driver_array, rc_ladder,
};
use lcosc_circuit::{
    run_transient, Netlist, SolverPath, SolverStats, TransientOptions, TransientResult,
    SPARSE_MIN_UNKNOWNS,
};
use lcosc_trace::{Trace, TraceEvent};
use std::time::{Duration, Instant};

/// Timing laps per (deck, path); the minimum is reported.
const LAPS: u32 = 3;

/// Sections in the headline ladder (1000 interior nodes; 1002 unknowns).
const LADDER_SECTIONS: usize = 1000;

/// Ladder sizes of the crossover table, in sections (`unknowns =
/// sections + 2`): three below [`SPARSE_MIN_UNKNOWNS`], one exactly at
/// it, three above.
const CROSSOVER_SECTIONS: [usize; 7] = [16, 30, 46, 62, 78, 126, 254];

/// Jobs in the fleet-determinism campaign.
const FLEET_JOBS: usize = 24;

/// Tanks per fleet deck (96 unknowns — well into sparse territory).
const FLEET_TANKS: usize = 48;

/// The headline gate: minimum sparse-vs-dense speedup on the
/// [`LADDER_SECTIONS`]-node ladder.
pub const GATE_MIN_SPEEDUP: f64 = 5.0;

/// Dense-vs-sparse measurement of one deck size.
pub struct CrossoverPoint {
    /// MNA unknowns of the deck.
    pub unknowns: usize,
    /// Forced-dense run, minimum wall-clock over the laps.
    pub dense_wall: Duration,
    /// Forced-sparse run, minimum wall-clock over the laps.
    pub sparse_wall: Duration,
    /// Whether a [`SolverPath::Auto`] run of this deck took the sparse
    /// path.
    pub auto_used_sparse: bool,
}

impl CrossoverPoint {
    /// Dense wall divided by sparse wall (> 1 means sparse wins).
    pub fn speedup(&self) -> f64 {
        self.dense_wall.as_secs_f64() / self.sparse_wall.as_secs_f64().max(1e-12)
    }
}

/// Outcome of the fleet-determinism campaign.
pub struct FleetOutcome {
    /// Jobs in the campaign.
    pub jobs: usize,
    /// MNA unknowns per deck.
    pub unknowns: usize,
    /// Symbolic analyses across the serial run's jobs.
    pub symbolic_analyses: u64,
    /// Cached-symbolic-analysis reuses across the serial run's jobs.
    pub symbolic_reuses: u64,
}

impl FleetOutcome {
    /// Whether the symbolic cache actually served the campaign: every job
    /// either performed the one analysis or reused it.
    pub fn cache_effective(&self) -> bool {
        self.symbolic_analyses + self.symbolic_reuses == self.jobs as u64
            && self.symbolic_reuses >= self.jobs as u64 - 1
    }
}

/// The full sparse-solver benchmark report.
pub struct SparseBenchReport {
    /// The headline ladder, dense vs sparse.
    pub ladder: CrossoverPoint,
    /// Sparse solver counters of the headline ladder's sparse run.
    pub ladder_stats: SolverStats,
    /// The crossover table, ascending unknown count.
    pub crossover: Vec<CrossoverPoint>,
    /// Whether Auto picked dense below [`SPARSE_MIN_UNKNOWNS`] and sparse
    /// at or above it for every measured size.
    pub auto_policy_ok: bool,
    /// The fleet-determinism campaign.
    pub fleet: FleetOutcome,
}

impl SparseBenchReport {
    /// Whether the headline speedup, the Auto policy proof and the
    /// symbolic-cache proof all hold.
    pub fn gate_met(&self) -> bool {
        self.ladder.speedup() >= GATE_MIN_SPEEDUP
            && self.auto_policy_ok
            && self.fleet.cache_effective()
    }

    /// Renders the report as the `BENCH_PR8.json` document.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::from(i64::try_from(v).unwrap_or(i64::MAX));
        let point = |p: &CrossoverPoint| {
            Json::obj([
                ("unknowns", Json::from(p.unknowns)),
                ("dense_wall_s", Json::from(p.dense_wall.as_secs_f64())),
                ("sparse_wall_s", Json::from(p.sparse_wall.as_secs_f64())),
                ("speedup", Json::from(p.speedup())),
                ("auto_used_sparse", Json::from(p.auto_used_sparse)),
            ])
        };
        Json::obj([
            ("bench", Json::from("pr8_sparse_mna")),
            ("gate_min_speedup", Json::from(GATE_MIN_SPEEDUP)),
            ("gate_met", Json::from(self.gate_met())),
            ("sparse_min_unknowns", Json::from(SPARSE_MIN_UNKNOWNS)),
            ("ladder", point(&self.ladder)),
            ("ladder_speedup", Json::from(self.ladder.speedup())),
            (
                "ladder_stats",
                Json::obj([
                    ("steps", int(self.ladder_stats.steps)),
                    ("factorizations", int(self.ladder_stats.factorizations)),
                    ("factor_reuses", int(self.ladder_stats.factor_reuses)),
                    (
                        "symbolic_analyses",
                        int(self.ladder_stats.symbolic_analyses),
                    ),
                    ("symbolic_reuses", int(self.ladder_stats.symbolic_reuses)),
                    (
                        "post_warmup_allocations",
                        int(self.ladder_stats.post_warmup_allocations),
                    ),
                ]),
            ),
            ("auto_policy_ok", Json::from(self.auto_policy_ok)),
            (
                "crossover",
                Json::Array(self.crossover.iter().map(point).collect()),
            ),
            (
                "fleet",
                Json::obj([
                    ("jobs", Json::from(self.fleet.jobs)),
                    ("unknowns", Json::from(self.fleet.unknowns)),
                    ("bit_identical_across_threads", Json::from(true)),
                    ("symbolic_analyses", int(self.fleet.symbolic_analyses)),
                    ("symbolic_reuses", int(self.fleet.symbolic_reuses)),
                    ("cache_effective", Json::from(self.fleet.cache_effective())),
                ]),
            ),
            ("differential_within_tolerance", Json::from(true)),
        ])
    }
}

/// Ladder run options: 100 fixed steps regardless of size, so the table
/// compares per-step solve cost at equal step counts.
fn ladder_opts() -> TransientOptions {
    TransientOptions::new(2e-9, 200e-9)
}

/// Minimum-of-[`LAPS`] wall-clock of `nl` under the given forced path,
/// plus the (identical every lap) result.
fn time_path(
    nl: &Netlist,
    opts: &TransientOptions,
    path: SolverPath,
) -> Result<(Duration, TransientResult), String> {
    let mut o = *opts;
    o.solver = path;
    let mut best: Option<(Duration, TransientResult)> = None;
    for _ in 0..LAPS {
        let start = Instant::now();
        let res = run_transient(nl, &o).map_err(|e| format!("transient: {e}"))?;
        let wall = start.elapsed();
        best = match best {
            Some((w, r)) if w <= wall => Some((w, r)),
            _ => Some((wall, res)),
        };
    }
    best.ok_or_else(|| "no laps run".to_string())
}

/// Measures one ladder size dense vs sparse and probes the Auto pick.
fn measure_ladder(sections: usize) -> Result<CrossoverPoint, String> {
    let nl = rc_ladder(sections);
    let opts = ladder_opts();
    let (dense_wall, dense) = time_path(&nl, &opts, SolverPath::Dense)?;
    let (sparse_wall, sparse) = time_path(&nl, &opts, SolverPath::Sparse)?;
    if dense.stats().used_sparse_path || !sparse.stats().used_sparse_path {
        return Err(format!("ladder {sections}: forced paths were not honored"));
    }
    assert_close(&sparse, &dense, &format!("ladder {sections}"))?;
    let mut auto_opts = opts;
    auto_opts.solver = SolverPath::Auto;
    let auto = run_transient(&nl, &auto_opts).map_err(|e| format!("auto transient: {e}"))?;
    Ok(CrossoverPoint {
        unknowns: nl.unknown_count(),
        dense_wall,
        sparse_wall,
        auto_used_sparse: auto.stats().used_sparse_path,
    })
}

/// Dense and sparse share structure and physics but not rounding; compare
/// against the larger of an absolute floor and a relative band.
fn assert_close(a: &TransientResult, b: &TransientResult, label: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: sample counts differ"));
    }
    for (x, y) in a
        .voltages_flat()
        .iter()
        .chain(a.currents_flat().iter())
        .zip(b.voltages_flat().iter().chain(b.currents_flat().iter()))
    {
        let tol = 1e-9 + 1e-6 * x.abs().max(y.abs());
        if (x - y).abs() > tol {
            return Err(format!(
                "{label}: sparse diverged from dense beyond tolerance ({x} vs {y})"
            ));
        }
    }
    Ok(())
}

/// Runs the fleet campaign once at `threads` workers, every deck solved
/// per-job under [`SolverPath::Auto`] (which routes them sparse).
fn run_fleet(decks: &[Netlist], threads: usize) -> Result<Vec<TransientResult>, String> {
    let opts = TransientOptions::new(20e-9, 4e-6);
    let outcome = Campaign::new("sensor_fleet", decks.to_vec())
        .threads(threads)
        .try_run(|_ctx, deck| run_transient(deck, &opts))
        .map_err(|e| format!("fleet campaign: {e}"))?;
    Ok(outcome.results)
}

/// The fleet-determinism campaign: value-variant sensor networks, serial
/// vs 4-thread byte-compare, symbolic-cache accounting from the serial
/// run.
fn run_fleet_campaign(jobs: usize) -> Result<FleetOutcome, String> {
    let decks: Vec<Netlist> = (0..jobs)
        .map(|k| coupled_tank_network_scaled(FLEET_TANKS, 0.9 + 0.01 * k as f64))
        .collect();
    let serial = run_fleet(&decks, 1)?;
    let threaded = run_fleet(&decks, 4)?;
    for (job, (s, t)) in serial.iter().zip(&threaded).enumerate() {
        if !bits_equal(s.times(), t.times())
            || !bits_equal(s.voltages_flat(), t.voltages_flat())
            || !bits_equal(s.currents_flat(), t.currents_flat())
        {
            return Err(format!(
                "fleet job {job}: sparse waveforms diverged bitwise between 1 and 4 threads"
            ));
        }
    }
    for (job, r) in serial.iter().enumerate() {
        if !r.stats().used_sparse_path {
            return Err(format!("fleet job {job}: expected the sparse path"));
        }
    }
    Ok(FleetOutcome {
        jobs,
        unknowns: decks[0].unknown_count(),
        symbolic_analyses: serial.iter().map(|r| r.stats().symbolic_analyses).sum(),
        symbolic_reuses: serial.iter().map(|r| r.stats().symbolic_reuses).sum(),
    })
}

/// Every workload family solved on both paths and compared within
/// tolerance.
fn run_differential() -> Result<(), String> {
    let decks: [(&str, Netlist, TransientOptions); 3] = [
        (
            "rc_ladder_120",
            rc_ladder(120),
            TransientOptions::new(2e-9, 400e-9),
        ),
        (
            "coupled_tanks_40",
            coupled_tank_network(40),
            TransientOptions::new(20e-9, 8e-6),
        ),
        (
            "pad_array_40",
            pad_driver_array(40),
            TransientOptions::new(10e-12, 2e-9),
        ),
    ];
    for (label, nl, opts) in decks {
        let (_, dense) = time_path(&nl, &opts, SolverPath::Dense)?;
        let (_, sparse) = time_path(&nl, &opts, SolverPath::Sparse)?;
        assert_close(&sparse, &dense, label)?;
    }
    Ok(())
}

fn run_sparse_bench_with(
    tracer: &Trace,
    ladder_sections: usize,
    crossover_sections: &[usize],
    fleet_jobs: usize,
) -> Result<SparseBenchReport, String> {
    let ladder = measure_ladder(ladder_sections)?;
    let nl = rc_ladder(ladder_sections);
    let opts = ladder_opts();
    let (_, sparse) = time_path(&nl, &opts, SolverPath::Sparse)?;
    let ladder_stats = sparse.stats();
    tracer.emit(|| TraceEvent::SolverStats {
        steps: ladder_stats.steps,
        newton_iterations: ladder_stats.newton_iterations,
        factorizations: ladder_stats.factorizations,
        factor_reuses: ladder_stats.factor_reuses,
        post_warmup_allocations: ladder_stats.post_warmup_allocations,
        batched_lanes: ladder_stats.batched_lanes,
        symbolic_analyses: ladder_stats.symbolic_analyses,
        symbolic_reuses: ladder_stats.symbolic_reuses,
        steps_accepted: ladder_stats.steps_accepted,
        steps_rejected: ladder_stats.steps_rejected,
        mode_switches: ladder_stats.mode_switches,
        envelope_permille: ladder_stats.envelope_permille,
    });

    let mut crossover = Vec::with_capacity(crossover_sections.len());
    for &sections in crossover_sections {
        crossover.push(measure_ladder(sections)?);
    }
    let auto_policy_ok = crossover
        .iter()
        .chain(std::iter::once(&ladder))
        .all(|p| p.auto_used_sparse == (p.unknowns >= SPARSE_MIN_UNKNOWNS));

    let fleet = run_fleet_campaign(fleet_jobs)?;
    run_differential()?;

    Ok(SparseBenchReport {
        ladder,
        ladder_stats,
        crossover,
        auto_policy_ok,
        fleet,
    })
}

/// Runs the full sparse-solver benchmark: headline ladder gate, crossover
/// table, fleet thread-determinism byte-compare and dense/sparse
/// differential. The headline sparse run's counters are emitted as
/// [`TraceEvent::SolverStats`] on `tracer`.
///
/// # Errors
///
/// A transient failure, a dishonored forced path, a bitwise thread-count
/// divergence or an out-of-tolerance dense/sparse differential.
pub fn run_sparse_bench(tracer: &Trace) -> Result<SparseBenchReport, String> {
    run_sparse_bench_with(tracer, LADDER_SECTIONS, &CROSSOVER_SECTIONS, FLEET_JOBS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_decks_share_one_digest_with_distinct_values() {
        let decks: Vec<Netlist> = (0..4)
            .map(|k| coupled_tank_network_scaled(FLEET_TANKS, 0.9 + 0.01 * k as f64))
            .collect();
        let digest = decks[0].structural_digest();
        assert!(decks.iter().all(|d| d.structural_digest() == digest));
        assert!((0..decks.len() - 1).any(|i| decks[i] != decks[i + 1]));
    }

    #[test]
    fn crossover_sizes_span_the_threshold() {
        let unknowns: Vec<usize> = CROSSOVER_SECTIONS.iter().map(|s| s + 2).collect();
        assert!(unknowns.iter().any(|&u| u < SPARSE_MIN_UNKNOWNS));
        assert!(unknowns.contains(&SPARSE_MIN_UNKNOWNS));
        assert!(unknowns.iter().any(|&u| u > SPARSE_MIN_UNKNOWNS));
    }

    #[test]
    fn short_bench_reports_and_proves_policy() {
        // A miniature of the real bench: same machinery, smaller ladder
        // and fleet. The policy proof, thread-count byte-compare and
        // differential are fully meaningful at any size; only the
        // headline speedup needs the 1000-node run.
        let report = run_sparse_bench_with(&Trace::off(), 220, &[16, 126], 6).expect("bench");
        assert_eq!(report.crossover.len(), 2);
        assert!(report.auto_policy_ok);
        assert!(report.fleet.cache_effective());
        assert!(report.ladder_stats.used_sparse_path);
        assert_eq!(report.ladder_stats.factorizations, 1);
        let json = report.to_json().render_pretty(2);
        for key in [
            "pr8_sparse_mna",
            "gate_min_speedup",
            "gate_met",
            "sparse_min_unknowns",
            "ladder_speedup",
            "auto_policy_ok",
            "auto_used_sparse",
            "bit_identical_across_threads",
            "cache_effective",
            "differential_within_tolerance",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn gate_logic_requires_speedup_policy_and_cache() {
        let point = |dense_ms: u64, sparse_ms: u64| CrossoverPoint {
            unknowns: 1002,
            dense_wall: Duration::from_millis(dense_ms),
            sparse_wall: Duration::from_millis(sparse_ms),
            auto_used_sparse: true,
        };
        let mk = |ladder: CrossoverPoint, policy: bool, reuses: u64| SparseBenchReport {
            ladder,
            ladder_stats: SolverStats::default(),
            crossover: Vec::new(),
            auto_policy_ok: policy,
            fleet: FleetOutcome {
                jobs: 4,
                unknowns: 96,
                symbolic_analyses: 4 - reuses.min(4),
                symbolic_reuses: reuses,
            },
        };
        assert!(mk(point(60, 10), true, 3).gate_met());
        assert!(!mk(point(40, 10), true, 3).gate_met(), "speedup gate");
        assert!(!mk(point(60, 10), false, 3).gate_met(), "policy gate");
        assert!(!mk(point(60, 10), true, 0).gate_met(), "cache gate");
    }
}
