//! `lcbench` — the lcosc benchmark.
//!
//! ```text
//! cargo run --release --manifest-path lcbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the workspace's public entry points, checks
//! its outputs, prints every metric by name with its unit, and ends with
//! one JSON line: `{"correct","attempted","failed","metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` the run repeats the workload inside in-memory spans and
//! reports the per-layer metrics, the per-layer self time and the tracing
//! overhead. See `lcbench/README.md` for the workloads and the layer map.

mod catalog;
mod measure;
mod mna;
mod serve_mix;

use lcosc_campaign::Json;
use measure::Span;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Environment variables that silently change library results; the
/// benchmark refuses to run under any of them.
const RESULT_CHANGING_ENV: [&str; 4] = [
    "LCOSC_SOLVER",
    "LCOSC_FIDELITY",
    "LCOSC_BATCH",
    "LCOSC_FORCE_SCALAR",
];

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["fault-catalog", "serve-mix", "mna-transient"];

/// Command-line arguments of one run.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<u64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// The end-to-end metrics: the same six on every workload, so each
/// workload checks every change for regressions on every metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct E2e {
    /// Wall seconds of one pass, each unit at its fastest (see [`Samples`]).
    pub wall_s: f64,
    /// Process CPU seconds of one pass, all threads, each unit at its
    /// fastest.
    pub cpu_s: f64,
    /// Median over the operations of a pass of their fastest latency, ms.
    pub op_p50_ms: f64,
    /// 99th percentile over the operations of a pass of their fastest
    /// latency, ms.
    pub op_p99_ms: f64,
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Peak resident memory of the process when the first pass ended, MB:
    /// set-up and one pass, not the high-water mark of however many passes
    /// the run fitted in.
    pub peak_rss_mb: f64,
}

impl E2e {
    fn values(&self) -> [(&'static str, f64, &'static str); 6] {
        [
            ("wall_s", self.wall_s, "s"),
            ("cpu_s", self.cpu_s, "s"),
            ("op_p50_ms", self.op_p50_ms, "ms"),
            ("op_p99_ms", self.op_p99_ms, "ms"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Raw samples of a measured phase, reduced to [`E2e`].
///
/// A pass repeats the same work every time, cut into units (a deck solve,
/// a window of requests, a campaign) and operations (a solve, a request).
/// The 2-core hosts this runs on show phases of seconds to minutes in
/// which the same code runs up to 2.5x slower, because other tenants of
/// the machine take its caches; a statistic over whole passes reads
/// whatever phase the run fell into. So a run reports, for each unit and
/// each operation, the fastest of its repetitions, the time it takes when
/// the host leaves it alone:
///
/// - `wall_s`, `cpu_s`: the sum over units of each unit's fastest wall
///   and CPU seconds, the time of one pass run entirely unhindered;
/// - `op_p50_ms`, `op_p99_ms`: the 50th and 99th percentile over the
///   operations of each operation's fastest latency;
/// - `setup_s`: the median of the run's set-ups.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall seconds of each pass.
    pub pass_wall_s: Vec<f64>,
    /// CPU seconds of each pass.
    pub pass_cpu_s: Vec<f64>,
    /// Fastest wall and CPU seconds of each unit so far.
    unit_best_s: Vec<(f64, f64)>,
    /// Fastest latency of each operation so far, ms.
    op_best_ms: Vec<f64>,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each run of the calibration kernel (workloads that scale
    /// to the reference host only).
    probe_s: Vec<f64>,
    /// Peak resident memory when the first pass ended, MB.
    first_pass_peak_rss_mb: f64,
}

impl Samples {
    /// Times the calibration kernel a few times; a workload that calls this
    /// between its passes reports its times scaled to the reference host
    /// (see [`Samples::host_scale`]).
    pub fn probe_host(&mut self) {
        for _ in 0..3 {
            self.probe_s.push(measure::host_probe_s());
        }
    }

    /// Factor that scales this run's times to the reference host:
    /// [`measure::HOST_PROBE_REFERENCE_S`] over the fastest calibration
    /// kernel of the run, or 1 when the workload does not probe.
    pub fn host_scale(&self) -> f64 {
        let fastest = self.probe_s.iter().copied().fold(f64::INFINITY, f64::min);
        if fastest.is_finite() {
            measure::HOST_PROBE_REFERENCE_S / fastest
        } else {
            1.0
        }
    }

    /// Records one pass given the wall and CPU seconds of each of its units
    /// and the latency of each of its operations in ms. Every pass of a
    /// phase must have the same units and operations, in the same order.
    pub fn push_pass(&mut self, units_s: &[(f64, f64)], op_ms: &[f64]) {
        self.pass_wall_s.push(units_s.iter().map(|u| u.0).sum());
        self.pass_cpu_s.push(units_s.iter().map(|u| u.1).sum());
        if self.unit_best_s.is_empty() {
            self.unit_best_s = units_s.to_vec();
            self.op_best_ms = op_ms.to_vec();
            self.first_pass_peak_rss_mb = measure::peak_rss_mb();
            return;
        }
        for (best, u) in self.unit_best_s.iter_mut().zip(units_s) {
            *best = (best.0.min(u.0), best.1.min(u.1));
        }
        for (best, &ms) in self.op_best_ms.iter_mut().zip(op_ms) {
            *best = best.min(ms);
        }
    }

    /// Whether another pass fits in `seconds` from `start`: always before
    /// the first pass; afterwards only if a pass as long as the last one
    /// ends in time, so a run does not start a long pass at its limit.
    pub fn another_pass_fits(&self, start: std::time::Instant, seconds: f64) -> bool {
        self.pass_wall_s
            .last()
            .is_none_or(|last| start.elapsed().as_secs_f64() + last <= seconds)
    }

    /// Reduces the samples, times in this run's seconds.
    pub fn measured(&self) -> E2e {
        E2e {
            wall_s: self.unit_best_s.iter().map(|u| u.0).sum(),
            cpu_s: self.unit_best_s.iter().map(|u| u.1).sum(),
            op_p50_ms: measure::percentile(&self.op_best_ms, 0.5),
            op_p99_ms: measure::percentile(&self.op_best_ms, 0.99),
            setup_s: measure::median(&self.setup_s),
            peak_rss_mb: self.first_pass_peak_rss_mb,
        }
    }

    /// Reduces the samples, times scaled to the reference host by
    /// [`Samples::host_scale`].
    pub fn e2e(&self) -> E2e {
        let k = self.host_scale();
        let m = self.measured();
        E2e {
            wall_s: m.wall_s * k,
            cpu_s: m.cpu_s * k,
            op_p50_ms: m.op_p50_ms * k,
            op_p99_ms: m.op_p99_ms * k,
            setup_s: m.setup_s * k,
            peak_rss_mb: m.peak_rss_mb,
        }
    }

    /// A note on the host scaling of this run, with the measured times.
    pub fn host_note(&self, phase: &str) -> String {
        let m = self.measured();
        format!(
            "{phase}: calibration kernel fastest {:.4} ms vs reference {:.4} ms, times scaled by {:.4}; measured wall_s={:.6} cpu_s={:.6} op_p50_ms={:.6} op_p99_ms={:.6} setup_s={:.6}",
            measure::HOST_PROBE_REFERENCE_S * 1e3 / self.host_scale(),
            measure::HOST_PROBE_REFERENCE_S * 1e3,
            self.host_scale(),
            m.wall_s,
            m.cpu_s,
            m.op_p50_ms,
            m.op_p99_ms,
            m.setup_s
        )
    }
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a non-`ok` response.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// End-to-end metrics of the untraced passes.
    pub untraced: E2e,
    /// End-to-end metrics of the traced passes (traced runs only).
    pub traced: Option<E2e>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Memory held by the span buffer, MB.
    pub span_buffer_mb: f64,
    /// Recorded outputs that are printed but not gated.
    pub notes: Vec<String>,
}

/// One per-layer metric: its name, unit, direction and the end-to-end
/// metric (on a workload) it is expected to move.
struct LayerMetric {
    name: String,
    unit: &'static str,
    better: &'static str,
    target: &'static str,
}

/// Layers the self-time table reports, in table order.
const LAYERS: [&str; 9] = [
    "bench", "campaign", "safety", "core", "serve", "spice", "circuit", "dac", "check",
];

/// End-to-end targets of the per-layer metrics, as `workload:metric`.
const CATALOG: &str = "fault-catalog:wall_s";
const SCENARIO: &str = "fault-catalog:wall_s,cpu_s";
const SERVE_HIT: &str = "serve-mix:op_p50_ms,wall_s";
const SERVE_MISS: &str = "serve-mix:op_p99_ms";
const MNA: &str = "mna-transient:wall_s";
const MNA_SPARSE: &str = "mna-transient:wall_s,op_p99_ms";

/// Per-layer metrics with fixed names: (name, unit, better, target).
const FIXED_LAYER_METRICS: [(&str, &str, &str, &str); 23] = [
    ("campaign.threads_used", "count", "higher", CATALOG),
    ("campaign.efficiency", "ratio", "higher", CATALOG),
    ("core.settle_s.cycle", "s", "lower", CATALOG),
    ("core.settle_s.envelope", "s", "lower", CATALOG),
    ("core.settle_s.multirate", "s", "lower", CATALOG),
    ("core.cycle_tick_us", "us", "lower", CATALOG),
    ("core.envelope_tick_us", "us", "lower", CATALOG),
    ("core.multirate_quiet_tick_us", "us", "lower", CATALOG),
    ("core.mode_switches", "count", "lower", CATALOG),
    ("core.envelope_ticks", "count", "higher", CATALOG),
    ("core.cycle_ticks", "count", "lower", CATALOG),
    ("core.bisections", "count", "lower", CATALOG),
    ("serve.cache_hits", "count", "higher", SERVE_HIT),
    ("serve.cache_misses", "count", "lower", SERVE_HIT),
    ("serve.hit_ratio", "ratio", "higher", SERVE_HIT),
    ("serve.replay_hit_ratio", "ratio", "higher", SERVE_MISS),
    ("serve.hit_p50_ms", "ms", "lower", "serve-mix:op_p50_ms"),
    ("serve.miss_p50_ms", "ms", "lower", SERVE_MISS),
    ("serve.miss_wait_ms", "ms", "lower", SERVE_MISS),
    (
        "spice.parse_us",
        "us",
        "lower",
        "serve-mix:op_p50_ms,op_p99_ms",
    ),
    ("circuit.netlist_from_json_us", "us", "lower", SERVE_MISS),
    ("dac.yield_us_per_die", "us", "lower", SERVE_MISS),
    ("check.prove_us", "us", "lower", SERVE_MISS),
];

/// Every per-layer metric, in output order. A traced run reports all of
/// them; a metric of a layer the workload does not reach reads 0.
fn layer_metrics() -> Vec<LayerMetric> {
    let m = |name: String, unit, better, target| LayerMetric {
        name,
        unit,
        better,
        target,
    };
    let mut v: Vec<LayerMetric> = FIXED_LAYER_METRICS
        .iter()
        .map(|&(name, unit, better, target)| m(name.to_string(), unit, better, target))
        .collect();
    for fault in catalog::fault_names() {
        v.push(m(
            format!("safety.scenario.{fault}_s"),
            "s",
            "lower",
            SCENARIO,
        ));
    }
    for stage in serve_mix::STAGES {
        v.push(m(format!("serve.{stage}_us"), "us", "lower", SERVE_HIT));
    }
    for kind in serve_mix::KIND_NAMES {
        let name = format!("serve.execute_us.{kind}");
        v.push(m(name, "us", "lower", "serve-mix:op_p99_ms,wall_s"));
    }
    for class in mna::CLASSES {
        let target = if class == "sparse" { MNA_SPARSE } else { MNA };
        v.push(m(format!("circuit.{class}.step_us"), "us", "lower", target));
        for (counter, better) in mna::COUNTERS {
            v.push(m(
                format!("circuit.{class}.{counter}"),
                "count",
                better,
                target,
            ));
        }
    }
    for layer in LAYERS {
        v.push(m(format!("self_s.{layer}"), "s", "lower", "all:wall_s"));
    }
    for (name, _, unit) in E2e::default().values() {
        v.push(m(format!("trace_overhead.{name}"), unit, "lower", "all"));
    }
    v
}

fn result_line(correct: bool, outcome: &Outcome, metrics: Vec<(String, f64, &str)>) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Json::Object(vec![
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::from(unit)),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".to_string(), Json::from(correct)),
        (
            "attempted".to_string(),
            Json::Int(i64::try_from(outcome.attempted).unwrap_or(i64::MAX)),
        ),
        (
            "failed".to_string(),
            Json::Int(i64::try_from(outcome.failed).unwrap_or(i64::MAX)),
        ),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .render()
}

fn report(args: &Args, outcome: &mut Outcome) -> String {
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("end-to-end (untraced):");
    for (name, value, unit) in outcome.untraced.values() {
        println!("  {name:<12} {value:>14.6} {unit}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    let Some(traced) = outcome.traced else {
        let metrics = outcome
            .untraced
            .values()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        return result_line(correct, outcome, metrics);
    };
    println!("tracing overhead (traced - untraced):");
    for ((name, u, unit), (_, t, _)) in outcome.untraced.values().into_iter().zip(traced.values()) {
        // Peak memory is a process-lifetime high-water mark, so its
        // overhead is the span buffer itself.
        let delta = if name == "peak_rss_mb" {
            outcome.span_buffer_mb
        } else {
            t - u
        };
        println!("  {name:<12} {delta:>+14.6} {unit}");
        outcome
            .layers
            .insert(format!("trace_overhead.{name}"), delta);
    }
    let self_s = measure::self_seconds_by_layer(&outcome.spans);
    println!("self time per layer ({}):", args.workload);
    for layer in LAYERS {
        let s = self_s.get(layer).copied().unwrap_or(0.0);
        println!("  {layer:<10} {s:>12.6} s");
        outcome.layers.insert(format!("self_s.{layer}"), s);
    }
    println!("per-layer metrics (-> end-to-end metric they should move):");
    let mut metrics = Vec::new();
    for lm in layer_metrics() {
        let value = outcome.layers.get(&lm.name).copied().unwrap_or(0.0);
        println!(
            "  {:<40} {value:>16.6} {:<5} {:<6} -> {}",
            lm.name, lm.unit, lm.better, lm.target
        );
        metrics.push((lm.name, value, lm.unit));
    }
    result_line(correct, outcome, metrics)
}

fn main() -> ExitCode {
    if let Some(var) = RESULT_CHANGING_ENV
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!(
            "lcbench: refusing to run: {var} is set and silently changes library results; unset it"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcbench: {e}");
            eprintln!("usage: lcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "lcbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let run = match args.workload.as_str() {
        "fault-catalog" => catalog::run(&args),
        "serve-mix" => serve_mix::run(&args),
        _ => mna::run(&args),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lcbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match measure::write_spans(&path, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => outcome.mismatches.push(format!("writing spans: {e}")),
        }
    }
    for m in &outcome.mismatches {
        println!("MISMATCH: {m}");
    }
    let line = report(&args, &mut outcome);
    println!("{line}");
    if outcome.mismatches.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
