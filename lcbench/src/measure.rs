//! Measurement plumbing shared by every workload: in-memory spans and their
//! self-time breakdown, process CPU and peak-memory probes, percentiles and
//! the seeded generator the workloads draw their inputs from.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer, recorded by the benchmark around a public
/// function of the workspace.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or job) the span belongs to; spans of one request share it.
    pub request: u64,
}

/// Handle to an open span, passed to the closure so nested calls can name
/// their parent. `SpanId::ROOT` has no parent.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No enclosing span.
    pub const ROOT: SpanId = SpanId(None);
}

/// In-memory span recorder. A disabled tracer only runs the closures, so
/// untraced runs pay for nothing but a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(SpanId::ROOT);
        }
        let index = {
            let mut spans = self.spans.lock().expect("span buffer lock poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: parent.0,
                request,
            });
            spans.len() - 1
        };
        let out = f(SpanId(Some(index)));
        let end = self.now_ns();
        self.spans.lock().expect("span buffer lock poisoned")[index].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Memory held by the span buffer, in MB.
    pub fn buffer_mb(&self) -> f64 {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        (spans.capacity() * std::mem::size_of::<Span>()) as f64 / 1e6
    }
}

/// The layer of a span name: the part before the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children of one parent may overlap when they
/// run on several threads, so their union is subtracted).
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
        .collect()
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by this process and all its threads, finished ones
/// included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which refers to a live, properly laid out local; the clock
    // id is a constant the kernel supports, and on failure the local keeps
    // its zero value.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&allowed)` bytes of
    // CPU mask through the pointer, which refers to a live local array of
    // exactly that size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&one)` bytes of CPU mask
    // through the pointer, which refers to a live local array of exactly
    // that size.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fastest time of [`host_probe_s`] on an uncontended host: a 2-vCPU
/// x86-64 container (Intel Xeon, 2.0 GHz nominal), release build.
pub const HOST_PROBE_REFERENCE_S: f64 = 2.40e-3;

/// Times one run of a fixed calibration kernel, in seconds.
///
/// The kernel mixes `exp` with strided reads and writes over a 256 KB array
/// that lives in the core's L2 cache, the resource other tenants of a shared
/// host take from this process in its slow phases; it slows with them much
/// as the MNA solver and the serve path do.
pub fn host_probe_s() -> f64 {
    const LEN: usize = 32 * 1024;
    let t = Instant::now();
    let mut a = vec![1.0f64; LEN];
    let mut acc = 0.0;
    for r in 0..12 {
        for i in 0..LEN {
            a[i] = a[i] * 0.999 + ((i + r) as f64 * 1e-6).exp() * 1e-9;
            acc += a[(i * 7919) % LEN];
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `nominal` scaled by a uniform factor in `[1 - spread, 1 + spread)`.
    pub fn jitter(&mut self, nominal: f64, spread: f64) -> f64 {
        nominal * self.range(1.0 - spread, 1.0 + spread)
    }
}

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
pub fn fnv_f64(mut hash: u64, values: &[f64]) -> u64 {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
