//! `serve-mix`: a `ServeEngine` with `ServeConfig::default()` (2 workers,
//! 256-entry cache) driven in-process through `submit_line` by one client
//! in a closed loop: it sends its next request only after the previous
//! response arrived. The process is pinned to one core, so a miss hands
//! off to a worker without waking another CPU; on a shared host such
//! wake-ups cost whatever the hypervisor makes them cost, and with two
//! clients on two cores runs of the same code spread 0.11–0.22.
//!
//! The seeded stream draws from a pool of distinct requests larger than the
//! cache, with Zipf popularity, so about three quarters of requests hit and
//! evictions keep the cache both read and written. The pool mixes transient
//! RC/RLC decks in JSON, diode-clamp decks in `.sp` spelling, `.sp`
//! spellings of some JSON decks (same cache digest), yield campaigns of
//! 24–136 dies and `prove` on the three presets. There is no `scenario`
//! kind: one 10 s mission would make these latencies measure the
//! scheduler; `fault-catalog` measures that cost.
//!
//! Every pass starts a fresh engine, so each pass does the same work from a
//! cold cache, timed in windows of 100 consecutive requests. Every response
//! must equal the single-threaded replay of the same line through the
//! protocol's public functions; after the timed passes, one pass through a
//! real `serve_tcp` server over loopback must too.

use crate::measure::{self, Rng, SpanId, Tracer};
use crate::{Args, Outcome, Samples};
use lcosc_campaign::{digest_bytes, Json};
use lcosc_serve::protocol::request_id;
use lcosc_serve::{
    canonical_key, desugar_spice, execute, parse_request, response_line, serve_tcp, Body, Preset,
    ResultCache, ServeConfig, ServeEngine,
};
use lcosc_trace::ServeStatus;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Front-end stages of the admission path, as the replay's spans and the
/// per-layer metrics name them.
pub const STAGES: [&str; 6] = [
    "json_parse",
    "desugar_spice",
    "parse_request",
    "canonical_key",
    "cache",
    "render",
];

/// Execute classes of pool keys, as the per-layer metrics name them.
pub const KIND_NAMES: [&str; 4] = ["transient_json", "transient_spice", "yield", "prove"];
const JSON: usize = 0;
const SPICE: usize = 1;
const YIELD: usize = 2;
const PROVE: usize = 3;

/// Distinct requests in the pool (more than the 256-entry cache).
const POOL: usize = 600;
/// Pool keys per kind: yield campaigns, diode-clamp `.sp` decks and JSON
/// decks; the three `prove` presets make up the rest.
const YIELD_KEYS: usize = 87;
const SPICE_KEYS: usize = 150;
/// Every this many JSON decks, one also has a `.sp` spelling.
const ALIAS_EVERY: usize = 4;
/// Requests per pass.
const STREAM: usize = 4000;
/// Requests per timing window of a pass (about 25 ms of work).
const WINDOW: usize = 100;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;
/// Closed-loop clients.
const CLIENTS: usize = 1;
/// Result-cache capacity of `ServeConfig::default()`.
const CACHE_ENTRIES: usize = 256;

/// One distinct request (one cache digest) of the pool.
struct Key {
    kind: usize,
    /// Request members after `"id"`, one entry per spelling.
    spellings: Vec<String>,
    /// `.sp` text, JSON deck text, yield parameters or preset, for the
    /// per-layer probes.
    spice: Option<String>,
    deck: Option<String>,
    yield_job: Option<(u32, u64, f64)>,
    preset: Option<&'static str>,
}

/// One request line of the stream.
struct Line {
    text: String,
    key: usize,
    /// Whether this line uses a `.sp` spelling (desugared before the cache
    /// probe).
    spice: bool,
}

struct Workload {
    keys: Vec<Key>,
    lines: Vec<Line>,
}

/// Shortest round-trip float text, read back identically by the JSON and
/// `.sp` parsers.
fn num(v: f64) -> String {
    format!("{v:?}")
}

fn escape(text: &str) -> String {
    text.replace('\n', "\\n")
}

/// The `k`-th of 13 evenly spaced sizes from `lo` to `hi`. Sizes that set a
/// request's cost (steps, dies) follow the pool index, not the seed, so
/// every seed puts the same costs at the same popularity ranks; the seed
/// picks element values and campaign seeds.
fn spread_size(k: usize, lo: u64, hi: u64) -> u64 {
    lo + (hi - lo) * ((k * 7) % 13) as u64 / 12
}

/// A JSON-deck transient: an RC ladder or a series RLC, with its `.sp`
/// spelling.
fn json_deck(rng: &mut Rng, k: usize) -> (String, String, String) {
    let sine = k.is_multiple_of(2);
    let (wave_json, wave_sp) = if sine {
        let (a, f) = (rng.range(0.5, 2.0), rng.range(2e5, 2e6));
        (
            format!(
                "{{\"type\":\"sine\",\"offset\":0.0,\"amplitude\":{},\"frequency\":{},\"phase\":0.0}}",
                num(a),
                num(f)
            ),
            format!("sin({} {} {})", num(0.0), num(a), num(f)),
        )
    } else {
        let v = rng.range(0.5, 3.3);
        (
            format!("{{\"type\":\"dc\",\"value\":{}}}", num(v)),
            format!("dc {}", num(v)),
        )
    };
    let mut nodes = vec!["in".to_string()];
    let mut elements = vec![format!(
        "{{\"kind\":\"vsource\",\"p\":\"in\",\"n\":\"gnd\",\"wave\":{wave_json}}}"
    )];
    let mut sp = format!("* generated deck\nV1 in 0 {wave_sp}\n");
    let dt;
    if k % 5 < 3 {
        let sections = (k % 4 + 1) as u64;
        dt = 1e-7;
        let mut prev = "in".to_string();
        for k in 1..=sections {
            let (r, c) = (rng.range(500.0, 5000.0), rng.range(1e-9, 1e-8));
            let n = format!("n{k}");
            elements.push(format!(
                "{{\"kind\":\"resistor\",\"a\":\"{prev}\",\"b\":\"{n}\",\"ohms\":{}}}",
                num(r)
            ));
            elements.push(format!(
                "{{\"kind\":\"capacitor\",\"a\":\"{n}\",\"b\":\"gnd\",\"farads\":{},\"v0\":0.0}}",
                num(c)
            ));
            let _ = writeln!(sp, "R{k} {prev} {n} {}\nC{k} {n} 0 {}", num(r), num(c));
            nodes.push(n.clone());
            prev = n;
        }
    } else {
        let (r, l, c) = (
            rng.range(5.0, 50.0),
            rng.range(5e-6, 5e-5),
            rng.range(1e-9, 5e-9),
        );
        dt = 1e-8;
        nodes.extend(["a".to_string(), "b".to_string()]);
        elements.push(format!(
            "{{\"kind\":\"resistor\",\"a\":\"in\",\"b\":\"a\",\"ohms\":{}}}",
            num(r)
        ));
        elements.push(format!(
            "{{\"kind\":\"inductor\",\"a\":\"a\",\"b\":\"b\",\"henries\":{},\"i0\":0.0}}",
            num(l)
        ));
        elements.push(format!(
            "{{\"kind\":\"capacitor\",\"a\":\"b\",\"b\":\"gnd\",\"farads\":{},\"v0\":0.0}}",
            num(c)
        ));
        let _ = writeln!(
            sp,
            "R1 in a {}\nL1 a b {}\nC1 b 0 {}",
            num(r),
            num(l),
            num(c)
        );
    }
    let t_end = dt * spread_size(k, 400, 1600) as f64;
    let _ = write!(sp, ".tran {} {} uic\n.end\n", num(dt), num(t_end));
    let nodes: Vec<String> = nodes.iter().map(|n| format!("\"{n}\"")).collect();
    let deck = format!(
        "{{\"nodes\":[{}],\"elements\":[{}]}}",
        nodes.join(","),
        elements.join(",")
    );
    let body = format!(
        "\"kind\":\"transient\",\"deck\":{deck},\"dt\":{},\"t_end\":{},\"record_stride\":8}}",
        num(dt),
        num(t_end)
    );
    (body, deck, sp)
}

/// A nonlinear anti-parallel diode-clamp tank in `.sp` spelling.
fn diode_clamp(rng: &mut Rng, k: usize) -> String {
    let dt = 1e-8;
    format!(
        "* diode clamp tank\n.model clamp d is={} n={}\nL1 tank 0 {} ic={}\nC1 tank 0 {}\n\
         D1 tank 0 clamp\nD2 0 tank clamp\nR1 tank 0 {}\n.tran {} {} uic\n.end\n",
        num(rng.range(2e-15, 8e-15)),
        num(rng.range(1.0, 1.1)),
        num(rng.range(8e-6, 12e-6)),
        num(rng.range(5e-4, 2e-3)),
        num(rng.range(1.8e-9, 2.6e-9)),
        num(rng.range(1500.0, 3000.0)),
        num(dt),
        num(dt * spread_size(k, 1000, 2500) as f64),
    )
}

fn spice_body(text: &str) -> String {
    format!(
        "\"kind\":\"transient\",\"spice\":\"{}\",\"record_stride\":8}}",
        escape(text)
    )
}

/// The canonical cache key of a request body, through the same public
/// functions the engine uses.
fn key_of(body: &str) -> Result<String, String> {
    let v = Json::parse(&format!("{{{body}")).map_err(|e| format!("generated line: {e}"))?;
    let v = desugar_spice(&v)?;
    parse_request(&v)?;
    Ok(canonical_key(&v))
}

/// Generates the pool and the stream from `seed`, and checks that pool
/// keys are distinct and that every `.sp` alias shares its JSON deck's
/// cache key.
fn generate(seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::new(seed, 0x7365_7276);
    let mut keys = Vec::with_capacity(POOL);
    for preset in ["fast_test", "datasheet_3mhz", "low_q"] {
        keys.push(Key {
            kind: PROVE,
            spellings: vec![format!("\"kind\":\"prove\",\"preset\":\"{preset}\"}}")],
            spice: None,
            deck: None,
            yield_job: None,
            preset: Some(preset),
        });
    }
    for k in 0..YIELD_KEYS {
        let dies = spread_size(k, 24, 136) as u32;
        let seed = rng.int(0, (1 << 31) - 1);
        let window = [0.1, 0.15, 0.2][rng.int(0, 2) as usize];
        keys.push(Key {
            kind: YIELD,
            spellings: vec![format!(
                "\"kind\":\"campaign\",\"campaign\":\"yield\",\"dies\":{dies},\"seed\":{seed},\"window\":{}}}",
                num(window)
            )],
            spice: None,
            deck: None,
            yield_job: Some((dies, seed, window)),
            preset: None,
        });
    }
    for k in 0..SPICE_KEYS {
        let text = diode_clamp(&mut rng, k);
        keys.push(Key {
            kind: SPICE,
            spellings: vec![spice_body(&text)],
            spice: Some(text),
            deck: None,
            yield_job: None,
            preset: None,
        });
    }
    let json_keys = POOL - keys.len();
    for k in 0..json_keys {
        let (body, deck, sp) = json_deck(&mut rng, k);
        let mut spellings = vec![body];
        if k % ALIAS_EVERY == 0 {
            spellings.push(spice_body(&sp));
        }
        keys.push(Key {
            kind: JSON,
            spellings,
            spice: (k % ALIAS_EVERY == 0).then_some(sp),
            deck: Some(deck),
            yield_job: None,
            preset: None,
        });
    }
    let mut seen = HashSet::new();
    for key in &keys {
        let canonical = key_of(&key.spellings[0])?;
        for alias in &key.spellings[1..] {
            if key_of(alias)? != canonical {
                return Err("a .sp spelling does not share its JSON deck's cache key".to_string());
            }
        }
        if !seen.insert(canonical) {
            return Err("generated pool holds a duplicate request".to_string());
        }
    }
    // Popularity: Zipf over the pool in rank order. Ranks interleave the
    // kinds in proportion to their pool counts (smooth weighted round
    // robin), so every seed's stream has the same kind mix at every
    // popularity level; which decks, campaigns and values sit at each rank
    // is what the seed changes.
    let mut by_kind: Vec<VecDeque<usize>> = vec![VecDeque::new(); KIND_NAMES.len()];
    for (k, key) in keys.iter().enumerate() {
        by_kind[key.kind].push_back(k);
    }
    let weights: Vec<i64> = by_kind.iter().map(|v| v.len() as i64).collect();
    let mut credit = vec![0i64; weights.len()];
    let mut rank = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        for (c, w) in credit.iter_mut().zip(&weights) {
            *c += w;
        }
        let pick = (0..credit.len())
            .max_by_key(|&k| (credit[k], std::cmp::Reverse(k)))
            .expect("four kinds");
        credit[pick] -= POOL as i64;
        rank.extend(by_kind[pick].pop_front());
    }
    let mut cumulative = Vec::with_capacity(POOL);
    let mut total = 0.0;
    for r in 0..POOL {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    let lines = (0..STREAM)
        .map(|id| {
            let u = rng.unit() * total;
            let r = cumulative.partition_point(|&c| c <= u).min(POOL - 1);
            let key = rank[r];
            let spellings = &keys[key].spellings;
            let s = if spellings.len() > 1 && rng.unit() < 0.5 {
                1
            } else {
                0
            };
            Line {
                text: format!("{{\"id\":{id},{}", spellings[s]),
                key,
                spice: spellings[s].contains("\"spice\""),
            }
        })
        .collect();
    Ok(Workload { keys, lines })
}

/// How a client reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// `ServeEngine::submit_line` in the client's own thread.
    InProcess,
    /// A line over a loopback connection to `serve_tcp`.
    Tcp,
}

/// One client of the engine.
enum Client {
    InProcess(Arc<ServeEngine>),
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client::Tcp {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let (reader, writer) = match self {
            Client::InProcess(engine) => return Ok(engine.submit_line(line).wait()),
            Client::Tcp { reader, writer } => (reader, writer),
        };
        writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(response.trim_end().to_string())
    }
}

/// What one served pass observed, besides its responses.
struct Served {
    /// Send and receive time per request id, ns since the pass started.
    times_ns: Vec<(u64, u64)>,
    /// Process CPU seconds since the pass started, read by the client as
    /// each response arrived, per request id.
    cpu_at_s: Vec<f64>,
    setup_s: f64,
    /// Engine counters from the `stats` request after the pass.
    cache_hits: f64,
    cache_misses: f64,
}

/// Response line per request id (`None` after an I/O error).
type Responses = Vec<Option<String>>;

/// One client exchange: request id, response, send and receive times (ns
/// since the pass started), and process CPU seconds since the pass started
/// when the response arrived.
type Exchange = (usize, Option<String>, u64, u64, f64);

/// Starts a fresh engine (behind a `serve_tcp` server for
/// [`Transport::Tcp`]), drives the stream through it, reads its counters,
/// and shuts it down.
fn serve_pass(
    lines: &[Line],
    transport: Transport,
    tracer: &Tracer,
    parent: SpanId,
    setup_started: Instant,
) -> Result<(Served, Responses), String> {
    let io = |e: std::io::Error| format!("serve-mix I/O: {e}");
    let engine = ServeEngine::start(&ServeConfig::default());
    let (mut clients, server) = if transport == Transport::Tcp {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        // Connect before the accept loop starts, so it finds both
        // connections waiting instead of polling for them.
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(io)?;
        let engine = Arc::clone(&engine);
        let server = std::thread::spawn(move || serve_tcp(&engine, &listener));
        (clients, Some(server))
    } else {
        let clients = (0..CLIENTS)
            .map(|_| Client::InProcess(Arc::clone(&engine)))
            .collect();
        (clients, None)
    };
    for c in &mut clients {
        c.roundtrip("{\"kind\":\"stats\"}").map_err(io)?;
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let span = match transport {
        Transport::InProcess => "serve.submit_line",
        Transport::Tcp => "serve.tcp_request",
    };
    let n = lines.len();
    let start = Instant::now();
    let cpu0 = measure::process_cpu_s();
    let per_client: Vec<Vec<Exchange>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut seen = Vec::with_capacity(n / CLIENTS + 1);
                    for id in (c..n).step_by(CLIENTS) {
                        let sent = start.elapsed().as_nanos() as u64;
                        let response = tracer.span(span, parent, id as u64, |_| {
                            client.roundtrip(&lines[id].text).ok()
                        });
                        let received = start.elapsed().as_nanos() as u64;
                        let cpu = measure::process_cpu_s() - cpu0;
                        seen.push((id, response, sent, received, cpu));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let stats = clients[0].roundtrip("{\"kind\":\"stats\"}").map_err(io)?;
    let cache = Json::parse(&stats)
        .ok()
        .and_then(|v| v.get("result").and_then(|r| r.get("cache")).cloned());
    let counter = |k: &str| {
        cache
            .as_ref()
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (cache_hits, cache_misses) = (counter("hits"), counter("misses"));
    clients[0]
        .roundtrip("{\"kind\":\"shutdown\"}")
        .map_err(io)?;
    drop(clients);
    if let Some(server) = server {
        server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(io)?;
    }
    engine.shutdown();

    let mut responses = vec![None; n];
    let mut times_ns = vec![(0, 0); n];
    let mut cpu_at_s = vec![0.0; n];
    for (id, response, sent, received, cpu) in per_client.into_iter().flatten() {
        responses[id] = response;
        times_ns[id] = (sent, received);
        cpu_at_s[id] = cpu;
    }
    let served = Served {
        times_ns,
        cpu_at_s,
        setup_s,
        cache_hits,
        cache_misses,
    };
    Ok((served, responses))
}

/// Marks each request of a served pass as a cache hit or miss by replaying
/// the engine's FIFO cache over the client-observed times: a request hits
/// when its key was inserted (its first miss answered) before it was sent
/// and not evicted since.
fn classify(lines: &[Line], times_ns: &[(u64, u64)]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..lines.len()).collect();
    order.sort_by_key(|&i| times_ns[i].0);
    let mut pending = BinaryHeap::new();
    let mut cached = HashSet::new();
    let mut fifo = VecDeque::new();
    let mut hit = vec![false; lines.len()];
    for i in order {
        while let Some(&Reverse((done, key))) = pending.peek() {
            if done > times_ns[i].0 {
                break;
            }
            pending.pop();
            if cached.insert(key) {
                fifo.push_back(key);
                if fifo.len() > CACHE_ENTRIES {
                    if let Some(old) = fifo.pop_front() {
                        cached.remove(&old);
                    }
                }
            }
        }
        let key = lines[i].key;
        hit[i] = cached.contains(&key);
        if !hit[i] {
            pending.push(Reverse((times_ns[i].1, key)));
        }
    }
    hit
}

/// A replayed request: its response line, whether it hit the cache, and
/// its time in ms.
type Replayed = (String, bool, f64);

/// The single-threaded replay of the stream through the protocol's public
/// functions, mirroring the engine's admission path.
fn replay(lines: &[Line], tracer: &Tracer) -> Vec<Replayed> {
    let mut cache = ResultCache::new(CACHE_ENTRIES);
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let req = i as u64;
            let t = Instant::now();
            let mut hit = false;
            let response = tracer.span("serve.request", SpanId::ROOT, req, |parent| {
                let reject = |id: &Json, e: String| {
                    tracer.span("serve.render", parent, req, |_| {
                        response_line(id, ServeStatus::BadRequest, &Body::Error(e))
                    })
                };
                let v = match tracer
                    .span("serve.json_parse", parent, req, |_| Json::parse(&line.text))
                {
                    Ok(v) => v,
                    Err(e) => return reject(&Json::Null, format!("invalid JSON: {e}")),
                };
                let id = request_id(&v);
                let v = match tracer.span("serve.desugar_spice", parent, req, |_| desugar_spice(&v))
                {
                    Ok(v) => v,
                    Err(e) => return reject(&id, e),
                };
                let request =
                    match tracer.span("serve.parse_request", parent, req, |_| parse_request(&v)) {
                        Ok(r) => r,
                        Err(e) => return reject(&id, e),
                    };
                let (canonical, digest) = tracer.span("serve.canonical_key", parent, req, |_| {
                    let c = canonical_key(&v);
                    let d = digest_bytes(c.as_bytes());
                    (c, d)
                });
                let cached = tracer.span("serve.cache", parent, req, |_| {
                    cache.get(digest, &canonical).map(str::to_string)
                });
                let (status, body) = match cached {
                    Some(payload) => {
                        hit = true;
                        (ServeStatus::Ok, Body::Payload(payload))
                    }
                    None => {
                        match tracer.span("serve.execute", parent, req, |_| execute(&request)) {
                            Ok(payload) => {
                                let rendered =
                                    tracer.span("serve.render", parent, req, |_| payload.render());
                                tracer.span("serve.cache", parent, req, |_| {
                                    cache.insert(digest, &canonical, rendered.clone());
                                });
                                (ServeStatus::Ok, Body::Payload(rendered))
                            }
                            Err(e) => (ServeStatus::Error, Body::Error(e)),
                        }
                    }
                };
                tracer.span("serve.render", parent, req, |_| {
                    response_line(&id, status, &body)
                })
            });
            (response, hit, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Checks a served pass against the replay and counts its failures.
fn check_pass(k: usize, responses: &Responses, expected: &[Replayed], out: &mut Outcome) {
    let mut differing = 0;
    for (id, (response, (want, _, _))) in responses.iter().zip(expected).enumerate() {
        out.attempted += 1;
        let ok_prefix = format!("{{\"id\":{id},\"status\":\"ok\"");
        match response {
            Some(r) => {
                if !r.starts_with(&ok_prefix) {
                    out.failed += 1;
                }
                if r != want {
                    differing += 1;
                }
            }
            None => {
                out.failed += 1;
                differing += 1;
            }
        }
    }
    if differing > 0 {
        out.mismatches.push(format!(
            "pass {k}: {differing} responses differ from the replay's response_line"
        ));
    }
}

/// Wall and CPU seconds of each window of [`WINDOW`] consecutive request
/// ids: from the last response of the window before to its own last
/// response, so the windows tile the pass.
fn windows(pass: &Served) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(pass.times_ns.len().div_ceil(WINDOW));
    let (mut end_ns, mut end_cpu_s) = (0, 0.0);
    for (times, cpu) in pass
        .times_ns
        .chunks(WINDOW)
        .zip(pass.cpu_at_s.chunks(WINDOW))
    {
        let last = (0..times.len())
            .max_by_key(|&i| times[i].1)
            .expect("chunks are not empty");
        let (ns, cpu_s) = (times[last].1, cpu[last]);
        out.push((
            ns.saturating_sub(end_ns) as f64 * 1e-9,
            (cpu_s - end_cpu_s).max(0.0),
        ));
        (end_ns, end_cpu_s) = (ns, cpu_s);
    }
    out
}

/// Served passes until `seconds` have passed, each with its own set-up
/// (which regenerates the inputs from the seed) and each checked against
/// the replay as it ends.
fn passes(
    workload: &Workload,
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
    expected: &[Replayed],
    out: &mut Outcome,
) -> Result<(Samples, Vec<Served>), String> {
    let mut samples = Samples::default();
    let mut served = Vec::new();
    let start = Instant::now();
    while samples.another_pass_fits(start, seconds) {
        let setup_started = Instant::now();
        let generated = tracer.span("bench.setup", SpanId::ROOT, 0, |_| generate(args.seed))?;
        if generated
            .lines
            .iter()
            .map(|l| &l.text)
            .ne(workload.lines.iter().map(|l| &l.text))
        {
            out.mismatches
                .push("regenerating from the same seed gave another stream".to_string());
        }
        let (pass, responses) =
            tracer.span("bench.pass", SpanId::ROOT, served.len() as u64, |id| {
                serve_pass(
                    &generated.lines,
                    Transport::InProcess,
                    tracer,
                    id,
                    setup_started,
                )
            })?;
        check_pass(served.len(), &responses, expected, out);
        samples.setup_s.push(pass.setup_s);
        let op_ms: Vec<f64> = pass
            .times_ns
            .iter()
            .map(|(s, r)| (r - s) as f64 * 1e-6)
            .collect();
        samples.push_pass(&windows(&pass), &op_ms);
        samples.probe_host();
        served.push(pass);
    }
    Ok((samples, served))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Before any thread starts, so the engine's threads inherit it.
    match measure::pin_to_one_cpu() {
        Some(cpu) => out.notes.push(format!("process pinned to CPU {cpu}")),
        None => out
            .mismatches
            .push("could not pin the process to one CPU".to_string()),
    }
    let workload = generate(args.seed)?;
    let expected = replay(&workload.lines, &Tracer::off());
    let (samples, served) = passes(
        &workload,
        args,
        args.seconds,
        &Tracer::off(),
        &expected,
        &mut out,
    )?;
    out.untraced = samples.e2e();
    out.notes.push(samples.host_note("untraced"));
    // The timed passes call the engine in-process; one pass over loopback
    // TCP checks that `serve_tcp` answers the stream alike.
    let (_, responses) = serve_pass(
        &workload.lines,
        Transport::Tcp,
        &Tracer::off(),
        SpanId::ROOT,
        Instant::now(),
    )?;
    check_pass(served.len(), &responses, &expected, &mut out);
    let lines = &workload.lines;
    let mut kind_share = [0usize; 4];
    for l in lines {
        kind_share[workload.keys[l.key].kind] += 1;
    }
    let spice_lines = lines.iter().filter(|l| l.spice).count();
    let replay_hits = expected.iter().filter(|e| e.1).count();
    let (hits, misses) = served.iter().fold((0.0, 0.0), |(h, m), p| {
        (h + p.cache_hits, m + p.cache_misses)
    });
    out.notes.push(format!(
        "seed={} pool={POOL} distinct requests vs cache={CACHE_ENTRIES} entries, stream={STREAM} requests x {} passes, {CLIENTS} closed-loop client(s)",
        args.seed,
        served.len()
    ));
    out.notes.push(format!(
        "kind share: {} ({:.3} of lines spelled .sp)",
        KIND_NAMES
            .iter()
            .zip(kind_share)
            .map(|(k, c)| format!("{k}={:.3}", c as f64 / lines.len() as f64))
            .collect::<Vec<_>>()
            .join(" "),
        spice_lines as f64 / lines.len() as f64
    ));
    out.notes.push(format!(
        "measured hit share: served={:.4} replay={:.4}",
        hits / (hits + misses).max(1.0),
        replay_hits as f64 / lines.len() as f64
    ));
    if !args.trace {
        return Ok(out);
    }

    // Hit and miss latency of the untraced passes, and the miss latency
    // beyond the replay's compute time for the same request (queueing).
    let (mut hit_ms, mut miss_ms, mut miss_wait_ms) = (Vec::new(), Vec::new(), Vec::new());
    for pass in &served {
        for (i, is_hit) in classify(lines, &pass.times_ns).into_iter().enumerate() {
            let (s, r) = pass.times_ns[i];
            let ms = (r - s) as f64 * 1e-6;
            if is_hit {
                hit_ms.push(ms);
            } else {
                miss_ms.push(ms);
                miss_wait_ms.push(ms - expected[i].2);
            }
        }
    }
    let last = served.last().ok_or_else(|| "no pass ran".to_string())?;
    let tracer = Tracer::on();
    let (traced, _) = passes(
        &workload,
        args,
        args.seconds / 3.0,
        &tracer,
        &expected,
        &mut out,
    )?;
    out.traced = Some(traced.e2e());
    let replayed = replay(lines, &tracer);
    if replayed
        .iter()
        .map(|r| &r.0)
        .ne(expected.iter().map(|r| &r.0))
    {
        out.mismatches
            .push("traced replay differs from the untraced one".to_string());
    }
    probes(&workload, &tracer);
    let spans = tracer.spans();
    let n = lines.len() as f64;
    let layers = &mut out.layers;
    for stage in STAGES {
        let name = format!("serve.{stage}");
        let total: f64 = measure::durations_us(&spans, &name).iter().sum();
        layers.insert(format!("{name}_us"), total / n);
    }
    let mut execute_us: HashMap<usize, Vec<f64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "serve.execute") {
        let kind = workload.keys[lines[s.request as usize].key].kind;
        execute_us
            .entry(kind)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 * 1e-3);
    }
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        let v = execute_us.get(&kind).map_or(0.0, |v| measure::median(v));
        layers.insert(format!("serve.execute_us.{name}"), v);
    }
    layers.insert("serve.cache_hits".to_string(), last.cache_hits);
    layers.insert("serve.cache_misses".to_string(), last.cache_misses);
    layers.insert(
        "serve.hit_ratio".to_string(),
        last.cache_hits / (last.cache_hits + last.cache_misses).max(1.0),
    );
    layers.insert("serve.replay_hit_ratio".to_string(), replay_hits as f64 / n);
    layers.insert("serve.hit_p50_ms".to_string(), measure::median(&hit_ms));
    layers.insert("serve.miss_p50_ms".to_string(), measure::median(&miss_ms));
    layers.insert(
        "serve.miss_wait_ms".to_string(),
        measure::median(&miss_wait_ms),
    );
    let mean_us = |name: &str| measure::mean(&measure::durations_us(&spans, name));
    layers.insert("spice.parse_us".to_string(), mean_us("spice.parse"));
    layers.insert(
        "circuit.netlist_from_json_us".to_string(),
        mean_us("circuit.netlist_from_json"),
    );
    let dies: u32 = workload
        .keys
        .iter()
        .filter_map(|k| k.yield_job.map(|(d, _, _)| d))
        .sum();
    let yield_us: f64 = measure::durations_us(&spans, "dac.yield").iter().sum();
    layers.insert(
        "dac.yield_us_per_die".to_string(),
        yield_us / f64::from(dies.max(1)),
    );
    layers.insert("check.prove_us".to_string(), mean_us("check.prove"));
    out.span_buffer_mb = tracer.buffer_mb();
    out.spans = spans;
    Ok(out)
}

/// Direct calls into the layers below serve, once per distinct pool input:
/// `.sp` parsing, JSON-deck loading, yield campaigns and proofs.
fn probes(workload: &Workload, tracer: &Tracer) {
    for (k, key) in workload.keys.iter().enumerate() {
        let req = k as u64;
        if let Some(text) = &key.spice {
            let _ = tracer.span("spice.parse", SpanId::ROOT, req, |_| {
                lcosc_spice::parse_spice(text)
            });
        }
        if let Some(deck) = key.deck.as_deref().and_then(|d| Json::parse(d).ok()) {
            let _ = tracer.span("circuit.netlist_from_json", SpanId::ROOT, req, |_| {
                lcosc_circuit::netlist_from_json(&deck)
            });
        }
        if let Some((dies, seed, window)) = key.yield_job {
            tracer.span("dac.yield", SpanId::ROOT, req, |_| {
                lcosc_dac::yield_analysis_campaign(
                    &lcosc_dac::DacMismatchParams::default(),
                    dies,
                    seed,
                    window,
                    1,
                )
            });
        }
        if let Some(preset) = key.preset.and_then(|p| Preset::parse(p).ok()) {
            tracer.span("check.prove", SpanId::ROOT, req, |_| {
                lcosc_check::prove(&preset.config().prove_facts())
            });
        }
    }
}
