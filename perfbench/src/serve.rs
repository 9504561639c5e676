//! `serve_whatif`: an in-process `sdnav serve` on loopback under
//! `nproc` closed-loop what-if clients.
//!
//! Clients post analytic grids (figures only, three sizes) to
//! `POST /v1/eval`; every tenth request is a `PATCH /v1/spec` toggling one
//! rate, which evicts the dependent sub-models, so cold recomputes sit
//! beside warm cache hits. The request sequence derives from the seed.
//! Every eval body must be byte-identical to a direct
//! `evaluate_incremental` on the same model state (serve's parity
//! guarantee); the reference is computed once per (body, state).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sdnav_core::{ControllerSpec, ModelState};
use sdnav_grid::{evaluate_incremental, EvalGraph, GridSpec};
use sdnav_json::Json;
use sdnav_serve::{ServeConfig, Server};

use crate::common::{
    derive, ms_since, splitmix64, time_setups, Ctx, Layers, Outcome, SETUP_REPEATS,
};
use crate::stats::{median, supported_percentile};

/// Analytic grid sizes (points per figure axis) the clients ask for.
pub const SIZES: [usize; 3] = [41, 101, 201];

/// Rates the what-if `PATCH` requests toggle, one domain each.
pub const RATES: [&str; 2] = ["sw.a_h", "hw.a_h"];

/// Every `PATCH_EVERY`-th request is a write; the nine reads before it
/// ask for each size three times.
const PATCH_EVERY: u64 = 10;
const _: () = assert!((PATCH_EVERY as usize - 1).is_multiple_of(SIZES.len()));

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Eval(usize),
    Patch(usize),
}

/// The `index`-th request of the seed's sequence. Requests come in blocks
/// of [`PATCH_EVERY`]: three evals of each size in a seed-shuffled order,
/// then a patch of the rates in turn. The seed changes the order, never
/// the mix, so every seed asks for the same work.
fn request(seed: u64, index: u64) -> Request {
    let block = index / PATCH_EVERY;
    let slot = (index % PATCH_EVERY) as usize;
    if slot == PATCH_EVERY as usize - 1 {
        return Request::Patch((block % RATES.len() as u64) as usize);
    }
    // Fisher–Yates over the block's nine eval slots, seeded per block.
    let mut sizes: Vec<usize> = (0..PATCH_EVERY as usize - 1)
        .map(|i| i % SIZES.len())
        .collect();
    let mut state = splitmix64(seed ^ splitmix64(block));
    for i in (1..sizes.len()).rev() {
        state = splitmix64(state);
        sizes.swap(i, (state % (i as u64 + 1)) as usize);
    }
    Request::Eval(sizes[slot])
}

/// The eval body for grid size index `size`.
fn eval_body(size: usize, threads: usize) -> String {
    format!(
        "{{\"figures\": [\"fig3\", \"fig4\", \"fig5\"], \"points\": {}, \"replications\": 0, \"threads\": {threads}}}",
        SIZES[size]
    )
}

/// Paper value and toggled value of each rate: the toggled value doubles
/// the rate's unavailability.
fn rate_values(spec: &ControllerSpec) -> [(f64, f64); 2] {
    let paper = ModelState::paper(spec.clone());
    let toggle = |a: f64| (a, 1.0 - 2.0 * (1.0 - a));
    [toggle(paper.sw.a_h), toggle(paper.hw.a_h)]
}

/// The model state with the rates flagged in `toggled` (bit per rate).
fn state_for(spec: &ControllerSpec, toggled: usize) -> ModelState {
    let values = rate_values(spec);
    let mut state = ModelState::paper(spec.clone());
    for (i, name) in RATES.iter().enumerate() {
        if toggled & (1 << i) != 0 {
            state
                .patch(name, values[i].1)
                .expect("toggled rate is in range");
        }
    }
    state
}

/// Minimal HTTP/1.1 exchange: one request per connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no head/body split")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, body.to_owned()))
}

/// A running in-process server and its accept-loop thread.
struct Running {
    addr: SocketAddr,
    shutdown: std::sync::Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// The service's set-up: decode the spec, validate the config, bind, and
/// initialize the evaluator state.
fn bind(spec_json: &str) -> Result<Server, String> {
    let spec: ControllerSpec = sdnav_json::from_str(spec_json).map_err(|e| e.to_string())?;
    let config = ServeConfig::builder(spec)
        .build()
        .map_err(|e| e.to_string())?;
    Server::bind(config).map_err(|e| e.to_string())
}

impl Running {
    /// Starts the accept loop and waits until `GET /v1/healthz` answers.
    /// Not part of the timed set-up: whether the first connection lands
    /// before or during the accept loop's poll sleep makes readiness
    /// bimodal (under 1 ms or about 25 ms).
    fn start(server: Server) -> Result<Running, String> {
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = std::sync::Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || {
            server.run(&flag).expect("accept loop polls the listener");
        });
        let running = Running {
            addr,
            shutdown,
            handle,
        };
        match http(addr, "GET", "/v1/healthz", "") {
            Ok((200, _)) => Ok(running),
            other => {
                running.stop();
                Err(format!("healthz failed: {other:?}"))
            }
        }
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("accept loop exits cleanly");
    }
}

/// Observations of a client loop; the clients' observations merge into
/// one.
#[derive(Debug, Default)]
struct Observed {
    eval_ms: Vec<f64>,
    /// Eval latencies split by whether the size was already warm.
    warm_ms: BTreeMap<usize, Vec<f64>>,
    cold_ms: Vec<f64>,
    patch_ms: Vec<f64>,
    invalidated: Vec<f64>,
    completed: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Observed {
    fn absorb(&mut self, mut other: Observed) {
        self.eval_ms.append(&mut other.eval_ms);
        for (size, mut v) in other.warm_ms {
            self.warm_ms.entry(size).or_default().append(&mut v);
        }
        self.cold_ms.append(&mut other.cold_ms);
        self.patch_ms.append(&mut other.patch_ms);
        self.invalidated.append(&mut other.invalidated);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failures.append(&mut other.failures);
    }
}

/// Client-side record of the model state. Patches are serialized among
/// the clients and push the state they are about to apply before sending,
/// so at most the newest entry can be in flight. An eval that began when
/// the newest entry was `first` and ended when it was `last` ran against
/// one of `history[first - 1 ..= last]`; its body must equal the
/// reference for one of them.
///
/// (A lock held across each round trip would pin the exact state, but
/// `std`'s read-write lock lets a client that re-reads immediately starve
/// a waiting writer, which stalls the patching client for whole runs.)
struct Shared<'a> {
    addr: SocketAddr,
    threads: usize,
    references: &'a BTreeMap<(usize, usize), String>,
    values: &'a [(f64, f64); 2],
    history: Mutex<Vec<usize>>,
    patching: Mutex<()>,
    /// Sizes evaluated since the last patch (their entries are warm).
    warm: Mutex<[bool; SIZES.len()]>,
    next: AtomicU64,
}

impl Shared<'_> {
    fn history(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.history.lock().expect("history lock poisoned")
    }

    fn eval(&self, size: usize, seen: &mut Observed) {
        let first = self.history().len() - 1;
        let was_warm = std::mem::replace(
            &mut self.warm.lock().expect("warm lock poisoned")[size],
            true,
        );
        let start = Instant::now();
        let reply = http(
            self.addr,
            "POST",
            "/v1/eval",
            &eval_body(size, self.threads),
        );
        let ms = ms_since(start);
        let states: Vec<usize> = {
            let history = self.history();
            history[first.saturating_sub(1)..].to_vec()
        };
        match reply {
            Ok((200, body)) if states.iter().any(|s| body == self.references[&(size, *s)]) => {
                seen.completed += 1;
                seen.eval_ms.push(ms);
                if was_warm {
                    seen.warm_ms.entry(size).or_default().push(ms);
                } else {
                    seen.cold_ms.push(ms);
                }
            }
            Ok((200, _)) => seen.failures.push(format!(
                "eval {} at states {states:?}: body differs from direct evaluate_incremental",
                SIZES[size]
            )),
            other => seen.failures.push(format!("eval: {other:?}")),
        }
    }

    fn patch(&self, rate: usize, seen: &mut Observed) {
        let _one_patch_at_a_time = self.patching.lock().expect("patch lock poisoned");
        let current = *self.history().last().expect("history starts non-empty");
        let flipped = current ^ (1 << rate);
        self.history().push(flipped);
        let (paper, toggled) = self.values[rate];
        let value = if flipped & (1 << rate) != 0 {
            toggled
        } else {
            paper
        };
        let body = format!("{{\"name\": \"{}\", \"value\": {value:?}}}", RATES[rate]);
        let start = Instant::now();
        let reply = http(self.addr, "PATCH", "/v1/spec", &body);
        let ms = ms_since(start);
        let invalidated = match &reply {
            Ok((200, text)) => Json::parse(text)
                .ok()
                .and_then(|doc| doc.get("invalidated").and_then(|v| v.as_f64().ok())),
            _ => None,
        };
        match invalidated {
            Some(count) => {
                *self.warm.lock().expect("warm lock poisoned") = [false; SIZES.len()];
                seen.completed += 1;
                seen.patch_ms.push(ms);
                seen.invalidated.push(count);
            }
            None => {
                self.history().push(current);
                seen.failures.push(format!("patch: {reply:?}"));
            }
        }
    }
}

/// Runs `clients` closed-loop clients against `addr` until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    seed: u64,
    clients: usize,
    threads: usize,
    deadline: Instant,
    references: &BTreeMap<(usize, usize), String>,
    values: &[(f64, f64); 2],
    tracer: Option<&crate::trace::Tracer>,
) -> Observed {
    let shared = Shared {
        addr,
        threads,
        references,
        values,
        history: Mutex::new(vec![0]),
        patching: Mutex::new(()),
        warm: Mutex::new([false; SIZES.len()]),
        next: AtomicU64::new(0),
    };
    let mut all = Observed::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut seen = Observed::default();
                    while Instant::now() < deadline {
                        let index = shared.next.fetch_add(1, Ordering::Relaxed);
                        seen.attempted += 1;
                        let span = tracer.map(|t| t.open("serve.request", None));
                        match request(seed, index) {
                            Request::Eval(size) => shared.eval(size, &mut seen),
                            Request::Patch(rate) => shared.patch(rate, &mut seen),
                        }
                        if let (Some(t), Some(span)) = (tracer, span) {
                            t.close(span, None);
                        }
                    }
                    seen
                })
            })
            .collect();
        for handle in handles {
            all.absorb(handle.join().expect("client thread"));
        }
    });
    all
}

/// Direct reference bodies for every (size, state) pair.
fn references(spec: &ControllerSpec, threads: usize) -> BTreeMap<(usize, usize), String> {
    let mut out = BTreeMap::new();
    for toggled in 0..(1 << RATES.len()) {
        let state = state_for(spec, toggled);
        let graph = EvalGraph::new();
        for size in 0..SIZES.len() {
            let grid: GridSpec =
                sdnav_json::from_str(&eval_body(size, threads)).expect("eval body decodes");
            let outcome =
                evaluate_incremental(&state, &grid, &graph).expect("analytic grid evaluates");
            let body = format!("{}\n", sdnav_json::to_string_pretty(&outcome.results));
            out.insert((size, toggled), body);
        }
    }
    out
}

/// In-process counterpart of the request path, per layer: body decode,
/// cold and warm `evaluate_incremental`, encode, and the grid replay for
/// per-cell and core timings. Returns the in-process warm eval + encode
/// time per size (ms), the base for `serve.overhead_ms_p50`.
fn in_process(spec: &ControllerSpec, threads: usize, layers: &Layers) -> [f64; SIZES.len()] {
    let tracer = &layers.tracer;
    let mut warm_total = [0.0; SIZES.len()];
    for (size, slot) in warm_total.iter_mut().enumerate() {
        let body = eval_body(size, threads);
        let mut samples = Vec::new();
        for toggled in 0..(1 << RATES.len()) {
            let state = state_for(spec, toggled);
            let graph = EvalGraph::new();
            let grid: GridSpec = tracer.time("json.decode", None, || {
                sdnav_json::from_str(&body).expect("eval body decodes")
            });
            let start = Instant::now();
            let cold =
                evaluate_incremental(&state, &grid, &graph).expect("analytic grid evaluates");
            layers.sample("serve.eval_cold_ms", ms_since(start));
            layers.grid_run(cold.metrics);
            for _ in 0..3 {
                let start = Instant::now();
                let warm =
                    evaluate_incremental(&state, &grid, &graph).expect("analytic grid evaluates");
                let eval_ms = ms_since(start);
                let span = tracer.open("json.encode", None);
                let text = format!("{}\n", sdnav_json::to_string_pretty(&warm.results));
                let encode_ms = tracer.close(span, None);
                std::hint::black_box(text);
                layers.sample("serve.eval_warm_ms", eval_ms);
                layers.grid_run(warm.metrics);
                samples.push(eval_ms + encode_ms);
            }
            if toggled == 0 {
                let rep = crate::replay::replay(tracer, &state, &grid, threads, None);
                let (busy, longest) =
                    crate::trace::cell_balance(&tracer.spans(), rep.execute_span, rep.workers);
                layers.sample("grid.busy_ratio", busy);
                layers.sample("grid.longest_cell_ms", longest);
            }
        }
        *slot = median(&samples).unwrap_or(0.0);
    }
    warm_total
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spec_json: &str, layers: Option<&Layers>) -> Outcome {
    let mut out = Outcome::default();
    let spec: ControllerSpec = sdnav_json::from_str(spec_json).expect("generated spec decodes");
    let threads = ctx.nproc;
    let seed = derive(ctx.seed, "serve.requests");
    let refs = references(&spec, threads);
    let values = rate_values(&spec);

    // Set-up: bind the service several times; keep the last.
    let server =
        match time_setups(&mut out, SETUP_REPEATS, || bind(spec_json)).and_then(Running::start) {
            Ok(server) => server,
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        };

    // Warm-up: one eval of each size so lazy set-up is not timed.
    for size in 0..SIZES.len() {
        let ok = http(server.addr, "POST", "/v1/eval", &eval_body(size, threads))
            .is_ok_and(|(status, body)| status == 200 && body == refs[&(size, 0)]);
        out.check(ok, || format!("warm-up eval {} failed", SIZES[size]));
    }

    // Traced runs split the budget: untraced first, then traced clients.
    let budget = Duration::from_secs_f64(if layers.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let start = Instant::now();
    let seen = drive(
        server.addr,
        seed,
        ctx.nproc,
        threads,
        start + budget,
        &refs,
        &values,
        None,
    );
    let wall_s = start.elapsed().as_secs_f64();
    out.ops_per_s = seen.completed as f64 / wall_s;
    out.op_ms.clone_from(&seen.eval_ms);
    record_observed(&mut out, &seen, "");
    drop(time_setups(&mut out, SETUP_REPEATS, || bind(spec_json)));

    if let Some(layers) = layers {
        // Restore the paper state so the traced pass replays the same sequence.
        for (i, name) in RATES.iter().enumerate() {
            let _ = http(
                server.addr,
                "PATCH",
                "/v1/spec",
                &format!("{{\"name\": \"{name}\", \"value\": {:?}}}", values[i].0),
            );
        }
        let start = Instant::now();
        let traced = drive(
            server.addr,
            seed,
            ctx.nproc,
            threads,
            start + budget,
            &refs,
            &values,
            Some(&layers.tracer),
        );
        out.traced_op_ms.clone_from(&traced.eval_ms);
        record_observed(&mut out, &traced, "traced_");
        layer_samples(layers, &traced);
        if let Ok((200, text)) = http(server.addr, "GET", "/v1/metrics", "") {
            if let Some(cache) = Json::parse(&text)
                .ok()
                .and_then(|d| d.get("cache").cloned())
            {
                let get = |k| cache.get(k).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
                let (hits, misses) = (get("hits"), get("misses"));
                if hits + misses > 0.0 {
                    layers.sample("serve.cache_hit_ratio", hits / (hits + misses));
                }
            }
        }
        let warm_base = in_process(&spec, threads, layers);
        for (size, latencies) in &traced.warm_ms {
            for ms in latencies {
                layers.sample("serve.overhead_ms", ms - warm_base[*size]);
            }
        }
    }
    server.stop();
    out
}

fn record_observed(out: &mut Outcome, seen: &Observed, prefix: &'static str) {
    for failure in &seen.failures {
        out.check(false, || failure.clone());
    }
    out.attempted += seen.completed;
    let tail = [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| supported_percentile(&seen.eval_ms, p).map(|v| (p, v)));
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let fields: Vec<(&str, Json)> = vec![
        ("requests", Json::Num(seen.attempted as f64)),
        ("evals", Json::Num(seen.eval_ms.len() as f64)),
        ("patches", Json::Num(seen.patch_ms.len() as f64)),
        ("eval_p50_ms", num(median(&seen.eval_ms))),
        (
            "eval_p99_ms",
            num(supported_percentile(&seen.eval_ms, 99.0)),
        ),
        ("eval_tail_percentile", num(tail.map(|t| t.0))),
        ("patch_p50_ms", num(median(&seen.patch_ms))),
        ("cold_eval_p50_ms", num(median(&seen.cold_ms))),
    ];
    out.record.push((
        if prefix.is_empty() {
            "serve"
        } else {
            "serve_traced"
        },
        Json::obj(fields),
    ));
}

fn layer_samples(layers: &Layers, seen: &Observed) {
    for v in &seen.invalidated {
        layers.sample("serve.invalidated_per_patch", *v);
    }
    for v in &seen.patch_ms {
        layers.sample("serve.patch_ms", *v);
    }
    if let Some((_, v)) = [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| supported_percentile(&seen.eval_ms, p).map(|v| (p, v)))
    {
        layers.sample("serve.eval_tail_ms", v);
    }
}
