//! `sweep`: one `sdnav_grid::evaluate` of the paper grid — Figs. 3–5,
//! simulated cells with replications over both topologies and both
//! scenarios, and the default RAFT consensus axes — at `nproc` threads.
//!
//! Output check: every evaluation's payload is byte-identical to the
//! first, its seed-independent figure section matches the stored digest,
//! and the whole payload matches the stored digest where one is stored
//! for the seed. The traced run replays the plan from outside the grid
//! crate ([`crate::replay`]) and must rebuild the same payload.

use std::time::Instant;

use sdnav_core::{ConsensusSpec, ControllerSpec, ModelState};
use sdnav_grid::{evaluate, GridSpec};
use sdnav_json::Json;

use crate::common::{
    another_fits, derive, ms_since, time_setups, Ctx, Layers, Outcome, SETUP_INTERLEAVED,
    SETUP_REPEATS,
};
use crate::digests;
use crate::replay::replay;
use crate::trace::{self, Tracer};

/// Grid size knobs (the workload and the layer probe differ only here).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Samples per sweep axis.
    pub points: usize,
    /// Simulation replications per cell.
    pub replications: usize,
    /// Simulated horizon per replication, hours.
    pub horizon_hours: f64,
}

/// The benchmark's sweep: 3 points per axis, 2 replications, the grid's
/// default 20 000 h at 200× on 2 compute hosts. Small enough for about a
/// dozen evaluations per run, so the reported median rests on more than a
/// handful of samples on a noisy shared host.
pub const WORKLOAD: Size = Size {
    points: 3,
    replications: 2,
    horizon_hours: 20_000.0,
};

/// Builds the grid a seed asks for — the input the program receives.
#[must_use]
pub fn grid(seed: u64, threads: usize, size: Size) -> GridSpec {
    GridSpec::builder()
        .points(size.points)
        .replications(size.replications)
        .sim_horizon_hours(size.horizon_hours)
        .seed(derive(seed, "sweep.grid"))
        .threads(threads)
        .consensus(ConsensusSpec::raft_defaults())
        .build()
        .expect("benchmark grid is valid")
}

/// SHA-256 of the seed-independent figure section (fig3, fig4, fig5).
fn figures_digest(payload: &str) -> String {
    let doc = Json::parse(payload).expect("payload is JSON");
    let figs: Vec<(&str, Json)> = ["fig3", "fig4", "fig5"]
        .into_iter()
        .map(|k| (k, doc.get(k).cloned().unwrap_or(Json::Null)))
        .collect();
    sdnav_chaos::sha256_hex(Json::obj(figs).to_compact().as_bytes())
}

/// One evaluation as `sdnav sweep --format json` performs it.
fn op(spec: &ControllerSpec, grid: &GridSpec) -> (String, sdnav_grid::metrics::RunMetrics) {
    let outcome = evaluate(spec, grid).expect("benchmark grid evaluates");
    (
        format!("{}\n", sdnav_json::to_string_pretty(&outcome.results)),
        outcome.metrics,
    )
}

/// One traced replay of the grid; returns the rebuilt payload.
pub fn traced_op(layers: &Layers, spec_json: &str, grid: &GridSpec, threads: usize) -> String {
    let tracer: &Tracer = &layers.tracer;
    let root = tracer.open("sweep.op", None);
    let spec: ControllerSpec = tracer.time("json.decode", Some(root), || {
        sdnav_json::from_str(spec_json).expect("generated spec decodes")
    });
    let state = ModelState::paper(spec);
    let rep = replay(tracer, &state, grid, threads, Some(root));
    let payload = tracer.time("json.encode", Some(root), || {
        format!("{}\n", sdnav_json::to_string_pretty(&rep.results))
    });
    tracer.close(root, None);
    let spans = tracer.spans();
    let (busy, longest) = trace::cell_balance(&spans, rep.execute_span, rep.workers);
    layers.sample("grid.busy_ratio", busy);
    layers.sample("grid.longest_cell_ms", longest);
    let in_op = |name| trace::count_under(&spans, root, name);
    layers.sample("sim.events", in_op("sim.run") as f64);
    layers.sample("consensus.elections", in_op("consensus.run") as f64);
    payload
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spec_json: &str, layers: Option<&Layers>) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        let spec: ControllerSpec = sdnav_json::from_str(spec_json).expect("generated spec decodes");
        let grid = grid(ctx.seed, ctx.nproc, WORKLOAD);
        grid.validate().expect("benchmark grid is valid");
        (spec, grid)
    };
    let (spec, grid) = time_setups(&mut out, SETUP_REPEATS, &setup);

    let start = Instant::now();
    let mut first: Option<(String, u64)> = None;
    let mut iteration_ms = Vec::new();
    // Cache hits and misses at nproc threads vary run to run (the grid
    // cache is not single-flight); they are recorded as they come.
    let mut cache: Vec<(u64, u64)> = Vec::new();
    while another_fits(ctx, start, iteration_ms.len(), &iteration_ms) {
        let iteration = Instant::now();
        let t = Instant::now();
        let (payload, metrics) = op(&spec, &grid);
        out.op_ms.push(ms_since(t));
        cache.push((metrics.cache_hits, metrics.cache_misses));
        if let Some(layers) = layers {
            layers.grid_run(metrics);
        }
        match &first {
            None => {
                check_first(&mut out, ctx.seed, &payload);
                first = Some((payload, metrics.sim_events));
            }
            Some((reference, events)) => {
                out.check(payload == *reference, || {
                    "sweep payload differs from the run's first evaluation".to_owned()
                });
                out.check(metrics.sim_events == *events, || {
                    format!(
                        "sim events changed between repeats: {events} then {}",
                        metrics.sim_events
                    )
                });
            }
        }
        if let Some(layers) = layers {
            let t = Instant::now();
            let replayed = traced_op(layers, spec_json, &grid, ctx.nproc);
            out.traced_op_ms.push(ms_since(t));
            let reference = &first.as_ref().expect("set above").0;
            out.check(replayed == *reference, || {
                "traced replay payload differs from sdnav_grid::evaluate".to_owned()
            });
        }
        iteration_ms.push(ms_since(iteration));
        drop(time_setups(&mut out, SETUP_INTERLEAVED, &setup));
    }
    let total_s: f64 = out.op_ms.iter().sum::<f64>() / 1e3;
    out.ops_per_s = out.op_ms.len() as f64 / total_s;
    if let Some((payload, events)) = &first {
        out.record.push((
            "sweep",
            Json::obj(vec![
                (
                    "payload_sha256",
                    Json::str(sdnav_chaos::sha256_hex(payload.as_bytes())),
                ),
                ("figures_sha256", Json::str(figures_digest(payload))),
                ("sim_events", Json::Num(*events as f64)),
                (
                    "cache_hits_per_op",
                    Json::Arr(cache.iter().map(|c| Json::Num(c.0 as f64)).collect()),
                ),
                (
                    "cache_misses_per_op",
                    Json::Arr(cache.iter().map(|c| Json::Num(c.1 as f64)).collect()),
                ),
                ("grid_seed", Json::Num(grid.seed as f64)),
                ("points", Json::Num(grid.points as f64)),
                ("replications", Json::Num(grid.replications as f64)),
            ]),
        ));
    }
    out
}

fn check_first(out: &mut Outcome, seed: u64, payload: &str) {
    let figures = figures_digest(payload);
    out.check(figures == digests::sweep_figures(), || {
        format!(
            "figure section digest {figures} != stored {}",
            digests::sweep_figures()
        )
    });
    if let Some(stored) = digests::stored("sweep", seed) {
        let digest = sdnav_chaos::sha256_hex(payload.as_bytes());
        out.check(digest == stored, || {
            format!("sweep payload digest {digest} != stored {stored} for seed {seed}")
        });
    }
}
