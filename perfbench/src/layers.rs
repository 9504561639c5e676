//! Per-layer metrics: names, units, and how each is computed from a traced
//! run's spans, grid run metrics and direct samples. Layer names are the
//! workspace's crate names.

use std::collections::BTreeMap;

use crate::common::{Ctx, Layers};
use crate::stats::median;
use crate::trace::{durations_ms, total_count, total_ns};

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.run_ms", "ms", "lower"),
    ("sim.injected_ns_per_event", "ns", "lower"),
    ("sim.build_us", "us", "lower"),
    ("consensus.run_ms", "ms", "lower"),
    ("consensus.elections", "count", "lower"),
    ("markov.ctmc_us", "us", "lower"),
    ("grid.plan_ms", "ms", "lower"),
    ("grid.execute_ms", "ms", "lower"),
    ("grid.aggregate_ms", "ms", "lower"),
    ("grid.items", "count", "lower"),
    ("grid.cache_hits", "count", "higher"),
    ("grid.cache_misses", "count", "lower"),
    ("grid.cache_hit_ratio", "ratio", "higher"),
    ("grid.steals", "count", "lower"),
    ("grid.busy_ratio", "ratio", "higher"),
    ("grid.longest_cell_ms", "ms", "lower"),
    ("core.hw_eval_us", "us", "lower"),
    ("core.sw_eval_us", "us", "lower"),
    ("fmea.enumerate_ms", "ms", "lower"),
    ("fmea.modes", "count", "lower"),
    ("chaos.generate_ms", "ms", "lower"),
    ("chaos.compile_ms", "ms", "lower"),
    ("chaos.baseline_run_ms", "ms", "lower"),
    ("chaos.injected_run_ms", "ms", "lower"),
    ("chaos.injected_events", "count", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.eval_warm_ms", "ms", "lower"),
    ("serve.eval_cold_ms", "ms", "lower"),
    ("serve.invalidated_per_patch", "count", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.eval_tail_ms", "ms", "lower"),
    ("serve.patch_p50_ms", "ms", "lower"),
    ("json.encode_ms", "ms", "lower"),
    ("json.decode_us", "us", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
];

/// Computes every per-layer metric `layers` has data for.
#[must_use]
pub fn compute(layers: &Layers) -> BTreeMap<&'static str, f64> {
    let spans = layers.tracer.spans();
    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            out.insert(name, v);
        }
    };
    let per_event = |name: &str| {
        let events = total_count(&spans, name);
        (events > 0).then(|| total_ns(&spans, name) as f64 / events as f64)
    };
    let med = |name: &str, scale: f64| median(&durations_ms(&spans, name)).map(|v| v * scale);

    put("sim.ns_per_event", per_event("sim.run"));
    put("sim.run_ms", med("sim.run", 1.0));
    put("sim.injected_ns_per_event", per_event("sim.run_injected"));
    put("sim.build_us", med("sim.build", 1e3));
    put("consensus.run_ms", med("consensus.run", 1.0));
    put("markov.ctmc_us", med("markov.ctmc", 1e3));
    put("core.hw_eval_us", med("core.hw_eval", 1e3));
    put("core.sw_eval_us", med("core.sw_eval", 1e3));
    put("fmea.enumerate_ms", med("fmea.enumerate", 1.0));
    put("chaos.generate_ms", med("chaos.generate", 1.0));
    put("chaos.compile_ms", med("chaos.compile", 1.0));
    put("chaos.baseline_run_ms", med("chaos.baseline_run", 1.0));
    put("chaos.injected_run_ms", med("chaos.injected_run", 1.0));
    put("json.encode_ms", med("json.encode", 1.0));
    put("json.decode_us", med("json.decode", 1e3));

    let runs = layers
        .grid_runs
        .lock()
        .expect("grid run lock poisoned")
        .clone();
    if !runs.is_empty() {
        let of = |f: &dyn Fn(&sdnav_grid::metrics::RunMetrics) -> f64| {
            median(&runs.iter().map(f).collect::<Vec<_>>())
        };
        put("grid.plan_ms", of(&|m| m.stages.plan_ms));
        put("grid.execute_ms", of(&|m| m.stages.execute_ms));
        put("grid.aggregate_ms", of(&|m| m.stages.aggregate_ms));
        put("grid.items", of(&|m| m.items as f64));
        put("grid.cache_hits", of(&|m| m.cache_hits as f64));
        put("grid.cache_misses", of(&|m| m.cache_misses as f64));
        put("grid.steals", of(&|m| m.steals as f64));
        let hits: u64 = runs.iter().map(|m| m.cache_hits).sum();
        let lookups = hits + runs.iter().map(|m| m.cache_misses).sum::<u64>();
        put(
            "grid.cache_hit_ratio",
            (lookups > 0).then(|| hits as f64 / lookups as f64),
        );
    }

    let samples = layers
        .samples
        .lock()
        .expect("sample map lock poisoned")
        .clone();
    for (name, values) in &samples {
        let target = match *name {
            "serve.overhead_ms" => "serve.overhead_ms_p50",
            "serve.patch_ms" => "serve.patch_p50_ms",
            other => other,
        };
        if let Some((known, _, _)) = PER_LAYER.iter().find(|(n, _, _)| *n == target) {
            put(known, median(values));
        }
    }
    out
}

/// The probe group that supplies `metric`: 0 runs a small sweep, 1 a
/// small fleet verdict, 2 a short serve run.
fn group_of(metric: &str) -> usize {
    match metric.split('.').next() {
        Some("fmea" | "chaos") => 1,
        _ if metric == "sim.injected_ns_per_event" => 1,
        Some("serve") => 2,
        _ => 0,
    }
}

/// Fills the per-layer metrics the workload does not exercise with a
/// small fixed probe of those layers' public functions; returns the
/// names it filled and the probe's failed output checks.
pub fn probe_missing(
    ctx: &Ctx,
    spec_json: &str,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> (Vec<&'static str>, Vec<String>) {
    let missing: Vec<&'static str> = PER_LAYER
        .iter()
        .map(|(n, _, _)| *n)
        .filter(|n| *n != "trace.overhead_ms" && !metrics.contains_key(n))
        .collect();
    let mut filled = Vec::new();
    let mut failures = Vec::new();
    for group in 0..3 {
        if !missing.iter().any(|m| group_of(m) == group) {
            continue;
        }
        let probe = Layers::default();
        match group {
            0 => {
                let size = crate::sweep::Size {
                    points: 3,
                    replications: 1,
                    horizon_hours: 2_000.0,
                };
                let grid = crate::sweep::grid(ctx.seed, ctx.nproc, size);
                let spec: sdnav_core::ControllerSpec =
                    sdnav_json::from_str(spec_json).expect("generated spec decodes");
                for _ in 0..3 {
                    let outcome = sdnav_grid::evaluate(&spec, &grid).expect("probe grid evaluates");
                    probe.grid_run(outcome.metrics);
                    let direct = format!("{}\n", sdnav_json::to_string_pretty(&outcome.results));
                    if crate::sweep::traced_op(&probe, spec_json, &grid, ctx.nproc) != direct {
                        failures.push("probe: grid replay differs from evaluate".to_owned());
                    }
                }
            }
            1 => {
                let size = crate::fleet::Size {
                    large: false,
                    compute_hosts: 2,
                    horizon_hours: 20_000.0,
                };
                let seed = crate::common::derive(ctx.seed, "probe.fleet");
                for _ in 0..3 {
                    let _ = crate::fleet::traced_op(&probe, spec_json, size, seed);
                }
            }
            _ => {
                let mini = Ctx {
                    seconds: 2.0,
                    ..*ctx
                };
                let outcome = crate::serve::run(&mini, spec_json, Some(&probe));
                failures.extend(outcome.failures.into_iter().map(|f| format!("probe: {f}")));
            }
        }
        for (name, value) in compute(&probe) {
            if missing.contains(&name) && group_of(name) == group {
                metrics.insert(name, value);
                filled.push(name);
            }
        }
    }
    (filled, failures)
}
