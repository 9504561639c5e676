//! perfbench — the sdnav workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|fleet_verdict|serve_whatif --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The untraced run (`--trace 0`) reports
//! the end-to-end metrics; the traced run (`--trace 1`) reports the
//! per-layer metrics plus its own overhead, and writes its spans as Chrome
//! trace-event JSON. Every run writes a record to `.bench_out/`. The last
//! stdout line is `{"correct", "attempted", "failed", "metrics"}`.

mod common;
mod digests;
mod fleet;
mod host;
mod layers;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use sdnav_core::ControllerSpec;
use sdnav_json::Json;

use common::{Ctx, Layers, Outcome};
use stats::{median, Summary};

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

const WORKLOADS: &[&str] = &["sweep", "fleet_verdict", "serve_whatif"];

/// A seed no tuning run used: gain claims must also hold on it.
const HELD_OUT_SEED: u64 = 9_127;

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name.to_owned(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; want one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_owned())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn summary_json(samples: &[f64]) -> Json {
    match Summary::of(samples) {
        Some(s) => Json::obj(vec![
            ("n", Json::Num(s.n as f64)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
        ]),
        None => Json::Null,
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
    };
    // The generated input every workload decodes: the bundled paper spec.
    let spec_json = sdnav_json::to_string(&ControllerSpec::opencontrail_3x());
    let layers = args.trace.then(Layers::default);

    let wall = Instant::now();
    let mut outcome: Outcome = match args.workload.as_str() {
        "sweep" => sweep::run(&ctx, &spec_json, layers.as_ref()),
        "fleet_verdict" => fleet::run(&ctx, &spec_json, layers.as_ref()),
        _ => serve::run(&ctx, &spec_json, layers.as_ref()),
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut probed = Vec::new();
    if let Some(layers) = &layers {
        let mut values = layers::compute(layers);
        let (filled, failures) = layers::probe_missing(&ctx, &spec_json, &mut values);
        probed = filled;
        for failure in failures {
            outcome.check(false, || failure);
        }
        if let (Some(traced), Some(untraced)) =
            (median(&outcome.traced_op_ms), median(&outcome.op_ms))
        {
            values.insert("trace.overhead_ms", traced - untraced);
        }
        for (name, unit, _) in layers::PER_LAYER {
            match values.get(name) {
                Some(v) => metrics.push((name, *v, unit)),
                None => outcome.check(false, || {
                    format!("per-layer metric {name} was not measured")
                }),
            }
        }
        std::fs::create_dir_all(OUT_DIR).ok();
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        let spans = layers.tracer.spans();
        if let Err(e) = std::fs::write(&path, trace::chrome_trace(&spans).to_compact()) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    } else {
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        let e2e = [
            median(&outcome.setup_s),
            median(&outcome.op_ms),
            Some(outcome.ops_per_s),
            Some(rss),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
            match value.filter(|v| v.is_finite() && *v > 0.0) {
                Some(v) => metrics.push((name, v, unit)),
                None => outcome.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                }),
            }
        }
    }
    outcome.attempted = outcome.attempted.max(1);
    let correct = outcome.failed == 0;

    // Human-readable table, then the run record, then the result line.
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    let mut record = vec![
        ("schema", Json::str("perfbench-run/v1")),
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::stamp(nproc)),
        ("wall_s", Json::Num(wall.elapsed().as_secs_f64())),
        ("repeats", Json::Num(outcome.op_ms.len() as f64)),
        ("setup_s", summary_json(&outcome.setup_s)),
        ("op_ms", summary_json(&outcome.op_ms)),
        (
            "op_ms_samples",
            Json::Arr(outcome.op_ms.iter().map(|v| Json::Num(*v)).collect()),
        ),
        ("traced_op_ms", summary_json(&outcome.traced_op_ms)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failed_ratio",
            Json::Num(outcome.failed as f64 / outcome.attempted as f64),
        ),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::str(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "probed_metrics",
            Json::Arr(probed.iter().map(|p| Json::str(*p)).collect()),
        ),
    ];
    if let Some(layers) = &layers {
        let runs = layers.grid_runs.lock().expect("grid run lock poisoned");
        let list = |f: fn(&sdnav_grid::metrics::RunMetrics) -> u64| {
            Json::Arr(runs.iter().map(|m| Json::Num(f(m) as f64)).collect())
        };
        record.push(("grid_cache_hits_per_run", list(|m| m.cache_hits)));
        record.push(("grid_cache_misses_per_run", list(|m| m.cache_misses)));
        // Self time per span name: each span minus what its children cover.
        let spans = layers.tracer.spans();
        let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            *self_ms.entry(span.name).or_default() += trace::self_time_ns(&spans, i) as f64 / 1e6;
        }
        record.push((
            "self_time_ms",
            Json::Obj(
                self_ms
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Json::Num(v)))
                    .collect(),
            ),
        ));
    }
    record.append(&mut outcome.record);
    let record = Json::obj(record);
    std::fs::create_dir_all(OUT_DIR).ok();
    let path = format!(
        "{OUT_DIR}/run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(&path, record.to_pretty()) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    println!("{}", record.to_compact());

    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| ((*name).to_owned(), metric(*value, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr().ok())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str().ok())
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let per: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), per);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr().ok())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str().ok())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
