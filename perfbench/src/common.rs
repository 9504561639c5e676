//! Pieces every workload shares: the run context, seed derivation, the
//! per-run outcome, and the clock.

use std::collections::BTreeMap;
use std::time::Instant;

use sdnav_grid::metrics::RunMetrics;
use sdnav_json::Json;

use crate::trace::Tracer;

/// What one benchmark invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Worker/client threads (the machine's available parallelism).
    pub nproc: usize,
}

/// Set-ups timed before the first operation.
pub const SETUP_REPEATS: usize = 51;

/// Set-ups timed again after each operation (or once after the load, for
/// the service). The host's speed drifts over tens of seconds, so samples
/// spread over the whole run give a steadier median than a burst at start.
pub const SETUP_INTERLEAVED: usize = 11;

/// Times `repeats` set-ups with `build` into `out.setup_s` and returns the
/// last one built.
pub fn time_setups<T>(out: &mut Outcome, repeats: usize, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let built = build();
        out.setup_s.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    last.expect("at least one set-up ran")
}

/// Minimum measured operations per run, even past the time budget.
pub const MIN_OPS: usize = 3;

/// SplitMix64 finalizer.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 53-bit input seed for stream `tag` of workload seed `seed` (53 bits
/// so it survives a round trip through a JSON number).
#[must_use]
pub fn derive(seed: u64, tag: &str) -> u64 {
    let t = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    splitmix64(seed ^ splitmix64(t)) >> 11
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Whether another operation of typical length `op_ms` still fits in the
/// budget (always true until [`MIN_OPS`] operations have run).
#[must_use]
pub fn another_fits(ctx: &Ctx, start: Instant, done: usize, op_ms: &[f64]) -> bool {
    if done < MIN_OPS {
        return true;
    }
    let typical = crate::stats::median(op_ms).unwrap_or(0.0);
    ms_since(start) + typical <= ctx.seconds * 1e3
}

/// Per-layer collection for a traced run: spans, grid run metrics, and
/// named samples the workloads measure directly.
#[derive(Debug, Default)]
pub struct Layers {
    /// Spans around every layer call.
    pub tracer: Tracer,
    /// `RunMetrics` of each real grid evaluation.
    pub grid_runs: std::sync::Mutex<Vec<RunMetrics>>,
    /// Directly measured samples, by per-layer metric name.
    pub samples: std::sync::Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Layers {
    /// Adds one sample to metric `name`.
    pub fn sample(&self, name: &'static str, value: f64) {
        self.samples
            .lock()
            .expect("sample map lock poisoned")
            .entry(name)
            .or_default()
            .push(value);
    }

    /// Records one real grid evaluation's metrics.
    pub fn grid_run(&self, metrics: RunMetrics) {
        self.grid_runs
            .lock()
            .expect("grid run lock poisoned")
            .push(metrics);
    }
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (including output checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed their check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced wall time of each measured operation, ms.
    pub op_ms: Vec<f64>,
    /// Traced wall time of each traced operation, ms (traced runs only).
    pub traced_op_ms: Vec<f64>,
    /// Operations completed per second of measured time.
    pub ops_per_s: f64,
    /// Extra run-record fields (digests, counts, percentiles).
    pub record: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}
