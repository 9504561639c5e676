//! `fleet_verdict`: FMEA-driven chaos on the Large topology with a
//! compute-host fleet, as `sdnav chaos generate` + `sdnav chaos run
//! --verdict` do it: `Deployment` → `sdnav_chaos::generate` (default
//! config) → `sdnav_chaos::verdict` (5 uninjected baseline runs plus one
//! injected run with the attribution ledger), serially.
//!
//! Output check: the verdict document is byte-identical on every repeat,
//! matches the stored digest where one is stored for the seed, and its
//! per-mode outcomes cover every generated expectation. The traced run
//! replays generate → compile → baseline runs → injected run through the
//! public functions and must reproduce the report's baseline mean,
//! interval and injected availability bit for bit.

use std::time::Instant;

use sdnav_chaos::{GenerateConfig, GeneratedCampaign, VerdictConfig, VerdictReport};
use sdnav_core::{ControllerSpec, Scenario, SwParams, Topology};
use sdnav_fmea::Deployment;
use sdnav_json::{Json, ToJson};
use sdnav_sim::{SimConfig, Simulation};

use crate::common::{
    another_fits, derive, ms_since, time_setups, Ctx, Layers, Outcome, SETUP_INTERLEAVED,
    SETUP_REPEATS,
};
use crate::digests;

/// Deployment and simulation knobs (the workload and the layer probe
/// differ only here).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Large (true) or Small topology.
    pub large: bool,
    /// Simulated compute hosts carrying vRouters.
    pub compute_hosts: usize,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
}

/// The benchmark's fleet: Large topology, 8 compute hosts, the CLI's
/// default 100 000 h at 100×.
pub const WORKLOAD: Size = Size {
    large: true,
    compute_hosts: 8,
    horizon_hours: 100_000.0,
};

const SCENARIO: Scenario = Scenario::SupervisorNotRequired;
const ACCELERATE: f64 = 100.0;

/// The decoded inputs a verdict runs against.
pub struct Inputs {
    spec: ControllerSpec,
    topology: Topology,
    config: SimConfig,
}

impl Inputs {
    /// Decodes the spec and builds the topology and simulation config.
    #[must_use]
    pub fn new(spec_json: &str, size: Size) -> Inputs {
        let spec: ControllerSpec = sdnav_json::from_str(spec_json).expect("generated spec decodes");
        let topology = if size.large {
            Topology::large(&spec)
        } else {
            Topology::small(&spec)
        };
        let config = SimConfig::builder(SCENARIO)
            .accelerate(ACCELERATE)
            .horizon_hours(size.horizon_hours)
            .compute_hosts(size.compute_hosts)
            .build()
            .expect("fleet simulation config is valid");
        Inputs {
            spec,
            topology,
            config,
        }
    }

    fn simulation(&self) -> Simulation<'_> {
        Simulation::try_new(&self.spec, &self.topology, self.config).expect("fleet simulates")
    }
}

/// Generate plus verdict, as the CLI runs them; returns the report and
/// its JSON document.
fn op(inputs: &Inputs, sim: &Simulation<'_>, seed: u64) -> (VerdictReport, String) {
    let deployment = Deployment::new(
        &inputs.spec,
        &inputs.topology,
        SwParams::paper_defaults(),
        SCENARIO,
    );
    let generated = sdnav_chaos::generate(&deployment, &GenerateConfig::default())
        .expect("the fleet deployment has dominant modes");
    let report = sdnav_chaos::verdict(sim, &generated, seed, &VerdictConfig::default())
        .expect("generated campaign compiles");
    let doc = format!("{}\n", report.to_doc().to_pretty());
    (report, doc)
}

/// What the traced replay recomputed, for comparison with the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replayed {
    /// Baseline mean CP availability.
    pub baseline_mean: f64,
    /// Baseline interval half-width.
    pub half_width: f64,
    /// Injected-run CP availability.
    pub cp_availability: f64,
    /// Events over all six runs.
    pub events: u64,
    /// Failure modes FMEA enumerated.
    pub modes: u64,
    /// Planned events the injected run applied.
    pub injected_events: u64,
}

/// One traced replay of generate + verdict through the layers' public
/// functions.
pub fn traced_op(layers: &Layers, spec_json: &str, size: Size, seed: u64) -> Replayed {
    let tracer = &layers.tracer;
    let root = tracer.open("fleet.op", None);
    let inputs = tracer.time("json.decode", Some(root), || Inputs::new(spec_json, size));
    let config = GenerateConfig::default();
    let deployment = Deployment::new(
        &inputs.spec,
        &inputs.topology,
        SwParams::paper_defaults(),
        SCENARIO,
    );
    let open = tracer.open("fmea.enumerate", Some(root));
    let modes = sdnav_fmea::enumerate(&deployment, config.max_order).len() as u64;
    tracer.close(open, Some(modes));
    let generated: GeneratedCampaign = tracer.time("chaos.generate", Some(root), || {
        sdnav_chaos::generate(&deployment, &config)
            .expect("the fleet deployment has dominant modes")
    });
    let genspec = tracer.time("json.encode", Some(root), || {
        generated.to_json().to_pretty()
    });
    let generated: GeneratedCampaign = tracer.time("json.decode", Some(root), || {
        sdnav_json::from_str(&genspec).expect("genspec round-trips")
    });
    let sim = tracer.time("sim.build", Some(root), || inputs.simulation());
    let plan = tracer.time("chaos.compile", Some(root), || {
        sdnav_chaos::compile(&generated.campaign, &sim).expect("generated campaign compiles")
    });

    // The verdict's baseline: replications at seed, seed+1, … and the
    // predictive interval mean ± z·sd·√(1 + 1/R), floored at 1e-9.
    let verdict = VerdictConfig::default();
    let replications = verdict.replications.max(2);
    let (mut mean, mut m2, mut events) = (0.0f64, 0.0f64, 0u64);
    for r in 0..replications {
        let outer = tracer.open("chaos.baseline_run", Some(root));
        let open = tracer.open("sim.run", Some(outer));
        let result = sim.run(seed + r as u64);
        tracer.close(open, Some(result.events));
        tracer.close(outer, None);
        events += result.events;
        let availability = result.cp_availability;
        let count = (r + 1) as f64;
        let delta = availability - mean;
        mean += delta / count;
        m2 += delta * (availability - mean);
    }
    let sd = (m2 / (replications as f64 - 1.0)).sqrt();
    let half_width = (verdict.z * sd * (1.0 + 1.0 / replications as f64).sqrt()).max(1e-9);

    let outer = tracer.open("chaos.injected_run", Some(root));
    let open = tracer.open("sim.run_injected", Some(outer));
    let result = sim.run_injected(seed, &plan);
    tracer.close(open, Some(result.events));
    let injected_events = result.ledger.as_ref().map_or(0, |l| l.injected_events);
    tracer.close(outer, Some(injected_events));
    events += result.events;
    tracer.close(root, None);

    layers.sample("sim.events", events as f64);
    layers.sample("fmea.modes", modes as f64);
    layers.sample("chaos.injected_events", injected_events as f64);
    Replayed {
        baseline_mean: mean,
        half_width,
        cp_availability: result.cp_availability,
        events,
        modes,
        injected_events,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spec_json: &str, layers: Option<&Layers>) -> Outcome {
    let mut out = Outcome::default();
    let seed = derive(ctx.seed, "fleet.verdict");
    let setup = || {
        let built = Inputs::new(spec_json, WORKLOAD);
        drop(std::hint::black_box(built.simulation()));
        built
    };
    let inputs = time_setups(&mut out, SETUP_REPEATS, &setup);
    let sim = inputs.simulation();

    let start = Instant::now();
    let mut first: Option<(String, VerdictReport)> = None;
    let mut first_replay: Option<Replayed> = None;
    let mut iteration_ms = Vec::new();
    while another_fits(ctx, start, iteration_ms.len(), &iteration_ms) {
        let iteration = Instant::now();
        let t = Instant::now();
        let (report, doc) = op(&inputs, &sim, seed);
        out.op_ms.push(ms_since(t));
        match &first {
            None => {
                check_first(&mut out, ctx.seed, &report, &doc);
                first = Some((doc, report));
            }
            Some((reference, _)) => out.check(doc == *reference, || {
                "verdict document differs from the run's first verdict".to_owned()
            }),
        }
        if let Some(layers) = layers {
            let t = Instant::now();
            let replayed = traced_op(layers, spec_json, WORKLOAD, seed);
            out.traced_op_ms.push(ms_since(t));
            let report = &first.as_ref().expect("set above").1;
            out.check(
                replayed.baseline_mean.to_bits() == report.baseline_mean.to_bits()
                    && replayed.half_width.to_bits() == report.baseline_half_width.to_bits()
                    && replayed.cp_availability.to_bits() == report.cp_availability.to_bits(),
                || format!("traced replay {replayed:?} disagrees with the verdict report"),
            );
            match &first_replay {
                None => first_replay = Some(replayed),
                Some(prior) => out.check(
                    (prior.events, prior.modes, prior.injected_events)
                        == (replayed.events, replayed.modes, replayed.injected_events),
                    || format!("deterministic counts changed between repeats: {prior:?} then {replayed:?}"),
                ),
            }
        }
        iteration_ms.push(ms_since(iteration));
        drop(time_setups(&mut out, SETUP_INTERLEAVED, &setup));
    }
    let total_s: f64 = out.op_ms.iter().sum::<f64>() / 1e3;
    out.ops_per_s = out.op_ms.len() as f64 / total_s;
    if let Some((doc, report)) = &first {
        out.record.push((
            "fleet_verdict",
            Json::obj(vec![
                (
                    "verdict_sha256",
                    Json::str(sdnav_chaos::sha256_hex(doc.as_bytes())),
                ),
                ("verdict_pass", Json::Bool(report.pass())),
                (
                    "violations",
                    Json::Arr(
                        report
                            .violations
                            .iter()
                            .map(|v| Json::str(v.as_str()))
                            .collect(),
                    ),
                ),
                ("modes", Json::Num(report.modes.len() as f64)),
                ("verdict_seed", Json::Num(seed as f64)),
                ("compute_hosts", Json::Num(WORKLOAD.compute_hosts as f64)),
            ]),
        ));
    }
    out
}

fn check_first(out: &mut Outcome, seed: u64, report: &VerdictReport, doc: &str) {
    out.check(
        !report.modes.is_empty() && report.pass() == report.violations.is_empty(),
        || format!("verdict report is malformed: {} modes", report.modes.len()),
    );
    if let Some(stored) = digests::stored("fleet_verdict", seed) {
        let digest = sdnav_chaos::sha256_hex(doc.as_bytes());
        out.check(digest == stored, || {
            format!("verdict digest {digest} != stored {stored} for seed {seed}")
        });
    }
}
