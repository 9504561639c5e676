//! Pins the injected simulation engine bit for bit.
//!
//! `empty_campaign_identity` (in `sdnav-sim`) pins only the organic path.
//! This golden covers what that table cannot reach: forced failures of
//! every element kind with fixed and sampled repairs, overlapping
//! maintenance windows, single-crew FIFO and priority repair queues, a
//! latent fault revealed by a failover, vRouter processes, and failover
//! rediscovery — on Small and Large, both scenarios, both restart models
//! and every repair shape. It also pins `cp_blocks_taken_down` for every
//! element on Small, Medium and Large under both scenarios.
//!
//! Every f64 is written as its IEEE-754 bit pattern, so any change to an
//! event's order, an RNG draw or a tie-break shows up as a diff.

use sdnav_core::{ControllerSpec, Scenario, Topology};
use sdnav_sim::{
    Cause, ConnectionModel, CrewDiscipline, CrewPool, InjectAction, InjectTarget, InjectionPlan,
    PlannedEvent, RepairShape, RestartModel, SimConfig, SimResult, Simulation,
};

/// `name=0x…` with the IEEE-754 bit pattern, so the golden pins every bit.
fn bits(name: &str, v: f64) -> String {
    format!(" {name}={:#018x}", v.to_bits())
}

fn cause(c: Cause) -> String {
    match c {
        Cause::Organic => "O".into(),
        Cause::Injection(i) => format!("I{i}"),
    }
}

fn target(t: InjectTarget) -> String {
    match t {
        InjectTarget::Rack(i) => format!("rack{i}"),
        InjectTarget::Host(i) => format!("host{i}"),
        InjectTarget::Vm(i) => format!("vm{i}"),
        InjectTarget::Proc(i) => format!("proc{i}"),
        InjectTarget::VProc(h, i) => format!("vproc{h}.{i}"),
    }
}

fn scenario_name(s: Scenario) -> &'static str {
    match s {
        Scenario::SupervisorNotRequired => "S1",
        Scenario::SupervisorRequired => "S2",
    }
}

fn topology(spec: &ControllerSpec, name: &str) -> Topology {
    match name {
        "Small" => Topology::small(spec),
        "Medium" => Topology::medium(spec),
        "Large" => Topology::large(spec),
        other => panic!("unknown topology {other}"),
    }
}

fn config(scenario: Scenario, restart_model: RestartModel, repair_shape: RepairShape) -> SimConfig {
    let mut c = SimConfig::paper_defaults(scenario).accelerated(20.0);
    c.horizon_hours = 6_000.0;
    c.compute_hosts = 2;
    c.restart_model = restart_model;
    c.repair_shape = repair_shape;
    c.connection = ConnectionModel::Failover {
        rediscovery_hours: 0.25,
    };
    c
}

/// The campaign every run executes, served by one crew under `discipline`.
///
/// Injection ids: 0 rack fail (fixed), 1 host fail (sampled), 2 VM fail
/// (fixed), 3 supervisor fail (sampled), 4 auto process fail (fixed),
/// 5 manual process fail (sampled), 6 vRouter supervisor fail (sampled),
/// 7 vRouter agent fail (fixed), 8 overlapping host maintenance, 9 process
/// and vRouter maintenance, 10 latent fault, 11 the VM kill that fails the
/// latent's requirement over, 12 a burst of concurrent hardware failures
/// that queue for the crew, 13 maintenance during an in-flight repair.
fn plan(sim: &Simulation<'_>, discipline: CrewDiscipline) -> InjectionPlan {
    let proc = |role, node, name| sim.proc_index(role, node, name).expect("known process");
    let vproc = |name| sim.vproc_index(name).expect("known vRouter process");
    let fail = |repair_hours| InjectAction::Fail { repair_hours };
    let maint = |duration_hours| InjectAction::Maintenance { duration_hours };

    // The latent sits on node 2's Control process; the VM kill takes down
    // node 0 of a requirement the latent process belongs to.
    let latent = proc("Control", 2, "control");
    let latent_reqs: Vec<usize> = sim
        .cp_blocks_taken_down(InjectTarget::Proc(latent))
        .iter()
        .map(|&(req, _)| req)
        .collect();
    let failover_vm = (0..sim.vm_count())
        .find(|&v| {
            sim.cp_blocks_taken_down(InjectTarget::Vm(v))
                .iter()
                .any(|&(req, node)| node == 0 && latent_reqs.contains(&req))
        })
        .expect("a VM carrying node 0 of the latent's requirement");

    let rows: Vec<(f64, usize, InjectTarget, InjectAction)> = vec![
        (400.0, 0, InjectTarget::Rack(0), fail(Some(6.0))),
        (450.0, 1, InjectTarget::Host(1), fail(None)),
        (500.0, 2, InjectTarget::Vm(2), fail(Some(3.0))),
        (
            600.0,
            3,
            InjectTarget::Proc(proc("Control", 0, "supervisor")),
            fail(None),
        ),
        (
            610.0,
            4,
            InjectTarget::Proc(proc("Control", 0, "dns")),
            fail(Some(0.5)),
        ),
        (
            620.0,
            5,
            InjectTarget::Proc(proc("Database", 1, "kafka")),
            fail(None),
        ),
        (
            700.0,
            6,
            InjectTarget::VProc(0, vproc("supervisor")),
            fail(None),
        ),
        (
            705.0,
            7,
            InjectTarget::VProc(0, vproc("vrouter-agent")),
            fail(Some(0.2)),
        ),
        (
            710.0,
            7,
            InjectTarget::VProc(1, vproc("vrouter-agent")),
            fail(Some(0.2)),
        ),
        (1_000.0, 8, InjectTarget::Host(2), maint(30.0)),
        (1_010.0, 8, InjectTarget::Host(2), maint(40.0)),
        (1_020.0, 8, InjectTarget::Host(2), maint(5.0)),
        (
            1_100.0,
            9,
            InjectTarget::Proc(proc("Config", 1, "schema")),
            maint(4.0),
        ),
        (
            1_102.0,
            9,
            InjectTarget::VProc(1, vproc("vrouter-dpdk")),
            maint(2.0),
        ),
        (
            1_500.0,
            10,
            InjectTarget::Proc(latent),
            InjectAction::Latent,
        ),
        (2_000.0, 11, InjectTarget::Vm(failover_vm), fail(Some(8.0))),
        (3_000.0, 12, InjectTarget::Host(0), fail(None)),
        (3_000.0, 12, InjectTarget::Vm(1), fail(Some(12.0))),
        (3_000.0, 12, InjectTarget::Host(2), fail(None)),
        (3_001.0, 12, InjectTarget::Rack(0), fail(None)),
        (3_002.0, 13, InjectTarget::Host(0), maint(3.0)),
        (4_500.0, 8, InjectTarget::Rack(0), maint(2.0)),
    ];
    InjectionPlan {
        labels: (0..14).map(|i| format!("inj{i}")).collect(),
        events: rows
            .into_iter()
            .map(|(time, injection, target, action)| PlannedEvent {
                time,
                injection,
                target,
                action,
            })
            .collect(),
        crews: Some(CrewPool {
            crews: 1,
            discipline,
        }),
    }
}

fn render_result(label: &str, r: &SimResult) -> String {
    let mut out = label.to_string();
    out += &format!(" events={}", r.events);
    out += &bits("cp_availability", r.cp_availability);
    out += &bits("cp_mean", r.cp_estimate.mean);
    out += &bits("cp_se", r.cp_estimate.std_error);
    out += &format!(" cp_samples={}", r.cp_estimate.samples);
    out += &bits("dp_availability", r.dp_availability);
    out += &bits("dp_mean", r.dp_estimate.mean);
    out += &bits("dp_se", r.dp_estimate.std_error);
    out += &format!(" dp_samples={}", r.dp_estimate.samples);
    out += &format!(" cp_outages={}", r.cp_outage_count);
    out += &bits("cp_outage_mean_hours", r.cp_outage_mean_hours);
    out += &bits("cp_mtbf_hours", r.cp_mtbf_hours);
    out += "\n";
    let ledger = r.ledger.as_ref().expect("injected run records a ledger");
    out += &format!(
        "  injected={} revealed={}",
        ledger.injected_events, ledger.revealed_latents
    );
    for (slot, h) in ledger.dp_down_host_hours.iter().enumerate() {
        out += &bits(&format!("dp_hours{slot}"), *h);
    }
    out += "\n";
    for o in &ledger.cp_outages {
        let contributors: Vec<String> = o.contributors.iter().map(|&c| cause(c)).collect();
        out += "  outage";
        out += &bits("start", o.start);
        out += &bits("end", o.end);
        out += &format!(
            " root={} contributors={}\n",
            cause(o.root_cause),
            contributors.join(",")
        );
    }
    for w in &ledger.dp_windows {
        out += &format!("  dp_window host={}", w.host);
        out += &bits("start", w.start);
        out += &bits("end", w.end);
        out += &format!(" cause={}\n", cause(w.cause));
    }
    out
}

/// Renders every injected run and every `cp_blocks_taken_down` answer the
/// golden pins.
fn render_injected_engine() -> String {
    let spec = ControllerSpec::opencontrail_3x();
    let mut out = String::new();
    let mut revealed = 0;
    for topo_name in ["Small", "Large"] {
        let topo = topology(&spec, topo_name);
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            for restart in [RestartModel::Faithful, RestartModel::AnalyticIndependence] {
                for shape in [
                    RepairShape::Exponential,
                    RepairShape::Deterministic,
                    RepairShape::Uniform,
                ] {
                    let sim = Simulation::try_new(&spec, &topo, config(scenario, restart, shape))
                        .expect("valid simulation");
                    for discipline in [CrewDiscipline::Fifo, CrewDiscipline::Priority] {
                        let r = sim.run_injected(31, &plan(&sim, discipline));
                        revealed += r.ledger.as_ref().map_or(0, |l| l.revealed_latents);
                        let label = format!(
                            "run {topo_name} {} {restart:?} {shape:?} {discipline:?}",
                            scenario_name(scenario)
                        );
                        out += &render_result(&label, &r);
                    }
                }
            }
        }
    }
    assert!(revealed > 0, "the plan must reveal its latent fault");

    let config = config(
        Scenario::SupervisorNotRequired,
        RestartModel::Faithful,
        RepairShape::Exponential,
    );
    for topo_name in ["Small", "Medium", "Large"] {
        let topo = topology(&spec, topo_name);
        for scenario in [
            Scenario::SupervisorNotRequired,
            Scenario::SupervisorRequired,
        ] {
            let sim = Simulation::try_new(&spec, &topo, SimConfig { scenario, ..config })
                .expect("valid simulation");
            let mut targets: Vec<InjectTarget> = Vec::new();
            targets.extend((0..sim.rack_count()).map(InjectTarget::Rack));
            targets.extend((0..sim.host_count()).map(InjectTarget::Host));
            targets.extend((0..sim.vm_count()).map(InjectTarget::Vm));
            targets.extend((0..sim.proc_count()).map(InjectTarget::Proc));
            for host in 0..config.compute_hosts {
                targets.extend((0..sim.vproc_count()).map(|i| InjectTarget::VProc(host, i)));
            }
            for t in targets {
                let blocks: Vec<String> = sim
                    .cp_blocks_taken_down(t)
                    .iter()
                    .map(|(req, node)| format!("{req}.{node}"))
                    .collect();
                out += &format!(
                    "blocks {topo_name} {} {} {}\n",
                    scenario_name(scenario),
                    target(t),
                    blocks.join(",")
                );
            }
        }
    }
    out
}

#[test]
fn injected_engine_reproduces_its_golden() {
    let golden = include_str!("golden/sim_injected.golden.txt");
    assert_eq!(
        render_injected_engine(),
        golden,
        "injected engine output drifted from the golden"
    );
}
