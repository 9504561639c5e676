//! Traced replay of a grid evaluation from outside the grid crate.
//!
//! `sdnav_grid::evaluate` runs its cells privately, so the traced run
//! re-executes the same plan on the grid's public work-stealing pool and
//! calls each layer's public entry points itself — `HwModel`/`SwModel`
//! (core), `Simulation::try_new`/`run` (sim), `ConsensusSim::run`
//! (consensus) and `ctmc_availability` (markov) — with a span around every
//! call. The replay rebuilds the result payload from those calls alone;
//! it must match the real evaluation byte for byte, which checks the grid
//! independently of its own aggregation code.

use sdnav_consensus::{ConsensusParams, ConsensusSim};
use sdnav_core::sweep::{Fig3Row, SwSweepRow};
use sdnav_core::{ControllerSpec, FaultMix, HwModel, ModelState, Scenario, SwModel, Topology};
use sdnav_grid::plan::{
    item_seed, plan_consensus_items, plan_items, Figure, SimTopology, WorkItem,
};
use sdnav_grid::{ConsensusRow, GridResults, GridSpec, SimRow};
use sdnav_sim::{SimConfig, Simulation, Welford};

use crate::trace::Tracer;

/// Result of one traced replay.
#[derive(Debug)]
pub struct Replay {
    /// The rebuilt payload.
    pub results: GridResults,
    /// Index of the `grid.execute` span that parents every cell.
    pub execute_span: usize,
    /// Pool workers used.
    pub workers: usize,
}

enum CellOut {
    Fig3(Fig3Row),
    Sw(Figure, SwSweepRow),
    Sim(SimRow),
    Consensus(ConsensusRow),
}

struct Ctx<'a> {
    state: &'a ModelState,
    grid: &'a GridSpec,
    small: Topology,
    medium: Topology,
    large: Topology,
    tracer: &'a Tracer,
}

impl Ctx<'_> {
    fn topo(&self, which: SimTopology) -> &Topology {
        match which {
            SimTopology::Small => &self.small,
            SimTopology::Large => &self.large,
        }
    }

    fn hw(&self, topo: &Topology, a_c: f64, parent: usize) -> f64 {
        self.tracer.time("core.hw_eval", Some(parent), || {
            HwModel::try_new(&self.state.spec, topo, self.state.hw.with_a_c(a_c))
                .expect("paper HW parameters are valid")
                .availability()
        })
    }

    fn sw(
        &self,
        which: SimTopology,
        scenario: Scenario,
        x: f64,
        slot: usize,
        parent: usize,
    ) -> f64 {
        self.tracer.time("core.sw_eval", Some(parent), || {
            let params = self.state.sw.scale_process_downtime(-x);
            let model = SwModel::try_new(&self.state.spec, self.topo(which), params, scenario)
                .expect("scaled SW parameters stay valid");
            [
                model.cp_availability(),
                model.shared_dp_availability(),
                model.host_dp_availability(),
            ][slot]
        })
    }

    fn cell(&self, item: &WorkItem, parent: usize) -> CellOut {
        match *item {
            WorkItem::Fig3Point { a_c } => CellOut::Fig3(Fig3Row {
                a_c,
                small: self.hw(&self.small, a_c, parent),
                medium: self.hw(&self.medium, a_c, parent),
                large: self.hw(&self.large, a_c, parent),
            }),
            WorkItem::SwPoint { figure, x } => {
                let slot = if figure == Figure::Fig4 { 0 } else { 2 };
                let (no, yes) = (
                    Scenario::SupervisorNotRequired,
                    Scenario::SupervisorRequired,
                );
                CellOut::Sw(
                    figure,
                    SwSweepRow {
                        x,
                        a: self.state.sw.scale_process_downtime(-x).process.auto,
                        small_no_sup: self.sw(SimTopology::Small, no, x, slot, parent),
                        small_sup: self.sw(SimTopology::Small, yes, x, slot, parent),
                        large_no_sup: self.sw(SimTopology::Large, no, x, slot, parent),
                        large_sup: self.sw(SimTopology::Large, yes, x, slot, parent),
                    },
                )
            }
            WorkItem::SimPoint {
                x,
                topology,
                scenario,
            } => CellOut::Sim(self.sim(item, x, topology, scenario, parent)),
            WorkItem::ConsensusPoint {
                election_timeout_ms,
                cluster_size,
                fault_mix,
            } => CellOut::Consensus(self.consensus(
                item,
                election_timeout_ms,
                cluster_size,
                fault_mix,
                parent,
            )),
            WorkItem::ChaosPoint { .. } => unreachable!("chaos axes are not planned by the replay"),
        }
    }

    fn sim(
        &self,
        item: &WorkItem,
        x: f64,
        topology: SimTopology,
        scenario: Scenario,
        parent: usize,
    ) -> SimRow {
        // The grid maps the figures' x-axis onto restart times at fixed F.
        let defaults = SimConfig::paper_defaults(scenario);
        let f_mtbf = defaults.process_mtbf;
        let restart_for = |restart: f64| {
            let u = restart / (f_mtbf + restart) * 10f64.powf(-x);
            f_mtbf * u / (1.0 - u)
        };
        let config = SimConfig::builder(scenario)
            .auto_restart(restart_for(defaults.auto_restart))
            .manual_restart(restart_for(defaults.manual_restart))
            .horizon_hours(self.grid.sim_horizon_hours)
            .compute_hosts(self.grid.sim_compute_hosts)
            .accelerate(self.grid.sim_accelerate)
            .build()
            .expect("grid simulation settings are valid");
        let topo = self.topo(topology);
        let sim = self.tracer.time("sim.build", Some(parent), || {
            Simulation::try_new(&self.state.spec, topo, config).expect("paper topology simulates")
        });
        let base_seed = item_seed(self.grid.seed, item);
        let (mut cp, mut dp, mut events) = (Welford::new(), Welford::new(), 0u64);
        for r in 0..self.grid.replications {
            let open = self.tracer.open("sim.run", Some(parent));
            let result = sim.run(base_seed.wrapping_add(r as u64));
            self.tracer.close(open, Some(result.events));
            cp.push(result.cp_availability);
            dp.push(result.dp_availability);
            events += result.events;
        }
        let analytic = self.tracer.time("core.sw_eval", Some(parent), || {
            SwModel::try_new(&self.state.spec, topo, config.analytic_params(), scenario)
                .expect("accelerated parameters stay valid")
        });
        SimRow {
            x,
            topology: topology.name(),
            supervisor_required: scenario == Scenario::SupervisorRequired,
            replications: self.grid.replications,
            cp: cp.estimate(),
            dp: dp.estimate(),
            events,
            analytic_cp: analytic.cp_availability(),
            analytic_dp: analytic.host_dp_availability(),
        }
    }

    fn consensus(
        &self,
        item: &WorkItem,
        election_timeout_ms: f64,
        cluster_size: u32,
        fault_mix: FaultMix,
        parent: usize,
    ) -> ConsensusRow {
        let base = self
            .grid
            .consensus
            .as_ref()
            .expect("consensus cells need a base spec");
        let mut consensus = base.clone();
        consensus.election_latency = base.election_latency.with_floor_ms(election_timeout_ms);
        consensus.cluster_size = cluster_size;
        consensus.fault_mix = fault_mix;
        let defaults = ConsensusParams::paper_defaults();
        let params = ConsensusParams {
            node_mtbf_hours: defaults.node_mtbf_hours / self.grid.sim_accelerate,
            node_mttr_hours: defaults.node_mttr_hours,
            horizon_hours: self.grid.sim_horizon_hours,
        };
        let sim =
            ConsensusSim::try_new(consensus.clone(), params).expect("grid consensus cell is valid");
        let ctmc_availability = self.tracer.time("markov.ctmc", Some(parent), || {
            sdnav_consensus::ctmc_availability(&consensus, &params).expect("CTMC solves")
        });
        let replications = self.grid.replications.max(1);
        let base_seed = item_seed(self.grid.seed, item);
        let mut availability = Welford::new();
        let (mut election_fraction, mut stall_fraction, mut elections) = (0.0, 0.0, 0u64);
        for r in 0..replications {
            let open = self.tracer.open("consensus.run", Some(parent));
            let outcome = sim.run(base_seed.wrapping_add(r as u64));
            self.tracer.close(open, Some(outcome.elections));
            availability.push(outcome.availability);
            election_fraction += outcome.election_fraction;
            stall_fraction += outcome.stall_fraction;
            elections += outcome.elections;
        }
        let n = replications as f64;
        ConsensusRow {
            election_timeout_ms,
            cluster_size,
            byzantine: fault_mix.byzantine,
            crash: fault_mix.crash,
            quorum: consensus.quorum(),
            replications,
            availability: availability.estimate(),
            election_fraction_mean: election_fraction / n,
            stall_fraction_mean: stall_fraction / n,
            elections,
            ctmc_availability,
        }
    }
}

/// Replays `grid` against `state` on `threads` pool workers, recording a
/// `grid.cell` span per work item under one `grid.execute` span.
///
/// # Panics
///
/// On grids with chaos axes (the benchmark's workloads have none).
#[must_use]
pub fn replay(
    tracer: &Tracer,
    state: &ModelState,
    grid: &GridSpec,
    threads: usize,
    parent: Option<usize>,
) -> Replay {
    assert!(grid.chaos_campaign.is_none(), "chaos axes are not replayed");
    let spec: &ControllerSpec = &state.spec;
    let mut items = plan_items(&grid.figures, grid.points, grid.replications);
    if grid.consensus.is_some() {
        items.extend(plan_consensus_items(
            &grid.consensus_election_timeouts_ms,
            &grid.consensus_cluster_sizes,
            &grid.consensus_fault_mixes,
        ));
    }
    let ctx = Ctx {
        state,
        grid,
        small: Topology::small(spec),
        medium: Topology::medium(spec),
        large: Topology::large(spec),
        tracer,
    };
    let execute_span = tracer.open("grid.execute", parent);
    let (outputs, stats) = sdnav_grid::pool::execute(threads, &items, |_, item| {
        let cell = tracer.open("grid.cell", Some(execute_span));
        let out = ctx.cell(item, cell);
        tracer.close(cell, None);
        out
    });
    tracer.close(execute_span, Some(items.len() as u64));
    let mut results = GridResults::default();
    for out in outputs {
        match out {
            CellOut::Fig3(row) => results.fig3.push(row),
            CellOut::Sw(Figure::Fig4, row) => results.fig4.push(row),
            CellOut::Sw(_, row) => results.fig5.push(row),
            CellOut::Sim(row) => results.sim.push(row),
            CellOut::Consensus(row) => results.consensus.push(row),
        }
    }
    Replay {
        results,
        execute_span,
        workers: stats.workers,
    }
}
