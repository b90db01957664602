//! The `sim-sweep` workload: one thread runs a fixed scenario × network
//! × scheduler grid through the simulator's event core, pass after pass.
//!
//! Set-up builds every scenario with `build_scenario`; a cell is timed as
//! `build_sim_scheduler` plus `run_events`, so only the `sim` layer is on
//! the measured path. Each cell uses its scenario's seed for the
//! scenario, scheduler, network and event queue exactly as `run_sim`
//! derives them, which lets the output check compare every cell against
//! `run_sim` with the same spec.

use std::time::Instant;

use wtm_sim::{
    build_scenario, build_sim_scheduler, record_run, replay, run_events, run_sim, EventLog,
    NetSpec, Scenario, SimConfig, SimError, SimOutcome, SimRunSpec, SimSetup, SIM_SCHEDULER_NAMES,
};

use crate::report::{best, peak_rss_mb, quantile, ratio, Better, Report};
use crate::trace::{self, Span};
use crate::{mix, repeat_setup, Params};

pub const M: usize = 16;
pub const N: usize = 24;
pub const TAU: u32 = 2;

pub const SCENARIOS: &[&str] = &[
    "fig2-shape",
    "clustered",
    "distributed@nodes=4,skew=1",
    "replicated@nodes=2",
    "crash-recovery@nodes=4,node=1,at=8,down=16",
];

pub const NETS: &[&str] = &["zero", "fixed:4", "jitter:2,j=4,drop=50"];

/// Instances of each scenario, each with its own seed. Which cells sit at
/// the grid's median depends on the drawn graphs: with one instance the
/// cell p50 moved by 9% from seed to seed.
pub const INSTANCES: usize = 3;

/// The seed `run_sim` gives the network model of a run with `seed`.
const NET_SEED_XOR: u64 = 0x0005_EED5;

pub struct Grid {
    /// Built scenario instances with their configs and seeds: the
    /// instances of [`SCENARIOS`]`[i]` sit at `i * INSTANCES ..`.
    scenarios: Vec<(Scenario, SimConfig, u64)>,
    nets: Vec<NetSpec>,
}

/// One grid cell by index: `(scenario, net, scheduler)`.
type Cell = (usize, usize, usize);

impl Grid {
    pub fn build<const TRACED: bool>(seed: u64) -> Result<Grid, SimError> {
        let scenarios = (0..SCENARIOS.len() * INSTANCES)
            .map(|i| {
                let spec = SCENARIOS[i / INSTANCES];
                let s = mix(seed, 10 + i as u64);
                let _t = TRACED.then(|| trace::span(Span::ScenarioBuild));
                let sc = build_scenario(spec, M, N, s)?;
                let cfg = SimConfig::try_new(sc.graph.m(), N, TAU)?;
                Ok((sc, cfg, s))
            })
            .collect::<Result<_, SimError>>()?;
        let nets = NETS
            .iter()
            .map(|n| NetSpec::parse(n))
            .collect::<Result<_, _>>()?;
        Ok(Grid { scenarios, nets })
    }

    fn cells(&self) -> Vec<Cell> {
        let mut v = Vec::new();
        for s in 0..self.scenarios.len() {
            for n in 0..self.nets.len() {
                for k in 0..SIM_SCHEDULER_NAMES.len() {
                    v.push((s, n, k));
                }
            }
        }
        v
    }

    fn spec(&self, (s, n, k): Cell) -> SimRunSpec {
        SimRunSpec {
            scenario: SCENARIOS[s / INSTANCES].to_string(),
            scheduler: SIM_SCHEDULER_NAMES[k].to_string(),
            m: M,
            n: N,
            tau: TAU,
            net: NETS[n].to_string(),
            seed: self.scenarios[s].2,
        }
    }

    fn run_cell<const TRACED: bool>(&self, (s, n, k): Cell) -> Result<SimOutcome, SimError> {
        let (sc, cfg, seed) = &self.scenarios[s];
        let mut sched = {
            let _t = TRACED.then(|| trace::span(Span::SchedBuild));
            build_sim_scheduler(SIM_SCHEDULER_NAMES[k], cfg, &sc.graph, *seed)?
        };
        let mut net = self.nets[n].build(seed ^ NET_SEED_XOR);
        let setup = SimSetup {
            graph: &sc.graph,
            cfg,
            topo: &sc.topo,
            crash_plan: &sc.crash_plan,
            replicas: sc.replicas,
            queue_seed: *seed,
        };
        let _t = TRACED.then(|| trace::span(Span::RunEvents));
        Ok(run_events(
            &setup,
            sched.as_mut(),
            net.as_mut(),
            &mut EventLog::disabled(),
        ))
    }

    /// Edge lists of every scenario graph (determinism tests).
    #[cfg(test)]
    fn fingerprint(&self) -> Vec<Vec<u32>> {
        self.scenarios
            .iter()
            .map(|(sc, _, _)| {
                (0..sc.graph.len() as u32)
                    .flat_map(|t| sc.graph.neighbors(t).iter().map(move |&b| t * 100_000 + b))
                    .collect()
            })
            .collect()
    }
}

/// What a pass leaves behind: its figures, not its cells, so a run's
/// memory does not grow with the number of passes it fits in.
struct PassOut {
    wall_s: f64,
    commits: u64,
    cell_p50_us: f64,
    cell_p99_us: f64,
}

/// Run every cell once, handing each outcome to `seen`.
fn pass<const TRACED: bool>(
    grid: &Grid,
    cells: &[Cell],
    mut seen: impl FnMut(usize, Result<SimOutcome, SimError>),
) -> PassOut {
    let mut cell_us = Vec::with_capacity(cells.len());
    let mut commits = 0;
    let t0 = Instant::now();
    for (i, &c) in cells.iter().enumerate() {
        let t = Instant::now();
        let out = grid.run_cell::<TRACED>(c);
        cell_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        commits += out.as_ref().map_or(0, |o| o.commits);
        seen(i, out);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    PassOut {
        wall_s,
        commits,
        cell_p50_us: quantile(&mut cell_us, 0.50),
        cell_p99_us: quantile(&mut cell_us, 0.99),
    }
}

/// Checks of one cell: it ran, committed every transaction, gave the
/// same outcome in every pass, and matches `run_sim` on the same spec.
fn check_cell(
    grid: &Grid,
    c: Cell,
    first: &Result<SimOutcome, SimError>,
    differs: bool,
) -> Result<(), String> {
    let spec = grid.spec(c);
    let name = format!("{}/{}/{}", spec.scenario, spec.net, spec.scheduler);
    let first = first.as_ref().map_err(|e| format!("{name}: {e}"))?;
    if !first.all_committed {
        return Err(format!("{name}: not every transaction committed"));
    }
    if differs {
        return Err(format!("{name}: outcome differs between passes"));
    }
    let reference = run_sim(&spec, false).map_err(|e| format!("{name}: run_sim: {e}"))?;
    if &reference.outcome != first {
        return Err(format!(
            "{name}: run_events {first:?} != run_sim {:?}",
            reference.outcome
        ));
    }
    Ok(())
}

pub fn run(p: &Params) -> Result<Report, String> {
    if p.traced {
        run_mode::<true>(p)
    } else {
        run_mode::<false>(p)
    }
}

fn run_mode<const TRACED: bool>(p: &Params) -> Result<Report, String> {
    let mut rep = Report::default();
    let (grid, builds) =
        repeat_setup(|| Grid::build::<TRACED>(p.seed).map_err(|e| format!("grid set-up: {e}")))?;
    rep.set("setup_s", best(&builds, Better::Lower));
    rep.set("sim.scenario_build_s", best(&builds, Better::Lower));
    if TRACED {
        trace::flush();
        trace::take();
    }
    let cells = grid.cells();

    // The warm-up pass gives each cell's reference outcome.
    let mut first = Vec::with_capacity(cells.len());
    pass::<TRACED>(&grid, &cells, |_, o| first.push(o));
    if TRACED {
        trace::flush();
        trace::take();
    }
    let mut differs = vec![false; cells.len()];
    let mut seen = |i: usize, o| differs[i] |= o != first[i];
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut idx = 1;
    while t0.elapsed().as_secs_f64() < p.seconds
        || plain.is_empty()
        || (TRACED && traced.is_empty())
    {
        // Alternate CPUs every two passes, so a run samples each of them:
        // one CPU can be slowed alone (two simulator processes run side by
        // side on the two CPUs differed by up to 24%).
        crate::pin::pin_to_nth_cpu(idx / 2);
        if TRACED && idx % 2 == 1 {
            traced.push(pass::<true>(&grid, &cells, &mut seen));
        } else {
            plain.push(pass::<false>(&grid, &cells, &mut seen));
        }
        idx += 1;
    }
    if TRACED {
        trace::flush();
    }
    // Memory is read before the checks, which are not part of the workload.
    rep.set("peak_rss_mb", peak_rss_mb()?);

    let passes = 1 + traced.len() + plain.len();
    for (i, &c) in cells.iter().enumerate() {
        rep.checked(passes as u64, check_cell(&grid, c, &first[i], differs[i]));
    }
    // One cell per run, chosen by the seed, round-trips through the log.
    let i = (p.seed as usize) % cells.len();
    let replayed = record_run(&grid.spec(cells[i]))
        .and_then(|log| replay(&log))
        .map_err(|e| format!("record/replay: {e}"))
        .and_then(|o| match &first[i] {
            Ok(w) if *w == o => Ok(()),
            _ => Err("replayed outcome differs from the measured cell".to_string()),
        });
    rep.checked(1, replayed);

    let cps = |ps: &[PassOut]| {
        let v: Vec<f64> = ps.iter().map(|x| x.commits as f64 / x.wall_s).collect();
        best(&v, Better::Higher)
    };
    let per_pass =
        |f: fn(&PassOut) -> f64| best(&plain.iter().map(f).collect::<Vec<_>>(), Better::Lower);
    rep.set("commits_per_s", cps(&plain));
    rep.set("op_p50_us", per_pass(|x| x.cell_p50_us));
    rep.set("op_p99_us", per_pass(|x| x.cell_p99_us));
    rep.notes.push(format!(
        "passes: {} measured over {} cells (M={M}, N={N}, tau={TAU}); op = one grid cell",
        passes - 1,
        cells.len()
    ));

    if TRACED {
        let ok: Vec<&SimOutcome> = first.iter().flatten().collect();
        layer_metrics(&mut rep, &ok, &traced, &trace::take());
        rep.set("trace.overhead", cps(&plain) / cps(&traced) - 1.0);
    }
    Ok(rep)
}

fn layer_metrics(rep: &mut Report, outcomes: &[&SimOutcome], traced: &[PassOut], agg: &trace::Agg) {
    let steps: u64 = outcomes.iter().map(|o| o.makespan).sum();
    let aborts: u64 = outcomes.iter().map(|o| o.aborts).sum();
    let commits: u64 = outcomes.iter().map(|o| o.commits).sum();
    let (_, sched_ns, sched_hist) = agg.of(Span::SchedBuild);
    let (_, run_ns, run_hist) = agg.of(Span::RunEvents);
    rep.set("sim.sched_build_ns_p50", sched_hist.quantile(0.5) as f64);
    rep.set("sim.run_events_ns_p50", run_hist.quantile(0.5) as f64);
    rep.set(
        "sim.ns_per_step",
        ratio(run_ns as f64, (steps * traced.len() as u64) as f64),
    );
    rep.set("sim.makespan_steps", steps as f64);
    rep.set(
        "sim.aborts_per_commit",
        ratio(aborts as f64, commits as f64),
    );

    for name in [
        "workloads.prepopulate_s",
        "workloads.opgen_s",
        "workloads.body_self_ns_p50",
        "stm.atomic_self_ns_p50",
        "stm.aborts_per_commit",
        "stm.wasted_share",
        "stm.opens_per_commit",
        "stm.conflicts_ww_per_commit",
        "stm.conflicts_rw_per_commit",
        "stm.conflicts_wr_per_commit",
        "stm.wait_share",
        "stm.epoch_retired_per_commit",
        "stm.epoch_backlog",
        "cm.resolve_per_commit",
        "cm.resolve_self_ns_p50",
        "cm.resolve_share",
        "cm.verdict_retry_share",
        "cm.verdict_abort_self_share",
        "cm.verdict_abort_enemy_share",
        "window.on_begin_ns_p50",
        "window.on_begin_ns_p99",
        "window.begin_share",
        "window.windows_completed",
        "window.frame_len_us",
        "window.contention_estimate",
        "window.fallbacks",
    ] {
        rep.set(name, 0.0);
    }

    let wall_ns = traced.iter().map(|x| x.wall_s).sum::<f64>() * 1e9;
    let explained = ratio((sched_ns + run_ns) as f64, wall_ns);
    rep.set("attribution.explained_share", explained);
    rep.set("attribution.unexplained_share", 1.0 - explained);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_grid_other_seed_other_grid() {
        let a = Grid::build::<false>(11).unwrap().fingerprint();
        assert_eq!(a, Grid::build::<false>(11).unwrap().fingerprint());
        assert_ne!(a, Grid::build::<false>(12).unwrap().fingerprint());
        assert_eq!(
            Grid::build::<false>(11).unwrap().cells().len(),
            5 * INSTANCES * 3 * 8
        );
    }

    #[test]
    fn cells_match_run_sim_and_replay() {
        let grid = Grid::build::<false>(3).unwrap();
        let cells = grid.cells();
        // One scheduler per scenario × network, rotating through all of
        // them, keeps the debug-build test quick.
        let picked: Vec<Cell> = cells
            .iter()
            .copied()
            .filter(|&(s, n, k)| k == (s * NETS.len() + n) % SIM_SCHEDULER_NAMES.len())
            .collect();
        let mut first = Vec::new();
        pass::<false>(&grid, &picked, |_, o| first.push(o));
        for (i, &c) in picked.iter().enumerate() {
            check_cell(&grid, c, &first[i], false).unwrap();
        }
        assert!(check_cell(&grid, picked[0], &first[0], true).is_err());
        let log = record_run(&grid.spec(picked[0])).unwrap();
        assert_eq!(&replay(&log).unwrap(), first[0].as_ref().unwrap());
    }
}
