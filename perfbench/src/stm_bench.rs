//! The three STM workloads: a fixed-budget round on 2 worker threads,
//! repeated for the measured time.
//!
//! Set-up builds and prepopulates the structure and generates each
//! thread's op stream with the public generators, so the engine only ever
//! sees generated inputs. A round takes a fresh set-up, hands every thread
//! its stream (one transaction per op, so the round's commit budget is
//! fixed) on a fresh `Stm` and contention manager, and times each
//! `ThreadCtx::atomic` call. After every round the output checks run on
//! the structure at quiescence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use wtm_stm::cm::AbortSelfManager;
use wtm_stm::managers::Greedy;
use wtm_stm::{
    CmDispatch, ContentionManager, EngineKind, StatsSnapshot, Stm, ThreadCtx, TxResult, Txn,
};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};
use wtm_workloads::{
    OpKind, SetOp, SetOpGenerator, TxIntSet, TxList, TxRBTree, Vacation, VacationConfig,
    VacationOp, VacationOpGenerator,
};

use crate::report::{best, median, peak_rss_mb, quantile, ratio, Better, Report};
use crate::timed_cm::TimedCm;
use crate::trace::{self, Span};
use crate::{mix, repeat_setup, Params};

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// An IntSet prepopulated with every even key of `[0, key_range)`.
    Set {
        rbtree: bool,
        key_range: i64,
        update_pct: u32,
    },
    /// Vacation with `rows` rows per table and `update_pct`% UpdateTables.
    Vacation { rows: i64, update_pct: u32 },
}

#[derive(Debug, Clone, Copy)]
pub enum Cm {
    Greedy,
    /// Online-Dynamic with `n` transactions per thread per window.
    OnlineDynamic {
        n: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct StmSpec {
    pub shape: Shape,
    pub engine: EngineKind,
    pub cm: Cm,
    pub threads: usize,
    /// Commits per round, over all threads.
    pub budget: usize,
}

impl StmSpec {
    fn per_thread(&self) -> usize {
        self.budget / self.threads
    }
}

pub enum Data {
    List(TxList),
    RBTree(TxRBTree),
    Vacation(Vacation),
}

pub enum Ops {
    Set(Vec<SetOp>),
    Vacation(Vec<VacationOp>),
}

pub struct Setup {
    pub data: Data,
    /// One stream per worker thread.
    pub ops: Vec<Ops>,
    /// Keys present after prepopulation (IntSet workloads).
    pub prepopulated: i64,
    pub prepopulate_s: f64,
    pub opgen_s: f64,
}

/// Build, prepopulate and generate the op streams for one run.
pub fn setup<const TRACED: bool>(spec: &StmSpec, seed: u64) -> Setup {
    let t0 = Instant::now();
    let (data, prepopulated) = {
        let _s = TRACED.then(|| trace::span(Span::Prepopulate));
        match spec.shape {
            Shape::Set {
                rbtree, key_range, ..
            } => {
                let set: Data = if rbtree {
                    Data::RBTree(TxRBTree::new(key_range as usize + 8))
                } else {
                    Data::List(TxList::new())
                };
                // A throwaway single-thread engine, as the harness does, so
                // prepopulation never touches the manager under test.
                let stm = Stm::new(Arc::new(AbortSelfManager), 1);
                let ctx = stm.thread(0);
                let s = set.as_set().expect("set shape builds a set");
                let inserted = (0..key_range)
                    .step_by(2)
                    .filter(|&k| ctx.atomic(|tx| s.insert(tx, k)))
                    .count();
                (set, inserted as i64)
            }
            Shape::Vacation { .. } => (
                Data::Vacation(Vacation::new(vacation_config(spec, seed))),
                0,
            ),
        }
    };
    let prepopulate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let n = spec.per_thread();
    let ops = (0..spec.threads)
        .map(|t| match spec.shape {
            Shape::Set {
                key_range,
                update_pct,
                ..
            } => {
                let mut g = SetOpGenerator::new(mix(seed, 1), t, key_range, update_pct);
                Ops::Set((0..n).map(|_| g.next_op()).collect())
            }
            Shape::Vacation { .. } => {
                let mut g = VacationOpGenerator::new(&vacation_config(spec, seed), t);
                Ops::Vacation((0..n).map(|_| g.next_op()).collect())
            }
        })
        .collect();
    let opgen_s = t1.elapsed().as_secs_f64();
    Setup {
        data,
        ops,
        prepopulated,
        prepopulate_s,
        opgen_s,
    }
}

fn vacation_config(spec: &StmSpec, seed: u64) -> VacationConfig {
    let Shape::Vacation { rows, update_pct } = spec.shape else {
        unreachable!("vacation config of a set workload")
    };
    VacationConfig {
        num_relations: rows,
        num_queries: 4,
        update_pct,
        seed: mix(seed, 2),
        ..VacationConfig::default()
    }
}

impl Data {
    fn as_set(&self) -> Option<&dyn TxIntSet> {
        match self {
            Data::List(l) => Some(l),
            Data::RBTree(t) => Some(t),
            Data::Vacation(_) => None,
        }
    }
}

/// Run one transaction through `ThreadCtx::atomic` and record its latency
/// from the first attempt's start to the commit.
#[inline(always)]
fn timed_txn<const TRACED: bool, R>(
    ctx: &ThreadCtx,
    lat: &mut Vec<u32>,
    mut body: impl FnMut(&mut Txn) -> TxResult<R>,
) -> R {
    let t0 = Instant::now();
    let r = if TRACED {
        let _a = trace::span(Span::Atomic);
        ctx.atomic(|tx| {
            let _b = trace::span(Span::Body);
            body(tx)
        })
    } else {
        ctx.atomic(body)
    };
    lat.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
    r
}

/// What one worker thread did in a round.
#[derive(Default)]
struct WorkerOut {
    lat: Vec<u32>,
    inserted: i64,
    removed: i64,
    pinned: bool,
}

fn worker<const TRACED: bool>(stm: &Stm, t: usize, data: &Data, ops: &Ops) -> WorkerOut {
    let mut out = WorkerOut {
        pinned: crate::pin::pin_to_nth_cpu(t),
        ..WorkerOut::default()
    };
    let ctx = stm.thread(t);
    match (data, ops) {
        (Data::Vacation(v), Ops::Vacation(ops)) => {
            out.lat.reserve_exact(ops.len());
            for op in ops {
                timed_txn::<TRACED, _>(&ctx, &mut out.lat, |tx| v.run_op(tx, op));
            }
        }
        (set, Ops::Set(ops)) => {
            let set = set.as_set().expect("set ops run on a set");
            out.lat.reserve_exact(ops.len());
            for op in ops {
                let changed = timed_txn::<TRACED, _>(&ctx, &mut out.lat, |tx| match op.kind {
                    OpKind::Insert => set.insert(tx, op.key),
                    OpKind::Remove => set.remove(tx, op.key),
                    OpKind::Contains => set.contains(tx, op.key),
                });
                match (op.kind, changed) {
                    (OpKind::Insert, true) => out.inserted += 1,
                    (OpKind::Remove, true) => out.removed += 1,
                    _ => {}
                }
            }
        }
        _ => unreachable!("op streams are generated for their own structure"),
    }
    drop(ctx);
    if TRACED {
        trace::flush();
    }
    out
}

/// Window-layer state read after a round.
struct WindowOut {
    error: Option<String>,
    windows: u64,
    frame_len_us: f64,
    contention: f64,
}

struct RoundOut {
    wall_s: f64,
    lat: Vec<u32>,
    snap: StatsSnapshot,
    inserted: i64,
    removed: i64,
    window: Option<WindowOut>,
    epoch_retired: u64,
    epoch_backlog: u64,
    /// Every worker ran pinned to its own CPU.
    pinned: bool,
}

fn round<const TRACED: bool>(spec: &StmSpec, s: &Setup, seed: u64, idx: u64) -> RoundOut {
    let (inner, wm): (Arc<dyn ContentionManager>, _) = match spec.cm {
        Cm::Greedy => (Arc::new(Greedy), None),
        Cm::OnlineDynamic { n } => {
            let cfg = WindowConfig::new(spec.threads, n).with_seed(mix(seed, 100 + idx));
            let wm = Arc::new(WindowManager::new(WindowVariant::OnlineDynamic, cfg));
            (wm.clone(), Some(wm))
        }
    };
    let cm = match (TRACED, spec.cm) {
        (true, _) => CmDispatch::Dyn(Arc::new(TimedCm::new(inner))),
        (false, Cm::Greedy) => CmDispatch::Greedy,
        (false, Cm::OnlineDynamic { .. }) => CmDispatch::Dyn(inner),
    };
    let stm = Stm::with_engine(cm, spec.threads, spec.engine);
    let retired0 = wtm_stm::epoch::retired_count();

    let t0 = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .ops
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let (stm, data) = (&stm, &s.data);
                scope.spawn(move || worker::<TRACED>(stm, t, data, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let window = wm.map(|wm| {
        wm.cancel();
        let per_thread =
            |f: &dyn Fn(usize) -> f64| (0..spec.threads).map(f).sum::<f64>() / spec.threads as f64;
        WindowOut {
            error: wm.window_error(),
            windows: (0..spec.threads).map(|t| wm.windows_completed(t)).sum(),
            frame_len_us: per_thread(&|t| {
                wm.current_run(t)
                    .map_or(0.0, |r| r.frame_len_ns() as f64 / 1e3)
            }),
            contention: per_thread(&|t| wm.contention_estimate(t)),
        }
    });
    let retired = wtm_stm::epoch::retired_count();
    let mut out = RoundOut {
        wall_s,
        lat: Vec::with_capacity(spec.budget),
        snap: stm.aggregate(),
        inserted: 0,
        removed: 0,
        window,
        epoch_retired: retired - retired0,
        epoch_backlog: retired.saturating_sub(wtm_stm::epoch::freed_count()),
        pinned: true,
    };
    for w in outs {
        out.lat.extend_from_slice(&w.lat);
        out.inserted += w.inserted;
        out.removed += w.removed;
        out.pinned &= w.pinned;
    }
    out
}

/// The IntSet output check: keys strictly ascending, and as many as
/// prepopulation plus committed successful inserts minus removes.
pub fn check_set(keys: &[i64], expected_len: i64) -> Result<(), String> {
    if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "set keys not strictly ascending: {} then {}",
            w[0], w[1]
        ));
    }
    if keys.len() as i64 != expected_len {
        return Err(format!(
            "set holds {} keys, the tally expects {expected_len}",
            keys.len()
        ));
    }
    Ok(())
}

/// Run a structural audit that reports violations by panicking.
fn audit(what: &str, f: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        format!("{what}: {msg}")
    })
}

/// All output checks after a round; `tally` is the expected key count of
/// an IntSet.
fn check_round(s: &Setup, r: &RoundOut, tally: i64) -> Result<(), String> {
    if let Some(WindowOut { error: Some(e), .. }) = &r.window {
        return Err(format!("window manager fell back to free mode: {e}"));
    }
    match &s.data {
        Data::Vacation(v) => audit("vacation consistency", || v.check_consistency()),
        Data::List(l) => check_set(&l.snapshot_keys(), tally),
        Data::RBTree(t) => {
            audit("rbtree invariants", || {
                t.map().check_invariants();
            })?;
            check_set(&t.snapshot_keys(), tally)
        }
    }
}

pub fn run(spec: &StmSpec, p: &Params) -> Result<Report, String> {
    if p.traced {
        run_mode::<true>(spec, p)
    } else {
        run_mode::<false>(spec, p)
    }
}

fn run_mode<const TRACED: bool>(spec: &StmSpec, p: &Params) -> Result<Report, String> {
    assert_eq!(spec.budget % spec.threads, 0, "budget splits evenly");
    if let Cm::OnlineDynamic { n } = spec.cm {
        assert_eq!(
            spec.per_thread() % n,
            0,
            "every round ends on a window boundary"
        );
    }
    let mut rep = Report::default();

    // Every round starts from a fresh set-up with the same seed, so every
    // round does the same work on the same data, and memory does not grow
    // with the number of rounds a run fits in. The set-ups made before the
    // first round only add samples to `setup_s`.
    let (mut prepopulate, mut opgen) = (Vec::new(), Vec::new());
    let mut fresh = || {
        let s = setup::<TRACED>(spec, p.seed);
        prepopulate.push(s.prepopulate_s);
        opgen.push(s.opgen_s);
        s
    };
    let (_, mut setup_times) = repeat_setup(|| Ok(fresh()))?;
    let mut run_round = |traced: bool, idx: u64, rep: &mut Report| {
        let t0 = Instant::now();
        let s = fresh();
        setup_times.push(t0.elapsed().as_secs_f64());
        let r = if traced {
            round::<true>(spec, &s, p.seed, idx)
        } else {
            round::<false>(spec, &s, p.seed, idx)
        };
        let tally = s.prepopulated + r.inserted - r.removed;
        rep.checked(r.snap.commits, check_round(&s, &r, tally));
        r
    };

    // One warm-up round, then rounds until the measured time is up. The
    // traced run alternates traced and untraced rounds.
    run_round(TRACED, 0, &mut rep);
    if TRACED {
        trace::take();
    }
    let mut traced_rounds = Vec::new();
    let mut plain_rounds = Vec::new();
    let t0 = Instant::now();
    let mut idx = 1;
    while t0.elapsed().as_secs_f64() < p.seconds
        || plain_rounds.is_empty()
        || (TRACED && traced_rounds.is_empty())
    {
        let traced = TRACED && idx % 2 == 1;
        let mut r = run_round(traced, idx, &mut rep);
        // Latencies are not kept past their round, for the same reason.
        let mut lat = std::mem::take(&mut r.lat);
        let p50 = quantile(&mut lat, 0.50);
        let p99 = quantile(&mut lat, 0.99);
        drop(lat);
        let row = (r, p50, p99);
        if traced {
            traced_rounds.push(row);
        } else {
            plain_rounds.push(row);
        }
        idx += 1;
    }
    rep.set("peak_rss_mb", peak_rss_mb()?);
    rep.set("setup_s", best(&setup_times, Better::Lower));
    rep.set("workloads.prepopulate_s", best(&prepopulate, Better::Lower));
    rep.set("workloads.opgen_s", best(&opgen, Better::Lower));

    // Medians, not best rounds: with two contending threads, interference
    // can also speed a round up. While one worker is held off its CPU the
    // other runs without conflicts: the best `list-hot` round of one run
    // reached 611k commits/s at a p50 of 2.3 us, while the best rounds of
    // four other runs stayed near 430k and 3.8 us.
    let cps = |rs: &[(RoundOut, f64, f64)]| {
        median(
            &rs.iter()
                .map(|(r, _, _)| r.snap.commits as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let us = |f: fn(&(RoundOut, f64, f64)) -> f64| {
        median(&plain_rounds.iter().map(|x| f(x) / 1e3).collect::<Vec<_>>())
    };
    rep.set("commits_per_s", cps(&plain_rounds));
    rep.set("op_p50_us", us(|x| x.1));
    rep.set("op_p99_us", us(|x| x.2));
    let all_pinned = plain_rounds
        .iter()
        .chain(&traced_rounds)
        .all(|x| x.0.pinned);
    rep.notes.push(format!(
        "rounds: {} measured x {} transactions ({} per thread, workers pinned: {all_pinned}); \
         op = one ThreadCtx::atomic call",
        plain_rounds.len() + traced_rounds.len(),
        spec.budget,
        spec.per_thread()
    ));
    if TRACED {
        let rounds: Vec<&RoundOut> = traced_rounds.iter().map(|x| &x.0).collect();
        layer_metrics(spec, &mut rep, &rounds, &trace::take());
        rep.set(
            "trace.overhead",
            cps(&plain_rounds) / cps(&traced_rounds) - 1.0,
        );
    }
    Ok(rep)
}

/// Per-layer metrics over the traced rounds.
fn layer_metrics(spec: &StmSpec, rep: &mut Report, rounds: &[&RoundOut], agg: &trace::Agg) {
    let mut snap = StatsSnapshot::default();
    for r in rounds {
        snap.merge(&r.snap);
    }
    let commits = snap.commits as f64;
    let busy_ns = spec.threads as f64 * rounds.iter().map(|r| r.wall_s).sum::<f64>() * 1e9;

    rep.set(
        "workloads.body_self_ns_p50",
        agg.of(Span::Body).2.quantile(0.5) as f64,
    );
    rep.set(
        "stm.atomic_self_ns_p50",
        agg.of(Span::Atomic).2.quantile(0.5) as f64,
    );
    rep.set("stm.aborts_per_commit", snap.aborts_per_commit());
    rep.set("stm.wasted_share", snap.wasted_work());
    rep.set("stm.opens_per_commit", ratio(snap.opens as f64, commits));
    rep.set(
        "stm.conflicts_ww_per_commit",
        ratio(snap.conflicts_ww as f64, commits),
    );
    rep.set(
        "stm.conflicts_rw_per_commit",
        ratio(snap.conflicts_rw as f64, commits),
    );
    rep.set(
        "stm.conflicts_wr_per_commit",
        ratio(snap.conflicts_wr as f64, commits),
    );
    rep.set(
        "stm.wait_share",
        ratio(
            snap.wait_ns as f64,
            (snap.committed_ns + snap.wasted_ns) as f64,
        ),
    );
    let retired: u64 = rounds.iter().map(|r| r.epoch_retired).sum();
    rep.set(
        "stm.epoch_retired_per_commit",
        ratio(retired as f64, commits),
    );
    rep.set(
        "stm.epoch_backlog",
        median(
            &rounds
                .iter()
                .map(|r| r.epoch_backlog as f64)
                .collect::<Vec<_>>(),
        ),
    );

    let (resolves, resolve_ns, resolve_hist) = agg.of(Span::Resolve);
    rep.set("cm.resolve_per_commit", ratio(resolves as f64, commits));
    rep.set("cm.resolve_self_ns_p50", resolve_hist.quantile(0.5) as f64);
    rep.set("cm.resolve_share", ratio(resolve_ns as f64, busy_ns));
    let verdicts = agg.verdicts.iter().sum::<u64>() as f64;
    rep.set(
        "cm.verdict_retry_share",
        ratio(agg.verdicts[0] as f64, verdicts),
    );
    rep.set(
        "cm.verdict_abort_self_share",
        ratio(agg.verdicts[1] as f64, verdicts),
    );
    rep.set(
        "cm.verdict_abort_enemy_share",
        ratio(agg.verdicts[2] as f64, verdicts),
    );

    let windowed: Vec<&WindowOut> = rounds.iter().filter_map(|r| r.window.as_ref()).collect();
    let (_, begin_ns, begin_hist) = agg.of(Span::OnBegin);
    let per_round =
        |f: &dyn Fn(&WindowOut) -> f64| median(&windowed.iter().map(|w| f(w)).collect::<Vec<_>>());
    let on_window = |v: f64| if windowed.is_empty() { 0.0 } else { v };
    rep.set(
        "window.on_begin_ns_p50",
        on_window(begin_hist.quantile(0.5) as f64),
    );
    rep.set(
        "window.on_begin_ns_p99",
        on_window(begin_hist.quantile(0.99) as f64),
    );
    rep.set(
        "window.begin_share",
        on_window(ratio(begin_ns as f64, busy_ns)),
    );
    rep.set("window.windows_completed", per_round(&|w| w.windows as f64));
    rep.set("window.frame_len_us", per_round(&|w| w.frame_len_us));
    rep.set("window.contention_estimate", per_round(&|w| w.contention));
    rep.set(
        "window.fallbacks",
        windowed.iter().filter(|w| w.error.is_some()).count() as f64,
    );

    for name in [
        "sim.scenario_build_s",
        "sim.sched_build_ns_p50",
        "sim.run_events_ns_p50",
        "sim.ns_per_step",
        "sim.makespan_steps",
        "sim.aborts_per_commit",
    ] {
        rep.set(name, 0.0);
    }

    // Every other span nests inside `stm.atomic`, so the layers' self
    // times sum to the time spent inside transactions.
    let layer_ns: u64 = [
        Span::Atomic,
        Span::Body,
        Span::Resolve,
        Span::OnBegin,
        Span::OnCommit,
        Span::OnAbort,
    ]
    .iter()
    .map(|&k| agg.of(k).1)
    .sum();
    let explained = ratio(layer_ns as f64, busy_ns);
    rep.set("attribution.explained_share", explained);
    rep.set("attribution.unexplained_share", 1.0 - explained);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_list() -> StmSpec {
        StmSpec {
            shape: Shape::Set {
                rbtree: false,
                key_range: 32,
                update_pct: 100,
            },
            engine: EngineKind::Eager,
            cm: Cm::Greedy,
            threads: 2,
            budget: 400,
        }
    }

    fn keys_of(s: &Setup) -> Vec<i64> {
        s.data.as_set().unwrap().snapshot_keys()
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let specs = [
            tiny_list(),
            StmSpec {
                shape: Shape::Vacation {
                    rows: 64,
                    update_pct: 20,
                },
                cm: Cm::OnlineDynamic { n: 10 },
                budget: 40,
                ..tiny_list()
            },
        ];
        for spec in specs {
            let streams = |seed| -> Vec<String> {
                setup::<false>(&spec, seed)
                    .ops
                    .iter()
                    .map(|o| match o {
                        Ops::Set(v) => format!("{v:?}"),
                        Ops::Vacation(v) => format!("{v:?}"),
                    })
                    .collect()
            };
            let a = streams(7);
            assert_eq!(a, streams(7));
            assert_ne!(a, streams(8));
            assert_ne!(a[0], a[1], "each thread has its own stream");
        }
    }

    #[test]
    fn rounds_keep_the_tally_and_pass_the_checks() {
        let spec = tiny_list();
        let s = setup::<false>(&spec, 3);
        assert_eq!(s.prepopulated, 16);
        let mut tally = s.prepopulated;
        for idx in 0..3 {
            let r = round::<false>(&spec, &s, 3, idx);
            assert_eq!(r.snap.commits, spec.budget as u64);
            assert_eq!(r.lat.len(), spec.budget);
            tally += r.inserted - r.removed;
            check_round(&s, &r, tally).unwrap();
        }
        assert_eq!(keys_of(&s).len() as i64, tally);
    }

    #[test]
    fn a_corrupted_tally_fails_the_check() {
        let spec = tiny_list();
        let s = setup::<false>(&spec, 5);
        let r = round::<false>(&spec, &s, 5, 0);
        let tally = s.prepopulated + r.inserted - r.removed;
        assert!(check_round(&s, &r, tally).is_ok());
        assert!(check_round(&s, &r, tally + 1).is_err());
        assert!(check_set(&[1, 3, 3], 3).is_err(), "duplicate keys fail");
        assert!(check_set(&[4, 2], 2).is_err(), "descending keys fail");
    }

    #[test]
    fn lazy_rbtree_and_window_vacation_rounds_pass_the_checks() {
        let rb = StmSpec {
            shape: Shape::Set {
                rbtree: true,
                key_range: 256,
                update_pct: 20,
            },
            engine: EngineKind::Lazy,
            ..tiny_list()
        };
        let s = setup::<false>(&rb, 1);
        let r = round::<false>(&rb, &s, 1, 0);
        check_round(&s, &r, s.prepopulated + r.inserted - r.removed).unwrap();

        let vac = StmSpec {
            shape: Shape::Vacation {
                rows: 64,
                update_pct: 20,
            },
            cm: Cm::OnlineDynamic { n: 10 },
            budget: 200,
            ..tiny_list()
        };
        let s = setup::<false>(&vac, 1);
        let r = round::<false>(&vac, &s, 1, 0);
        check_round(&s, &r, 0).unwrap();
        let w = r.window.as_ref().expect("window round reports its window");
        assert_eq!(w.windows, 20, "100 commits per thread in windows of 10");
    }
}
