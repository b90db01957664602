//! The microbenchmark probe behind `BENCH.json`.
//!
//! Times every microbenchmark of the STM stack across a `--thread-sweep`
//! axis with the paired-interleaved methodology of `wtm_bench::sweep` and
//! writes one ledger row per (bench, threads): L0 primitives, L1 engine
//! operations per engine, L2 CM and window hooks, L3 one workload
//! transaction (see `main` for the rows).
//!
//! ```text
//! cargo run --release -p wtm-bench --example scaling_probe -- \
//!     --thread-sweep 1,2 --pairs 5 --out BENCH.json
//! ```
//!
//! Flags: `--thread-sweep LIST` (default `1,2,4`), `--pairs N` (default
//! 5), `--quick` (CI smoke scale), `--out PATH` (default stdout). Build
//! with `--features wtm-stm/trace` to compile the trace emit sites in,
//! and set `WTM_TRACE=1` to also record events while timing.
//!
//! The probe uses only public engine API, so this file plus
//! `src/sweep.rs` can be copied into a tree pinned at an older commit to
//! capture before/after pairs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wtm_bench::sweep::{self, Layer, ScalingRow};
use wtm_stm::{
    clockns, CmDispatch, ConflictKind, ContentionManager, EngineKind, Stm, TVar, ThreadCtx, TxState,
};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};
use wtm_workloads::{OpKind, SetOpGenerator, TxIntSet, TxList};

fn state_on(thread: usize, attempt_id: u64) -> Arc<TxState> {
    Arc::new(TxState::new(
        attempt_id,
        attempt_id,
        thread,
        0,
        attempt_id,
        attempt_id,
        clockns::now(),
        0,
    ))
}

/// Run `body(state, i)` `per_thread` times on each of `threads` workers
/// and return the wall time of the measured phase with the per-thread op
/// count. Each worker first builds its own state with `setup(t)` and runs
/// `per_thread / 10` warm-up calls; thread start-up, setup and warm-up
/// stay outside the clock behind a barrier. The workers read the clock
/// themselves: the wall runs from the first start to the last finish.
fn run_threads<S>(
    threads: usize,
    per_thread: u64,
    setup: impl Fn(usize) -> S + Sync,
    body: impl Fn(&mut S, u64) + Sync,
) -> (Duration, u64) {
    let barrier = Barrier::new(threads);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, setup, body) = (&barrier, &setup, &body);
                s.spawn(move || {
                    let mut state = setup(t);
                    for i in 0..per_thread / 10 {
                        body(&mut state, i);
                    }
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..per_thread {
                        body(&mut state, i);
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("bench worker panicked"))
            .collect()
    });
    let start = spans.iter().map(|s| s.0).min().unwrap();
    let end = spans.iter().map(|s| s.1).max().unwrap();
    (end - start, per_thread)
}

/// Transactions `body(ctx, own, i)` on a fresh `engine` STM, where `own`
/// is the worker's private set of `objects` values starting at `init`.
fn run_txns<T: Clone + Send + Sync + 'static>(
    engine: EngineKind,
    threads: usize,
    per_thread: u64,
    (objects, init): (usize, T),
    body: impl Fn(&ThreadCtx<'_>, &[TVar<T>], u64) + Sync,
) -> (Duration, u64) {
    let stm = Stm::with_engine(CmDispatch::AbortSelf, threads, engine);
    run_threads(
        threads,
        per_thread,
        |t| {
            let own: Vec<_> = (0..objects).map(|_| TVar::new(init.clone())).collect();
            (stm.thread(t), own)
        },
        |(ctx, own), i| body(ctx, own, i),
    )
}

/// A read-only transaction summing `vars`.
fn sum(ctx: &ThreadCtx<'_>, vars: &[TVar<u64>]) -> u64 {
    ctx.atomic(|tx| {
        let mut sum = 0u64;
        for v in vars {
            sum += *tx.read(v)?;
        }
        Ok(sum)
    })
}

/// Blind writes of `i` into every object of `vars`.
fn write_all<T: Clone + Send + Sync + 'static>(ctx: &ThreadCtx<'_>, vars: &[TVar<T>], i: T) {
    ctx.atomic(|tx| {
        for v in vars {
            tx.write(v, i.clone())?;
        }
        Ok(())
    })
}

/// Read-modify-write of one object.
fn increment(ctx: &ThreadCtx<'_>, tv: &TVar<u64>) {
    ctx.atomic(|tx| {
        let v = *tx.read(tv)?;
        tx.write(tv, v + 1)
    })
}

/// A write attempt that aborts itself: the abort bookkeeping and, on the
/// eager engine, the locator restore.
fn abort_restore(ctx: &ThreadCtx<'_>, tv: &TVar<u64>) {
    let out: Option<()> = ctx.atomic_with_budget(1, &mut |tx| {
        tx.write(tv, 99)?;
        Err(tx.abort_self())
    });
    std::hint::black_box(out);
}

/// Eight reads of `shared` plus one write to the worker's own object.
fn mixed(ctx: &ThreadCtx<'_>, shared: &[TVar<u64>], own: &TVar<u64>) {
    ctx.atomic(|tx| {
        let mut sum = 0u64;
        for v in shared {
            sum += *tx.read(v)?;
        }
        tx.write(own, sum)
    })
}

/// `epoch::try_advance` from threads that each hold a registered but
/// unpinned epoch slot: the advance scan over the slot registry.
fn run_try_advance(threads: usize, per_thread: u64) -> (Duration, u64) {
    run_threads(
        threads,
        per_thread,
        // Register this thread's (sticky) slot, then leave it unpinned
        // so the advance is never blocked.
        |_| drop(wtm_stm::epoch::pin()),
        |_, _| {
            std::hint::black_box(wtm_stm::epoch::try_advance());
        },
    )
}

/// One window-CM conflict resolution against a cached frame clock, with
/// all N threads driving one shared manager: a begun high-priority
/// transaction against a far-future low-priority enemy.
fn run_resolve(variant: WindowVariant, threads: usize, per_thread: u64) -> (Duration, u64) {
    let cfg = WindowConfig::new(threads, 1024).with_fixed_tau(Duration::from_micros(10));
    let wm = WindowManager::new(variant, cfg);
    let ids = AtomicU64::new(1);
    let out = run_threads(
        threads,
        per_thread,
        |t| {
            let me = state_on(t, ids.fetch_add(1, Ordering::Relaxed));
            // The one window-boundary crossing; the loop is steady state.
            wm.on_begin(&me, false);
            let enemy = state_on(t, ids.fetch_add(1, Ordering::Relaxed));
            enemy.set_assigned_frame(1 << 40);
            enemy.set_rank(1);
            (me, enemy)
        },
        |(me, enemy), _| {
            std::hint::black_box(wm.resolve(
                std::hint::black_box(me),
                std::hint::black_box(enemy),
                ConflictKind::WriteWrite,
            ));
        },
    );
    wm.cancel();
    out
}

/// The mid-window `on_begin` → commit → `on_commit` cycle. The window is
/// wider than any thread's call count, so its single boundary lands in
/// the warm-up: what is timed is the per-transaction hook cost.
fn run_hooks_commit_loop(threads: usize, per_thread: u64) -> (Duration, u64) {
    let n = 2 * per_thread as usize;
    let cfg = WindowConfig::new(threads, n).with_fixed_tau(Duration::from_micros(10));
    let wm = WindowManager::new(WindowVariant::OnlineDynamic, cfg);
    let out = run_threads(
        threads,
        per_thread,
        |t| t,
        |t, i| {
            let tx = state_on(*t, ((*t as u64) << 40) + i + 1);
            wm.on_begin(&tx, false);
            tx.try_commit();
            wm.on_commit(&tx);
        },
    );
    wm.cancel();
    out
}

/// The window `on_abort` hook (contention-estimate update) under the
/// adaptive-improved manager.
fn run_abort_hook(threads: usize, per_thread: u64) -> (Duration, u64) {
    let cfg = WindowConfig::new(threads, 1024).with_fixed_tau(Duration::from_micros(10));
    let wm = WindowManager::new(WindowVariant::AdaptiveImprovedDynamic, cfg);
    let out = run_threads(
        threads,
        per_thread,
        |t| {
            let tx = state_on(t, t as u64 + 1);
            wm.on_begin(&tx, false);
            tx
        },
        |tx, _| wm.on_abort(std::hint::black_box(tx)),
    );
    wm.cancel();
    out
}

/// A Fig. 5 cell: Online-Dynamic (N = 16) on the List with every thread
/// updating the same 64-key range, until `budget` transactions commit in
/// total. Reported per thread, like every other row.
fn run_list_online_dynamic(threads: usize, budget: u64) -> (Duration, u64) {
    const KEYS: i64 = 64;
    let wm = Arc::new(WindowManager::new(
        WindowVariant::OnlineDynamic,
        WindowConfig::new(threads, 16),
    ));
    let stm = Stm::new(wm.clone(), threads);
    let list = TxList::new();
    {
        let boot = Stm::with_dispatch(CmDispatch::AbortSelf, 1);
        let ctx = boot.thread(0);
        for k in (0..KEYS).step_by(2) {
            ctx.atomic(|tx| list.insert(tx, k).map(|_| ()));
        }
    }
    let remaining = AtomicI64::new(budget as i64);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (ctx, list, remaining, wm) = (stm.thread(t), &list, &remaining, &wm);
            s.spawn(move || {
                let mut gen = SetOpGenerator::new(7, t, KEYS, 100);
                while remaining.fetch_sub(1, Ordering::Relaxed) > 0 {
                    let op = gen.next_op();
                    ctx.atomic(|tx| match op.kind {
                        OpKind::Insert => list.insert(tx, op.key).map(|_| ()),
                        OpKind::Remove => list.remove(tx, op.key).map(|_| ()),
                        OpKind::Contains => list.contains(tx, op.key).map(|_| ()),
                    });
                }
                // Release window barriers the finished thread no longer joins.
                wm.cancel();
            });
        }
    });
    (t0.elapsed(), budget / threads as u64)
}

fn main() {
    let mut sweep_axis = vec![1, 2, 4];
    let mut pairs = 5usize;
    let mut out: Option<String> = None;
    let mut quick = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--thread-sweep" => {
                let v = args.next().expect("--thread-sweep needs a value");
                sweep_axis = sweep::parse_sweep(&v).unwrap_or_else(|e| panic!("{e}"));
            }
            "--pairs" => {
                pairs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pairs needs a positive integer");
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--quick" => quick = true,
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    if std::env::var("WTM_TRACE").is_ok_and(|v| v == "1") {
        wtm_trace::set_enabled(true);
    }

    // Per-thread calls per run; heavier bodies scale it down.
    let unit: u64 = if quick { 10_000 } else { 100_000 };
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut row = |bench: &str, layer: Layer, run: &mut dyn FnMut(usize) -> (Duration, u64)| {
        eprintln!("[scaling_probe] {bench}");
        rows.extend(sweep::run_paired_sweep(
            bench,
            layer,
            &sweep_axis,
            pairs,
            run,
        ));
    };

    // Every TVar carries a fast-path reader slot for each worker of the
    // widest sweep point, whichever row creates it.
    wtm_stm::reserve_reader_slots(*sweep_axis.last().unwrap());
    let shared = || -> Vec<TVar<u64>> { (0..8).map(TVar::new).collect() };

    row("try_advance", Layer::L0, &mut |n| {
        run_try_advance(n, 5 * unit)
    });
    // The lazy single blind write: the version-clock discipline alone.
    row("lazy_commit_clock", Layer::L0, &mut |n| {
        run_txns(EngineKind::Lazy, n, unit, (1, 0), write_all)
    });
    for engine in EngineKind::ALL {
        let e = engine.name();
        for reads in [1, 8, 64] {
            row(&format!("read_only/{e}/{reads}"), Layer::L1, &mut |n| {
                let iters = 2 * unit / reads.min(8) as u64;
                run_txns(engine, n, iters, (reads, 0), |ctx, own, _| {
                    std::hint::black_box(sum(ctx, own));
                })
            });
        }
        row(&format!("read_shared/{e}/8"), Layer::L1, &mut |n| {
            let shared = shared();
            run_txns(engine, n, unit / 4, (0, 0), |ctx, _, _| {
                std::hint::black_box(sum(ctx, &shared));
            })
        });
        for writes in [1, 8, 32] {
            // The lazy single blind write is the `lazy_commit_clock` row.
            if engine == EngineKind::Lazy && writes == 1 {
                continue;
            }
            row(&format!("write_only/{e}/{writes}"), Layer::L1, &mut |n| {
                let iters = unit / writes.min(8) as u64;
                run_txns(engine, n, iters, (writes, 0), write_all)
            });
        }
        row(&format!("increment/{e}"), Layer::L1, &mut |n| {
            run_txns(engine, n, unit, (1, 0), |ctx, own, _| {
                increment(ctx, &own[0])
            })
        });
        row(&format!("mixed/{e}"), Layer::L1, &mut |n| {
            let shared = shared();
            run_txns(engine, n, unit / 4, (1, 0), |ctx, own, _| {
                mixed(ctx, &shared, &own[0])
            })
        });
        // A 64-byte value spills out of the inline write-set entry.
        row(&format!("commit_large/{e}"), Layer::L1, &mut |n| {
            run_txns(engine, n, unit, (1, [0u64; 8]), |ctx, own, i| {
                write_all(ctx, own, [i; 8])
            })
        });
        row(&format!("abort_restore/{e}"), Layer::L1, &mut |n| {
            run_txns(engine, n, unit, (1, 7), |ctx, own, _| {
                abort_restore(ctx, &own[0])
            })
        });
    }
    row("resolve_static", Layer::L2, &mut |n| {
        run_resolve(WindowVariant::Online, n, 5 * unit)
    });
    row("resolve_dynamic", Layer::L2, &mut |n| {
        run_resolve(WindowVariant::OnlineDynamic, n, 5 * unit)
    });
    row("hooks_commit_loop", Layer::L2, &mut |n| {
        run_hooks_commit_loop(n, unit)
    });
    row("abort_hook", Layer::L2, &mut |n| {
        run_abort_hook(n, 5 * unit)
    });
    row("list_online_dynamic", Layer::L3, &mut |n| {
        run_list_online_dynamic(n, unit / 5)
    });
    // Must stay last: `reserve_reader_slots` is sticky for the process,
    // so every TVar created after it carries a 256-entry slot table.
    row("conflicting_reader", Layer::L0, &mut |n| {
        wtm_stm::reserve_reader_slots(256);
        run_txns(EngineKind::Eager, n, unit, (1, 0), |ctx, own, _| {
            increment(ctx, &own[0])
        })
    });

    let doc = sweep::ledger_to_json(&sweep::Environment::current(), &sweep_axis, pairs, &rows)
        .unwrap_or_else(|e| panic!("{e}"));
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}
