//! End-to-end and per-layer benchmark of this repository.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, prints context
//! lines, and ends with one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `NOTES.md`
//! for why each workload exists and which layer each metric measures.

mod json;
mod pin;
mod report;
mod sim_bench;
mod stm_bench;
mod timed_cm;
mod trace;

use std::process::ExitCode;

use wtm_stm::EngineKind;

use crate::report::Report;
use crate::stm_bench::{Cm, Shape, StmSpec};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "list-hot",
    "vacation-window",
    "rbtree-lazy-read",
    "sim-sweep",
];

/// Worker threads of the STM workloads.
const THREADS: usize = 2;

/// A process sets up at least this many times and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the fastest set-up. Some set-ups take
/// under a millisecond, so a few of them alone would be a noisy sample.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_S: f64 = 0.25;

/// Run `build` repeatedly, dropping each result before the next build;
/// return the last result and the time of every build.
pub fn repeat_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    let t0 = std::time::Instant::now();
    while times.len() < SETUP_MIN_REPS || t0.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The STM workload named `name`.
fn stm_spec(name: &str) -> Option<StmSpec> {
    let spec = match name {
        "list-hot" => StmSpec {
            shape: Shape::Set {
                rbtree: false,
                key_range: 64,
                update_pct: 100,
            },
            engine: EngineKind::Eager,
            cm: Cm::Greedy,
            threads: THREADS,
            budget: 100_000,
        },
        "vacation-window" => StmSpec {
            shape: Shape::Vacation {
                rows: 4096,
                update_pct: 20,
            },
            engine: EngineKind::Eager,
            cm: Cm::OnlineDynamic { n: 50 },
            threads: THREADS,
            budget: 20_000,
        },
        "rbtree-lazy-read" => StmSpec {
            shape: Shape::Set {
                rbtree: true,
                key_range: 16_384,
                update_pct: 20,
            },
            engine: EngineKind::Lazy,
            cm: Cm::Greedy,
            threads: THREADS,
            budget: 100_000,
        },
        _ => return None,
    };
    Some(spec)
}

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A well-mixed sub-seed of `seed` for purpose `tag` (splitmix64).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An untraced run measures in this many processes, one after another,
/// each for an equal share of the run's seconds, and combines their
/// figures (see [`combine`]). The speed a process gets varies with more
/// than time: with identical inputs, two of six consecutive 5 s processes
/// ran 20-40% slower than the other four in every metric, set-up included.
const PROCESSES: usize = 4;

struct Args {
    workload: String,
    params: Params,
    /// Set in the processes an untraced run is split into.
    part: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut part = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad("must be within 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--part" => part = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            traced: traced.unwrap_or(false),
        },
        part,
    })
}

/// Run the untraced measurement in [`PROCESSES`] processes and merge
/// them: operations and failures add up, and each metric takes the best
/// value any process reported.
fn run_parts(args: &Args) -> Result<Report, String> {
    let p = &args.params;
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut merged = Report::default();
    let mut figures: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for i in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &(p.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", "0", "--part", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting process {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("process {i} failed ({}): {stdout}", out.status));
        }
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().ok_or(format!("process {i} printed nothing"))?;
        let res = json::parse(last).map_err(|e| format!("process {i} result: {e}"))?;
        let count = |k| match res.get(k) {
            Some(json::Json::Num(n)) => Ok(*n as u64),
            other => Err(format!("process {i} result field {k}: {other:?}")),
        };
        merged.attempted += count("attempted")?;
        merged.failed += count("failed")?;
        for (name, _) in report::END_TO_END {
            let Some(json::Json::Num(v)) = res
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
            else {
                return Err(format!("process {i} did not report {name}"));
            };
            figures.entry(*name).or_default().push(*v);
        }
        merged
            .notes
            .extend(lines.iter().map(|l| format!("process {i}: {l}")));
    }
    for (name, v) in figures {
        merged.set(name, combine(&args.workload, name, &v));
    }
    merged.finish(false)?;
    Ok(merged)
}

/// How a process combines its rounds, and a run its processes: the
/// median on the STM workloads, where interference can speed a round up
/// as well as slow it down, and the best on `sim-sweep` and for set-up
/// time, single-threaded work that interference only slows.
fn combine(workload: &str, name: &str, v: &[f64]) -> f64 {
    if name == "setup_s" || stm_spec(workload).is_none() {
        report::best(v, report::better(name))
    } else {
        report::median(v)
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let p = &args.params;
    if !p.traced && !args.part {
        return run_parts(args);
    }
    let mut rep = match stm_spec(&args.workload) {
        Some(spec) => stm_bench::run(&spec, p)?,
        None => sim_bench::run(p)?,
    };
    if p.traced {
        trace::flush();
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let path = exe.with_file_name(format!("perfbench-trace-{}.jsonl", args.workload));
        trace::write_recent(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        rep.notes.push(format!("recent spans: {}", path.display()));
    }
    rep.finish(p.traced)?;
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let p = &args.params;
    println!(
        "workload {} seed {} seconds {} trace {} threads {} (available parallelism {})",
        args.workload,
        p.seed,
        p.seconds,
        u8::from(p.traced),
        if args.workload == "sim-sweep" {
            1
        } else {
            THREADS
        },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &rep.notes {
        println!("{note}");
    }
    for (name, value) in &rep.metrics {
        println!("{name:<34} {value}");
    }
    println!(
        "failed_share {} ({} of {} operations)",
        report::ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    );
    for f in &rep.failures {
        println!("check failed: {f}");
    }
    println!("{}", rep.result_line(p.traced));
    ExitCode::SUCCESS
}
