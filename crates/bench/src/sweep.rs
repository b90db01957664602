//! Paired-interleaved thread-scaling sweeps and the `BENCH.json` ledger
//! they fill.
//!
//! On a shared host, run-to-run noise (±10–15%) is larger than many of
//! the effects being measured, so the two sides of a comparison are run
//! **interleaved as adjacent pairs** and each side reports the best
//! (minimum) of its runs, discarding one-sided scheduler noise.
//! [`run_paired_sweep`] drives a workload closure across a
//! `--thread-sweep 1,2,4,...` axis, interleaving every sweep point with a
//! fresh 1-thread baseline run (pair i = baseline run immediately followed
//! by the N-thread run, repeated `pairs` times), and reports per-op times
//! plus the `ratio_vs_1` scaling curve.
//!
//! Per-op times are per thread: a run reports its wall time over the ops
//! *each* thread completed, so a perfectly scaling bench keeps
//! `ratio_vs_1` at 1.0. With more threads than CPUs the floor becomes
//! `threads / cpus`.
//!
//! [`ledger_to_json`] renders the rows of every bench, each tagged with
//! its stack [`Layer`], as one document with a single environment block.

use std::collections::HashSet;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Parse a `--thread-sweep` axis: comma-separated, strictly increasing,
/// positive thread counts (`"1,2,4,8"`).
pub fn parse_sweep(s: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let n: usize = part
            .parse()
            .map_err(|_| format!("bad thread count {part:?} in sweep {s:?}"))?;
        if n == 0 {
            return Err(format!("thread count 0 in sweep {s:?}"));
        }
        if let Some(&last) = out.last() {
            if n <= last {
                return Err(format!("sweep {s:?} must be strictly increasing"));
            }
        }
        out.push(n);
    }
    if out.is_empty() {
        return Err(format!("empty sweep {s:?}"));
    }
    Ok(out)
}

/// Nanoseconds per op of one `(wall, ops)` run (NaN for an empty run).
fn ns_per_op((wall, ops): (Duration, u64)) -> f64 {
    if ops == 0 {
        f64::NAN
    } else {
        wall.as_nanos() as f64 / ops as f64
    }
}

/// Mean and minimum (best pair) of a cell's per-op times.
fn mean_min(ns: &[f64]) -> (f64, f64) {
    let mean = ns.iter().sum::<f64>() / ns.len().max(1) as f64;
    (mean, ns.iter().copied().fold(f64::INFINITY, f64::min))
}

/// The stack layer a ledger row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Primitives: epoch advance, version clock, reader-slot scan.
    L0,
    /// Engine operations: reads, writes, commit and abort, per engine.
    L1,
    /// Contention-manager and window hooks.
    L2,
    /// One workload transaction.
    L3,
}

/// One row of the scaling table: an (N-thread, 1-thread-baseline) pair of
/// cell summaries plus the derived scaling ratio.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub bench: String,
    pub layer: Layer,
    pub threads: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub baseline_mean_ns: f64,
    pub baseline_min_ns: f64,
    /// Per-op slowdown at N threads vs the interleaved 1-thread baseline
    /// (best-of-pairs on both sides): 1.0 = perfect per-op scaling,
    /// < 1.0 = per-op time *improved* with threads.
    pub ratio_vs_1: f64,
}

/// Run one bench across the sweep with paired-interleaved baselines.
///
/// `run` executes the workload at a given thread count and returns
/// `(wall, ops)` for one measured run, `ops` counted per thread; it is
/// called `pairs` times per sweep point, each call immediately preceded
/// by a 1-thread baseline call — the interleaving that makes the ratio
/// robust to host drift. A sweep point of 1 still runs distinct
/// baseline/measure calls so its ratio reflects pure pair noise (≈1.0).
pub fn run_paired_sweep(
    bench: &str,
    layer: Layer,
    sweep: &[usize],
    pairs: usize,
    mut run: impl FnMut(usize) -> (Duration, u64),
) -> Vec<ScalingRow> {
    let pairs = pairs.max(1);
    sweep
        .iter()
        .map(|&threads| {
            let (mut base, mut meas) = (Vec::new(), Vec::new());
            for _ in 0..pairs {
                base.push(ns_per_op(run(1)));
                meas.push(ns_per_op(run(threads)));
            }
            let (baseline_mean_ns, baseline_min_ns) = mean_min(&base);
            let (mean_ns, min_ns) = mean_min(&meas);
            ScalingRow {
                bench: bench.to_string(),
                layer,
                threads,
                mean_ns,
                min_ns,
                baseline_mean_ns,
                baseline_min_ns,
                ratio_vs_1: min_ns / baseline_min_ns,
            }
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_string()
    }
}

/// Render scaling rows as the `rows` array of `BENCH.json`.
pub fn rows_to_json(rows: &[ScalingRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"layer\": \"{:?}\", \"threads\": {}, \"mean_ns\": {}, \
             \"min_ns\": {}, \"baseline_mean_ns\": {}, \"baseline_min_ns\": {}, \
             \"ratio_vs_1\": {}}}{}\n",
            r.bench,
            r.layer,
            r.threads,
            json_f64(r.mean_ns),
            json_f64(r.min_ns),
            json_f64(r.baseline_mean_ns),
            json_f64(r.baseline_min_ns),
            json_f64(r.ratio_vs_1),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]");
    out
}

/// Where and when a ledger was captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// CPUs available to this process.
    pub cpus: usize,
    /// UTC capture date, `YYYY-MM-DD`.
    pub captured: String,
}

impl Environment {
    /// The running host, today.
    pub fn current() -> Environment {
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Environment {
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            captured: utc_date(secs),
        }
    }
}

/// `YYYY-MM-DD` of a Unix timestamp (proleptic Gregorian, UTC).
fn utc_date(unix_secs: u64) -> String {
    // Days-to-civil conversion over 400-year eras (H. Hinnant).
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Render the whole `BENCH.json` ledger. Fails if two rows share a
/// `(bench, threads)` key, which would make the ledger ambiguous.
pub fn ledger_to_json(
    env: &Environment,
    sweep: &[usize],
    pairs: usize,
    rows: &[ScalingRow],
) -> Result<String, String> {
    let mut keys = HashSet::new();
    for r in rows {
        if !keys.insert((r.bench.as_str(), r.threads)) {
            return Err(format!(
                "duplicate ledger row ({}, {} threads)",
                r.bench, r.threads
            ));
        }
    }
    let sweep_json = sweep
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    Ok(format!(
        "{{\n  \"description\": \"Microbenchmark ledger of the STM stack, one row per (bench, \
         threads). Layers: L0 primitives (epoch advance, lazy version clock, reader-slot scan), \
         L1 engine operations per engine (reads, writes, increment, commit, abort), L2 \
         contention-manager and window hooks, L3 one workload transaction (List under \
         Online-Dynamic). Every bench but read_shared, mixed and list_online_dynamic runs on \
         per-thread data, so a per-op slowdown at N threads is shared-metadata cost, not \
         workload conflict.\",\n  \
         \"methodology\": \"Paired-interleaved: every N-thread run is immediately preceded by \
         a fresh 1-thread baseline run of the same bench ({pairs} adjacent pairs per cell); each \
         side reports mean and best-of-pairs ns/op, and ratio_vs_1 = best-after / \
         best-baseline. See wtm_bench::sweep.\",\n  \
         \"environment\": {{\"cpus\": {cpus}, \"captured\": \"{captured}\"}},\n  \
         \"units\": \"ns per op per thread (mean over pairs; min_ns = fastest pair); \
         ratio_vs_1 = 1.0 is perfect scaling\",\n  \
         \"sweep\": [{sweep_json}],\n  \"pairs\": {pairs},\n  \"rows\": {rows_json}\n}}\n",
        cpus = env.cpus,
        captured = env.captured,
        rows_json = rows_to_json(rows),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_increasing_sweeps() {
        assert_eq!(parse_sweep("1,2,4,8").unwrap(), vec![1, 2, 4, 8]);
        assert_eq!(parse_sweep(" 1, 3 ").unwrap(), vec![1, 3]);
        assert_eq!(parse_sweep("2").unwrap(), vec![2]);
    }

    #[test]
    fn parse_rejects_bad_sweeps() {
        assert!(parse_sweep("").is_err());
        assert!(parse_sweep("0,1").is_err());
        assert!(parse_sweep("2,2").is_err());
        assert!(parse_sweep("4,2").is_err());
        assert!(parse_sweep("1,x").is_err());
    }

    #[test]
    fn per_op_mean_and_min() {
        assert!((ns_per_op((Duration::from_nanos(1_000), 10)) - 100.0).abs() < 1e-9);
        assert!(ns_per_op((Duration::from_nanos(5), 0)).is_nan());
        assert_eq!(mean_min(&[10.0, 30.0, 20.0]), (20.0, 10.0));
    }

    #[test]
    fn paired_sweep_interleaves_baseline_and_measure() {
        // Record the exact call sequence: for each sweep point, `pairs`
        // adjacent (baseline, N) pairs.
        let mut calls = Vec::new();
        let rows = run_paired_sweep("t", Layer::L1, &[1, 4], 2, |threads| {
            calls.push(threads);
            (Duration::from_nanos(100 * threads as u64), 1)
        });
        assert_eq!(calls, vec![1, 1, 1, 1, 1, 4, 1, 4]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert!((rows[0].ratio_vs_1 - 1.0).abs() < 1e-9);
        assert_eq!(rows[1].threads, 4);
        assert!((rows[1].ratio_vs_1 - 4.0).abs() < 1e-9, "{rows:?}");
    }

    #[test]
    fn rows_render_as_json_array() {
        let rows = run_paired_sweep("r", Layer::L2, &[1], 1, |_| (Duration::from_nanos(50), 1));
        let json = rows_to_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"bench\": \"r\", \"layer\": \"L2\", \"threads\": 1,"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn ledger_has_one_environment_block_layers_and_unique_keys() {
        let run = |_| (Duration::from_nanos(50), 1);
        let mut rows = run_paired_sweep("a", Layer::L0, &[1, 2], 1, run);
        rows.extend(run_paired_sweep("b", Layer::L3, &[1, 2], 1, run));
        let env = Environment {
            cpus: 2,
            captured: "2026-01-02".into(),
        };
        let doc = ledger_to_json(&env, &[1, 2], 1, &rows).unwrap();
        assert_eq!(
            doc.matches("\"environment\": {\"cpus\": 2, \"captured\": \"2026-01-02\"}")
                .count(),
            1
        );
        assert!(doc.contains("\"sweep\": [1, 2]"));
        for (bench, layer) in [("a", "L0"), ("b", "L3")] {
            for threads in [1, 2] {
                let key = format!(
                    "\"bench\": \"{bench}\", \"layer\": \"{layer}\", \"threads\": {threads},"
                );
                assert_eq!(doc.matches(&key).count(), 1, "{key}");
            }
        }
        assert_eq!(doc.matches("\"layer\": ").count(), rows.len());

        rows.push(rows[0].clone());
        let err = ledger_to_json(&env, &[1, 2], 1, &rows).unwrap_err();
        assert!(err.contains("duplicate ledger row (a, 1 threads)"), "{err}");
    }

    #[test]
    fn utc_dates() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_700_000_000), "2023-11-14");
        assert_eq!(utc_date(1_792_300_000), "2026-10-18");
    }
}
