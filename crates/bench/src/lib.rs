//! # wtm-bench — the microbenchmark ledger of the STM stack
//!
//! One probe, `examples/scaling_probe.rs`, times every microbenchmark
//! through [`sweep::run_paired_sweep`] and writes the `BENCH.json` ledger:
//! L0 primitives, L1 engine operations, L2 contention-manager and window
//! hooks, and L3 one workload transaction, each across a thread sweep.
//!
//! ```text
//! cargo run --release -p wtm-bench --example scaling_probe -- \
//!     --thread-sweep 1,2 --pairs 5 --out BENCH.json
//! ```
//!
//! Paper figures come from the `windowtm` CLI, end-to-end numbers from
//! `perfbench/`.

pub mod sweep;
