//! End-to-end and per-layer benchmark of the ftmpi simulator.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 0 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics with no
//! spans recorded; with `--trace 1` it runs the traced pass instead, which
//! times calls into each layer's public functions from this crate and
//! writes the spans as Chrome trace-event JSON. The last line of standard
//! output is one JSON object with the run's verdict and metrics.

pub mod layers;
pub mod oracle;
pub mod spans;
pub mod stats;
pub mod workloads;
