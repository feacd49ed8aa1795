//! Schedule-invariance sanitizer: proves every shipped algorithm's
//! trajectory is a pure function of the construction seeds.
//!
//! For each [`SweptAlgorithm::shipped`] entry (the registered specs plus the
//! DP, compression and secure-aggregation algorithms) this runs a short synthetic
//! federation and fingerprints the full trajectory (per-round metric bits,
//! communication counters, final global model bits), then re-runs it at
//! rayon thread counts 1/2/4 and under deterministically permuted upload
//! arrival orders. Any fingerprint that differs from the canonical run is a
//! determinism bug — a racing kernel or an arrival-order-dependent
//! aggregation path — and the binary exits non-zero.
//!
//! ```text
//! cargo run --release -p fedcross-bench --bin determinism_check
//! ```
//!
//! This is the runtime half of the determinism lint plane; the static half
//! is `fedcross-lint` (see docs/LINTS.md).

use fedcross_bench::determinism::{sweep_spec, SweptAlgorithm};
use std::process::ExitCode;

const THREADS: [usize; 3] = [1, 2, 4];
const SHUFFLE_SEEDS: [u64; 2] = [3, 17];

fn main() -> ExitCode {
    println!("schedule-invariance sanitizer");
    println!(
        "threads {:?}, upload-shuffle seeds {:?}\n",
        THREADS, SHUFFLE_SEEDS
    );

    let mut failures = 0usize;
    for algorithm in SweptAlgorithm::shipped() {
        let outcome = sweep_spec(algorithm, &THREADS, &SHUFFLE_SEEDS);
        let verdict = if outcome.invariant() { "ok" } else { "FAIL" };
        println!(
            "{:>18}  canonical {:016x}  {}",
            outcome.label, outcome.canonical, verdict
        );
        if !outcome.invariant() {
            failures += 1;
            for (variant, fp) in &outcome.variants {
                if *fp != outcome.canonical {
                    println!("{:>18}  {:>24} -> {:016x}", "", variant, fp);
                }
            }
        }
    }

    if failures == 0 {
        println!("\nall shipped algorithms are schedule-invariant");
        ExitCode::SUCCESS
    } else {
        println!(
            "\n{failures} algorithm(s) produced schedule-dependent trajectories"
        );
        ExitCode::FAILURE
    }
}
