//! `fcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one FedCross workload and prints human-readable lines followed, as
//! the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exits 1 when an output check fails and 2 on a usage error.

use fcbench::workloads;
use std::process::Command;

/// glibc allocator settings every measured process runs under: at most two
/// malloc arenas and a fixed mmap threshold, so blocks of 128 KiB and more
/// are mapped and unmapped with their owner instead of lingering in
/// per-thread arenas. Without them the peak resident set of one workload
/// varies by a fifth from run to run with thread scheduling.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_ARENA_MAX", "2"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
];

/// Re-runs this binary under [`MALLOC_ENV`] unless it already is, waits for
/// it and exits with its status.
fn ensure_malloc_env() {
    if MALLOC_ENV
        .iter()
        .all(|(key, value)| std::env::var(key).is_ok_and(|v| v == *value))
    {
        return;
    }
    let exe =
        std::env::current_exe().unwrap_or_else(|e| usage(&format!("cannot find itself: {e}")));
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .status()
        .unwrap_or_else(|e| usage(&format!("cannot re-run itself: {e}")));
    std::process::exit(status.code().unwrap_or(1));
}

fn usage(message: &str) -> ! {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    eprintln!("fcbench: {message}");
    eprintln!(
        "usage: fcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v),
        None => usage(&format!("{flag} needs a value")),
    }
}

fn main() {
    ensure_malloc_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = value(&args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        workloads::by_name(name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
    let seed: u64 = value(&args, "--seed")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage("--seed must be an integer"))
        })
        .unwrap_or(0);
    let seconds: f64 = value(&args, "--seconds")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage("--seconds must be a number"))
        })
        .unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage("--seconds must lie in (0, 120]");
    }
    let trace = match value(&args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };

    let report = if trace {
        fcbench::traced_run(&workload, seed, seconds)
    } else {
        fcbench::untraced_run(&workload, seed, seconds)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
