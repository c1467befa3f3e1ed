//! `aq2pnn-benchmark`: the repository's end-to-end benchmark.
//!
//! ```sh
//! benchmark/run.sh --workload lenet5.b1.c1 --seed 1 --seconds 10 --trace 0
//! benchmark/run.sh --seed 1              # all five workloads → out/result-1.json
//! benchmark/run.sh --seed 1 --trace 1    # the per-layer ledger + Chrome traces
//! benchmark/run.sh probe --seed 1        # the outside-in layer probes alone
//! benchmark/run.sh compare A.json B.json
//! ```
//!
//! A run spawns a provider process, drives it over loopback TCP through
//! `aq2pnn_server::run_client`, checks every session's logits and prints
//! one line per metric, then one JSON object as the last line.

mod compare;
mod load;
mod models;
mod probe;
mod provider;
mod report;
mod stats;
mod trace;

use load::{Workload, WORKLOADS};
use std::time::Duration;

/// Flags of a measuring run.
pub struct RunArgs {
    /// `None`: every workload, one after the other.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where result files, Chrome traces and provider stderr go, relative to
/// the repository root `run.sh` changes into. Git-ignored.
pub const OUT_DIR: &str = "benchmark/out";

impl RunArgs {
    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Warm-up before the window, discarded: 15 % of it (3 s for the 20 s
    /// window the workloads were sized on). Covers first-touch effects; an
    /// untraced first pass measured 2.5× slower than the second.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.15)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      run.sh probe [--seed N]\n\
         \x20      run.sh compare BASE.json NEW.json\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut run = RunArgs { workload: None, seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                run.workload = Some(Workload::find(value).unwrap_or_else(|| usage()));
            }
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                run.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    run
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("provider") => provider::provider_main(&args[1..]),
        Some("probe") => report::probe_main(&parse_run(&args[1..])),
        Some("compare") => match &args[1..] {
            [base, new] => compare::compare_main(base, new),
            _ => usage(),
        },
        _ => report::run_main(&parse_run(&args)),
    };
    std::process::exit(code);
}
