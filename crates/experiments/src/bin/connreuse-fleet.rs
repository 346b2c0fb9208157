//! `connreuse-fleet` — multi-page user sessions over the connection-pool
//! lifecycle: the warm-vs-cold redundancy tax per deployment and pool policy.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- \
//!     --sites 4000 --sessions 800 --seed 7 --threads 8 --out results/fleet.txt
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- \
//!     --quick --check-threads 1,2
//! ```

use connreuse_experiments::cli::{
    check_thread_invariance, options_or_exit, parse_check_threads, parse_value, write_or_exit,
};
use connreuse_experiments::fleet::{run_fleet, FleetConfig};
use std::path::PathBuf;

struct CliOptions {
    config: FleetConfig,
    out: Option<PathBuf>,
    check_threads: Vec<usize>,
    help: bool,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut config = FleetConfig::default();
    let mut out = None;
    let mut check_threads = Vec::new();
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => config.sites = parse_value(&mut args, &arg)?,
            "--sessions" => config.sessions = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--quick" => {
                let quick = FleetConfig::quick();
                config.sites = quick.sites;
                config.sessions = quick.sessions;
            }
            "--check-threads" => check_threads = parse_check_threads(&mut args)?,
            "--out" => {
                let value = args.next().ok_or("--out requires a file path")?;
                out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(CliOptions { config, out, check_threads, help })
}

fn print_usage() {
    println!("connreuse-fleet — user sessions over the connection-pool lifecycle");
    println!();
    println!("usage: connreuse-fleet [options]");
    println!();
    println!("options:");
    println!("  --sites N            sites per cell population (default 1500)");
    println!("  --sessions N         user sessions per cell (default sites/5)");
    println!("  --seed N             root seed shared by every cell (default 20210420)");
    println!("  --threads N          worker threads the cells shard across");
    println!("  --quick              use the small test-sized run (60 sites, 40 sessions)");
    println!("  --check-threads A,B  run at each thread count and assert byte-identical reports");
    println!("  --out FILE           also write the report to FILE");
    println!();
    println!("exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments");
}

fn main() {
    let options = options_or_exit(parse_args(), print_usage);
    if options.help {
        print_usage();
        return;
    }

    // Determinism check: the same fleet sharded over different thread counts
    // must render byte-identically (the shard-merge contract).
    if !options.check_threads.is_empty() {
        let text = check_thread_invariance("fleet", &options.check_threads, |threads| {
            run_fleet(&FleetConfig { threads, ..options.config }).render()
        });
        println!("{text}");
        return;
    }

    eprintln!(
        "driving {} sessions per cell over {} sites: seed={} threads={}",
        options.config.sessions, options.config.sites, options.config.seed, options.config.threads
    );
    let start = std::time::Instant::now();
    let report = run_fleet(&options.config);
    eprintln!("fleet done in {:.1}s", start.elapsed().as_secs_f64());

    let text = report.render();
    println!("{text}");
    if let Some(path) = &options.out {
        write_or_exit(path, &text);
    }
}
