//! `connreuse-sweep` — run the 2^4 mitigation what-if matrix and print the
//! comparison report.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release -- \
//!     --sites 4000 --seed 7 --threads 8 --out results/sweep.txt
//! ```

use connreuse_experiments::cli::{options_or_exit, parse_value, write_or_exit};
use connreuse_experiments::sweep::{run_sweep, SweepConfig};
use std::path::PathBuf;

struct CliOptions {
    config: SweepConfig,
    out: Option<PathBuf>,
    help: bool,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut config = SweepConfig::default();
    let mut out = None;
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => config.sites = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--quick" => config.sites = SweepConfig::quick().sites,
            "--out" => {
                let value = args.next().ok_or("--out requires a file path")?;
                out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(CliOptions { config, out, help })
}

fn print_usage() {
    println!("connreuse-sweep — the 2^4 mitigation matrix over HTTP/2 connection-reuse fixes");
    println!();
    println!("usage: connreuse-sweep [options]");
    println!();
    println!("options:");
    println!("  --sites N    sites per cell population (default 1500)");
    println!("  --seed N     root seed shared by every cell (default 20210420)");
    println!("  --threads N  worker threads the 16 cells shard across");
    println!("  --quick      use the small test-sized population (120 sites)");
    println!("  --out FILE   also write the report to FILE");
    println!();
    println!("exit status: 0 on success, 1 on IO failure, 2 on bad arguments");
}

fn main() {
    let options = options_or_exit(parse_args(), print_usage);
    if options.help {
        print_usage();
        return;
    }

    eprintln!(
        "sweeping 16 mitigation combinations: sites={} seed={} threads={}",
        options.config.sites, options.config.seed, options.config.threads
    );
    let start = std::time::Instant::now();
    let report = run_sweep(&options.config);
    eprintln!("sweep done in {:.1}s", start.elapsed().as_secs_f64());

    let text = report.render();
    println!("{text}");
    if let Some(path) = &options.out {
        write_or_exit(path, &text);
    }
}
