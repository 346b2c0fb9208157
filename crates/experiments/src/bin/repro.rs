//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin repro --release -- all
//! cargo run -p connreuse-experiments --bin repro --release -- table1 table2 \
//!     --archive-sites 10000 --alexa-sites 4000 --seed 7 --out results/
//! ```
//!
//! Without arguments the binary lists the available experiments.

use connreuse_experiments::cli::{options_or_exit, parse_value};
use connreuse_experiments::{run_experiment, Scenario, ScenarioConfig, EXPERIMENTS};
use std::path::PathBuf;

struct CliOptions {
    experiments: Vec<String>,
    config: ScenarioConfig,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut experiments = Vec::new();
    let mut config = ScenarioConfig::default();
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--archive-sites" => config.archive_sites = parse_value(&mut args, &arg)?,
            "--alexa-sites" => config.alexa_sites = parse_value(&mut args, &arg)?,
            "--overlap-sites" => config.overlap_sites = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--quick" => {
                let quick = ScenarioConfig::quick();
                config.archive_sites = quick.archive_sites;
                config.alexa_sites = quick.alexa_sites;
                config.overlap_sites = quick.overlap_sites;
            }
            "--out" => {
                let value = args.next().ok_or("--out requires a directory")?;
                out_dir = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                experiments.clear();
                experiments.push("help".to_string());
                return Ok(CliOptions { experiments, config, out_dir });
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => experiments.push(other.to_string()),
        }
    }
    Ok(CliOptions { experiments, config, out_dir })
}

fn print_usage() {
    println!("repro — regenerate the tables and figures of 'Sharding and HTTP/2 Connection Reuse Revisited'");
    println!();
    println!("usage: repro [EXPERIMENT ...|all] [options]");
    println!();
    println!("experiments: {}", EXPERIMENTS.join(", "));
    println!();
    println!("options:");
    println!("  --archive-sites N   size of the HTTP-Archive-shaped population (default 3000)");
    println!("  --alexa-sites N     size of the Alexa-shaped population (default 1500)");
    println!("  --overlap-sites N   size of the shared overlap population (default 600)");
    println!("  --seed N            root seed (default 20210420)");
    println!("  --threads N         crawl worker threads (default: available parallelism)");
    println!("  --quick             use the small test-sized populations");
    println!("  --out DIR           also write each experiment's report to DIR/<name>.txt");
    println!();
    println!("exit status: 0 on success, 1 on experiment/IO failure, 2 on bad arguments");
}

fn main() {
    let options = options_or_exit(parse_args(), print_usage);
    if options.experiments.is_empty() || options.experiments.iter().any(|e| e == "help") {
        print_usage();
        return;
    }
    let selected: Vec<String> = if options.experiments.iter().any(|e| e == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        options.experiments.clone()
    };

    eprintln!(
        "building scenario: archive={} alexa={} overlap={} seed={} threads={}",
        options.config.archive_sites,
        options.config.alexa_sites,
        options.config.overlap_sites,
        options.config.seed,
        options.config.threads
    );
    let start = std::time::Instant::now();
    let scenario = Scenario::build(options.config);
    eprintln!("scenario ready in {:.1}s", start.elapsed().as_secs_f64());

    if let Some(dir) = &options.out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {error}", dir.display());
            std::process::exit(1);
        }
    }

    let mut failures = 0;
    for name in &selected {
        match run_experiment(name, &scenario) {
            Ok(output) => {
                println!("{}", output.text);
                if let Some(dir) = &options.out_dir {
                    let path = dir.join(format!("{name}.txt"));
                    if let Err(error) = std::fs::write(&path, &output.text) {
                        eprintln!("error: cannot write {}: {error}", path.display());
                        failures += 1;
                    }
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
