//! `connreuse-serve` — the persistent what-if service: build a shard store
//! once, answer priced mitigation queries from it without re-crawling.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick --build
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick \
//!     --query "mitigations=all profile=lossy-cellular ranks=0..90"
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store-full --full --build --threads 8
//! printf 'mitigations=none\nmitigations=all profile=datacenter\n' | \
//!     cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick --serve
//! ```
//!
//! The store is incremental: `--build` on an up-to-date store reports
//! `shards rewritten: 0` and touches nothing. Without `--build`, the store
//! must already exist and carry the configuration's fingerprint — a
//! mismatch is refused (exit 1) instead of serving numbers from a different
//! experiment.

use connreuse_experiments::cli::{options_or_exit, parse_value, write_or_exit};
use connreuse_experiments::store::{
    answer_query, open_store, run_store, BuildReport, StoreConfig, StoreQuery, StoreRunReport,
};
use std::io::BufRead;
use std::path::PathBuf;

struct CliOptions {
    config: StoreConfig,
    store: PathBuf,
    build: bool,
    serve: bool,
    queries: Vec<String>,
    out: Option<PathBuf>,
    help: bool,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut config = StoreConfig::quick();
    let mut store = None;
    let mut build = false;
    let mut serve = false;
    let mut queries = Vec::new();
    let mut out = None;
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                let value = args.next().ok_or("--store requires a directory path")?;
                store = Some(PathBuf::from(value));
            }
            "--build" => build = true,
            "--serve" => serve = true,
            "--quick" => config = StoreConfig::quick(),
            "--full" => config = StoreConfig::full(),
            "--sites" => config.sites = parse_value(&mut args, &arg)?,
            "--chunk-sites" => config.chunk_sites = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--query" => {
                queries.push(args.next().ok_or("--query requires a query string")?);
            }
            "--out" => {
                let value = args.next().ok_or("--out requires a file path")?;
                out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let store = match store {
        Some(store) => store,
        None if help => PathBuf::new(),
        None => return Err("--store DIR is required".to_string()),
    };
    Ok(CliOptions { config, store, build, serve, queries, out, help })
}

fn print_usage() {
    println!("connreuse-serve — persistent shard store + priced what-if queries");
    println!();
    println!("usage: connreuse-serve --store DIR [options]");
    println!();
    println!("options:");
    println!("  --store DIR          store directory (required)");
    println!("  --build              build or incrementally refresh the store first");
    println!("  --quick              the small test-sized configuration (default)");
    println!("  --full               the paper-scale store: 100k sites, all 16 deployments");
    println!("  --sites N            population size (growth only appends chunks)");
    println!("  --chunk-sites N      sites per shard (changes the fingerprint)");
    println!("  --seed N             root seed (changes the fingerprint)");
    println!("  --threads N          worker threads for building and query folds");
    println!("  --query Q            answer Q (repeatable); default: the demo query set");
    println!("                       grammar: mitigations=<label> [profile=<name>] [ranks=<lo>..<hi>]");
    println!("  --serve              after the flag queries, answer one query per stdin line");
    println!("  --out FILE           also write the build/answer report to FILE");
    println!();
    println!("exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments");
}

fn main() {
    let options = options_or_exit(parse_args(), print_usage);
    if options.help {
        print_usage();
        return;
    }

    // Bad query grammar is an argument error (exit 2), caught before any
    // build work starts.
    let queries = if options.queries.is_empty() {
        options.config.demo_queries()
    } else {
        match options.queries.iter().map(|q| StoreQuery::parse(q, &options.config)).collect() {
            Ok(queries) => queries,
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    };

    let start = std::time::Instant::now();
    let report = if options.build {
        run_store(&options.config, &options.store, &queries)
    } else {
        // Serve-only: the store must already exist and match the config;
        // nothing on disk is touched.
        open_store(&options.config, &options.store).and_then(|store| {
            let mut answers = Vec::with_capacity(queries.len());
            for query in &queries {
                answers.push(answer_query(&store, &options.config, query)?);
            }
            let build = BuildReport {
                config: options.config.clone(),
                fingerprint: store.manifest().fingerprint,
                chunk_count: store.chunk_count(),
                records_per_shard: store.manifest().keys.len(),
                rewritten: 0,
                reused: store.chunk_count(),
                removed: 0,
            };
            Ok(StoreRunReport { build, answers })
        })
    };
    let report = match report {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "store at {} ready in {:.1}s ({} shards rewritten, {} reused)",
        options.store.display(),
        start.elapsed().as_secs_f64(),
        report.build.rewritten,
        report.build.reused
    );

    let text = report.render();
    println!("{text}");
    if let Some(path) = &options.out {
        write_or_exit(path, &text);
    }

    if options.serve {
        serve_stdin(&options);
    }
}

/// The long-running loop: one query per stdin line, one answer per query.
/// Malformed queries get an `error:` line and the loop continues; store
/// corruption discovered mid-read is fatal (exit 1) — better down than
/// wrong.
fn serve_stdin(options: &CliOptions) {
    let store = match open_store(&options.config, &options.store) {
        Ok(store) => store,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    eprintln!("serving queries from stdin (one per line; EOF ends the session)");
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                eprintln!("error: stdin: {error}");
                std::process::exit(1);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match StoreQuery::parse(&line, &options.config) {
            Err(message) => println!("error: {message}"),
            Ok(query) => match answer_query(&store, &options.config, &query) {
                Ok(answer) => println!("{}", answer.render(&options.config)),
                Err(error) => {
                    eprintln!("error: {error}");
                    std::process::exit(1);
                }
            },
        }
    }
}
