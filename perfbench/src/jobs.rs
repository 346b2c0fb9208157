//! The untraced jobs: each calls one entry point of the program exactly as a
//! user would, times it, and checks what it returned.

use crate::{digest, peak_rss_mib, ready, storm, Args, Record};
use connreuse_experiments::store::{answer_in_memory, answer_query, build_store, open_store, StoreQuery};
use connreuse_experiments::{run_atlas, run_chaos, AtlasConfig, ChaosConfig, ChaosReport};
use std::time::Instant;

/// The digest `trace-atlas` reproduces from its replica of the chunk loop.
pub fn atlas_digest(
    summary: &connreuse_core::DatasetSummary,
    cost: &netsim_cost::CostTotals,
    requests: usize,
    planned_requests: usize,
    observed_sites: usize,
) -> String {
    digest(&[
        serde_json::to_string(summary).expect("summaries serialise"),
        serde_json::to_string(cost).expect("cost totals serialise"),
        format!("{requests}/{planned_requests}/{observed_sites}"),
    ])
}

/// The digest `trace-chaos` reproduces from its replica of the grid.
pub fn chaos_digest(report: &ChaosReport) -> String {
    digest(&[serde_json::to_string(&report.cells).expect("chaos cells serialise")])
}

/// `run_atlas` over the full 100 k-site population.
pub fn atlas(args: &Args) -> Record {
    let config = AtlasConfig { seed: args.seed, threads: args.threads, ..AtlasConfig::full() };
    ready();
    let started = Instant::now();
    let report = run_atlas(&config);
    let job_s = started.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    if report.requests != report.planned_requests {
        problems.push(format!("{} requests sent of {} planned", report.requests, report.planned_requests));
    }
    if report.observed_sites != config.sites {
        problems.push(format!("{} sites visited of {}", report.observed_sites, config.sites));
    }
    let mut record = Record::default();
    record
        .num("job_s", job_s)
        .int("attempted", config.sites as u64)
        .int("completed", report.observed_sites as u64)
        .int("failed", config.sites.saturating_sub(report.observed_sites) as u64)
        .num("peak_rss_mib", peak_rss_mib())
        .int("steals", report.metrics.scheduler_steals)
        .text(
            "digest",
            &atlas_digest(
                &report.summary,
                &report.cost,
                report.requests,
                report.planned_requests,
                report.observed_sites,
            ),
        )
        .verdict(&problems);
    record
}

/// `run_chaos` over the default 145-cell grid.
pub fn chaos(args: &Args) -> Record {
    let config = ChaosConfig { seed: args.seed, threads: args.threads, ..ChaosConfig::default() };
    ready();
    let started = Instant::now();
    let report = run_chaos(&config);
    let job_s = started.elapsed().as_secs_f64();

    let problems = check_chaos(&report);
    let pages: u64 = report.cells.iter().map(|cell| cell.totals.pages()).sum();
    let expected = report.cells.first().map_or(0, |cell| cell.totals.pages()) * report.cells.len() as u64;
    let mut record = Record::default();
    record
        .num("job_s", job_s)
        .int("attempted", expected.max(pages))
        .int("completed", pages)
        .int("failed", expected.abs_diff(pages))
        .num("peak_rss_mib", peak_rss_mib())
        .text("digest", &chaos_digest(&report))
        .verdict(&problems);
    record
}

/// The chaos grid's output checks: the calm control cells see no faults,
/// retries or degraded pages, and every cell replays the same page count.
pub fn check_chaos(report: &ChaosReport) -> Vec<String> {
    let mut problems = Vec::new();
    let cells = 16 * 9 + 1;
    if report.cells.len() != cells {
        problems.push(format!("{} cells, expected {cells}", report.cells.len()));
    }
    for cell in report.cells.iter().filter(|cell| cell.level == 0 && !cell.hedged) {
        let sums = &cell.totals.totals.sums;
        if sums.faults_injected != 0 || sums.retries != 0 || cell.degraded_pages != 0 {
            problems.push(format!(
                "calm cell {} / profile {}: {} faults, {} retries, {} degraded pages",
                cell.mitigations, cell.profile, sums.faults_injected, sums.retries, cell.degraded_pages
            ));
        }
    }
    let pages = report.cells.first().map_or(0, |cell| cell.totals.pages());
    if pages == 0 || report.cells.iter().any(|cell| cell.totals.pages() != pages) {
        problems.push("cells replayed different page counts".to_string());
    }
    problems
}

/// Build and open the demo-ladder store, then answer the seeded query mix
/// in a closed loop with one client: parse, answer, render per query, as
/// `connreuse-serve --serve` does per stdin line.
pub fn storm(args: &Args) -> Result<Record, String> {
    let dir = args.store_dir()?;
    let config = storm::config(args.seed, args.threads);
    let queries = storm::query_mix(&config, args.seed, args.queries);
    let lines = storm::query_lines(&config, &queries);
    let sample = storm::narrow_sample(&config, &queries, args.checks);
    if args.build {
        // The store is built serially whatever the fold worker count, so
        // set-up time does not depend on `--threads`.
        let builder = storm::config(args.seed, 1);
        build_store(&builder, &dir).map_err(|error| format!("building the store: {error}"))?;
    }
    let store = open_store(&config, &dir).map_err(|error| format!("opening the store: {error}"))?;
    ready();

    let mut latencies_ms = Vec::with_capacity(lines.len());
    let mut kept = Vec::with_capacity(sample.len());
    let mut failed = 0u64;
    let mut first_error = None;
    let mut rendered_octets = 0usize;
    let started = Instant::now();
    for (index, line) in lines.iter().enumerate() {
        let asked = Instant::now();
        let answer = StoreQuery::parse(line, &config).and_then(|query| {
            answer_query(&store, &config, &query)
                .map(|answer| answer.render(&config))
                .map_err(|e| e.to_string())
        });
        latencies_ms.push(asked.elapsed().as_secs_f64() * 1e3);
        match answer {
            Ok(text) => {
                rendered_octets += text.len();
                if sample.contains(&index) {
                    kept.push((index, text));
                }
            }
            Err(error) => {
                failed += 1;
                first_error.get_or_insert(error);
            }
        }
    }
    let job_s = started.elapsed().as_secs_f64();
    std::hint::black_box(rendered_octets);

    if let Some(error) = first_error {
        eprintln!("perfbench-worker: {failed} queries failed, first: {error}");
    }
    // Outside the timed region: re-derive the sampled narrow answers by
    // crawling their chunks in memory; the store must agree byte for byte.
    let mut problems = Vec::new();
    for (index, text) in &kept {
        match answer_in_memory(&config, &queries[*index]) {
            Ok(expected) if expected.render(&config) == *text => {}
            Ok(_) => problems.push(format!("query '{}' differs from the in-memory answer", lines[*index])),
            Err(error) => problems.push(format!("in-memory answer to '{}': {error}", lines[*index])),
        }
    }
    if kept.len() != sample.len() {
        problems.push(format!("{} of {} sampled answers missing", sample.len() - kept.len(), sample.len()));
    }

    let mut record = Record::default();
    record
        .num("job_s", job_s)
        .int("attempted", lines.len() as u64)
        .int("completed", lines.len() as u64 - failed)
        .int("failed", failed)
        .num("peak_rss_mib", peak_rss_mib())
        .int("checked", kept.len() as u64)
        .nums("latencies_ms", &latencies_ms)
        .verdict(&problems);
    Ok(record)
}
