//! The traced runs: replicas of each workload's inner loop, built from the
//! crates' public functions, with a span around every call into a layer.
//!
//! A replica must reproduce the program's own output exactly — its digest
//! is compared with an untraced job of the same seed — so the per-layer
//! split describes the work the measured runs actually do. Spans are plain
//! `Instant` pairs summed per layer; busy time is each worker's wall time,
//! summed over workers, and a layer's share is its span total over busy.

use crate::jobs::{atlas_digest, chaos_digest, check_chaos};
use crate::{storm, Args, Record};
use connreuse_core::{classify_site, site_from_visit, Accumulator, DurationModel, FastVisitClassifier};
use connreuse_experiments::atlas::classify_scratch;
use connreuse_experiments::chaos::FAULT_LEVELS;
use connreuse_experiments::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_experiments::store::{answer_query, build_store, open_store, QueryAnswer, StoreQuery};
use connreuse_experiments::{AtlasConfig, ChaosCell, ChaosConfig, ChaosReport};
use netsim_browser::{
    Browser, BrowserConfig, Crawler, FaultProfile, PoolConfig, PoolLifecycleStats, RetryPolicy, ScratchPool,
    UserSession, VisitScratch,
};
use netsim_cost::{CostTotals, LinkProfile, SessionTotals, VisitTimeline};
use netsim_store::StoreLayout;
use netsim_types::{Duration as SimDuration, Instant as SimInstant, MitigationSet, SimClock, SimRng};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, WebEnvironment};
use std::time::{Duration, Instant};

/// Span totals of one worker (or of the whole run, once merged).
#[derive(Clone, Copy, Default)]
struct Spans {
    busy: Duration,
    generate: Duration,
    release: Duration,
    visit: Duration,
    classify: Duration,
    fold: Duration,
    sites_generated: u64,
    visits: u64,
    classified: u64,
    fallback: u64,
}

impl Spans {
    fn merge(&mut self, other: &Spans) {
        self.busy += other.busy;
        self.generate += other.generate;
        self.release += other.release;
        self.visit += other.visit;
        self.classify += other.classify;
        self.fold += other.fold;
        self.sites_generated += other.sites_generated;
        self.visits += other.visits;
        self.classified += other.classified;
        self.fallback += other.fallback;
    }

    fn share(&self, span: Duration) -> f64 {
        span.as_secs_f64() / self.busy.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Counts every workload reads from the folded visit timelines: the work the
/// substrates did, which a speed-up must leave exactly unchanged.
fn substrate_counts(record: &mut Record, sums: &VisitTimeline) {
    record
        .int("browser.connections_opened", sums.connections_opened)
        .int("dns.walks", sums.dns_recursive_walks)
        .int("tls.handshakes", sums.connections_opened + sums.hedged_dials)
        .int("h2.requests_sent", sums.requests)
        .num("h2.reused_request_share", sums.reuse_share());
}

/// Both atlas profiles carry the scenario name, as `run_atlas` sets them.
fn atlas_profiles() -> (PopulationProfile, PopulationProfile) {
    let mut head = PopulationProfile::alexa();
    head.name = "atlas".to_string();
    let mut tail = PopulationProfile::archive();
    tail.name = "atlas".to_string();
    (head, tail)
}

/// The atlas chunk loop on one worker: generate, visit, fold cost,
/// classify, chunk by chunk.
pub fn atlas(args: &Args) -> Record {
    let config = AtlasConfig { seed: args.seed, threads: 1, ..AtlasConfig::full() };
    let started = Instant::now();
    let deployments = DeploymentCache::standard();
    let pool = ScratchPool::without_netlog();
    let mut scratch = pool.checkout();
    let mut classifier = FastVisitClassifier::new();
    let mut spans = Spans::default();
    let mut accumulator = Accumulator::new();
    let mut cost = CostTotals::new();
    let (mut requests, mut planned_requests) = (0usize, 0usize);

    for start in (0..config.sites).step_by(config.chunk_sites) {
        let len = config.chunk_sites.min(config.sites - start);
        let (head, tail) = atlas_profiles();
        let generating = Instant::now();
        let env = PopulationBuilder::new(tail, len, config.seed + ALEXA_POPULATION_SEED_OFFSET)
            .with_site_offset(start)
            .with_zipf_profile_mix(head, config.zipf_exponent)
            .with_shared_deployment(deployments.deployment(MitigationSet::empty()))
            .build();
        spans.generate += generating.elapsed();
        spans.sites_generated += env.sites.len() as u64;
        planned_requests += env.total_planned_requests();

        let crawler =
            Crawler::new("atlas", BrowserConfig::alexa_measurement(), config.seed + ALEXA_CRAWL_SEED_OFFSET);
        let mut chunk_accumulator = Accumulator::new();
        let mut chunk_cost = CostTotals::new();
        for index in 0..env.sites.len() {
            let visiting = Instant::now();
            let times = crawler.visit_site_into(&mut scratch, &env, index);
            let folding = Instant::now();
            chunk_cost.absorb_visit(scratch.timeline());
            let classifying = Instant::now();
            if scratch.all_ok() {
                let counts = classify_scratch(&mut classifier, &scratch, DurationModel::Recorded);
                chunk_accumulator.observe_counts(&counts);
                spans.classified += 1;
            } else {
                // The HTTP 421 path: the full observation pipeline.
                let visit = scratch.to_page_visit(&env.sites[index], times);
                chunk_accumulator.observe(&classify_site(&site_from_visit(&visit), DurationModel::Recorded));
                spans.fallback += 1;
            }
            let done = Instant::now();
            spans.visit += folding - visiting;
            spans.fold += classifying - folding;
            spans.classify += done - classifying;
            spans.visits += 1;
            requests += scratch.requests().len();
        }
        accumulator.merge(&chunk_accumulator);
        cost.merge(&chunk_cost);
        // Freeing the chunk's population is web-layer work too, and not
        // small: it gets its own span.
        release(env, &mut spans);
    }
    spans.busy = started.elapsed();

    let observed_sites = accumulator.observed_sites();
    let summary = accumulator.finish("atlas");
    let mut problems = Vec::new();
    if requests != planned_requests || observed_sites != config.sites {
        problems.push(format!(
            "replica: {requests} of {planned_requests} requests, {observed_sites} of {} sites",
            config.sites
        ));
    }
    let mut record = Record::default();
    record
        .num("wall_s", spans.busy.as_secs_f64())
        .int("items", observed_sites as u64)
        .text("digest", &atlas_digest(&summary, &cost, requests, planned_requests, observed_sites))
        .num("web.generate_s", spans.generate.as_secs_f64())
        .num("web.generate_share", spans.share(spans.generate))
        .int("web.sites_generated", spans.sites_generated)
        .num("web.release_s", spans.release.as_secs_f64())
        .num("browser.visit_s", spans.visit.as_secs_f64())
        .num("browser.visit_share", spans.share(spans.visit))
        .int("browser.visits", spans.visits)
        .num("core.classify_s", spans.classify.as_secs_f64())
        .num("core.classify_share", spans.share(spans.classify))
        .int("core.classified_sites", spans.classified)
        .int("core.fallback_sites", spans.fallback)
        .num("cost.fold_s", spans.fold.as_secs_f64())
        .num("cost.fold_share", spans.share(spans.fold))
        .num("trace.busy_s", spans.busy.as_secs_f64())
        .num(
            "trace.coverage",
            spans.share(spans.generate + spans.release + spans.visit + spans.classify + spans.fold),
        );
    substrate_counts(&mut record, &cost.sums);
    record.verdict(&problems);
    record
}

/// `run_chaos`'s private constants, mirrored; a drift shows as a digest
/// mismatch against the untraced job.
const CHAOS_SESSION_SEED_OFFSET: u64 = 50;
const ID_STRIDE: u64 = 1_000_000;
const SESSION_SPACING_SECS: u64 = 900;
const REVISIT_PROBABILITY: f64 = 0.4;

/// The chaos grid with `run_chaos`'s sharding: contiguous runs of mitigation
/// combinations per scoped thread, then the hedged cell on the caller.
pub fn chaos(args: &Args) -> Record {
    let config = ChaosConfig { seed: args.seed, threads: args.threads, ..ChaosConfig::default() };
    let started = Instant::now();
    let profiles = LinkProfile::presets();
    let combos = MitigationSet::all_combinations();
    let mut rows: Vec<Option<Vec<ChaosCell>>> = vec![None; combos.len()];
    let threads = config.threads.clamp(1, combos.len());
    let chunk = combos.len().div_ceil(threads);
    let mut spans = Spans::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = rows
            .chunks_mut(chunk)
            .zip(combos.chunks(chunk))
            .map(|(slot, shard)| {
                let (config, profiles) = (&config, &profiles);
                scope.spawn(move || {
                    let begun = Instant::now();
                    let mut spans = Spans::default();
                    for (row, combo) in slot.iter_mut().zip(shard) {
                        *row = Some(chaos_combo(config, *combo, profiles, &mut spans));
                    }
                    spans.busy = begun.elapsed();
                    spans
                })
            })
            .collect();
        for worker in workers {
            spans.merge(&worker.join().expect("a chaos worker panicked"));
        }
    });
    let mut cells: Vec<ChaosCell> =
        rows.into_iter().flat_map(|row| row.expect("every combination ran")).collect();
    let begun = Instant::now();
    let mut hedged_spans = Spans::default();
    cells.push(chaos_hedged_cell(&config, &profiles, &mut hedged_spans));
    hedged_spans.busy = begun.elapsed();
    spans.merge(&hedged_spans);
    let wall = started.elapsed();

    let report = ChaosReport { config, profiles, cells };
    let problems = check_chaos(&report);
    let mut sums = VisitTimeline::default();
    let mut lifecycle = PoolLifecycleStats::default();
    let mut degraded = 0;
    for cell in &report.cells {
        sums.absorb(&cell.totals.totals.sums);
        lifecycle.merge(&cell.lifecycle);
        degraded += cell.degraded_pages;
    }
    let lends = lifecycle.lent as f64;
    let mut record = Record::default();
    record
        .num("wall_s", wall.as_secs_f64())
        .int("items", spans.visits)
        .text("digest", &chaos_digest(&report))
        .num("web.generate_s", spans.generate.as_secs_f64())
        .num("web.generate_share", spans.share(spans.generate))
        .int("web.sites_generated", spans.sites_generated)
        .num("web.release_s", spans.release.as_secs_f64())
        .num("browser.session_page_s", spans.visit.as_secs_f64())
        .num("browser.session_page_share", spans.share(spans.visit))
        .int("browser.session_pages", spans.visits)
        .num("browser.pool_lend_share", lends / (lends + sums.connections_opened as f64).max(1.0))
        .int("browser.faults_injected", sums.faults_injected)
        .int("browser.retries", sums.retries)
        .int("browser.degraded_pages", degraded)
        .num("cost.fold_s", spans.fold.as_secs_f64())
        .num("cost.fold_share", spans.share(spans.fold))
        .num("trace.busy_s", spans.busy.as_secs_f64())
        .num("trace.coverage", spans.share(spans.generate + spans.release + spans.visit + spans.fold));
    substrate_counts(&mut record, &sums);
    record.verdict(&problems);
    record
}

fn chaos_population(config: &ChaosConfig, mitigations: MitigationSet, spans: &mut Spans) -> WebEnvironment {
    let generating = Instant::now();
    let env = PopulationBuilder::new(
        PopulationProfile::alexa(),
        config.sites,
        config.seed + ALEXA_POPULATION_SEED_OFFSET,
    )
    .with_mitigations(mitigations)
    .build();
    spans.generate += generating.elapsed();
    spans.sites_generated += env.sites.len() as u64;
    env
}

fn chaos_combo(
    config: &ChaosConfig,
    mitigations: MitigationSet,
    profiles: &[LinkProfile],
    spans: &mut Spans,
) -> Vec<ChaosCell> {
    let env = chaos_population(config, mitigations, spans);
    let mut cells = Vec::with_capacity(FAULT_LEVELS.len() * profiles.len());
    for (level, (_, ppm)) in FAULT_LEVELS.iter().enumerate() {
        for (profile_index, profile) in profiles.iter().enumerate() {
            let browser_config = BrowserConfig {
                faults: FaultProfile::uniform(*ppm),
                ..BrowserConfig::with_mitigations(mitigations).over_link(profile)
            };
            let (totals, lifecycle, degraded_pages) = chaos_sessions(config, &env, &browser_config, spans);
            cells.push(ChaosCell {
                mitigations,
                level,
                profile: profile_index,
                hedged: false,
                totals,
                lifecycle,
                degraded_pages,
            });
        }
    }
    release(env, spans);
    cells
}

fn release(env: WebEnvironment, spans: &mut Spans) {
    let releasing = Instant::now();
    drop(env);
    spans.release += releasing.elapsed();
}

fn chaos_hedged_cell(config: &ChaosConfig, profiles: &[LinkProfile], spans: &mut Spans) -> ChaosCell {
    // `run_chaos` builds the hedged cell's population without
    // `with_mitigations`; the empty set is the builder's default.
    let env = chaos_population(config, MitigationSet::empty(), spans);
    let level = FAULT_LEVELS.len() - 1;
    let profile = profiles.len() - 1;
    let browser_config = BrowserConfig {
        faults: FaultProfile::uniform(FAULT_LEVELS[level].1),
        retry: RetryPolicy { hedged_dials: true, ..RetryPolicy::default() },
        ..BrowserConfig::with_mitigations(MitigationSet::empty()).over_link(&profiles[profile])
    };
    let (totals, lifecycle, degraded_pages) = chaos_sessions(config, &env, &browser_config, spans);
    release(env, spans);
    ChaosCell {
        mitigations: MitigationSet::empty(),
        level,
        profile,
        hedged: true,
        totals,
        lifecycle,
        degraded_pages,
    }
}

/// One cell's warm sessions; `spans.visit` times the session pages and
/// `spans.fold` the cost fold after each.
fn chaos_sessions(
    config: &ChaosConfig,
    env: &WebEnvironment,
    browser_config: &BrowserConfig,
    spans: &mut Spans,
) -> (SessionTotals, PoolLifecycleStats, u64) {
    let mut scratch = VisitScratch::without_netlog();
    let mut totals = SessionTotals::new();
    let mut session = UserSession::new(PoolConfig::default());
    let mut visited: Vec<usize> = Vec::new();
    let mut degraded_pages = 0u64;
    let root = SimRng::new(config.seed + CHAOS_SESSION_SEED_OFFSET);
    for session_index in 0..config.sessions as u64 {
        let mut nav_rng = root.fork_indexed("chaos-nav", session_index);
        let visit_streams = root.fork_indexed("chaos-visit", session_index);
        let mut clock = SimClock::starting_at(
            SimInstant::EPOCH + SimDuration::from_secs(SESSION_SPACING_SECS * session_index),
        );
        let mut browser = Browser::with_id_base(browser_config.clone(), session_index * ID_STRIDE);
        visited.clear();
        let pages = nav_rng.in_range(2..=7usize);
        for page in 0..pages as u64 {
            let site_index = if !visited.is_empty() && nav_rng.chance(REVISIT_PROBABILITY) {
                *nav_rng.pick(&visited).expect("visited is non-empty")
            } else {
                nav_rng.in_range(0..config.sites)
            };
            visited.push(site_index);
            let mut page_rng = visit_streams.fork_indexed("page", page);
            let site = &env.sites[site_index];
            let loading = Instant::now();
            browser.load_session_page_into(&mut scratch, &mut session, env, site, &mut clock, &mut page_rng);
            let folding = Instant::now();
            totals.absorb_page(scratch.timeline());
            spans.fold += folding.elapsed();
            spans.visit += folding - loading;
            spans.visits += 1;
            if !scratch.outcome().is_complete() {
                degraded_pages += 1;
            }
            clock.advance(SimDuration::from_secs(nav_rng.in_range(5..=120u64)));
        }
        session.end(&mut scratch, clock.now());
        totals.end_session();
    }
    (totals, session.take_stats(), degraded_pages)
}

/// The serve-storm set-up and query loop with spans around the store reads,
/// the shard-merge fold, the query parser and the answer renderer. Every
/// replica answer is compared with `answer_query` outside the spans.
pub fn storm(args: &Args) -> Result<Record, String> {
    let dir = args.store_dir()?;
    let config = storm::config(args.seed, 1);
    let queries = storm::query_mix(&config, args.seed, args.queries);
    let lines = storm::query_lines(&config, &queries);
    let mut problems = Vec::new();

    build_store(&config, &dir).map_err(|error| format!("building the store: {error}"))?;
    let rebuilding = Instant::now();
    let rebuild = build_store(&config, &dir).map_err(|error| format!("rebuilding the store: {error}"))?;
    let noop_rebuild_s = rebuilding.elapsed().as_secs_f64();
    if rebuild.rewritten != 0 || rebuild.reused != rebuild.chunk_count {
        problems
            .push(format!("no-op rebuild rewrote {} of {} shards", rebuild.rewritten, rebuild.chunk_count));
    }
    let mut opens_ms = Vec::new();
    let mut store = None;
    for _ in 0..7 {
        let opening = Instant::now();
        store = Some(open_store(&config, &dir).map_err(|error| format!("opening the store: {error}"))?);
        opens_ms.push(opening.elapsed().as_secs_f64() * 1e3);
    }
    let store = store.expect("the store was opened");
    opens_ms.sort_by(f64::total_cmp);
    let shard_octets: Vec<u64> = (0..store.chunk_count())
        .map(|index| std::fs::metadata(StoreLayout::shard_path(&dir, index)).map_or(0, |meta| meta.len()))
        .collect();

    let (mut busy, mut parse, mut read, mut fold, mut render) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut chunks_read, mut octets_read, mut failed) = (0u64, 0u64, 0u64);
    for line in &lines {
        let asked = Instant::now();
        let parsed = StoreQuery::parse(line, &config);
        let parsed_at = Instant::now();
        parse += parsed_at - asked;
        let Ok(query) = parsed else {
            failed += 1;
            continue;
        };
        // `answer_query`'s own target lookup: the record of the queried cell
        // and the chunks the slice covers.
        let key = (query.mitigations.bits() as u64, query.profile_index as u64);
        let Some(record_index) = config.keys().iter().position(|&k| k == key) else {
            failed += 1;
            continue;
        };
        let covered: Vec<usize> = config
            .chunks()
            .iter()
            .enumerate()
            .filter(|&(_, &(start, len))| start as u64 >= query.lo && (start + len) as u64 <= query.hi)
            .map(|(index, _)| index)
            .collect();
        let mut accumulator = Accumulator::new();
        let mut cost = CostTotals::new();
        let (mut requests, mut planned_requests, mut read_error) = (0u64, 0u64, false);
        for &chunk in &covered {
            let reading = Instant::now();
            let shard = store.read_chunk(chunk);
            let folding = Instant::now();
            match &shard {
                Ok(shard) => {
                    let record = &shard.records[record_index];
                    accumulator.merge(&Accumulator::from_state(&record.accumulator));
                    requests += record.requests;
                    planned_requests += record.planned_requests;
                    cost.merge(&record.cost);
                }
                Err(_) => read_error = true,
            }
            let folded = Instant::now();
            read += folding - reading;
            fold += folded - folding;
            chunks_read += 1;
            octets_read += shard_octets[chunk];
        }
        let finishing = Instant::now();
        let observed_sites = accumulator.observed_sites();
        let answer = QueryAnswer {
            query,
            profile: config.profiles()[query.profile_index].clone(),
            chunks: covered.len(),
            summary: accumulator.finish(&query.mitigations.label()),
            observed_sites,
            requests,
            planned_requests,
            cost,
        };
        let rendering = Instant::now();
        let text = answer.render(&config);
        let answered = Instant::now();
        fold += rendering - finishing;
        render += answered - rendering;
        busy += answered - asked;
        std::hint::black_box(text);
        if read_error {
            failed += 1;
            continue;
        }
        match answer_query(&store, &config, &query) {
            Ok(expected) if expected == answer => {}
            Ok(_) => problems.push(format!("replica answer to '{line}' differs from answer_query")),
            Err(error) => problems.push(format!("answer_query('{line}'): {error}")),
        }
    }
    problems.truncate(5);

    let count = lines.len().max(1) as f64;
    let share = |span: Duration| span.as_secs_f64() / busy.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut record = Record::default();
    record
        .num("wall_s", busy.as_secs_f64())
        .int("items", lines.len() as u64 - failed)
        .int("failed", failed)
        .num("store.read_chunk_s", read.as_secs_f64())
        .num("store.read_share", share(read))
        .int("store.chunks_read", chunks_read)
        .int("store.bytes_read", octets_read)
        .num("store.open_ms", opens_ms[opens_ms.len() / 2])
        .num("store.noop_rebuild_s", noop_rebuild_s)
        .num("query.parse_us", parse.as_secs_f64() * 1e6 / count)
        .num("query.fold_s", fold.as_secs_f64())
        .num("query.fold_share", share(fold))
        .num("query.render_us", render.as_secs_f64() * 1e6 / count)
        .num("query.mean_chunks", chunks_read as f64 / count)
        .num("query.distinct_share", storm::distinct_share(&queries))
        .num("trace.busy_s", busy.as_secs_f64())
        .num("trace.coverage", share(parse + read + fold + render))
        .verdict(&problems);
    Ok(record)
}
