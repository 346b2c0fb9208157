//! The one cell engine every experiment runs on.
//!
//! The paper's result is a single computation: visit a site, classify its
//! connections into `CERT`/`IP`/`CRED` causes (§4), and fold the counts over
//! a population. Every what-if repeats it under another deployment, link
//! profile, failure level or session mode. This module owns that
//! computation once, so a new axis is one edit here instead of one per
//! experiment:
//!
//! * **the cold fold** — [`ColdWorker::fold`] visits every site of a
//!   population through a pooled scratch arena, classifies each visit with
//!   the streaming classifier (falling back to the full observation pipeline
//!   on HTTP 421 exclusions) and folds the result into one mergeable
//!   [`ColdRecord`]. Atlas chunks, store shards, in-memory what-if answers,
//!   cost cells and sweep cells are all this fold;
//! * **the session driver** — [`drive_sessions`] replays a seeded
//!   multi-page navigation trace, warm through a pooled `UserSession` or
//!   cold through the per-visit path. Fleet and chaos cells are this driver;
//! * **the scheduler** — [`run_tasks`] and [`stream_tasks`] put a task list
//!   (chunks, cells or combinations) on the work-stealing executor. Each
//!   executor worker checks one [`ColdWorker`] out of a scratch pool and
//!   keeps it for every task it runs, stolen or not; each task runs inside
//!   one `Stage::ChunkLoop` profile envelope.
//!
//! Results are index-addressed by the executor and merged in task order, and
//! every stochastic choice forks off a global site or session index, never a
//! worker id — so reports are byte-identical at any thread count.

use crate::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_core::{
    classify_site, site_from_visit, Accumulator, DurationModel, FastVisitClassifier, SiteCounts,
};
use connreuse_executor::{run_indexed, run_indexed_streaming, RunOutcome};
use netsim_browser::{
    Browser, BrowserConfig, Crawler, PoolConfig, PoolLifecycleStats, PooledScratch, ScratchPool, UserSession,
    VisitScratch,
};
use netsim_cost::{CostTotals, LinkProfile, SessionTotals};
use netsim_store::ShardRecord;
use netsim_types::profile::Stage;
use netsim_types::{Duration, Instant, MitigationSet, SimClock, SimRng};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, WebEnvironment};

/// Identifier spacing between sessions so connection/request ids never
/// collide across a cell (mirrors the crawler's per-site stride).
const ID_STRIDE: u64 = 1_000_000;

/// Simulated spacing between consecutive session start times.
const SESSION_SPACING_SECS: u64 = 900;

/// Probability that a navigation revisits a page already seen this session.
const REVISIT_PROBABILITY: f64 = 0.4;

/// The chunk ranges `[start, start + len)` covering `sites` sites in chunks
/// of `chunk_sites` (the last chunk takes the remainder).
pub(crate) fn chunk_ranges(sites: usize, chunk_sites: usize) -> Vec<(usize, usize)> {
    let chunk = chunk_sites.max(1);
    (0..sites.div_ceil(chunk))
        .map(|i| {
            let start = i * chunk;
            (start, chunk.min(sites - start))
        })
        .collect()
}

/// The atlas population slice `[start, start + len)`: Zipf-mixed Alexa head
/// and archive tail, deployed under `mitigations` from the run's shared
/// deployment cache. Both profiles carry the scenario name, so generated
/// domains read `atlas-site-000123.<tld>` whichever profile a rank draws.
pub(crate) fn atlas_population(
    seed: u64,
    zipf_exponent: f64,
    (start, len): (usize, usize),
    mitigations: MitigationSet,
    deployments: &DeploymentCache,
) -> WebEnvironment {
    let mut head = PopulationProfile::alexa();
    head.name = "atlas".to_string();
    let mut tail = PopulationProfile::archive();
    tail.name = "atlas".to_string();
    PopulationBuilder::new(tail, len, seed + ALEXA_POPULATION_SEED_OFFSET)
        .with_site_offset(start)
        .with_zipf_profile_mix(head, zipf_exponent)
        .with_shared_deployment(deployments.deployment(mitigations))
        .with_mitigations(mitigations)
        .build()
}

/// The Alexa-shaped cell population the sweep, cost, fleet and chaos grids
/// share: the scenario's own Alexa seeds, deployed under `mitigations`.
pub(crate) fn alexa_population(sites: usize, seed: u64, mitigations: MitigationSet) -> WebEnvironment {
    PopulationBuilder::new(PopulationProfile::alexa(), sites, seed + ALEXA_POPULATION_SEED_OFFSET)
        .with_mitigations(mitigations)
        .build()
}

/// The cold crawler of a priced cell: the browser policy matching
/// `mitigations` over `link`, on the scenario's Alexa crawl seed.
pub(crate) fn priced_crawler(seed: u64, mitigations: MitigationSet, link: &LinkProfile) -> Crawler {
    Crawler::new(
        &mitigations.label(),
        BrowserConfig::with_mitigations(mitigations).over_link(link),
        seed + ALEXA_CRAWL_SEED_OFFSET,
    )
}

/// One cold fold's mergeable result: the classification accumulator, the
/// request tallies and the aggregate visit cost. `merge` is associative and
/// order-insensitive, so any chunk partition folds to the same record.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ColdRecord {
    /// Streaming classification of every visited site (recorded durations).
    pub accumulator: Accumulator,
    /// Requests sent across all visits.
    pub requests: u64,
    /// Requests planned across all generated sites.
    pub planned_requests: u64,
    /// Aggregate of the per-visit cost timelines.
    pub cost: CostTotals,
}

impl ColdRecord {
    /// Fold another record into this one.
    pub fn merge(&mut self, other: &ColdRecord) {
        self.accumulator.merge(&other.accumulator);
        self.requests += other.requests;
        self.planned_requests += other.planned_requests;
        self.cost.merge(&other.cost);
    }

    /// The persisted form of this record as one shard cell.
    pub fn to_shard(&self, mitigations: MitigationSet, profile_index: usize) -> ShardRecord {
        ShardRecord {
            mitigation_bits: mitigations.bits() as u64,
            profile_index: profile_index as u64,
            accumulator: self.accumulator.state(),
            requests: self.requests,
            planned_requests: self.planned_requests,
            cost: self.cost,
        }
    }

    /// Read a persisted shard cell back.
    pub fn from_shard(record: &ShardRecord) -> ColdRecord {
        ColdRecord {
            accumulator: Accumulator::from_state(&record.accumulator),
            requests: record.requests,
            planned_requests: record.planned_requests,
            cost: record.cost,
        }
    }
}

/// An executor worker's reusable state: the visit scratch arena (checked
/// out of the run's [`ScratchPool`]) and the streaming classifier survive
/// across every task the worker runs — including stolen ones — so the
/// steady-state visit loop allocates nothing. Session tasks use only the
/// arena.
pub(crate) struct ColdWorker<'pool> {
    scratch: PooledScratch<'pool>,
    classifier: FastVisitClassifier,
}

impl<'pool> ColdWorker<'pool> {
    fn from_pool(pool: &'pool ScratchPool) -> Self {
        ColdWorker { scratch: pool.checkout(), classifier: FastVisitClassifier::new() }
    }

    /// The worker's scratch arena.
    pub fn scratch(&mut self) -> &mut VisitScratch {
        &mut self.scratch
    }

    /// Visit → classify → fold every site of `env` under `crawler`. Nothing
    /// proportional to a page load is allocated, let alone outlives its
    /// iteration.
    pub fn fold(&mut self, crawler: &Crawler, env: &WebEnvironment) -> ColdRecord {
        let mut record =
            ColdRecord { planned_requests: env.total_planned_requests() as u64, ..ColdRecord::default() };
        for index in 0..env.sites.len() {
            let times = crawler.visit_site_into(&mut self.scratch, env, index);
            record.requests += self.scratch.requests().len() as u64;
            record.cost.absorb_visit(self.scratch.timeline());
            netsim_types::stage!(Stage::Classify);
            if self.scratch.all_ok() {
                let counts = classify_scratch(&mut self.classifier, &self.scratch, DurationModel::Recorded);
                record.accumulator.observe_counts(&counts);
            } else {
                // A non-200 response (HTTP 421 exclusion) appeared: fall
                // back to the full observation pipeline for this site.
                let visit = self.scratch.to_page_visit(&env.sites[index], times);
                record.accumulator.observe(&classify_site(&site_from_visit(&visit), DurationModel::Recorded));
            }
        }
        record
    }
}

/// Feed one scratch visit into the streaming classifier and reduce it to the
/// site's cause counts. This is *the* contract between the visit engine and
/// the classifier (the equivalence proptest and the criterion benches reuse
/// it): connections are pushed in establishment order, then the request log
/// is folded in one linear pass to set each connection's last-request time
/// (its establishment time if it carried none, as
/// `ObservedConnection::last_request_at` defines it).
///
/// The caller must have checked [`VisitScratch::all_ok`]; visits with
/// non-200 responses (HTTP 421 exclusions) go through the full
/// `site_from_visit`/`classify_site` pipeline instead.
pub fn classify_scratch(
    classifier: &mut FastVisitClassifier,
    scratch: &VisitScratch,
    model: DurationModel,
) -> SiteCounts {
    classifier.begin_site();
    let connections = scratch.connections();
    let first_id = connections.first().map(|connection| connection.id.0).unwrap_or(0);
    for (offset, connection) in connections.iter().enumerate() {
        // Connection ids are issued sequentially in establishment order, so
        // a request's connection id maps straight back to its record index.
        debug_assert_eq!(connection.id.0, first_id + offset as u64);
        classifier.push_connection(
            connection.id,
            connection.initial_origin.host,
            connection.remote_ip,
            connection.port,
            connection.established_at,
            connection.closed_at,
            connection.established_at,
            &connection.certificate,
        );
    }
    for request in scratch.requests() {
        classifier.bump_last_request((request.connection.0 - first_id) as usize, request.started_at);
    }
    classifier.classify(model)
}

/// A seeded multi-page navigation trace. Its RNG streams fork off
/// `root_seed + seed_offset` under the experiment's own labels — stream
/// names, so they never change — and consume identically in every cell,
/// which replay the same pages at the same simulated instants.
pub(crate) struct SessionTrace {
    /// The experiment's root seed.
    pub root_seed: u64,
    /// The experiment's session-stream seed offset.
    pub seed_offset: u64,
    /// Sessions to drive (each 2–7 pages).
    pub sessions: usize,
    /// Fork label of the per-session navigation stream.
    pub nav_label: &'static str,
    /// Fork label of the per-session in-visit streams.
    pub visit_label: &'static str,
}

/// What driving one cell's sessions produced.
pub(crate) struct SessionRecord {
    /// Cross-page cost aggregate over every session.
    pub totals: SessionTotals,
    /// Pool lifecycle counters (all zero on the cold path).
    pub lifecycle: PoolLifecycleStats,
    /// Pages on which at least one resource exhausted its retry budget.
    pub degraded_pages: u64,
}

/// Pick the next page of a session: revisit a page already seen with
/// probability [`REVISIT_PROBABILITY`], otherwise navigate somewhere new.
fn choose_site(rng: &mut SimRng, visited: &[usize], sites: usize) -> usize {
    if !visited.is_empty() && rng.chance(REVISIT_PROBABILITY) {
        *rng.pick(visited).expect("visited is non-empty")
    } else {
        rng.in_range(0..sites)
    }
}

/// Drive `trace.sessions` multi-page sessions over `env` under
/// `browser_config`: warm through one [`UserSession`] with the given pool
/// policy, or cold through the per-visit path (caches reset every page) when
/// `pool` is `None`. The navigation draws — sites, page counts, dwells,
/// simulated instants — are identical in every cell; only the consequences
/// of deployment, policy and fault streams differ.
pub(crate) fn drive_sessions(
    scratch: &mut VisitScratch,
    env: &WebEnvironment,
    browser_config: &BrowserConfig,
    trace: &SessionTrace,
    pool: Option<PoolConfig>,
) -> SessionRecord {
    let root = SimRng::new(trace.root_seed + trace.seed_offset);
    let mut totals = SessionTotals::new();
    let mut session = pool.map(UserSession::new);
    let mut visited: Vec<usize> = Vec::new();
    let mut degraded_pages = 0u64;

    for session_index in 0..trace.sessions as u64 {
        let mut nav_rng = root.fork_indexed(trace.nav_label, session_index);
        let visit_streams = root.fork_indexed(trace.visit_label, session_index);
        let mut clock =
            SimClock::starting_at(Instant::EPOCH + Duration::from_secs(SESSION_SPACING_SECS * session_index));
        let mut browser = Browser::with_id_base(browser_config.clone(), session_index * ID_STRIDE);
        visited.clear();

        let pages = nav_rng.in_range(2..=7usize);
        for page in 0..pages as u64 {
            let site_index = choose_site(&mut nav_rng, &visited, env.sites.len());
            visited.push(site_index);
            let mut page_rng = visit_streams.fork_indexed("page", page);
            let site = &env.sites[site_index];
            match session.as_mut() {
                Some(session) => {
                    browser.load_session_page_into(scratch, session, env, site, &mut clock, &mut page_rng);
                }
                None => {
                    browser.load_page_into(scratch, env, site, &mut clock, &mut page_rng);
                }
            }
            totals.absorb_page(scratch.timeline());
            if !scratch.outcome().is_complete() {
                degraded_pages += 1;
            }
            // Dwell before the next navigation (drawn even after the last
            // page so the trace stays cell-invariant).
            let dwell = nav_rng.in_range(5..=120u64);
            clock.advance(Duration::from_secs(dwell));
        }
        if let Some(session) = session.as_mut() {
            session.end(scratch, clock.now());
        }
        totals.end_session();
    }

    let lifecycle = session.map(|mut session| session.take_stats()).unwrap_or_default();
    SessionRecord { totals, lifecycle, degraded_pages }
}

/// Run one task inside a `Stage::ChunkLoop` envelope — the wall-clock total
/// interior stages must sum under — then merge the worker's stage table
/// into the process-wide one (one mutex hop per task; worker threads die
/// with the run, their thread-local tables must not die with them).
fn in_chunk_envelope<R>(task: impl FnOnce() -> R) -> R {
    let guard = netsim_types::profile::enter(Stage::ChunkLoop);
    let result = task();
    drop(guard);
    netsim_types::profile::flush_local();
    result
}

/// Run `tasks` task indices on the work-stealing executor over `threads`
/// workers, each holding one pooled [`ColdWorker`]. `results[i]` is what
/// task `i` returned, whichever worker ran it.
pub(crate) fn run_tasks<R, F>(threads: usize, tasks: usize, task: F) -> RunOutcome<R>
where
    R: Send,
    F: Fn(&mut ColdWorker<'_>, usize) -> R + Sync,
{
    let pool = ScratchPool::without_netlog();
    run_indexed(
        threads,
        tasks,
        |_worker| ColdWorker::from_pool(&pool),
        |worker, index| in_chunk_envelope(|| task(worker, index)),
    )
}

/// [`run_tasks`], streaming each `(index, result)` to `consume` on the
/// caller thread through a bounded channel of `capacity` results: workers
/// block when the consumer lags instead of buffering unboundedly.
pub(crate) fn stream_tasks<R, F, C>(threads: usize, tasks: usize, capacity: usize, task: F, consume: C)
where
    R: Send,
    F: Fn(&mut ColdWorker<'_>, usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let pool = ScratchPool::without_netlog();
    run_indexed_streaming(
        threads,
        tasks,
        capacity,
        |_worker| ColdWorker::from_pool(&pool),
        |worker, index| in_chunk_envelope(|| task(worker, index)),
        consume,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_covers_the_population_exactly() {
        let chunks = chunk_ranges(50, 16);
        assert_eq!(chunks, vec![(0, 16), (16, 16), (32, 16), (48, 2)]);
        assert_eq!(chunks.iter().map(|(_, len)| len).sum::<usize>(), 50);
        assert_eq!(chunk_ranges(0, 16), vec![]);
        // A zero chunk size degrades to one site per chunk, never a panic.
        assert_eq!(chunk_ranges(3, 0), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn cold_records_merge_in_any_partition() {
        // Folding the whole population at once equals merging per-chunk
        // folds, and the shard round trip is lossless.
        let deployments = DeploymentCache::standard();
        let crawler = Crawler::new("engine", BrowserConfig::alexa_measurement(), 17);
        let outcome = run_tasks(2, 3, |worker, index| {
            let range = [(0, 24), (0, 10), (10, 14)][index];
            worker.fold(&crawler, &atlas_population(7, 0.35, range, MitigationSet::empty(), &deployments))
        });
        let [whole, head, tail] = <[ColdRecord; 3]>::try_from(outcome.results).expect("three tasks");
        let mut merged = head.clone();
        merged.merge(&tail);
        assert_eq!(merged, whole);
        assert_eq!(whole.accumulator.observed_sites(), 24);
        assert_eq!(whole.cost.visits, 24);
        assert_eq!(whole.cost.sums.requests, whole.requests);
        assert_eq!(ColdRecord::from_shard(&whole.to_shard(MitigationSet::all(), 2)), whole);
    }

    #[test]
    fn cold_and_warm_sessions_replay_the_same_trace() {
        let env = alexa_population(20, 3, MitigationSet::empty());
        let trace = SessionTrace {
            root_seed: 3,
            seed_offset: 40,
            sessions: 6,
            nav_label: "engine-nav",
            visit_label: "engine-visit",
        };
        let mut scratch = VisitScratch::without_netlog();
        let config = BrowserConfig::alexa_measurement();
        let cold = drive_sessions(&mut scratch, &env, &config, &trace, None);
        let warm = drive_sessions(&mut scratch, &env, &config, &trace, Some(PoolConfig::default()));
        assert_eq!(cold.totals.sessions, 6);
        assert_eq!(cold.totals.pages(), warm.totals.pages());
        assert_eq!(cold.lifecycle, PoolLifecycleStats::default());
        assert!(warm.lifecycle.lent > 0);
        assert!(warm.totals.totals.sums.connections_opened < cold.totals.totals.sums.connections_opened);
        assert_eq!((cold.degraded_pages, warm.degraded_pages), (0, 0));
        // Driving is a pure function of the trace: a second run through the
        // same (now warm) arena reproduces the first.
        let again = drive_sessions(&mut scratch, &env, &config, &trace, Some(PoolConfig::default()));
        assert_eq!(again.totals, warm.totals);
        assert_eq!(again.lifecycle, warm.lifecycle);
    }
}
