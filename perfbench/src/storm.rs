//! The serve-storm inputs: the store it queries and the seeded query mix.

use connreuse_experiments::store::{StoreConfig, StoreQuery};
use netsim_types::SimRng;
use std::collections::HashSet;

/// The demo-ladder store the storm queries: `StoreConfig::quick()` resized
/// to 10 k sites in 100 chunks, seeded by the workload seed. `threads` is
/// the fold (and build) worker count; it is not part of the fingerprint.
pub fn config(seed: u64, threads: usize) -> StoreConfig {
    StoreConfig { sites: 10_000, chunk_sites: 100, seed, threads, ..StoreConfig::quick() }
}

/// `count` queries drawn uniformly over what the store holds: a stored
/// deployment, a link profile and a chunk-aligned rank slice (an unordered
/// pair of distinct chunk boundaries).
pub fn query_mix(config: &StoreConfig, seed: u64, count: usize) -> Vec<StoreQuery> {
    let mut rng = SimRng::new(seed).fork("perfbench-storm");
    let mut bounds: Vec<u64> = config.chunks().iter().map(|&(start, _)| start as u64).collect();
    bounds.push(config.sites as u64);
    let profiles = config.profiles().len();
    (0..count)
        .map(|_| {
            let mitigations = *rng.pick(&config.mitigations).expect("the store prices a deployment");
            let profile_index = rng.in_range(0..profiles);
            let (a, b) = loop {
                let a = rng.in_range(0..bounds.len());
                let b = rng.in_range(0..bounds.len());
                if a != b {
                    break (a.min(b), a.max(b));
                }
            };
            StoreQuery { mitigations, profile_index, lo: bounds[a], hi: bounds[b] }
        })
        .collect()
}

/// The query lines a client would send (`--serve` reads one per line).
pub fn query_lines(config: &StoreConfig, queries: &[StoreQuery]) -> Vec<String> {
    queries.iter().map(|query| query.render(config)).collect()
}

/// Share of the storm's (cell, slice) pairs seen for the first time — the
/// most a cache of whole answers could skip is `1 - distinct_share`.
pub fn distinct_share(queries: &[StoreQuery]) -> f64 {
    let mut seen = HashSet::new();
    let fresh =
        queries.iter().filter(|q| seen.insert((q.mitigations.bits(), q.profile_index, q.lo, q.hi))).count();
    fresh as f64 / queries.len().max(1) as f64
}

/// Indices of up to `count` narrow queries (at most two chunks), spread
/// evenly over the storm, whose answers are re-derived without the store.
pub fn narrow_sample(config: &StoreConfig, queries: &[StoreQuery], count: usize) -> Vec<usize> {
    let narrow = 2 * config.chunk_sites as u64;
    let candidates: Vec<usize> =
        (0..queries.len()).filter(|&i| queries[i].hi - queries[i].lo <= narrow).collect();
    if count == 0 || candidates.is_empty() {
        return Vec::new();
    }
    let step = (candidates.len() / count).max(1);
    candidates.into_iter().step_by(step).take(count).collect()
}
