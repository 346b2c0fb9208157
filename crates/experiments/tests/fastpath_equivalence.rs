//! Property test: the streaming visit classifier
//! ([`connreuse_core::FastVisitClassifier`]) folded through
//! [`connreuse_core::Accumulator::observe_counts`] produces exactly the same
//! accumulator as the batch pipeline (`PageVisit` → `site_from_visit` →
//! `classify_site` → `observe`) over real generated page loads.
//!
//! This is the equivalence the atlas scale scenario's byte-identical golden
//! report rests on: the fast path must agree with the reference pipeline on
//! every visit, across duration models, profiles and seeds — and, because
//! every cold experiment (sweep included) folds through the same engine,
//! under every mitigation deployment.

use connreuse_core::{classify_site, site_from_visit, Accumulator, DurationModel, FastVisitClassifier};
use connreuse_experiments::atlas::classify_scratch;
use connreuse_experiments::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_experiments::sweep::{run_sweep, SweepConfig};
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_types::MitigationSet;
use netsim_web::{PopulationBuilder, PopulationProfile};
use proptest::prelude::*;

fn duration_model(index: u8) -> DurationModel {
    match index % 3 {
        0 => DurationModel::Endless,
        1 => DurationModel::Immediate,
        _ => DurationModel::Recorded,
    }
}

proptest! {
    #[test]
    fn fast_classifier_matches_batch_pipeline(
        seed in 0u64..500,
        crawl_seed in 0u64..500,
        sites in 1usize..12,
        profile_index in 0u8..2,
        model_index in 0u8..3,
    ) {
        let profile =
            if profile_index == 0 { PopulationProfile::alexa() } else { PopulationProfile::archive() };
        let model = duration_model(model_index);
        let env = PopulationBuilder::new(profile, sites, seed).build();
        let crawler = Crawler::new("equivalence", BrowserConfig::alexa_measurement(), crawl_seed);

        let mut scratch = VisitScratch::without_netlog();
        let mut classifier = FastVisitClassifier::new();
        let mut fast = Accumulator::new();
        let mut batch = Accumulator::new();

        for index in 0..env.sites.len() {
            let times = crawler.visit_site_into(&mut scratch, &env, index);

            // Fast path: classify straight from the scratch buffers,
            // through the same helper production uses.
            prop_assert!(scratch.all_ok(), "simulated responses are always 200");
            fast.observe_counts(&classify_scratch(&mut classifier, &scratch, model));

            // Batch path: materialise the full visit and run the reference
            // pipeline.
            let visit = scratch.to_page_visit(&env.sites[index], times);
            batch.observe(&classify_site(&site_from_visit(&visit), model));
        }

        prop_assert_eq!(&fast, &batch, "accumulators diverge");
        prop_assert_eq!(fast.clone().finish("x"), batch.clone().finish("x"));
    }

    #[test]
    fn engine_cold_fold_matches_batch_pipeline_under_every_deployment(
        seed in 0u64..500,
        sites in 1usize..8,
        combo in 0usize..MitigationSet::COMBINATIONS,
        threads in 1usize..3,
    ) {
        // The sweep cell is the engine's cold fold (streaming classifier,
        // HTTP-421 fallback included) over the deployment's population.
        let mitigations = MitigationSet::all_combinations()[combo];
        let report = run_sweep(&SweepConfig { sites, seed, threads });
        let fast = &report.cell(mitigations).summary;

        // The reference: the same population and browser policy, every
        // visit materialised and classified through the batch pipeline.
        let env = PopulationBuilder::new(
            PopulationProfile::alexa(),
            sites,
            seed + ALEXA_POPULATION_SEED_OFFSET,
        )
        .with_mitigations(mitigations)
        .build();
        let label = mitigations.label();
        let crawler = Crawler::new(
            &label,
            BrowserConfig::with_mitigations(mitigations),
            seed + ALEXA_CRAWL_SEED_OFFSET,
        );
        let mut batch = Accumulator::new();
        for index in 0..env.sites.len() {
            let visit = crawler.visit_site(&env, index);
            batch.observe(&classify_site(&site_from_visit(&visit), DurationModel::Recorded));
        }

        prop_assert_eq!(batch.observed_sites(), sites);
        prop_assert_eq!(fast, &batch.finish(&label), "deployment {}", label);
    }
}
