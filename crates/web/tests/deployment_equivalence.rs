//! Property test: building a population on a memoized [`SharedDeployment`]
//! is observationally identical to issuing the service catalog per build.
//!
//! The layered build shares the catalog's DNS zones, certificates and AS
//! prefixes across chunks (`PopulationBuilder::with_shared_deployment`), so
//! everything a browser can observe — the generated sites, DNS answers over
//! time, SNI certificate selection and IP→AS attribution — must match the
//! monolithic build exactly. The atlas scenario's byte-identical reports
//! depend on precisely this equivalence.

use netsim_asdb::AutonomousSystem;
use netsim_dns::{QueryContext, ResolverId, ResourceRecord, Vantage};
use netsim_tls::Certificate;
use netsim_types::{DomainName, Duration, Instant, Mitigation, MitigationSet};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, WebEnvironment};
use proptest::prelude::*;
use std::sync::Arc;

/// Build the same population slice both ways.
fn both_builds(
    profile: PopulationProfile,
    sites: usize,
    offset: usize,
    seed: u64,
    mitigations: MitigationSet,
) -> (WebEnvironment, WebEnvironment) {
    let monolithic = PopulationBuilder::new(profile.clone(), sites, seed)
        .with_site_offset(offset)
        .with_mitigations(mitigations)
        .build();
    let cache = DeploymentCache::standard();
    let layered = PopulationBuilder::new(profile, sites, seed)
        .with_site_offset(offset)
        .with_mitigations(mitigations)
        .with_shared_deployment(cache.deployment(mitigations))
        .build();
    (monolithic, layered)
}

/// A small pool of mitigation sets covering the deployment-affecting axes.
fn mitigation_set(index: u8) -> MitigationSet {
    match index % 4 {
        0 => MitigationSet::empty(),
        1 => MitigationSet::single(Mitigation::SynchronizedDns),
        2 => MitigationSet::single(Mitigation::CertificateCoalescing),
        _ => MitigationSet::all(),
    }
}

proptest! {

    #[test]
    fn memoized_deployment_is_observationally_identical(
        seed in 0u64..1_000,
        sites in 1usize..24,
        offset_index in 0usize..3,
        profile_index in 0u8..2,
        mitigation_index in 0u8..4,
    ) {
        let offset = [0usize, 17, 1_000][offset_index];
        let profile =
            if profile_index == 0 { PopulationProfile::alexa() } else { PopulationProfile::archive() };
        let mitigations = mitigation_set(mitigation_index);
        let (monolithic, layered) = both_builds(profile, sites, offset, seed, mitigations);

        // Same sites, same plans (the generator streams must be untouched).
        prop_assert_eq!(&monolithic.sites, &layered.sites);

        // Same certificate inventory size and same SNI selection + coverage
        // for every domain any site contacts.
        prop_assert_eq!(monolithic.certificates.len(), layered.certificates.len());
        for site in &monolithic.sites {
            for request in &site.plan {
                let mono_cert = monolithic.certificate_for(&request.domain);
                let layer_cert = layered.certificate_for(&request.domain);
                prop_assert_eq!(mono_cert, layer_cert, "certificate for {}", request.domain);

                // Same DNS answers at several instants (load balancing is
                // time- and resolver-dependent; equality must hold across
                // epochs and resolver identities).
                for (resolver, minutes) in [(1u32, 0u64), (1, 31), (2, 7), (1000, 123)] {
                    let ctx = QueryContext::new(
                        ResolverId(resolver),
                        Vantage::Europe,
                        Instant::EPOCH + Duration::from_mins(minutes),
                    );
                    let mono_answer = monolithic.authority.query(&request.domain, &ctx);
                    let layer_answer = layered.authority.query(&request.domain, &ctx);
                    prop_assert_eq!(
                        &mono_answer, &layer_answer,
                        "answers diverge for {} at {} min via resolver {}",
                        request.domain, minutes, resolver
                    );

                    // Same IP→AS attribution for every answered address.
                    for record in &mono_answer {
                        if let Some(ip) = record.data.as_a() {
                            prop_assert_eq!(monolithic.asn_for(ip), layered.asn_for(ip));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn chunked_layered_builds_match_one_monolithic_build() {
    // Chunks over a shared deployment assemble the same population a single
    // monolithic build produces — per chunk, site for site.
    let cache = DeploymentCache::standard();
    let profile = PopulationProfile::archive();
    let whole = PopulationBuilder::new(profile.clone(), 30, 99).build();
    for start in (0..30).step_by(10) {
        let chunk = PopulationBuilder::new(profile.clone(), 10, 99)
            .with_site_offset(start)
            .with_shared_deployment(cache.deployment(MitigationSet::empty()))
            .build();
        for (local, site) in chunk.sites.iter().enumerate() {
            assert_eq!(site, &whole.sites[start + local], "site {} diverges", start + local);
        }
    }
}

/// The (resolver, minute) points the properties above query DNS at.
const DNS_PROBES: [(u32, u64); 4] = [(1, 0), (1, 31), (2, 7), (1000, 123)];

/// Everything a browser can observe about `domain` in `env`: the DNS answer
/// at every probe point, the SNI certificate, and the AS of each answered
/// address.
fn observe(
    env: &WebEnvironment,
    domain: &DomainName,
) -> (Vec<Vec<ResourceRecord>>, Option<Certificate>, Vec<Option<AutonomousSystem>>) {
    let answers: Vec<Vec<ResourceRecord>> = DNS_PROBES
        .iter()
        .map(|(resolver, minutes)| {
            let ctx = QueryContext::new(
                ResolverId(*resolver),
                Vantage::Europe,
                Instant::EPOCH + Duration::from_mins(*minutes),
            );
            env.authority.query(domain, &ctx)
        })
        .collect();
    let systems = answers
        .iter()
        .flatten()
        .filter_map(|record| record.data.as_a())
        .map(|ip| env.asn_for(ip).cloned())
        .collect();
    (answers, env.certificate_for(domain).cloned(), systems)
}

#[test]
fn mitigation_sets_share_one_misc_layer() {
    let cache = DeploymentCache::standard();
    let (seed, sites, offset) = (31, 12, 40);
    let profile = PopulationProfile::archive();
    let pool = profile.misc_third_party_pool;
    let sets = [MitigationSet::empty(), MitigationSet::all()];
    let build = |mitigations: MitigationSet, shared: bool| {
        let builder = PopulationBuilder::new(profile.clone(), sites, seed)
            .with_site_offset(offset)
            .with_mitigations(mitigations);
        if shared {
            builder.with_shared_deployment(cache.deployment(mitigations)).build()
        } else {
            builder.build()
        }
    };
    let chunks: Vec<WebEnvironment> = sets.iter().map(|m| build(*m, true)).collect();

    // Both deployments sit on the one misc layer the cache issued.
    let first = cache.deployment(sets[0]).layers(seed, pool);
    let second = cache.deployment(sets[1]).layers(seed, pool);
    assert!(Arc::ptr_eq(&first.misc, &second.misc), "mitigation sets must share one misc layer");
    let misc_domains = first.misc.domains();
    assert_eq!(misc_domains.len(), pool);

    // Every misc domain answers identically under both mitigation sets.
    for domain in misc_domains {
        let observed = observe(&chunks[0], domain);
        assert!(
            !observed.0[0].is_empty() && observed.1.is_some(),
            "{domain} must resolve and have a certificate"
        );
        assert_eq!(
            observed,
            observe(&chunks[1], domain),
            "misc domain {domain} diverges across mitigation sets"
        );
    }

    // And each layered chunk equals the non-shared build of the same slice.
    for (mitigations, chunk) in sets.iter().zip(&chunks) {
        let flat = build(*mitigations, false);
        assert_eq!(flat.sites, chunk.sites);
        assert_eq!(flat.certificates.len(), chunk.certificates.len());
        let planned = flat.sites.iter().flat_map(|site| site.plan.iter().map(|request| request.domain));
        for domain in misc_domains.iter().copied().chain(planned) {
            assert_eq!(
                observe(&flat, &domain),
                observe(chunk, &domain),
                "{domain} diverges under {mitigations:?}"
            );
        }
    }
}
