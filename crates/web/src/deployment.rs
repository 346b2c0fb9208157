//! Memoized deployments: issue the state every chunk of a population shares
//! **once** and layer each chunk over it.
//!
//! Generating a population installs three kinds of state into the
//! environment, bottom to top:
//!
//! 1. the **misc third-party pool** (`cdn.thirdparty-NNNN.net`): one zone,
//!    one /24 and one certificate per pool domain. Each entry is a pure
//!    function of (seed, pool index), and the pool is installed whole, in
//!    index order — so it depends on (seed, pool size) only, not on the
//!    mitigation set;
//! 2. the **service catalog** under one mitigation set: zones, certificates
//!    and AS prefixes of every third-party service;
//! 3. the **per-site** state: first-party zones and certificates, request
//!    plans.
//!
//! The atlas scale scenario builds its population in hundreds of chunks.
//! A [`DeploymentCache`] issues one [`MiscPool`] per (seed, pool size) and
//! shares it with every deployment it hands out; a [`SharedDeployment`]
//! layers its catalog over that pool once per (seed, pool size) as a
//! [`DeploymentLayers`]; every chunk then layers its own state on top via
//! the base-sharing support in [`netsim_dns::Authority`],
//! [`netsim_tls::CertificateStore`] and [`netsim_asdb::AsRegistry`]. Chunk
//! generation is O(sites in the chunk).
//!
//! Ids and prefixes continue across layers, and the monolithic
//! [`crate::PopulationBuilder::build`] installs the same misc → catalog →
//! sites order into one flat environment, so the two are observationally
//! identical — property-tested in
//! `crates/web/tests/deployment_equivalence.rs`.

use crate::population::{install_misc_pool, install_service};
use crate::services::ServiceCatalog;
use netsim_asdb::AsRegistry;
use netsim_dns::Authority;
use netsim_tls::CertificateStore;
use netsim_types::{DomainName, MitigationSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The misc third-party pool of one (seed, pool size), issued into
/// standalone structures: the bottom layer of every [`DeploymentLayers`].
#[derive(Debug)]
pub struct MiscPool {
    /// One zone entry per pool domain.
    pub authority: Arc<Authority>,
    /// One certificate per pool domain (ids `0..len`).
    pub certificates: Arc<CertificateStore>,
    /// One /24 per pool domain (blocks `0..len`).
    pub registry: Arc<AsRegistry>,
    domains: Vec<DomainName>,
}

impl MiscPool {
    fn issue(seed: u64, size: usize) -> MiscPool {
        let mut authority = Authority::new();
        let mut certificates = CertificateStore::new();
        let mut registry = AsRegistry::new();
        let domains = install_misc_pool(&mut authority, &mut certificates, &mut registry, seed, size);
        MiscPool {
            authority: Arc::new(authority),
            certificates: Arc::new(certificates),
            registry: Arc::new(registry),
            domains,
        }
    }

    /// The pool's domains, by pool index.
    pub fn domains(&self) -> &[DomainName] {
        &self.domains
    }
}

/// A concurrent memo of [`MiscPool`]s keyed by (seed, pool size), owned by
/// one [`DeploymentCache`] and shared with every deployment it issues.
#[derive(Debug, Default)]
struct MiscPools(Mutex<HashMap<(u64, usize), Arc<MiscPool>>>);

impl MiscPools {
    fn pool(&self, seed: u64, size: usize) -> Arc<MiscPool> {
        let mut pools = self.0.lock().expect("misc pool memo poisoned");
        Arc::clone(pools.entry((seed, size)).or_insert_with(|| Arc::new(MiscPool::issue(seed, size))))
    }
}

/// The service catalog under one mitigation set, layered over one misc
/// pool: what a chunk's environment layers its per-site state over.
#[derive(Debug)]
pub struct DeploymentLayers {
    /// Catalog zones over the pool's.
    pub authority: Arc<Authority>,
    /// Catalog certificates over the pool's (ids continue after it).
    pub certificates: Arc<CertificateStore>,
    /// Catalog prefixes over the pool's (blocks continue after it).
    pub registry: Arc<AsRegistry>,
    /// The misc pool underneath.
    pub misc: Arc<MiscPool>,
}

/// The shareable deployment of one service catalog under one mitigation
/// set. Its layers are issued lazily per (seed, misc pool size), the two
/// inputs only a population builder knows.
#[derive(Debug)]
pub struct SharedDeployment {
    /// The (already mitigated) catalog this deployment was issued from.
    pub catalog: ServiceCatalog,
    /// The mitigation set the deployment was issued under.
    pub mitigations: MitigationSet,
    misc: Arc<MiscPools>,
    layers: Mutex<HashMap<(u64, usize), Arc<DeploymentLayers>>>,
}

impl SharedDeployment {
    /// The catalog layered over the misc pool of `(seed, misc_pool)`,
    /// issuing both on first use.
    pub fn layers(&self, seed: u64, misc_pool: usize) -> Arc<DeploymentLayers> {
        let mut layers = self.layers.lock().expect("deployment layers poisoned");
        Arc::clone(layers.entry((seed, misc_pool)).or_insert_with(|| {
            let misc = self.misc.pool(seed, misc_pool);
            let mut authority = Authority::with_base(Arc::clone(&misc.authority));
            let mut certificates = CertificateStore::with_base(Arc::clone(&misc.certificates));
            let mut registry = AsRegistry::with_base(Arc::clone(&misc.registry));
            for service in self.catalog.services() {
                install_service(&mut authority, &mut certificates, &mut registry, service);
            }
            Arc::new(DeploymentLayers {
                authority: Arc::new(authority),
                certificates: Arc::new(certificates),
                registry: Arc::new(registry),
                misc,
            })
        }))
    }
}

/// A concurrent memo of [`SharedDeployment`]s keyed by mitigation set, for
/// one service catalog, plus the misc pools all of them share. Every request
/// for an issued mitigation set is a map lookup plus an `Arc` clone, so
/// generating a population in N chunks issues the catalog and the misc pool
/// once instead of N times. Dropping the cache frees both.
#[derive(Debug)]
pub struct DeploymentCache {
    catalog: ServiceCatalog,
    misc: Arc<MiscPools>,
    cells: Mutex<HashMap<MitigationSet, Arc<SharedDeployment>>>,
}

impl DeploymentCache {
    /// A cache issuing deployments of `catalog`.
    pub fn new(catalog: ServiceCatalog) -> Self {
        DeploymentCache { catalog, misc: Arc::default(), cells: Mutex::new(HashMap::new()) }
    }

    /// A cache for the standard catalog (what every scenario uses).
    pub fn standard() -> Self {
        DeploymentCache::new(ServiceCatalog::standard())
    }

    /// The memoized deployment for `mitigations`, issuing it on first use.
    pub fn deployment(&self, mitigations: MitigationSet) -> Arc<SharedDeployment> {
        let mut cells = self.cells.lock().expect("deployment cache poisoned");
        Arc::clone(cells.entry(mitigations).or_insert_with(|| {
            Arc::new(SharedDeployment {
                catalog: self.catalog.with_mitigations(mitigations),
                mitigations,
                misc: Arc::clone(&self.misc),
                layers: Mutex::new(HashMap::new()),
            })
        }))
    }

    /// Number of distinct mitigation sets issued so far.
    pub fn issued(&self) -> usize {
        self.cells.lock().expect("deployment cache poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::Mitigation;

    #[test]
    fn deployments_are_issued_once_per_mitigation_set() {
        let cache = DeploymentCache::standard();
        let a = cache.deployment(MitigationSet::empty());
        let b = cache.deployment(MitigationSet::empty());
        assert!(Arc::ptr_eq(&a, &b), "same mitigation set must share one deployment");
        assert_eq!(cache.issued(), 1);
        let c = cache.deployment(MitigationSet::single(Mitigation::SynchronizedDns));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.issued(), 2);
        assert!(Arc::ptr_eq(&a.layers(7, 40), &a.layers(7, 40)));
        assert!(!Arc::ptr_eq(&a.layers(7, 40).misc, &a.layers(8, 40).misc));
    }

    #[test]
    fn layers_stack_the_catalog_over_the_misc_pool() {
        let cache = DeploymentCache::standard();
        let layers = cache.deployment(MitigationSet::empty()).layers(3, 50);
        assert_eq!(layers.misc.domains().len(), 50);
        assert_eq!(layers.misc.authority.name_count(), 50);
        assert_eq!(layers.misc.certificates.len(), 50);
        assert!(layers.authority.zone_count() > 0);
        assert!(layers.certificates.len() > 50);
        let analytics = DomainName::literal("www.google-analytics.com");
        assert!(layers.authority.knows(&analytics));
        assert!(layers.certificates.has_coverage(&analytics));
        // The pool answers through the catalog layer.
        let misc = layers.misc.domains()[17];
        assert_eq!(misc.as_str(), "cdn.thirdparty-0017.net");
        assert!(layers.authority.knows(&misc));
        assert_eq!(layers.certificates.select_for_sni(&misc).unwrap().id.0, 17);
    }
}
