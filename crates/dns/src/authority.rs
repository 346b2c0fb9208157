//! The authoritative side of the simulated DNS.
//!
//! [`Authority`] holds every owner name of a simulation run. Recursive
//! resolvers send it name queries together with a [`QueryContext`]; it finds
//! the entry for the name and returns the matching records. Zone cuts and
//! delegation latency are not modelled — the analysis only depends on *which
//! addresses* come back, not on how many referrals it took to find them.

use crate::query::QueryContext;
use crate::record::ResourceRecord;
use crate::zone::ZoneEntry;
use netsim_types::{DomainMap, DomainName};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The authoritative data of a run: one [`ZoneEntry`] per owner name.
///
/// Entries are indexed flat by owner name, so an exact query costs one hash
/// probe per layer and never walks the name's ancestors. Zones are implicit:
/// every name belongs to the zone of its registrable domain
/// ([`DomainName::registrable`]), which is all [`Authority::zone_count`]
/// needs.
///
/// An authority can be *layered* on top of a shared, immutable base
/// ([`Authority::with_base`]), and bases can themselves be layered. The
/// layers must hold **disjoint** name sets (asserted in debug builds on
/// insertion). The population generator uses this to issue the misc
/// third-party pool once per run and the service catalog once per
/// mitigation set, and to share both across every chunk of a large
/// population instead of reinstalling them per chunk.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Authority {
    /// This layer's entries by owner name.
    entries: DomainMap<ZoneEntry>,
    /// Shared read-only layers consulted when this one has no entry.
    base: Option<Arc<Authority>>,
}

impl Authority {
    /// An authority with no zones.
    pub fn new() -> Self {
        Authority::default()
    }

    /// An empty authority layered over a shared base. The layers' name sets
    /// must stay disjoint (debug-asserted in [`Authority::insert_entry`]).
    pub fn with_base(base: Arc<Authority>) -> Self {
        Authority { entries: DomainMap::new(), base: Some(base) }
    }

    /// Insert (or replace) the entry for `name`, in the zone of the name's
    /// registrable domain.
    pub fn insert_entry(&mut self, name: DomainName, entry: ZoneEntry) {
        debug_assert!(
            self.base.as_ref().is_none_or(|base| !base.knows(&name)),
            "layered authority inserted {name}, which the shared base already answers"
        );
        self.entries.insert(name, entry);
    }

    /// Number of zones (distinct registrable domains) in this layer.
    pub fn zone_count(&self) -> usize {
        self.entries.keys().map(DomainName::registrable).collect::<BTreeSet<_>>().len()
    }

    /// Total number of owner names in this layer.
    pub fn name_count(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `name` in this layer or any base layer.
    fn entry(&self, name: &DomainName) -> Option<&ZoneEntry> {
        let mut layer = self;
        loop {
            if let Some(entry) = layer.entries.get(name) {
                return Some(entry);
            }
            layer = layer.base.as_deref()?;
        }
    }

    /// Answer a query: the records for `name` under `ctx`, or an empty vector
    /// for names nobody is authoritative for (NXDOMAIN).
    pub fn query(&self, name: &DomainName, ctx: &QueryContext) -> Vec<ResourceRecord> {
        let mut records = Vec::new();
        self.query_into(name, ctx, &mut records);
        records
    }

    /// Like [`Authority::query`], but appends the records to `out` instead of
    /// allocating a fresh vector — the resolver hot path reuses one buffer
    /// across lookups.
    pub fn query_into(&self, name: &DomainName, ctx: &QueryContext, out: &mut Vec<ResourceRecord>) {
        if let Some(entry) = self.entry(name) {
            entry.records_into(name, ctx, out);
        }
    }

    /// `true` if some layer has an entry for `name`.
    pub fn knows(&self, name: &DomainName) -> bool {
        self.entry(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalance::LoadBalancePolicy;
    use crate::query::{ResolverId, Vantage};
    use netsim_types::{Instant, IpAddr};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn ctx() -> QueryContext {
        QueryContext::new(ResolverId(0), Vantage::Europe, Instant::EPOCH)
    }

    fn authority() -> Authority {
        let mut auth = Authority::new();
        auth.insert_entry(d("example.com"), ZoneEntry::single(IpAddr::new(192, 0, 2, 1)));
        auth.insert_entry(d("www.example.com"), ZoneEntry::alias(d("example.com")));
        auth.insert_entry(
            d("cdn.provider.net"),
            ZoneEntry::balanced(LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 7))),
        );
        auth
    }

    #[test]
    fn zones_are_created_per_registrable_domain() {
        let auth = authority();
        assert_eq!(auth.zone_count(), 2);
        assert_eq!(auth.name_count(), 3);
        assert!(auth.knows(&d("www.example.com")));
        assert!(!auth.knows(&d("mail.example.com")));
        assert!(!auth.knows(&d("unknown.org")));
    }

    #[test]
    fn query_returns_records_or_nxdomain() {
        let auth = authority();
        let records = auth.query(&d("example.com"), &ctx());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].data.as_a(), Some(IpAddr::new(192, 0, 2, 1)));
        let alias = auth.query(&d("www.example.com"), &ctx());
        assert_eq!(alias[0].data.as_cname(), Some(&d("example.com")));
        assert!(auth.query(&d("nothing.example.org"), &ctx()).is_empty());
        // Name under a known zone but without an entry: empty answer.
        assert!(auth.query(&d("mail.example.com"), &ctx()).is_empty());
    }

    #[test]
    fn layered_lookups_consult_every_base() {
        let mut bottom = Authority::new();
        bottom.insert_entry(d("cdn.thirdparty.net"), ZoneEntry::single(IpAddr::new(198, 51, 100, 1)));
        let mut middle = Authority::with_base(Arc::new(bottom));
        middle.insert_entry(d("www.service.com"), ZoneEntry::single(IpAddr::new(198, 51, 100, 2)));
        let mut top = Authority::with_base(Arc::new(middle));
        top.insert_entry(d("site.example"), ZoneEntry::alias(d("www.service.com")));
        for name in ["cdn.thirdparty.net", "www.service.com", "site.example"] {
            assert!(top.knows(&d(name)), "{name} must resolve through the layers");
            assert_eq!(top.query(&d(name), &ctx()).len(), 1);
        }
        assert!(!top.knows(&d("missing.example")));
        // Counts are per layer.
        assert_eq!(top.name_count(), 1);
        assert_eq!(top.zone_count(), 1);
    }

    #[test]
    fn serialization_is_independent_of_insertion_order() {
        // Intern in reverse textual order so intern-id (hash) order and
        // textual order disagree, then insert forwards and backwards.
        let names: Vec<String> = (0..48).map(|i| format!("serde-{i:02}.example.net")).collect();
        for name in names.iter().rev() {
            d(name);
        }
        let entry = |i: usize| ZoneEntry::single(IpAddr::new(192, 0, 2, i as u8));
        let mut forward = Authority::new();
        for (i, name) in names.iter().enumerate() {
            forward.insert_entry(d(name), entry(i));
        }
        let mut backward = Authority::new();
        for (i, name) in names.iter().enumerate().rev() {
            backward.insert_entry(d(name), entry(i));
        }
        let json = serde_json::to_string(&forward).unwrap();
        assert_eq!(json, serde_json::to_string(&backward).unwrap());
        let positions: Vec<usize> = names.iter().map(|name| json.find(name.as_str()).unwrap()).collect();
        assert!(
            positions.windows(2).all(|pair| pair[0] < pair[1]),
            "entries must serialize in textual order"
        );
        let back: Authority = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name_count(), names.len());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
