//! Prefix allocation and IP-to-AS lookup.

use netsim_types::{IpAddr, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An autonomous-system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An autonomous system: number plus the short name used in report tables.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AutonomousSystem {
    /// AS number.
    pub asn: Asn,
    /// Short AS name (e.g. `GOOGLE`, `AMAZON-02`).
    pub name: String,
}

impl AutonomousSystem {
    /// Construct from number and name.
    pub fn new(asn: u32, name: &str) -> Self {
        AutonomousSystem { asn: Asn(asn), name: name.to_string() }
    }
}

impl fmt::Display for AutonomousSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.asn)
    }
}

impl fmt::Debug for AutonomousSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The registry: which prefixes belong to which AS, plus an allocator that
/// hands out fresh /24s to operators as the population generator builds the
/// hosting landscape.
///
/// A registry can be *layered* over a shared immutable base
/// ([`AsRegistry::with_base`]), and bases can themselves be layered:
/// allocation continues where the base stopped (so prefixes stay distinct
/// and identical to a monolithic build) and lookups consult every layer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsRegistry {
    /// Announced prefixes, keyed by base address (all /24 or shorter).
    announcements: BTreeMap<Prefix, AutonomousSystem>,
    /// Bit `n` is set iff this layer announces some prefix of length `n`:
    /// longest-prefix match probes only the lengths that occur.
    lengths: u64,
    /// Next /16 block index used by [`AsRegistry::allocate_slash24`].
    next_block: u32,
    /// Shared read-only announcements consulted on lookup misses.
    base: Option<std::sync::Arc<AsRegistry>>,
}

impl AsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AsRegistry::default()
    }

    /// An empty registry layered over a shared base: the /24 allocator
    /// continues at the base's next block, lookups fall back to the base.
    pub fn with_base(base: std::sync::Arc<AsRegistry>) -> Self {
        AsRegistry {
            announcements: BTreeMap::new(),
            lengths: 0,
            next_block: base.next_block,
            base: Some(base),
        }
    }

    /// Announce `prefix` as belonging to `system`.
    pub fn announce(&mut self, prefix: Prefix, system: AutonomousSystem) {
        self.lengths |= 1 << prefix.len();
        self.announcements.insert(prefix, system);
    }

    /// Allocate a fresh, previously unused /24 for `system` and announce it.
    ///
    /// Allocation walks the RFC 1918-free space starting at `20.0.0.0`,
    /// handing out consecutive /24s; the absolute values are meaningless,
    /// only distinctness matters.
    pub fn allocate_slash24(&mut self, system: AutonomousSystem) -> Prefix {
        let block = self.next_block;
        self.next_block += 1;
        // 20.x.y.0/24 with x.y derived from the counter.
        let base =
            IpAddr::new(20, ((block >> 8) & 0xFF) as u8, (block & 0xFF) as u8, 0).offset((block >> 16) << 24);
        let prefix = Prefix::new(base, 24);
        self.announce(prefix, system);
        prefix
    }

    /// Longest-prefix match: the AS announcing the most specific prefix
    /// containing `ip`, across this layer and every shared base. On equal
    /// lengths the upper layer wins, like a monolithic registry in which it
    /// announced last.
    ///
    /// Each candidate length costs one ordered probe for the masked prefix
    /// per layer that announces that length, instead of a scan over every
    /// announcement.
    pub fn lookup(&self, ip: IpAddr) -> Option<&AutonomousSystem> {
        let mut lengths = self.layers().fold(0u64, |acc, layer| acc | layer.lengths);
        while lengths != 0 {
            let len = 63 - lengths.leading_zeros();
            let bit = 1u64 << len;
            let probe = Prefix::new(ip, len as u8);
            for layer in self.layers().filter(|layer| layer.lengths & bit != 0) {
                if let Some(system) = layer.announcements.get(&probe) {
                    return Some(system);
                }
            }
            lengths &= !bit;
        }
        None
    }

    /// This layer, then each base down the chain.
    fn layers(&self) -> impl Iterator<Item = &AsRegistry> {
        std::iter::successors(Some(self), |layer| layer.base.as_deref())
    }

    /// Number of announced prefixes.
    pub fn announcement_count(&self) -> usize {
        self.announcements.len()
    }

    /// All announcements.
    pub fn announcements(&self) -> impl Iterator<Item = (&Prefix, &AutonomousSystem)> {
        self.announcements.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_and_lookup() {
        let mut registry = AsRegistry::new();
        registry.announce("142.250.0.0/15".parse().unwrap(), AutonomousSystem::new(15169, "GOOGLE"));
        registry.announce("142.250.74.0/24".parse().unwrap(), AutonomousSystem::new(396982, "GOOGLE-CLOUD"));
        // Longest prefix wins.
        let hit = registry.lookup(IpAddr::new(142, 250, 74, 14)).unwrap();
        assert_eq!(hit.name, "GOOGLE-CLOUD");
        let broader = registry.lookup(IpAddr::new(142, 251, 0, 1)).unwrap();
        assert_eq!(broader.name, "GOOGLE");
        assert!(registry.lookup(IpAddr::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn allocation_produces_distinct_prefixes() {
        let mut registry = AsRegistry::new();
        let a = registry.allocate_slash24(AutonomousSystem::new(1, "A"));
        let b = registry.allocate_slash24(AutonomousSystem::new(2, "B"));
        assert_ne!(a, b);
        assert_eq!(registry.announcement_count(), 2);
        assert_eq!(registry.lookup(a.host(5)).unwrap().name, "A");
        assert_eq!(registry.lookup(b.host(200)).unwrap().name, "B");
    }

    #[test]
    fn many_allocations_stay_distinct() {
        let mut registry = AsRegistry::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let prefix = registry.allocate_slash24(AutonomousSystem::new(i, "X"));
            assert!(seen.insert(prefix), "duplicate prefix {prefix}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Asn(15169).to_string(), "AS15169");
        assert_eq!(AutonomousSystem::new(32934, "FACEBOOK").to_string(), "FACEBOOK (AS32934)");
    }
}
