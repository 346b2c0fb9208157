//! Property test: the probing longest-prefix match of [`AsRegistry::lookup`]
//! agrees with a linear scan over every announcement of every layer, for
//! layered registries with nested and overlapping prefixes.

use netsim_asdb::{AsRegistry, AutonomousSystem};
use netsim_types::{IpAddr, Prefix};
use proptest::prelude::*;
use std::sync::Arc;

/// Prefix lengths to draw from: nested (8 ⊃ 16 ⊃ 24 ⊃ 32) and odd ones.
const LENGTHS: [u8; 9] = [0, 8, 12, 16, 20, 23, 24, 28, 32];

/// An address in a deliberately tiny space, so prefixes nest and overlap.
fn address(seed: u32) -> IpAddr {
    let octets = seed.to_be_bytes();
    IpAddr::new(10 + octets[0] % 2, octets[1] % 3, octets[2] % 3, octets[3])
}

/// One layer: (address seed, length index, AS number) announcements, then
/// a number of fresh /24 allocations.
type LayerSpec = (Vec<(u32, usize, u32)>, usize);

/// One layer's announcements as the reference sees them.
type Announcements = Vec<(Prefix, AutonomousSystem)>;

/// The pre-probing lookup: scan every announcement of every layer, keep the
/// longest match, and let the upper layer win a tie.
fn linear_lookup(layers: &[Announcements], ip: IpAddr) -> Option<AutonomousSystem> {
    let mut best: Option<&(Prefix, AutonomousSystem)> = None;
    // `layers` runs bottom-up, so `>=` hands a tie to the upper layer.
    for layer in layers {
        for announcement in layer.iter().filter(|(prefix, _)| prefix.contains(ip)) {
            if best.is_none_or(|(prefix, _)| announcement.0.len() >= prefix.len()) {
                best = Some(announcement);
            }
        }
    }
    best.map(|(_, system)| system.clone())
}

/// Build the layered registry bottom-up, recording each layer's
/// announcements for the reference (re-announcing a prefix within one layer
/// replaces it, as in the registry).
fn build(specs: &[LayerSpec]) -> (AsRegistry, Vec<Announcements>) {
    let mut registry: Option<AsRegistry> = None;
    let mut reference = Vec::new();
    for (index, (announcements, allocations)) in specs.iter().enumerate() {
        let mut layer = match registry.take() {
            Some(below) => AsRegistry::with_base(Arc::new(below)),
            None => AsRegistry::new(),
        };
        let mut seen: Announcements = Vec::new();
        let mut record = |prefix: Prefix, system: AutonomousSystem| {
            seen.retain(|(existing, _)| *existing != prefix);
            seen.push((prefix, system));
        };
        for (base, length, asn) in announcements {
            let prefix = Prefix::new(address(*base), LENGTHS[*length]);
            let system = AutonomousSystem::new(1000 * (index as u32 + 1) + asn, "X");
            layer.announce(prefix, system.clone());
            record(prefix, system);
        }
        for allocation in 0..*allocations {
            let system = AutonomousSystem::new(9000 + allocation as u32, "ALLOC");
            let prefix = layer.allocate_slash24(system.clone());
            record(prefix, system);
        }
        reference.push(seen);
        registry = Some(layer);
    }
    (registry.expect("at least one layer"), reference)
}

fn layer_spec() -> impl Strategy<Value = LayerSpec> {
    (prop::collection::vec((any::<u32>(), 0..LENGTHS.len(), 0u32..50), 0usize..24), 0usize..4)
}

proptest! {
    #[test]
    fn probing_lookup_matches_the_linear_scan(
        specs in prop::collection::vec(layer_spec(), 1usize..4),
        probes in prop::collection::vec(any::<u32>(), 1usize..40),
        host_picks in prop::collection::vec((any::<u32>(), 0u64..256), 1usize..20),
    ) {
        let (registry, reference) = build(&specs);
        let announced: Vec<Prefix> = reference.iter().flatten().map(|(prefix, _)| *prefix).collect();
        let mut ips: Vec<IpAddr> = probes.iter().map(|seed| address(*seed)).collect();
        if !announced.is_empty() {
            ips.extend(
                host_picks.iter().map(|(pick, host)| announced[*pick as usize % announced.len()].host(*host)),
            );
        }
        ips.push(IpAddr::new(8, 8, 8, 8));
        for ip in ips {
            prop_assert_eq!(registry.lookup(ip).cloned(), linear_lookup(&reference, ip), "lookup of {}", ip);
        }
    }
}
