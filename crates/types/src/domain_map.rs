//! A hash-indexed map keyed by interned domain names that still serializes
//! (and prints) in textual order.
//!
//! Point lookups by [`DomainName`] are an id hash — one probe, no string
//! compares — which is what the DNS authority and the certificate indexes
//! want on the visit hot path. A plain [`FnvHashMap`] would however iterate
//! in intern-id order, and intern ids depend on thread interleaving. So
//! [`DomainMap`] iterates freely for internal work but sorts by the textual
//! `Ord` wherever its contents leave the process: `Serialize` and `Debug`
//! produce exactly what a `BTreeMap<DomainName, V>` would.

use crate::domain::DomainName;
use crate::hash::FnvHashMap;
use serde::{de, value::Value, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A `DomainName`-keyed [`FnvHashMap`] with textual-order serialization.
#[derive(Clone, PartialEq)]
pub struct DomainMap<V>(FnvHashMap<DomainName, V>);

impl<V> DomainMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        DomainMap(FnvHashMap::default())
    }

    /// The entries in textual key order (the order reports and serialized
    /// forms use).
    pub fn sorted(&self) -> Vec<(&DomainName, &V)> {
        let mut entries: Vec<(&DomainName, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

impl<V> Default for DomainMap<V> {
    fn default() -> Self {
        DomainMap::new()
    }
}

impl<V> Deref for DomainMap<V> {
    type Target = FnvHashMap<DomainName, V>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<V> DerefMut for DomainMap<V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<V: fmt::Debug> fmt::Debug for DomainMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

impl<V: Serialize> Serialize for DomainMap<V> {
    fn serialize_value(&self) -> Value {
        // Same shape as the `BTreeMap` encoding: an array of `[key, value]`.
        Value::Array(
            self.sorted()
                .into_iter()
                .map(|(k, v)| Value::Array(vec![k.serialize_value(), v.serialize_value()]))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for DomainMap<V> {
    fn deserialize_value(value: &Value) -> Result<Self, de::Error> {
        let ordered = BTreeMap::<DomainName, V>::deserialize_value(value)?;
        Ok(DomainMap(ordered.into_iter().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    #[test]
    fn serializes_like_a_btreemap_whatever_the_insertion_order() {
        let names = ["zeta-map.example", "alpha-map.example", "mid-map.example"];
        let mut forward = DomainMap::new();
        let mut reverse = DomainMap::new();
        let mut ordered = BTreeMap::new();
        for (i, name) in names.iter().enumerate() {
            forward.insert(d(name), i);
            ordered.insert(d(name), i);
        }
        for (i, name) in names.iter().enumerate().rev() {
            reverse.insert(d(name), i);
        }
        assert_eq!(forward.serialize_value(), ordered.serialize_value());
        assert_eq!(reverse.serialize_value(), ordered.serialize_value());
        assert_eq!(format!("{forward:?}"), format!("{ordered:?}"));
        let back = DomainMap::<usize>::deserialize_value(&forward.serialize_value()).unwrap();
        assert!(back == forward);
    }
}
