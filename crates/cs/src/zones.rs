//! A simulated Internet domain name hierarchy.
//!
//! The 1993 Internet is not available, so the DNS server resolves
//! against [`SimInternet`]: a registry of zones, each holding resource
//! records and delegations. The resolver in [`crate::dns`] performs a
//! real recursive walk — root zone, then down one delegation at a time —
//! so caching and query counting behave like the paper's DNS.

use plan9_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A resource record: (type, value), e.g. `("ip", "135.104.9.31")`.
pub type Record = (String, String);

/// One zone: authoritative records plus delegated child zones.
#[derive(Default)]
struct Zone {
    /// Records by fully qualified name.
    records: HashMap<String, Vec<Record>>,
    /// Child zone suffixes delegated away from this zone.
    delegations: Vec<String>,
}

/// The simulated global DNS: zones by suffix (`""` is the root).
pub struct SimInternet {
    zones: Mutex<HashMap<String, Zone>>,
    /// How many zone queries resolvers have issued (each is one
    /// simulated network round trip).
    pub zone_queries: AtomicU64,
}

impl SimInternet {
    /// Creates an empty hierarchy with only a root zone.
    pub fn new() -> Arc<SimInternet> {
        let mut zones = HashMap::new();
        zones.insert(String::new(), Zone::default());
        Arc::new(SimInternet {
            zones: Mutex::new(zones),
            zone_queries: AtomicU64::new(0),
        })
    }

    /// Creates a zone for `suffix` (e.g. `"com"`, `"bell-labs.com"`),
    /// delegating it from its nearest existing ancestor.
    pub fn add_zone(&self, suffix: &str) {
        let mut zones = self.zones.lock();
        if zones.contains_key(suffix) {
            return;
        }
        // Find nearest ancestor zone.
        let mut ancestor = String::new();
        for (z, _) in zones.iter() {
            if suffix_contains(z, suffix) && z.len() > ancestor.len() {
                ancestor = z.clone();
            }
        }
        zones
            .get_mut(&ancestor)
            .expect("ancestor exists")
            .delegations
            .push(suffix.to_string());
        zones.insert(suffix.to_string(), Zone::default());
    }

    /// Registers a record in the zone authoritative for `name`.
    pub fn register(&self, name: &str, rtype: &str, value: &str) {
        let zone_key = self.authoritative_zone(name);
        let mut zones = self.zones.lock();
        zones
            .get_mut(&zone_key)
            .expect("zone exists")
            .records
            .entry(name.to_string())
            .or_default()
            .push((rtype.to_string(), value.to_string()));
    }

    /// The suffix of the zone authoritative for `name`.
    pub fn authoritative_zone(&self, name: &str) -> String {
        let zones = self.zones.lock();
        let mut best = String::new();
        for (z, _) in zones.iter() {
            if suffix_contains(z, name) && z.len() >= best.len() && !z.is_empty() {
                best = z.clone();
            }
        }
        best
    }

    /// One resolver step: ask the zone `zone_suffix` about `name`.
    ///
    /// Returns `Ok(records)` if the zone is authoritative and has them,
    /// `Err(delegation)` if the zone delegates toward the name, and
    /// `Ok(empty)` if the name is simply absent.
    pub fn query_zone(
        &self,
        zone_suffix: &str,
        name: &str,
    ) -> std::result::Result<Vec<Record>, String> {
        self.zone_queries.fetch_add(1, Ordering::Relaxed);
        let zones = self.zones.lock();
        let Some(zone) = zones.get(zone_suffix) else {
            return Ok(Vec::new());
        };
        // Does a delegation lead closer to the name?
        for d in &zone.delegations {
            if suffix_contains(d, name) {
                return Err(d.clone());
            }
        }
        Ok(zone.records.get(name).cloned().unwrap_or_default())
    }
}

/// Whether `zone` is a suffix (on label boundaries) of `name`.
pub fn suffix_contains(zone: &str, name: &str) -> bool {
    if zone.is_empty() {
        return true;
    }
    name == zone || name.ends_with(&format!(".{zone}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_logic() {
        assert!(suffix_contains("", "anything.at.all"));
        assert!(suffix_contains("com", "bell-labs.com"));
        assert!(suffix_contains("bell-labs.com", "helix.research.bell-labs.com"));
        assert!(!suffix_contains("labs.com", "bell-labs.com"));
        assert!(!suffix_contains("edu", "bell-labs.com"));
    }

    #[test]
    fn delegation_walk_shape() {
        let net = SimInternet::new();
        net.add_zone("com");
        net.add_zone("bell-labs.com");
        net.register("helix.research.bell-labs.com", "ip", "135.104.9.31");
        // Root delegates to com.
        assert_eq!(
            net.query_zone("", "helix.research.bell-labs.com"),
            Err("com".to_string())
        );
        // com delegates to bell-labs.com.
        assert_eq!(
            net.query_zone("com", "helix.research.bell-labs.com"),
            Err("bell-labs.com".to_string())
        );
        // bell-labs.com answers.
        let recs = net
            .query_zone("bell-labs.com", "helix.research.bell-labs.com")
            .unwrap();
        assert_eq!(recs, vec![("ip".to_string(), "135.104.9.31".to_string())]);
    }

    #[test]
    fn absent_name_is_empty_not_error() {
        let net = SimInternet::new();
        net.add_zone("edu");
        assert_eq!(net.query_zone("edu", "nowhere.edu"), Ok(Vec::new()));
    }

    #[test]
    fn zone_added_out_of_order_reparents() {
        let net = SimInternet::new();
        net.add_zone("research.bell-labs.com");
        net.register("x.research.bell-labs.com", "ip", "1.2.3.4");
        // Root delegates directly to the deep zone when no intermediate
        // exists.
        assert_eq!(
            net.query_zone("", "x.research.bell-labs.com"),
            Err("research.bell-labs.com".to_string())
        );
    }
}
