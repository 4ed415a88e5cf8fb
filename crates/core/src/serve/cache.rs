//! Content-addressed spec cache for `modref serve` (multi-tenant
//! session reuse).
//!
//! Parsing and validating a spec — and deriving its access graph — is
//! the fixed per-request overhead of a stateless protocol. The cache
//! keys a parsed [`Codesign`] session by the content hash of its spec
//! text (or by workload name), so concurrent connections sending the
//! same spec share ONE parse and ONE lazily-derived access graph: the
//! `load_spec` op returns the hash, later requests reference it via the
//! `"hash"` source field, and identical inline `"spec"` texts collapse
//! onto the same entry transparently.
//!
//! The cache is bounded ([`ServeConfig::cache_capacity`]) with
//! least-recently-used eviction, and the lock is held across the parse
//! on a miss: two clients racing the same new spec produce one parse
//! and one `serve.cache.miss`, deterministically, rather than a
//! thundering herd. Parse failures are not cached. Counters:
//! `serve.cache.hit`, `serve.cache.miss`, `serve.cache.evict`.
//!
//! [`ServeConfig::cache_capacity`]: super::ServeConfig::cache_capacity

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use modref_obs::Counter;

use crate::api::{Codesign, ModrefError};

/// The content hash of a spec text: 64-bit FNV-1a, rendered as 16 hex
/// digits. Stable across runs, processes and platforms, so clients may
/// precompute and persist it.
pub fn spec_hash(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

struct Entry {
    session: Arc<Codesign>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    /// Monotonic use counter driving LRU eviction (no wall clock, so
    /// eviction order is deterministic for a fixed request sequence).
    tick: u64,
}

/// A bounded, shared cache of parsed [`Codesign`] sessions.
pub(super) struct SpecCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hit: Counter,
    miss: Counter,
    evict: Counter,
}

impl SpecCache {
    pub(super) fn new(capacity: usize) -> Self {
        SpecCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hit: modref_obs::counter("serve.cache.hit"),
            miss: modref_obs::counter("serve.cache.miss"),
            evict: modref_obs::counter("serve.cache.evict"),
        }
    }

    /// Looks up `key` without populating — the `"hash"` source path. A
    /// miss is the client's error (the hash was never loaded, or was
    /// evicted), not something the server can repair.
    pub(super) fn lookup(&self, key: &str) -> Option<Arc<Codesign>> {
        let mut inner = super::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hit.inc();
                Some(Arc::clone(&e.session))
            }
            None => {
                self.miss.inc();
                None
            }
        }
    }

    /// Returns the cached session for `key`, parsing with `build` on a
    /// miss. The lock is held across the parse so concurrent identical
    /// requests share one parse; failures propagate uncached.
    pub(super) fn get_or_insert(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Codesign, ModrefError>,
    ) -> Result<Arc<Codesign>, ModrefError> {
        let mut inner = super::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(key) {
            e.last_used = tick;
            self.hit.inc();
            return Ok(Arc::clone(&e.session));
        }
        self.miss.inc();
        let session = Arc::new(build()?);
        inner.map.insert(
            key.to_string(),
            Entry {
                session: Arc::clone(&session),
                last_used: tick,
            },
        );
        if inner.map.len() > self.capacity {
            // `last_used` ticks are unique (one per cache call), so the
            // minimum is unambiguous and eviction is deterministic.
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evict.inc();
            }
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: u32) -> String {
        format!(
            "spec t{n};\nvar x : int<16> = 0;\n\
             behavior L leaf {{ x := x + 1; }}\n\
             behavior T seq {{ children {{ L; }} }}\ntop T;\n"
        )
    }

    #[test]
    fn spec_hash_is_stable_and_content_addressed() {
        let a = spec_hash("spec a;\n");
        assert_eq!(a.len(), 16);
        assert_eq!(a, spec_hash("spec a;\n"), "same text, same hash");
        assert_ne!(a, spec_hash("spec b;\n"), "different text, different hash");
        // Pinned: the hash is part of the wire contract (clients may
        // persist it), so it must never drift.
        assert_eq!(spec_hash(""), "cbf29ce484222325");
    }

    #[test]
    fn identical_texts_share_one_session() {
        let cache = SpecCache::new(4);
        let text = tiny(1);
        let key = spec_hash(&text);
        let a = cache
            .get_or_insert(&key, || Codesign::parse("<request>", &text))
            .unwrap();
        let b = cache
            .get_or_insert(&key, || panic!("second load must be a cache hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both clients share the parse");
        assert!(cache.lookup(&key).is_some());
        assert!(cache.lookup("0000000000000000").is_none());
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = SpecCache::new(2);
        let texts: Vec<String> = (0..3).map(tiny).collect();
        let keys: Vec<String> = texts.iter().map(|t| spec_hash(t)).collect();
        for (key, text) in keys.iter().zip(&texts).take(2) {
            cache
                .get_or_insert(key, || Codesign::parse("<request>", text))
                .unwrap();
        }
        // Touch the first so the second is least recently used.
        assert!(cache.lookup(&keys[0]).is_some());
        cache
            .get_or_insert(&keys[2], || Codesign::parse("<request>", &texts[2]))
            .unwrap();
        assert!(cache.lookup(&keys[0]).is_some(), "recently used survives");
        assert!(cache.lookup(&keys[1]).is_none(), "LRU entry was evicted");
        assert!(cache.lookup(&keys[2]).is_some(), "new entry resident");
    }

    #[test]
    fn parse_failures_are_not_cached() {
        let cache = SpecCache::new(4);
        let err = cache.get_or_insert("bad", || Codesign::parse("<request>", "not a spec"));
        assert!(err.is_err());
        // The next attempt parses again (and may succeed).
        let ok = cache.get_or_insert("bad", || Codesign::parse("<request>", &tiny(9)));
        assert!(ok.is_ok());
    }
}
