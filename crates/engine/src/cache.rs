//! The shared prepared-query cache: canonical structural hash → QE output
//! + compiled kernel + analyzer verdict, LRU-evicted under a byte budget.
//!
//! The cache is the reason the engine exists: Section 3 of the paper (and
//! the whole Giusti–Heintz line of work) makes quantifier elimination the
//! dominating cost of constraint-query evaluation, and QE output depends
//! only on the (relation-expanded) formula — not on the session, the
//! client, or the request parameters. Each shard is a `Mutex` around a
//! `HashMap` plus a logical clock — deliberately boring: entries are
//! `Arc`-shared so a lock is held only for lookup/insert bookkeeping,
//! never during QE, compilation, or evaluation.
//!
//! ### Sharding
//!
//! The map is split into 2^k independent lock domains selected by
//! `CacheKey.hash`, so concurrent warm `EXEC`s on different keys never
//! contend on one global mutex. Each shard carries its own slice of the
//! byte budget and its own LRU clock (recency is a per-shard notion);
//! hit/miss/eviction counters are process-global atomics, so `STATS`
//! aggregates are shard-count-independent. So is [`QueryCache::export`]:
//! slots are merged across shards and sorted by `(kind, hash, dim)`, which
//! makes the storage layer's warm-start file bit-identical for any shard
//! count — a warm file written at 8 shards boots a 1-shard server
//! identically, and vice versa.

use cqa_logic::{CompiledMatrix, ConstraintClass, Formula};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A prepared-query cache key: the 128-bit canonical structural hash of the
/// relation-expanded, simplified formula (see
/// [`cqa_logic::ir::Arena::canonical_hash_for_params`]) plus the output
/// dimension. The hash is invariant under session variable interning,
/// α-renaming of bound variables, And/Or child order and atom scaling, and
/// computed without rendering a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical 128-bit structural hash, positional over the name-sorted
    /// parameter list.
    pub hash: u128,
    /// Number of output columns (`vars.len()`), so a 1-D and a 2-D query
    /// that happen to share a matrix never collide.
    pub dim: u32,
}

/// Which namespace a resident slot belongs to. Whole-query entries and
/// subplan entries can share a `(hash, dim)` pair — a prepared query whose
/// body *is* a single quantifier block hashes identically as a query and
/// as a subplan — so the kind is part of the map key: a subplan insert can
/// never overwrite, double-charge, or (via the remove-then-reinsert refund)
/// evict the query entry living under the same `(hash, dim)`, and vice
/// versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SlotKind {
    /// A whole prepared query: QE output + kernel + analyzer verdict.
    Query,
    /// One quantifier block's QE result, shared across queries by the
    /// planner (see `cqa_qe::plan`).
    Subplan,
}

/// The full map key: the public [`CacheKey`] plus the namespace kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct FullKey {
    key: CacheKey,
    kind: SlotKind,
}

/// Bytes charged to the budget for each resident key: the key itself plus
/// the map-slot bookkeeping (recency clock). Keys are small and fixed-size
/// now, but they are resident memory all the same — the budget counts them.
pub(crate) const KEY_BYTES: usize = std::mem::size_of::<FullKey>() + std::mem::size_of::<u64>();

/// One memoized query: everything downstream of quantifier elimination
/// that is reusable across sessions and requests.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The quantifier-free, relation-free, simplified QE output. Its free
    /// variables are the *inserting* session's interned indices — other
    /// sessions must use it together with `qf_vars`, never their own
    /// variable list.
    pub qf: Formula,
    /// The inserting session's parameter variables, in the positional
    /// (name-sorted) order shared by every session that keys this entry.
    /// Exact volume is integrated in this variable space; the result is
    /// invariant under the renaming.
    pub qf_vars: Vec<cqa_poly::Var>,
    /// The PR-1 compiled kernel of `qf`, slots in output-column order.
    pub kernel: CompiledMatrix,
    /// Constraint class of `qf` (the analyzer verdict that gates the
    /// exact-volume path: polynomial outputs cannot be triangulated).
    pub class: ConstraintClass,
    /// Human-readable fragment verdict (e.g. `"FO+LIN"`), reported over
    /// the wire so clients see what they are getting.
    pub fragment: &'static str,
    /// Estimated resident size, charged against the byte budget.
    pub bytes: usize,
    /// Interval-certified Monte Carlo sampling box over the output
    /// columns, clamped to the unit cube: every satisfying point of `qf`
    /// lies inside, so sample lanes outside skip kernel evaluation.
    /// `None` when the analysis certified nothing tighter than the unit
    /// box (or the absint pass was disabled at insert time).
    pub mc_box: Option<Vec<(f64, f64)>>,
}

/// Rough resident-size estimate of a formula: nodes plus polynomial terms.
/// The budget needs a consistent currency, not an exact allocator audit.
pub(crate) fn formula_bytes(f: &Formula) -> usize {
    let mut bytes = 0usize;
    f.visit(&mut |g| {
        bytes += 48;
        if let Formula::Atom(a) = g {
            bytes += 96 * a.poly.num_terms().max(1);
        }
    });
    bytes
}

/// One memoized quantifier block: the planner's unit of cross-query
/// sharing. Much lighter than a [`CacheEntry`] — no kernel, no verdicts —
/// because the consuming query compiles its own kernel over the whole
/// assembled output.
#[derive(Clone, Debug)]
pub struct SubplanEntry {
    /// The block's quantifier-free QE result, in the inserting session's
    /// variable indices.
    pub qf: Formula,
    /// The inserting session's parameter variables in canonical
    /// (ascending-index) order; consumers rename positionally onto their
    /// own parameter list.
    pub params: Vec<cqa_poly::Var>,
    /// Estimated resident size, charged against the byte budget.
    pub bytes: usize,
}

/// What lives behind a slot, by namespace.
enum Stored {
    Query(Arc<CacheEntry>),
    Subplan(Arc<SubplanEntry>),
}

/// One exported cache slot, keyed and namespaced — the unit the storage
/// layer's warm-start file serializes. Keys are session-independent
/// canonical hashes, so an exported slot is addressable by any later
/// process.
pub enum WarmSlot {
    /// A whole prepared query under [`CacheKey`].
    Query(CacheKey, Arc<CacheEntry>),
    /// A shared subplan under [`CacheKey`].
    Subplan(CacheKey, Arc<SubplanEntry>),
}

impl Stored {
    fn bytes(&self) -> usize {
        match self {
            Stored::Query(e) => e.bytes,
            Stored::Subplan(e) => e.bytes,
        }
    }
}

struct Slot {
    entry: Stored,
    last_used: u64,
}

struct Inner {
    map: HashMap<FullKey, Slot>,
    clock: u64,
    bytes: usize,
}

/// One lock domain: a map slice plus its slice of the byte budget.
struct Shard {
    inner: Mutex<Inner>,
    byte_budget: usize,
}

/// Default shard count: enough lock domains that a handful of worker
/// threads hammering warm hits rarely collide, small enough that the
/// per-shard budget slices stay meaningful.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A point-in-time view of the cache counters, for `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed by the LRU byte-budget sweep.
    pub evictions: u64,
    /// Subplan lookups that found an entry (planner sharing at work).
    pub subplan_hits: u64,
    /// Subplan lookups that found nothing.
    pub subplan_misses: u64,
    /// Live entries (both namespaces).
    pub entries: usize,
    /// Estimated live bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub byte_budget: usize,
    /// Number of independent lock domains the map is split into.
    pub shards: usize,
    /// Times a cache mutex was recovered after being poisoned by a
    /// panicking worker (each one is a request that survived instead of
    /// wedging every later request).
    pub poison_recoveries: u64,
}

impl CacheSnapshot {
    /// Hit rate in `[0, 1]`; `0` when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The concurrent prepared-query (and subplan) cache, sharded by key hash.
pub struct QueryCache {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two so selection is a
    /// mask, not a division.
    mask: usize,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    subplan_hits: AtomicU64,
    subplan_misses: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl QueryCache {
    /// An empty cache bounded by `byte_budget` estimated bytes, split into
    /// [`DEFAULT_CACHE_SHARDS`] lock domains.
    pub fn new(byte_budget: usize) -> QueryCache {
        QueryCache::with_shards(byte_budget, DEFAULT_CACHE_SHARDS)
    }

    /// An empty cache with an explicit shard count. The count is clamped
    /// to `[1, 256]` and rounded up to a power of two; the byte budget is
    /// divided evenly across shards (eviction is a per-shard decision —
    /// LRU order is only meaningful inside one lock domain).
    pub fn with_shards(byte_budget: usize, shards: usize) -> QueryCache {
        let n = shards.clamp(1, 256).next_power_of_two();
        let per_shard = byte_budget / n;
        QueryCache {
            shards: (0..n)
                .map(|_| Shard {
                    inner: Mutex::new(Inner {
                        map: HashMap::new(),
                        clock: 0,
                        bytes: 0,
                    }),
                    byte_budget: per_shard,
                })
                .collect(),
            mask: n - 1,
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            subplan_hits: AtomicU64::new(0),
            subplan_misses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Number of lock domains.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`: both 64-bit halves of the canonical hash
    /// are folded in so closely related keys still spread.
    fn shard_for(&self, key: CacheKey) -> &Shard {
        let folded = (key.hash as u64) ^ ((key.hash >> 64) as u64);
        &self.shards[(folded as usize) & self.mask]
    }

    /// Locks one shard's map, recovering from poisoning instead of
    /// propagating it.
    ///
    /// A poisoned mutex means some worker panicked *while holding the
    /// lock*. Every operation under this lock leaves the map structurally
    /// valid at each await-free step (the byte ledger may at worst
    /// over-count a half-finished insert's arithmetic, which the next
    /// eviction sweep self-corrects), so the right posture for a cache is
    /// clear-and-continue semantics without the clear: take the data as-is
    /// and keep serving. The alternative — every later request panicking
    /// on `expect("cache lock")` — turns one bad request into a permanent
    /// engine-wide outage.
    fn lock<'a>(shard: &'a Shard, recoveries: &AtomicU64) -> std::sync::MutexGuard<'a, Inner> {
        shard.inner.lock().unwrap_or_else(|poisoned| {
            recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Poisons every shard mutex, for tests proving the engine survives a
    /// worker that panicked while holding one. Panics inside a scoped
    /// thread holding each lock; the panics are contained there.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) {
        for shard in &self.shards {
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    let _guard = shard.inner.lock().expect("not yet poisoned");
                    panic!("poisoning the cache lock for a test");
                });
                assert!(handle.join().is_err(), "the poisoning thread must panic");
            });
        }
    }

    /// Looks up a whole-query entry, refreshing its recency on a hit.
    pub fn get(&self, key: CacheKey) -> Option<Arc<CacheEntry>> {
        let full = FullKey {
            key,
            kind: SlotKind::Query,
        };
        let shard = self.shard_for(key);
        let mut inner = Self::lock(shard, &self.poison_recoveries);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&full) {
            Some(slot) => {
                slot.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                match &slot.entry {
                    Stored::Query(e) => Some(Arc::clone(e)),
                    Stored::Subplan(_) => unreachable!("kind is part of the key"),
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up a subplan entry, refreshing its recency on a hit. Counted
    /// separately from query hits/misses: the `STATS` contract (and CI's
    /// greps) treat whole-query traffic and planner sharing as distinct
    /// signals.
    pub fn get_subplan(&self, key: CacheKey) -> Option<Arc<SubplanEntry>> {
        let full = FullKey {
            key,
            kind: SlotKind::Subplan,
        };
        let shard = self.shard_for(key);
        let mut inner = Self::lock(shard, &self.poison_recoveries);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&full) {
            Some(slot) => {
                slot.last_used = clock;
                self.subplan_hits.fetch_add(1, Ordering::Relaxed);
                match &slot.entry {
                    Stored::Subplan(e) => Some(Arc::clone(e)),
                    Stored::Query(_) => unreachable!("kind is part of the key"),
                }
            }
            None => {
                self.subplan_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) a whole-query entry, then evicts
    /// least-recently-used entries until the byte budget holds again. The
    /// entry just inserted is never evicted by its own insertion sweep — a
    /// query larger than the whole budget still gets served, it just won't
    /// keep neighbours. Each resident entry is charged
    /// `entry.bytes + KEY_BYTES`: the key is resident memory too, not a
    /// freebie.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        self.insert_stored(
            FullKey {
                key,
                kind: SlotKind::Query,
            },
            Stored::Query(Arc::clone(&entry)),
        );
        entry
    }

    /// Inserts (or replaces) a subplan entry under the subplan namespace.
    /// Because the private `SlotKind` tag is part of the map key, this can never touch —
    /// overwrite, refund, or double-charge — a query entry under the same
    /// `(hash, dim)`, and the insertion sweep protects only the inserted
    /// slot itself (a subplan never shields its parent query from LRU, nor
    /// the reverse).
    pub fn insert_subplan(&self, key: CacheKey, entry: SubplanEntry) -> Arc<SubplanEntry> {
        let entry = Arc::new(entry);
        self.insert_stored(
            FullKey {
                key,
                kind: SlotKind::Subplan,
            },
            Stored::Subplan(Arc::clone(&entry)),
        );
        entry
    }

    /// Shared insert path: replace-refund under the *full* (kind-aware)
    /// key, charge payload + key bytes, LRU-sweep everything except the
    /// just-inserted slot. The sweep is a per-shard decision: each shard
    /// holds its own slice of the budget, and recency is only comparable
    /// inside one lock domain.
    fn insert_stored(&self, full: FullKey, stored: Stored) {
        let shard = self.shard_for(full.key);
        let mut inner = Self::lock(shard, &self.poison_recoveries);
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&full) {
            inner.bytes -= old.entry.bytes() + KEY_BYTES;
        }
        inner.bytes += stored.bytes() + KEY_BYTES;
        inner.map.insert(
            full,
            Slot {
                entry: stored,
                last_used: clock,
            },
        );
        while inner.bytes > shard.byte_budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != full)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let slot = inner.map.remove(&k).expect("victim exists");
                    inner.bytes -= slot.entry.bytes() + KEY_BYTES;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Counter snapshot for `STATS`. Entry and byte totals are summed
    /// across shards (each shard locked in turn — the snapshot is a
    /// statistics view, not a consistent cut, like every counter here).
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for shard in &self.shards {
            let inner = Self::lock(shard, &self.poison_recoveries);
            entries += inner.map.len();
            bytes += inner.bytes;
        }
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            subplan_hits: self.subplan_hits.load(Ordering::Relaxed),
            subplan_misses: self.subplan_misses.load(Ordering::Relaxed),
            entries,
            bytes,
            byte_budget: self.byte_budget,
            shards: self.shards.len(),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
        }
    }

    /// Exports every resident slot in deterministic order (queries before
    /// subplans, then by key) for the storage layer's warm-start file.
    /// Slots are merged across shards *before* sorting, so the export —
    /// and therefore the warm file the storage layer writes from it — is
    /// bit-identical for any shard count. Entries are `Arc`-shared, so
    /// this clones pointers, not payloads, and each shard lock is released
    /// before any serialization happens.
    pub fn export(&self) -> Vec<WarmSlot> {
        let mut slots: Vec<WarmSlot> = Vec::new();
        for shard in &self.shards {
            let inner = Self::lock(shard, &self.poison_recoveries);
            slots.extend(inner.map.iter().map(|(full, slot)| match &slot.entry {
                Stored::Query(e) => WarmSlot::Query(full.key, Arc::clone(e)),
                Stored::Subplan(e) => WarmSlot::Subplan(full.key, Arc::clone(e)),
            }));
        }
        slots.sort_by_key(|s| match s {
            WarmSlot::Query(k, _) => (0u8, k.hash, k.dim),
            WarmSlot::Subplan(k, _) => (1u8, k.hash, k.dim),
        });
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::{parse_formula, SlotMap};

    fn entry(src: &str, bytes: usize) -> CacheEntry {
        let (qf, vars) = parse_formula(src).unwrap();
        let qf_vars: Vec<_> = qf.free_vars().into_iter().collect();
        let kernel = CompiledMatrix::compile(&qf, &SlotMap::from_vars(&qf_vars)).unwrap();
        let _ = vars;
        CacheEntry {
            class: qf.class(),
            fragment: "FO+LIN",
            qf,
            qf_vars,
            kernel,
            bytes,
            mc_box: None,
        }
    }

    fn key(hash: u128) -> CacheKey {
        CacheKey { hash, dim: 1 }
    }

    #[test]
    fn hit_miss_and_recency() {
        let cache = QueryCache::new(10_000);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), entry("x < 1", 100));
        assert!(cache.get(key(1)).is_some());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert_eq!(snap.entries, 1);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dim_is_part_of_the_key() {
        let cache = QueryCache::new(10_000);
        cache.insert(CacheKey { hash: 7, dim: 1 }, entry("x < 1", 100));
        assert!(cache.get(CacheKey { hash: 7, dim: 2 }).is_none());
        assert!(cache.get(CacheKey { hash: 7, dim: 1 }).is_some());
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        // One lock domain so all three keys compete for the same budget
        // slice; room for two entries (payload + key bytes), not three.
        let cache = QueryCache::with_shards(2 * (100 + KEY_BYTES) + 10, 1);
        cache.insert(key(1), entry("x < 1", 100));
        cache.insert(key(2), entry("x < 2", 100));
        // Touch `1` so `2` is the LRU when `3` overflows the budget.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), entry("x < 3", 100));
        assert!(cache.get(key(1)).is_some(), "recently used survives");
        assert!(cache.get(key(2)).is_none(), "LRU evicted");
        assert!(cache.get(key(3)).is_some(), "new entry survives");
        assert_eq!(cache.snapshot().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_kept_alone() {
        let cache = QueryCache::with_shards(50, 1);
        cache.insert(key(1), entry("x < 1", 1000));
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(2), entry("x < 2", 1000));
        assert!(cache.get(key(2)).is_some());
        assert!(cache.get(key(1)).is_none());
    }

    #[test]
    fn reinsert_replaces_bytes() {
        let cache = QueryCache::with_shards(1000, 1);
        cache.insert(key(1), entry("x < 1", 400));
        cache.insert(key(1), entry("x < 1", 200));
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.bytes, 200 + KEY_BYTES, "key bytes are charged too");
    }

    #[test]
    fn key_bytes_are_charged_and_refunded() {
        let cache = QueryCache::with_shards(10 * (100 + KEY_BYTES), 1);
        cache.insert(key(1), entry("x < 1", 100));
        cache.insert(key(2), entry("x < 2", 100));
        assert_eq!(cache.snapshot().bytes, 2 * (100 + KEY_BYTES));
    }

    fn subplan(src: &str, bytes: usize) -> SubplanEntry {
        let (qf, _) = parse_formula(src).unwrap();
        let params = qf.free_vars().into_iter().collect();
        SubplanEntry { qf, params, bytes }
    }

    #[test]
    fn subplan_and_query_namespaces_are_disjoint() {
        // A query entry and a subplan entry under the *same* (hash, dim):
        // both must be resident, separately charged, separately retrievable
        // — a subplan insert can never overwrite or refund its parent.
        let cache = QueryCache::new(100_000);
        cache.insert(key(7), entry("x < 1", 300));
        cache.insert_subplan(key(7), subplan("x < 2", 50));
        assert!(cache.get(key(7)).is_some(), "query survives subplan insert");
        assert!(cache.get_subplan(key(7)).is_some());
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 2);
        assert_eq!(
            snap.bytes,
            300 + 50 + 2 * KEY_BYTES,
            "each namespace charges its own payload and key — no sharing, \
             no double-charge"
        );
        assert_eq!((snap.hits, snap.misses), (1, 0));
        assert_eq!((snap.subplan_hits, snap.subplan_misses), (1, 0));
    }

    #[test]
    fn subplan_reinsert_replaces_only_subplan_bytes() {
        let cache = QueryCache::new(100_000);
        cache.insert(key(7), entry("x < 1", 300));
        cache.insert_subplan(key(7), subplan("x < 2", 400));
        cache.insert_subplan(key(7), subplan("x < 2", 80));
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 2);
        assert_eq!(snap.bytes, 300 + 80 + 2 * KEY_BYTES);
        assert!(cache.get(key(7)).is_some(), "query bytes untouched");
    }

    #[test]
    fn subplan_lookup_misses_do_not_count_as_query_misses() {
        let cache = QueryCache::new(10_000);
        assert!(cache.get_subplan(key(1)).is_none());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (0, 0));
        assert_eq!((snap.subplan_hits, snap.subplan_misses), (0, 1));
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let cache = QueryCache::new(10_000);
        cache.insert(key(1), entry("x < 1", 100));
        cache.poison_for_tests();
        // Every operation keeps working on the recovered data.
        assert!(cache.get(key(1)).is_some(), "entry survives poisoning");
        cache.insert(key(2), entry("x < 2", 100));
        assert!(cache.get(key(2)).is_some());
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 2);
        assert!(snap.poison_recoveries >= 1, "{snap:?}");
    }

    #[test]
    fn export_is_deterministic_and_complete() {
        let cache = QueryCache::new(100_000);
        cache.insert(key(2), entry("x < 2", 100));
        cache.insert(key(1), entry("x < 1", 100));
        cache.insert_subplan(key(1), subplan("x < 3", 50));
        let a: Vec<_> = cache
            .export()
            .iter()
            .map(|s| match s {
                WarmSlot::Query(k, _) => (0u8, k.hash),
                WarmSlot::Subplan(k, _) => (1u8, k.hash),
            })
            .collect();
        assert_eq!(a, vec![(0, 1), (0, 2), (1, 1)]);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(QueryCache::with_shards(1 << 20, 1).shard_count(), 1);
        assert_eq!(QueryCache::with_shards(1 << 20, 3).shard_count(), 4);
        assert_eq!(QueryCache::with_shards(1 << 20, 8).shard_count(), 8);
        assert_eq!(QueryCache::with_shards(1 << 20, 0).shard_count(), 1);
        assert_eq!(QueryCache::with_shards(1 << 20, 999).shard_count(), 256);
        assert_eq!(QueryCache::new(1 << 20).shard_count(), DEFAULT_CACHE_SHARDS);
        assert_eq!(QueryCache::new(1 << 20).snapshot().shards, 8);
    }

    #[test]
    fn export_and_accounting_are_shard_count_independent() {
        // The same workload at 1, 2 and 8 shards: identical export order
        // and identical total entry/byte accounting (budget large enough
        // that no shard slice evicts).
        let keys: Vec<u128> = (0..32).map(|i| (i as u128) << 61 | i as u128).collect();
        let snaps: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&n| {
                let cache = QueryCache::with_shards(1 << 24, n);
                for &h in &keys {
                    cache.insert(key(h), entry("x < 1", 100));
                    cache.insert_subplan(key(h), subplan("x < 2", 50));
                }
                let order: Vec<_> = cache
                    .export()
                    .iter()
                    .map(|s| match s {
                        WarmSlot::Query(k, _) => (0u8, k.hash, k.dim),
                        WarmSlot::Subplan(k, _) => (1u8, k.hash, k.dim),
                    })
                    .collect();
                let snap = cache.snapshot();
                (order, snap.entries, snap.bytes)
            })
            .collect();
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[0], snaps[2]);
        assert_eq!(snaps[0].1, 64);
    }

    #[test]
    fn shards_spread_keys_across_lock_domains() {
        // With 8 shards and well-mixed hashes, more than one shard must
        // end up populated (per-shard budgets only make sense if routing
        // actually spreads).
        let cache = QueryCache::with_shards(1 << 24, 8);
        for i in 0..64u128 {
            cache.insert(key(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) << 7), {
                entry("x < 1", 100)
            });
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.inner.lock().unwrap().map.is_empty())
            .count();
        assert!(populated > 1, "only {populated} of 8 shards populated");
        assert_eq!(cache.snapshot().entries, 64);
    }

    #[test]
    fn subplan_insert_sweep_shields_only_itself() {
        // Budget fits exactly two resident slots. With the query entry
        // stale and a same-key subplan inserted over budget, the sweep must
        // evict by recency alone — the query parent is evictable like any
        // neighbour, but the just-inserted subplan is not.
        let cache = QueryCache::with_shards(2 * (100 + KEY_BYTES), 1);
        cache.insert(key(7), entry("x < 1", 100));
        cache.insert_subplan(key(8), subplan("x < 2", 100));
        cache.insert_subplan(key(7), subplan("x < 3", 100));
        assert!(cache.get_subplan(key(7)).is_some(), "inserted slot kept");
        assert!(cache.get(key(7)).is_none(), "stale parent was the LRU");
        assert!(cache.get_subplan(key(8)).is_some());
        assert_eq!(cache.snapshot().evictions, 1);
    }
}
