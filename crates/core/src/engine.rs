//! End-to-end secure query answering — the framework of Fig. 3.
//!
//! [`SecureEngine`] wires the pieces together for one access policy: a
//! view query comes in, is rewritten (and optionally optimized) against
//! the hidden σ annotations and the document DTD, and the translated query
//! is evaluated over the original document. The security view itself is
//! never materialized on this path.

use crate::analysis::certify_context;
use crate::annotate::build_access_view;
use crate::error::{Error, Result};
use crate::naive::NaiveBaseline;
use crate::optimize::optimize_over;
use crate::plancost::dtd_cost_model;
use crate::rewrite::ViewGraph;
use crate::spec::AccessSpec;
use crate::view::def::SecurityView;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sxv_xml::{DocId, DocIndex, Document, NodeId};
use sxv_xpath::{
    certify, compile, compile_annotate, simplify, AccessView, CertifyContext, CompiledQuery,
    CostModel, EvalStats, Path, PlanCertificate, PlanPolicy, PlanSummary,
};

/// Query evaluation strategy (the three columns of Table 1, plus the
/// accessibility-bitmap approach).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Element-level annotations, child→descendant widening (§6 baseline).
    Naive,
    /// DTD-based query rewriting (Fig. 6).
    Rewrite,
    /// Rewriting plus DTD-constraint optimization (Fig. 10).
    Optimize,
    /// Accessibility bitmaps: evaluate the view query directly over the
    /// document, filtering every step through a cached word-parallel
    /// [`AccessView`] artifact instead of rewriting the query.
    Annotate,
}

impl std::str::FromStr for Approach {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Approach, String> {
        match s {
            "naive" => Ok(Approach::Naive),
            "rewrite" => Ok(Approach::Rewrite),
            "optimize" => Ok(Approach::Optimize),
            "annotate" => Ok(Approach::Annotate),
            other => Err(format!(
                "unknown approach {other:?} (valid values: naive, rewrite, optimize, annotate)"
            )),
        }
    }
}

/// One answer node as every serving surface prints it: `<label> value`
/// for an element, `#text value` for a text node, where `value` is the
/// node's string value.
pub fn answer_line(doc: &Document, node: NodeId) -> String {
    match doc.label_opt(node) {
        Some(label) => format!("<{label}> {}", doc.string_value(node)),
        None => format!("#text {}", doc.string_value(node)),
    }
}

/// Default number of translated queries kept by the engine's cache.
pub const DEFAULT_TRANSLATION_CACHE_CAPACITY: usize = 64;

/// Key of one plan-cache entry: the *normalized* view query (so `a | a`
/// and `a` share an entry), the strategy, and the planner policy.
/// Deliberately document-free: recursive views translate to closure
/// plans (`(…)*`) instead of height-bounded unfoldings, so one entry
/// serves documents of every height.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    query: Path,
    approach: Approach,
    policy: PlanPolicy,
}

/// Most shards a translation cache will split into; small capacities use
/// fewer so per-shard LRU still approximates global LRU.
const MAX_CACHE_SHARDS: usize = 8;

/// Reacquire a read guard even if a previous holder panicked: the cache
/// only memoizes pure translation results, so a poisoned entry is never
/// half-written and recovery is always safe. A dead worker thread must
/// not take the whole serving path down with it.
fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock twin of [`read_recover`].
fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A compiled plan paired with the static certificate the engine
/// produced for it at compile time (see [`sxv_xpath::certify()`]). Both
/// halves are `Arc`-shared, so cloning a `Planned` out of the cache is
/// a few refcount bumps.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The compiled, executable plan.
    pub plan: Arc<CompiledQuery>,
    /// The plan's static certificate (checked once, cached alongside,
    /// without the abstract trace: [`sxv_xpath::certify_traced`]
    /// rebuilds that for printing).
    pub cert: Arc<PlanCertificate>,
}

/// One cache shard entry: planning outcome plus its atomic LRU tick.
type CacheEntry = (Result<Planned>, AtomicU64);

/// One cache shard, per key. The value is the whole compiled artifact —
/// a hit skips parse normalization, rewriting, optimization, planning
/// *and* certification. Keys are `Arc`-shared so an eviction takes its
/// victim's key out with a refcount bump instead of a `Path` clone.
type CacheShard = HashMap<Arc<CacheKey>, CacheEntry>;

/// Sharded, read-mostly map of compiled query plans. Keys hash to one of
/// a few independently locked shards, so concurrent [`SecureEngine`]
/// readers (the daemon's connection threads) do not serialize on one mutex:
/// a cache *hit* takes only a shard read lock — the LRU tick lives in an
/// `AtomicU64` per entry — and only misses take a shard write lock.
/// Eviction is per-shard LRU via a linear minimum scan (capacities are
/// small and lookups dominate); the evicted plan is freed after the
/// write lock is released.
#[derive(Debug)]
struct PlanCache {
    shards: Vec<RwLock<CacheShard>>,
    /// Per-shard entry budget; 0 disables caching entirely.
    shard_cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Plans compiled on the miss path — flat across repeats of a cached
    /// query, which is the observable proof of compile-once.
    plans_compiled: AtomicU64,
    /// Plans put through the static certifier (one per compile).
    plans_certified: AtomicU64,
    /// Certificates with error findings (the plan would emit data that
    /// is not provably accessible; `--verify` refuses to serve these).
    certify_failures: AtomicU64,
    /// Cumulative certification time, in nanoseconds: a certification
    /// takes a few microseconds, so summing whole microseconds per plan
    /// would drop up to a quarter of it.
    certify_nanos: AtomicU64,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        // One shard per ~8 entries of budget: capacity 64 → 8 shards;
        // tiny caches stay single-sharded so LRU order is exact.
        let shard_count = if capacity == 0 {
            1
        } else {
            (capacity / MAX_CACHE_SHARDS).clamp(1, MAX_CACHE_SHARDS)
        };
        PlanCache {
            shards: (0..shard_count).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_cap: capacity.div_ceil(shard_count),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            plans_compiled: AtomicU64::new(0),
            plans_certified: AtomicU64::new(0),
            certify_failures: AtomicU64::new(0),
            certify_nanos: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &RwLock<CacheShard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % self.shards.len()]
    }

    fn lookup(&self, key: &CacheKey) -> Option<Result<Planned>> {
        let shard = read_recover(self.shard(key));
        match shard.get(key) {
            Some((p, used)) => {
                used.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, planned: Result<Planned>) {
        if self.shard_cap == 0 {
            return;
        }
        let key = Arc::new(key);
        let mut shard = write_recover(self.shard(&key));
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = (planned, AtomicU64::new(now));
        // What leaves the cache: the entry of a racing thread that
        // missed the same key and inserted first, or the least recently
        // used one of a full shard.
        let removed = if let Some(slot) = shard.get_mut(&key) {
            Some((key, std::mem::replace(slot, entry)))
        } else {
            let evicted = if shard.len() >= self.shard_cap {
                shard
                    .iter()
                    .min_by_key(|(_, (_, t))| t.load(Ordering::Relaxed))
                    .map(|(k, _)| Arc::clone(k))
                    .and_then(|oldest| shard.remove_entry(&oldest))
            } else {
                None
            };
            shard.insert(key, entry);
            evicted
        };
        // Free its plan, certificate and key after the write lock is
        // released.
        drop(shard);
        drop(removed);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| read_recover(s).len()).sum(),
            plans_compiled: self.plans_compiled.load(Ordering::Relaxed),
            plans_certified: self.plans_certified.load(Ordering::Relaxed),
            plans_recompiled: 0,
            certify_failures: self.certify_failures.load(Ordering::Relaxed),
            certify_micros: self.certify_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }
}

/// Most accessibility artifacts kept resident at once; an engine rarely
/// serves more than a handful of distinct documents.
const ACCESS_CACHE_CAPACITY: usize = 8;

/// Cache `value` for document `key` in a per-document map holding at
/// most [`ACCESS_CACHE_CAPACITY`] entries, evicting another document's
/// entry when full. An entry already present for `key` (one a racing
/// thread built first) wins, so concurrent callers share one copy.
fn bounded_insert<T>(map: &RwLock<HashMap<DocId, Arc<T>>>, key: DocId, value: Arc<T>) -> Arc<T> {
    let mut map = write_recover(map);
    if map.len() >= ACCESS_CACHE_CAPACITY && !map.contains_key(&key) {
        if let Some(evict) = map.keys().next().copied() {
            map.remove(&evict);
        }
    }
    Arc::clone(map.entry(key).or_insert(value))
}

/// Cached [`AccessView`] artifacts, one per served document, plus the
/// counters `sxv query --stats` reports. Documents are identified by
/// their stable [`DocId`] — a process-wide monotonic stamp that is never
/// reused — so a long-lived engine (e.g. the `sxv serve` daemon) can
/// watch documents come and go without ever serving one document's
/// accessibility bitmaps for another. (An earlier revision keyed by
/// `(address, len)`, which aliases as soon as a dropped document's
/// allocation is recycled for a same-length one — a security bug, not
/// just a stale-perf bug; see `access_cache_does_not_alias_replaced_documents`.)
#[derive(Debug, Default)]
struct AccessCache {
    map: RwLock<HashMap<DocId, Arc<AccessView>>>,
    builds: AtomicU64,
    hits: AtomicU64,
    build_micros: AtomicU64,
}

/// Cumulative accessibility-bitmap cache counters, readable at any time
/// via [`SecureEngine::access_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCacheStats {
    /// Artifacts built (a second query over the same document must show
    /// this flat — that is the observable proof of build-once).
    pub builds: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Artifacts currently resident.
    pub entries: usize,
    /// Total resident footprint of the cached artifacts, in bytes.
    pub bytes: usize,
    /// Cumulative build time across all builds, in microseconds.
    pub build_micros: u64,
}

/// Cumulative plan-cache counters, readable at any time via
/// [`SecureEngine::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans compiled (and inserted) on miss.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Successful translate-and-plan compilations since the engine was
    /// built; stays flat while repeats hit the cache.
    pub plans_compiled: u64,
    /// Plans put through the static certifier (one per compile; flat on
    /// cache hits — the certificate is cached with the plan).
    pub plans_certified: u64,
    /// Always 0: each plan is compiled once, on its key's miss, and
    /// served unchanged until evicted. The field stays because the
    /// benchmark harness (`perfbench/`) builds a `CacheStats` with a
    /// struct literal that names every field.
    pub plans_recompiled: u64,
    /// Certificates with error findings. Under `--verify` these plans
    /// are refused; otherwise they still serve (runtime enforcement
    /// keeps the answer safe) and this counter is the audit trail.
    pub certify_failures: u64,
    /// Cumulative static-certification time in microseconds (summed in
    /// nanoseconds, converted when read).
    pub certify_micros: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Work report for one answered query: where the plan came from, what
/// the translation was, the plan's operator mix with its estimated
/// cardinality, and the executor's machine-independent cost counters
/// (the actual work, to compare against the estimate).
///
/// The report shares the executed plan with the plan cache instead of
/// copying it, so a cache hit builds no part of the translation. Read
/// the translated query with [`QueryReport::translated`] and the plan's
/// operator counts with [`QueryReport::plan`]; the whole plan (operators,
/// per-operator `est_rows`) is [`QueryReport::compiled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// The executed plan: the cached `Arc`, not a copy of it.
    pub compiled: Arc<CompiledQuery>,
    /// The compiled plan was served from the cache.
    pub cache_hit: bool,
    /// Executor work counters (`index_lookups` is non-zero only on the
    /// indexed path).
    pub eval: EvalStats,
    /// Operator counts and planned result cardinality of the executed
    /// plan (compare `plan.est_rows` against the actual answer length).
    pub plan: PlanSummary,
    /// The planner policy the executed plan was compiled under.
    pub policy: PlanPolicy,
    /// The plan's static certificate has no error findings (see
    /// [`sxv_xpath::certify()`]). Uncertified plans still serve safely —
    /// runtime enforcement is unchanged — unless the engine is in
    /// strict verify mode, which refuses them before execution.
    pub certified: bool,
}

impl QueryReport {
    /// The translated (document-side) query that was evaluated.
    pub fn translated(&self) -> &Path {
        &self.compiled.translated
    }
}

/// A query engine bound to one access policy.
///
/// The engine is `Sync`: all interior mutability is the sharded
/// translation cache, so one engine can serve concurrent callers (the
/// daemon's connection threads) over a shared immutable `Document` +
/// [`DocIndex`].
pub struct SecureEngine<'a> {
    spec: &'a AccessSpec,
    view: &'a SecurityView,
    /// The view-DTD graph rewriting runs on, built once; its `recProc`
    /// tables fill as queries need them and are shared by all of them.
    /// A malformed view keeps its error here, so only rewrite and
    /// optimize queries fail, each with this same error.
    view_graph: Result<ViewGraph>,
    /// The document-DTD graph the §5 optimizer runs on, built once.
    dtd_graph: ViewGraph,
    cache: PlanCache,
    /// Planner statistics derived once from the document DTD (expected
    /// per-label counts and fan-out); serving is assumed indexed, and
    /// plans degrade gracefully when a call arrives without an index.
    cost: CostModel,
    /// Accessibility artifacts for [`Approach::Annotate`], built once per
    /// served document and shared across queries and concurrent callers.
    access: AccessCache,
    /// Annotated document copies for [`Approach::Naive`], built once per
    /// served document so repeated naive queries measure query cost, not
    /// re-annotation (same `DocId` keying as the access cache).
    naive: RwLock<HashMap<DocId, Arc<Document>>>,
    /// Schema + accessibility context for the static plan certifier,
    /// built once from the specification and its view.
    certctx: CertifyContext,
    /// Strict verification: refuse to serve plans whose certificate has
    /// error findings instead of relying on runtime enforcement alone.
    verify: bool,
}

impl<'a> SecureEngine<'a> {
    /// Bind a specification and its derived view.
    pub fn new(spec: &'a AccessSpec, view: &'a SecurityView) -> Self {
        Self::with_cache_capacity(spec, view, DEFAULT_TRANSLATION_CACHE_CAPACITY)
    }

    /// Bind with an explicit translation-cache capacity (0 disables).
    pub fn with_cache_capacity(
        spec: &'a AccessSpec,
        view: &'a SecurityView,
        capacity: usize,
    ) -> Self {
        SecureEngine {
            spec,
            view,
            view_graph: ViewGraph::from_view(view),
            dtd_graph: ViewGraph::from_dtd(spec.dtd()),
            cache: PlanCache::new(capacity),
            cost: dtd_cost_model(spec.dtd(), true),
            access: AccessCache::default(),
            naive: RwLock::new(HashMap::new()),
            certctx: certify_context(spec, view),
            verify: false,
        }
    }

    /// Toggle strict verification: when on, answering refuses any plan
    /// whose static certificate has error findings
    /// ([`Error::Uncertified`]) instead of executing it.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Whether strict verification is on.
    pub fn verify_enabled(&self) -> bool {
        self.verify
    }

    /// The certifier context this engine checks plans against.
    pub fn certify_context(&self) -> &CertifyContext {
        &self.certctx
    }

    /// The view DTD text exposed to users of this policy.
    pub fn exposed_view_dtd(&self) -> String {
        self.view.view_dtd_to_string()
    }

    /// Cumulative cache counters since the engine was built.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative accessibility-bitmap cache counters since the engine
    /// was built (all zero unless [`Approach::Annotate`] was used).
    pub fn access_stats(&self) -> AccessCacheStats {
        let map = read_recover(&self.access.map);
        AccessCacheStats {
            builds: self.access.builds.load(Ordering::Relaxed),
            hits: self.access.hits.load(Ordering::Relaxed),
            entries: map.len(),
            bytes: map.values().map(|a| a.bytes()).sum(),
            build_micros: self.access.build_micros.load(Ordering::Relaxed),
        }
    }

    /// The cached [`AccessView`] of `doc`, building (and caching) it on
    /// first use. The build runs the §3.2 accessibility pass — indexed
    /// when `index` is given — and one σ expansion; every later query
    /// over the same document shares the artifact.
    pub fn access_view(&self, doc: &Document, index: Option<&DocIndex>) -> Arc<AccessView> {
        let key = doc.doc_id();
        if let Some(av) = read_recover(&self.access.map).get(&key) {
            self.access.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(av);
        }
        let started = std::time::Instant::now();
        let built = Arc::new(build_access_view(self.spec, self.view, doc, index));
        let micros = started.elapsed().as_micros() as u64;
        self.access.builds.fetch_add(1, Ordering::Relaxed);
        self.access.build_micros.fetch_add(micros, Ordering::Relaxed);
        bounded_insert(&self.access.map, key, built)
    }

    /// Seed the access cache with a pre-built artifact (e.g. loaded from
    /// an `.sxvpkg` package), so the first [`Approach::Annotate`] query
    /// pays neither the accessibility pass nor the σ expansion. The
    /// caller asserts the artifact was built for this engine's spec over
    /// the document stamped `doc_id`; a later [`Self::access_view`] call
    /// for that id is a cache hit. An artifact already cached for that id
    /// is kept.
    pub fn preload_access_view(&self, doc_id: DocId, view: Arc<AccessView>) {
        bounded_insert(&self.access.map, doc_id, view);
    }

    /// The cached annotated copy of `doc` for [`Approach::Naive`],
    /// building it on first use. Annotation is a document-sized one-time
    /// setup (like the access artifact), not per-query work: repeated
    /// naive queries over one document must not re-annotate, or their
    /// timings measure setup instead of evaluation.
    fn naive_annotated(&self, doc: &Document) -> Arc<Document> {
        let key = doc.doc_id();
        if let Some(annotated) = read_recover(&self.naive).get(&key) {
            return Arc::clone(annotated);
        }
        bounded_insert(&self.naive, key, Arc::new(NaiveBaseline::annotate(self.spec, doc)))
    }

    /// Translate a view query to a document query.
    ///
    /// Recursive views translate directly into regular path expressions
    /// with Kleene closures — no document height is involved. The
    /// translation comes from the [`PlanPolicy::Auto`] plan, the one
    /// every serving surface runs, and shares its plan-cache entry.
    pub fn translate(&self, p: &Path, approach: Approach) -> Result<Path> {
        self.plan_certified(p, approach, PlanPolicy::Auto)
            .0
            .map(|planned| planned.plan.translated.clone())
    }

    /// Plan a view query end to end (translate → optimize → compile →
    /// certify), memoized: the bool says whether the plan came from the
    /// cache, in which case *none* of those phases ran. The plan comes
    /// with its cached static certificate.
    pub fn plan_certified(
        &self,
        p: &Path,
        approach: Approach,
        policy: PlanPolicy,
    ) -> (Result<Planned>, bool) {
        let key = CacheKey { query: simplify(p), approach, policy };
        if let Some(cached) = self.cache.lookup(&key) {
            return (cached, true);
        }
        let planned = self.translate_uncached(&key.query, approach).map(|translated| {
            self.cache.plans_compiled.fetch_add(1, Ordering::Relaxed);
            // Annotate plans filter the untranslated view query through
            // the accessibility artifact; every other approach runs its
            // translation as-is.
            let plan = Arc::new(if approach == Approach::Annotate {
                compile_annotate(&translated, policy, &self.cost)
            } else {
                compile(&translated, policy, &self.cost)
            });
            // Certify once per compile; the certificate rides in the
            // cache entry so hits pay nothing.
            let cert = self.certify_counted(&plan);
            Planned { plan, cert }
        });
        self.cache.insert(key, planned.clone());
        (planned, false)
    }

    /// Run the static certifier over a freshly compiled plan, keeping
    /// the certification counters (time, count, failures) accurate.
    fn certify_counted(&self, plan: &CompiledQuery) -> Arc<PlanCertificate> {
        let started = std::time::Instant::now();
        let cert = Arc::new(certify(plan, &self.certctx));
        self.cache.certify_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cache.plans_certified.fetch_add(1, Ordering::Relaxed);
        if !cert.certified() {
            self.cache.certify_failures.fetch_add(1, Ordering::Relaxed);
        }
        cert
    }

    fn translate_uncached(&self, p: &Path, approach: Approach) -> Result<Path> {
        match approach {
            // Annotate serves the view query as-is; security comes from
            // the per-document accessibility artifact at execution time.
            Approach::Annotate => Ok(p.clone()),
            Approach::Naive => Ok(NaiveBaseline::rewrite(p)),
            Approach::Rewrite | Approach::Optimize => {
                // Recursive views rewrite (and optimize) directly into
                // Kleene-closure expressions — the §4.2 unfolding oracle
                // (`rewrite_with_height`) stays out of the serving path.
                let rewritten = self.view_graph.as_ref().map_err(Error::clone)?.rewrite(p);
                Ok(if approach == Approach::Optimize {
                    optimize_over(self.spec.dtd(), &self.dtd_graph, &rewritten)
                } else {
                    rewritten
                })
            }
        }
    }

    /// Answer by compiled plan: fetch (or compile-and-cache) the plan for
    /// `(query, approach, policy)` and execute it. A cache hit skips
    /// parse-normalize, rewrite, optimize *and* planning — only the
    /// executor runs. The index is a pure accelerator: plans are compiled
    /// for indexed serving and degrade to subtree scans without one.
    /// [`Approach::Naive`] executes its plan over a per-document cached
    /// annotated copy, so the given index (built for `doc`, not the
    /// copy) is ignored on that path. [`Approach::Annotate`] filters
    /// through the document's cached [`AccessView`].
    ///
    /// Returns the answer with a [`QueryReport`] of the work done: the
    /// executed plan (shared with the cache, not copied), whether it was
    /// a cache hit, the plan's operator mix and the executor's counters.
    pub fn answer_report_policy(
        &self,
        doc: &Document,
        index: Option<&DocIndex>,
        p: &Path,
        approach: Approach,
        policy: PlanPolicy,
    ) -> Result<(Vec<NodeId>, QueryReport)> {
        let (planned, cache_hit) = self.plan_certified(p, approach, policy);
        let planned = planned?;
        let certified = planned.cert.certified();
        if self.verify && !certified {
            return Err(Error::Uncertified {
                query: p.to_string(),
                findings: planned
                    .cert
                    .errors()
                    .map(|f| f.describe())
                    .collect::<Vec<_>>()
                    .join("; "),
            });
        }
        let plan = planned.plan;
        // What the plan runs over: naive plans read the cached annotated
        // copy (without the index, which was built for `doc`), annotate
        // plans filter `doc` through its cached access view.
        let (annotated, access);
        let (doc, index, access) = match approach {
            Approach::Naive => {
                annotated = self.naive_annotated(doc);
                (&*annotated, None, None)
            }
            Approach::Annotate => {
                access = self.access_view(doc, index);
                (doc, index, Some(&*access))
            }
            Approach::Rewrite | Approach::Optimize => (doc, index, None),
        };
        let (answer, eval) = plan.execute_with_access(doc, index, access);
        Ok((
            answer,
            QueryReport {
                plan: plan.summary(),
                compiled: plan,
                cache_hit,
                eval,
                policy,
                certified,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::derive::derive_view;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;
    use sxv_xpath::parse;

    /// The unindexed `ForceWalk` answer under `approach`.
    fn answer(
        engine: &SecureEngine<'_>,
        doc: &Document,
        p: &Path,
        approach: Approach,
    ) -> Vec<NodeId> {
        engine.answer_report_policy(doc, None, p, approach, PlanPolicy::ForceWalk).unwrap().0
    }

    fn setup() -> (AccessSpec, SecurityView, Document) {
        let dtd = parse_dtd(
            r#"
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo, test)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT staffInfo (staff*)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (name)>
<!ELEMENT nurse (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT test (#PCDATA)>
"#,
            "hospital",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd)
            .bind("wardNo", "6")
            .cond_str("hospital", "dept", "*/patient/wardNo=$wardNo")
            .unwrap()
            .deny("dept", "clinicalTrial")
            .allow("clinicalTrial", "patientInfo")
            .deny("clinicalTrial", "test")
            .deny("treatment", "trial")
            .deny("treatment", "regular")
            .allow("trial", "bill")
            .allow("regular", "bill")
            .allow("regular", "medication")
            .build()
            .unwrap();
        let view = derive_view(&spec).unwrap();
        let doc = parse_xml(
            r#"<hospital><dept>
<clinicalTrial><patientInfo><patient><name>Ann</name><wardNo>6</wardNo>
<treatment><trial><bill>100</bill></trial></treatment></patient></patientInfo><test>t</test></clinicalTrial>
<patientInfo><patient><name>Bob</name><wardNo>6</wardNo>
<treatment><regular><bill>70</bill><medication>m</medication></regular></treatment></patient></patientInfo>
<staffInfo/></dept></hospital>"#,
        )
        .unwrap();
        (spec, view, doc)
    }

    #[test]
    fn all_approaches_agree_on_paper_queries() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        for q in ["//patient/name", "//bill", "dept/patientInfo/patient", "//name"] {
            let p = parse(q).unwrap();
            let rewrite_ans = answer(&engine, &doc, &p, Approach::Rewrite);
            let optimize_ans = answer(&engine, &doc, &p, Approach::Optimize);
            let naive_ans = answer(&engine, &doc, &p, Approach::Naive);
            assert_eq!(rewrite_ans, optimize_ans, "{q}");
            // Naive evaluates on an annotated *copy*: same node columns, so
            // NodeIds are directly comparable.
            assert_eq!(rewrite_ans, naive_ans, "{q}");
        }
    }

    #[test]
    fn annotate_agrees_with_rewrite() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).unwrap();
        for q in ["//patient/name", "//bill", "dept/patientInfo/patient", "//name", "dept/*", "//*"]
        {
            let p = parse(q).unwrap();
            let rewrite_ans = answer(&engine, &doc, &p, Approach::Rewrite);
            for index in [None, Some(&index)] {
                for policy in PlanPolicy::ALL {
                    let (ans, report) = engine
                        .answer_report_policy(&doc, index, &p, Approach::Annotate, policy)
                        .unwrap();
                    assert_eq!(ans, rewrite_ans, "{q} ({policy:?}, indexed={})", index.is_some());
                    assert_eq!(*report.translated(), simplify(&p), "annotate must not rewrite");
                }
            }
        }
    }

    #[test]
    fn annotate_blocks_sensitive_labels() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        for q in ["//clinicalTrial", "//trial", "//test", "//regular"] {
            let ans = answer(&engine, &doc, &parse(q).unwrap(), Approach::Annotate);
            assert!(ans.is_empty(), "{q} leaked {} nodes", ans.len());
        }
        let bills = answer(&engine, &doc, &parse("//bill").unwrap(), Approach::Annotate);
        assert_eq!(bills.len(), 2);
    }

    #[test]
    fn access_view_built_once_per_document() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        assert_eq!(engine.access_stats(), AccessCacheStats::default());
        let p = parse("//patient/name").unwrap();
        answer(&engine, &doc, &p, Approach::Annotate);
        let first = engine.access_stats();
        assert_eq!((first.builds, first.hits, first.entries), (1, 0, 1));
        assert!(first.bytes > 0);
        answer(&engine, &doc, &parse("//bill").unwrap(), Approach::Annotate);
        let second = engine.access_stats();
        assert_eq!(second.builds, 1, "second query must not rebuild the artifact");
        assert_eq!(second.hits, 1);
        assert_eq!(second.build_micros, first.build_micros);
        // A different document gets its own artifact.
        let other = parse_xml("<hospital><dept/></hospital>").unwrap();
        answer(&engine, &other, &p, Approach::Annotate);
        assert_eq!(engine.access_stats().builds, 2);
    }

    #[test]
    fn naive_annotated_copy_is_built_once_per_document() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let first = engine.naive_annotated(&doc);
        let second = engine.naive_annotated(&doc);
        assert!(Arc::ptr_eq(&first, &second), "repeat queries must share the annotated copy");
        // Queries through the public path use (and keep) the same copy.
        answer(&engine, &doc, &parse("//bill").unwrap(), Approach::Naive);
        assert!(Arc::ptr_eq(&first, &engine.naive_annotated(&doc)));
        // A different document gets its own annotated copy.
        let other = parse_xml("<hospital><dept/></hospital>").unwrap();
        assert!(!Arc::ptr_eq(&first, &engine.naive_annotated(&other)));
    }

    #[test]
    fn preloaded_access_view_skips_the_build() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let artifact = Arc::new(crate::annotate::build_access_view(&spec, &view, &doc, None));
        engine.preload_access_view(doc.doc_id(), Arc::clone(&artifact));
        let served = engine.access_view(&doc, None);
        assert!(Arc::ptr_eq(&artifact, &served), "preloaded artifact must be served as-is");
        let stats = engine.access_stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (0, 1, 1));
        // Annotate queries run off the preloaded artifact with no build.
        answer(&engine, &doc, &parse("//bill").unwrap(), Approach::Annotate);
        assert_eq!(engine.access_stats().builds, 0);
    }

    #[test]
    fn access_cache_does_not_alias_replaced_documents() {
        // Regression test for the pointer-keyed AccessView cache: keying
        // by `(address, len)` serves a *dropped* document's bitmaps to a
        // different same-length document whose allocation lands on the
        // same address — which boxed same-size allocations routinely do.
        // With `DocId` keys the second document always builds its own
        // artifact.
        let (spec, view, _) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient/name").unwrap();
        // Same node count and shape; only the ward number differs, so
        // document A has a visible dept (wardNo=6) and document B hides
        // everything (wardNo=7 fails the σ qualifier).
        let xml = |ward: &str| {
            format!(
                "<hospital><dept><patientInfo><patient><name>Ann</name><wardNo>{ward}</wardNo>\
                 <treatment><trial><bill>9</bill></trial></treatment></patient></patientInfo>\
                 <staffInfo/></dept></hospital>"
            )
        };
        let a = Box::new(parse_xml(&xml("6")).unwrap());
        let len_a = a.len();
        let visible = answer(&engine, &a, &p, Approach::Annotate);
        assert_eq!(visible.len(), 1, "ward 6 exposes Ann");
        drop(a);
        // B is a distinct same-length document; a recycled allocation
        // must not resurrect A's accessibility bitmaps.
        let b = Box::new(parse_xml(&xml("7")).unwrap());
        assert_eq!(b.len(), len_a, "the aliasing trap needs equal lengths");
        let hidden = answer(&engine, &b, &p, Approach::Annotate);
        let fresh = SecureEngine::new(&spec, &view);
        assert_eq!(
            hidden,
            answer(&fresh, &b, &p, Approach::Annotate),
            "cached engine must answer exactly like a cold engine"
        );
        assert!(hidden.is_empty(), "ward 7 dept is hidden; stale bitmaps leaked a name");
        assert_eq!(
            engine.access_stats().builds,
            2,
            "the second document must build its own artifact, not hit A's"
        );
    }

    #[test]
    fn access_cache_concurrent_eviction_stays_consistent() {
        // Many callers racing the ACCESS_CACHE_CAPACITY eviction path:
        // more distinct documents than the cache holds, hammered from
        // several threads. Every call must either hit or build (never
        // both, never neither), the resident set must respect capacity,
        // and all answers must match a cold engine's.
        let (spec, view, _) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient/name").unwrap();
        let docs: Vec<Document> = (0..ACCESS_CACHE_CAPACITY + 4)
            .map(|i| {
                parse_xml(&format!(
                    "<hospital><dept><patientInfo><patient><name>P{i}</name>\
                     <wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment>\
                     </patient></patientInfo><staffInfo/></dept></hospital>"
                ))
                .unwrap()
            })
            .collect();
        const ROUNDS: usize = 8;
        let threads = 4;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let engine = &engine;
                    let docs = &docs;
                    let p = &p;
                    s.spawn(move || {
                        for r in 0..ROUNDS {
                            // Different threads walk the documents in
                            // different orders so hits, builds and
                            // evictions interleave.
                            for i in 0..docs.len() {
                                let doc = &docs[(i * (t + 1) + r) % docs.len()];
                                let ans = answer(engine, doc, p, Approach::Annotate);
                                assert_eq!(ans.len(), 1, "every doc exposes its one patient");
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let stats = engine.access_stats();
        let calls = (threads * ROUNDS * docs.len()) as u64;
        assert_eq!(
            stats.builds + stats.hits,
            calls,
            "each access_view call hits or builds exactly once"
        );
        assert!(stats.builds >= docs.len() as u64, "every distinct document built at least once");
        assert!(stats.entries <= ACCESS_CACHE_CAPACITY, "eviction respects capacity");
        assert!(stats.bytes > 0);
        // Racing builders on one document must still share a single Arc.
        let shared: Vec<Arc<AccessView>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..threads).map(|_| s.spawn(|| engine.access_view(&docs[0], None))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            shared.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "concurrent callers over one document share one artifact"
        );
    }

    #[test]
    fn annotate_concurrent_matches_sequential() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).unwrap();
        let queries: Vec<Path> = ["//patient/name", "//bill", "//name", "dept/*"]
            .iter()
            .cycle()
            .take(24)
            .map(|q| parse(q).unwrap())
            .collect();
        let sequential: Vec<Vec<NodeId>> =
            queries.iter().map(|p| answer(&engine, &doc, p, Approach::Annotate)).collect();
        let (annotate, auto) = (Approach::Annotate, PlanPolicy::Auto);
        for answers in answer_concurrently(&engine, &doc, &index, &queries, annotate, auto, 4) {
            assert_eq!(answers, sequential);
        }
        let stats = engine.access_stats();
        assert_eq!(stats.entries, 1, "callers share one artifact");
    }

    #[test]
    fn sensitive_data_unreachable() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        for q in ["//clinicalTrial", "//trial", "//test", "//regular"] {
            let ans = answer(&engine, &doc, &parse(q).unwrap(), Approach::Optimize);
            assert!(ans.is_empty(), "{q} leaked {} nodes", ans.len());
        }
        // But the *content* the nurse may see under those regions flows.
        let bills = answer(&engine, &doc, &parse("//bill").unwrap(), Approach::Optimize);
        assert_eq!(bills.len(), 2);
    }

    #[test]
    fn exposed_dtd_hides_sigma_and_labels() {
        let (spec, view, _) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let exposed = engine.exposed_view_dtd();
        assert!(exposed.contains("dept"));
        assert!(!exposed.contains("clinicalTrial"));
        assert!(!exposed.contains("wardNo='6'"), "σ qualifier must not leak");
    }

    #[test]
    fn indexed_answers_match() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).expect("parsed docs are in document order");
        for q in ["//patient/name", "//bill", "//clinicalTrial", "dept/*"] {
            let p = parse(q).unwrap();
            assert_eq!(
                answer(&engine, &doc, &p, Approach::Optimize),
                engine
                    .answer_report_policy(
                        &doc,
                        Some(&index),
                        &p,
                        Approach::Optimize,
                        PlanPolicy::ForceWalk
                    )
                    .unwrap()
                    .0,
                "{q}"
            );
        }
    }

    #[test]
    fn translation_cache_hits_on_repeat_and_normalized_queries() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient/name").unwrap();
        let first = answer(&engine, &doc, &p, Approach::Optimize);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

        let second = answer(&engine, &doc, &p, Approach::Optimize);
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Normalization: an equivalent-after-simplification query shares
        // the entry instead of retranslating.
        let p2 = parse("//patient/name | //patient/name").unwrap();
        answer(&engine, &doc, &p2, Approach::Optimize);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

        // Different approach = different entry.
        answer(&engine, &doc, &p, Approach::Rewrite);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
    }

    #[test]
    fn auto_plans_are_compiled_once_and_never_replaced() {
        let (spec, view, _) = setup();
        // A document far wider than the DTD-derived estimates: hundreds
        // of patients where plancost expects ~32. Observed rows never
        // feed back into the plan: the entry the miss compiled serves
        // every later call.
        let mut src = String::from(
            "<hospital><dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial><patientInfo>",
        );
        for i in 0..300 {
            src.push_str(&format!(
                "<patient><name>p{i}</name><wardNo>6</wardNo><treatment><regular>\
                 <bill>1</bill><medication>m</medication></regular></treatment></patient>"
            ));
        }
        src.push_str("</patientInfo><staffInfo/></dept></hospital>");
        let doc = parse_xml(&src).unwrap();
        let index = DocIndex::new(&doc).unwrap();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient").unwrap();
        let mut compiled = None;
        for i in 0..3 {
            let (answer, report) = engine
                .answer_report_policy(&doc, Some(&index), &p, Approach::Annotate, PlanPolicy::Auto)
                .unwrap();
            assert_eq!(answer.len(), 300);
            assert_eq!(report.cache_hit, i > 0);
            compiled.get_or_insert(report.compiled);
        }
        let (planned, hit) = engine.plan_certified(&p, Approach::Annotate, PlanPolicy::Auto);
        assert!(hit);
        assert!(
            Arc::ptr_eq(&planned.unwrap().plan, &compiled.unwrap()),
            "the cache must serve the plan the miss compiled"
        );
        let stats = engine.cache_stats();
        assert_eq!((stats.plans_compiled, stats.plans_certified), (1, 1));
    }

    #[test]
    fn translation_cache_reports_hit_per_query() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//bill").unwrap();
        let (_, report) = engine
            .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
            .unwrap();
        assert!(!report.cache_hit);
        let (_, report) = engine
            .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
            .unwrap();
        assert!(report.cache_hit);
        assert_eq!(*report.translated(), engine.translate(&p, Approach::Optimize).unwrap());
    }

    #[test]
    fn plan_cache_hits_skip_compilation() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient/name").unwrap();
        for _ in 0..3 {
            answer(&engine, &doc, &p, Approach::Optimize);
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.plans_compiled, 1, "repeats must not re-plan");
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9, "{}", stats.hit_rate());
        // A different policy is a different plan: exactly one more compile.
        engine.answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::Auto).unwrap();
        assert_eq!(engine.cache_stats().plans_compiled, 2);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// The §6 Adex policy and the BOM contractor policy, as shipped.
    fn asset_specs() -> (AccessSpec, AccessSpec) {
        let adex = parse_dtd(include_str!("../../../assets/adex.dtd"), "adex").unwrap();
        let bom = parse_dtd(include_str!("../../../assets/bom.dtd"), "bom").unwrap();
        (
            AccessSpec::parse(&adex, include_str!("../../../assets/adex_section6.spec"), &[])
                .unwrap(),
            AccessSpec::parse(&bom, include_str!("../../../assets/bom_contractor.spec"), &[])
                .unwrap(),
        )
    }

    /// An Adex document: `houses` house ads (one `r-e.warranty` each)
    /// and one employment ad carrying `job_extra`. `whole` wraps the body
    /// in the DTD's `adex` root; otherwise `body` is the root.
    fn adex_doc(houses: usize, job_extra: &str, whole: bool) -> Document {
        let ad = |content: &str| {
            format!(
                "<ad-instance><ad-id>1</ad-id><classification><category>c</category>\
                 <region>r</region></classification><ad-content>{content}</ad-content>\
                 <media/></ad-instance>"
            )
        };
        let house = ad("<real-estate><house><r-e.asking-price>9</r-e.asking-price>\
                        <r-e.warranty>w</r-e.warranty><r-e.location>l</r-e.location>\
                        <r-e.size>s</r-e.size></house></real-estate>");
        let job = ad(&format!(
            "<employment><job-title>t</job-title><salary>1</salary><employer>e</employer>\
             <job-description>d</job-description>{job_extra}</employment>"
        ));
        let body = format!("<body><section>{}{job}</section></body>", house.repeat(houses));
        let src = if whole {
            format!(
                "<adex><head><transaction-id>1</transaction-id><buyer-account>a</buyer-account>\
                 <buyer-info><company-id>c</company-id><contact-info><contact-name>n\
                 </contact-name><contact-phone>p</contact-phone><contact-email>e\
                 </contact-email></contact-info><payment-detail>d</payment-detail>\
                 </buyer-info></head>{body}</adex>"
            )
        } else {
            body
        };
        parse_xml(&src).unwrap()
    }

    /// A BOM document: one assembly holding a full binary part tree of
    /// the given depth, every supplier carrying `supplier_extra`. `whole`
    /// wraps the assembly in the DTD's `bom` root.
    fn bom_doc(depth: usize, supplier_extra: &str, whole: bool) -> Document {
        fn part(depth: usize, extra: &str) -> String {
            let sub = if depth == 0 { String::new() } else { part(depth - 1, extra).repeat(2) };
            format!(
                "<part><partno>p{depth}</partno><cost>1</cost><supplier><name>n</name>\
                 <price>2</price>{extra}</supplier><subpart>{sub}</subpart></part>"
            )
        }
        let assembly = format!("<assembly>{}</assembly>", part(depth, supplier_extra));
        parse_xml(&if whole { format!("<bom>{assembly}</bom>") } else { assembly }).unwrap()
    }

    #[test]
    fn schema_slices_never_widen_answers_on_nonconforming_documents() {
        // Each query's Auto plan lowers its whole translation to one
        // schema slice. The conforming twin must take the slice; every
        // document that breaks the DTD — an extra edge reaching hidden
        // data, or a different root label — must get exactly the
        // ForceWalk answer, which a bare slice would exceed.
        let (adex, bom) = asset_specs();
        let leak = "<r-e.warranty>leak</r-e.warranty>";
        let cases = [
            (
                &adex,
                "//house/r-e.warranty | //apartment/r-e.warranty",
                "r-e.warranty",
                [adex_doc(300, "", true), adex_doc(3, leak, true), adex_doc(3, "", false)],
            ),
            (
                &bom,
                "//partno",
                "partno",
                [
                    bom_doc(8, "", true),
                    bom_doc(2, "<partno>leak</partno>", true),
                    bom_doc(2, "", false),
                ],
            ),
        ];
        for (spec, query, label, docs) in &cases {
            let view = derive_view(spec).unwrap();
            let engine = SecureEngine::new(spec, &view);
            let p = parse(query).unwrap();
            for (i, doc) in docs.iter().enumerate() {
                let conforming = i == 0;
                let index = DocIndex::new(doc).unwrap();
                let accessible = crate::compute_accessibility(spec, doc, None);
                for approach in [Approach::Rewrite, Approach::Optimize] {
                    let answer = |policy| {
                        engine
                            .answer_report_policy(doc, Some(&index), &p, approach, policy)
                            .unwrap()
                    };
                    let (walk, walk_rep) = answer(PlanPolicy::ForceWalk);
                    let (auto, rep) = answer(PlanPolicy::Auto);
                    let what = format!("{query} {approach:?} doc {i}");
                    assert_eq!(rep.plan.schema_slice, 1, "{what}: {}", rep.plan);
                    assert_eq!(auto, walk, "{what}: Auto differs from ForceWalk");
                    assert!(auto.iter().all(|&v| accessible.contains(v)), "{what}: leaked");
                    if conforming {
                        assert!(auto.len() >= 300, "{what}: {} answers", auto.len());
                        assert!(
                            rep.eval.nodes_touched <= auto.len() as u64 + 4,
                            "{what}: slice touched {} for {} answers",
                            rep.eval.nodes_touched,
                            auto.len()
                        );
                        assert!(walk_rep.eval.nodes_touched > 3 * auto.len() as u64, "{what}");
                    } else {
                        assert!(index.label_list(label).len() > walk.len(), "{what}: no trap");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_cache_key_is_height_free_for_recursive_views() {
        // part → sub → part keeps a cycle in the derived view, so
        // translation goes through the Kleene closure and the cache key
        // carries no document height: one compiled plan serves documents
        // of every depth. Under the old per-height unfolding key, the
        // deeper document below would have missed and recompiled.
        let dtd = parse_dtd(
            r#"
<!ELEMENT bom (part*)>
<!ELEMENT part (partno, cost, sub)>
<!ELEMENT sub (part*)>
<!ELEMENT partno (#PCDATA)>
<!ELEMENT cost (#PCDATA)>
"#,
            "bom",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("part", "cost").build().unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(view.is_recursive(), "the part cycle must survive derivation");
        let engine = SecureEngine::new(&spec, &view);
        let shallow =
            parse_xml("<bom><part><partno>a</partno><cost>1</cost><sub/></part></bom>").unwrap();
        let deep = parse_xml(
            "<bom><part><partno>a</partno><cost>1</cost><sub>\
             <part><partno>b</partno><cost>2</cost><sub>\
             <part><partno>c</partno><cost>3</cost><sub>\
             <part><partno>d</partno><cost>4</cost><sub/></part>\
             </sub></part></sub></part></sub></part></bom>",
        )
        .unwrap();
        assert!(deep.height() > shallow.height());
        let p = parse("//partno").unwrap();
        let (ans, report) = engine
            .answer_report_policy(&shallow, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
            .unwrap();
        assert_eq!(ans.len(), 1);
        assert!(!report.cache_hit, "first answer compiles the closure plan");
        let (ans, report) = engine
            .answer_report_policy(&deep, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
            .unwrap();
        assert_eq!(ans.len(), 4, "the closure reaches every nesting level");
        assert!(report.cache_hit, "a deeper document must not miss the cache");
        assert_eq!(engine.cache_stats().plans_compiled, 1, "one plan serves both heights");
        // The cached entry is one shared Arc, not a per-document clone.
        let (a, _) = engine.plan_certified(&p, Approach::Optimize, PlanPolicy::ForceWalk);
        let (b, _) = engine.plan_certified(&p, Approach::Optimize, PlanPolicy::ForceWalk);
        assert!(Arc::ptr_eq(&a.unwrap().plan, &b.unwrap().plan));
    }

    #[test]
    fn auto_policy_matches_forced_plans() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).unwrap();
        for q in ["//patient/name", "//bill", "dept/*", "//name", "//clinicalTrial"] {
            let p = parse(q).unwrap();
            for approach in [Approach::Rewrite, Approach::Optimize] {
                let walk = answer(&engine, &doc, &p, approach);
                for policy in PlanPolicy::ALL {
                    let (ans, report) = engine
                        .answer_report_policy(&doc, Some(&index), &p, approach, policy)
                        .unwrap();
                    assert_eq!(report.policy, policy);
                    assert_eq!(ans, walk, "{q} ({approach:?}, {policy}) differs from the walk");
                }
            }
        }
    }

    #[test]
    fn report_carries_plan_metadata() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//patient/name").unwrap();
        let (ans, report) = engine
            .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
            .unwrap();
        assert!(report.plan.total_ops() > 0, "plan summary must count operators");
        assert!(report.plan.est_rows > 0, "DTD estimates should expect some names");
        assert!(!ans.is_empty());
        // Walk-policy plans never contain merge-join operators.
        assert_eq!(report.plan.child_merge_join, 0);
        let (_, joined) = engine
            .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::ForceJoin)
            .unwrap();
        assert_eq!(joined.plan.child_walk, 0, "{:?}", joined.plan);
    }

    #[test]
    fn plan_certified_exposes_compiled_plan() {
        let (spec, view, _) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//bill").unwrap();
        let (planned, hit) = engine.plan_certified(&p, Approach::Optimize, PlanPolicy::Auto);
        let planned = planned.unwrap();
        assert!(!hit);
        assert_eq!(planned.plan.translated, engine.translate(&p, Approach::Optimize).unwrap());
        let (again, hit2) = engine.plan_certified(&p, Approach::Optimize, PlanPolicy::Auto);
        let again = again.unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&planned.plan, &again.plan), "hits share the cached Arc");
        assert!(Arc::ptr_eq(&planned.cert, &again.cert), "and the cached certificate");
    }

    #[test]
    fn pipeline_plans_certify_across_approaches_and_policies() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        for q in ["//patient/name", "//bill", "dept/patientInfo/patient", "//name", "//test"] {
            let p = parse(q).unwrap();
            for approach in [Approach::Rewrite, Approach::Optimize, Approach::Annotate] {
                for policy in PlanPolicy::ALL {
                    let (planned, _) = engine.plan_certified(&p, approach, policy);
                    let planned = planned.unwrap();
                    assert!(
                        planned.cert.certified(),
                        "{q} ({approach:?}, {policy:?}): {:?}",
                        planned.cert.errors().map(|f| f.describe()).collect::<Vec<_>>()
                    );
                    let (_, report) =
                        engine.answer_report_policy(&doc, None, &p, approach, policy).unwrap();
                    assert!(report.certified, "{q} ({approach:?}, {policy:?})");
                }
            }
        }
    }

    #[test]
    fn verify_mode_refuses_uncertified_naive_plan() {
        let (spec, view, doc) = setup();
        // The naive baseline's plan walks the *document* DTD and relies on
        // runtime `@accessibility` filtering, which the certifier cannot
        // credit: a query into a hidden region must be refused under
        // --verify even though runtime enforcement would empty it.
        let mut engine = SecureEngine::new(&spec, &view);
        let p = parse("//test").unwrap();
        let (_, report) =
            engine.answer_report_policy(&doc, None, &p, Approach::Naive, PlanPolicy::Auto).unwrap();
        assert!(!report.certified, "naive //test should carry a failing certificate");
        engine.set_verify(true);
        assert!(engine.verify_enabled());
        let err = engine
            .answer_report_policy(&doc, None, &p, Approach::Naive, PlanPolicy::Auto)
            .unwrap_err();
        match err {
            Error::Uncertified { query, findings } => {
                assert_eq!(query, p.to_string());
                assert!(findings.contains("test"), "{findings}");
            }
            other => panic!("expected Uncertified, got {other:?}"),
        }
        // Certified plans still serve under strict verification.
        let p_ok = parse("//bill").unwrap();
        let (ans, report) = engine
            .answer_report_policy(&doc, None, &p_ok, Approach::Optimize, PlanPolicy::Auto)
            .unwrap();
        assert!(report.certified);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn certify_counters_track_compiles_and_failures() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//bill").unwrap();
        answer(&engine, &doc, &p, Approach::Optimize);
        answer(&engine, &doc, &p, Approach::Optimize); // hit: no re-certification
        let stats = engine.cache_stats();
        assert_eq!(stats.plans_certified, 1, "one certificate per compile");
        assert_eq!(stats.certify_failures, 0);
        engine
            .answer_report_policy(
                &doc,
                None,
                &parse("//test").unwrap(),
                Approach::Naive,
                PlanPolicy::Auto,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.plans_certified, 2);
        assert_eq!(stats.certify_failures, 1, "the naive hidden-region plan fails");
    }

    #[test]
    fn translation_cache_evicts_least_recently_used() {
        let (spec, view, _) = setup();
        let engine = SecureEngine::with_cache_capacity(&spec, &view, 2);
        let a = parse("//bill").unwrap();
        let b = parse("//name").unwrap();
        let c = parse("//patient").unwrap();
        engine.translate(&a, Approach::Optimize).unwrap();
        engine.translate(&b, Approach::Optimize).unwrap();
        engine.translate(&a, Approach::Optimize).unwrap(); // refresh a
        engine.translate(&c, Approach::Optimize).unwrap(); // evicts b
        let before = engine.cache_stats();
        engine.translate(&a, Approach::Optimize).unwrap(); // still cached
        assert_eq!(engine.cache_stats().hits, before.hits + 1);
        engine.translate(&b, Approach::Optimize).unwrap(); // was evicted
        assert_eq!(engine.cache_stats().misses, before.misses + 1);
        assert!(engine.cache_stats().entries <= 2);
    }

    #[test]
    fn indexed_report_counts_index_work_and_agrees() {
        // Rewriting eliminates view-level `//` on non-recursive views, so
        // the structural index earns its keep inside *qualifiers*: use a σ
        // condition with a descendant probe so the translated query keeps
        // one, then check the indexed path does strictly less axis work.
        let (base, _, doc) = setup();
        let spec = AccessSpec::builder(base.dtd())
            .bind("wardNo", "6")
            .cond_str("hospital", "dept", "//wardNo=$wardNo")
            .unwrap()
            .deny("dept", "clinicalTrial")
            .allow("clinicalTrial", "patientInfo")
            .deny("clinicalTrial", "test")
            .deny("treatment", "trial")
            .deny("treatment", "regular")
            .allow("trial", "bill")
            .allow("regular", "bill")
            .allow("regular", "medication")
            .build()
            .unwrap();
        let view = derive_view(&spec).unwrap();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).unwrap();
        // `Rewrite` keeps σ qualifiers verbatim (`Optimize` may simplify
        // the descendant probe into child paths, leaving nothing for the
        // index to accelerate).
        for q in ["//patient[name='Bob']/name", "//patient/name", "//bill"] {
            let p = parse(q).unwrap();
            let (scan_ans, scan) = engine
                .answer_report_policy(&doc, None, &p, Approach::Rewrite, PlanPolicy::ForceWalk)
                .unwrap();
            let (idx_ans, idx) = engine
                .answer_report_policy(
                    &doc,
                    Some(&index),
                    &p,
                    Approach::Rewrite,
                    PlanPolicy::ForceWalk,
                )
                .unwrap();
            assert_eq!(scan_ans, idx_ans, "{q}");
            assert!(!scan_ans.is_empty(), "{q} should select something");
            assert_eq!(scan.eval.index_lookups, 0, "{q}");
            assert!(idx.eval.index_lookups > 0, "{q}: indexed path must probe the index");
            assert!(
                idx.eval.nodes_touched < scan.eval.nodes_touched,
                "{q}: indexed {} vs scan {}",
                idx.eval.nodes_touched,
                scan.eval.nodes_touched
            );
        }
    }

    /// Answer `queries`, in order, from each of `threads` scoped threads
    /// sharing `engine` and started together; one answer list per thread.
    fn answer_concurrently(
        engine: &SecureEngine<'_>,
        doc: &Document,
        index: &DocIndex,
        queries: &[Path],
        approach: Approach,
        policy: PlanPolicy,
        threads: usize,
    ) -> Vec<Vec<Vec<NodeId>>> {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        queries
                            .iter()
                            .map(|p| {
                                engine
                                    .answer_report_policy(doc, Some(index), p, approach, policy)
                                    .unwrap()
                                    .0
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_answers_match_sequential_and_keep_order() {
        let (spec, view, doc) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let index = DocIndex::new(&doc).unwrap();
        let queries: Vec<Path> = ["//patient/name", "//bill", "//name", "dept/*", "//wardNo"]
            .iter()
            .cycle()
            .take(40)
            .map(|q| parse(q).unwrap())
            .collect();
        let sequential: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|p| {
                engine
                    .answer_report_policy(
                        &doc,
                        Some(&index),
                        p,
                        Approach::Optimize,
                        PlanPolicy::ForceWalk,
                    )
                    .unwrap()
                    .0
            })
            .collect();
        let (optimize, join) = (Approach::Optimize, PlanPolicy::ForceJoin);
        for threads in [1, 2, 4] {
            for answers in
                answer_concurrently(&engine, &doc, &index, &queries, optimize, join, threads)
            {
                assert_eq!(answers, sequential, "{threads} threads");
            }
        }
        // The shared cache served repeats: 5 distinct queries, many hits.
        let stats = engine.cache_stats();
        assert!(stats.hits > stats.misses, "hits {} misses {}", stats.hits, stats.misses);
    }

    #[test]
    fn cache_survives_poisoned_shard() {
        // Poison every shard lock by panicking while holding the write
        // guard, then check the cache still serves lookups and inserts.
        let (spec, view, _) = setup();
        let engine = SecureEngine::new(&spec, &view);
        let p = parse("//bill").unwrap();
        engine.translate(&p, Approach::Optimize).unwrap();
        let before = engine.cache_stats();
        std::thread::scope(|s| {
            for shard in &engine.cache.shards {
                let _ = s
                    .spawn(|| {
                        let _guard = shard.write().unwrap();
                        panic!("poison the shard");
                    })
                    .join();
            }
        });
        assert!(engine.cache.shards.iter().all(|s| s.is_poisoned()), "shards must be poisoned");
        engine.translate(&p, Approach::Optimize).unwrap();
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "lookup recovers the poisoned guard");
        let p2 = parse("//name").unwrap();
        engine.translate(&p2, Approach::Optimize).unwrap();
        assert_eq!(engine.cache_stats().entries, before.entries + 1, "insert recovers too");
    }

    #[test]
    fn cache_shards_scale_with_capacity() {
        let (spec, view, _) = setup();
        let small = SecureEngine::with_cache_capacity(&spec, &view, 2);
        assert_eq!(small.cache.shards.len(), 1, "tiny caches stay exact-LRU");
        let default = SecureEngine::new(&spec, &view);
        assert_eq!(default.cache.shards.len(), MAX_CACHE_SHARDS);
        let off = SecureEngine::with_cache_capacity(&spec, &view, 0);
        let p = parse("//bill").unwrap();
        off.translate(&p, Approach::Optimize).unwrap();
        off.translate(&p, Approach::Optimize).unwrap();
        assert_eq!(off.cache_stats().entries, 0, "capacity 0 disables caching");
    }

    #[test]
    fn shared_graphs_translate_like_fresh_ones_in_any_order() {
        // One engine per policy translates every query through the same
        // two graphs and their shared recProc tables. Each translation
        // must print exactly as the free functions print it on graphs
        // built fresh for that query, whichever queries came before.
        let policy = |dtd: &str, root: &str, spec: &str, binds: &[(&str, &str)]| {
            AccessSpec::parse(&parse_dtd(dtd, root).unwrap(), spec, binds).unwrap()
        };
        let policies = [
            (
                policy(
                    include_str!("../../../assets/adex.dtd"),
                    "adex",
                    include_str!("../../../assets/adex_section6.spec"),
                    &[],
                ),
                vec![
                    "//buyer-info/contact-info",
                    "//house/r-e.warranty | //apartment/r-e.warranty",
                    "//buyer-info[//company-id and //contact-info]",
                    "//real-estate[//r-e.asking-price and //r-e.unit-type]",
                    "//*",
                    "//real-estate[.//r-e.warranty]/*",
                    "(real-estate | *)*/r-e.warranty",
                ],
            ),
            (
                policy(
                    include_str!("../../../assets/hospital.dtd"),
                    "hospital",
                    include_str!("../../../assets/hospital_nurse.spec"),
                    &[("wardNo", "6")],
                ),
                vec![
                    "//patient//bill",
                    "//dept//patientInfo/patient/name",
                    "//dept/patientInfo/patient/name",
                    "//patient[wardNo='6']/name",
                    "//treatment/*",
                    "//name/text()",
                    "//*",
                    "//dept[.//bill]/staffInfo",
                    "(dept | patientInfo | patient)*/name",
                ],
            ),
            (
                policy(
                    include_str!("../../../assets/bom.dtd"),
                    "bom",
                    include_str!("../../../assets/bom_contractor.spec"),
                    &[],
                ),
                vec![
                    "//partno",
                    "//part/name",
                    "assembly/part/subpart//partno",
                    "//*",
                    "//part[.//name]/partno",
                    "assembly/(part/subpart)*/part/partno",
                ],
            ),
        ];
        for (spec, queries) in &policies {
            let view = derive_view(spec).unwrap();
            // Capacity 0: every call takes the miss path.
            let engine = SecureEngine::with_cache_capacity(spec, &view, 0);
            let queries: Vec<Path> = queries.iter().map(|q| parse(q).unwrap()).collect();
            let fresh: Vec<[String; 2]> = queries
                .iter()
                .map(|p| {
                    let rewritten = crate::rewrite::rewrite(&view, &simplify(p)).unwrap();
                    let optimized = crate::optimize::optimize(spec.dtd(), &rewritten).unwrap();
                    [rewritten.to_string(), optimized.to_string()]
                })
                .collect();
            let forward: Vec<usize> = (0..queries.len()).collect();
            for i in forward.iter().copied().chain(forward.iter().rev().copied()) {
                for (k, approach) in [Approach::Rewrite, Approach::Optimize].into_iter().enumerate()
                {
                    let shared = engine.translate(&queries[i], approach).unwrap();
                    assert_eq!(shared.to_string(), fresh[i][k], "{approach:?} {}", queries[i]);
                }
            }
        }
    }

    #[test]
    fn engine_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SecureEngine<'_>>();
    }
}
