//! The per-process Dimmunix runtime for real OS threads.
//!
//! This is the integration layer of the paper translated to Rust: since Rust
//! has no interposition point on `std::sync::Mutex`, applications opt in by
//! using the wrapper types [`ImmuneMutex`](crate::ImmuneMutex) and
//! [`ImmuneMonitor`](crate::ImmuneMonitor), which call into a shared
//! [`DimmunixRuntime`] before and after every acquisition — exactly where the
//! modified `lockMonitor` / `unlockMonitor` / `waitMonitor` routines call the
//! Dimmunix core (§4).
//!
//! Thread safety goes beyond the paper: where the paper serializes the three
//! hooks behind one global VM lock, this runtime shards the engine state by
//! lock id ([`RuntimeOptions::shards`]). Each shard is an independent
//! [`Dimmunix`] engine behind its own mutex, so uncontended acquisitions of
//! locks on different shards proceed in parallel. A request that might close
//! a deadlock cycle (the requester already holds locks, some thread is
//! parked by avoidance, or the requesting position appears in the history)
//! takes the cross-shard path instead: every shard mutex is acquired in
//! ascending index order (a total order, so the runtime cannot deadlock
//! itself) and the decision is computed by `dimmunix-core`'s
//! [`request_cross_shard`] against the merged view. See
//! `dimmunix_core::ShardedDimmunix` for the ownership model and
//! `ARCHITECTURE.md` for the full protocol.
//!
//! The deadlock history is **not** sharded: every shard reads one shared,
//! immutable [`HistorySnapshot`] through an `Arc`. A detection (which holds
//! all shard locks) builds the successor snapshot, appends one record to
//! the append-only history log named by [`Config::history_path`], and swaps
//! the `Arc` into every shard; the request path reads its shard's snapshot
//! handle without any history-wide lock. At construction the runtime
//! replays the log — repairing a crash-partial tail record — so antibodies
//! survive process restarts and reboots (§2.1).
//!
//! Threads parked by avoidance wait on per-signature gates (condition
//! variables, global across shards) and are woken from the release path of
//! whichever shard releases a lock acquired at one of the signature's outer
//! positions.

use crate::exchange::{ExchangeOptions, ExchangeState, ExchangeStats};
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::{
    broadcast_signature, fast_path_eligible, holds_mask_with, request_cross_shard,
    stale_shard_after, stale_shard_consumed, try_request_local, AccessMode, Admission,
    AdmissionSummary, CallStack, Config, Dimmunix, EngineSlot, FnvMap, History, HistorySnapshot,
    LocalDecision, LockId, OwnerId, PositionId, RecoveryReport, RequestOutcome, ShardRouter,
    Signature, SignatureId, SiteKey, StackInterner, Stats, TaskId, ThreadId,
};
use dimmunix_exchange::{Pack, PackError};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::Waker;
use std::time::Duration;

/// What the wrapper types should do when the engine reports that the
/// requested acquisition closes a genuine deadlock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Return [`LockError::WouldDeadlock`] from the acquisition (fail-safe
    /// default for a library: the caller can back off and retry).
    #[default]
    Error,
    /// Block anyway — paper-faithful behaviour: the first occurrence of a
    /// deadlock freezes the threads involved; the signature is already
    /// persisted so the *next* run is immune.
    Block,
}

/// Errors surfaced by the immune lock types.
///
/// Marked `#[non_exhaustive]` (enum and variants): foreign matches need a
/// wildcard arm and cannot construct the variants, so future error kinds
/// and extra context fields are non-breaking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LockError {
    /// Acquiring would complete a deadlock cycle (and
    /// [`DeadlockPolicy::Error`] is in force). The signature has been added
    /// to the history. The lock and acquisition site identify *which*
    /// antibody refused the caller, so fail-safe retry loops can log the
    /// refusal instead of spinning blind.
    #[non_exhaustive]
    WouldDeadlock {
        /// The recorded signature.
        signature: SignatureId,
        /// The lock whose acquisition was refused.
        lock: LockId,
        /// The program location of the refused acquisition.
        site: AcquisitionSite,
        /// The owner whose acquisition was refused — an OS thread for the
        /// blocking lock types, an async task for the `asyncio` substrate.
        owner: OwnerId,
        /// Where the refused owner was spawned, when known (recorded for
        /// async tasks at `spawn`; `None` for OS threads, whose identity is
        /// not tied to a source location).
        spawn_site: Option<AcquisitionSite>,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::WouldDeadlock {
                signature,
                lock,
                site,
                owner,
                spawn_site,
            } => {
                write!(
                    f,
                    "acquiring lock {lock} at {site} by {owner} would complete deadlock {signature}"
                )?;
                if let Some(spawned) = spawn_site {
                    write!(f, " (task spawned at {spawned})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LockError {}

/// Options controlling a [`DimmunixRuntime`]. Readable through
/// [`DimmunixRuntime::options`]; constructed through [`RuntimeBuilder`]
/// (the struct is `#[non_exhaustive]`, so new knobs are non-breaking).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeOptions {
    /// Engine configuration (stack depth, toggles) — including the
    /// **persistence knobs**: [`Config::history_path`] names the
    /// append-only signature log the runtime replays at construction (with
    /// crash-tail repair) and appends one record to per detected deadlock,
    /// and [`Config::log_sync`] controls whether each append fsyncs (on by
    /// default: an antibody is durable the moment the detection returns).
    /// Unset `history_path` keeps the history purely in-memory.
    pub config: Config,
    /// Behaviour on detected deadlocks.
    pub deadlock_policy: DeadlockPolicy,
    /// Number of engine shards the lock-id space is partitioned over,
    /// clamped to `1..=`[`dimmunix_core::MAX_SHARDS`]. The default is
    /// `min(available_parallelism, MAX_SHARDS)` — one shard per core, so
    /// uncontended acquisitions on different shards run in parallel out of
    /// the box; `1` reproduces the paper's single global engine lock. The
    /// history is **not** per shard: every shard reads the same shared
    /// [`HistorySnapshot`], so raising the shard count does not multiply
    /// history memory (and the shards share one process-wide
    /// [`StackInterner`], so it does not multiply stack memory either).
    pub shards: usize,
    /// Collaborative-exchange wiring (see [`ExchangeOptions`]): pack files
    /// pulled at construction, contribution pack pushed on detections.
    /// `None` (the default) runs the paper's per-process immunity only.
    pub exchange: Option<ExchangeOptions>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            config: Config::default(),
            deadlock_policy: DeadlockPolicy::default(),
            shards: default_shards(),
            exchange: None,
        }
    }
}

/// The default shard count: one engine shard per available core, clamped to
/// [`dimmunix_core::MAX_SHARDS`]. With the lock-free admission path and the
/// shared [`StackInterner`] closing the historical per-shard memory and
/// cache-dilution costs, per-core sharding is the right default; a machine
/// whose parallelism cannot be determined falls back to the paper's single
/// engine lock.
fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(dimmunix_core::MAX_SHARDS))
}

/// Fluent configuration for a [`DimmunixRuntime`] — the construction
/// surface of the drop-in API.
///
/// [`build`](RuntimeBuilder::build) creates a private runtime (multi-runtime
/// tests, benches); [`install_global`](RuntimeBuilder::install_global) makes
/// the built runtime the process-global one that `ImmuneMutex::new(value)`
/// and friends attach to. Install before the first implicit use: once
/// [`DimmunixRuntime::global`] has run, the global runtime is fixed for the
/// life of the process (locks hold `Arc`s into it, so swapping it would
/// split the process across two engines).
///
/// ```
/// use dimmunix_rt::{DeadlockPolicy, DimmunixRuntime};
///
/// let rt = DimmunixRuntime::builder()
///     .shards(4)
///     .deadlock_policy(DeadlockPolicy::Error)
///     .log_sync(false)
///     .build();
/// assert_eq!(rt.shard_count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    options: RuntimeOptions,
    history: Option<History>,
}

impl RuntimeBuilder {
    /// Starts from the defaults: fail-safe deadlock policy, one engine
    /// shard per available core, in-memory history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole engine configuration. Apply this **before** the
    /// targeted knobs ([`history_path`](Self::history_path),
    /// [`log_sync`](Self::log_sync)), which tweak the configuration in
    /// place.
    pub fn config(mut self, config: Config) -> Self {
        self.options.config = config;
        self
    }

    /// Number of engine shards the lock-id space is partitioned over (see
    /// [`RuntimeOptions::shards`]). Default
    /// `min(available_parallelism, MAX_SHARDS)`; `1` is the paper's single
    /// global engine lock.
    pub fn shards(mut self, shards: usize) -> Self {
        self.options.shards = shards;
        self
    }

    /// Behaviour when an acquisition closes a genuine deadlock cycle.
    /// Default [`DeadlockPolicy::Error`] (fail-safe).
    pub fn deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.options.deadlock_policy = policy;
        self
    }

    /// Path of the append-only signature log: replayed (with crash-tail
    /// repair) at construction, appended to on every detection. Unset keeps
    /// the history purely in memory.
    pub fn history_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.options.config.history_path = Some(path.into());
        self
    }

    /// Whether each history-log append fsyncs (default `true`; see
    /// [`Config::log_sync`]).
    pub fn log_sync(mut self, sync: bool) -> Self {
        self.options.config.log_sync = sync;
        self
    }

    /// Enables collaborative exchange: the listed packs are pulled at
    /// [`build`](Self::build) (foreign antibodies quarantined until local
    /// positions vouch for their sites) and a contribution pack is pushed
    /// to the export path after every detection.
    pub fn exchange(mut self, options: ExchangeOptions) -> Self {
        self.options.exchange = Some(options);
        self
    }

    /// Pre-loads an explicit starting history (vendor-shipped antibodies,
    /// synthetic benchmark signatures). Takes precedence over replaying
    /// [`history_path`](Self::history_path) for the *starting* state; the
    /// path is still used for appends.
    pub fn history(mut self, history: History) -> Self {
        self.history = Some(history);
        self
    }

    /// Builds a private runtime.
    pub fn build(self) -> Arc<DimmunixRuntime> {
        match self.history {
            Some(history) => DimmunixRuntime::with_history(self.options, history),
            None => DimmunixRuntime::with_options(self.options),
        }
    }

    /// Builds the runtime and installs it as the process-global one used by
    /// the implicit constructors (`ImmuneMutex::new(value)`, …).
    ///
    /// # Errors
    /// Returns [`GlobalAlreadyInstalled`] if the global runtime already
    /// exists — either a previous install or a first implicit use that
    /// default-initialized it. The existing global stays in force.
    pub fn install_global(self) -> Result<Arc<DimmunixRuntime>, GlobalAlreadyInstalled> {
        let rt = self.build();
        let mut global = sync::lock(&GLOBAL_RUNTIME);
        if global.is_some() {
            return Err(GlobalAlreadyInstalled(()));
        }
        *global = Some(Arc::clone(&rt));
        Ok(rt)
    }
}

/// Error returned by [`RuntimeBuilder::install_global`] when the
/// process-global runtime was already initialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalAlreadyInstalled(());

impl fmt::Display for GlobalAlreadyInstalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the process-global Dimmunix runtime is already installed \
             (install_global must run before the first implicit use)"
        )
    }
}

impl std::error::Error for GlobalAlreadyInstalled {}

/// The process-global runtime backing the implicit constructors. Fixed at
/// first use for the life of the process (a `Mutex<Option>` rather than a
/// `OnceLock` only so the test-only reset can clear it).
static GLOBAL_RUNTIME: Mutex<Option<Arc<DimmunixRuntime>>> = Mutex::new(None);

#[derive(Default)]
struct SignatureGate {
    lock: Mutex<u64>,
    cv: Condvar,
}

/// One engine shard and its per-shard scratch state, behind one mutex.
struct ShardCell {
    engine: Dimmunix,
    /// Reused buffer for the release-path wake-up list, so steady-state
    /// releases perform no allocation.
    wake_scratch: Vec<SignatureId>,
}

impl ShardCell {
    fn new(engine: Dimmunix) -> Self {
        ShardCell {
            engine,
            wake_scratch: Vec::new(),
        }
    }
}

impl EngineSlot for ShardCell {
    fn engine(&self) -> &Dimmunix {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Dimmunix {
        &mut self.engine
    }
}

/// A lock admitted on the no-engine fast path and still held. The engine has
/// never seen this hold: the admission summary proved its site cannot appear
/// in any history signature and its owner cannot be a deadlock-cycle
/// participant, so the hold stays thread-private until either it is released
/// (wake-free, since a bloom-clear site can de-instantiate no signature) or
/// the same thread takes the slow path for a nested acquisition — at which
/// point the hold is published into its home shard's RAG first, so cycle
/// detection sees the full hold set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FastHold {
    lock: LockId,
    mode: AccessMode,
    /// The acquisition site, kept so a later publish can intern the same
    /// call stack the locked path would have recorded.
    site: AcquisitionSite,
}

/// Per-(runtime, OS thread) routing state. Only the owning thread reads or
/// writes its entry, so no synchronization is needed.
#[derive(Debug, Clone, Copy)]
struct ThreadRoute {
    id: ThreadId,
    /// Bit `s` set while the thread holds at least one lock on shard `s`.
    holds_mask: u64,
    /// Shard still carrying this thread's request edge from an acquisition
    /// that was refused with [`LockError::WouldDeadlock`] (the substrate
    /// abandons those, so the edge survives until the next request).
    stale_shard: Option<usize>,
    /// The one lock (if any) this thread holds via the no-engine fast path.
    /// At most one: a second acquisition while this is `Some` takes the
    /// cross-shard path, which publishes this hold into the engine first.
    fast_held: Option<FastHold>,
}

/// Cache key for [`SITE_STACKS`]: the site's `'static` string **pointers**
/// stand in for their contents. For a given call site the pointers are
/// stable, and pointer equality implies content equality; two distinct
/// pointers with equal contents merely cache the same stack twice. This
/// keeps per-call string hashing off the steady-state acquisition path.
#[derive(PartialEq, Eq, Hash)]
struct SiteCacheKey(usize, usize, u32);

impl From<AcquisitionSite> for SiteCacheKey {
    fn from(site: AcquisitionSite) -> Self {
        SiteCacheKey(
            site.scope.as_ptr() as usize,
            site.file.as_ptr() as usize,
            site.line,
        )
    }
}

/// A site's stack as interned by a runtime's shared [`StackInterner`]: the
/// interner's own `Arc`, so every engine shard resolves the site to its
/// position by address. Held through a thread-private `Rc` so handing it to
/// one acquisition bumps a count no other thread touches, not the shared
/// `Arc`'s count that every thread running the site would contend on.
#[allow(clippy::redundant_allocation)]
type InternedStack = Rc<Arc<CallStack>>;

/// An acquisition site resolved by one runtime: its interned stack and its
/// stable site key.
struct CachedSite {
    /// Instance id of the runtime whose interner produced `stack`.
    instance: u64,
    stack: InternedStack,
    key: SiteKey,
}

thread_local! {
    /// Per-OS-thread routing state, keyed by runtime instance.
    static THREAD_ROUTE: std::cell::RefCell<FnvMap<u64, ThreadRoute>> =
        std::cell::RefCell::new(FnvMap::default());

    /// Per-thread cache of resolved call stacks and site keys by
    /// acquisition site. A site is a `'static` triple, so an entry only
    /// changes when the thread runs the site under another runtime; the
    /// steady-state acquisition path allocates nothing and hashes only this
    /// one small map lookup.
    static SITE_STACKS: std::cell::RefCell<FnvMap<SiteCacheKey, CachedSite>> =
        std::cell::RefCell::new(FnvMap::default());
}

/// The shared, per-process deadlock-immunity runtime.
///
/// One instance per process mirrors the paper's per-process Dimmunix data
/// (Figure 1). Cloning the [`Arc`] and handing it to every `Immune*` lock in
/// the process is the moral equivalent of "all applications automatically run
/// with Dimmunix".
pub struct DimmunixRuntime {
    /// Engine shards, one mutex each; cross-shard operations acquire them in
    /// ascending index order.
    shards: Vec<Mutex<ShardCell>>,
    /// Per-signature park gates, global across shards.
    gates: Mutex<FnvMap<SignatureId, Arc<SignatureGate>>>,
    router: ShardRouter,
    options: RuntimeOptions,
    /// Global acquisition sequence, stamped into shard RAG holds so merged
    /// views can order holds across shards.
    acq_seq: AtomicU64,
    /// Shared lock-free admission summary: a seqlock-published digest of
    /// every shard's history bloom, per-blocker park counts, and fast-path
    /// counters. Each shard engine holds a clone of this `Arc` and updates
    /// it from under its own lock; the no-engine fast path reads it with no
    /// locks at all.
    summary: Arc<AdmissionSummary>,
    /// Globally unique instance id; used to key the per-thread route cache so
    /// a thread interacting with several runtimes gets a route per runtime.
    instance: u64,
    next_thread: AtomicU64,
    next_lock: AtomicU64,
    next_task: AtomicU64,
    /// Per-task routing state (the task analogue of the thread-local
    /// [`ThreadRoute`]). A map rather than a thread-local because a task may
    /// be polled from any worker thread; each entry is only touched by its
    /// own task's polls, which an executor serializes.
    task_routes: Mutex<FnvMap<TaskId, TaskRoute>>,
    /// Wakers of tasks parked by avoidance, keyed by the signature whose
    /// instantiation parked them — the async analogue of the condition
    /// variable [`SignatureGate`]s, FIFO per signature and at most one
    /// entry per task. Release-driven notifications wake only the front
    /// entry ([`notify_signatures_released`](Self::notify_signatures_released));
    /// correctness-critical notifications (starvation, cancellation,
    /// retirement) wake every entry.
    task_wakers: Mutex<FnvMap<SignatureId, VecDeque<(TaskId, Waker)>>>,
    /// Collaborative-exchange state (quarantined foreign antibodies and
    /// counters); `None` unless [`RuntimeBuilder::exchange`] configured it.
    exchange: Option<ExchangeState>,
    /// The stack interner every shard's position table resolves through;
    /// acquisition sites are resolved through it once per (thread, site).
    interner: Arc<StackInterner>,
    /// Avoidance parks of OS threads that ended on the gate's safety
    /// timeout instead of a wake-up ([`Stats::gate_timeouts`]).
    gate_timeouts: AtomicU64,
}

/// Per-task routing state, mirroring [`ThreadRoute`] plus the task's spawn
/// site for diagnostics.
#[derive(Debug, Clone, Copy, Default)]
struct TaskRoute {
    /// Bit `s` set while the task holds at least one lock on shard `s`.
    holds_mask: u64,
    /// Shard still carrying this task's request edge from an acquisition
    /// answered with `Yield` or `DeadlockDetected`.
    stale_shard: Option<usize>,
    /// Where the task was spawned, when the executor recorded it.
    spawn_site: Option<AcquisitionSite>,
}

/// The engine's answer to a non-blocking task acquisition request — the
/// poll-based analogue of [`DimmunixRuntime::before_acquire`]'s loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskAcquire {
    /// The task may proceed to acquire the lock (new or reentrant hold).
    Granted,
    /// Granting now could instantiate the given history signature: the
    /// task's waker has been registered on the signature and the future
    /// must return `Poll::Pending`; the waker fires when a lock acquired at
    /// one of the signature's positions is released, and the task then
    /// re-requests.
    Parked {
        /// The signature whose instantiation is being avoided.
        signature: SignatureId,
    },
    /// A genuine task-level deadlock was detected (and the policy is
    /// [`DeadlockPolicy::Error`]); the signature is already recorded.
    WouldDeadlock(LockError),
}

static NEXT_RUNTIME_INSTANCE: AtomicU64 = AtomicU64::new(1);

impl fmt::Debug for DimmunixRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DimmunixRuntime")
            .field("options", &self.options)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl DimmunixRuntime {
    /// Creates a private runtime with default options: fail-safe deadlock
    /// policy, in-memory history, and one engine shard per available core
    /// (`min(available_parallelism, MAX_SHARDS)`, see
    /// [`RuntimeOptions::shards`]). Use
    /// [`builder`](Self::builder) to configure one, and
    /// [`global`](Self::global) for the process-global runtime the drop-in
    /// constructors attach to.
    pub fn new() -> Arc<Self> {
        Self::with_options(RuntimeOptions::default())
    }

    /// Starts a [`RuntimeBuilder`] — the fluent construction surface.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The process-global runtime — the analogue of "Dimmunix is in the
    /// VM, so every application automatically runs with it". The implicit
    /// lock constructors (`ImmuneMutex::new(value)`, …) attach here.
    /// Default-initialized on first use; configure it beforehand with
    /// [`RuntimeBuilder::install_global`]. Once initialized it is fixed for
    /// the life of the process: locks hold `Arc`s into it, so swapping it
    /// would split the process across two engines.
    pub fn global() -> Arc<Self> {
        let mut global = sync::lock(&GLOBAL_RUNTIME);
        global
            .get_or_insert_with(|| RuntimeBuilder::new().build())
            .clone()
    }

    /// Clears the process-global runtime so a later
    /// [`RuntimeBuilder::install_global`] succeeds again. **Test-only**:
    /// locks created before the reset keep their `Arc` to the old runtime
    /// and keep working against it, but they no longer share an engine with
    /// locks created afterwards — never call this outside test code.
    #[cfg(any(test, feature = "test-util"))]
    #[doc(hidden)]
    pub fn reset_global_for_tests() {
        *sync::lock(&GLOBAL_RUNTIME) = None;
    }

    /// Creates a runtime with explicit options. If the configuration names
    /// a history log, it is replayed (and its crash tail repaired) once;
    /// the resulting snapshot is shared by every shard.
    fn with_options(options: RuntimeOptions) -> Arc<Self> {
        let first = Dimmunix::new(options.config.clone());
        Self::assemble_from(options, first)
    }

    /// Creates a runtime pre-loaded with a history (antibodies). The
    /// snapshot is bulk-built once and shared by every shard.
    fn with_history(options: RuntimeOptions, history: History) -> Arc<Self> {
        let first = Dimmunix::with_history(options.config.clone(), history);
        Self::assemble_from(options, first)
    }

    /// Completes construction from the first shard engine: the remaining
    /// shards receive clones of its snapshot `Arc` — one shared history
    /// per runtime, regardless of the shard count.
    fn assemble_from(options: RuntimeOptions, mut first: Dimmunix) -> Arc<Self> {
        let router = ShardRouter::new(options.shards);
        let snapshot = Arc::clone(first.history_snapshot());
        let summary = Arc::new(AdmissionSummary::new());
        let interner = Arc::new(StackInterner::new());
        first.attach_admission_summary(Arc::clone(&summary), 0);
        first.share_stack_interner(Arc::clone(&interner));
        let mut shards = Vec::with_capacity(router.shard_count());
        shards.push(Mutex::new(ShardCell::new(first)));
        for index in 1..router.shard_count() {
            let mut engine = Dimmunix::with_snapshot(options.config.clone(), Arc::clone(&snapshot));
            engine.attach_admission_summary(Arc::clone(&summary), index);
            engine.share_stack_interner(Arc::clone(&interner));
            shards.push(Mutex::new(ShardCell::new(engine)));
        }
        let rt = Self::assemble(options, router, shards, summary, interner);
        rt.startup_exchange_import();
        rt
    }

    fn assemble(
        options: RuntimeOptions,
        router: ShardRouter,
        shards: Vec<Mutex<ShardCell>>,
        summary: Arc<AdmissionSummary>,
        interner: Arc<StackInterner>,
    ) -> Arc<Self> {
        let exchange = options.exchange.clone().map(ExchangeState::new);
        Arc::new(DimmunixRuntime {
            shards,
            gates: Mutex::new(FnvMap::default()),
            router,
            options,
            acq_seq: AtomicU64::new(1),
            summary,
            instance: NEXT_RUNTIME_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_thread: AtomicU64::new(1),
            next_lock: AtomicU64::new(1),
            next_task: AtomicU64::new(1),
            task_routes: Mutex::new(FnvMap::default()),
            task_wakers: Mutex::new(FnvMap::default()),
            exchange,
            interner,
            gate_timeouts: AtomicU64::new(0),
        })
    }

    /// Startup pull of the configured import packs. Each foreign signature
    /// is quarantined, then screened against the positions the replayed
    /// local history already proves (its outer table), so antibodies whose
    /// sites this process is known to execute activate before the first
    /// acquisition; the rest wait for
    /// [`feed_exchange`](Self::feed_exchange) to see their sites interned.
    fn startup_exchange_import(&self) {
        let Some(ex) = &self.exchange else { return };
        let snapshot = self.history_snapshot();
        let mut activated = Vec::new();
        {
            let mut pending = sync::lock(&ex.pending);
            for path in &ex.import_paths {
                match Pack::load_or_quarantine(path) {
                    Ok(pack) => {
                        for (_, entry) in pack.entries() {
                            activated
                                .extend(pending.admit(entry.signature.clone(), entry.detections));
                            ex.imported.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A peer that has not exported yet is not an error.
                    Err((PackError::Io(e), _)) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(_) => {
                        ex.quarantined_packs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            let outers = snapshot.outer_table();
            for raw in 0..outers.len() {
                if pending.is_empty() {
                    break;
                }
                if let Some(stack) = outers.stack(PositionId::new(raw as u32)) {
                    activated.extend(pending.observe_position(stack));
                }
            }
            ex.screen.rebuild(pending.needed_keys());
            ex.pending_nonempty
                .store(!pending.is_empty(), Ordering::Relaxed);
        }
        for antibody in activated {
            self.add_signature(antibody.signature);
            ex.activated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Feeds one locally observed acquisition position, with its site key,
    /// to the foreign-antibody gate. Nothing quarantined costs one relaxed
    /// load; a site no quarantined antibody still needs costs a lock-free
    /// screen probe. Only a site that may be needed takes the pending-set
    /// lock. Activated antibodies are appended to the shared history
    /// *after* the pending guard is dropped, keeping the
    /// pending-before-shards lock order one-way.
    fn feed_exchange(&self, stack: &CallStack, key: SiteKey) {
        let Some(ex) = &self.exchange else { return };
        if !ex.pending_nonempty.load(Ordering::Relaxed) || !ex.screen.may_need(key) {
            return;
        }
        let activated = {
            let mut pending = sync::lock(&ex.pending);
            if !pending.needs(key) {
                // A screen false positive: the key is wanted by no one.
                return;
            }
            let out = pending.observe_position_keyed(stack, key);
            ex.screen.rebuild(pending.needed_keys());
            ex.pending_nonempty
                .store(!pending.is_empty(), Ordering::Relaxed);
            out
        };
        for antibody in activated {
            self.add_signature(antibody.signature);
            ex.activated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes this process's contribution pack — its full current history
    /// under the configured origin — to the export path (atomic replace).
    /// Called automatically after every detection; callable manually for a
    /// shutdown flush. Returns true if a pack was written.
    pub fn export_contribution(&self) -> bool {
        let Some(ex) = &self.exchange else {
            return false;
        };
        let Some(path) = &ex.export_path else {
            return false;
        };
        let snapshot = self.history_snapshot();
        let pack = Pack::from_snapshot(ex.origin.clone(), &snapshot);
        if pack.save(path).is_ok() {
            ex.exported.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Counters of the collaborative-exchange wiring; `None` when
    /// [`RuntimeBuilder::exchange`] was not configured.
    pub fn exchange_stats(&self) -> Option<ExchangeStats> {
        self.exchange.as_ref().map(ExchangeState::stats)
    }

    /// The options this runtime was created with.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `lock` (diagnostics and tests).
    pub fn shard_of(&self, lock: LockId) -> usize {
        self.router.shard_of(lock)
    }

    /// Identifier of the calling OS thread, registering it on first use (the
    /// analogue of `initNode` on thread allocation).
    pub fn current_thread(&self) -> ThreadId {
        self.route().id
    }

    /// The call stack (this runtime's interned one) and stable site key of
    /// an acquisition site, from the thread-local cache: resolved through
    /// the interner once per (thread, site), again only if the thread ran
    /// the site under another runtime since.
    fn site_stack(&self, site: AcquisitionSite) -> (InternedStack, SiteKey) {
        SITE_STACKS.with(|cell| {
            let mut cache = cell.borrow_mut();
            let entry = cache
                .entry(site.into())
                .or_insert_with(|| self.resolve_site(site));
            if entry.instance != self.instance {
                *entry = self.resolve_site(site);
            }
            (Rc::clone(&entry.stack), entry.key)
        })
    }

    fn resolve_site(&self, site: AcquisitionSite) -> CachedSite {
        let stack = site.to_call_stack();
        let key = stack.site_key();
        let depth = self.options.config.stack_depth;
        CachedSite {
            instance: self.instance,
            stack: Rc::new(self.interner.intern(&stack.truncated(depth))),
            key,
        }
    }

    /// This thread's routing state, creating and registering it on first use.
    fn route(&self) -> ThreadRoute {
        THREAD_ROUTE.with(|cell| {
            if let Some(r) = cell.borrow().get(&self.instance) {
                return *r;
            }
            let id = ThreadId::new(self.next_thread.fetch_add(1, Ordering::Relaxed));
            for shard in &self.shards {
                sync::lock(shard).engine.register_owner(id);
            }
            let route = ThreadRoute {
                id,
                holds_mask: 0,
                stale_shard: None,
                fast_held: None,
            };
            cell.borrow_mut().insert(self.instance, route);
            route
        })
    }

    fn update_route(&self, f: impl FnOnce(&mut ThreadRoute)) {
        THREAD_ROUTE.with(|cell| {
            if let Some(r) = cell.borrow_mut().get_mut(&self.instance) {
                f(r);
            }
        });
    }

    /// One-access no-engine admission attempt: checks every thread-local
    /// precondition, consults the summary, and records the pending fast
    /// hold, all under a single borrow of the route map. Returns whether
    /// the acquisition was admitted lock-free.
    fn try_fast_admit(
        &self,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
        site_key: SiteKey,
    ) -> bool {
        THREAD_ROUTE.with(|cell| {
            let mut map = cell.borrow_mut();
            let Some(r) = map.get_mut(&self.instance) else {
                return false;
            };
            if r.holds_mask != 0 || r.stale_shard.is_some() || r.fast_held.is_some() {
                return false;
            }
            if self.exchange_pending() {
                return false;
            }
            if !matches!(
                self.summary.try_admit(site_key, r.id.into()),
                Admission::Admit { .. }
            ) {
                return false;
            }
            r.fast_held = Some(FastHold { lock, mode, site });
            true
        })
    }

    /// Clears this thread's pending fast hold if it is `lock`, under a
    /// single borrow of the route map. Returns whether it was cleared.
    fn clear_fast_held(&self, lock: LockId) -> bool {
        THREAD_ROUTE.with(|cell| {
            if let Some(r) = cell.borrow_mut().get_mut(&self.instance) {
                if r.fast_held.map(|fh| fh.lock) == Some(lock) {
                    r.fast_held = None;
                    return true;
                }
            }
            false
        })
    }

    /// Allocates a lock id for a new immune lock (the analogue of inflating a
    /// monitor and embedding a RAG node) and registers it on its home shard.
    pub fn allocate_lock(&self) -> LockId {
        let id = LockId::new(self.next_lock.fetch_add(1, Ordering::Relaxed));
        let home = self.router.shard_of(id);
        sync::lock(&self.shards[home]).engine.register_lock(id);
        id
    }

    /// Diagnostics of the history-log recovery performed when this runtime
    /// was constructed: records replayed, crash-tail repair, quarantine of
    /// a corrupt log. `None` when the runtime performed no log replay (no
    /// [`Config::history_path`], or an explicit starting history). Check it
    /// at start-up to tell "no antibodies yet" apart from "antibodies lost
    /// to corruption" — the engine no longer starts silently empty.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        sync::lock(&self.shards[0])
            .engine
            .recovery_report()
            .cloned()
    }

    /// Snapshot of the engine counters, rolled up across shards and folded
    /// together with the lock-free fast-path counters, so a fast-path admit
    /// is indistinguishable from an engine grant in the totals. A fast hold
    /// that was later published into the engine (because its owner took the
    /// slow path for a nested acquisition) already appears in the engine
    /// counters, so published admits are subtracted to avoid double counting.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::new();
        for shard in &self.shards {
            total.merge(sync::lock(shard).engine.stats());
        }
        let s = &self.summary;
        let fast_admits = s.fast_admits();
        let published = s.published();
        let unpublished = fast_admits.saturating_sub(published);
        total.requests += unpublished;
        total.grants += unpublished;
        total.acquisitions += s.fast_acquires().saturating_sub(published);
        total.releases += s.fast_releases();
        total.fast_admits = fast_admits;
        total.slow_fallbacks = s.slow_fallbacks();
        total.degradation_scope_hits = s.degradation_scope_hits();
        total.gate_timeouts = self.gate_timeouts.load(Ordering::Relaxed);
        total
    }

    /// The shared lock-free [`AdmissionSummary`] — fast-path counters and
    /// the history digest the no-engine admission path reads. Exposed for
    /// benchmarks and diagnostics; all fields are monotone counters or
    /// conservative digests, safe to read at any time.
    pub fn admission_summary(&self) -> &Arc<AdmissionSummary> {
        &self.summary
    }

    /// Snapshot of the current history (cloned out of the shared
    /// [`HistorySnapshot`]).
    pub fn history(&self) -> History {
        sync::lock(&self.shards[0]).engine.history().clone()
    }

    /// The shared history snapshot every shard currently reads. Cheap (one
    /// `Arc` clone under the first shard's lock); the returned snapshot is
    /// immutable and stays internally consistent even as detections swap in
    /// successors.
    pub fn history_snapshot(&self) -> Arc<HistorySnapshot> {
        Arc::clone(sync::lock(&self.shards[0]).engine.history_snapshot())
    }

    /// Adds a signature (vendor antibody or synthetic benchmark signature)
    /// to the shared history, under the all-shard lock — the same
    /// append-once/install-everywhere path detections take.
    pub fn add_signature(&self, sig: Signature) -> SignatureId {
        let mut guards: Vec<MutexGuard<'_, ShardCell>> =
            self.shards.iter().map(sync::lock).collect();
        broadcast_signature(&mut guards, sig).0
    }

    /// Estimated bytes of memory the runtime adds to the process: the
    /// shared history snapshot, charged **once**, plus each shard's local
    /// state (positions, RAG, outer links). The figure stays essentially
    /// flat as the shard count grows.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = 0usize;
        let mut snapshot = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let g = sync::lock(shard);
            if i == 0 {
                snapshot = g.engine.history_snapshot().memory_footprint_bytes();
            }
            total += g.engine.local_memory_footprint_bytes();
        }
        total + snapshot
    }

    /// Rewrites the configured history log to exactly the current history
    /// (compaction; see [`Dimmunix::save_history`]). Normal operation
    /// appends one record per detection instead.
    ///
    /// # Errors
    /// Fails if no path is configured or the write fails.
    pub fn save_history(&self) -> dimmunix_core::Result<()> {
        sync::lock(&self.shards[0]).engine.save_history()
    }

    fn gate(&self, sig: SignatureId) -> Arc<SignatureGate> {
        sync::lock(&self.gates).entry(sig).or_default().clone()
    }

    /// Bumps the generation of every listed signature gate, wakes the
    /// parked threads, and fires the wakers of **every** task parked on
    /// those signatures. Lock order: shard(s) before gates, everywhere.
    fn notify_signatures(&self, sigs: &[SignatureId]) {
        self.bump_gates(sigs);
        let mut parked_tasks = sync::lock(&self.task_wakers);
        for sig in sigs {
            if let Some(wakers) = parked_tasks.remove(sig) {
                for (_, w) in wakers {
                    w.wake();
                }
            }
        }
    }

    /// The release-driven variant of [`notify_signatures`](Self::notify_signatures):
    /// wakes only the **front** task parked on each signature instead of the
    /// whole crowd. Waking everyone on every release makes the parked
    /// population re-run the avoidance check O(parked × releases) times while
    /// at most one of them can be granted per de-instantiating release; the
    /// chain stays live with a single wake because a woken-then-granted task
    /// acquires at an in-history position, so its own release re-notifies
    /// the signature and hands the wake to the next waiter, and a
    /// woken-then-reparked task goes to the back of the queue while the
    /// blockers that keep the signature instantiable still hold locks whose
    /// releases notify it again. Parked threads still get the full condvar
    /// broadcast — their gates are generation-sampled, not queued.
    fn notify_signatures_released(&self, sigs: &[SignatureId]) {
        self.bump_gates(sigs);
        let mut parked_tasks = sync::lock(&self.task_wakers);
        for sig in sigs {
            if let Some(wakers) = parked_tasks.get_mut(sig) {
                if let Some((_, w)) = wakers.pop_front() {
                    w.wake();
                }
                if wakers.is_empty() {
                    parked_tasks.remove(sig);
                }
            }
        }
    }

    /// Generation bump + broadcast on every listed signature's thread gate.
    fn bump_gates(&self, sigs: &[SignatureId]) {
        for sig in sigs {
            let gate = self.gate(*sig);
            let mut gen = sync::lock(&gate.lock);
            *gen += 1;
            gate.cv.notify_all();
        }
    }

    /// The locked half of the shard-local fast-path precondition, read under
    /// the home shard's lock. Parking or resuming a thread requires every
    /// shard lock (including home), and the summary's park counters are
    /// updated from under those locks, so the answer cannot be invalidated
    /// while the home lock is held. With lock-free admission the check is
    /// *scoped*: only a park whose yield record lists `owner` as a blocker
    /// forces the cross-shard path (a yield record's blocker list is a
    /// snapshot, so a starvation cycle can pass through an owner that holds
    /// no lock — but only through owners the record actually names). With
    /// the knob off, any park anywhere degrades every request, reproducing
    /// the old global behaviour.
    fn locked_gate_clear(&self, owner: OwnerId) -> bool {
        if self.options.config.lock_free_admission {
            !self.summary.is_blocker(owner)
        } else {
            self.summary.parked_total() == 0
        }
    }

    /// Whether quarantined foreign antibodies await activation. The
    /// no-engine fast path declines while any are pending, so an antibody
    /// cannot be bypassed in the window between its import and the
    /// history/bloom update that [`feed_exchange`](Self::feed_exchange)'s
    /// activation performs.
    fn exchange_pending(&self) -> bool {
        self.exchange
            .as_ref()
            .is_some_and(|ex| ex.pending_nonempty.load(Ordering::Relaxed))
    }

    /// Publishes a fast-path hold into its home shard's engine, under the
    /// all-shard locks the caller already holds. After this, the owner's
    /// every hold is engine-visible, so the cross-shard request that follows
    /// sees the full wait-for relation.
    fn publish_fast_hold(
        &self,
        guards: &mut [MutexGuard<'_, ShardCell>],
        thread: ThreadId,
        fh: FastHold,
    ) {
        let fhome = self.router.shard_of(fh.lock);
        let seq = self.acq_seq.fetch_add(1, Ordering::Relaxed);
        let (fstack, _) = self.site_stack(fh.site);
        guards[fhome]
            .engine
            .publish_acquired(thread, fh.lock, &fstack, fh.mode, seq);
        let holds = !guards[fhome]
            .engine
            .rag()
            .held_locks(thread.into())
            .is_empty();
        self.summary.note_published();
        self.update_route(|r| {
            r.fast_held = None;
            r.holds_mask = holds_mask_with(r.holds_mask, fhome, holds);
        });
    }

    /// The `lockMonitor` prologue: keeps requesting until the engine grants,
    /// parking on the matched signature's gate whenever it says yield.
    ///
    /// Uncontended requests that cannot interact with another shard are
    /// decided under the home shard's lock alone; the rest take the ordered
    /// all-shard snapshot path.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] when a deadlock is detected and
    /// the policy is [`DeadlockPolicy::Error`].
    pub fn before_acquire(&self, lock: LockId, site: AcquisitionSite) -> Result<(), LockError> {
        self.before_acquire_mode(lock, site, AccessMode::Exclusive)
    }

    /// [`before_acquire`](DimmunixRuntime::before_acquire) for a **shared**
    /// acquisition (the read side of [`ImmuneRwLock`]): the engine records
    /// the hold as one owner among possibly many, so every reader of a
    /// crowd carries its own RAG edge and a blocked writer waits on all of
    /// them.
    ///
    /// [`ImmuneRwLock`]: crate::ImmuneRwLock
    ///
    /// # Errors
    /// Same as [`before_acquire`](DimmunixRuntime::before_acquire).
    pub fn before_acquire_shared(
        &self,
        lock: LockId,
        site: AcquisitionSite,
    ) -> Result<(), LockError> {
        self.before_acquire_mode(lock, site, AccessMode::Shared)
    }

    fn before_acquire_mode(
        &self,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
    ) -> Result<(), LockError> {
        let thread = self.route().id;
        let (stack, site_key) = self.site_stack(site);
        // Foreign-antibody gate: this acquisition's position is local
        // evidence that may activate quarantined imports. Runs before any
        // shard lock is taken (activation appends under the all-shard
        // lock), so the antibody can refuse *this very request* below.
        self.feed_exchange(&stack, site_key);
        let home = self.router.shard_of(lock);

        // No-engine fast path: a hold-free requester whose site provably
        // appears in no history signature and whom no yield record names as
        // a blocker cannot close a cycle and cannot occupy an avoidance
        // slot, so the grant is decided by one seqlock-consistent read of
        // the admission summary — no shard lock at all. Any doubt (seqlock
        // retry exhaustion, bloom hit, blocker hit, relevant park) falls
        // back to the engine paths below, which remain the oracle.
        if self.options.config.lock_free_admission
            && self.try_fast_admit(lock, site, mode, site_key)
        {
            return Ok(());
        }

        loop {
            let route = self.route();
            // Thread-local half of the eligibility predicate; the parked
            // half ([`locked_gate_clear`](Self::locked_gate_clear)) is read
            // *under the home shard's lock* below — parking a thread
            // requires every shard lock (including home), so the answer
            // cannot change while the fast path holds it. A pending
            // fast-path hold forces the cross path, which publishes it into
            // the engine before requesting.
            let fast_pending = route.fast_held;
            let thread_local_ok = fast_pending.is_none()
                && fast_path_eligible(route.holds_mask, route.stale_shard, false, home);

            // Fast path: decide inside the home shard when neither detection
            // nor avoidance can need another shard's state.
            let mut outcome = None;
            if thread_local_ok {
                let mut cell = sync::lock(&self.shards[home]);
                if self.locked_gate_clear(thread.into()) {
                    if let LocalDecision::Decided(o) =
                        try_request_local(&mut cell.engine, thread, lock, &stack, mode)
                    {
                        outcome = Some(o);
                    }
                }
            }

            // Cross-shard path: all shard locks in ascending index order,
            // decision over the merged view, wake-ups and gate sampling
            // while the locks are still held.
            let mut parked_gate: Option<(Arc<SignatureGate>, u64)> = None;
            let outcome = match outcome {
                Some(o) => o,
                None => {
                    let mut guards: Vec<MutexGuard<'_, ShardCell>> =
                        self.shards.iter().map(sync::lock).collect();
                    if let Some(fh) = fast_pending {
                        self.publish_fast_hold(&mut guards, thread, fh);
                    }
                    let o = request_cross_shard(
                        &mut guards,
                        &self.router,
                        thread,
                        lock,
                        &stack,
                        mode,
                        route.stale_shard,
                    );
                    let mut pending: Vec<SignatureId> = Vec::new();
                    for g in guards.iter_mut() {
                        pending.extend(g.engine.take_pending_wakeups());
                    }
                    if !pending.is_empty() {
                        self.notify_signatures(&pending);
                    }
                    if let RequestOutcome::Yield { signature } = &o {
                        // Sample the gate generation before the shard locks
                        // are dropped: a release that happens right after
                        // cannot be lost.
                        let gate = self.gate(*signature);
                        let observed = *sync::lock(&gate.lock);
                        parked_gate = Some((gate, observed));
                    }
                    o
                }
            };

            let next_stale = stale_shard_after(
                &outcome,
                route.stale_shard,
                home,
                self.options.config.is_disabled(),
            );
            if next_stale != route.stale_shard {
                self.update_route(|r| r.stale_shard = next_stale);
            }

            match outcome {
                RequestOutcome::Granted | RequestOutcome::GrantedReentrant => return Ok(()),
                RequestOutcome::DeadlockDetected { signature, .. } => {
                    // Contribute-back: the new antibody is in the shared
                    // history; push the fleet pack before surfacing.
                    self.export_contribution();
                    return match self.options.deadlock_policy {
                        DeadlockPolicy::Error => Err(LockError::WouldDeadlock {
                            signature,
                            lock,
                            site,
                            owner: thread.into(),
                            spawn_site: None,
                        }),
                        DeadlockPolicy::Block => Ok(()),
                    };
                }
                RequestOutcome::Yield { .. } => {
                    let (gate, observed) = parked_gate.expect("yield decided on the cross path");
                    let mut gen = sync::lock(&gate.lock);
                    while *gen == observed {
                        // The timeout is a belt-and-braces guard against a
                        // wake-up that raced with gate creation; correctness
                        // does not depend on its value.
                        let (g, timed_out) =
                            sync::wait_timeout(&gate.cv, gen, Duration::from_millis(50));
                        gen = g;
                        if timed_out {
                            if *gen == observed {
                                self.gate_timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                    }
                    // Loop: retry the request (the paper's do/while loop).
                }
            }
        }
    }

    /// The `lockMonitor` epilogue. Stamps the hold with the runtime-global
    /// acquisition sequence so merged views can order holds across shards.
    /// A hold admitted on the no-engine fast path stays engine-invisible
    /// here (only a counter ticks); it is published on demand if the owner
    /// ever takes the slow path while still holding it.
    pub fn after_acquire(&self, lock: LockId) {
        let route = self.route();
        if route.fast_held.map(|fh| fh.lock) == Some(lock) {
            self.summary.note_fast_acquire();
            return;
        }
        let thread = route.id;
        let home = self.router.shard_of(lock);
        let seq = self.acq_seq.fetch_add(1, Ordering::Relaxed);
        let holds = {
            let mut cell = sync::lock(&self.shards[home]);
            cell.engine.acquired_with_seq(thread, lock, seq);
            !cell.engine.rag().held_locks(thread.into()).is_empty()
        };
        self.update_route(|r| {
            r.holds_mask = holds_mask_with(r.holds_mask, home, holds);
            // The acquisition consumed the home shard's request edge.
            r.stale_shard = stale_shard_consumed(r.stale_shard, home);
        });
    }

    /// Backs out of an approved acquisition that will not be completed
    /// (e.g. a failed `try_lock` on the underlying mutex). Backing out of a
    /// fast-path admission only drops the thread-local record — the engine
    /// never saw the request.
    pub fn cancel_acquire(&self, lock: LockId) {
        if self.clear_fast_held(lock) {
            self.summary.note_fast_cancel();
            return;
        }
        let thread = self.route().id;
        let home = self.router.shard_of(lock);
        {
            let mut cell = sync::lock(&self.shards[home]);
            cell.engine.cancel_request(thread, lock);
        }
        self.update_route(|r| {
            r.stale_shard = stale_shard_consumed(r.stale_shard, home);
        });
    }

    /// The `unlockMonitor` prologue: releases in the owning shard and wakes
    /// every signature gate the engine says must be notified. Releasing a
    /// fast-path hold is wake-free: its site was bloom-clear at admission,
    /// so no history signature mentions it and the release can
    /// de-instantiate nothing.
    pub fn before_release(&self, lock: LockId) {
        if self.clear_fast_held(lock) {
            self.summary.note_fast_release();
            return;
        }
        let thread = self.route().id;
        let home = self.router.shard_of(lock);
        let holds = self.release_in_shard(thread.into(), lock, home);
        self.update_route(|r| {
            r.holds_mask = holds_mask_with(r.holds_mask, home, holds);
        });
    }

    /// Engine release + gate wake-ups under the home shard's lock; returns
    /// whether `owner` still holds anything on that shard.
    ///
    /// The wake-ups are skipped outright while no owner is parked. The park
    /// count is read under the home shard's lock, and every yield is decided
    /// (and counted) under all shard locks, so the read cannot race a park:
    /// an owner parking after this release decides against the released
    /// state, and one parked before it is counted.
    fn release_in_shard(&self, owner: OwnerId, lock: LockId, home: usize) -> bool {
        let mut cell = sync::lock(&self.shards[home]);
        let ShardCell {
            engine,
            wake_scratch,
            ..
        } = &mut *cell;
        engine.released_into(owner, lock, wake_scratch);
        if !cell.wake_scratch.is_empty() && self.summary.parked_total() != 0 {
            self.notify_signatures_released(&cell.wake_scratch);
        }
        !cell.engine.rag().held_locks(owner).is_empty()
    }

    /// Unregisters the calling thread (normally done when a worker exits),
    /// force-releasing anything it still holds on any shard.
    pub fn retire_current_thread(&self) {
        let thread = self.route().id;
        let mut wake: Vec<SignatureId> = Vec::new();
        {
            let mut guards: Vec<MutexGuard<'_, ShardCell>> =
                self.shards.iter().map(sync::lock).collect();
            for g in guards.iter_mut() {
                wake.extend(g.engine.unregister_owner(thread));
            }
            if !wake.is_empty() {
                self.notify_signatures(&wake);
            }
        }
        THREAD_ROUTE.with(|cell| {
            cell.borrow_mut().remove(&self.instance);
        });
    }

    // ------------------------------------------------------------------
    // The task API: poll-based hooks for async substrates
    // ------------------------------------------------------------------
    //
    // Async tasks are multiplexed onto a small pool of OS worker threads, so
    // a task-level deadlock (task A holds lock 1 and awaits lock 2 while
    // task B holds lock 2 and awaits lock 1) is invisible to the
    // thread-keyed hooks above whenever the tasks share a worker. These
    // hooks key the engine by [`OwnerId::Task`] instead, and replace the
    // blocking yield loop of [`before_acquire`](Self::before_acquire) with a
    // single-shot decision: a `Yield` registers the task's waker on the
    // signature and surfaces as [`TaskAcquire::Parked`], so the calling
    // future returns `Poll::Pending` instead of parking an OS thread.

    /// Registers a new async task with the engine and returns its identity.
    /// `spawn_site` (the source location of the `spawn` call, when the
    /// executor records one) is carried into
    /// [`LockError::WouldDeadlock::spawn_site`] diagnostics.
    pub fn register_task(&self, spawn_site: Option<AcquisitionSite>) -> TaskId {
        let id = TaskId::new(self.next_task.fetch_add(1, Ordering::Relaxed));
        for shard in &self.shards {
            sync::lock(shard).engine.register_owner(id);
        }
        sync::lock(&self.task_routes).insert(
            id,
            TaskRoute {
                spawn_site,
                ..TaskRoute::default()
            },
        );
        id
    }

    /// The spawn site recorded for `task`, if any.
    pub fn task_spawn_site(&self, task: TaskId) -> Option<AcquisitionSite> {
        sync::lock(&self.task_routes)
            .get(&task)
            .and_then(|r| r.spawn_site)
    }

    fn task_route(&self, task: TaskId) -> TaskRoute {
        sync::lock(&self.task_routes)
            .get(&task)
            .copied()
            .unwrap_or_default()
    }

    fn update_task_route(&self, task: TaskId, f: impl FnOnce(&mut TaskRoute)) {
        if let Some(r) = sync::lock(&self.task_routes).get_mut(&task) {
            f(r);
        }
    }

    /// Non-blocking analogue of [`before_acquire`](Self::before_acquire)
    /// for an **exclusive** task acquisition. One engine decision per call:
    /// [`TaskAcquire::Parked`] means the future must return
    /// `Poll::Pending` — `waker` has been registered on the signature and
    /// fires when the park may be over, whereupon the future calls this
    /// again (the paper's `do { … } while (sigId >= 0)` loop, driven by the
    /// executor instead of a condition variable).
    pub fn task_begin_acquire(
        &self,
        task: TaskId,
        lock: LockId,
        site: AcquisitionSite,
        waker: &Waker,
    ) -> TaskAcquire {
        self.task_begin_acquire_mode(task, lock, site, AccessMode::Exclusive, waker)
    }

    /// [`task_begin_acquire`](Self::task_begin_acquire) with an explicit
    /// access mode ([`AccessMode::Shared`] for the read side of the async
    /// rwlock).
    pub fn task_begin_acquire_mode(
        &self,
        task: TaskId,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
        waker: &Waker,
    ) -> TaskAcquire {
        let owner = OwnerId::Task(task);
        let (stack, site_key) = self.site_stack(site);
        // Same foreign-antibody gate as the thread path.
        self.feed_exchange(&stack, site_key);
        let home = self.router.shard_of(lock);
        let route = self.task_route(task);
        let task_local_ok = fast_path_eligible(route.holds_mask, route.stale_shard, false, home);

        // Fast path: decide inside the home shard when neither detection nor
        // avoidance can need another shard's state. The local path cannot
        // yield (a yield needs the requesting position in the history, which
        // forces the cross-shard path), so no waker registration is needed.
        let mut outcome = None;
        if task_local_ok {
            let mut cell = sync::lock(&self.shards[home]);
            if self.locked_gate_clear(owner) {
                if let LocalDecision::Decided(o) =
                    try_request_local(&mut cell.engine, owner, lock, &stack, mode)
                {
                    if matches!(o, RequestOutcome::Yield { .. }) {
                        // Unreachable by construction; fall through to the
                        // cross-shard path, which can register the waker
                        // race-free under the all-shard lock.
                        debug_assert!(false, "local fast path yielded");
                    } else {
                        outcome = Some(o);
                    }
                }
            }
        }

        let outcome = match outcome {
            Some(o) => o,
            None => {
                let mut guards: Vec<MutexGuard<'_, ShardCell>> =
                    self.shards.iter().map(sync::lock).collect();
                let o = request_cross_shard(
                    &mut guards,
                    &self.router,
                    owner,
                    lock,
                    &stack,
                    mode,
                    route.stale_shard,
                );
                let mut pending: Vec<SignatureId> = Vec::new();
                for g in guards.iter_mut() {
                    pending.extend(g.engine.take_pending_wakeups());
                }
                if !pending.is_empty() {
                    self.notify_signatures(&pending);
                }
                if let RequestOutcome::Yield { signature } = &o {
                    // Register the waker while every shard lock is still
                    // held: a release that would wake this signature needs a
                    // shard lock, so the wake-up cannot be lost. At most one
                    // entry per task: a re-park refreshes the waker in place
                    // (keeping its queue turn) instead of duplicating it.
                    let mut parked = sync::lock(&self.task_wakers);
                    let queue = parked.entry(*signature).or_default();
                    match queue.iter_mut().find(|(t, _)| *t == task) {
                        Some((_, w)) => *w = waker.clone(),
                        None => queue.push_back((task, waker.clone())),
                    }
                }
                o
            }
        };

        let next_stale = stale_shard_after(
            &outcome,
            route.stale_shard,
            home,
            self.options.config.is_disabled(),
        );
        if next_stale != route.stale_shard {
            self.update_task_route(task, |r| r.stale_shard = next_stale);
        }

        match outcome {
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant => TaskAcquire::Granted,
            RequestOutcome::Yield { signature } => TaskAcquire::Parked { signature },
            RequestOutcome::DeadlockDetected { signature, .. } => {
                self.export_contribution();
                match self.options.deadlock_policy {
                    DeadlockPolicy::Error => TaskAcquire::WouldDeadlock(LockError::WouldDeadlock {
                        signature,
                        lock,
                        site,
                        owner,
                        spawn_site: route.spawn_site,
                    }),
                    // Paper-faithful: proceed and let the tasks freeze once;
                    // the signature is persisted, so the next run is immune.
                    DeadlockPolicy::Block => TaskAcquire::Granted,
                }
            }
        }
    }

    /// The task analogue of [`after_acquire`](Self::after_acquire): records
    /// the completed acquisition, stamped with the runtime-global sequence.
    pub fn task_finish_acquire(&self, task: TaskId, lock: LockId) {
        let owner = OwnerId::Task(task);
        let home = self.router.shard_of(lock);
        let seq = self.acq_seq.fetch_add(1, Ordering::Relaxed);
        let holds = {
            let mut cell = sync::lock(&self.shards[home]);
            cell.engine.acquired_with_seq(owner, lock, seq);
            !cell.engine.rag().held_locks(owner).is_empty()
        };
        self.update_task_route(task, |r| {
            r.holds_mask = holds_mask_with(r.holds_mask, home, holds);
            r.stale_shard = stale_shard_consumed(r.stale_shard, home);
        });
    }

    /// Backs out of an approved task acquisition that will not be completed
    /// (the acquiring future was dropped between approval and completion —
    /// e.g. a select! raced it against a timeout).
    pub fn task_cancel_acquire(&self, task: TaskId, lock: LockId) {
        let owner = OwnerId::Task(task);
        let home = self.router.shard_of(lock);
        let parked_on = {
            let mut cell = sync::lock(&self.shards[home]);
            let sig = cell.engine.rag().yielding(owner).map(|y| y.signature);
            cell.engine.cancel_request(owner, lock);
            sig
        };
        if let Some(sig) = parked_on {
            // The dropped future may have been the single waiter a
            // release-driven wake was handed to; drop its stale waker and
            // re-broadcast so the wake is not lost with it.
            if let Some(q) = sync::lock(&self.task_wakers).get_mut(&sig) {
                q.retain(|(t, _)| *t != task);
            }
            self.notify_signatures(&[sig]);
        }
        self.update_task_route(task, |r| {
            r.stale_shard = stale_shard_consumed(r.stale_shard, home);
        });
    }

    /// The task analogue of [`before_release`](Self::before_release):
    /// releases in the owning shard and wakes every parked thread and task
    /// the engine says must be notified.
    pub fn task_release(&self, task: TaskId, lock: LockId) {
        let owner = OwnerId::Task(task);
        let home = self.router.shard_of(lock);
        let holds = self.release_in_shard(owner, lock, home);
        self.update_task_route(task, |r| {
            r.holds_mask = holds_mask_with(r.holds_mask, home, holds);
        });
    }

    /// Unregisters a completed task, force-releasing anything it still
    /// holds on any shard (a guard leaked across task teardown).
    pub fn retire_task(&self, task: TaskId) {
        let owner = OwnerId::Task(task);
        let mut wake: Vec<SignatureId> = Vec::new();
        {
            let mut guards: Vec<MutexGuard<'_, ShardCell>> =
                self.shards.iter().map(sync::lock).collect();
            for g in guards.iter_mut() {
                wake.extend(g.engine.unregister_owner(owner));
            }
            if !wake.is_empty() {
                self.notify_signatures(&wake);
            }
        }
        sync::lock(&self.task_routes).remove(&task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_get_distinct_ids() {
        let rt = DimmunixRuntime::new();
        let main_id = rt.current_thread();
        let rt2 = rt.clone();
        let other = std::thread::spawn(move || rt2.current_thread())
            .join()
            .unwrap();
        assert_ne!(main_id, other);
        // Repeated calls on the same thread return the same id.
        assert_eq!(rt.current_thread(), main_id);
    }

    #[test]
    fn lock_ids_are_unique() {
        let rt = DimmunixRuntime::new();
        let a = rt.allocate_lock();
        let b = rt.allocate_lock();
        assert_ne!(a, b);
    }

    #[test]
    fn uncontended_acquire_release_roundtrip() {
        let rt = DimmunixRuntime::new();
        let lock = rt.allocate_lock();
        rt.before_acquire(lock, acquire_site_for_test(1)).unwrap();
        rt.after_acquire(lock);
        rt.before_release(lock);
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, 1);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.yields, 0);
    }

    #[test]
    fn sharded_runtime_roundtrips_across_shards() {
        let rt = DimmunixRuntime::with_options(RuntimeOptions {
            shards: 8,
            ..RuntimeOptions::default()
        });
        assert_eq!(rt.shard_count(), 8);
        // Nested acquisitions across several shards, then release in
        // reverse order; everything must balance.
        let locks: Vec<LockId> = (0..6).map(|_| rt.allocate_lock()).collect();
        for (i, l) in locks.iter().enumerate() {
            rt.before_acquire(*l, acquire_site_for_test(i as u32))
                .unwrap();
            rt.after_acquire(*l);
        }
        for l in locks.iter().rev() {
            rt.before_release(*l);
        }
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, 6);
        assert_eq!(stats.releases, 6);
        assert_eq!(stats.deadlocks_detected, 0);
    }

    #[test]
    fn deadlock_policy_error_reports_would_deadlock() {
        // Build the AB/BA deadlock with two OS threads synchronized by
        // channels so the interleaving is deterministic.
        use std::sync::mpsc;
        let rt = DimmunixRuntime::new();
        let la = rt.allocate_lock();
        let lb = rt.allocate_lock();

        let (to_t2, from_t1) = mpsc::channel::<()>();
        let (to_t1, from_t2) = mpsc::channel::<()>();

        let rt1 = rt.clone();
        let t1 = std::thread::spawn(move || {
            rt1.before_acquire(la, AcquisitionSite::new("t1.outer", "rt.rs", 1))
                .unwrap();
            rt1.after_acquire(la);
            to_t2.send(()).unwrap();
            from_t2.recv().unwrap();
            // B is held by t2; this request parks or errors only if a cycle
            // forms; since t2 errors out first, just try and release.
            let r = rt1.before_acquire(lb, AcquisitionSite::new("t1.inner", "rt.rs", 2));
            if r.is_ok() {
                rt1.after_acquire(lb);
                rt1.before_release(lb);
            }
            rt1.before_release(la);
        });

        let rt2 = rt.clone();
        let t2 = std::thread::spawn(move || -> Result<(), LockError> {
            from_t1.recv().unwrap();
            rt2.before_acquire(lb, AcquisitionSite::new("t2.outer", "rt.rs", 3))?;
            rt2.after_acquire(lb);
            // t1 holds A and is (or will be) waiting for B: requesting A now
            // closes the cycle.
            std::thread::sleep(Duration::from_millis(50));
            let r = rt2.before_acquire(la, AcquisitionSite::new("t2.inner", "rt.rs", 4));
            to_t1.send(()).ok();
            rt2.before_release(lb);
            r
        });

        // t2 signals t1 only after its own attempt, so order the handshake:
        // t1 waits for t2's token before requesting B. To avoid a real hang
        // when the engine lets both proceed, t2 sends the token right after
        // its attempt (above) — by then the cycle either formed or not.
        // Deliver the token for t1 released by t2 above.
        t1.join().unwrap();
        let result = t2.join().unwrap();
        // Exactly one of the two inner acquisitions must have been refused,
        // and the signature must be in the history.
        match result {
            Err(LockError::WouldDeadlock { .. }) => {}
            Ok(()) => {
                // The schedule did not interleave adversarially this time;
                // that is acceptable (no deadlock formed), but then no
                // signature must have been recorded either.
            }
        }
        let history = rt.history();
        let stats = rt.stats();
        assert_eq!(stats.deadlocks_detected as usize, history.len());
    }

    fn acquire_site_for_test(line: u32) -> AcquisitionSite {
        AcquisitionSite::new("test.site", "runtime_test.rs", line)
    }

    /// End-to-end lazy activation on real threads: process A detects (here:
    /// is trained with) a signature and exports a pack; process B imports
    /// it under a *different compilation* (all lines shifted), keeps it
    /// quarantined until both outer sites have been observed locally, and
    /// then parks the thread whose acquisition would re-instantiate the bug.
    #[test]
    fn imported_antibody_activates_lazily_and_parks() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");

        // Process A: same program compiled with different line numbers.
        let a_site_a = AcquisitionSite::new("outerA", "park.rs", 901);
        let a_site_b = AcquisitionSite::new("outerB", "park.rs", 902);
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(
                    a_site_a.to_call_stack(),
                    a_site_a.to_call_stack(),
                ),
                dimmunix_core::SignaturePair::new(
                    a_site_b.to_call_stack(),
                    a_site_b.to_call_stack(),
                ),
            ],
        ));
        assert!(rt_a.export_contribution());
        assert_eq!(rt_a.exchange_stats().unwrap().exported, 1);

        // Process B imports the pack; nothing activates at construction
        // because B's history proves no positions yet.
        let rt = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-b").import(&pack_path))
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 1);
        assert_eq!(stats.pending, 1);
        assert_eq!(stats.activated, 0);
        assert!(rt.history().is_empty(), "quarantine must not touch history");

        // B's own build of the sites.
        let site_a = AcquisitionSite::new("outerA", "park.rs", 11);
        let site_b = AcquisitionSite::new("outerB", "park.rs", 12);
        let la = rt.allocate_lock();
        let lb = rt.allocate_lock();

        // Main thread holds A at siteA: first outer site observed.
        rt.before_acquire(la, site_a).unwrap();
        rt.after_acquire(la);
        assert_eq!(rt.exchange_stats().unwrap().pending, 1);

        // Waiter requests B at siteB: the observation activates the
        // antibody before the engine decides, so this very request parks.
        let rt2 = rt.clone();
        let waiter = std::thread::spawn(move || {
            rt2.before_acquire(lb, site_b).unwrap();
            rt2.after_acquire(lb);
            rt2.before_release(lb);
        });
        std::thread::sleep(Duration::from_millis(120));
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.activated, 1);
        assert_eq!(stats.pending, 0);
        assert!(rt.stats().yields >= 1, "imported antibody should park");
        assert_eq!(rt.stats().deadlocks_detected, 0);
        rt.before_release(la);
        waiter.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Startup screening: outer positions proven by the replayed local
    /// history activate matching imports before the first acquisition,
    /// while a missing import file is silently skipped.
    #[test]
    fn startup_import_screens_against_local_history() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-boot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");

        let local_a = AcquisitionSite::new("outerA", "boot.rs", 5);
        let local_b = AcquisitionSite::new("outerB", "boot.rs", 6);
        let local_sig = |inner: &'static str| {
            Signature::new(
                dimmunix_core::SignatureKind::Deadlock,
                vec![
                    dimmunix_core::SignaturePair::new(
                        local_a.to_call_stack(),
                        AcquisitionSite::new(inner, "boot.rs", 7).to_call_stack(),
                    ),
                    dimmunix_core::SignaturePair::new(
                        local_b.to_call_stack(),
                        AcquisitionSite::new(inner, "boot.rs", 8).to_call_stack(),
                    ),
                ],
            )
        };
        // The exporter ships a *different* bug over the same outer sites,
        // rendered at foreign line numbers.
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        let foreign_a = AcquisitionSite::new("outerA", "boot.rs", 505);
        let foreign_b = AcquisitionSite::new("outerB", "boot.rs", 506);
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(
                    foreign_a.to_call_stack(),
                    AcquisitionSite::new("innerX", "boot.rs", 507).to_call_stack(),
                ),
                dimmunix_core::SignaturePair::new(
                    foreign_b.to_call_stack(),
                    AcquisitionSite::new("innerX", "boot.rs", 508).to_call_stack(),
                ),
            ],
        ));
        assert!(rt_a.export_contribution());

        let mut history = dimmunix_core::History::new();
        history.add(local_sig("innerLocal"));
        let rt = DimmunixRuntime::builder()
            .history(history)
            .exchange(
                ExchangeOptions::new("proc-b")
                    .import(&pack_path)
                    .import(dir.join("never-written.pack")),
            )
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 1);
        assert_eq!(stats.activated, 1, "local history vouches for both sites");
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.quarantined_packs, 0, "missing file is not an error");
        assert_eq!(rt.history().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tampered pack is rejected whole at startup and quarantined; the
    /// runtime keeps working with an empty pending set.
    #[test]
    fn tampered_import_pack_is_quarantined_at_startup() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        let s = AcquisitionSite::new("outerA", "bad.rs", 1);
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![dimmunix_core::SignaturePair::new(
                s.to_call_stack(),
                s.to_call_stack(),
            )],
        ));
        assert!(rt_a.export_contribution());
        let text = std::fs::read_to_string(&pack_path).unwrap();
        std::fs::write(
            &pack_path,
            text.replace("\"signature_count\": 1", "\"signature_count\": 2"),
        )
        .unwrap();

        let rt = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-b").import(&pack_path))
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 0);
        assert_eq!(stats.quarantined_packs, 1);
        assert!(!pack_path.exists(), "bad pack moved aside");
        assert!(dir.join("fleet.pack.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn yield_parks_and_release_wakes() {
        // Train a runtime so that (siteA, siteB) is a known signature, then
        // check that a thread requesting at siteB parks while another holds
        // siteA, and proceeds after the release.
        let site_a = AcquisitionSite::new("outerA", "park.rs", 1);
        let site_b = AcquisitionSite::new("outerB", "park.rs", 2);
        let sig = Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(site_a.to_call_stack(), site_a.to_call_stack()),
                dimmunix_core::SignaturePair::new(site_b.to_call_stack(), site_b.to_call_stack()),
            ],
        );
        let rt = DimmunixRuntime::new();
        rt.add_signature(sig);
        let la = rt.allocate_lock();
        let lb = rt.allocate_lock();

        // Main thread holds A acquired at siteA.
        rt.before_acquire(la, site_a).unwrap();
        rt.after_acquire(la);

        let rt2 = rt.clone();
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            rt2.before_acquire(lb, site_b).unwrap();
            rt2.after_acquire(lb);
            rt2.before_release(lb);
            start.elapsed()
        });

        // Give the waiter time to park, then release A to wake it.
        std::thread::sleep(Duration::from_millis(120));
        assert!(rt.stats().yields >= 1, "waiter should have parked");
        rt.before_release(la);
        let waited = waiter.join().unwrap();
        assert!(
            waited >= Duration::from_millis(80),
            "waiter should have been parked for a while, waited {waited:?}"
        );
    }
}
