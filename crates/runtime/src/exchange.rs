//! Runtime wiring for collaborative immunity (`dimmunix-exchange`).
//!
//! [`ExchangeOptions`] is the builder-facing configuration: pack files to
//! pull at startup and an optional path to push a contribution pack to on
//! every detection. [`ExchangeState`] is the runtime-internal half: the
//! quarantine [`PendingSet`] foreign antibodies wait in until a locally
//! interned position vouches for each of their outer sites, plus counters.
//!
//! The trust model is deliberately one-sided: importing a pack never parks
//! a thread by itself. A foreign signature only starts influencing
//! scheduling after [`DimmunixRuntime`](crate::DimmunixRuntime) observes,
//! via its own acquisition hooks, positions matching every outer site key
//! the signature names — at which point it is re-anchored to those local
//! stacks and appended to the shared history like any homegrown antibody.

use dimmunix_core::SiteKey;
use dimmunix_exchange::PendingSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Configuration of the collaborative-exchange wiring, passed to
/// [`RuntimeBuilder::exchange`](crate::RuntimeBuilder::exchange).
#[derive(Debug, Clone, Default)]
pub struct ExchangeOptions {
    /// Origin identifier stamped into exported packs (a process or host
    /// name; free-form lineage metadata).
    pub origin: String,
    /// Pack files pulled at construction. Missing files are skipped
    /// silently (a fleet peer that has not exported yet); files failing an
    /// integrity check are rejected whole and quarantined to
    /// `<path>.corrupt`.
    pub import_paths: Vec<PathBuf>,
    /// Where to write this process's contribution pack (atomically, full
    /// replacement) after each detected deadlock. `None` disables pushing.
    pub export_path: Option<PathBuf>,
}

impl ExchangeOptions {
    /// Starts an empty configuration under the given origin identifier.
    pub fn new(origin: impl Into<String>) -> Self {
        ExchangeOptions {
            origin: origin.into(),
            ..ExchangeOptions::default()
        }
    }

    /// Adds a pack file to pull at startup.
    #[must_use]
    pub fn import(mut self, path: impl Into<PathBuf>) -> Self {
        self.import_paths.push(path.into());
        self
    }

    /// Sets the contribution-pack path pushed to on every detection.
    #[must_use]
    pub fn export(mut self, path: impl Into<PathBuf>) -> Self {
        self.export_path = Some(path.into());
        self
    }
}

/// Counters describing what the exchange wiring has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ExchangeStats {
    /// Foreign antibodies admitted from packs over the runtime's lifetime.
    pub imported: u64,
    /// Foreign antibodies still quarantined, waiting for local evidence.
    pub pending: u64,
    /// Foreign antibodies activated into the live history (startup
    /// screening plus lazy activation as positions interned).
    pub activated: u64,
    /// Import packs rejected whole by an integrity check.
    pub quarantined_packs: u64,
    /// Contribution packs written to the export path.
    pub exported: u64,
}

/// Runtime-internal exchange state: quarantine set plus counters.
#[derive(Debug)]
pub(crate) struct ExchangeState {
    pub(crate) origin: String,
    pub(crate) import_paths: Vec<PathBuf>,
    pub(crate) export_path: Option<PathBuf>,
    pub(crate) pending: Mutex<PendingSet>,
    /// Fast pre-check consulted on every acquisition so the common case —
    /// nothing quarantined — costs one relaxed load, no mutex.
    pub(crate) pending_nonempty: AtomicBool,
    /// Lock-free screen over the keys `pending` still needs, so an
    /// acquisition at a site no quarantined antibody names skips the mutex.
    pub(crate) screen: KeyScreen,
    pub(crate) imported: AtomicU64,
    pub(crate) activated: AtomicU64,
    pub(crate) quarantined_packs: AtomicU64,
    pub(crate) exported: AtomicU64,
}

impl ExchangeState {
    pub(crate) fn new(options: ExchangeOptions) -> Self {
        ExchangeState {
            origin: options.origin,
            import_paths: options.import_paths,
            export_path: options.export_path,
            pending: Mutex::new(PendingSet::new()),
            pending_nonempty: AtomicBool::new(false),
            screen: KeyScreen::new(),
            imported: AtomicU64::new(0),
            activated: AtomicU64::new(0),
            quarantined_packs: AtomicU64::new(0),
            exported: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> ExchangeStats {
        ExchangeStats {
            imported: self.imported.load(Ordering::Relaxed),
            pending: crate::sync::lock(&self.pending).len() as u64,
            activated: self.activated.load(Ordering::Relaxed),
            quarantined_packs: self.quarantined_packs.load(Ordering::Relaxed),
            exported: self.exported.load(Ordering::Relaxed),
        }
    }
}

/// Words of the [`KeyScreen`] bitset: 65536 bits, so a 1000-antibody pack
/// (2000 keys, two probes each) screens with a ~0.4 % false-positive rate.
const SCREEN_WORDS: usize = 1024;

/// A Bloom bitset over the site keys quarantined antibodies still need.
///
/// It is rebuilt from [`PendingSet::needed_keys`] under the pending-set
/// lock whenever that key set changes. Keys are only ever added before a
/// rebuild publishes them and only removed by one, so every word a reader
/// can observe — old or new — has the bits of every key still needed: a
/// clear bit proves no quarantined antibody waits for the key. A set bit is
/// only a maybe, answered exactly under the lock.
#[derive(Debug)]
pub(crate) struct KeyScreen {
    words: Box<[AtomicU64]>,
}

impl KeyScreen {
    fn new() -> Self {
        KeyScreen {
            words: (0..SCREEN_WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// False if no quarantined antibody needs `key`; true if one may.
    pub(crate) fn may_need(&self, key: SiteKey) -> bool {
        key.bloom_probes(SCREEN_WORDS)
            .iter()
            .all(|&(word, mask)| self.words[word].load(Ordering::Acquire) & mask != 0)
    }

    /// Replaces the screen's contents with exactly `keys`. Callers hold the
    /// pending-set lock, so rebuilds never run concurrently.
    pub(crate) fn rebuild(&self, keys: impl Iterator<Item = SiteKey>) {
        let mut fresh = vec![0u64; SCREEN_WORDS];
        for key in keys {
            for (word, mask) in key.bloom_probes(SCREEN_WORDS) {
                fresh[word] |= mask;
            }
        }
        for (word, bits) in self.words.iter().zip(fresh) {
            word.store(bits, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screen_passes_every_needed_key_and_drops_removed_ones() {
        let screen = KeyScreen::new();
        let keys: Vec<SiteKey> = (0..2000u64)
            .map(|i| SiteKey::new(i.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x5bd1_e995))
            .collect();
        screen.rebuild(keys.iter().copied());
        assert!(
            keys.iter().all(|k| screen.may_need(*k)),
            "no false negative"
        );
        let strangers = (0..10_000u64)
            .map(|i| SiteKey::new(i.wrapping_mul(0x9fb2_1c65_1e98_df25) ^ 0xfeed))
            .filter(|k| screen.may_need(*k))
            .count();
        assert!(
            strangers < 200,
            "{strangers} of 10000 unrelated keys passed"
        );
        screen.rebuild(keys[..10].iter().copied());
        assert!(keys[..10].iter().all(|k| screen.may_need(*k)));
        assert!(keys[10..].iter().filter(|k| screen.may_need(**k)).count() < 20);
        screen.rebuild(std::iter::empty());
        assert!(!screen.may_need(keys[0]));
    }
}
