//! Trust gating for foreign antibodies.
//!
//! A signature imported from another process is a standing instruction to
//! park threads, which makes a bad antibody a denial-of-service vector: an
//! attacker (or just a corrupt file) could ship signatures that yield threads
//! at sites that never deadlock. The gate is local evidence: a foreign
//! signature activates only once **every** outer stack it names has been
//! matched — by [stable site key](SiteKey) — against a position this process
//! has actually interned. Until then it sits in the quarantined pending set,
//! influencing nothing.
//!
//! Activation also *re-anchors* the signature: the foreign outer stacks
//! (whose absolute line numbers come from someone else's build) are replaced
//! by the locally observed stacks with the same site keys, so the activated
//! antibody instantiates against this process's position table exactly.
//!
//! The set is indexed by unresolved site key, and each antibody carries a
//! count of the evidence it still misses, so both the screening miss
//! ([`observe_position`](PendingSet::observe_position) for an unwanted key)
//! and an activation are O(affected antibodies), never O(quarantine size) —
//! a 10k-signature fleet pack must not tax the acquisition hot path.

use dimmunix_core::{CallStack, Signature, SignaturePair, SiteKey};
use std::collections::HashMap;

/// One quarantined foreign antibody awaiting local evidence.
#[derive(Debug, Clone)]
struct PendingAntibody {
    signature: Signature,
    /// The distinct outer site keys the signature names.
    outer_keys: Vec<SiteKey>,
    detections: u64,
    /// How many of `outer_keys` are still unresolved locally.
    missing: usize,
}

/// A locally observed stack for a site key, reference-counted by the live
/// antibodies that name the key, so evidence is dropped as soon as the last
/// interested antibody activates.
#[derive(Debug)]
struct Evidence {
    stack: CallStack,
    refs: usize,
}

/// A foreign signature together with lineage carried through activation.
#[derive(Debug, Clone)]
pub struct ActivatedAntibody {
    /// The signature, re-anchored to locally observed outer stacks.
    pub signature: Signature,
    /// Detection count inherited from the pack entry.
    pub detections: u64,
}

/// The quarantine set of foreign antibodies that have not yet earned
/// activation, plus the site-key evidence collected so far.
#[derive(Debug, Default)]
pub struct PendingSet {
    /// Slot map of quarantined antibodies; activated slots become `None`
    /// and are recycled through `free`.
    pending: Vec<Option<PendingAntibody>>,
    free: Vec<usize>,
    live: usize,
    /// Unresolved site key → slots of the antibodies waiting on it. Keys
    /// are removed the moment they resolve, so membership doubles as the
    /// fast screen a runtime consults before paying per-acquisition work.
    by_key: HashMap<SiteKey, Vec<usize>>,
    /// Locally observed stacks for resolved keys some live antibody still
    /// names, so the map is bounded by the quarantine set, not by the
    /// program's position count.
    resolved: HashMap<SiteKey, Evidence>,
    activated_total: u64,
}

impl PendingSet {
    /// Creates an empty pending set.
    pub fn new() -> Self {
        PendingSet::default()
    }

    /// Number of antibodies currently quarantined.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of antibodies this set has activated over its lifetime.
    pub fn activated_total(&self) -> u64 {
        self.activated_total
    }

    /// True if `key` is evidence some pending antibody is waiting for.
    pub fn needs(&self, key: SiteKey) -> bool {
        self.by_key.contains_key(&key)
    }

    /// Every site key some pending antibody is still waiting for — the
    /// set a caller mirrors into a lock-free screen (it changes only when
    /// an antibody is admitted or a key is observed).
    pub fn needed_keys(&self) -> impl Iterator<Item = SiteKey> + '_ {
        self.by_key.keys().copied()
    }

    /// Quarantines a foreign signature with its lineage. It will be returned
    /// by a later [`observe_position`](PendingSet::observe_position) call
    /// once every outer site it names has been observed locally — or
    /// immediately, if evidence retained for other quarantined antibodies
    /// already covers every key (the returned vec is non-empty exactly
    /// then).
    pub fn admit(&mut self, signature: Signature, detections: u64) -> Vec<ActivatedAntibody> {
        let mut outer_keys: Vec<SiteKey> = signature.outer_site_keys().collect();
        outer_keys.sort_unstable();
        outer_keys.dedup();

        let mut missing = 0usize;
        for key in &outer_keys {
            match self.resolved.get_mut(key) {
                Some(evidence) => evidence.refs += 1,
                None => missing += 1,
            }
        }

        let slot = self.free.pop().unwrap_or_else(|| {
            self.pending.push(None);
            self.pending.len() - 1
        });
        self.live += 1;
        if missing > 0 {
            for key in &outer_keys {
                if !self.resolved.contains_key(key) {
                    self.by_key.entry(*key).or_default().push(slot);
                }
            }
        }
        self.pending[slot] = Some(PendingAntibody {
            signature,
            outer_keys,
            detections,
            missing,
        });
        if missing == 0 {
            vec![self.activate(slot)]
        } else {
            Vec::new()
        }
    }

    /// Feeds one locally interned position to the gate. Returns the
    /// antibodies (if any) for which this was the last missing piece of
    /// evidence, re-anchored to the locally observed stacks, removed from
    /// quarantine and ready to add to the live history.
    pub fn observe_position(&mut self, stack: &CallStack) -> Vec<ActivatedAntibody> {
        self.observe_position_keyed(stack, stack.site_key())
    }

    /// [`observe_position`](PendingSet::observe_position) with the stack's
    /// site key already computed (`key` must be `stack.site_key()`): callers
    /// that cache keys per acquisition site skip re-hashing the stack.
    pub fn observe_position_keyed(
        &mut self,
        stack: &CallStack,
        key: SiteKey,
    ) -> Vec<ActivatedAntibody> {
        debug_assert_eq!(key, stack.site_key(), "key must be the stack's site key");
        let Some(waiters) = self.by_key.remove(&key) else {
            return Vec::new();
        };
        self.resolved.insert(
            key,
            Evidence {
                stack: stack.clone(),
                refs: waiters.len(),
            },
        );
        let mut out = Vec::new();
        for slot in waiters {
            let ready = {
                let antibody = self.pending[slot]
                    .as_mut()
                    .expect("waiter slots hold live antibodies");
                antibody.missing -= 1;
                antibody.missing == 0
            };
            if ready {
                out.push(self.activate(slot));
            }
        }
        out
    }

    /// Removes the (fully evidenced) antibody in `slot` from quarantine,
    /// re-anchors it, and releases the evidence references it held.
    fn activate(&mut self, slot: usize) -> ActivatedAntibody {
        let antibody = self.pending[slot].take().expect("activating a live slot");
        self.free.push(slot);
        self.live -= 1;
        self.activated_total += 1;
        let signature = reanchor(&antibody.signature, &self.resolved);
        for key in &antibody.outer_keys {
            if let Some(evidence) = self.resolved.get_mut(key) {
                evidence.refs -= 1;
                if evidence.refs == 0 {
                    self.resolved.remove(key);
                }
            }
        }
        ActivatedAntibody {
            signature,
            detections: antibody.detections,
        }
    }
}

/// Rebuilds a signature with each outer stack replaced by the locally
/// observed stack carrying the same site key. Inner stacks (diagnosis only)
/// keep their foreign rendering. The stable fingerprint is preserved by
/// construction, because re-anchoring swaps stacks within a site-key
/// equivalence class.
fn reanchor(signature: &Signature, resolved: &HashMap<SiteKey, Evidence>) -> Signature {
    let pairs = signature
        .pairs()
        .iter()
        .map(|pair| {
            let outer = resolved
                .get(&pair.outer.site_key())
                .map(|evidence| evidence.stack.clone())
                .unwrap_or_else(|| pair.outer.clone());
            SignaturePair::new(outer, pair.inner.clone())
        })
        .collect();
    Signature::new(signature.kind(), pairs)
}
