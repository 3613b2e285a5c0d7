//! Collaborative immunity for Dimmunix: antibody packs, fleet merge, and
//! trust gating.
//!
//! The paper's immunity model is per-process: each process pays the
//! first-occurrence cost of a deadlock once, records the signature, and
//! avoids it forever after. This crate makes immunity *transferable*. A
//! process exports its signatures as a [`Pack`] — a versioned single-file
//! document keyed by [stable fingerprints](dimmunix_core::Signature::stable_fingerprint)
//! that survive recompilation — and any other process running the same
//! program can [`merge`](Pack::merge) that pack into its own history, so
//! only one member of a fleet ever pays the first-occurrence cost of each
//! bug.
//!
//! Three layers:
//!
//! - **Packs** ([`pack`]): the `dimmunix-pack v1` codec with lineage
//!   metadata, a CRDT-style join ([`Pack::merge`]: idempotent, commutative,
//!   associative), [`Pack::diff`] for minimal contribution packs, and
//!   all-or-nothing integrity checking (a pack failing any check is rejected
//!   whole and can be quarantined like a corrupt log segment).
//! - **Trust gating** ([`pending`]): foreign signatures are screened against
//!   locally interned positions before activation. An antibody naming sites
//!   this process has never executed sits inert in a [`PendingSet`], so a
//!   bad pack cannot park threads at arbitrary sites (antibodies are
//!   standing yield instructions — trusting them blindly would be a
//!   denial-of-service vector).
//! - **Snapshot joins**: [`merge_snapshot`] and [`merge_history`] fold a
//!   pack into the engine's history keyed by stable fingerprint, so a bug
//!   the local process already knows under different absolute line numbers
//!   is deduplicated rather than double-counted.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pack;
pub mod pending;

pub use pack::{
    merge_history, merge_snapshot, Pack, PackEntry, PackError, PACK_FORMAT, PACK_VERSION,
};
pub use pending::{ActivatedAntibody, PendingSet};

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::{
        CallStack, Frame, History, HistorySnapshot, Signature, SignatureKind, SignaturePair,
        SiteKey,
    };
    use dimmunix_testkit::Gen;

    fn sig(outer_m: &str, line: u32, delta: u32) -> Signature {
        Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new(outer_m, "a.rs", line + delta)),
                    CallStack::single(Frame::new("inner.a", "a.rs", line + 1 + delta)),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new("outer.b", "b.rs", 50 + delta)),
                    CallStack::single(Frame::new("inner.b", "b.rs", 51 + delta)),
                ),
            ],
        )
    }

    /// A random signature drawn from small pools so distinct draws often
    /// collide on the same bug — exactly the regime where join laws matter.
    fn random_sig(gen: &mut Gen) -> Signature {
        let methods = ["svc.lock", "pool.get", "cache.put", "log.flush"];
        let files = ["svc.rs", "pool.rs"];
        let arity = gen.range(1, 4);
        let pairs = (0..arity)
            .map(|_| {
                let m = methods[gen.range(0, methods.len())];
                let f = files[gen.range(0, files.len())];
                let line = gen.range(1, 40) as u32;
                SignaturePair::new(
                    CallStack::single(Frame::new(m, f, line)),
                    CallStack::single(Frame::new("inner", f, line + 1)),
                )
            })
            .collect();
        let kind = if gen.flip() {
            SignatureKind::Deadlock
        } else {
            SignatureKind::Starvation
        };
        Signature::new(kind, pairs)
    }

    fn random_pack(gen: &mut Gen, origin: &str) -> Pack {
        let mut pack = Pack::new(origin);
        for _ in 0..gen.range(0, 8) {
            let detections = gen.range(1, 9) as u64;
            pack.add(random_sig(gen), detections);
        }
        pack.observe_epoch(gen.range(0, 100) as u64);
        pack
    }

    fn canonical(pack: &Pack) -> Vec<(u64, u64)> {
        pack.entries().map(|(fp, e)| (fp, e.detections)).collect()
    }

    #[test]
    fn pack_roundtrips_through_json() {
        let mut pack = Pack::new("proc-a");
        pack.add(sig("outer.a", 10, 0), 3);
        pack.add(sig("outer.c", 30, 0), 1);
        pack.observe_epoch(7);
        let text = pack.to_json();
        let parsed = Pack::from_json(&text).unwrap();
        assert_eq!(parsed, pack);
        assert_eq!(parsed.origin(), "proc-a");
        assert_eq!(parsed.epoch_range(), (0, 7));
        assert_eq!(parsed.fingerprint(), pack.fingerprint());
        // An empty pack is legal too.
        let empty = Pack::new("proc-b");
        assert_eq!(Pack::from_json(&empty.to_json()).unwrap(), empty);
    }

    /// Satellite: bad-antibody DoS hardening. A pack whose record count or
    /// whole-pack fingerprint disagrees with its declared values must be
    /// rejected whole — no partial import — and the import helper must
    /// quarantine the file like a corrupt log segment.
    #[test]
    fn tampered_packs_are_rejected_whole_and_quarantined() {
        let mut pack = Pack::new("proc-a");
        pack.add(sig("outer.a", 10, 0), 1);
        pack.add(sig("outer.c", 30, 0), 1);
        let good = pack.to_json();

        // Record dropped but count/fingerprint left as declared: the comma
        // positions make dropping the first entry easy to simulate by
        // rebuilding the array with one entry.
        let dropped = {
            let start = good.find("{\"detections\"").unwrap();
            let mid = good[start..].find(", {\"detections\"").unwrap() + start;
            let end = good.rfind("]}").unwrap();
            format!("{}{}{}", &good[..start], &good[mid + 2..end], &good[end..])
        };
        let err = Pack::from_json(&dropped).unwrap_err();
        assert!(err.to_string().contains("signature_count"), "got: {err}");

        // Declared fingerprint flipped: rejected whole even though every
        // individual record is intact.
        let fp_at = good.find("\"fingerprint\": \"").unwrap() + "\"fingerprint\": \"".len();
        let mut tampered = good.clone();
        let flipped = if &good[fp_at..=fp_at] == "0" {
            "1"
        } else {
            "0"
        };
        tampered.replace_range(fp_at..=fp_at, flipped);
        let err = Pack::from_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "got: {err}");

        // A count that disagrees is equally fatal.
        let count_tampered = good.replace("\"signature_count\": 2", "\"signature_count\": 3");
        assert!(Pack::from_json(&count_tampered).is_err());

        // The import helper moves the bad file aside.
        let dir = std::env::temp_dir().join(format!("dimmunix-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pack");
        std::fs::write(&path, &tampered).unwrap();
        let (err, quarantine) = Pack::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, PackError::Malformed(_)));
        let quarantine = quarantine.unwrap();
        assert!(quarantine.ends_with("bad.pack.corrupt"));
        assert!(!path.exists());
        assert!(quarantine.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_and_format_are_enforced() {
        let pack = Pack::new("proc-a");
        let good = pack.to_json();
        let wrong_version = good.replace("\"version\": 1", "\"version\": 2");
        assert!(Pack::from_json(&wrong_version).is_err());
        let wrong_format = good.replace("dimmunix-pack", "dimmunix-pancake");
        assert!(Pack::from_json(&wrong_format).is_err());
        assert!(Pack::from_json("not json").is_err());
    }

    /// Satellite: merge-algebra proptests. The join must be idempotent,
    /// commutative and associative over random signature sets, or fleet
    /// gossip order would change what a process believes.
    #[test]
    fn merge_is_idempotent() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let a = random_pack(&mut gen, "a");
            let mut twice = a.clone();
            assert_eq!(twice.merge(&a), 0, "self-merge must add nothing");
            assert_eq!(canonical(&twice), canonical(&a), "seed {seed}");
            assert_eq!(twice.epoch_range(), a.epoch_range());
        }
    }

    #[test]
    fn merge_is_commutative() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
            let a = random_pack(&mut gen, "a");
            let b = random_pack(&mut gen, "b");
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(canonical(&ab), canonical(&ba), "seed {seed}");
            assert_eq!(ab.fingerprint(), ba.fingerprint(), "seed {seed}");
            assert_eq!(ab.epoch_range(), ba.epoch_range(), "seed {seed}");
        }
    }

    #[test]
    fn merge_is_associative() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0xda94_2042_e4dd_58b5) | 1);
            let a = random_pack(&mut gen, "a");
            let b = random_pack(&mut gen, "b");
            let c = random_pack(&mut gen, "c");
            let mut left = a.clone(); // (a ∨ b) ∨ c
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone(); // a ∨ (b ∨ c)
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(canonical(&left), canonical(&right), "seed {seed}");
            assert_eq!(left.epoch_range(), right.epoch_range(), "seed {seed}");
        }
    }

    #[test]
    fn diff_is_the_minimal_contribution() {
        for seed in 0..100u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0x853c_49e6_748f_ea9b) | 1);
            let local = random_pack(&mut gen, "local");
            let remote = random_pack(&mut gen, "remote");
            let contribution = local.diff(&remote);
            // Nothing the remote already knows...
            for (fp, _) in contribution.entries() {
                assert!(!remote.contains(fp), "seed {seed}");
                assert!(local.contains(fp), "seed {seed}");
            }
            // ...and merging the contribution gives the remote every bug
            // the full pack would have. (Detection counts are advisory
            // lineage and may stay lower for bugs the remote already knew.)
            let mut via_diff = remote.clone();
            via_diff.merge(&contribution);
            let mut via_full = remote.clone();
            via_full.merge(&local);
            let bugs = |p: &Pack| p.entries().map(|(fp, _)| fp).collect::<Vec<_>>();
            assert_eq!(bugs(&via_diff), bugs(&via_full), "seed {seed}");
            assert_eq!(
                via_diff.fingerprint(),
                via_full.fingerprint(),
                "seed {seed}"
            );
        }
    }

    /// The snapshot join deduplicates on the stable fingerprint, so a bug
    /// the local process already recorded under its own compilation's line
    /// numbers is not imported again from a foreign rendering.
    #[test]
    fn merge_snapshot_joins_on_stable_fingerprint() {
        let mut history = History::new();
        history.add(sig("outer.a", 10, 0)); // local rendering
        let snapshot = HistorySnapshot::build(history, 1);

        let mut pack = Pack::new("peer");
        pack.add(sig("outer.a", 10, 500), 2); // same bug, shifted build
        pack.add(sig("outer.z", 90, 500), 1); // genuinely new bug
        let (merged, fresh) = merge_snapshot(&snapshot, &pack);
        assert_eq!(fresh, 1, "only the unknown bug is imported");
        assert_eq!(merged.len(), 2);

        // Same join through the mutable-History entry point.
        let mut history = History::new();
        history.add(sig("outer.a", 10, 0));
        assert_eq!(merge_history(&mut history, &pack), 1);
        assert_eq!(history.len(), 2);
    }

    /// Satellite: the pending-activation path. A foreign antibody imports
    /// into quarantine, stays inert, and activates — re-anchored to local
    /// stacks — only once every outer site it names has been interned
    /// locally.
    #[test]
    fn pending_antibody_activates_when_positions_intern() {
        let foreign = sig("outer.a", 10, 500); // outer sites a.rs:510, b.rs:550
        let mut pending = PendingSet::new();
        pending.admit(foreign.clone(), 3);
        assert_eq!(pending.len(), 1);

        // Local positions intern with *different* absolute lines.
        let local_a = CallStack::single(Frame::new("outer.a", "a.rs", 12));
        let local_b = CallStack::single(Frame::new("outer.b", "b.rs", 52));
        let unrelated = CallStack::single(Frame::new("other.site", "c.rs", 1));

        assert!(pending.needs(local_a.site_key()));
        assert!(!pending.needs(unrelated.site_key()));
        assert!(pending.observe_position(&unrelated).is_empty());
        assert!(pending.observe_position(&local_a).is_empty());
        assert_eq!(pending.len(), 1, "one outer site is still unproven");

        let activated = pending.observe_position(&local_b);
        assert_eq!(activated.len(), 1);
        assert!(pending.is_empty());
        assert_eq!(pending.activated_total(), 1);
        let antibody = &activated[0];
        assert_eq!(antibody.detections, 3);
        // Re-anchored to the local stacks...
        let outers: Vec<String> = antibody
            .signature
            .outer_stacks()
            .map(CallStack::to_compact)
            .collect();
        assert!(outers.contains(&local_a.to_compact()), "outers: {outers:?}");
        assert!(outers.contains(&local_b.to_compact()), "outers: {outers:?}");
        // ...while keeping the bug's identity.
        assert_eq!(
            antibody.signature.stable_fingerprint(),
            foreign.stable_fingerprint()
        );
        // Re-observing resolved sites after activation is a no-op.
        assert!(pending.observe_position(&local_a).is_empty());
    }

    /// Observing with a precomputed site key is observing with the key the
    /// set would compute itself: same activations, same re-anchoring, same
    /// remaining quarantine and needed-key set, step for step.
    #[test]
    fn observing_with_a_precomputed_key_matches_the_recomputed_key() {
        let build = || {
            let mut p = PendingSet::new();
            p.admit(sig("outer.a", 10, 500), 2);
            p.admit(sig("outer.a", 10, 0), 1);
            p.admit(sig("outer.z", 3, 0), 4);
            p
        };
        let (mut recomputed, mut keyed) = (build(), build());
        let observations = [
            CallStack::single(Frame::new("other.site", "c.rs", 1)),
            CallStack::single(Frame::new("outer.a", "a.rs", 12)),
            CallStack::single(Frame::new("outer.a", "a.rs", 40)),
            CallStack::single(Frame::new("outer.b", "b.rs", 52)),
            CallStack::single(Frame::new("outer.z", "a.rs", 9)),
        ];
        let render = |v: Vec<crate::ActivatedAntibody>| -> Vec<(String, u64)> {
            v.into_iter()
                .map(|a| (a.signature.to_string(), a.detections))
                .collect()
        };
        let needed = |p: &PendingSet| {
            let mut keys: Vec<SiteKey> = p.needed_keys().collect();
            keys.sort_unstable();
            keys
        };
        for stack in &observations {
            let a = render(recomputed.observe_position(stack));
            let b = render(keyed.observe_position_keyed(stack, stack.site_key()));
            assert_eq!(a, b, "observing {}", stack.to_compact());
            assert_eq!(recomputed.len(), keyed.len());
            assert_eq!(needed(&recomputed), needed(&keyed));
        }
        assert_eq!(keyed.activated_total(), recomputed.activated_total());
    }

    #[test]
    fn partial_evidence_activates_only_ready_antibodies() {
        let mut pending = PendingSet::new();
        pending.admit(sig("outer.a", 10, 0), 1); // needs a.rs:10, b.rs:50
        pending.admit(
            Signature::new(
                SignatureKind::Deadlock,
                vec![SignaturePair::new(
                    CallStack::single(Frame::new("outer.b", "b.rs", 50)),
                    CallStack::single(Frame::new("inner.b", "b.rs", 51)),
                )],
            ),
            1,
        ); // needs only b.rs:50
        let local_b = CallStack::single(Frame::new("outer.b", "b.rs", 777));
        let activated = pending.observe_position(&local_b);
        assert_eq!(activated.len(), 1, "only the single-site antibody is ready");
        assert_eq!(pending.len(), 1);
        let local_a = CallStack::single(Frame::new("outer.a", "a.rs", 888));
        assert_eq!(pending.observe_position(&local_a).len(), 1);
        assert!(pending.is_empty());
    }
}
