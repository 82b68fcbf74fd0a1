//! Equivalence oracle for profile-guided image specialization: the
//! specialized twin must be byte-identical to the base image and to a
//! fresh FDD walk of the authoritative policy — on the trace that fed the
//! profile, on traffic with a completely different shape (an adversarial
//! profile can misplace heat, never decisions), through every engine kind
//! and lane width the calibrator can install while the twin is mounted,
//! across live edit rounds with re-specialization between batches, after
//! a wire roundtrip (which must shed the twin — FWEX stays unspecialized),
//! and exhaustively on all 64 packets of a tiny 2-field schema.

use diverse_firewall::core::Fdd;
use diverse_firewall::exec::{
    CompiledFdd, EngineChoice, EngineKind, EngineScratch, LiveMatcher, PacketBatch, Profile,
};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{evolve, EvolutionProfile, PacketTrace, Synthesizer};
use proptest::prelude::*;

/// Gather a profile over `feed` and install the specialized twin on
/// `compiled`, returning the profile's decisions (already checked against
/// the plain column kernel by the caller where needed).
fn profile_and_specialize(compiled: &CompiledFdd, fw: &Firewall, feed: &[Packet]) -> Profile {
    let batch = PacketBatch::from_trace(fw.schema().clone(), feed).unwrap();
    let mut profile = Profile::new_for(compiled);
    let mut out = Vec::new();
    compiled
        .classify_profiled_into(&batch, &mut profile, &mut out)
        .unwrap();
    assert_eq!(
        out,
        compiled.classify_columns(&batch).unwrap(),
        "instrumented walk must not change decisions"
    );
    compiled.specialize(&profile).unwrap();
    profile
}

/// The core oracle: specialized ≡ base ≡ fresh FDD walk on every packet
/// of `probes`, both per-packet and through every installable engine.
fn assert_specialized_agrees(compiled: &CompiledFdd, fw: &Firewall, probes: &[Packet], tag: &str) {
    let spec = compiled.spec().expect("twin installed");
    let fdd = Fdd::from_firewall_fast(fw).unwrap();
    for p in probes {
        let base = compiled.classify(p);
        assert_eq!(spec.classify(p), base, "{tag}: specialized diverges at {p}");
        assert_eq!(fdd.evaluate(p), base, "{tag}: FDD walk diverges at {p}");
        assert_eq!(
            fw.decision_for(p),
            Some(base),
            "{tag}: first-match diverges at {p}"
        );
    }

    // Every engine kind × lane width × thread count serves identically
    // with the twin mounted — including the spec arm itself, serial and
    // sharded.
    let batch = PacketBatch::from_trace(fw.schema().clone(), probes).unwrap();
    let expect = compiled.classify_columns(&batch).unwrap();
    let mut scratch = EngineScratch::default();
    let mut got = Vec::new();
    for kind in [
        EngineKind::Walk,
        EngineKind::Columns,
        EngineKind::Lanes,
        EngineKind::Spec,
    ] {
        for lane_width in [8usize, 32] {
            for threads in [1usize, 3] {
                let choice = EngineChoice {
                    kind,
                    lane_width,
                    threads,
                    ..EngineChoice::default()
                };
                choice
                    .classify_into(
                        compiled,
                        Some(&fdd),
                        Some(probes),
                        &batch,
                        &mut scratch,
                        &mut got,
                    )
                    .unwrap();
                assert_eq!(
                    got, expect,
                    "{tag}: {kind:?}/w{lane_width}/t{threads} diverged with the twin mounted"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on random policies, a specialization fed by skewed
    /// traffic serves exactly — on the feeding trace AND on uniform
    /// probes the profile never saw.
    #[test]
    fn specialized_image_agrees_on_random_policies(seed in 1u64..5_000, rules in 15usize..60) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let feed = PacketTrace::zipf(&fw, 1_500, 1.1, seed, seed + 1);
        profile_and_specialize(&compiled, &fw, feed.packets());

        let plan = compiled.spec().unwrap().plan().clone();
        prop_assert!(plan.depth_after <= plan.depth_before, "fusion never deepens the walk");

        let unseen = PacketTrace::random(fw.schema().clone(), 800, seed + 2);
        let mut probes: Vec<Packet> = feed.packets().to_vec();
        probes.extend_from_slice(unseen.packets());
        assert_specialized_agrees(&compiled, &fw, &probes, "random-policy");
    }

    /// Property: live edit rounds with a re-specialization between every
    /// batch keep serving exact. Edits land on the (unspecialized) fresh
    /// image; the next re-specialization rebuilds the twin from heat
    /// gathered on post-edit traffic.
    #[test]
    fn edit_rounds_with_respecialization_stay_exact(seed in 1u64..2_000) {
        let fw = Synthesizer::new(seed).firewall(35);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        live.enable_specialization(1, 0); // sample every batch, manual respec
        let mut scratch = EngineScratch::default();
        let mut out = Vec::new();
        for round in 0..3u64 {
            let policy = live.policy();
            let trace = PacketTrace::zipf(&policy, 600, 1.1, seed + round, seed + round + 7);
            let batch = PacketBatch::from_trace(policy.schema().clone(), trace.packets()).unwrap();
            // Sampled (profiled) serving stays exact...
            live.classify_auto_into(&batch, &mut scratch, &mut out).unwrap();
            for (p, d) in trace.packets().iter().zip(&out) {
                prop_assert_eq!(Some(*d), policy.decision_for(p), "round {} pre-respec", round);
            }
            // ...the re-lowered twin stays exact...
            live.respecialize_now().unwrap().expect("profile was gathered");
            live.classify_auto_into(&batch, &mut scratch, &mut out).unwrap();
            for (p, d) in trace.packets().iter().zip(&out) {
                prop_assert_eq!(Some(*d), policy.decision_for(p), "round {} post-respec", round);
            }
            // ...and an edit batch swaps to a cold image that serves the
            // NEW semantics immediately (a spec choice degrades, never
            // serves stale structure).
            let edits: Vec<_> = evolve(&policy, 2, &EvolutionProfile::default(), seed + round)
                .into_iter()
                .map(|s| s.edit)
                .collect();
            live.apply_edits(&edits).unwrap();
            let after = live.policy();
            live.classify_auto_into(&batch, &mut scratch, &mut out).unwrap();
            for (p, d) in trace.packets().iter().zip(&out) {
                prop_assert_eq!(Some(*d), after.decision_for(p), "round {} post-edit", round);
            }
        }
    }
}

/// An adversarial profile — heat gathered on one traffic shape, serving a
/// completely different one — may cost performance, never correctness:
/// hybrid prefixes fall through to the full cut search and the layout is
/// just a permutation.
#[test]
fn profile_gathered_on_a_served_on_b_is_exact() {
    let fw = Synthesizer::new(97).firewall(50);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    // Feed: heavily skewed toward a few flows.
    let feed = PacketTrace::zipf(&fw, 4_000, 1.3, 11, 12);
    profile_and_specialize(&compiled, &fw, feed.packets());
    // Serve: uniform random plus rule-region-biased — shapes the profile
    // never saw.
    let mut probes = PacketTrace::random(fw.schema().clone(), 2_000, 13)
        .packets()
        .to_vec();
    probes.extend_from_slice(PacketTrace::biased(&fw, 2_000, 0.3, 14).packets());
    assert_specialized_agrees(&compiled, &fw, &probes, "adversarial-profile");
}

/// FWEX stays unspecialized: encoding ignores the twin, and a decoded
/// image starts cold (profiler disarmed, no twin) while serving
/// identically.
#[test]
fn wire_roundtrip_sheds_the_twin() {
    let fw = Synthesizer::new(41).firewall(30);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    let feed = PacketTrace::zipf(&fw, 1_000, 1.1, 5, 6);
    profile_and_specialize(&compiled, &fw, feed.packets());
    assert!(compiled.spec().is_some());

    let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
    assert!(decoded.spec().is_none(), "a decoded image starts cold");
    assert!(!decoded.profiler_armed());
    for p in feed.packets().iter().take(200) {
        assert_eq!(decoded.classify(p), compiled.classify(p));
    }

    // And clearing the twin restores plain base serving.
    compiled.clear_spec();
    assert!(compiled.spec().is_none());
    for p in feed.packets().iter().take(50) {
        assert_eq!(Some(compiled.classify(p)), fw.decision_for(p));
    }
}

/// Exhaustive sweep: every packet of a 2-field, 8×8-value schema, with a
/// profile fed by a skewed sub-trace. 64 packets, several hand-written
/// policies — the specialized walk must match first-match semantics on
/// the whole domain, not just sampled traffic.
#[test]
fn exhaustive_two_field_sweep() {
    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let all: Vec<Packet> = (0..8u64)
        .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
        .collect();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];

    for k in 0..8u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let text = format!("a={a_lo}-{a_hi}, b=1-6 -> {d1}\n* -> {d2}\n");
        let fw = Firewall::parse(schema.clone(), &text).unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();

        // Skew the profile onto a corner of the domain so the layout and
        // hybrid prefixes genuinely move, then check the whole domain.
        let feed: Vec<Packet> = all
            .iter()
            .flat_map(|p| {
                let hot = usize::from(p.values()[0] == k % 8) * 9 + 1;
                std::iter::repeat_n(p.clone(), hot)
            })
            .collect();
        profile_and_specialize(&compiled, &fw, &feed);
        let spec = compiled.spec().unwrap();
        for p in &all {
            assert_eq!(
                Some(spec.classify(p)),
                fw.decision_for(p),
                "policy {k}: specialized diverges at {p}"
            );
        }
    }
}
