//! Equivalence oracle for the edit publish path: after every
//! [`LiveMatcher::apply_edits`] batch, the served image (the maintained
//! FDD, patched along the edited corridor, exported and compiled) must be
//! indistinguishable from a fresh [`CompiledFdd::from_firewall`] of the
//! post-edit policy — same decision as first-match on every probed packet,
//! through the scalar matcher, the lane kernel at several widths, and a
//! wire-format round trip of the published image. Probed on chains of
//! `fw_synth::evolve` edit batches of sizes {1, 4, 16} over random
//! policies, on guaranteed no-op batches, and exhaustively on every packet
//! of a tiny 2-field schema.

use std::sync::Arc;

use diverse_firewall::core::{ChangeImpact, Edit};
use diverse_firewall::exec::{CompiledFdd, LiveMatcher, PacketBatch, DEFAULT_LANE_WIDTH};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{evolve, EvolutionProfile, PacketTrace, Synthesizer};
use proptest::prelude::*;

const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Lane widths that stress the published image's mirror: degenerate (1),
/// misaligned (3), the tuned default, and one chunk per batch.
fn lane_widths(batch_len: usize) -> [usize; 4] {
    [1, 3, DEFAULT_LANE_WIDTH, batch_len.max(1)]
}

/// Applies `edits` to the served policy through `live.apply_edits` and
/// asserts the published image, a fresh compile of the post-edit policy,
/// and a decode of the published wire image all agree with first-match
/// semantics on every probe packet. A no-op batch must keep the served
/// image itself.
fn assert_publish_agrees(live: &LiveMatcher, edits: &[Edit], packets: &[Packet], tag: &str) {
    let before = live.load();
    let (after, impact) = ChangeImpact::of_edits(&live.policy(), edits).unwrap();
    let report = live.apply_edits(edits).unwrap();
    assert_eq!(live.policy(), after, "{tag}: served policy");
    assert_eq!(
        report.swapped,
        !impact.is_noop(),
        "{tag}: swap iff not no-op"
    );
    let published = live.load();
    if impact.is_noop() {
        assert!(
            Arc::ptr_eq(&before, &published),
            "{tag}: no-op batch must keep the served image"
        );
    }
    let fresh = CompiledFdd::from_firewall(&after).unwrap();
    let reloaded = CompiledFdd::decode(after.schema().clone(), published.encode()).unwrap();
    assert_eq!(reloaded, *published, "{tag}: FWEX round trip");

    let mut expect = Vec::with_capacity(packets.len());
    for p in packets {
        let linear = after.decision_for(p).expect("comprehensive policy");
        assert_eq!(
            linear,
            published.classify(p),
            "{tag}: published diverges at {p}"
        );
        assert_eq!(linear, fresh.classify(p), "{tag}: fresh diverges at {p}");
        assert_eq!(
            linear,
            reloaded.classify(p),
            "{tag}: decoded image diverges at {p}"
        );
        expect.push(linear);
    }
    let batch = PacketBatch::from_trace(after.schema().clone(), packets).unwrap();
    for width in lane_widths(batch.len()) {
        assert_eq!(
            published.classify_lanes(&batch, width).unwrap(),
            expect,
            "{tag}: published lane kernel diverges at width {width}"
        );
        assert_eq!(
            reloaded.classify_lanes(&batch, width).unwrap(),
            expect,
            "{tag}: decoded lane kernel diverges at width {width}"
        );
    }
}

fn edits_for(fw: &Firewall, k: usize, seed: u64) -> Vec<Edit> {
    evolve(fw, k, &EvolutionProfile::default(), seed)
        .into_iter()
        .map(|s| s.edit)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on random synthesized policies, a chain of edit batches
    /// of every size in [`BATCH_SIZES`] publishes images equivalent to a
    /// fresh compile, probed on random and rule-region-biased traces.
    #[test]
    fn incremental_equals_fresh_on_random_policies(
        seed in 0u64..10_000,
        rules in 2usize..30,
        edit_seed in 0u64..1_000,
    ) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let random = PacketTrace::random(fw.schema().clone(), 257, edit_seed);
        let biased = PacketTrace::biased(&fw, 257, 0.3, edit_seed + 1);
        let packets: Vec<Packet> = random
            .packets()
            .iter()
            .chain(biased.packets())
            .cloned()
            .collect();
        let live = LiveMatcher::new(fw).unwrap();
        for k in BATCH_SIZES {
            let edits = edits_for(&live.policy(), k, edit_seed + k as u64);
            assert_publish_agrees(&live, &edits, &packets, &format!("k={k}"));
        }
    }
}

/// A batch that replaces every rule with itself is a semantic no-op: the
/// impact is empty, nothing is published, and the kept image still serves
/// the policy exactly.
#[test]
fn noop_batches_share_the_whole_image() {
    for seed in [5u64, 17, 99] {
        let fw = Synthesizer::new(seed).firewall(12);
        let edits: Vec<Edit> = (0..fw.len())
            .map(|i| Edit::Replace {
                index: i,
                rule: fw.rules()[i].clone(),
            })
            .collect();
        let (_, impact) = ChangeImpact::of_edits(&fw, &edits).unwrap();
        assert!(impact.is_noop(), "self-replacement must be a no-op");
        let trace = PacketTrace::biased(&fw, 400, 0.3, seed);
        let live = LiveMatcher::new(fw).unwrap();
        assert_publish_agrees(&live, &edits, trace.packets(), &format!("noop seed {seed}"));
        assert_eq!(live.epoch(), 0, "noop seed {seed}: nothing published");
    }
}

/// A long chain of publishes: each published image serves while the next
/// batch is applied to the policy it left, and the server never needs a
/// rebuild from the rule list to stay correct.
#[test]
fn chained_publishes_stay_equivalent() {
    let fw = Synthesizer::new(7).firewall(20);
    let trace = PacketTrace::random(fw.schema().clone(), 300, 3);
    let live = LiveMatcher::new(fw).unwrap();
    for step in 0..6u64 {
        let edits = edits_for(&live.policy(), 2, 100 + step);
        assert_publish_agrees(&live, &edits, trace.packets(), &format!("step {step}"));
    }
}

/// Exhaustive oracle: on a tiny 2-field schema (3 bits each) all 64
/// packets are enumerable, so every published image is checked
/// cell-by-cell against first-match evaluation — along a chain of evolved
/// batches of every size in [`BATCH_SIZES`], and for a hand-rolled batch
/// exercising every `Edit` variant (including a no-op self-replacement)
/// in one sequence.
#[test]
fn incremental_matches_exhaustive_oracle_on_tiny_schema() {
    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];
    let all: Vec<Packet> = (0..8u64)
        .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
        .collect();

    for k in 0..8u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let (b_lo, b_hi) = ((k * 3) % 6, ((k * 3) % 6) + 1);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let d3 = decisions[((k + 2) % 3) as usize];
        let text =
            format!("a={a_lo}-{a_hi}, b={b_lo}-{b_hi} -> {d1}\nb={b_lo} -> {d2}\n* -> {d3}\n");
        let fw = Firewall::parse(schema.clone(), &text).unwrap();

        let live = LiveMatcher::new(fw.clone()).unwrap();
        for batch in BATCH_SIZES {
            let edits = edits_for(&live.policy(), batch, k * 31 + batch as u64);
            assert_publish_agrees(&live, &edits, &all, &format!("policy {k}, k={batch}"));
        }

        let flipped = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
        let widened = fw.rules()[1].with_decision(fw.rules()[1].decision().inverted());
        let mixed = vec![
            Edit::Replace {
                index: 0,
                rule: fw.rules()[0].clone(), // no-op self-replacement
            },
            Edit::Replace {
                index: 0,
                rule: flipped,
            },
            Edit::Insert {
                index: 1,
                rule: widened,
            },
            Edit::Swap {
                first: 0,
                second: 1,
            },
            Edit::Remove { index: 1 },
        ];
        let live = LiveMatcher::new(fw).unwrap();
        assert_publish_agrees(&live, &mixed, &all, &format!("policy {k}, mixed batch"));
    }
}
