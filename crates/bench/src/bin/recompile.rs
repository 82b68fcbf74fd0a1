//! Edit-to-image benchmark: applies deterministic edit batches (sizes
//! 1/4/16, drawn from the `fw_synth::evolve` administrative-action mix)
//! to the Fig. 12 real-life-sized and Fig. 13 `n=500` synthetic policies,
//! then times the whole edit-to-image pipeline both ways and writes
//! `BENCH_recompile.json`:
//!
//! * the **maintained** path — patch a `MaintainedFdd` suffix chain
//!   (`maintain_us`), short-circuit diff for the impact
//!   (`impact_local_us`), export the patched diagram (`export_fdd_us`),
//!   compile it (`compile_us`) — what `LiveMatcher::apply_edits` runs;
//! * the **full** path — whole-policy comparison for the impact
//!   (`impact_full_us`), rebuild the post-edit FDD from the rule list
//!   (`post_edit_fdd_us`), compile; `full_us` times
//!   `CompiledFdd::from_firewall` (rebuild + compile) for reference.
//!
//! The `e2e_*` fields sum each pipeline end to end (both end at the same
//! compile); `impact_us` keeps timing `ChangeImpact::of_edits` for
//! continuity with earlier runs of this file.
//!
//! Run with: `cargo run --release -p fw-bench --bin recompile`
//! (CI runs `-- --smoke`: one repeat, smaller oracle trace, same rows).
//!
//! Every policy and edit batch comes from fixed seeds, so matcher shapes
//! are reproducible run to run (only timings vary with the machine). The run is also an oracle: before any timing, the bin
//! asserts the published image (compiled from the maintained diagram), a
//! fresh compile of the post-edit policy, and the linear first-match scan
//! agree on every packet of a replay trace, that the maintained impact
//! counts the same affected packets as `ChangeImpact::of_edits`, and that
//! the published image round-trips the wire format.

use std::fmt::Write as _;
use std::time::Instant;

use fw_core::{compare_firewalls, ChangeImpact, Edit, Fdd, MaintainStats, MaintainedFdd};
use fw_exec::CompiledFdd;
use fw_model::{Decision, Firewall};
use fw_synth::{evolve, EvolutionProfile, PacketTrace};

const BATCHES: [usize; 3] = [1, 4, 16];

struct Mode {
    repeats: u32,
    packets: usize,
}

struct Row {
    workload: String,
    rules: usize,
    batch: usize,
    affected_packets: u128,
    impact_us: f64,
    maintain_us: f64,
    impact_local_us: f64,
    impact_full_us: f64,
    export_fdd_us: f64,
    post_edit_fdd_us: f64,
    full_us: f64,
    compile_us: f64,
    nodes: usize,
    lane_arena_bytes: usize,
    maintain: MaintainStats,
}

impl Row {
    /// Edit-to-image latency on the maintained path: patch the chain,
    /// diff for the impact, export the diagram, compile the image.
    fn e2e_maintained_us(&self) -> f64 {
        self.maintain_us + self.impact_local_us + self.export_fdd_us + self.compile_us
    }

    /// The same pipeline without maintenance: whole-policy impact
    /// comparison, post-edit FDD rebuild from the rule list, compile.
    fn e2e_full_us(&self) -> f64 {
        self.impact_full_us + self.post_edit_fdd_us + self.compile_us
    }
}

/// Minimum over repeats: the best observed run carries the least
/// scheduler and allocator interference, which is what a latency
/// comparison between two deterministic pipelines should measure.
fn best_us(times: Vec<f64>) -> f64 {
    times.into_iter().fold(f64::INFINITY, f64::min) * 1e6
}

fn time_repeats(repeats: u32, mut f: impl FnMut()) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Single-rule rows use the pure decision-flip profile — the paper's
/// "tighten or loosen one rule" edit, the shallowest realistic change and
/// the one the incremental path must win on.
fn flip_only() -> EvolutionProfile {
    EvolutionProfile {
        w_block_threat: 0,
        w_open_service: 0,
        w_delete: 0,
        w_swap: 0,
        w_flip_decision: 1,
    }
}

/// A deterministic edit batch with a non-trivial impact, plus the timed
/// impact analysis for the salt that produced it (flips of shadowed rules
/// are no-ops; those salts are skipped so every row publishes a new
/// image).
fn edit_batch(fw: &Firewall, k: usize, seed: u64) -> (Vec<Edit>, Firewall, ChangeImpact, f64) {
    let profile = if k == 1 {
        flip_only()
    } else {
        EvolutionProfile::default()
    };
    for salt in 0..64u64 {
        let steps = evolve(fw, k, &profile, seed + salt * 7919);
        let edits: Vec<Edit> = steps.into_iter().map(|s| s.edit).collect();
        let t = Instant::now();
        let (after, impact) = ChangeImpact::of_edits(fw, &edits).expect("evolution edits apply");
        let impact_us = t.elapsed().as_secs_f64() * 1e6;
        if !impact.is_noop() {
            return (edits, after, impact, impact_us);
        }
    }
    panic!("no effective edit batch for k={k} within 64 salts");
}

fn bench_workload(rows: &mut Vec<Row>, mode: &Mode, name: &str, fw: &Firewall, seed: u64) {
    // Built once per workload, untimed: a server pays for the chain at
    // startup, then every edit batch below is incremental.
    let maintained_base = MaintainedFdd::new(fw.clone()).expect("benchmark policies maintain");
    let trace = PacketTrace::biased(fw, mode.packets, 0.3, seed);
    for (bi, k) in BATCHES.into_iter().enumerate() {
        let (edits, after, impact, impact_us) = edit_batch(fw, k, seed + bi as u64);

        // Both pipelines' repeats interleave round by round, so a slow
        // scheduler phase penalises the maintained and full paths alike
        // instead of skewing whichever happened to run through it. The
        // maintained side runs each repeat on a fresh clone of the
        // per-workload chain (cloning is untimed; a server edits its
        // one long-lived chain in place); the full side repeats the
        // post-edit FDD rebuild from the rule list and the old
        // whole-policy impact pipeline (§4 shaping + §5 comparison over
        // both rule lists) for the localized-vs-full split.
        let mut maintain_times = Vec::new();
        let mut local_times = Vec::new();
        let mut export_times = Vec::new();
        let mut post_edit_times = Vec::new();
        let mut impact_full_times = Vec::new();
        let mut maintained_out = None;
        for _ in 0..mode.repeats {
            let mut m = maintained_base.clone();
            let old_root = m.root();
            let t = Instant::now();
            let m_stats = m
                .apply_with_stats(&edits)
                .expect("evolution edits maintain");
            maintain_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let m_impact = m.diff_from(old_root).expect("maintained roots diff");
            local_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let m_fdd = m.to_fdd().expect("maintained chain exports");
            export_times.push(t.elapsed().as_secs_f64());
            maintained_out = Some((m_impact, m_fdd, m_stats));

            let t = Instant::now();
            std::hint::black_box(
                Fdd::from_firewall_fast(&after)
                    .expect("post-edit policies are comprehensive")
                    .reduced(),
            );
            post_edit_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(
                compare_firewalls(fw, &after).expect("benchmark policies compare"),
            );
            impact_full_times.push(t.elapsed().as_secs_f64());
        }
        let maintain_us = best_us(maintain_times);
        let impact_local_us = best_us(local_times);
        let export_fdd_us = best_us(export_times);
        let post_edit_fdd_us = best_us(post_edit_times);
        let impact_full_us = best_us(impact_full_times);
        let (m_impact, m_fdd, m_stats) = maintained_out.expect("at least one repeat");

        // Batched-maintained-vs-full agreement oracle: the coalesced
        // sweep's exported diagram must decide every trace packet exactly
        // as a fresh from-scratch rebuild of the post-edit policy (CI
        // runs this in smoke mode for every batch size; a divergence
        // fails the job before any timing is reported).
        let fresh_fdd = Fdd::from_firewall_fast(&after)
            .expect("post-edit policies are comprehensive")
            .reduced();
        for p in trace.packets() {
            assert_eq!(
                m_fdd.evaluate(p),
                fresh_fdd.evaluate(p),
                "{name}/k={k}: maintained FDD diverges from fresh rebuild at {p}"
            );
        }

        // The maintained impact must count exactly the packets the
        // of_edits analysis counts.
        assert_eq!(
            m_impact.affected_packets(),
            impact.affected_packets(),
            "{name}/k={k}: maintained impact diverges from of_edits"
        );

        // The oracle's two compiles double as the first timing sample, so
        // single-repeat (smoke) rows do each exactly once. The maintained
        // compile consumes the exported diagram — the image a LiveMatcher
        // would publish.
        let t = Instant::now();
        let published = CompiledFdd::compile(&m_fdd).expect("maintained diagrams compile");
        let compile_first = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let full = CompiledFdd::from_firewall(&after).expect("post-edit policies compile");
        let full_first = t.elapsed().as_secs_f64();

        // Oracle before timing: published == fresh == linear scan on the
        // whole trace, and the published image survives the wire format's
        // independent re-validation.
        let mut published_out = Vec::new();
        let mut full_out = Vec::new();
        published.classify_batch_into(trace.packets(), &mut published_out);
        full.classify_batch_into(trace.packets(), &mut full_out);
        let linear: Vec<Decision> = trace
            .packets()
            .iter()
            .map(|p| after.decision_for(p).expect("comprehensive policy"))
            .collect();
        assert_eq!(published_out, full_out, "{name}/k={k}: published diverges");
        assert_eq!(published_out, linear, "{name}/k={k}: compiled diverges");
        CompiledFdd::decode(fw.schema().clone(), published.encode())
            .expect("published image round-trips");

        let mut full_times = vec![full_first];
        full_times.extend(time_repeats(mode.repeats - 1, || {
            std::hint::black_box(CompiledFdd::from_firewall(&after).expect("compiles"));
        }));
        let full_us = best_us(full_times);
        let mut compile_times = vec![compile_first];
        compile_times.extend(time_repeats(mode.repeats - 1, || {
            std::hint::black_box(CompiledFdd::compile(&m_fdd).expect("compiles"));
        }));
        let compile_us = best_us(compile_times);

        let row = Row {
            workload: name.to_owned(),
            rules: fw.len(),
            batch: k,
            affected_packets: impact.affected_packets_in(fw.schema()),
            impact_us,
            maintain_us,
            impact_local_us,
            impact_full_us,
            export_fdd_us,
            post_edit_fdd_us,
            full_us,
            compile_us,
            nodes: published.node_count(),
            lane_arena_bytes: published.stats().lane_arena_bytes,
            maintain: m_stats,
        };
        println!(
            "{name} k={k}: e2e full {:.0} µs | e2e maintained {:.0} µs (x{:.1}) | \
             maintain {maintain_us:.0} + diff {impact_local_us:.0} + export \
             {export_fdd_us:.0} + compile {compile_us:.0} µs | \
             plan {:?} corridors {} span {} prepends {} copied {} | {} nodes",
            row.e2e_full_us(),
            row.e2e_maintained_us(),
            row.e2e_full_us() / row.e2e_maintained_us(),
            m_stats.plan,
            m_stats.corridors,
            m_stats.corridor_span,
            m_stats.prepends,
            m_stats.copied,
            row.nodes,
        );
        rows.push(row);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke {
        Mode {
            repeats: 1,
            packets: 2_000,
        }
    } else {
        Mode {
            repeats: 9,
            packets: 8_000,
        }
    };
    let started = Instant::now();
    let mut rows = Vec::new();

    bench_workload(
        &mut rows,
        &mode,
        "fig12/avg(42)",
        &fw_synth::university_average(),
        10,
    );
    bench_workload(
        &mut rows,
        &mode,
        "fig12/large(661)",
        &fw_synth::university_large(),
        20,
    );
    bench_workload(
        &mut rows,
        &mode,
        "fig13/synth-n500",
        &fw_synth::Synthesizer::new(302).firewall(500),
        40,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"repeats\": {},", mode.repeats);
    let _ = writeln!(json, "  \"packets_per_trace\": {},", mode.packets);
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"rules\": {}, \"batch\": {}, \
             \"affected_packets\": {}, \"impact_us\": {:.1}, \"maintain_us\": {:.1}, \
             \"impact_local_us\": {:.1}, \"impact_full_us\": {:.1}, \
             \"export_fdd_us\": {:.1}, \"post_edit_fdd_us\": {:.1}, \
             \"full_us\": {:.1}, \"compile_us\": {:.1}, \
             \"e2e_maintained_us\": {:.1}, \"e2e_full_us\": {:.1}, \
             \"e2e_speedup\": {:.2}, \
             \"plan\": \"{:?}\", \"corridors\": {}, \"corridor_span\": {}, \
             \"tail_shared\": {}, \"sweep_levels\": {}, \"prepends\": {}, \
             \"copied\": {}, \
             \"nodes\": {}, \"lane_arena_bytes\": {}}}{sep}",
            r.workload,
            r.rules,
            r.batch,
            r.affected_packets,
            r.impact_us,
            r.maintain_us,
            r.impact_local_us,
            r.impact_full_us,
            r.export_fdd_us,
            r.post_edit_fdd_us,
            r.full_us,
            r.compile_us,
            r.e2e_maintained_us(),
            r.e2e_full_us(),
            r.e2e_full_us() / r.e2e_maintained_us(),
            r.maintain.plan,
            r.maintain.corridors,
            r.maintain.corridor_span,
            r.maintain.tail_shared,
            r.maintain.sweep_levels,
            r.maintain.prepends,
            r.maintain.copied,
            r.nodes,
            r.lane_arena_bytes
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total_ms\": {:.3}\n}}",
        started.elapsed().as_secs_f64() * 1e3
    );
    std::fs::write("BENCH_recompile.json", &json).expect("write BENCH_recompile.json");
    println!("wrote BENCH_recompile.json in {:?}", started.elapsed());
}
