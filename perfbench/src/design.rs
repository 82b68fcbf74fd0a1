//! The `design` workload: the paper's §2–§6 session, back to back.
//!
//! Each session takes two team versions (Fig. 12 perturbations of the
//! base policy) from rule text to the agreed policy's first served
//! decision: parse → `DesignSession::compare` → `resolve_by_majority` →
//! `finalize` (Method 1, Method 2 and their cross-check) →
//! `LiveMatcher::new` → first decision. The served agreed policy then
//! takes a stretch of held-out Zipf traffic, uncalibrated.

use std::time::Instant;

use fw_diverse::{verify_final, DesignSession, ResolvedSession};
use fw_exec::{EngineScratch, LiveMatcher};
use fw_model::{Firewall, Rule, Schema};

use crate::common::{
    check_all, check_sample, cold_start, fatal, rotation, to_batch, wrong, Ctx, Novelty, Traffic,
    CACHE_CAPACITY,
};

pub struct Spec {
    /// The base policy the teams' versions perturb, as text.
    pub base_text: String,
    pub schema: Schema,
    /// Share of rules each team perturbs, in percent.
    pub percent: u32,
    pub setup_reps: u64,
    /// Each session's agreed policy serves one held-out rotation of this
    /// many batches.
    pub serve_batches: usize,
}

/// Packets per served batch.
const BATCH: usize = 1024;

/// Perturbation seeds of the two team versions. Every session of every
/// run designs the same pair: session cost swings by 6x between
/// perturbations (the shaped diagram `generate_rules` walks changes size),
/// and only a few sessions fit in a run, so a drawn pair would make the
/// run's median session a draw too. `--seed` drives the served traffic.
const TEAM_SEEDS: [u64; 2] = [1006, 1007];

/// The two team versions, as text.
fn team_texts(spec: &Spec, base: &Firewall) -> [String; 2] {
    TEAM_SEEDS.map(|s| fw_synth::perturb(base, spec.percent, s).to_dsl())
}

pub fn run(ctx: &mut Ctx, spec: &Spec, seed: u64, seconds: f64) {
    let base = Firewall::parse(spec.schema.clone(), &spec.base_text)
        .unwrap_or_else(|e| fatal(format!("base policy does not parse: {e}")));
    // Set-up: cold starts of the base policy's server.
    let calib = rotation(Traffic::Zipf, &base, 4, BATCH, seed, u64::MAX);
    for rep in 0..spec.setup_reps.max(1) {
        cold_start(ctx, &spec.schema, &spec.base_text, rep, &calib);
    }
    let mut novelty = Novelty::new();
    let mut scratch = EngineScratch::default();
    let mut out = Vec::new();
    let start = Instant::now();
    let texts = team_texts(spec, &base);
    let mut i = 0u64;
    // Sessions run back to back; at least one completes.
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let rot = rotation(Traffic::Zipf, &base, spec.serve_batches, BATCH, seed, i);
        let Some((resolved, agreed, live)) = session(ctx, spec, &texts, rot.rows(), i) else {
            i += 1;
            continue;
        };
        if ctx.tr.is_on() {
            composed_finalize(ctx, &resolved, &agreed, i);
        }
        // The freshly published policy serves held-out traffic before any
        // calibration: the default engine behind the cache.
        novelty.observe(rot.rows());
        for (b, batch) in rot.batches.iter().enumerate() {
            let choice = live.engine_choice();
            let span = ctx.tr.enter("exec.serve", b as u64);
            let t = Instant::now();
            let res = live.classify_auto_into(batch, &mut scratch, &mut out);
            let ns = t.elapsed().as_nanos();
            ctx.tr.exit(span);
            if ctx.op("serve", res).is_some() {
                ctx.served(batch.len(), ns, &choice);
                check_sample(&agreed, rot.rows_of(b), &out, "agreed policy batch");
            }
        }
        i += 1;
    }
    let share = novelty.close("served", ctx);
    ctx.set("exec.first_seen_share", share);
}

/// One timed session; the checks run after the clock stops.
fn session(
    ctx: &mut Ctx,
    spec: &Spec,
    texts: &[String; 2],
    rows: &[fw_model::Packet],
    i: u64,
) -> Option<(ResolvedSession, Firewall, LiveMatcher)> {
    let first = to_batch(&spec.schema, &rows[..BATCH.min(rows.len())]);
    let mut out = Vec::new();
    let mut scratch = EngineScratch::default();
    let t0 = Instant::now();
    let root = ctx.tr.enter("session", i);
    let mut versions = Vec::with_capacity(2);
    for text in texts {
        let fw = ctx.tr.time("model.parse", i, || {
            Firewall::parse(spec.schema.clone(), text)
        });
        versions.push(ctx.op("parse team text", fw)?);
    }
    let [a, b]: [Firewall; 2] = versions.try_into().ok()?;
    let compared = ctx.tr.time("core.compare", i, || {
        DesignSession::new().team("A", a).team("B", b).compare()
    });
    let resolved = ctx.op("compare", compared)?.resolve_by_majority();
    let agreed = ctx.tr.time("diverse.finalize", i, || resolved.finalize());
    let agreed = ctx.op("finalize", agreed)?;
    let live = ctx
        .tr
        .time("exec.live_new", i, || LiveMatcher::new(agreed.clone()));
    let live = ctx.op("serve agreed policy", live)?;
    ctx.op("enable_cache", live.enable_cache(CACHE_CAPACITY))?;
    let served = ctx.tr.time("exec.serve", i, || {
        live.classify_auto_into(&first, &mut scratch, &mut out)
    });
    ctx.op("first decision", served)?;
    ctx.tr.exit(root);
    ctx.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);

    if let Err(e) = verify_final(resolved.comparison(), resolved.resolution(), &agreed) {
        wrong(format!("agreed firewall fails verify_final: {e}"));
    }
    check_all(
        &agreed,
        &rows[..first.len()],
        &out,
        "agreed policy first decision",
    );
    Some((resolved, agreed, live))
}

/// Traced run only: `finalize` again through the public functions it
/// composes, checked to decide identically to the single call.
fn composed_finalize(ctx: &mut Ctx, resolved: &ResolvedSession, agreed: &Firewall, i: u64) {
    let cmp = resolved.comparison();
    let res = resolved.resolution();
    let root = ctx.tr.enter("composed.finalize", i);
    let shaped = ctx
        .tr
        .time("core.shape", i, || fw_core::shape_all(cmp.versions()));
    let Some(mut shaped) = ctx.op("shape_all", shaped) else {
        ctx.tr.exit(root);
        return;
    };
    let mut corrected = shaped.swap_remove(0);
    for entry in res.entries() {
        if corrected
            .overwrite_region(entry.discrepancy().predicate(), entry.decision())
            .is_err()
        {
            wrong("resolved region does not align with the shaped diagram");
        }
    }
    let m1 = ctx
        .tr
        .time("gen.generate", i, || fw_gen::generate_rules(&corrected));
    let Some(m1) = ctx.op("generate_rules", m1) else {
        ctx.tr.exit(root);
        return;
    };
    let verified = ctx
        .tr
        .time("diverse.verify", i, || verify_final(cmp, res, &m1));
    if verified.is_err() {
        wrong("composed Method 1 firewall fails verify_final");
    }
    let mut method2 = Vec::new();
    for base in 0..cmp.versions().len() {
        // Method 2 composed: fw-diverse prepends the corrections to the
        // base version, then fw-gen removes redundant rules; only the
        // latter is `gen.redundancy`.
        let prepended = res
            .entries()
            .iter()
            .filter(|e| e.discrepancy().decisions()[base] != e.decision())
            .try_fold(cmp.versions()[base].clone(), |fw, e| {
                let rule = Rule::new(e.discrepancy().predicate().clone(), e.decision());
                fw.with_rule_inserted(0, rule)
            });
        let Some(prepended) = ctx.op("prepend corrections", prepended) else {
            continue;
        };
        let m2 = ctx.tr.time("gen.redundancy", i, || {
            fw_gen::remove_redundant_rules(&prepended)
        });
        let Some(m2) = ctx.op("remove_redundant_rules", m2) else {
            continue;
        };
        let same = ctx
            .tr
            .time("core.equivalent", i, || fw_core::equivalent(&m1, &m2));
        if !matches!(same, Ok(true)) {
            wrong(format!("Method 1 and Method 2 (base {base}) disagree"));
        }
        method2.push((base, m2));
    }
    ctx.tr.exit(root);
    for (base, m2) in method2 {
        if fw_diverse::method2(cmp, res, base).ok() != Some(m2) {
            wrong(format!(
                "composed Method 2 (base {base}) differs from method2"
            ));
        }
    }
    if !matches!(fw_core::equivalent(&m1, agreed), Ok(true)) {
        wrong("composed finalize disagrees with finalize");
    }
}
