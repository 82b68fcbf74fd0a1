//! The `LiveMatcher` workloads: `serve-zipf`, `serve-uniform` and
//! `edit-churn`.
//!
//! One closed-loop client sends 1024-packet batches through
//! `classify_auto_into` and, on `edit-churn`, an edit batch every
//! `EditSpec::every` batches. Traffic comes in rotations: each rotation is
//! a fresh trace (a new flow pool for Zipf), so first-seen flows keep
//! arriving. On `serve-*`, every `respecialize_every` rotations the
//! server re-lowers its image's specialized twin under the profile the
//! rotations left behind. On `edit-churn`, every edit batch publishes an
//! image without a twin, and the server re-lowers the new image's twin as
//! soon as its first served batch has been profiled.

use std::time::Instant;

use fw_core::{BatchPlan, Edit, MaintainedFdd};
use fw_exec::{CompiledFdd, DecisionCache, EngineScratch, LiveMatcher, PacketBatch};
use fw_model::{Decision, Firewall, Packet, Schema};
use fw_synth::PacketTrace;

use crate::common::{
    check_sample, cold_start, edit_and_rollback, fatal, rotation, to_batch, wrong, Ctx, EditPair,
    Novelty, Traffic, CACHE_CAPACITY,
};

/// Packets per served batch.
const BATCH: usize = 1024;

/// Profiler sampling period: one served batch in this many feeds the
/// specializer's heat histograms.
const PROFILE_EVERY: u64 = 8;

pub struct Spec {
    pub text: String,
    pub schema: Schema,
    pub traffic: Traffic,
    pub rotation_batches: usize,
    /// Rotations between two re-lowerings of the specialized twin
    /// (`serve-*` only; `edit-churn` re-lowers after every edit batch).
    pub respecialize_every: u64,
    pub warm_rotations: u64,
    pub setup_reps: u64,
    /// `Some` on `edit-churn`.
    pub edits: Option<EditSpec>,
}

pub struct EditSpec {
    /// Served batches between two edit batches.
    pub every: usize,
    /// Every `big_every`-th forward batch holds [`BIG_EDITS`] edits; the
    /// rest hold one. Each forward batch is followed by its rollback.
    pub big_every: u64,
}

/// Edits in a big forward batch: enough that `BatchPlan` coalesces them.
const BIG_EDITS: usize = 16;

/// Forward batches in the edit cycle: 5 of 16 edits and 20 single edits,
/// two rounds of the single-edit action mix.
const EDIT_CYCLE: u64 = 25;

/// Seed of the edit cycle. Single-edit latency spreads over an order of
/// magnitude with the rule an edit inserts or moves, and a run gets
/// through only a few hundred edits: edits drawn from the run's seed
/// would make its median edit a draw. Every run replays the same cycle;
/// `--seed` drives the traffic.
const EDIT_SEED: u64 = 0xED17_C7C1;

/// The forward batches of the edit cycle, each with its rollback.
fn edit_cycle(base: &Firewall, es: &EditSpec) -> Vec<EditPair> {
    let mut singles = 0;
    (0..EDIT_CYCLE)
        .map(|f| {
            let n = if f % es.big_every == es.big_every - 1 {
                BIG_EDITS
            } else {
                singles += 1;
                1
            };
            edit_and_rollback(base, n, singles, EDIT_SEED ^ (f << 24))
        })
        .collect()
}

/// The shadow pipeline of the traced run: the same edits and batches sent
/// through the public functions that `LiveMatcher` composes.
struct Shadow {
    maintained: MaintainedFdd,
    image: CompiledFdd,
    cache: DecisionCache,
}

/// The composed form of `LiveMatcher::new`: build, export, compile.
fn shadow_of(ctx: &mut Ctx, fw: &Firewall, live: &LiveMatcher, probe: &[Packet]) -> Shadow {
    let maintained = ctx
        .tr
        .time("core.build", 0, || MaintainedFdd::new(fw.clone()))
        .unwrap_or_else(|e| fatal(format!("MaintainedFdd::new: {e}")));
    let fdd = ctx
        .tr
        .time("core.export", 0, || maintained.to_fdd())
        .unwrap_or_else(|e| fatal(format!("to_fdd: {e}")));
    let image = ctx
        .tr
        .time("exec.compile", 0, || CompiledFdd::compile(&fdd))
        .unwrap_or_else(|e| fatal(format!("compile: {e}")));
    same_image(&image, &live.load(), probe, "composed build");
    let cache = DecisionCache::new(fw.schema().clone(), CACHE_CAPACITY)
        .unwrap_or_else(|e| fatal(format!("DecisionCache::new: {e}")));
    Shadow {
        maintained,
        image,
        cache,
    }
}

fn same_image(a: &CompiledFdd, b: &CompiledFdd, probe: &[Packet], what: &str) {
    for p in probe {
        if a.classify(p) != b.classify(p) {
            wrong(format!("{what}: images disagree on {p:?}"));
        }
    }
}

/// Probe packets for the per-edit image check: boundary-biased plus
/// uniform, fixed for the run.
fn probe_trace(fw: &Firewall, seed: u64, n: usize) -> Vec<Packet> {
    let mut rows = PacketTrace::biased(fw, n / 2, 0.3, seed ^ 0x5EED)
        .packets()
        .to_vec();
    rows.extend_from_slice(
        PacketTrace::random(fw.schema().clone(), n - n / 2, seed ^ 0xD1CE).packets(),
    );
    rows
}

pub fn run(ctx: &mut Ctx, spec: &Spec, seed: u64, seconds: f64) {
    let reference = Firewall::parse(spec.schema.clone(), &spec.text)
        .unwrap_or_else(|e| fatal(format!("policy text does not parse: {e}")));
    let gen = |r: u64| {
        rotation(
            spec.traffic,
            &reference,
            spec.rotation_batches,
            BATCH,
            seed,
            r,
        )
    };
    let mut novelty = Novelty::new();
    let warm0 = gen(0);

    let mut built = None;
    for rep in 0..spec.setup_reps.max(1) {
        drop(built.take()); // one server alive at a time
        built = Some(cold_start(ctx, &spec.schema, &spec.text, rep, &warm0));
    }
    let (live, _) = built.expect("at least one set-up");
    live.enable_specialization(PROFILE_EVERY, 0);
    let probe = probe_trace(&reference, seed, 512);
    let base_image = spec.edits.as_ref().map(|_| fresh_compile(&reference));
    let mut shadow = ctx
        .tr
        .is_on()
        .then(|| shadow_of(ctx, &reference, &live, &probe));

    let mut scratch = EngineScratch::default();
    let mut out: Vec<Decision> = Vec::new();
    let mut shadow_out: Vec<Decision> = Vec::new();

    // Warm-up on a prefix of the stream, then the one post-warm-up
    // calibration and re-specialization.
    let mut warm = Some(warm0);
    for r in 0..spec.warm_rotations {
        let rot = warm.take().unwrap_or_else(|| gen(r));
        novelty.observe(rot.rows());
        for (b, batch) in rot.batches.iter().enumerate() {
            let res = live.classify_auto_into(batch, &mut scratch, &mut out);
            if ctx.op("serve", res).is_some() {
                check_sample(&reference, rot.rows_of(b), &out, "warm-up batch");
            }
        }
        if r + 1 == spec.warm_rotations {
            let sample = &rot.rows()[rot.rows().len().saturating_sub(4096)..];
            let batch = to_batch(&spec.schema, sample);
            let cal = ctx.tr.time("exec.calibrate", r, || {
                live.calibrate(&batch, Some(sample), 0)
            });
            ctx.op("calibrate", cal);
            let plan = ctx
                .tr
                .time("exec.respecialize", r, || live.respecialize_now());
            ctx.op("respecialize", plan);
        }
    }
    novelty.close("warm-up", ctx);

    let cycle = spec
        .edits
        .as_ref()
        .map_or_else(Vec::new, |es| edit_cycle(&reference, es));
    // The policy being served: the base, or the one the last edit batch
    // was checked to leave.
    let mut policy = &reference;
    let mut edit_batches = 0u64;
    // Set when an edit batch publishes an image without a twin; cleared
    // once the twin is re-lowered.
    let mut relower = false;
    let mut batches_served = 0usize;
    let mut specialize = Vec::new();
    let (hits0, misses0, evicted0) = cache_counts(&live);
    let start = Instant::now();
    let mut r = spec.warm_rotations;
    'run: while start.elapsed().as_secs_f64() < seconds {
        let rot = gen(r);
        novelty.observe(rot.rows());
        for (b, batch) in rot.batches.iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
            if let Some(es) = &spec.edits {
                if batches_served % es.every == es.every - 1 {
                    // Forward and rollback batches alternate. A rollback
                    // restores the base policy, whose fresh compile is
                    // already at hand.
                    let pair = &cycle[(edit_batches / 2) as usize % cycle.len()];
                    let (edits, expected, fresh) = if edit_batches.is_multiple_of(2) {
                        (&pair.forward, &pair.after, None)
                    } else {
                        (&pair.rollback, &reference, base_image.as_ref())
                    };
                    let applied = edit_step(
                        ctx,
                        &live,
                        edits,
                        expected,
                        edit_batches,
                        shadow.as_mut(),
                        &probe,
                        fresh,
                    );
                    if applied {
                        policy = expected;
                        relower = true;
                    }
                    edit_batches += 1;
                }
            }
            let choice = live.engine_choice();
            if live.load().spec().is_some() {
                ctx.twin_batches += 1;
            }
            let req = batches_served as u64;
            let span = ctx.tr.enter("exec.serve", req);
            let t = Instant::now();
            let res = live.classify_auto_into(batch, &mut scratch, &mut out);
            let ns = t.elapsed().as_nanos();
            ctx.tr.exit(span);
            batches_served += 1;
            if ctx.op("serve", res).is_none() {
                continue;
            }
            ctx.served(batch.len(), ns, &choice);
            check_sample(policy, rot.rows_of(b), &out, "served batch");
            if let Some(sh) = shadow.as_mut() {
                traced_batch(
                    ctx,
                    &live,
                    sh,
                    batch,
                    req,
                    &mut scratch,
                    &out,
                    &mut shadow_out,
                );
            }
            // The edited image has now served (and profiled) its first
            // batch: re-lower its twin. Until then a `spec` choice falls
            // back to the column kernel, so the re-lowering is part of
            // publishing the edit and counts into its publish time.
            if relower {
                if let Some(ms) = relower_twin(ctx, &live, edit_batches, &mut specialize) {
                    if let Some(last) = ctx.publish_ms.last_mut() {
                        *last += ms;
                    }
                    relower = false;
                }
            }
        }
        r += 1;
        if spec.edits.is_some()
            || !(r - spec.warm_rotations).is_multiple_of(spec.respecialize_every)
        {
            continue;
        }
        if let Some(ms) = relower_twin(ctx, &live, r, &mut specialize) {
            ctx.publish_ms.push(ms);
        }
    }
    let share = novelty.close("timed", ctx);

    let (hits, misses, evicted) = cache_counts(&live);
    let (hits, misses) = (hits - hits0, misses - misses0);
    ctx.set("exec.first_seen_share", share);
    ctx.set(
        "exec.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    ctx.set(
        "exec.cache_evictions",
        (evicted - evicted0) as f64 / (ctx.packets.max(1) as f64 / 1e6),
    );
    ctx.set("exec.image_bytes", live.load().stats().arena_bytes as f64);
    if let Some(&(bytes, depth)) = specialize.last() {
        ctx.set("exec.twin_bytes", bytes as f64);
        ctx.set("exec.depth_after", depth as f64);
    }
    if spec.edits.is_some() && edit_batches == 0 {
        fatal("the run ended before its first edit batch");
    }
}

/// Re-lowers the served image's specialized twin under the profile its
/// served batches left (`take_profile` + `CompiledFdd::specialize`) and
/// returns the time it took, or `None` when no batch has been profiled
/// yet. The engine choice stays the one elected after warm-up: the race
/// runs once, as a server would run it.
fn relower_twin(
    ctx: &mut Ctx,
    live: &LiveMatcher,
    req: u64,
    plans: &mut Vec<(usize, usize)>,
) -> Option<f64> {
    let image = live.load();
    let t = Instant::now();
    let plan = ctx.tr.time("exec.specialize", req, || {
        image
            .take_profile()
            .map(|p| image.specialize(&p))
            .transpose()
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let plan = ctx.op("specialize", plan)??;
    plans.push((plan.bytes, plan.depth_after));
    Some(ms)
}

fn cache_counts(live: &LiveMatcher) -> (u64, u64, u64) {
    live.cache_stats()
        .map_or((0, 0, 0), |s| (s.hits, s.misses, s.evicted))
}

/// Traced run only: the batch again through the uncached engine (for the
/// engine's own cost) and through a shadow cache front end (for the probe
/// cost), both checked against the served verdicts.
#[allow(clippy::too_many_arguments)]
fn traced_batch(
    ctx: &mut Ctx,
    live: &LiveMatcher,
    sh: &mut Shadow,
    batch: &PacketBatch,
    req: u64,
    scratch: &mut EngineScratch,
    served: &[Decision],
    out: &mut Vec<Decision>,
) {
    let (image, fdd) = live.load_pair();
    let choice = live.engine_choice();
    let engine = choice.uncached();
    let t = Instant::now();
    let res = ctx.tr.time("exec.engine", req, || {
        engine.classify_into(&image, Some(&fdd), None, batch, scratch, out)
    });
    let engine_ns = t.elapsed().as_nanos() as f64;
    ctx.op("engine", res);
    if out.as_slice() != served {
        wrong("uncached engine disagrees with the served batch");
    }
    ctx.add("exec.engine_ns_total", engine_ns);
    ctx.add("exec.engine_pkts", batch.len() as f64);
    if !choice.cached {
        return;
    }
    let misses0 = sh.cache.stats().misses;
    let t = Instant::now();
    let res = ctx.tr.time("exec.cache", req, || {
        choice.classify_cached_into(&image, Some(&fdd), batch, &mut sh.cache, scratch, out)
    });
    let cached_ns = t.elapsed().as_nanos() as f64;
    ctx.op("cached engine", res);
    if out.as_slice() != served {
        wrong("shadow cache front end disagrees with the served batch");
    }
    // Probe cost = the cached pass minus what its misses cost the engine.
    let misses = (sh.cache.stats().misses - misses0) as f64;
    let per_pkt = engine_ns / batch.len().max(1) as f64;
    ctx.add(
        "exec.probe_ns_total",
        (cached_ns - misses * per_pkt).max(0.0),
    );
    ctx.add("exec.probe_pkts", batch.len() as f64);
}

/// A full rebuild and compile of `policy`, sharing no state with the
/// incremental path: the reference every published image is checked
/// against.
fn fresh_compile(policy: &Firewall) -> CompiledFdd {
    MaintainedFdd::new(policy.clone())
        .and_then(|m| m.to_fdd())
        .map_err(fw_exec::ExecError::from)
        .and_then(|fdd| CompiledFdd::compile(&fdd))
        .unwrap_or_else(|e| wrong(format!("edited policy does not compile fresh: {e}")))
}

/// One edit batch: the single `apply_edits` call (timed), then the
/// checks: the served policy must be `expected`, the policy the edits
/// describe, and the published image must decide as a fresh compile of
/// `expected` (`fresh`, when the caller already holds it). In the traced
/// run the composed pipeline follows. Returns whether the batch applied.
#[allow(clippy::too_many_arguments)]
fn edit_step(
    ctx: &mut Ctx,
    live: &LiveMatcher,
    edits: &[Edit],
    expected: &Firewall,
    req: u64,
    shadow: Option<&mut Shadow>,
    probe: &[Packet],
    fresh: Option<&CompiledFdd>,
) -> bool {
    let span = ctx.tr.enter("exec.apply", req);
    let t = Instant::now();
    let res = live.apply_edits(edits);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tr.exit(span);
    let Some(report) = ctx.op("apply_edits", res) else {
        return false;
    };
    ctx.publish_ms.push(ms);
    if live.policy() != *expected {
        wrong(format!(
            "edit batch {req} left a policy other than the one its edits describe"
        ));
    }
    ctx.add("core.maintain_prepends", report.maintain.prepends as f64);
    ctx.add("core.edit_batches", 1.0);
    if report.maintain.plan == BatchPlan::FullRebuild {
        ctx.add("core.full_rebuilds", 1.0);
    }
    if let Some(rc) = &report.recompile {
        ctx.add("exec.nodes_fresh", rc.nodes_fresh as f64);
    }
    if let Some(inv) = &report.cache {
        ctx.add("exec.invalidated", inv.invalidated as f64);
    }
    let rebuilt;
    let fresh = match fresh {
        Some(image) => image,
        None => {
            rebuilt = fresh_compile(expected);
            &rebuilt
        }
    };
    same_image(
        &live.load(),
        fresh,
        probe,
        "published image vs fresh compile",
    );

    let Some(sh) = shadow else {
        return true;
    };
    let composed = ctx.tr.enter("composed.apply", req);
    let res = ctx.tr.time("core.maintain", req, || {
        sh.maintained.apply_edits_with_stats(edits)
    });
    let Some((impact, _)) = ctx.op("apply_edits_with_stats", res) else {
        ctx.tr.exit(composed);
        return true;
    };
    if !impact.is_noop() {
        let fdd = ctx.tr.time("core.export", req, || sh.maintained.to_fdd());
        let image = &sh.image;
        let next = fdd.ok().and_then(|fdd| {
            ctx.tr
                .time("exec.recompile", req, || image.recompile(&fdd, &impact))
                .ok()
        });
        match next {
            Some((next, _)) => sh.image = next,
            None => wrong("composed recompile failed where apply_edits succeeded"),
        }
        let cache = &mut sh.cache;
        ctx.tr
            .time("exec.invalidate", req, || cache.invalidate(&impact));
    }
    ctx.tr.exit(composed);
    same_image(
        &sh.image,
        &live.load(),
        probe,
        "composed edit vs apply_edits",
    );
    true
}
