//! The `fleet` workload: one `PolicyRegistry` of perturbed tenants with a
//! decision cache per shard. Tenants take turns receiving Zipf batches
//! (one closed-loop client, round robin), and an edit to one tenant
//! lands every `edit_every` batches.

use std::time::Instant;

use fw_exec::CompiledFdd;
use fw_fleet::{PolicyRegistry, TenantId};
use fw_model::{Decision, Firewall, Packet, Schema};

use crate::common::{
    check_all, check_sample, edit_and_rollback, fatal, rotation, to_batch, wrong, Ctx, Novelty,
    Traffic, CACHE_CAPACITY,
};

pub struct Spec {
    pub base_text: String,
    pub schema: Schema,
    pub tenants: usize,
    pub rotation_batches: usize,
    pub edit_every: usize,
    pub setup_reps: u64,
}

/// Packets per served batch.
const BATCH: usize = 256;

/// Share of rules each tenant's policy perturbs, in percent.
const PERCENT: u32 = 5;

/// Registry cold start: every tenant's text → parse → `add_tenant`, the
/// caches on, and tenant 0's first decision.
fn setup(
    ctx: &mut Ctx,
    spec: &Spec,
    texts: &[String],
    rep: u64,
    first: &[Packet],
) -> (PolicyRegistry, Vec<Firewall>) {
    let batch = to_batch(&spec.schema, first);
    let mut out = Vec::new();
    let mut mirror = Vec::with_capacity(texts.len());
    let t0 = Instant::now();
    let root = ctx.tr.enter("setup", rep);
    let registry = PolicyRegistry::new();
    for (t, text) in texts.iter().enumerate() {
        let fw = ctx
            .tr
            .time("model.parse", t as u64, || {
                Firewall::parse(spec.schema.clone(), text)
            })
            .unwrap_or_else(|e| fatal(format!("tenant text does not parse: {e}")));
        let added = ctx.tr.time("fleet.add_tenant", t as u64, || {
            registry.add_tenant(TenantId(t as u64), fw.clone())
        });
        ctx.op("add_tenant", added);
        mirror.push(fw);
    }
    registry
        .enable_cache(CACHE_CAPACITY)
        .unwrap_or_else(|e| fatal(format!("enable_cache: {e}")));
    let served = ctx.tr.time("fleet.classify", rep, || {
        registry.classify_batch_into(TenantId(0), &batch, &mut out)
    });
    ctx.op("first decision", served);
    ctx.tr.exit(root);
    ctx.setup_s.push(t0.elapsed().as_secs_f64());
    check_all(&mirror[0], first, &out, "tenant 0 first decision");
    (registry, mirror)
}

pub fn run(ctx: &mut Ctx, spec: &Spec, seed: u64, seconds: f64) {
    let base = Firewall::parse(spec.schema.clone(), &spec.base_text)
        .unwrap_or_else(|e| fatal(format!("base policy does not parse: {e}")));
    let texts: Vec<String> = fw_synth::perturb_fleet(&base, spec.tenants, PERCENT, seed)
        .iter()
        .map(Firewall::to_dsl)
        .collect();
    let gen = |r: u64| rotation(Traffic::Zipf, &base, spec.rotation_batches, BATCH, seed, r);
    let warm = gen(0);
    let mut built = None;
    for rep in 0..spec.setup_reps.max(1) {
        drop(built.take());
        built = Some(setup(ctx, spec, &texts, rep, warm.rows_of(0)));
    }
    let (registry, mut mirror) = built.expect("at least one set-up");
    let originals = mirror.clone();
    let probe = fw_synth::PacketTrace::biased(&base, 256, 0.3, seed ^ 0x5EED)
        .packets()
        .to_vec();
    let probe_batch = to_batch(&spec.schema, &probe);

    let mut novelty = Novelty::new();
    let mut out: Vec<Decision> = Vec::new();
    let tenants = spec.tenants as u64;
    // Warm-up: one rotation, tenants in turn.
    novelty.observe(warm.rows());
    for (b, batch) in warm.batches.iter().enumerate() {
        let t = b as u64 % tenants;
        let res = registry.classify_batch_into(TenantId(t), batch, &mut out);
        if ctx.op("serve", res).is_some() {
            check_sample(&mirror[t as usize], warm.rows_of(b), &out, "warm-up batch");
        }
    }
    novelty.close("warm-up", ctx);
    drop(warm);

    let stats0 = registry.cache_stats().unwrap_or_default();
    let choice = registry.engine_choice();
    let start = Instant::now();
    let mut served = 0u64;
    let mut edits = 0u64;
    // The edited tenant and its pending rollback.
    let mut undo: Option<(u64, Vec<fw_core::Edit>)> = None;
    let mut r = 1u64;
    'run: while start.elapsed().as_secs_f64() < seconds {
        let rot = gen(r);
        novelty.observe(rot.rows());
        for (b, batch) in rot.batches.iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
            if served % spec.edit_every as u64 == spec.edit_every as u64 - 1 {
                // A tenant edit, then its rollback; edits walk the tenants
                // with a stride coprime to the fleet size, so they spread
                // over distinct policies.
                let (t, batch_edits, expected) = match undo.take() {
                    Some((t, rollback)) => (t, rollback, originals[t as usize].clone()),
                    None => {
                        let t = (edits / 2).wrapping_mul(7919) % tenants;
                        let base = &originals[t as usize];
                        let pair = edit_and_rollback(base, 1, edits / 2, seed ^ (edits << 20));
                        undo = Some((t, pair.rollback));
                        (t, pair.forward, pair.after)
                    }
                };
                let applied = edit(
                    ctx,
                    &registry,
                    t,
                    &batch_edits,
                    &expected,
                    edits,
                    &probe,
                    &probe_batch,
                );
                if applied {
                    mirror[t as usize] = expected;
                }
                edits += 1;
            }
            let t = served % tenants;
            let span = ctx.tr.enter("fleet.classify", served);
            let clock = Instant::now();
            let res = registry.classify_batch_into(TenantId(t), batch, &mut out);
            let ns = clock.elapsed().as_nanos();
            ctx.tr.exit(span);
            served += 1;
            if ctx.op("serve", res).is_some() {
                ctx.served(batch.len(), ns, &choice);
                check_sample(&mirror[t as usize], rot.rows_of(b), &out, "tenant batch");
            }
        }
        r += 1;
    }
    novelty.close("timed", ctx);
    if edits == 0 {
        fatal("the run ended before its first tenant edit");
    }
    let stats = registry.stats();
    let cache = registry.cache_stats().unwrap_or_default();
    let (hits, misses) = (cache.hits - stats0.hits, cache.misses - stats0.misses);
    ctx.set(
        "fleet.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    ctx.set("fleet.bytes_per_tenant", stats.bytes_per_tenant() as f64);
    ctx.set("fleet.distinct_policies", stats.distinct_policies as f64);
}

/// One tenant edit batch, timed, then checked: the tenant's policy must
/// be `expected`, the policy the edits describe, and its served verdicts
/// on a probe trace must match a fresh compile of `expected`. Returns
/// whether the batch applied.
#[allow(clippy::too_many_arguments)]
fn edit(
    ctx: &mut Ctx,
    registry: &PolicyRegistry,
    t: u64,
    edits: &[fw_core::Edit],
    expected: &Firewall,
    n: u64,
    probe: &[Packet],
    probe_batch: &fw_exec::PacketBatch,
) -> bool {
    let span = ctx.tr.enter("fleet.edit", n);
    let clock = Instant::now();
    let res = registry.apply_edits(TenantId(t), edits);
    let ms = clock.elapsed().as_secs_f64() * 1e3;
    ctx.tr.exit(span);
    if ctx.op("tenant edit", res).is_none() {
        return false;
    }
    ctx.publish_ms.push(ms);
    let policy = registry
        .policy(TenantId(t))
        .unwrap_or_else(|e| wrong(format!("edited tenant vanished: {e}")));
    if policy != *expected {
        wrong(format!(
            "tenant {t} after edit {n}: policy other than the one its edits describe"
        ));
    }
    let fresh = CompiledFdd::from_firewall(expected)
        .unwrap_or_else(|e| wrong(format!("edited tenant policy does not compile: {e}")));
    let served = registry
        .classify_batch(TenantId(t), probe_batch)
        .unwrap_or_else(|e| wrong(format!("edited tenant does not serve: {e}")));
    for (p, d) in probe.iter().zip(&served) {
        if fresh.classify(p) != *d {
            wrong(format!("tenant {t} after edit {n}: {p:?} served {d:?}"));
        }
    }
    true
}
