//! `fwfleet` — build, serve, edit and persist a multi-tenant fleet of
//! firewall policies through the `fw-fleet` registry; the command-line
//! face of cross-tenant structural sharing.
//!
//! ```text
//! USAGE:
//!     fwfleet [--schema tcp-ip|paper] [--rules N | <policy.fw>]
//!             [--tenants N] [--percent X] [--seed S]
//!             [--random N] [--verify] [--cache CAP]
//!             [--tenant T --edits FILE]
//!             [--save-dir DIR | --load-dir DIR]
//!
//! FLEET SOURCE (default: synthesize):
//!     <policy.fw>     base policy file in the fw_model rule DSL
//!     --rules N       synthesize an N-rule base policy instead (default 100)
//!     --tenants N     fleet size: N perturbed variants of the base
//!                     (default 64; Fig. 12 perturbation per tenant)
//!     --percent X     perturbation strength in percent (default 5)
//!     --seed S        seed for base synthesis and fleet perturbation
//!                     (default 1)
//!     --load-dir DIR  restore a fleet persisted by --save-dir instead of
//!                     synthesizing one (full revalidation + cross-check)
//!
//! SERVING:
//!     --random N      classify N random packets round-robin across all
//!                     tenants through the shared registry, reporting
//!                     aggregate throughput
//!     --verify        also check every decision against the tenant's
//!                     standalone first-match scan
//!     --cache CAP     enable the per-shard decision cache (CAP entries per
//!                     shard) before serving: the --random trace is then
//!                     served as one batch per tenant through the cached
//!                     route, twice — an untimed fill round, then the timed
//!                     warm round — and dedup'd tenants on the same shard
//!                     share warm entries. Prints the aggregated cache
//!                     stats (hits/misses/invalidations/hit rate), and an
//!                     edit receipt's exact-invalidation report when
//!                     --edits runs with the cache on
//!
//! EDITS:
//!     --tenant T      tenant id for --edits
//!     --edits FILE    apply the file's edit batch to tenant T through the
//!                     maintained path and print the receipt (epoch,
//!                     affected packets, batch plan, content dedup). Lines
//!                     are `insert IDX RULE`, `replace IDX RULE`,
//!                     `remove IDX`, `swap I J`; `#` comments skipped.
//!
//! PERSISTENCE:
//!     --save-dir DIR  persist the fleet: manifest + one .rules file per
//!                     distinct policy (content-addressed)
//! ```
//!
//! Always printed: registry occupancy (tenants, distinct policies after
//! content dedup, arena/pool nodes, interned rules) and approximate bytes
//! per tenant — the number that shows what structural sharing buys over
//! one independent matcher per tenant.

use std::process::ExitCode;
use std::time::Instant;

use diverse_firewall::core::Edit;
use diverse_firewall::fleet::{load_fleet, save_fleet, PolicyRegistry, TenantId};
use diverse_firewall::model::{Firewall, Schema};
use diverse_firewall::synth::{perturb_fleet, PacketTrace, Synthesizer};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fwfleet [--schema tcp-ip|paper] [--rules N | <policy.fw>] \
         [--tenants N] [--percent X] [--seed S] [--random N] [--verify] \
         [--cache CAP] [--tenant T --edits FILE] \
         [--save-dir DIR | --load-dir DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut schema = Schema::tcp_ip();
    let mut rules = 100usize;
    let mut tenants = 64usize;
    let mut percent = 5u32;
    let mut seed = 1u64;
    let mut random: Option<usize> = None;
    let mut verify = false;
    let mut cache_capacity = 0usize;
    let mut tenant: Option<u64> = None;
    let mut edits_file: Option<String> = None;
    let mut save_dir: Option<String> = None;
    let mut load_dir: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("tcp-ip") => schema = Schema::tcp_ip(),
                Some("paper") => schema = Schema::paper_example(),
                other => {
                    eprintln!("fwfleet: unknown schema {other:?}");
                    return usage();
                }
            },
            "--rules" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => rules = n,
                _ => {
                    eprintln!("fwfleet: --rules needs a positive integer");
                    return usage();
                }
            },
            "--tenants" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => tenants = n,
                _ => {
                    eprintln!("fwfleet: --tenants needs a positive integer");
                    return usage();
                }
            },
            "--percent" => match args.next().and_then(|n| n.parse().ok()) {
                Some(x) if x <= 100 => percent = x,
                _ => {
                    eprintln!("fwfleet: --percent needs an integer in 0..=100");
                    return usage();
                }
            },
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("fwfleet: --seed needs an integer");
                    return usage();
                }
            },
            "--random" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => random = Some(n),
                None => {
                    eprintln!("fwfleet: --random needs a packet count");
                    return usage();
                }
            },
            "--verify" => verify = true,
            "--cache" => match args.next().and_then(|n| n.parse().ok()) {
                Some(c) if c >= 1 => cache_capacity = c,
                _ => {
                    eprintln!("fwfleet: --cache needs a positive entry capacity");
                    return usage();
                }
            },
            "--tenant" => match args.next().and_then(|n| n.parse().ok()) {
                Some(t) => tenant = Some(t),
                None => {
                    eprintln!("fwfleet: --tenant needs an integer id");
                    return usage();
                }
            },
            "--edits" => match args.next() {
                Some(f) => edits_file = Some(f),
                None => return usage(),
            },
            "--save-dir" => match args.next() {
                Some(d) => save_dir = Some(d),
                None => return usage(),
            },
            "--load-dir" => match args.next() {
                Some(d) => load_dir = Some(d),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("fwfleet: multi-tenant fleet serving over a shared policy registry");
                return usage();
            }
            _ if arg.starts_with('-') => {
                eprintln!("fwfleet: unknown flag {arg}");
                return usage();
            }
            _ => files.push(arg),
        }
    }
    if files.len() > 1 {
        return usage();
    }

    // Build or restore the fleet.
    let registry = if let Some(dir) = &load_dir {
        let t = Instant::now();
        match load_fleet(std::path::Path::new(dir)) {
            Ok(r) => {
                println!(
                    "restored fleet from {dir} in {:?} (revalidated)",
                    t.elapsed()
                );
                r
            }
            Err(e) => {
                eprintln!("fwfleet: {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let base: Firewall = if let Some(path) = files.first() {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fwfleet: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Firewall::parse(schema.clone(), &text) {
                Ok(fw) => fw,
                Err(e) => {
                    eprintln!("fwfleet: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let mut synth = Synthesizer::new(seed);
            if schema != Schema::tcp_ip() {
                eprintln!("fwfleet: --schema paper requires a policy file (synthesis is tcp-ip)");
                return usage();
            }
            synth.firewall(rules)
        };
        let fleet = perturb_fleet(&base, tenants, percent, seed);
        let registry = PolicyRegistry::new();
        let t = Instant::now();
        for (i, fw) in fleet.iter().enumerate() {
            if let Err(e) = registry.add_tenant(TenantId(i as u64), fw.clone()) {
                eprintln!("fwfleet: adding tenant {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = registry.maintenance() {
            eprintln!("fwfleet: maintenance: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "built fleet: {} tenants x {}-rule base, {percent}% perturbation, in {:?}",
            fleet.len(),
            base.len(),
            t.elapsed()
        );
        registry
    };

    if cache_capacity > 0 {
        if let Err(e) = registry.enable_cache(cache_capacity) {
            eprintln!("fwfleet: --cache: {e}");
            return ExitCode::FAILURE;
        }
        println!("decision cache enabled: {cache_capacity} entr(ies) per shard");
    }

    let stats = registry.stats();
    println!(
        "registry: {} tenants, {} distinct policies, {} shard(s) | arena {} nodes \
         ({} live), pool {} compiled nodes, {} interned rules | ~{} KiB total, \
         ~{} B/tenant",
        stats.tenants,
        stats.distinct_policies,
        stats.shards,
        stats.arena_nodes,
        stats.arena_live_nodes,
        stats.pool_nodes,
        stats.distinct_rules,
        stats.approx_bytes / 1024,
        stats.bytes_per_tenant()
    );

    // Round-robin serving across the whole fleet.
    if let Some(n) = random {
        let ids = registry.tenant_ids();
        let Some(first) = ids.first() else {
            eprintln!("fwfleet: fleet is empty");
            return ExitCode::FAILURE;
        };
        let schema = match registry.policy(*first) {
            Ok(fw) => fw.schema().clone(),
            Err(e) => {
                eprintln!("fwfleet: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = PacketTrace::random(schema.clone(), n, seed);
        let mut counts = vec![0usize; diverse_firewall::model::Decision::ALL.len()];
        if cache_capacity > 0 {
            // Cached serving is batched: the same trace goes to every
            // tenant as one batch, so dedup'd tenants on a shard hit the
            // entries their siblings filled.
            let batch =
                match diverse_firewall::exec::PacketBatch::from_trace(schema, trace.packets()) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("fwfleet: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            let mut out = Vec::new();
            // Untimed fill round: the timed round below then measures warm
            // serving, the steady state of a long-lived flow cache.
            for tenant in &ids {
                if let Err(e) = registry.classify_batch_into(*tenant, &batch, &mut out) {
                    eprintln!("fwfleet: filling cache for {tenant}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            registry.reset_cache_stats();
            let t = Instant::now();
            for tenant in &ids {
                if let Err(e) = registry.classify_batch_into(*tenant, &batch, &mut out) {
                    eprintln!("fwfleet: serving {tenant}: {e}");
                    return ExitCode::FAILURE;
                }
                for d in &out {
                    counts[d.code() as usize] += 1;
                }
            }
            let elapsed = t.elapsed();
            let total = n * ids.len();
            for d in diverse_firewall::model::Decision::ALL {
                println!("{d}: {} packet(s)", counts[d.code() as usize]);
            }
            println!(
                "served {total} packets ({n} per tenant, warm) through the cached route \
                 across {} tenants in {elapsed:?} ({:.2} Mpps aggregate)",
                ids.len(),
                total as f64 / elapsed.as_secs_f64() / 1e6
            );
            if let Some(s) = registry.cache_stats() {
                println!(
                    "cache: {} hit(s), {} miss(es), {} insertion(s), {} invalidated, \
                     {} evicted | hit rate {:.1}%",
                    s.hits,
                    s.misses,
                    s.insertions,
                    s.invalidated,
                    s.evicted,
                    100.0 * s.hit_rate()
                );
            }
            if verify {
                for tenant in &ids {
                    let fw = registry.policy(*tenant).expect("listed tenant");
                    registry
                        .classify_batch_into(*tenant, &batch, &mut out)
                        .expect("served above");
                    for (p, got) in trace.packets().iter().zip(&out) {
                        let want = fw.decision_for(p).expect("comprehensive policy");
                        if *got != want {
                            eprintln!(
                                "fwfleet: BUG: cached registry disagrees with first-match \
                                 for {tenant}"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                println!("verify: cached registry == first-match scan on all {total} packets");
            }
        } else {
            let t = Instant::now();
            for (i, p) in trace.packets().iter().enumerate() {
                let tenant = ids[i % ids.len()];
                match registry.classify(tenant, p) {
                    Ok(d) => counts[d.code() as usize] += 1,
                    Err(e) => {
                        eprintln!("fwfleet: classifying packet {i} for {tenant}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let elapsed = t.elapsed();
            for d in diverse_firewall::model::Decision::ALL {
                println!("{d}: {} packet(s)", counts[d.code() as usize]);
            }
            println!(
                "served {n} packets round-robin across {} tenants in {elapsed:?} \
                 ({:.2} Mpps aggregate)",
                ids.len(),
                n as f64 / elapsed.as_secs_f64() / 1e6
            );
            if verify {
                for (i, p) in trace.packets().iter().enumerate() {
                    let tenant = ids[i % ids.len()];
                    let fw = registry.policy(tenant).expect("listed tenant");
                    let want = fw.decision_for(p).expect("comprehensive policy");
                    let got = registry.classify(tenant, p).expect("served above");
                    if got != want {
                        eprintln!("fwfleet: BUG: registry disagrees with first-match for {tenant}");
                        return ExitCode::FAILURE;
                    }
                }
                println!("verify: registry == first-match scan on all {n} packets");
            }
        }
    }

    // Per-tenant edit batch through the maintained path.
    match (&edits_file, tenant) {
        (Some(path), Some(t_id)) => {
            let tenant = TenantId(t_id);
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fwfleet: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let schema = match registry.policy(tenant) {
                Ok(fw) => fw.schema().clone(),
                Err(e) => {
                    eprintln!("fwfleet: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let edits = match parse_edits(&schema, &text) {
                Ok(e) => e,
                Err(m) => {
                    eprintln!("fwfleet: {path}: {m}");
                    return ExitCode::FAILURE;
                }
            };
            let t = Instant::now();
            match registry.apply_edits(tenant, &edits) {
                Ok(r) => {
                    println!(
                        "edited {tenant}: {} edit(s) as one {:?} batch in {:?} | swapped: {} \
                         (epoch {}), {} affected packet(s), {} corridor(s) spanning {} | \
                         content dedup onto existing policy: {}",
                        edits.len(),
                        r.maintain.plan,
                        t.elapsed(),
                        r.swapped,
                        r.epoch,
                        r.affected_packets,
                        r.maintain.corridors,
                        r.maintain.corridor_span,
                        r.merged
                    );
                    if let Some(inv) = &r.cache {
                        println!(
                            "cache invalidation: {:?} arm, {} entr(ies) dropped of {} resident",
                            inv.plan, inv.invalidated, inv.resident
                        );
                    } else if cache_capacity > 0 {
                        println!(
                            "cache invalidation: none needed (pre-edit policy still served \
                             elsewhere or function unchanged)"
                        );
                    }
                    let stats = registry.stats();
                    println!(
                        "registry after edit: {} distinct policies, arena {} nodes ({} live)",
                        stats.distinct_policies, stats.arena_nodes, stats.arena_live_nodes
                    );
                }
                Err(e) => {
                    eprintln!("fwfleet: editing {tenant}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (Some(_), None) => {
            eprintln!("fwfleet: --edits needs --tenant");
            return usage();
        }
        (None, Some(_)) => {
            eprintln!("fwfleet: --tenant needs --edits");
            return usage();
        }
        (None, None) => {}
    }

    if let Some(dir) = &save_dir {
        let t = Instant::now();
        if let Err(e) = save_fleet(&registry, std::path::Path::new(dir)) {
            eprintln!("fwfleet: saving to {dir}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "saved fleet to {dir} in {:?} ({} distinct policies persisted once each)",
            t.elapsed(),
            registry.stats().distinct_policies
        );
    }
    ExitCode::SUCCESS
}

/// Parses an edit file: `insert IDX RULE`, `replace IDX RULE`,
/// `remove IDX`, `swap I J`; blank lines and `#` comments skipped.
/// Same format as `fwclass --edits`.
fn parse_edits(schema: &Schema, text: &str) -> Result<Vec<Edit>, String> {
    let mut edits = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("edits line {}: {m}", lineno + 1);
        let (op, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(format!("`{line}` has no operand")))?;
        let rest = rest.trim();
        let index = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| err(format!("bad index `{s}`")))
        };
        match op {
            "insert" | "replace" => {
                let (idx, rule_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(format!("{op} needs an index and a rule")))?;
                let index = index(idx)?;
                let rule = diverse_firewall::model::parse::parse_rule(schema, rule_text.trim())
                    .map_err(|e| err(e.to_string()))?;
                edits.push(if op == "insert" {
                    Edit::Insert { index, rule }
                } else {
                    Edit::Replace { index, rule }
                });
            }
            "remove" => edits.push(Edit::Remove {
                index: index(rest)?,
            }),
            "swap" => {
                let (a, b) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("swap needs two indices".into()))?;
                edits.push(Edit::Swap {
                    first: index(a.trim())?,
                    second: index(b.trim())?,
                });
            }
            other => return Err(err(format!("unknown edit `{other}`"))),
        }
    }
    Ok(edits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_edits_matches_the_fwclass_format() {
        let schema = Schema::tcp_ip();
        let text = "\
# fork tenant 3 away from the golden policy
insert 0 sport=80 -> discard
remove 2
swap 0 1
";
        let edits = parse_edits(&schema, text).unwrap();
        assert_eq!(edits.len(), 3);
        assert!(matches!(edits[0], Edit::Insert { index: 0, .. }));
        assert!(matches!(edits[1], Edit::Remove { index: 2 }));
        assert!(matches!(
            edits[2],
            Edit::Swap {
                first: 0,
                second: 1
            }
        ));
        assert!(parse_edits(&schema, "widen 0\n")
            .unwrap_err()
            .contains("unknown edit"));
    }

    #[test]
    fn synthesized_fleet_round_trips_through_the_registry() {
        let base = Synthesizer::new(3).firewall(40);
        let fleet = perturb_fleet(&base, 6, 10, 3);
        let registry = PolicyRegistry::new();
        for (i, fw) in fleet.iter().enumerate() {
            registry.add_tenant(TenantId(i as u64), fw.clone()).unwrap();
        }
        let trace = PacketTrace::random(base.schema().clone(), 200, 9);
        for (i, p) in trace.packets().iter().enumerate() {
            let tenant = TenantId((i % fleet.len()) as u64);
            assert_eq!(
                registry.classify(tenant, p).unwrap(),
                fleet[i % fleet.len()].decision_for(p).unwrap()
            );
        }
    }
}
