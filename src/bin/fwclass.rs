//! `fwclass` — compile a firewall policy into the flat `fw-exec` matcher
//! and replay a packet trace through it; the command-line face of the
//! compiled classification runtime.
//!
//! ```text
//! USAGE:
//!     fwclass [--schema tcp-ip|paper] [--format dsl|iptables]
//!             [--trace FILE | --random N | --biased N | --zipf N]
//!             [--scatter F] [--zipf-s S] [--seed S]
//!             [--threads T] [--cache CAP]
//!             [--save-trace FILE] [--save-compiled FILE]
//!             [--edits FILE] [--check] [--profile] <policy.fw>
//!
//! ENGINE:
//!     The replay runs through the calibrated engine: every candidate (the
//!     FDD walk, the lane kernel at each width × thread count) races over
//!     a sample of the trace, each trial and the winner are printed, and
//!     the whole trace replays through the winner.
//!     --threads T       top of the calibrator's thread ladder (default 1;
//!                       0 means every available core)
//!     --cache CAP       front the replay with a CAP-entry decision cache:
//!                       hits serve from the cache, misses go through the
//!                       calibrated engine and are inserted back. The
//!                       calibrator races a `cache+` arm too. The timed
//!                       replay runs warm (an untimed fill pass precedes
//!                       it) and a cache stats line (hits/misses/hit rate)
//!                       prints after it
//!
//! TRACE SOURCE (default --random 100000):
//!     --trace FILE    replay a trace file written by --save-trace (or the
//!                     bench harness) instead of synthesizing one
//!     --random N      N uniformly random packets over the schema
//!     --biased N      N packets biased toward the policy's rule regions
//!     --zipf N        N packets drawn Zipf-style from a pool of repeated
//!                     flows — the skewed shape the decision cache exists
//!                     for
//!     --scatter F     per-field re-randomisation probability for --biased
//!                     (default 0.3)
//!     --zipf-s S      Zipf exponent for --zipf (default 1.0)
//!     --seed S        RNG seed for synthesized traces (default 1)
//!
//! OUTPUT:
//!     compiler stats (nodes, arena bytes, max depth), per-decision packet
//!     counts, and throughput for the compiled matcher vs the O(n·d)
//!     linear first-match scan
//!
//!     --check         also replay via the plain FDD walk and verify it,
//!                     the linear scan and the compiled matcher agree on
//!                     every packet of the trace
//!     --profile       replay the trace once more through the instrumented
//!                     walk, print the hot-node / hot-cut heat report
//!                     (visit counts per node, hit histograms per cut
//!                     span), then build the profile-guided specialized
//!                     image and print its plan — fused chains, quantized
//!                     jump tables, hybrid hot-cut prefixes, depth
//!                     before/after — verifying the specialized image
//!                     agrees with the linear scan on every trace packet
//!     --save-trace    write the replayed trace for later runs
//!     --save-compiled write the compiled matcher's wire image
//!
//! EDIT REPLAY:
//!     --edits FILE    after the trace replay, apply the file's policy edits
//!                     one at a time, timing a full recompile
//!                     (CompiledFdd::from_firewall) against the incremental
//!                     splice (CompiledFdd::recompile) for each and
//!                     verifying both agree on the whole trace; then apply
//!                     the whole file again as ONE coalesced batch and
//!                     report the sweep's plan and corridor stats. Lines
//!                     are `insert IDX RULE`, `replace IDX RULE`,
//!                     `remove IDX`, `swap I J` (RULE in the fw_model rule
//!                     DSL); blank lines and `#` comments are skipped.
//! ```
//!
//! Policy files use the rule DSL of `fw_model::parse` or `iptables-save`
//! output with `--format iptables`, exactly as `fwdiff`.

use std::process::ExitCode;
use std::time::Instant;

use diverse_firewall::exec::CompiledFdd;
use diverse_firewall::model::{Decision, Firewall, Schema};
use diverse_firewall::synth::PacketTrace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fwclass [--schema tcp-ip|paper] [--format dsl|iptables] \
         [--trace FILE | --random N | --biased N | --zipf N] [--scatter F] \
         [--zipf-s S] [--seed S] [--threads T] [--cache CAP] [--save-trace FILE] \
         [--save-compiled FILE] [--edits FILE] [--check] [--profile] <policy.fw>"
    );
    ExitCode::from(2)
}

enum TraceSource {
    Random(usize),
    Biased(usize),
    Zipf(usize),
    File(String),
}

fn main() -> ExitCode {
    let mut schema = Schema::tcp_ip();
    let mut iptables = false;
    let mut source = TraceSource::Random(100_000);
    let mut scatter = 0.3f64;
    let mut zipf_s = 1.0f64;
    let mut seed = 1u64;
    let mut threads = 1usize;
    let mut cache_capacity = 0usize;
    let mut save_trace: Option<String> = None;
    let mut save_compiled: Option<String> = None;
    let mut edits_file: Option<String> = None;
    let mut check = false;
    let mut profile_heat = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("tcp-ip") => schema = Schema::tcp_ip(),
                Some("paper") => schema = Schema::paper_example(),
                other => {
                    eprintln!("fwclass: unknown schema {other:?}");
                    return usage();
                }
            },
            "--format" => match args.next().as_deref() {
                Some("dsl") => iptables = false,
                Some("iptables") => {
                    iptables = true;
                    schema = Schema::tcp_ip();
                }
                other => {
                    eprintln!("fwclass: unknown format {other:?}");
                    return usage();
                }
            },
            "--trace" => match args.next() {
                Some(f) => source = TraceSource::File(f),
                None => return usage(),
            },
            "--random" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Random(n),
                None => {
                    eprintln!("fwclass: --random needs a packet count");
                    return usage();
                }
            },
            "--biased" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Biased(n),
                None => {
                    eprintln!("fwclass: --biased needs a packet count");
                    return usage();
                }
            },
            "--zipf" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Zipf(n),
                None => {
                    eprintln!("fwclass: --zipf needs a packet count");
                    return usage();
                }
            },
            "--scatter" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => scatter = f,
                _ => {
                    eprintln!("fwclass: --scatter needs a probability in 0..=1");
                    return usage();
                }
            },
            "--zipf-s" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s >= 0.0 => zipf_s = s,
                _ => {
                    eprintln!("fwclass: --zipf-s needs a finite non-negative exponent");
                    return usage();
                }
            },
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("fwclass: --seed needs an integer");
                    return usage();
                }
            },
            "--threads" => match args.next().and_then(|n| n.parse().ok()) {
                Some(t) => threads = t,
                None => {
                    eprintln!("fwclass: --threads needs an integer (0 = all cores)");
                    return usage();
                }
            },
            "--cache" => match args.next().and_then(|n| n.parse().ok()) {
                Some(c) if c >= 1 => cache_capacity = c,
                _ => {
                    eprintln!("fwclass: --cache needs a positive entry capacity");
                    return usage();
                }
            },
            "--save-trace" => match args.next() {
                Some(f) => save_trace = Some(f),
                None => return usage(),
            },
            "--save-compiled" => match args.next() {
                Some(f) => save_compiled = Some(f),
                None => return usage(),
            },
            "--edits" => match args.next() {
                Some(f) => edits_file = Some(f),
                None => return usage(),
            },
            "--check" => check = true,
            "--profile" => profile_heat = true,
            "--help" | "-h" => {
                println!("fwclass: compiled packet classification over a policy file");
                return usage();
            }
            _ if arg.starts_with('-') => {
                eprintln!("fwclass: unknown flag {arg}");
                return usage();
            }
            _ => files.push(arg),
        }
    }
    let [policy_path] = files.as_slice() else {
        return usage();
    };

    let fw: Firewall = {
        let text = match std::fs::read_to_string(policy_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {policy_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = if iptables {
            diverse_firewall::model::iptables::parse(&text)
        } else {
            Firewall::parse(schema.clone(), &text)
        };
        match parsed {
            Ok(fw) => fw,
            Err(e) => {
                eprintln!("fwclass: {policy_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let schema = fw.schema().clone();

    let t = Instant::now();
    let compiled = match CompiledFdd::from_firewall(&fw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fwclass: compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compile_time = t.elapsed();
    let s = compiled.stats();
    println!(
        "compiled {} rules in {compile_time:?}: {} nodes ({} search, {} jump, {} terminal), \
         {} cut points, {} jump entries, {} arena bytes, depth <= {}, {} levels",
        fw.len(),
        s.nodes,
        s.search_nodes,
        s.jump_nodes,
        s.terminals,
        s.cut_points,
        s.jump_entries,
        s.arena_bytes,
        s.max_depth,
        s.levels
    );

    let trace = match &source {
        TraceSource::Random(n) => PacketTrace::random(schema.clone(), *n, seed),
        TraceSource::Biased(n) => PacketTrace::biased(&fw, *n, scatter, seed),
        TraceSource::Zipf(n) => {
            // Derive the flow-pool seed from the rank seed the same way
            // earlier revisions did internally, so `--zipf N --seed S`
            // reproduces the traces it always produced.
            PacketTrace::zipf(&fw, *n, zipf_s, seed, seed ^ 0x9e37_79b9_7f4a_7c15)
        }
        TraceSource::File(path) => match PacketTrace::read_from(schema.clone(), path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if trace.is_empty() {
        eprintln!("fwclass: empty trace");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &save_trace {
        if let Err(e) = trace.write_to(path) {
            eprintln!("fwclass: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote trace ({} packets) to {path}", trace.len());
    }
    if let Some(path) = &save_compiled {
        if let Err(e) = std::fs::write(path, &compiled.encode()[..]) {
            eprintln!("fwclass: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote compiled matcher to {path}");
    }

    // The batch is transposed up front; the transpose (with its one-pass
    // per-column validation) is deliberately outside the timed region, the
    // same way the bench harness amortises it over a replayed batch.
    let batch =
        match diverse_firewall::exec::PacketBatch::from_trace(schema.clone(), trace.packets()) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fwclass: trace does not fit the schema: {e}");
                return ExitCode::FAILURE;
            }
        };
    // The calibrator races every candidate over a trace sample before the
    // timed replay — calibration (and the FDD walk candidate's diagram) is
    // set-up cost, like the transpose above.
    let fdd = match diverse_firewall::core::Fdd::from_firewall_fast(&fw) {
        Ok(f) => f.reduced(),
        Err(e) => {
            eprintln!("fwclass: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A zero capacity makes this the plain `calibrate` race; with --cache
    // the `cache+` arm runs too and prints with the trials.
    let cal = match diverse_firewall::exec::calibrate_with_cache(
        &compiled,
        Some(&fdd),
        Some(trace.packets()),
        &batch,
        threads,
        cache_capacity,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fwclass: calibration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for t in &cal.trials {
        println!("  trial {:<14} {:7.2} Mpps", t.choice.to_string(), t.mpps);
    }
    println!("calibrated on {} packet(s): {}", cal.sample, cal.choice);
    let choice = cal.choice;

    let mut cache = if cache_capacity > 0 {
        match diverse_firewall::exec::DecisionCache::new(schema.clone(), cache_capacity) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("fwclass: --cache: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut decisions = Vec::new();
    let mut scratch = diverse_firewall::exec::EngineScratch::default();
    // With --cache, one untimed fill pass leaves the trace's distinct
    // tuples resident so the timed replay measures warm serving — the
    // steady state a long-lived flow cache actually runs in. The batch
    // front end partitions before inserting, so a cold pass can never hit
    // its own insertions and would only time the fill.
    let fill = match cache.as_mut() {
        Some(cache) => {
            let fill = choice.classify_cached_into(
                &compiled,
                Some(&fdd),
                &batch,
                cache,
                &mut scratch,
                &mut decisions,
            );
            cache.reset_stats();
            fill
        }
        None => Ok(()),
    };
    let t = Instant::now();
    let classified = fill.and_then(|()| match cache.as_mut() {
        Some(cache) => choice.classify_cached_into(
            &compiled,
            Some(&fdd),
            &batch,
            cache,
            &mut scratch,
            &mut decisions,
        ),
        None => choice.classify_into(
            &compiled,
            Some(&fdd),
            Some(trace.packets()),
            &batch,
            &mut scratch,
            &mut decisions,
        ),
    });
    if let Err(e) = classified {
        eprintln!("fwclass: classification failed: {e}");
        return ExitCode::FAILURE;
    }
    let compiled_time = t.elapsed();

    let t = Instant::now();
    let linear: Vec<Decision> = trace
        .packets()
        .iter()
        .map(|p| fw.decision_for(p).expect("validated trace packets match"))
        .collect();
    let linear_time = t.elapsed();

    let mut counts = [0usize; Decision::ALL.len()];
    for d in &decisions {
        counts[d.code() as usize] += 1;
    }
    for d in Decision::ALL {
        println!("{d}: {} packet(s)", counts[d.code() as usize]);
    }

    let mpps = |n: usize, secs: f64| n as f64 / secs / 1e6;
    let n = trace.len();
    // Cached serving is forced by --cache even when the calibrator's
    // `cache+` arm lost.
    let served = if cache.is_some() {
        choice.with_cache()
    } else {
        choice
    };
    let engine_label = format!("auto -> {served}");
    println!(
        "compiled matcher ({engine_label}): {compiled_time:?} ({:.2} Mpps, compile {:.0} µs) | \
         linear scan: {linear_time:?} ({:.2} Mpps) | speedup x{:.2}",
        mpps(n, compiled_time.as_secs_f64()),
        compile_time.as_secs_f64() * 1e6,
        mpps(n, linear_time.as_secs_f64()),
        linear_time.as_secs_f64() / compiled_time.as_secs_f64()
    );
    if let Some(cache) = &cache {
        let s = cache.stats();
        println!(
            "cache: {} slot(s), {} resident | {} hit(s), {} miss(es), {} insertion(s), \
             {} evicted | hit rate {:.1}%",
            cache.capacity(),
            cache.len(),
            s.hits,
            s.misses,
            s.insertions,
            s.evicted,
            100.0 * s.hit_rate()
        );
    }

    if decisions != linear {
        eprintln!("fwclass: BUG: compiled matcher ({engine_label}) disagrees with linear scan");
        return ExitCode::FAILURE;
    }
    if check {
        let t = Instant::now();
        let walked: Vec<Decision> = trace.packets().iter().map(|p| fdd.evaluate(p)).collect();
        let walk_time = t.elapsed();
        if walked != decisions {
            eprintln!("fwclass: BUG: FDD walk disagrees with compiled matcher");
            return ExitCode::FAILURE;
        }
        println!(
            "check: linear scan == FDD walk ({walk_time:?}, {:.2} Mpps) == compiled matcher \
             on all {n} packets",
            mpps(n, walk_time.as_secs_f64())
        );
    }

    if profile_heat {
        let mut profile = diverse_firewall::exec::Profile::new_for(&compiled);
        let mut profiled = Vec::new();
        if let Err(e) = compiled.classify_profiled_into(&batch, &mut profile, &mut profiled) {
            eprintln!("fwclass: --profile replay failed: {e}");
            return ExitCode::FAILURE;
        }
        if profiled != linear {
            eprintln!("fwclass: BUG: instrumented walk disagrees with linear scan");
            return ExitCode::FAILURE;
        }
        print!("{}", compiled.profile_report(&profile, 10));
        match compiled.specialize(&profile) {
            Ok(plan) => {
                println!("{plan}");
                let spec = compiled.spec().expect("specialize installs the twin");
                for (p, d) in trace.packets().iter().zip(&linear) {
                    if spec.classify(p) != *d {
                        eprintln!(
                            "fwclass: BUG: specialized image disagrees with linear scan at {p}"
                        );
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "specialized image verified against the linear scan on all {n} packets; \
                     depth <= {} (base {})",
                    spec.max_depth(),
                    s.max_depth
                );
            }
            Err(e) => {
                eprintln!("fwclass: specialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &edits_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let edits = match parse_edits(&schema, &text) {
            Ok(e) => e,
            Err(m) => {
                eprintln!("fwclass: {path}: {m}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(code) = replay_edits(&fw, &compiled, &trace, &edits) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Parses the `--edits` file: one edit per line (`insert IDX RULE`,
/// `replace IDX RULE`, `remove IDX`, `swap I J`), rules in the DSL of
/// `fw_model::parse`; blank lines and `#` comments skipped.
fn parse_edits(schema: &Schema, text: &str) -> Result<Vec<diverse_firewall::core::Edit>, String> {
    use diverse_firewall::core::Edit;
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

/// Applies each edit in sequence through a persistent [`MaintainedFdd`],
/// timing the maintained pipeline (patch + diff + export + splice)
/// against the full one (whole-policy impact + FDD rebuild + full
/// recompile) and verifying the spliced image agrees with a fresh compile
/// on the whole replay trace after every edit.
fn replay_edits(
    fw: &Firewall,
    compiled: &CompiledFdd,
    trace: &PacketTrace,
    edits: &[diverse_firewall::core::Edit],
) -> Result<(), ExitCode> {
    use diverse_firewall::core::{ChangeImpact, Fdd, MaintainedFdd};
    if edits.is_empty() {
        println!("edit replay: no edits in file");
        return Ok(());
    }
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let mut cur_fw = fw.clone();
    let mut cur_img = compiled.clone();
    // One chain for the whole replay, patched edit by edit — what a
    // LiveMatcher keeps between batches.
    let mut maintained = match MaintainedFdd::new(fw.clone()) {
        Ok(m) => m,
        Err(err) => {
            eprintln!("fwclass: building maintained FDD: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    let (mut full_out, mut inc_out) = (Vec::new(), Vec::new());
    let (mut full_total, mut inc_total) = (0f64, 0f64);
    let (mut e2e_full_total, mut e2e_inc_total) = (0f64, 0f64);
    for (i, e) in edits.iter().enumerate() {
        let t = Instant::now();
        let (after, impact) = match ChangeImpact::of_edits(&cur_fw, std::slice::from_ref(e)) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("fwclass: edit {i}: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let impact_us = us(t.elapsed());

        let t = Instant::now();
        let full = match CompiledFdd::from_firewall(&after) {
            Ok(c) => c,
            Err(err) => {
                eprintln!("fwclass: edit {i}: full recompile failed: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let full_us = us(t.elapsed());

        let t = Instant::now();
        match Fdd::from_firewall_fast(&after) {
            Ok(f) => std::hint::black_box(f.reduced()),
            Err(err) => {
                eprintln!("fwclass: edit {i}: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let fdd_us = us(t.elapsed());

        let old_root = maintained.root();
        let t = Instant::now();
        if let Err(err) = maintained.apply(std::slice::from_ref(e)) {
            eprintln!("fwclass: edit {i}: maintained patch failed: {err}");
            return Err(ExitCode::FAILURE);
        }
        let maintain_us = us(t.elapsed());
        let t = Instant::now();
        let m_impact = match maintained.diff_from(old_root) {
            Ok(im) => im,
            Err(err) => {
                eprintln!("fwclass: edit {i}: maintained diff failed: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let diff_us = us(t.elapsed());
        let t = Instant::now();
        let m_fdd = match maintained.to_fdd() {
            Ok(f) => f,
            Err(err) => {
                eprintln!("fwclass: edit {i}: maintained export failed: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let export_us = us(t.elapsed());
        if m_impact.affected_packets() != impact.affected_packets() {
            eprintln!("fwclass: BUG: edit {i}: maintained impact disagrees with of_edits");
            return Err(ExitCode::FAILURE);
        }

        let t = Instant::now();
        let (inc, stats) = match cur_img.recompile(&m_fdd, &m_impact) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("fwclass: edit {i}: incremental recompile failed: {err}");
                return Err(ExitCode::FAILURE);
            }
        };
        let inc_us = us(t.elapsed());

        full.classify_batch_into(trace.packets(), &mut full_out);
        inc.classify_batch_into(trace.packets(), &mut inc_out);
        if full_out != inc_out {
            eprintln!("fwclass: BUG: edit {i}: maintained image disagrees with full recompile");
            return Err(ExitCode::FAILURE);
        }
        println!(
            "edit {i}: full {full_us:.0} µs | incremental {inc_us:.0} µs (x{:.1}) | \
             {}/{} nodes reused, {} B copied, {} B fresh{} | \
             {} changed region(s), {} affected packet(s), impact {impact_us:.0} µs, \
             fdd {fdd_us:.0} µs | \
             maintained patch {maintain_us:.0} + diff {diff_us:.0} + export {export_us:.0} µs",
            full_us / inc_us,
            stats.nodes_shared,
            stats.nodes,
            stats.bytes_shared,
            stats.bytes_fresh,
            if stats.lane_arena_rebuilt {
                ", lane mirror rebuilt"
            } else {
                ""
            },
            impact.discrepancies().len(),
            // Schema-clamped: a per-region sum can exceed the packet
            // space; never report more packets than exist.
            impact.affected_packets_in(cur_fw.schema()),
        );
        full_total += full_us;
        inc_total += inc_us;
        e2e_full_total += impact_us + fdd_us + inc_us;
        e2e_inc_total += maintain_us + diff_us + export_us + inc_us;
        cur_fw = after;
        cur_img = inc;
    }
    println!(
        "edit replay: {} edit(s), full {full_total:.0} µs vs incremental {inc_total:.0} µs \
         (x{:.1}) | edit-to-image: full pipeline {e2e_full_total:.0} µs vs maintained \
         {e2e_inc_total:.0} µs (x{:.1}), all verified against the trace",
        edits.len(),
        full_total / inc_total,
        e2e_full_total / e2e_inc_total
    );

    // The same file applied as ONE coalesced batch to a fresh chain — the
    // path a LiveMatcher takes for a multi-edit call. Must land on exactly
    // the policy and semantics the edit-by-edit replay reached.
    let mut batch_m = match MaintainedFdd::new(fw.clone()) {
        Ok(m) => m,
        Err(err) => {
            eprintln!("fwclass: building batch chain: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    let t = Instant::now();
    let (b_impact, b_stats) = match batch_m.apply_edits_with_stats(edits) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("fwclass: batch apply failed: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    let batch_us = us(t.elapsed());
    if batch_m.firewall() != &cur_fw {
        eprintln!("fwclass: BUG: one-batch replay lands on a different policy");
        return Err(ExitCode::FAILURE);
    }
    let b_fdd = match batch_m.to_fdd() {
        Ok(f) => f,
        Err(err) => {
            eprintln!("fwclass: batch export failed: {err}");
            return Err(ExitCode::FAILURE);
        }
    };
    for p in trace.packets() {
        let linear = cur_fw.decision_for(p).expect("comprehensive policy");
        if b_fdd.evaluate(p) != linear {
            eprintln!("fwclass: BUG: one-batch chain disagrees with first-match at {p}");
            return Err(ExitCode::FAILURE);
        }
    }
    println!(
        "batch replay: {} edit(s) as one {:?} batch in {batch_us:.0} µs | \
         {} corridor(s) spanning {} position(s), {} tail rule(s) shared, \
         {} prepend(s), {} copied | {} affected packet(s), verified against the trace",
        edits.len(),
        b_stats.plan,
        b_stats.corridors,
        b_stats.corridor_span,
        b_stats.tail_shared,
        b_stats.prepends,
        b_stats.copied,
        b_impact.affected_packets_in(cur_fw.schema()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverse_firewall::core::{ChangeImpact, Edit};

    fn schema() -> Schema {
        Schema::tcp_ip()
    }

    #[test]
    fn parse_edits_accepts_all_four_ops() {
        let text = "\
# tighten, then shuffle
insert 0 sport=80 -> discard
replace 1 * -> accept
remove 2
swap 0 3
";
        let edits = parse_edits(&schema(), text).unwrap();
        assert_eq!(edits.len(), 4);
        assert!(matches!(edits[0], Edit::Insert { index: 0, .. }));
        assert!(matches!(edits[1], Edit::Replace { index: 1, .. }));
        assert!(matches!(edits[2], Edit::Remove { index: 2 }));
        assert!(matches!(
            edits[3],
            Edit::Swap {
                first: 0,
                second: 3
            }
        ));
    }

    #[test]
    fn parse_edits_reports_the_failing_line() {
        for (text, needle) in [
            ("replace x * -> accept\n", "bad index"),
            ("widen 0\n", "unknown edit"),
            ("swap 1\n", "swap needs two indices"),
            ("insert 0\n", "insert needs an index and a rule"),
        ] {
            let err = parse_edits(&schema(), text).unwrap_err();
            assert!(err.contains("line 1"), "missing line number: {err}");
            assert!(err.contains(needle), "expected `{needle}` in: {err}");
        }
    }

    /// Regression for the unclamped `affected_packets` rows the recompile
    /// bench used to print: every packet count this binary reports goes
    /// through the schema clamp, which can never exceed the packet space.
    #[test]
    fn reported_affected_packets_never_exceed_the_packet_space() {
        let schema = schema();
        let fw = Firewall::parse(schema.clone(), "* -> accept\n").unwrap();
        // Flip the whole domain: the raw per-region sum equals the entire
        // packet space; the clamped count must not pass it.
        let edits = [Edit::Replace {
            index: 0,
            rule: fw.rules()[0].with_decision(Decision::Discard),
        }];
        let (_, impact) = ChangeImpact::of_edits(&fw, &edits).unwrap();
        assert_eq!(impact.affected_packets_in(&schema), schema.packet_space());
        assert!(impact.affected_packets_in(&schema) <= schema.packet_space());
    }
}
