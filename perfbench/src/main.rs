//! End-to-end benchmark of the serve, edit, design and fleet paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! Workloads: `serve-zipf`, `serve-uniform`, `edit-churn`, `design`,
//! `fleet` (why each exists: `perfbench/README.md`). One closed-loop
//! client drives public APIs only. Every served verdict on a fixed sample,
//! every published image and every agreed policy is checked; a wrong
//! verdict exits non-zero before anything is printed on stdout.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones. With `--trace 1` the workload runs twice, untraced and
//! then traced; the metrics are the per-layer ones from the traced phase
//! plus the tracing overhead (traced minus untraced end-to-end figures),
//! and the spans are written to `.bench_trace/`. `--short` runs the
//! workload at a small size with every check on.

mod common;
mod design;
mod fleet;
mod serve;
mod trace;

use std::collections::BTreeMap;

use common::{num, peak_rss_mb, percentile, Ctx, Traffic};
use fw_model::Firewall;

const WORKLOADS: [&str; 5] = [
    "serve-zipf",
    "serve-uniform",
    "edit-churn",
    "design",
    "fleet",
];

/// End-to-end metrics, as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("serve_mpps", "Mpps"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("publish_p50_ms", "ms"),
    ("publish_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`. A layer a workload
/// never calls reads 0 there.
const PER_LAYER: [(&str, &str); 37] = [
    ("model.parse_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.export_ms", "ms"),
    ("core.maintain_ms", "ms"),
    ("core.maintain_prepends", "count"),
    ("core.full_rebuilds", "count"),
    ("core.compare_ms", "ms"),
    ("core.shape_ms", "ms"),
    ("core.equivalent_ms", "ms"),
    ("gen.generate_ms", "ms"),
    ("gen.redundancy_ms", "ms"),
    ("diverse.verify_ms", "ms"),
    ("diverse.finalize_self_ms", "ms"),
    ("exec.compile_ms", "ms"),
    ("exec.calibrate_ms", "ms"),
    ("exec.elected_threads", "count"),
    ("exec.engine_ns_per_pkt", "ns/pkt"),
    ("exec.cache_hit_rate", "ratio"),
    ("exec.cache_probe_ns_per_pkt", "ns/pkt"),
    ("exec.cache_evictions", "count/Mpkt"),
    ("exec.first_seen_share", "ratio"),
    ("exec.recompile_ms", "ms"),
    ("exec.nodes_fresh", "count"),
    ("exec.invalidate_ms", "ms"),
    ("exec.invalidated", "count"),
    ("exec.specialize_ms", "ms"),
    ("exec.twin_bytes", "bytes"),
    ("exec.depth_after", "count"),
    ("exec.image_bytes", "bytes"),
    ("exec.apply_self_ms", "ms"),
    ("fleet.add_tenant_ms", "ms"),
    ("fleet.classify_ns_per_pkt", "ns/pkt"),
    ("fleet.cache_hit_rate", "ratio"),
    ("fleet.edit_ms", "ms"),
    ("fleet.bytes_per_tenant", "bytes"),
    ("fleet.distinct_policies", "count"),
    ("trace.spans", "count"),
];

/// Tracing overhead per end-to-end metric: traced minus untraced.
const OVERHEAD: [(&str, &str); 7] = [
    ("overhead.setup_s", "s"),
    ("overhead.serve_mpps", "Mpps"),
    ("overhead.batch_p50_us", "us"),
    ("overhead.batch_p99_us", "us"),
    ("overhead.publish_p50_ms", "ms"),
    ("overhead.publish_p90_ms", "ms"),
    ("overhead.peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut short = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?);
            }
            "--trace" => trace = value()? == "1",
            "--short" => short = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        short,
    })
}

/// A policy as rule text and schema: every workload builds its policies
/// from text, so parsing is part of set-up.
fn policy_text(fw: Firewall) -> (String, fw_model::Schema) {
    (fw.to_dsl(), fw.schema().clone())
}

fn run_phase(args: &Args, traced: bool) -> Ctx {
    let mut ctx = Ctx::new(traced);
    let short = args.short;
    match args.workload.as_str() {
        "serve-zipf" | "edit-churn" | "serve-uniform" => {
            let uniform = args.workload == "serve-uniform";
            let (text, schema) = if uniform {
                let n = if short { 200 } else { 2000 };
                policy_text(fw_synth::Synthesizer::new(0x5EED_2000).firewall(n))
            } else if short {
                policy_text(fw_synth::university_average())
            } else {
                policy_text(fw_synth::university_large())
            };
            let spec = serve::Spec {
                text,
                schema,
                traffic: if uniform {
                    Traffic::Uniform
                } else {
                    Traffic::Zipf
                },
                rotation_batches: if short { 8 } else { 32 },
                respecialize_every: if short { 1 } else { 4 },
                warm_rotations: if short { 1 } else { 4 },
                setup_reps: if short { 1 } else { 5 },
                edits: (args.workload == "edit-churn").then_some(serve::EditSpec {
                    every: if short { 2 } else { 16 },
                    big_every: if short { 3 } else { 5 },
                }),
            };
            serve::run(&mut ctx, &spec, args.seed, args.seconds);
        }
        "design" => {
            let base = if short {
                fw_synth::Synthesizer::new(0x5EED_0012).firewall(12)
            } else {
                fw_synth::university_average()
            };
            let (base_text, schema) = policy_text(base);
            let spec = design::Spec {
                base_text,
                schema,
                percent: if short { 20 } else { 5 },
                setup_reps: if short { 1 } else { 5 },
                serve_batches: if short { 8 } else { 512 },
            };
            design::run(&mut ctx, &spec, args.seed, args.seconds);
        }
        "fleet" => {
            let (base_text, schema) = policy_text(fw_synth::university_average());
            let spec = fleet::Spec {
                base_text,
                schema,
                tenants: if short { 16 } else { 1000 },
                rotation_batches: if short { 16 } else { 256 },
                edit_every: if short { 4 } else { 32 },
                setup_reps: if short { 1 } else { 3 },
            };
            fleet::run(&mut ctx, &spec, args.seed, args.seconds);
        }
        other => unreachable!("workload {other} was validated"),
    }
    ctx
}

/// Served batches per throughput and median-latency window.
const BATCH_WINDOW: usize = 256;
/// Served batches per p99 window: at least five samples above the 99th
/// percentile in each, and on `design` one window per session's traffic.
const P99_WINDOW: usize = 512;
/// Publishes per window. On `edit-churn` this is one edit cycle (25
/// forward batches and their rollbacks), so every window holds the same
/// mix of edits: the 16-edit batches cost about ten times a single edit.
const PUBLISH_WINDOW: usize = 50;
/// Share of the window figures dropped at each end before averaging (at
/// least one window at each end once there are three).
const TRIM: f64 = 0.1;

/// The mean, over consecutive windows of `w` samples, of `f` applied to
/// each window, with the lowest and highest tenth of the window figures
/// dropped (at least one at each end of three or more). A run with fewer
/// than two full windows is one window.
///
/// A mean rather than a median: the shared 2-vCPU host the bounds were
/// set on switches between a fast and a slow state every few seconds (a
/// fixed loop varied 1.5x). A median over windows reports whichever state
/// held most of the run and jumps by the whole gap between runs either
/// side of half; a mean moves with the share of the run spent in each.
/// The trim keeps a window hit by a burst of interference from moving the
/// figure.
fn windowed<T>(samples: &[T], w: usize, f: impl Fn(&[T]) -> f64) -> f64 {
    if samples.len() < 2 * w {
        return f(samples);
    }
    let mut per: Vec<f64> = samples.chunks_exact(w).map(f).collect();
    per.sort_by(f64::total_cmp);
    let trim = ((per.len() as f64 * TRIM).ceil() as usize).min((per.len() - 1) / 2);
    let kept = &per[trim..per.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The end-to-end figures of one phase.
fn end_to_end(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let mut setup = ctx.setup_s.clone();
    let batches: Vec<(f64, u32)> = ctx
        .batch_us
        .iter()
        .copied()
        .zip(ctx.batch_pkts.iter().copied())
        .collect();
    let latency = |w: &[(f64, u32)], p: f64| {
        let mut us: Vec<f64> = w.iter().map(|b| b.0).collect();
        percentile(&mut us, p)
    };
    let mpps = windowed(&batches, BATCH_WINDOW, |w| {
        let packets: f64 = w.iter().map(|b| f64::from(b.1)).sum();
        packets / w.iter().map(|b| b.0).sum::<f64>().max(1e-9)
    });
    let publish = |p: f64| {
        windowed(&ctx.publish_ms, PUBLISH_WINDOW, |w| {
            percentile(&mut w.to_vec(), p)
        })
    };
    BTreeMap::from([
        ("setup_s", percentile(&mut setup, 0.5)),
        ("serve_mpps", mpps),
        (
            "batch_p50_us",
            windowed(&batches, BATCH_WINDOW, |w| latency(w, 0.5)),
        ),
        (
            "batch_p99_us",
            windowed(&batches, P99_WINDOW, |w| latency(w, 0.99)),
        ),
        ("publish_p50_ms", publish(0.5)),
        ("publish_p90_ms", publish(0.9)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// The per-layer figures of the traced phase.
fn per_layer(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let layers = ctx.tr.layers();
    let l = |name: &str| layers.get(name).copied().unwrap_or_default();
    let v = |name: &str| ctx.layer.get(name).copied().unwrap_or(0.0);
    let per = |total: &str, n: &str| {
        let n = v(n);
        if n > 0.0 {
            v(total) / n
        } else {
            0.0
        }
    };
    let batches = ctx.batch_us.len().max(1) as f64;
    let mut m = BTreeMap::from([
        ("model.parse_ms", l("model.parse").mean_ms()),
        ("core.build_ms", l("core.build").mean_ms()),
        ("core.export_ms", l("core.export").mean_ms()),
        ("core.maintain_ms", l("core.maintain").mean_ms()),
        (
            "core.maintain_prepends",
            per("core.maintain_prepends", "core.edit_batches"),
        ),
        ("core.full_rebuilds", v("core.full_rebuilds")),
        ("core.compare_ms", l("core.compare").mean_ms()),
        ("core.shape_ms", l("core.shape").mean_ms()),
        ("core.equivalent_ms", l("core.equivalent").mean_ms()),
        ("gen.generate_ms", l("gen.generate").mean_ms()),
        ("gen.redundancy_ms", l("gen.redundancy").mean_ms()),
        ("diverse.verify_ms", l("diverse.verify").mean_ms()),
        (
            "diverse.finalize_self_ms",
            self_of(l("diverse.finalize"), l("composed.finalize")),
        ),
        ("exec.compile_ms", l("exec.compile").mean_ms()),
        ("exec.calibrate_ms", l("exec.calibrate").mean_ms()),
        ("exec.elected_threads", ctx.thread_batches as f64 / batches),
        (
            "exec.engine_ns_per_pkt",
            per("exec.engine_ns_total", "exec.engine_pkts"),
        ),
        (
            "exec.cache_probe_ns_per_pkt",
            per("exec.probe_ns_total", "exec.probe_pkts"),
        ),
        ("exec.recompile_ms", l("exec.recompile").mean_ms()),
        (
            "exec.nodes_fresh",
            per("exec.nodes_fresh", "core.edit_batches"),
        ),
        ("exec.invalidate_ms", l("exec.invalidate").mean_ms()),
        (
            "exec.invalidated",
            per("exec.invalidated", "core.edit_batches"),
        ),
        ("exec.specialize_ms", l("exec.specialize").mean_ms()),
        (
            "exec.apply_self_ms",
            self_of(l("exec.apply"), l("composed.apply")),
        ),
        ("fleet.add_tenant_ms", l("fleet.add_tenant").mean_ms()),
        ("fleet.edit_ms", l("fleet.edit").mean_ms()),
        ("trace.spans", ctx.tr.span_count() as f64),
    ]);
    if l("fleet.classify").calls > 0 {
        m.insert(
            "fleet.classify_ns_per_pkt",
            ctx.serve_ns as f64 / ctx.packets.max(1) as f64,
        );
    }
    for (k, x) in &ctx.layer {
        if PER_LAYER.iter().any(|(n, _)| n == k) && !m.contains_key(k) {
            m.insert(k, *x);
        }
    }
    m
}

/// A composite call's own time: its mean minus the mean of the composed
/// public functions it was checked against.
fn self_of(call: trace::Layer, composed: trace::Layer) -> f64 {
    if call.calls == 0 || composed.calls == 0 {
        0.0
    } else {
        call.mean_ms() - composed.mean_ms()
    }
}

/// Time of a fixed single-threaded integer loop, in ms. Taken before and
/// after the workload and recorded in the info line, not as a metric: a
/// shift of every figure between runs that the loop shows too comes from
/// the host, not the program.
fn host_ref_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..1 << 23 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cores\":{cores},\"cpu_model\":{},\"rustc\":{}}}",
        json_str(&model),
        json_str(env!("PERFBENCH_RUSTC"))
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn phase_json(ctx: &Ctx) -> String {
    let elected: Vec<String> = ctx
        .elected
        .iter()
        .map(|(k, n)| format!("{}:{n}", json_str(k)))
        .collect();
    format!(
        "{{\"traces\":[{}],\"elected_batches\":{{{}}},\"samples\":{{\"setup\":{},\"batches\":{},\"publish\":{}}},\"twin_batches\":{},\"attempted\":{},\"failed\":{}}}",
        ctx.traces.join(","),
        elected.join(","),
        ctx.setup_s.len(),
        ctx.batch_us.len(),
        ctx.publish_ms.len(),
        ctx.twin_batches,
        ctx.attempted,
        ctx.failed
    )
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let parts: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    parts.join(",")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ref_before = host_ref_ms();
    let untraced = run_phase(&args, false);
    let e2e = end_to_end(&untraced);
    let traced = args.trace.then(|| run_phase(&args, true));
    let ref_after = host_ref_ms();

    let mut info = format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"short\":{},\"host\":{},\"host_ref_ms\":[{},{}],\"untraced\":{}",
        args.workload,
        args.seed,
        args.seconds,
        args.short,
        host_json(),
        num(ref_before),
        num(ref_after),
        phase_json(&untraced)
    );
    let (attempted, failed, metrics) = match &traced {
        None => (
            untraced.attempted,
            untraced.failed,
            metrics_json(&e2e, &END_TO_END),
        ),
        Some(tctx) => {
            let path = std::path::PathBuf::from(".bench_trace")
                .join(format!("{}-seed{}.json", args.workload, args.seed));
            if let Err(e) = tctx.tr.write_json(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
            let layers: Vec<String> = tctx
                .tr
                .layers()
                .iter()
                .map(|(name, l)| {
                    format!(
                        "\"{name}\":{{\"calls\":{},\"mean_ms\":{},\"self_ms\":{}}}",
                        l.calls,
                        num(l.mean_ms()),
                        num(l.mean_self_ms())
                    )
                })
                .collect();
            info.push_str(&format!(
                ",\"traced\":{},\"layers\":{{{}}},\"spans\":{}",
                phase_json(tctx),
                layers.join(","),
                json_str(&path.display().to_string())
            ));
            let te = end_to_end(tctx);
            let mut layer = per_layer(tctx);
            for (name, _) in OVERHEAD {
                let base = name.trim_start_matches("overhead.");
                layer.insert(name, te[base] - e2e[base]);
            }
            let mut table: Vec<(&str, &str)> = PER_LAYER.to_vec();
            table.extend_from_slice(&OVERHEAD);
            (
                untraced.attempted + tctx.attempted,
                untraced.failed + tctx.failed,
                metrics_json(&layer, &table),
            )
        }
    };
    info.push_str("}}");
    println!("{info}");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0
    );
}
