//! What every workload shares: the run context, traffic rotations, the
//! fixed-sample verdict check and the summary statistics.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Display;

use fw_core::Edit;
use fw_exec::{EngineScratch, LiveMatcher, PacketBatch};
use fw_model::{Decision, Firewall, Packet, Schema};
use fw_synth::PacketTrace;

use crate::trace::Tracer;

/// Every `CHECK_STRIDE`-th packet of a served batch (positions 0, 512, …)
/// is checked against `Firewall::decision_for`.
const CHECK_STRIDE: usize = 512;

/// Decision-cache capacity of every served policy (the `fwclass --cache`
/// default).
pub const CACHE_CAPACITY: usize = 1 << 16;

/// Measurements of one run phase (untraced or traced).
pub struct Ctx {
    pub tr: Tracer,
    pub setup_s: Vec<f64>,
    pub batch_us: Vec<f64>,
    pub batch_pkts: Vec<u32>,
    pub packets: u64,
    pub serve_ns: u128,
    pub publish_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values the workload measures directly (counts, ratios,
    /// sizes); span-derived times are added at the end.
    pub layer: BTreeMap<&'static str, f64>,
    /// Engine choice label → served batches routed through it.
    pub elected: BTreeMap<String, u64>,
    /// Sum of the elected thread count over served batches.
    pub thread_batches: u64,
    /// Served batches whose image had a specialized twin installed.
    pub twin_batches: u64,
    /// One JSON object per generated trace (warm-up and timed).
    pub traces: Vec<String>,
}

impl Ctx {
    pub fn new(traced: bool) -> Ctx {
        Ctx {
            tr: Tracer::new(traced),
            setup_s: Vec::new(),
            batch_us: Vec::new(),
            batch_pkts: Vec::new(),
            packets: 0,
            serve_ns: 0,
            publish_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            layer: BTreeMap::new(),
            elected: BTreeMap::new(),
            thread_batches: 0,
            twin_batches: 0,
            traces: Vec::new(),
        }
    }

    /// Counts one attempted operation; an error counts as failed and the
    /// workload carries on without its result.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Records one served batch.
    pub fn served(&mut self, packets: usize, ns: u128, choice: &fw_exec::EngineChoice) {
        self.batch_us.push(ns as f64 / 1e3);
        self.batch_pkts.push(packets as u32);
        self.packets += packets as u64;
        self.serve_ns += ns;
        *self.elected.entry(choice.to_string()).or_insert(0) += 1;
        self.thread_batches += if choice.kind == fw_exec::EngineKind::Lanes
            || choice.kind == fw_exec::EngineKind::Spec
        {
            choice.threads.max(1) as u64
        } else {
            1
        };
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
    }
}

/// Aborts the run on a wrong verdict: nothing is printed on stdout, so no
/// timing of an incorrect program is ever reported.
pub fn wrong(what: impl Display) -> ! {
    eprintln!("perfbench: WRONG VERDICT: {what}");
    std::process::exit(3);
}

/// Aborts the run when the workload cannot be built at all.
pub fn fatal(what: impl Display) -> ! {
    eprintln!("perfbench: {what}");
    std::process::exit(4);
}

/// Checks the fixed sample of a served batch against the first-match
/// scan of `fw`.
pub fn check_sample(fw: &Firewall, rows: &[Packet], out: &[Decision], what: &str) {
    if out.len() != rows.len() {
        wrong(format!(
            "{what}: {} verdicts for {} packets",
            out.len(),
            rows.len()
        ));
    }
    for i in (0..rows.len()).step_by(CHECK_STRIDE) {
        if fw.decision_for(&rows[i]) != Some(out[i]) {
            wrong(format!("{what}: packet {:?} served {:?}", rows[i], out[i]));
        }
    }
}

/// Checks every verdict of a batch.
pub fn check_all(fw: &Firewall, rows: &[Packet], out: &[Decision], what: &str) {
    if out.len() != rows.len() {
        wrong(format!("{what}: verdict count"));
    }
    for (p, d) in rows.iter().zip(out) {
        if fw.decision_for(p) != Some(*d) {
            wrong(format!("{what}: packet {p:?} served {d:?}"));
        }
    }
}

/// Cold start of one served policy, timed into `setup_s`: rule text →
/// parse → `LiveMatcher::new` (build, export, compile) → cache on →
/// calibrate on the start of `calib` → first decision on its first batch,
/// every verdict of which is then checked.
pub fn cold_start(
    ctx: &mut Ctx,
    schema: &Schema,
    text: &str,
    rep: u64,
    calib: &Rotation,
) -> (LiveMatcher, Firewall) {
    let mut out = Vec::new();
    let mut scratch = EngineScratch::default();
    let sample = &calib.rows()[..calib.rows().len().min(4096)];
    let batch = to_batch(schema, sample);
    let t0 = std::time::Instant::now();
    let root = ctx.tr.enter("setup", rep);
    let fw = ctx
        .tr
        .time("model.parse", rep, || Firewall::parse(schema.clone(), text))
        .unwrap_or_else(|e| fatal(format!("policy text does not parse: {e}")));
    let live = ctx
        .tr
        .time("exec.live_new", rep, || LiveMatcher::new(fw.clone()))
        .unwrap_or_else(|e| fatal(format!("LiveMatcher::new: {e}")));
    live.enable_cache(CACHE_CAPACITY)
        .unwrap_or_else(|e| fatal(format!("enable_cache: {e}")));
    let cal = ctx.tr.time("exec.calibrate", rep, || {
        live.calibrate(&batch, Some(sample), 0)
    });
    ctx.op("calibrate", cal);
    let served = ctx.tr.time("exec.serve", rep, || {
        live.classify_auto_into(&calib.batches[0], &mut scratch, &mut out)
    });
    ctx.op("first decision", served);
    ctx.tr.exit(root);
    ctx.setup_s.push(t0.elapsed().as_secs_f64());
    check_all(&fw, calib.rows_of(0), &out, "first decision");
    (live, fw)
}

/// One stretch of traffic: rows for the checks, batches for serving.
pub struct Rotation {
    trace: PacketTrace,
    pub batches: Vec<PacketBatch>,
    pub batch_size: usize,
}

impl Rotation {
    pub fn rows(&self) -> &[Packet] {
        self.trace.packets()
    }

    pub fn rows_of(&self, b: usize) -> &[Packet] {
        let rows = self.rows();
        let lo = b * self.batch_size;
        &rows[lo..(lo + self.batch_size).min(rows.len())]
    }
}

/// Traffic shape of a workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf s = 1.0 over a flow pool drawn from the policy; each rotation
    /// draws a fresh pool (new `flow_seed`).
    Zipf,
    /// Uniform random packets over the schema: every tuple is new.
    Uniform,
}

/// Stream seed for rotation `r` of a run seeded `seed`; warm-up and timed
/// rotations use disjoint `r`, so timed traffic is held out.
fn stream_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

pub fn rotation(
    traffic: Traffic,
    fw: &Firewall,
    batches: usize,
    batch_size: usize,
    seed: u64,
    r: u64,
) -> Rotation {
    let n = batches * batch_size;
    let s = stream_seed(seed, r);
    let trace = match traffic {
        Traffic::Zipf => PacketTrace::zipf(fw, n, 1.0, s, s ^ 0xF10F),
        Traffic::Uniform => PacketTrace::random(fw.schema().clone(), n, s),
    };
    let batches = trace
        .packets()
        .chunks(batch_size)
        .map(|c| to_batch(fw.schema(), c))
        .collect();
    Rotation {
        trace,
        batches,
        batch_size,
    }
}

pub fn to_batch(schema: &Schema, rows: &[Packet]) -> PacketBatch {
    PacketBatch::from_packets(schema.clone(), rows)
        .unwrap_or_else(|e| fatal(format!("generated packets do not fit the schema: {e}")))
}

/// Distinct tuples remembered for the first-seen share. Past this many,
/// the trace figures describe the stream's prefix. The sets are sized for
/// it up front, so their memory is the same in every run; letting them
/// grow with the run made `peak_rss_mb` jump by a table resize in the runs
/// that served the most traffic.
const NOVELTY_CAP: usize = 1 << 16;

/// Distinct tuples and first-seen share of a stream of rotations.
pub struct Novelty {
    seen: HashSet<u64>,
    packets: u64,
    first_seen: u64,
    distinct_here: HashSet<u64>,
}

fn fingerprint(p: &Packet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in p.values() {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

impl Novelty {
    pub fn new() -> Novelty {
        Novelty {
            seen: HashSet::with_capacity(NOVELTY_CAP),
            packets: 0,
            first_seen: 0,
            distinct_here: HashSet::with_capacity(NOVELTY_CAP),
        }
    }

    pub fn observe(&mut self, rows: &[Packet]) {
        for p in rows {
            if self.seen.len() >= NOVELTY_CAP {
                return;
            }
            let f = fingerprint(p);
            self.distinct_here.insert(f);
            if self.seen.insert(f) {
                self.first_seen += 1;
            }
            self.packets += 1;
        }
    }

    /// Closes one named trace: records its distinct-tuple count and
    /// first-seen share, and starts counting the next.
    pub fn close(&mut self, name: &str, ctx: &mut Ctx) -> f64 {
        let share = self.first_seen as f64 / self.packets.max(1) as f64;
        ctx.traces.push(format!(
            "{{\"trace\":\"{name}\",\"packets\":{},\"distinct\":{},\"first_seen_share\":{}}}",
            self.packets,
            self.distinct_here.len(),
            num(share)
        ));
        self.packets = 0;
        self.first_seen = 0;
        self.distinct_here.clear();
        share
    }
}

/// Percentile of `v` (sorted in place), interpolated linearly between
/// the two nearest ranks; 0 for no samples. With the few samples of a
/// `design` run (one per multi-second session), the interpolation keeps
/// the figure from jumping to the next sample when one session moves.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A finite number as JSON (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process, from `VmHWM`, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Administrative actions of single-edit batches, in the proportions of
/// `EvolutionProfile::default` (4 block, 3 open, 1 delete, 1 swap, 1
/// flip). Cycling them, rather than drawing each at random, gives every
/// run the same mix: the actions differ in cost by an order of magnitude,
/// and a drawn mix would move the median edit latency from run to run.
const SINGLE_EDIT_CYCLE: [usize; 10] = [0, 1, 0, 2, 1, 0, 3, 1, 0, 4];

/// An administrator's edit batch, the batch that rolls it back, and the
/// policy the forward batch must leave.
pub struct EditPair {
    pub forward: Vec<Edit>,
    pub rollback: Vec<Edit>,
    /// `fw_synth::evolve`'s own result of the forward batch: what the
    /// served policy must equal once the forward batch is applied.
    pub after: Firewall,
}

/// The [`EditPair`] of `n` edits on `base`. The forward batch is `n`
/// `fw_synth::evolve` steps from `base` (a single-edit batch numbered `k`
/// takes its action from [`SINGLE_EDIT_CYCLE`]); the rollback restores
/// `base` exactly. Workloads alternate the two, so the served policy stays
/// near `base` however many edits a run gets through: a faster program is
/// never handed a larger diagram.
pub fn edit_and_rollback(base: &Firewall, n: usize, k: u64, seed: u64) -> EditPair {
    let mut profile = fw_synth::EvolutionProfile::default();
    if n == 1 {
        let mut w = [0u32; 5];
        w[SINGLE_EDIT_CYCLE[(k % 10) as usize]] = 1;
        profile = fw_synth::EvolutionProfile {
            w_block_threat: w[0],
            w_open_service: w[1],
            w_delete: w[2],
            w_swap: w[3],
            w_flip_decision: w[4],
        };
    }
    let steps = fw_synth::evolve(base, n, &profile, seed);
    let mut before = base;
    let mut undo = Vec::with_capacity(n);
    for step in &steps {
        undo.push(match &step.edit {
            Edit::Insert { index, .. } => Edit::Remove { index: *index },
            Edit::Remove { index } => Edit::Insert {
                index: *index,
                rule: before.rules()[*index].clone(),
            },
            Edit::Replace { index, .. } => Edit::Replace {
                index: *index,
                rule: before.rules()[*index].clone(),
            },
            Edit::Swap { first, second } => Edit::Swap {
                first: *first,
                second: *second,
            },
        });
        before = &step.after;
    }
    undo.reverse();
    let after = before.clone();
    EditPair {
        forward: steps.into_iter().map(|s| s.edit).collect(),
        rollback: undo,
        after,
    }
}
