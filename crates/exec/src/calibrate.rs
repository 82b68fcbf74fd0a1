//! Adaptive engine calibration: measure, don't guess.
//!
//! The runtime has several ways to answer the same question — the plain
//! FDD walk, the level-synchronous lane kernel (serial or sharded across
//! cores), the profile-specialized twin when one is installed, and any of
//! these behind a decision cache — and no fixed choice wins everywhere:
//! `BENCH_exec.json`'s lane-width sweep shows the optimum drifting per
//! workload, and the walk outruns every compiled engine on some
//! shallow-diagram trace shapes. So the choice is *calibrated*: a short
//! micro-trial per (image, trace shape) races every candidate over a
//! bounded sample of the real batch and the winner is recorded as an
//! [`EngineChoice`] — in the image's [`CompileStats`] for the
//! single-policy surfaces, or in the [`crate::LiveMatcher`] serving it.
//!
//! The trial is deterministic in everything but the clock: candidates run
//! in a fixed order over a fixed sample prefix, each timed as the minimum
//! of a fixed number of passes (minimum, not mean — noise on a quiet
//! machine is one-sided), and ties break toward the earlier candidate.
//! Decisions never depend on the choice at all: every candidate engine is
//! proven decision-identical by the agreement oracles, so calibration can
//! only change speed.
//!
//! The FWEX wire format deliberately carries no calibration — the machine
//! that decodes an image is not the machine (or the traffic) that encoded
//! it. Decode leaves [`CompileStats::calibrated`] empty; serving surfaces
//! recalibrate on load ([`CompiledFdd::calibrate`]) or fall back to
//! [`EngineChoice::default`].

use std::time::Instant;

use fw_core::Fdd;
use fw_model::{Decision, Packet};
use serde::{Deserialize, Serialize};

use crate::kernel::LaneScratch;
use crate::par::{resolve_threads, ParScratch};
use crate::{CompiledFdd, ExecError, PacketBatch, DEFAULT_LANE_WIDTH};

/// Lane widths a calibration races. Brackets the sweep's observed optima
/// (16 vs 32 depending on workload) with one step of headroom either side.
pub const CALIBRATE_LANE_WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// Packets of the sample prefix a calibration replays per timed pass —
/// enough to leave the noise floor, small enough that a full calibration
/// stays in the low milliseconds.
pub const CALIBRATE_SAMPLE: usize = 4096;

/// Timed passes per candidate; the minimum is taken.
const CALIBRATE_PASSES: usize = 3;

/// One classification engine the runtime can route a batch through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The plain FDD walk (`fw_core::Fdd::evaluate`): pointer-chasing but
    /// shallow, and unbeatable on diagrams small enough to live in L1.
    Walk,
    /// The compiled field-major column walk
    /// ([`CompiledFdd::classify_columns_into`]). Never raced: it is what
    /// a fleet pool serves through and what a [`EngineKind::Spec`] choice
    /// degrades to on an image without a twin.
    Columns,
    /// The level-synchronous lane kernel, serial at `threads <= 1`,
    /// sharded across scoped workers above that.
    Lanes,
    /// The profile-specialized twin image ([`crate::SpecializedFdd`]),
    /// serial at `threads <= 1`, span-sharded above that. Raced only when
    /// a twin is installed; routing a choice against an image without one
    /// (e.g. after an edit swaps in a fresh image) degrades to the column
    /// walk — like every degradation, it can only cost speed.
    Spec,
}

impl EngineKind {
    /// Stable lowercase name, as reported in benches and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Walk => "walk",
            EngineKind::Columns => "columns",
            EngineKind::Lanes => "lanes",
            EngineKind::Spec => "spec",
        }
    }
}

/// A calibrated routing decision: which engine, and — for the lane kernel
/// — at what width and across how many threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineChoice {
    /// The engine to route batches through.
    pub kind: EngineKind,
    /// Lane width when `kind` is [`EngineKind::Lanes`]; ignored otherwise.
    pub lane_width: usize,
    /// Worker threads when `kind` is [`EngineKind::Lanes`] (`1` = serial
    /// kernel); ignored otherwise.
    pub threads: usize,
    /// Whether a [`crate::DecisionCache`] front end sits before `kind`
    /// (the engine then only classifies the misses). Routing through the
    /// cache is the caller's move — [`EngineChoice::classify_into`]
    /// ignores this flag, [`crate::LiveMatcher`] and the fleet registry
    /// honour it.
    pub cached: bool,
}

impl Default for EngineChoice {
    /// The uncalibrated fallback: the serial lane kernel at
    /// [`DEFAULT_LANE_WIDTH`] — the fastest engine on 9 of 10 bench
    /// workloads before calibration existed. No cache front end: memoizing
    /// only pays on skewed traffic, which must be measured, not presumed.
    fn default() -> EngineChoice {
        EngineChoice {
            kind: EngineKind::Lanes,
            lane_width: DEFAULT_LANE_WIDTH,
            threads: 1,
            cached: false,
        }
    }
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cached {
            f.write_str("cache+")?;
        }
        match self.kind {
            EngineKind::Lanes => {
                write!(f, "lanes/w{}/t{}", self.lane_width, self.threads)
            }
            EngineKind::Spec if self.threads > 1 => {
                write!(f, "spec/t{}", self.threads)
            }
            k => f.write_str(k.name()),
        }
    }
}

/// One timed candidate from a calibration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// The candidate that was raced.
    pub choice: EngineChoice,
    /// Its best observed throughput over the sample, in Mpps.
    pub mpps: f64,
}

/// The result of one calibration run: the winner plus every candidate's
/// measurement, for reporting and regression tracking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The fastest candidate (ties break toward the earlier one in the
    /// fixed candidate order).
    pub choice: EngineChoice,
    /// Every candidate raced, in trial order.
    pub trials: Vec<Trial>,
    /// Packets in the sample prefix each pass replayed.
    pub sample: usize,
}

/// Reusable scratch for [`EngineChoice::classify_into`] /
/// [`CompiledFdd::classify_auto_into`]: whichever engine the choice routes
/// to finds its working state here, so steady-state auto serving allocates
/// nothing per batch.
#[derive(Debug, Default)]
pub struct EngineScratch {
    lane: LaneScratch,
    par: ParScratch,
    /// One packet's gathered values, for the walk over a column batch.
    values: Vec<u64>,
    /// Miss-path buffers for the cached front end
    /// ([`EngineChoice::classify_cached_into`]).
    pub(crate) cache: crate::cache::CacheScratch,
}

impl EngineScratch {
    /// A fresh scratch. Allocates nothing until first use.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }
}

impl EngineChoice {
    /// Routes one batch through the chosen engine, into a caller-provided
    /// buffer (cleared first).
    ///
    /// `walk` and `rows` widen the routing surface: [`EngineKind::Walk`]
    /// needs the source diagram, over `rows` when given, else gathering
    /// each packet from the columns through a reused buffer. Without the
    /// diagram a walk choice degrades to the column walk rather than
    /// failing: the decisions are identical on every engine, so
    /// degradation can only cost speed.
    ///
    /// # Errors
    ///
    /// As for the routed engine ([`ExecError::Model`] on a schema
    /// mismatch; [`ExecError::Batch`] for a zero lane width).
    pub fn classify_into(
        &self,
        compiled: &CompiledFdd,
        walk: Option<&Fdd>,
        rows: Option<&[Packet]>,
        batch: &PacketBatch,
        scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        match (self.kind, walk, rows) {
            (EngineKind::Walk, Some(fdd), Some(rows)) => {
                out.clear();
                out.reserve(rows.len());
                out.extend(rows.iter().map(|p| fdd.evaluate(p)));
                Ok(())
            }
            (EngineKind::Walk, Some(fdd), None) => {
                if batch.schema() != compiled.schema() {
                    return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                        expected: compiled.schema().len(),
                        found: batch.schema().len(),
                    }));
                }
                let columns = batch.columns_raw();
                out.clear();
                out.reserve(batch.len());
                for i in 0..batch.len() {
                    scratch.values.clear();
                    scratch.values.extend(columns.iter().map(|c| c[i]));
                    out.push(fdd.evaluate_values(&scratch.values));
                }
                Ok(())
            }
            (EngineKind::Columns, _, _) | (EngineKind::Walk, None, _) => {
                compiled.classify_columns_into(batch, out)
            }
            (EngineKind::Spec, _, _) => match compiled.spec() {
                Some(spec) if self.threads > 1 => spec.classify_par_into(batch, self.threads, out),
                Some(spec) => spec.classify_columns_into(batch, out),
                None => compiled.classify_columns_into(batch, out),
            },
            (EngineKind::Lanes, _, _) if self.threads <= 1 => {
                compiled.classify_lanes_into(batch, self.lane_width.max(1), &mut scratch.lane, out)
            }
            (EngineKind::Lanes, _, _) => compiled.classify_lanes_par_into(
                batch,
                self.lane_width.max(1),
                self.threads,
                &mut scratch.par,
                out,
            ),
        }
    }
}

/// Thread counts a calibration races on a machine with `max` cores:
/// powers of two up to `max`, plus `max` itself.
fn thread_ladder(max: usize) -> Vec<usize> {
    let mut ladder = vec![1usize];
    let mut t = 2;
    while t < max {
        ladder.push(t);
        t *= 2;
    }
    if max > 1 {
        ladder.push(max);
    }
    ladder
}

/// Races every candidate engine over a bounded prefix of `batch` and
/// returns the fastest, with all measurements.
///
/// Candidates, in fixed trial order: the plain walk (when `walk` is
/// given; over `rows` when those are given too), the lane kernel at every
/// [`CALIBRATE_LANE_WIDTHS`] width × every thread count on the ladder up
/// to `max_threads` (`0` = all available cores), then the specialized
/// twin at one thread and at the maximum (when a twin is installed).
/// Each candidate's time is the minimum over
/// [`CALIBRATE_PASSES`] passes after one warm-up pass (which also forces
/// the lazy lane mirror outside the timings); ties break toward the
/// earlier candidate.
///
/// # Errors
///
/// Returns [`ExecError::Model`] if `batch` was built over a different
/// schema, and [`ExecError::Batch`] for an empty batch (nothing to
/// measure).
pub fn calibrate(
    compiled: &CompiledFdd,
    walk: Option<&Fdd>,
    rows: Option<&[Packet]>,
    batch: &PacketBatch,
    max_threads: usize,
) -> Result<Calibration, ExecError> {
    calibrate_with_cache(compiled, walk, rows, batch, max_threads, 0)
}

/// [`calibrate`] with one extra candidate: the best uncached engine fronted
/// by a [`crate::DecisionCache`] of `cache_capacity` entries (skipped when
/// `cache_capacity` is zero).
///
/// The cached trial is a component race rather than a raw replay: one cold
/// fill pass over a throwaway cache leaves the sample's distinct tuples
/// resident, warm passes time the pure hit path, and the trial's reported
/// figure is the projected steady-state throughput at the sample's
/// repetition rate (misses are costed as the best uncached engine plus the
/// probe/insert overhead). A Zipf or replayed-flow sample elects the
/// cache; a uniform-random sample (every tuple distinct) projects below
/// the best engine and rejects it. The cached candidate still goes
/// through the agreement-checked [`EngineChoice::classify_cached_into`]
/// path, so like every other candidate it can only change speed, never
/// decisions.
///
/// # Errors
///
/// As for [`calibrate`], plus any error from the cached candidate's probe
/// machinery (never for a valid batch).
pub fn calibrate_with_cache(
    compiled: &CompiledFdd,
    walk: Option<&Fdd>,
    rows: Option<&[Packet]>,
    batch: &PacketBatch,
    max_threads: usize,
    cache_capacity: usize,
) -> Result<Calibration, ExecError> {
    if batch.schema() != compiled.schema() {
        return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
            expected: compiled.schema().len(),
            found: batch.schema().len(),
        }));
    }
    if batch.is_empty() {
        return Err(ExecError::Batch(
            "cannot calibrate over an empty batch".into(),
        ));
    }
    let sample_len = batch.len().min(CALIBRATE_SAMPLE);
    let sample = PacketBatch::from_columns(
        compiled.schema().clone(),
        batch
            .columns_raw()
            .iter()
            .map(|c| c[..sample_len].to_vec())
            .collect(),
    )?;
    let sample_rows = rows.map(|r| &r[..sample_len.min(r.len())]);

    let mut candidates: Vec<EngineChoice> = Vec::new();
    if walk.is_some() {
        candidates.push(EngineChoice {
            kind: EngineKind::Walk,
            lane_width: 0,
            threads: 1,
            cached: false,
        });
    }
    for width in CALIBRATE_LANE_WIDTHS {
        for &threads in &thread_ladder(resolve_threads(max_threads)) {
            candidates.push(EngineChoice {
                kind: EngineKind::Lanes,
                lane_width: width,
                threads,
                cached: false,
            });
        }
    }
    // The specialized twin joins the race only when installed, so a
    // never-specialized image races exactly the candidate set it always
    // did. Serial plus fully-sharded brackets the twin's useful range —
    // its scalar walk rarely profits from intermediate thread counts.
    if compiled.spec().is_some() {
        let max = resolve_threads(max_threads);
        candidates.push(EngineChoice {
            kind: EngineKind::Spec,
            lane_width: 0,
            threads: 1,
            cached: false,
        });
        if max > 1 {
            candidates.push(EngineChoice {
                kind: EngineKind::Spec,
                lane_width: 0,
                threads: max,
                cached: false,
            });
        }
    }

    let mut scratch = EngineScratch::new();
    let mut out = Vec::new();
    let mut trials = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, EngineChoice)> = None;
    for choice in candidates {
        // Warm-up pass: faults the sample and the arenas in, and
        // (for the parallel candidates) pages worker scratch to size.
        choice.classify_into(compiled, walk, sample_rows, &sample, &mut scratch, &mut out)?;
        let mut secs = f64::INFINITY;
        for _ in 0..CALIBRATE_PASSES {
            let t = Instant::now();
            choice.classify_into(compiled, walk, sample_rows, &sample, &mut scratch, &mut out)?;
            std::hint::black_box(out.len());
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        let mpps = sample_len as f64 / secs / 1e6;
        trials.push(Trial { choice, mpps });
        // Strict `>` keeps the earlier candidate on ties — deterministic
        // given equal clocks.
        if best.is_none_or(|(b, _)| mpps > b) {
            best = Some((mpps, choice));
        }
    }
    let (best_mpps, mut best_choice) = best.expect("the lane candidates always run");
    if cache_capacity > 0 {
        let candidate = best_choice.with_cache();
        let mut cache = crate::DecisionCache::new(compiled.schema().clone(), cache_capacity)?;
        // The batch front end partitions a whole batch into hits and misses
        // before any insert lands, so a single cold pass can never hit —
        // racing cold passes would reject the cache on every trace shape.
        // Instead the trial is a component race: one cold fill pass leaves
        // the sample's *distinct* tuples resident (inserts refresh matching
        // slots, so the resident count is the distinct count) ...
        candidate.classify_cached_into(
            compiled,
            walk,
            &sample,
            &mut cache,
            &mut scratch,
            &mut out,
        )?;
        let distinct = cache.len().min(sample_len);
        // ... warm timed passes measure the pure hit path ...
        let mut secs = f64::INFINITY;
        for _ in 0..CALIBRATE_PASSES {
            let t = Instant::now();
            candidate.classify_cached_into(
                compiled,
                walk,
                &sample,
                &mut cache,
                &mut scratch,
                &mut out,
            )?;
            std::hint::black_box(out.len());
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        let hit_mpps = sample_len as f64 / secs / 1e6;
        // ... and the trial's figure is the projected steady-state
        // throughput at the sample's repetition rate: hits serve at the
        // measured hit speed, misses pay the best uncached engine *plus*
        // the probe/insert overhead (approximated by the hit-path cost).
        // A uniform-random sample has distinct == sample_len, projects
        // strictly below the best engine, and rejects the cache; a skewed
        // sample's repeated flows project above it and elect the cache.
        let hit_rate = 1.0 - distinct as f64 / sample_len as f64;
        let miss_cost = 1.0 / best_mpps + 1.0 / hit_mpps;
        let mpps = 1.0 / (hit_rate / hit_mpps + (1.0 - hit_rate) * miss_cost);
        trials.push(Trial {
            choice: candidate,
            mpps,
        });
        if mpps > best_mpps {
            best_choice = candidate;
        }
    }
    Ok(Calibration {
        choice: best_choice,
        trials,
        sample: sample_len,
    })
}

impl CompiledFdd {
    /// Calibrates this image against a representative batch and records
    /// the winner in [`CompileStats::calibrated`], which
    /// [`CompiledFdd::classify_auto`] then routes through.
    ///
    /// See [`calibrate`] for the candidate set and determinism story.
    /// `max_threads` caps the lane kernel's thread ladder (`0` = all
    /// available cores). The choice is per (image, trace shape) and per
    /// machine — it is never serialized; recalibrate after decode.
    ///
    /// # Errors
    ///
    /// As for [`calibrate`].
    pub fn calibrate(
        &mut self,
        walk: Option<&Fdd>,
        rows: Option<&[Packet]>,
        batch: &PacketBatch,
        max_threads: usize,
    ) -> Result<Calibration, ExecError> {
        let cal = calibrate(self, walk, rows, batch, max_threads)?;
        self.stats.calibrated = Some(cal.choice);
        Ok(cal)
    }

    /// Classifies a batch through the calibrated engine choice
    /// ([`CompileStats::calibrated`]), falling back to
    /// [`EngineChoice::default`] on an uncalibrated image.
    ///
    /// # Errors
    ///
    /// As for the routed engine.
    pub fn classify_auto(&self, batch: &PacketBatch) -> Result<Vec<Decision>, ExecError> {
        let mut out = Vec::new();
        self.classify_auto_into(batch, &mut EngineScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Like [`CompiledFdd::classify_auto`], into a caller-provided buffer
    /// (cleared first) with caller-owned scratch — zero allocation per
    /// batch at steady state.
    ///
    /// A walk choice routes through the column gather here (the image does
    /// not own its source diagram); callers holding the `Fdd` — the live
    /// matcher, the CLI — route through [`EngineChoice::classify_into`]
    /// directly to replay rows.
    ///
    /// # Errors
    ///
    /// As for the routed engine.
    pub fn classify_auto_into(
        &self,
        batch: &PacketBatch,
        scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        // The profiling sampling arm: an armed profiler claims every N-th
        // batch for the instrumented walk (decision-identical); the
        // disarmed check is one relaxed load.
        if self.maybe_profile_into(batch, out)? {
            return Ok(());
        }
        self.stats
            .calibrated
            .unwrap_or_default()
            .classify_into(self, None, None, batch, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(rules: usize, n: usize, seed: u64) -> (fw_model::Firewall, CompiledFdd, PacketBatch) {
        let fw = fw_synth::Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), n, seed + 1);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        (fw, compiled, batch)
    }

    #[test]
    fn calibration_races_all_candidates_and_picks_a_winner() {
        let (fw, mut compiled, batch) = setup(30, 600, 15);
        let fdd = fw_core::Fdd::from_firewall_fast(&fw).unwrap().reduced();
        let trace: Vec<fw_model::Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
        let cal = compiled
            .calibrate(Some(&fdd), Some(&trace), &batch, 2)
            .unwrap();
        // walk + 4 widths × ladder(2) = {1, 2}.
        assert_eq!(cal.trials.len(), 1 + CALIBRATE_LANE_WIDTHS.len() * 2);
        assert!(cal
            .trials
            .iter()
            .all(|t| t.choice.kind == EngineKind::Walk || t.choice.kind == EngineKind::Lanes));
        assert_eq!(cal.sample, 600);
        assert!(cal.trials.iter().any(|t| t.choice == cal.choice));
        assert_eq!(compiled.stats().calibrated, Some(cal.choice));
        let best = cal.trials.iter().map(|t| t.mpps).fold(0.0, f64::max);
        let winner = cal.trials.iter().find(|t| t.choice == cal.choice).unwrap();
        assert!(winner.mpps >= best, "winner must have the best trial time");
    }

    #[test]
    fn auto_matches_every_engine_for_every_choice() {
        let (fw, compiled, batch) = setup(25, 401, 77);
        let fdd = fw_core::Fdd::from_firewall_fast(&fw).unwrap().reduced();
        let rows: Vec<fw_model::Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        let choices = [
            EngineChoice {
                kind: EngineKind::Walk,
                lane_width: 0,
                threads: 1,
                cached: false,
            },
            EngineChoice {
                kind: EngineKind::Columns,
                lane_width: 0,
                threads: 1,
                cached: false,
            },
            EngineChoice {
                kind: EngineKind::Lanes,
                lane_width: 16,
                threads: 1,
                cached: false,
            },
            EngineChoice {
                kind: EngineKind::Lanes,
                lane_width: 32,
                threads: 4,
                cached: false,
            },
        ];
        for choice in choices {
            // With rows and walk available.
            choice
                .classify_into(
                    &compiled,
                    Some(&fdd),
                    Some(&rows),
                    &batch,
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
            assert_eq!(out, expect, "{choice} with rows");
            // Batch-only: walk gathers from columns.
            choice
                .classify_into(&compiled, Some(&fdd), None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "{choice} batch-only");
            choice
                .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "{choice} degraded");
        }
    }

    #[test]
    fn cached_candidate_joins_the_race_and_serves_identically() {
        let (fw, compiled, batch) = setup(25, 900, 21);
        let cal = calibrate_with_cache(&compiled, None, None, &batch, 1, 1 << 10).unwrap();
        // 4 lane widths × ladder(1) + the cached arm.
        assert_eq!(cal.trials.len(), CALIBRATE_LANE_WIDTHS.len() + 1);
        let last = cal.trials.last().unwrap();
        assert!(last.choice.cached, "the cached arm races last");
        assert!(last.choice.to_string().starts_with("cache+"));
        assert_eq!(
            cal.trials.iter().filter(|t| t.choice.cached).count(),
            1,
            "exactly one cached candidate"
        );
        // Plain calibrate never races the cache.
        let base = calibrate(&compiled, None, None, &batch, 1).unwrap();
        assert!(base.trials.iter().all(|t| !t.choice.cached));
        // Whatever won, serving through the cached front end is identical.
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut cache = crate::DecisionCache::new(fw.schema().clone(), 1 << 10).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        cal.choice
            .classify_cached_into(&compiled, None, &batch, &mut cache, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn specialized_twin_joins_the_race_when_installed() {
        let (_, mut compiled, batch) = setup(30, 700, 33);
        let base = calibrate(&compiled, None, None, &batch, 2).unwrap();
        assert!(
            base.trials
                .iter()
                .all(|t| t.choice.kind != EngineKind::Spec),
            "no twin, no spec arm"
        );
        compiled
            .specialize(&crate::Profile::new_for(&compiled))
            .unwrap();
        let cal = compiled.calibrate(None, None, &batch, 2).unwrap();
        let spec_arms = cal
            .trials
            .iter()
            .filter(|t| t.choice.kind == EngineKind::Spec)
            .count();
        assert_eq!(spec_arms, 2, "serial + sharded spec arms");
        assert_eq!(cal.trials.len(), base.trials.len() + 2);
        // Routing a spec choice serves identically with and without the
        // twin installed (without, it degrades to the column walk).
        let expect = compiled.classify_columns(&batch).unwrap();
        let choice = EngineChoice {
            kind: EngineKind::Spec,
            lane_width: 0,
            threads: 2,
            cached: false,
        };
        assert_eq!(choice.to_string(), "spec/t2");
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        choice
            .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expect);
        compiled.clear_spec();
        choice
            .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expect, "degrades to columns without a twin");
    }

    #[test]
    fn uncalibrated_auto_uses_the_default_and_agrees() {
        let (_, compiled, batch) = setup(20, 333, 5);
        assert_eq!(compiled.stats().calibrated, None);
        let auto = compiled.classify_auto(&batch).unwrap();
        assert_eq!(auto, compiled.classify_columns(&batch).unwrap());
    }

    #[test]
    fn calibration_is_not_serialized() {
        let (_, mut compiled, batch) = setup(20, 256, 8);
        compiled.calibrate(None, None, &batch, 1).unwrap();
        assert!(compiled.stats().calibrated.is_some());
        let image = compiled.encode();
        let back = CompiledFdd::decode(compiled.schema().clone(), image).unwrap();
        assert_eq!(back.stats().calibrated, None, "FWEX carries no calibration");
        // Stats are part of image equality, so the machine-local choice is
        // the only thing separating a calibrated image from its decode.
        let mut cleared = compiled.clone();
        cleared.stats.calibrated = None;
        assert_eq!(cleared, back);
    }

    #[test]
    fn thread_ladder_is_monotone_and_capped() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn calibrate_rejects_empty_and_mismatched_batches() {
        let (fw, mut compiled, _) = setup(10, 16, 2);
        let empty = PacketBatch::from_trace(fw.schema().clone(), &[]).unwrap();
        assert!(matches!(
            compiled.calibrate(None, None, &empty, 1),
            Err(ExecError::Batch(_))
        ));
        let other = PacketBatch::from_trace(
            fw_model::Schema::paper_example(),
            &[fw_model::Packet::new(vec![0, 0, 0, 0, 0])],
        )
        .unwrap();
        assert!(matches!(
            compiled.calibrate(None, None, &other, 1),
            Err(ExecError::Model(_))
        ));
    }
}
