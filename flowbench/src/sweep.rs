//! The paper sweep: the 10→13-bit flow run in-process, each resolution
//! step signed off by the clocked transient and a behavioural sine test.

use crate::gen::{warmup_request, Traffic, RESOLUTIONS};
use adc_behav::metrics::sine_test;
use adc_behav::pipeline::{FlashBackend, PipelineAdc};
use adc_behav::stage::{StageModel, StageNonideality};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::specs::AdcSpec;
use adc_serve::protocol::BACKEND_BITS;
use adc_synth::SynthConfig;
use adc_topopt::cache::{BlockCache, CachePolicy};
use adc_topopt::enumerate::{enumerate_candidates, Candidate};
use adc_topopt::flow::{run_flow, FlowRequest, MdacBlock, SynthesisRun};
use adc_topopt::optimize::optimize_topology;
use adc_topopt::verify::{verify_candidate, ChainVerification, VerifyOptions};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// The paper's optimum per resolution (Fig. 2).
pub const PAPER_OPTIMA: [&str; 4] = ["3-2", "4-2", "4-2-2", "4-3-2"];
/// Threads sweeping concurrently.
pub const THREADS: usize = 2;
/// Points of the behavioural sine test.
pub const SINE_POINTS: usize = 4096;

/// One resolution of the sweep, ranked once in setup.
pub struct Step {
    /// Target spec.
    pub spec: AdcSpec,
    /// Enumerated candidates (every distinct MDAC is synthesized).
    pub candidates: Vec<Candidate>,
    /// The ranking's winner.
    pub winner: Candidate,
}

/// The ranked sweep.
pub struct Plan {
    /// Calibrated power model.
    pub params: PowerModelParams,
    /// Steps in sweep order (10 → 13 bits).
    pub steps: Vec<Step>,
}

/// Ranks every resolution and checks the winners are the paper's.
///
/// # Errors
/// A winner that differs from the paper.
pub fn plan() -> Result<Plan, String> {
    let params = PowerModelParams::calibrated();
    let mut steps = Vec::new();
    for (k, want) in RESOLUTIONS.iter().zip(PAPER_OPTIMA) {
        let spec = AdcSpec::date05(*k);
        let winner = optimize_topology(&spec, &params).best().candidate.clone();
        if winner.to_string() != want {
            return Err(format!("{k}-bit winner {winner}, the paper's is {want}"));
        }
        steps.push(Step {
            candidates: enumerate_candidates(*k, BACKEND_BITS),
            spec,
            winner,
        });
    }
    Ok(Plan { params, steps })
}

/// The sweep's set-up: [`plan`], then the warm-up request run once as a
/// sweep step, so lazily initialized state is paid before timing.
///
/// # Errors
/// As [`plan`].
pub fn setup() -> Result<Plan, String> {
    let plan = plan()?;
    let warmup = warmup_request();
    let mut cache = BlockCache::new(CachePolicy::Aggressive);
    run_step(&plan, &plan.steps[0], &warmup.cfg, &mut cache, 0, false);
    Ok(plan)
}

/// A behavioural model of `winner` built from its synthesized blocks:
/// each stage's gain error is `1/(A0·β)` at the block's achieved `A0`
/// plus the designed settling error, with kT/C sampling noise.
pub fn behavioural_model(
    spec: &AdcSpec,
    winner: &Candidate,
    blocks: &[MdacBlock],
    params: &PowerModelParams,
) -> PipelineAdc {
    let stages = design_chain(spec, winner.front_bits(), params)
        .iter()
        .map(|d| {
            let a0 = blocks
                .iter()
                .find(|b| b.key == d.spec.reuse_key())
                .and_then(|b| b.result.best_perf.get("a0"))
                .unwrap_or(d.a0_required);
            let gain_error =
                1.0 / (a0 * d.caps.beta) + 2.0_f64.powi(-(d.spec.output_accuracy as i32 + 1));
            let noise_rms = (adc_numerics::constants::KT_NOMINAL / d.caps.c_samp).sqrt()
                / (spec.full_scale / 2.0);
            StageModel::with_nonideality(
                d.spec.bits,
                StageNonideality {
                    gain_error,
                    noise_rms,
                    ..Default::default()
                },
            )
        })
        .collect();
    PipelineAdc::new(None, stages, FlashBackend::ideal(BACKEND_BITS))
}

/// What one resolution step produced.
pub struct StepOutput {
    /// The flow run.
    pub run: SynthesisRun,
    /// Chain verification of the winner (transient leg on).
    pub verify: Result<ChainVerification, String>,
    /// Behavioural ENOB of the winner.
    pub enob: f64,
}

/// One resolution step: the flow over every candidate, then the winner's
/// chain verification with the transient leg and its sine test.
pub fn run_step(
    plan: &Plan,
    step: &Step,
    cfg: &SynthConfig,
    cache: &mut BlockCache,
    seed: u64,
    serial: bool,
) -> StepOutput {
    let mut req = FlowRequest::new(&step.spec, &step.candidates, &plan.params, cfg);
    if serial {
        req = req.serial();
    }
    let run = run_flow(&req, Some(cache));
    let verify = verify_candidate(
        &step.spec,
        &step.winner,
        &run.blocks,
        &plan.params,
        &VerifyOptions::default(),
    );
    let adc = behavioural_model(&step.spec, &step.winner, &run.blocks, &plan.params);
    let enob = sine_test(&adc, SINE_POINTS, 0.95, seed).enob;
    StepOutput { run, verify, enob }
}

/// Whether every block of `winner`'s chain was synthesized feasible.
pub fn chain_feasible(step: &Step, blocks: &[MdacBlock], params: &PowerModelParams) -> bool {
    design_chain(&step.spec, step.winner.front_bits(), params)
        .iter()
        .all(|d| {
            blocks
                .iter()
                .any(|b| b.key == d.spec.reuse_key() && b.result.feasible)
        })
}

/// Digest of everything a step outputs: the synthesized blocks bit for
/// bit, the verification verdict and report, and the ENOB.
pub fn digest(out: &StepOutput) -> u64 {
    let mut h = DefaultHasher::new();
    for b in &out.run.blocks {
        b.key.hash(&mut h);
        b.result.feasible.hash(&mut h);
        b.result.evaluations.hash(&mut h);
        b.result.best_cost.to_bits().hash(&mut h);
        for x in &b.result.best_x {
            x.to_bits().hash(&mut h);
        }
    }
    match &out.verify {
        Ok(v) => {
            v.report.mna_dim.hash(&mut h);
            v.report.gain.to_bits().hash(&mut h);
            v.report.power.to_bits().hash(&mut h);
            if let Some(t) = &v.tran {
                (t.accepted, t.rejected, t.all_settled).hash(&mut h);
            }
        }
        Err(e) => e.hash(&mut h),
    }
    out.enob.to_bits().hash(&mut h);
    h.finish()
}

/// How a step's output is judged: `Err` when the flow lost blocks or the
/// sine test broke. The verification verdict is part of the output, not
/// a failure: at the sweep's budget some winners' chains do not verify
/// (their DC solve does not converge), deterministically, and the serial
/// batch oracle ([`check_against_serial`]) reproduces the same verdict.
/// Those steps are counted and reported with every result.
pub fn judge(step: &Step, out: &StepOutput) -> Result<(), String> {
    let k = step.spec.resolution;
    if !out.run.failures.is_empty() {
        return Err(format!(
            "{k}-bit flow lost {} blocks",
            out.run.failures.len()
        ));
    }
    if !out.enob.is_finite() {
        return Err(format!("{k}-bit sine test: ENOB {}", out.enob));
    }
    Ok(())
}

/// A winner whose chain did not verify, and whether every one of its
/// blocks had been synthesized feasible (a verifier failure on a design
/// the synthesis accepted, rather than a rejected design).
pub struct Unsigned {
    /// The verification error.
    pub error: String,
    /// Every block of the winner's chain is feasible.
    pub feasible: bool,
}

/// One timed step.
pub struct Record {
    /// Index in the seeded list (`sweep · 4 + step`).
    pub index: usize,
    /// Step latency, ms.
    pub latency_ms: f64,
    /// Completion, s since the window opened.
    pub end_s: f64,
    /// Output digest (compared with the serial oracle).
    pub digest: u64,
    /// Why the winner's chain did not verify, if it did not.
    pub unsigned: Option<Unsigned>,
    /// Why the step's output is wrong, if it is.
    pub failure: Option<String>,
}

/// The `cfg` of request `index`.
fn step_cfg(traffic: &Traffic, index: usize) -> SynthConfig {
    traffic.request(index).cfg
}

/// Sweeps from every thread for `seconds`: each thread takes the next
/// sweep of the seeded list and runs its four steps on a fresh
/// `Aggressive` cache, so later resolutions seed from earlier ones.
pub fn sweep_window(plan: &Plan, traffic: &Traffic, seconds: f64) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let per_thread: Vec<Vec<Record>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    'sweeps: while Instant::now() < deadline {
                        let sweep = next.fetch_add(1, Ordering::Relaxed);
                        let mut cache = BlockCache::new(CachePolicy::Aggressive);
                        for (k, step) in plan.steps.iter().enumerate() {
                            if Instant::now() >= deadline {
                                break 'sweeps;
                            }
                            let index = sweep * RESOLUTIONS.len() + k;
                            let cfg = step_cfg(traffic, index);
                            let t0 = Instant::now();
                            let out = run_step(plan, step, &cfg, &mut cache, index as u64, false);
                            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                            records.push(Record {
                                index,
                                latency_ms,
                                end_s: origin.elapsed().as_secs_f64(),
                                digest: digest(&out),
                                unsigned: out.verify.as_ref().err().map(|e| Unsigned {
                                    error: e.clone(),
                                    feasible: chain_feasible(step, &out.run.blocks, &plan.params),
                                }),
                                failure: judge(step, &out).err(),
                            });
                        }
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    let mut records: Vec<Record> = per_thread.into_iter().flatten().collect();
    records.sort_by_key(|r| r.index);
    records
}

/// Sweeps the batch oracle re-runs after the window.
pub const ORACLE_SWEEPS: usize = 2;

/// Re-runs a seeded sample of completed sweeps on the serial executor
/// and compares every step's digest. Returns the wrong steps.
pub fn check_against_serial(
    plan: &Plan,
    traffic: &Traffic,
    records: &[Record],
    seed: u64,
) -> Vec<(usize, String)> {
    let n = RESOLUTIONS.len();
    let done: std::collections::HashSet<usize> = records.iter().map(|r| r.index).collect();
    let complete: Vec<usize> = (0..=records.last().map_or(0, |r| r.index / n))
        .filter(|sweep| (0..n).all(|k| done.contains(&(sweep * n + k))))
        .collect();
    let mut rng = crate::gen::SplitMix64::new(seed ^ 0x7377_6565_7073);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < ORACLE_SWEEPS.min(complete.len()) {
        picked.insert(complete[rng.below(complete.len() as u64) as usize]);
    }
    let mut wrong = Vec::new();
    for sweep in picked {
        let mut cache = BlockCache::new(CachePolicy::Aggressive);
        for (k, step) in plan.steps.iter().enumerate() {
            let index = sweep * n + k;
            let out = run_step(
                plan,
                step,
                &step_cfg(traffic, index),
                &mut cache,
                index as u64,
                true,
            );
            let served = records.iter().find(|r| r.index == index).map(|r| r.digest);
            if served != Some(digest(&out)) {
                wrong.push((
                    index,
                    format!("step {index}: output differs from the serial batch oracle"),
                ));
            }
        }
    }
    wrong
}
