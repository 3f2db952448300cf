//! The traced run: per-layer numbers for one workload.
//!
//! Two parts. First the served list, once untraced and once with
//! client-side spans around every HTTP call, each on a freshly set-up
//! server; the ratio of their throughputs is the tracing overhead. Then
//! the first requests of the same list replayed in-process, one layer
//! call at a time, against caches warmed exactly as the server's was.
//! Every layer call is a span (name, start, end, parent, request); the
//! spans are written out when the run ends.

use crate::gen::{warmup_request, Traffic, Workload, RESOLUTIONS};
use crate::served::{self, Window};
use crate::stats::{by_name, merge_spans, spans_jsonl, throughput, Summary, Tracer};
use crate::sweep;
use crate::{oracle, Metric, Report};
use adc_mdac::opamp::{build_telescopic, build_two_stage, TelescopicParams, TwoStageParams};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_serve::protocol::{run_and_render_memo, ResultMemo, SubmitRequest, BACKEND_BITS};
use adc_sfg::nettf::{extract_tf_with, NetTfOptions, NetTfWorkspace};
use adc_spice::dc::{dc_operating_point_with, DcDamping, DcWorkspace};
use adc_synth::chain::{ChainEvaluator, ChainOptions};
use adc_synth::evaluator::{EvalOutcome, Evaluator};
use adc_synth::hybrid::{BenchSetup, HybridOptions, HybridOtaEvaluator};
use adc_synth::tran_chain::{TranChainEvaluator, TranChainOptions};
use adc_topopt::cache::{key_distance, BlockCache, CachePolicy, CacheStats, SharedCache};
use adc_topopt::enumerate::{enumerate_candidates, Candidate};
use adc_topopt::flow::{
    run_flow, run_flow_shared, synthesize_ota, BlockOrigin, FlowRequest, MdacBlock, RunStats,
    SynthesisRun, TemplateKind,
};
use adc_topopt::optimize::optimize_topology;
use adc_topopt::verify::{
    build_candidate_testbench, build_tran_setup, verify_candidate, VerifyOptions,
};
use adc_topopt::wire::JsonValue;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Requests of the list replayed in-process.
const REPLAY: usize = 16;
/// Distinct `(spec, cfg)` pairs, among the replayed requests whose
/// winner's chain verifies, whose costlier layers (schedule replay,
/// evaluator legs, transient, executor) are timed.
const DISTINCT: usize = 4;
/// Repetitions of each evaluator-leg timing.
const LEG_REPS: usize = 5;
/// Root-cancellation tolerance the hybrid evaluator applies to every
/// extracted transfer function.
const CANCEL_TOL: f64 = 1e-5;

/// How a timed metric is named from its span.
const TIMED: [(&str, &str, &str); 22] = [
    ("http.submit", "http.submit_ms", "ms"),
    ("http.poll", "http.poll_ms", "ms"),
    ("http.fetch", "http.fetch_ms", "ms"),
    ("protocol.run", "protocol.run_ms", "ms"),
    ("serve.overhead", "serve.overhead_ms", "ms"),
    ("flow.run", "flow.run_ms", "ms"),
    ("optimize.rank", "optimize.rank_ms", "ms"),
    ("verify.chain", "verify.chain_ms", "ms"),
    ("mdac.testbench", "mdac.testbench_ms", "ms"),
    ("verify.tran", "verify.tran_ms", "ms"),
    ("behav.sine_test", "behav.sine_test_ms", "ms"),
    ("wire.render", "wire.render_ms", "ms"),
    ("wire.parse", "wire.parse_ms", "ms"),
    ("synth.block", "synth.block_ms", "ms"),
    ("synth.hybrid_eval", "synth.hybrid_eval_us", "us"),
    ("synth.chain_eval", "synth.chain_eval_us", "us"),
    ("spice.dc", "spice.dc_us", "us"),
    ("sfg.tf", "sfg.tf_us", "us"),
    ("sfg.cancel_roots", "sfg.cancel_roots_us", "us"),
    ("sfg.unity_gain", "sfg.unity_gain_us", "us"),
    ("spice.chain_dc", "spice.chain_dc_us", "us"),
    ("sfg.chain_tf", "sfg.chain_tf_us", "us"),
];

/// Deterministic work counts of the replay (the *exact* rows).
#[derive(Default)]
struct Exact {
    flow: RunStats,
    cache: CacheStats,
    cache_entries: usize,
    mna_dim: Vec<usize>,
    tran_steps: usize,
    settled: usize,
}

/// A served window on a freshly set-up server.
fn served(traffic: &Traffic, seconds: f64, trace: bool) -> Result<Window, String> {
    let mut rig = served::boot(traffic)?;
    let window = served::serve_window(&mut rig, traffic, seconds, trace);
    rig.shutdown();
    Ok(window)
}

/// The flow caches of the replay. `server` mirrors the server's cache
/// and memo (what `protocol.run` sees); `flow` is the same history seen
/// by the flow layer alone. `paper_sweep` replays its flow layer on the
/// sweep's own per-sweep `Aggressive` cache.
struct Caches {
    server: SharedCache,
    memo: ResultMemo,
    flow: SharedCache,
    sweep: Option<(usize, BlockCache)>,
}

impl Caches {
    /// Warmed the way `served::boot` warms the server.
    fn warmed(traffic: &Traffic) -> Caches {
        let caches = Caches {
            server: SharedCache::with_default_shards(CachePolicy::Reproducible),
            memo: ResultMemo::new(),
            flow: SharedCache::with_default_shards(CachePolicy::Reproducible),
            sweep: None,
        };
        let prewarm = std::iter::once(warmup_request()).chain(traffic.pool.iter().cloned());
        for req in prewarm {
            run_and_render_memo(&req, &caches.server, true, &caches.memo);
            let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
            let params = PowerModelParams::calibrated();
            let flow_req = FlowRequest::new(&req.spec, &candidates, &params, &req.cfg);
            run_flow_shared(&flow_req, &caches.flow);
        }
        caches
    }
}

/// `RunStats` without the wall-clock deadline slack.
fn work_of(run: &SynthesisRun) -> RunStats {
    RunStats {
        deadline_slack_ms: None,
        ..run.stats
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        lookups: after.lookups - before.lookups,
        hits: after.hits - before.hits,
        near_seeds: after.near_seeds - before.near_seeds,
        insertions: after.insertions - before.insertions,
        corrupt_dropped: after.corrupt_dropped - before.corrupt_dropped,
    }
}

/// The run's blocks in the planner's order — the order candidates meet
/// their stages — each with the block that warm-starts it: the nearest
/// earlier block of the same template by the paper's `16·Δm + ΔA`
/// distance, ties to the smallest key (`None` for a cold start).
fn planned_schedule<'a>(
    req: &SubmitRequest,
    params: &PowerModelParams,
    blocks: &'a [MdacBlock],
) -> Vec<(&'a MdacBlock, Option<&'a MdacBlock>)> {
    let mut order: Vec<&MdacBlock> = Vec::new();
    for cand in enumerate_candidates(req.spec.resolution, BACKEND_BITS) {
        for design in design_chain(&req.spec, cand.front_bits(), params) {
            let key = design.spec.reuse_key();
            if let Some(b) = blocks.iter().find(|b| b.key == key) {
                if !order.iter().any(|o| o.key == key) {
                    order.push(b);
                }
            }
        }
    }
    (0..order.len())
        .map(|i| {
            let block = order[i];
            let mut earlier: Vec<&MdacBlock> = order[..i]
                .iter()
                .copied()
                .filter(|b| b.requirements.template == block.requirements.template)
                .collect();
            earlier.sort_by_key(|b| b.key);
            let warm = earlier
                .into_iter()
                .min_by_key(|b| key_distance(b.key, block.key));
            (block, warm.filter(|_| block.retargeted))
        })
        .collect()
}

/// An OTA testbench for a synthesized block, as its evaluator builds it.
fn block_bench(process: &adc_spice::process::Process, block: &MdacBlock, x: &[f64]) -> BenchSetup {
    let tb = match block.requirements.template {
        TemplateKind::Telescopic => build_telescopic(
            process,
            &TelescopicParams::from_vec(x),
            block.requirements.c_load,
        ),
        TemplateKind::TwoStage => build_two_stage(
            process,
            &TwoStageParams::from_vec(x),
            block.requirements.c_load,
        ),
    };
    BenchSetup::new(tb.circuit, tb.output, tb.supply, tb.devices)
}

/// Per-layer replay state.
struct Replay<'a> {
    traffic: &'a Traffic,
    params: PowerModelParams,
    tracer: Tracer,
    exact: Exact,
    /// Why the replay disagreed with itself or the served run.
    wrong: Vec<String>,
    /// Evaluations of the replayed syntheses.
    synth_evals: usize,
    enob: Vec<f64>,
    speedup: Vec<f64>,
    tran_failed: usize,
}

impl Replay<'_> {
    /// One request through every layer; the costlier ones only when
    /// `heavy` and the winner's chain verifies (its legs have nothing to
    /// time otherwise). Returns whether they ran.
    fn request(&mut self, caches: &mut Caches, index: usize, heavy: bool) -> bool {
        let req: SubmitRequest = self.traffic.request(index);
        let id = index as u64;
        let top = self.tracer.begin("replay", id);
        let params = self.params.clone();
        let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
        let flow_req =
            FlowRequest::new(&req.spec, &candidates, &params, &req.cfg).with_options(req.options);

        let (server_run, payload) = self.tracer.time("protocol.run", id, || {
            run_and_render_memo(&req, &caches.server, true, &caches.memo)
        });

        let (run, before, after, entries) = match &mut caches.sweep {
            Some((sweep_no, cache)) => {
                let sweep = index / RESOLUTIONS.len();
                if *sweep_no != sweep {
                    *sweep_no = sweep;
                    *cache = BlockCache::new(CachePolicy::Aggressive);
                }
                let before = cache.stats();
                let run = self
                    .tracer
                    .time("flow.run", id, || run_flow(&flow_req, Some(&mut *cache)));
                (run, before, cache.stats(), cache.len())
            }
            None => {
                let before = caches.flow.stats();
                let run = self
                    .tracer
                    .time("flow.run", id, || run_flow_shared(&flow_req, &caches.flow));
                (run, before, caches.flow.stats(), caches.flow.len())
            }
        };
        if caches.sweep.is_none() && work_of(&run) != work_of(&server_run) {
            self.wrong.push(format!(
                "request {index}: flow counts differ between two replays of one history: {:?} vs {:?}",
                work_of(&run),
                work_of(&server_run)
            ));
        }
        self.exact.flow.accumulate(&work_of(&run));
        let delta = cache_delta(after, before);
        self.exact.cache.lookups += delta.lookups;
        self.exact.cache.hits += delta.hits;
        self.exact.cache.near_seeds += delta.near_seeds;
        self.exact.cache.insertions += delta.insertions;
        self.exact.cache_entries = entries;

        let doc = self
            .tracer
            .time("wire.parse", id, || JsonValue::parse(&payload));
        match doc {
            Ok(doc) => {
                let rendered = self.tracer.time("wire.render", id, || doc.render());
                if rendered != payload {
                    self.wrong.push(format!(
                        "request {index}: payload does not re-render byte for byte"
                    ));
                }
            }
            Err(e) => self
                .wrong
                .push(format!("request {index}: payload does not parse: {e}")),
        }

        let report = self.tracer.time("optimize.rank", id, || {
            optimize_topology(&req.spec, &params)
        });
        let winner: Candidate = report.best().candidate.clone();
        let small_signal = VerifyOptions {
            tran: None,
            ..VerifyOptions::default()
        };
        let tb = self.tracer.time("mdac.testbench", id, || {
            build_candidate_testbench(&req.spec, &winner, &run.blocks, &params, &small_signal)
        });
        let verified = self.tracer.time("verify.chain", id, || {
            verify_candidate(&req.spec, &winner, &run.blocks, &params, &small_signal)
        });
        if let Ok(v) = &verified {
            self.exact.mna_dim.push(v.report.mna_dim);
        }
        let heavy = heavy && verified.is_ok();
        if heavy {
            if let Ok(tb) = &tb {
                self.chain_legs(id, tb);
                self.transient(id, &req, &winner, tb);
            }
            let adc = sweep::behavioural_model(&req.spec, &winner, &run.blocks, &params);
            let m = self.tracer.time("behav.sine_test", id, || {
                adc_behav::metrics::sine_test(&adc, sweep::SINE_POINTS, 0.95, id)
            });
            self.enob.push(m.enob);
            self.schedule(id, &req, &run);
            self.executor(&flow_req);
        }
        self.tracer.end(top);
        heavy
    }

    /// The chain evaluator and its DC and TF legs on the winner's chain.
    fn chain_legs(&mut self, id: u64, tb: &adc_mdac::netlist::PipelineTestbench) {
        let mut opts = ChainOptions::default();
        opts.dc.nodeset = tb.nodeset();
        opts.dc.damping = DcDamping::PerNode;
        let bench = BenchSetup::new(
            tb.circuit.clone(),
            tb.output,
            tb.supply.clone(),
            tb.devices.clone(),
        );
        let mut chain = ChainEvaluator::new(opts);
        for _ in 0..LEG_REPS {
            if self
                .tracer
                .time("synth.chain_eval", id, || chain.evaluate(&bench))
                .is_err()
            {
                return;
            }
        }
        let Ok(mut ws) = DcWorkspace::new(&tb.circuit) else {
            return;
        };
        let dc_opts = tb.dc_options();
        let mut op = None;
        for _ in 0..LEG_REPS {
            op = self
                .tracer
                .time("spice.chain_dc", id, || {
                    dc_operating_point_with(&mut ws, &tb.circuit, &dc_opts)
                })
                .ok();
        }
        let Some(op) = op else { return };
        let mut tf_ws = NetTfWorkspace::new();
        let nettf = NetTfOptions::default();
        for _ in 0..LEG_REPS {
            let tf = self.tracer.time("sfg.chain_tf", id, || {
                extract_tf_with(&mut tf_ws, &tb.circuit, &op, tb.output, &nettf)
            });
            black_box(tf.ok());
        }
    }

    /// The clocked transient leg of verification on the winner's chain.
    fn transient(
        &mut self,
        id: u64,
        req: &SubmitRequest,
        winner: &Candidate,
        tb: &adc_mdac::netlist::PipelineTestbench,
    ) {
        let gains = design_chain(&req.spec, winner.front_bits(), &self.params)
            .iter()
            .map(|d| d.spec.gain)
            .collect();
        let mut setup = build_tran_setup(&req.spec, tb, gains);
        let mut ev = TranChainEvaluator::new(TranChainOptions::default());
        match self
            .tracer
            .time("verify.tran", id, || ev.evaluate(&mut setup))
        {
            Ok(t) => {
                self.exact.tran_steps += t.accepted + t.rejected;
                self.exact.settled += t.stages.iter().filter(|s| s.settled).count();
            }
            Err(_) => self.tran_failed += 1,
        }
    }

    /// Replays the run's schedule block by block with `synthesize_ota`
    /// from the planner's warm sources, checks each result against the
    /// flow's, and times the evaluator legs on the synthesized sizing.
    fn schedule(&mut self, id: u64, req: &SubmitRequest, run: &SynthesisRun) {
        let process = &req.spec.process;
        let params = self.params.clone();
        for (block, warm) in planned_schedule(req, &params, &run.blocks) {
            let warm = warm.map(|b| &b.result);
            let result = self.tracer.time("synth.block", id, || {
                synthesize_ota(process, &block.requirements, &req.cfg, warm)
            });
            self.synth_evals += result.evaluations;
            // A block seeded from the cache started elsewhere; under the
            // sweep's `Aggressive` policy a hit may also carry another
            // resolution's ancestry. Everything else must replay exactly.
            let comparable = match block.origin {
                BlockOrigin::Cold | BlockOrigin::Retargeted => true,
                BlockOrigin::CacheHit => self.traffic.workload != Workload::PaperSweep,
                BlockOrigin::CacheSeeded => false,
            };
            if comparable
                && (result.best_x != block.result.best_x
                    || result.evaluations != block.result.evaluations)
            {
                self.wrong.push(format!(
                    "request {id}: block {:?} replay differs from the flow's result",
                    block.key
                ));
            }
            self.hybrid_legs(id, process, block);
        }
    }

    /// The hybrid evaluator and its four legs on one synthesized sizing.
    fn hybrid_legs(&mut self, id: u64, process: &adc_spice::process::Process, block: &MdacBlock) {
        let x = block.result.best_x.clone();
        let opts = HybridOptions::default();
        let ev = HybridOtaEvaluator::new(|x: &[f64]| block_bench(process, block, x), opts.clone());
        if let EvalOutcome::Failed(_) = ev.evaluate(&x) {
            return;
        }
        for _ in 0..LEG_REPS {
            black_box(
                self.tracer
                    .time("synth.hybrid_eval", id, || ev.evaluate(&x)),
            );
        }
        let bench = block_bench(process, block, &x);
        let Ok(mut dc) = DcWorkspace::new(&bench.circuit) else {
            return;
        };
        let mut op = None;
        for _ in 0..LEG_REPS {
            op = self
                .tracer
                .time("spice.dc", id, || {
                    dc_operating_point_with(&mut dc, &bench.circuit, &opts.dc)
                })
                .ok();
        }
        let Some(op) = op else { return };
        let mut tf_ws = NetTfWorkspace::new();
        let mut tf = None;
        for _ in 0..LEG_REPS {
            tf = self
                .tracer
                .time("sfg.tf", id, || {
                    extract_tf_with(&mut tf_ws, &bench.circuit, &op, bench.output, &opts.nettf)
                })
                .ok();
        }
        let Some(tf) = tf else { return };
        let mut cancelled = tf.clone();
        for _ in 0..LEG_REPS {
            let raw = tf.clone();
            cancelled = self.tracer.time("sfg.cancel_roots", id, || {
                raw.cancel_common_roots(CANCEL_TOL)
            });
        }
        for _ in 0..LEG_REPS {
            black_box(self.tracer.time("sfg.unity_gain", id, || {
                cancelled.unity_gain_freq(opts.f_probe, opts.f_max)
            }));
        }
    }

    /// The same request cold on the serial executor and on the parallel
    /// one.
    fn executor(&mut self, flow_req: &FlowRequest<'_>) {
        let t0 = Instant::now();
        black_box(run_flow(&flow_req.clone().serial(), None));
        let serial = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        black_box(run_flow(flow_req, None));
        let parallel = t0.elapsed().as_secs_f64();
        self.speedup.push(serial / parallel);
    }
}

/// Where spans are written: the build's target directory.
fn trace_path(traffic: &Traffic, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "flowbench/target".into(), std::path::PathBuf::from);
    dir.join("flowbench-trace")
        .join(format!("{}-seed{seed}.jsonl", traffic.workload.name()))
}

/// The traced run of any workload.
pub fn traced_run(traffic: &Traffic, seconds: f64, seed: u64) -> Result<Report, String> {
    let untraced = served(traffic, seconds / 2.0, false)?;
    let traced = served(traffic, seconds / 2.0, true)?;
    let mut wrong: Vec<String> = oracle::check_window(traffic, &traced, seed)
        .into_iter()
        .map(|(_, reason)| reason)
        .collect();
    let failed_runs: Vec<&served::Record> = traced
        .records
        .iter()
        .filter(|r| r.failure.is_some())
        .collect();

    let mut caches = Caches::warmed(traffic);
    if traffic.workload == Workload::PaperSweep {
        caches.sweep = Some((usize::MAX, BlockCache::new(CachePolicy::Aggressive)));
    }
    let mut replay = Replay {
        traffic,
        params: PowerModelParams::calibrated(),
        tracer: Tracer::new(Instant::now(), true),
        exact: Exact::default(),
        wrong: Vec::new(),
        synth_evals: 0,
        enob: Vec::new(),
        speedup: Vec::new(),
        tran_failed: 0,
    };
    let mut heavy_seen = HashSet::new();
    for index in 0..REPLAY {
        let mut key = traffic.request(index);
        key.options = Default::default();
        let key = key.canonical().render();
        let heavy = heavy_seen.len() < DISTINCT && !heavy_seen.contains(&key);
        if replay.request(&mut caches, index, heavy) {
            heavy_seen.insert(key);
        }
    }
    wrong.append(&mut replay.wrong);

    let replay_spans = replay.tracer.into_spans();
    // serve.overhead: served latency minus the in-process worker path,
    // for every replayed request the traced window served.
    let worker_ms: HashMap<u64, f64> = replay_spans
        .iter()
        .filter(|s| s.name == "protocol.run")
        .map(|s| (s.request, s.ms()))
        .collect();
    let overhead: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .filter_map(|r| worker_ms.get(&(r.index as u64)).map(|ms| r.latency_ms - ms))
        .collect();
    let mut spans = traced.spans.clone();
    merge_spans(&mut spans, replay_spans);
    let mut samples = by_name(&spans);
    samples.insert("serve.overhead", (overhead.clone(), overhead));

    let path = trace_path(traffic, seed);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, spans_jsonl(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut metrics = Vec::new();
    let mut notes = vec![format!(
        "per-layer: {} spans written to {}",
        spans.len(),
        path.display()
    )];
    notes.push(format!(
        "{:<24} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "layer", "n", "q1", "median", "q3", "self_median"
    ));
    for (span, name, unit) in TIMED {
        let (durations, selfs) = samples.get(span).cloned().unwrap_or_default();
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        let d: Vec<f64> = durations.iter().map(|v| v * scale).collect();
        let s = Summary::of(&d);
        let self_med = Summary::of(&selfs.iter().map(|v| v * scale).collect::<Vec<_>>()).median;
        notes.push(format!(
            "{name:<24} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            s.n, s.q1, s.median, s.q3, self_med
        ));
        metrics.push(Metric {
            name,
            unit,
            value: s.median,
        });
    }
    if let Some((_, selfs)) = samples.get("run") {
        notes.push(format!(
            "client run self time (poll back-off and parsing): median {:.4} ms over {} runs",
            Summary::of(selfs).median,
            selfs.len()
        ));
    }

    let ok: Vec<&served::Record> = traced
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .collect();
    let polls: Vec<f64> = ok.iter().map(|r| r.polls as f64).collect();
    let bytes: Vec<f64> = ok.iter().map(|r| r.payload_bytes as f64).collect();
    let rps = |w: &Window| {
        let ok = w.records.iter().filter(|r| r.failure.is_none());
        throughput(ok.map(|r| r.end_s), w.seconds)
    };
    let e = &replay.exact;
    let mut mna = e.mna_dim.clone();
    mna.sort_unstable();
    let scalars: Vec<(&'static str, &'static str, f64)> = vec![
        ("http.polls_per_run", "count", Summary::of(&polls).median),
        (
            "http.reuse_frac",
            "frac",
            1.0 - traced.http_connects as f64 / traced.http_requests.max(1) as f64,
        ),
        ("http.payload_bytes", "B", Summary::of(&bytes).median),
        ("flow.blocks", "count", e.flow.blocks as f64),
        ("flow.cold", "count", e.flow.cold as f64),
        ("flow.retargeted", "count", e.flow.retargeted as f64),
        ("flow.cache_seeded", "count", e.flow.cache_seeded as f64),
        ("flow.evaluations", "count", e.flow.evaluations_spent as f64),
        ("flow.failed", "count", e.flow.failed as f64),
        ("flow.recovered", "count", e.flow.recovered as f64),
        ("cache.lookups", "count", e.cache.lookups as f64),
        ("cache.hits", "count", e.cache.hits as f64),
        ("cache.insertions", "count", e.cache.insertions as f64),
        ("cache.near_seeds", "count", e.cache.near_seeds as f64),
        ("cache.entries", "count", e.cache_entries as f64),
        (
            "cache.hit_frac",
            "frac",
            e.cache.hits as f64 / e.cache.lookups.max(1) as f64,
        ),
        (
            "executor.speedup",
            "ratio",
            Summary::of(&replay.speedup).median,
        ),
        (
            "verify.mna_dim",
            "count",
            mna.get(mna.len() / 2).copied().unwrap_or(0) as f64,
        ),
        ("verify.tran_steps", "count", e.tran_steps as f64),
        ("verify.settled", "count", e.settled as f64),
        ("behav.enob", "bits", Summary::of(&replay.enob).median),
        (
            "synth.evals_per_s",
            "1/s",
            replay.synth_evals as f64 * 1e3
                / samples
                    .get("synth.block")
                    .map_or(0.0, |(d, _)| d.iter().sum()),
        ),
        ("trace.overhead", "ratio", rps(&traced) / rps(&untraced)),
    ];
    let mut exact_line = String::from("exact:");
    for (name, unit, value) in scalars {
        if unit == "count" && !name.starts_with("http.") {
            let _ = write!(exact_line, " {name}={value}");
        }
        metrics.push(Metric { name, unit, value });
    }
    notes.push(exact_line);
    notes.push(format!(
        "served: untraced {:.3} runs/s, traced {:.3} runs/s; executor speedup samples {}; \
         transient legs that did not converge {}; {} replayed requests ({} with every layer)",
        rps(&untraced),
        rps(&traced),
        replay.speedup.len(),
        replay.tran_failed,
        REPLAY,
        heavy_seen.len()
    ));
    for r in &failed_runs {
        notes.push(format!(
            "FAILED run {}: {}",
            r.index,
            r.failure.as_deref().unwrap_or("")
        ));
    }
    for w in &wrong {
        notes.push(format!("WRONG {w}"));
    }
    Ok(Report {
        correct: wrong.is_empty() && failed_runs.is_empty(),
        attempted: traced.records.len(),
        failed: (failed_runs.len() + wrong.len()).min(traced.records.len()),
        metrics,
        notes,
    })
}
