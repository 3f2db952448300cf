//! # flowbench — the repository's end-to-end and per-layer benchmark
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload <cold_serve|warm_serve|memo_serve|paper_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The paper's flow enumerates the stage-resolution candidates,
//! synthesizes every distinct MDAC once and reuses it across candidates,
//! ranks the candidates by power and signs off the winner. `adc-serve`
//! serves that flow and the batch paths run it in sweeps. This benchmark
//! times it the way a designer meets it, through public APIs only.
//!
//! ## Load shape
//!
//! One process generates all load: an in-process [`adc_serve::FlowServer`]
//! with 2 workers and small-signal verification on, and 2 client threads,
//! each on one keep-alive connection. The loop is closed: a client submits
//! its next run only after fetching the previous payload, polling at once
//! and then backing off from 20 µs (doubling, capped at 1 ms). The seed
//! fixes the whole request list ([`gen`]), so every run of a seed replays
//! the same resolution mix.
//!
//! ## Workloads, and why each
//!
//! | name | traffic | why |
//! |---|---|---|
//! | `cold_serve` | fresh `SynthConfig.seed` per request, resolutions 10–13 in shuffled blocks of four, budget 40/8 | every block synthesizes cold: the evaluator (`adc-synth`/`-spice`/`-sfg`/`-numerics`) and the executor do the work; the cache's write side |
//! | `warm_serve` | setup cold-synthesizes a seeded pool of 4 `(spec, cfg)` pairs, one per resolution (the block cache keeps 4 provenance chains per block spec, so a larger pool would evict its own blocks); each request resubmits one with a distinct, never-reached `run_budget_ms` | every block is an exact cache hit but the result memo (keyed by the canonical echo) misses: cache reads, chain verification, ranking and rendering |
//! | `memo_serve` | 4 requests (one per resolution) warmed in setup and resubmitted byte-identically | result-memo hits: HTTP framing, store/session, polling and the memo |
//! | `paper_sweep` | in-process, 2 threads; each repeats the 10→13-bit sweep with a fresh seed and a fresh `Aggressive` cache at budget 200/30; one run is one resolution step: `run_flow`, `verify_candidate` of the winner with the transient leg, `sine_test` of the winner | the only path through the clocked transient and `adc-behav`, and through cross-resolution near-hit seeding |
//!
//! `BENCHMARK.json` gates `cold_serve` and `warm_serve`; the other two run
//! by hand with the same command. Neither gives a steady end-to-end figure
//! on a shared 2-vCPU host:
//!
//! - `memo_serve` is a chain of sub-millisecond thread wake-ups, so it
//!   tracks the time the hypervisor steals from the guest rather than
//!   the program. Six 10 s runs minutes apart read 1 341–2 639 runs/s
//!   and a p95 of 1.14–4.57 ms, with 605 ticks of steal in the slow run
//!   and 23–38 in the others. The steal covers whole runs, so the slice
//!   medians below do not help: five 20 s runs spread 0.32 on
//!   `runs_per_s` and 0.69 on `latency_p95_ms`.
//! - `paper_sweep` is heavy-tailed. In five 30 s runs (seeds 11–15) with
//!   next to no steal, the 13-bit steps of seeds 12 and 13 each spent
//!   20–23 s in `verify_candidate` with the transient leg on, against
//!   about 0.1 s for a typical step. Such a step stalls one of the two
//!   threads for most of the window, so `runs_per_s` read 15.1–19.7 and
//!   spread 0.28. That tail is a finding for the transient engine.
//!
//! The layers both exercise are still measured by the traced runs of
//! the gated workloads: every layer, the transient and `adc-behav`
//! included, is timed on every workload's own requests.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! `runs_per_s`, `latency_p50_ms` and `latency_p95_ms` (submit to fetched
//! payload, client side) come from the runs completed inside the timed
//! window, cut in completion order into slices of 200 or more: each is
//! the median over the slices of that slice's figure, so a burst of host
//! contention over a minority of the window moves none of them, and
//! every slice's p95 has ten samples beyond it. A run still in flight
//! when the window closes counts in none of them, so one pathologically
//! slow run cannot stretch the window. `setup_s` covers server boot,
//! client connects, one fixed warm-up request and the pool pre-warm; it
//! is the median of nine set-ups per run. `failed_frac`
//! (failed, refused or wrong runs over runs attempted) is printed with
//! them; it is 0 on correct code, so it travels as the result's
//! `attempted`/`failed` fields rather than as a metric that reads 0.
//!
//! Output checks run after the window and count in neither. Every
//! distinct `warm_serve`/`memo_serve` payload, and a seeded sample of six
//! `cold_serve` payloads, must carry the batch oracle's `result` subtree
//! byte for byte (`run_and_render` on a fresh `Reproducible` cache) and
//! echo the body that was sent. The sweep must rank the paper's winners
//! (`3-2`/`4-2`/`4-2-2`/`4-3-2`), lose no block, and two seeded sweeps
//! re-run on the serial executor must reproduce every step bit for bit,
//! the verification verdict included. That verdict is reported, not
//! required: at the sweep's 200/30 budget the 4-bit front-stage blocks
//! are rarely feasible and a few percent of winners' chains fail DC
//! convergence in `verify_candidate` — some of them built only from
//! feasible blocks, which the run lists as `UNSIGNED` lines.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run serves the list twice, once untraced and once with
//! client-side spans around every HTTP call (their `runs_per_s` ratio is
//! `trace.overhead`), then replays its first requests in-process through
//! each layer against caches warmed the same way. Spans carry name,
//! start, end, parent and request index, stay in memory and are written
//! to `<target dir>/flowbench-trace/` when the run ends; self time is a
//! span's duration minus its children's. Timed rows report their median
//! (the printed table adds count and quartiles); *exact* rows are
//! deterministic counts that repeat bit for bit for a seed.
//!
//! | layer | metrics | should move | on / not on |
//! |---|---|---|---|
//! | `adc-serve` http (client spans) | `http.submit_ms`, `http.poll_ms`, `http.fetch_ms`, `http.polls_per_run`, `http.reuse_frac`, `http.payload_bytes` | p50, runs/s | `memo_serve` / <2 % of `cold_serve` |
//! | `adc-serve` server+protocol | `protocol.run_ms` (`run_and_render_memo`), `serve.overhead_ms` (served latency minus `protocol.run_ms`) | p50, p95 | `memo_serve` / `cold_serve` |
//! | `adc-topopt` flow | `flow.run_ms`; exact `flow.blocks`, `.cold`, `.retargeted`, `.cache_seeded`, `.evaluations`, `.failed`, `.recovered` | p50 | `cold_serve`, `paper_sweep` / `memo_serve` |
//! | `adc-topopt` cache | exact `cache.lookups`, `.hits`, `.insertions`, `.near_seeds`, `.entries`; `cache.hit_frac` | runs/s | `warm_serve` (reads), `cold_serve` (writes) |
//! | `adc-topopt` executor | `executor.speedup` (serial over parallel `run_flow`) | p50 more than runs/s | `cold_serve`, `paper_sweep` / `warm_serve` |
//! | optimize, verify, `adc-mdac` | `optimize.rank_ms`, `verify.chain_ms`, `mdac.testbench_ms`, exact `verify.mna_dim` | p50 | `warm_serve` / `memo_serve` |
//! | transient + `adc-behav` | `verify.tran_ms`, exact `verify.tran_steps`, `verify.settled`; `behav.sine_test_ms`, `behav.enob` | p50, runs/s | `paper_sweep` only |
//! | `adc-topopt` wire | `wire.render_ms`, `wire.parse_ms` | p50 | `warm_serve`, `memo_serve` / `cold_serve` |
//! | `adc-synth` | `synth.block_ms` (replayed schedule), `synth.evals_per_s`, `synth.hybrid_eval_us`, `synth.chain_eval_us` | p50, runs/s | `cold_serve`, `paper_sweep` / `warm_serve`, `memo_serve` |
//! | `adc-spice`, `adc-sfg` legs | `spice.dc_us`, `sfg.tf_us`, `sfg.cancel_roots_us`, `sfg.unity_gain_us`, `spice.chain_dc_us`, `sfg.chain_tf_us` | p50 | `cold_serve` (hybrid), `warm_serve` (chain) / `memo_serve` |
//!
//! Every layer is timed on every workload's own requests, so a row exists
//! on each; the last column says where it weighs in the end-to-end time.
//!
//! ## Why not `bench_serve` / `bench_eval`
//!
//! `bench_serve` times only the memo path, 128 runs in about 70 ms from
//! 4 clients on 2 cores with a fixed 1 ms poll sleep that is half of the
//! latency it reports; five back-to-back runs read 1 769–2 753 runs/s
//! and a p99 of 2.3–8.7 ms. `bench_eval` rows are single-shot wall-clock
//! timings whose run-to-run spread matches the 30 % gate. Neither times a
//! cold or cache-warm served request. They stay until CI stops calling
//! them.
//!
//! ## Measured spread
//!
//! Ten runs per gated workload, one per seed 1–10, 45 s windows, on a
//! 2-core x86-64 container with the AVX2 backend. Each cell is the
//! median, then in parentheses the spread: the distance between the first
//! and third quartiles (`statistics.quantiles(values, n=4)`) over the
//! median.
//!
//! | workload | `runs_per_s` | `latency_p50_ms` | `latency_p95_ms` | `setup_s` |
//! |---|---|---|---|---|
//! | `cold_serve` | 23.73 (0.136) | 82.05 (0.131) | 137.6 (0.105) | 0.0332 (0.170) |
//! | `warm_serve` | 146.5 (0.039) | 13.68 (0.053) | 22.23 (0.051) | 0.2520 (0.083) |
//!
//! Within a run the numbers are steady; between runs the host is not.
//! `cold_serve` read about 25 runs/s on seeds 1–5 and about 21.5 on seeds
//! 6–10, the next four minutes, with little steal in either half; across
//! seeds the content itself moves the figures by a few percent, since the
//! served lists are balanced in blocks of four resolutions. Host drift,
//! not the seeded content, is most of every spread above, and it is why
//! every bound is 0.25, the widest the benchmark format allows.
//!
//! Every result is stamped with the SIMD backend, whether
//! `ADC_FORCE_SCALAR` is set, `nproc` and the client/worker counts, so
//! numbers from different machines are never compared silently.

mod gen;
mod layers;
mod oracle;
mod served;
mod stats;
mod sweep;

use gen::{check_seed_purity, Traffic, Workload};
use stats::{median, Summary};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: flowbench --workload <cold_serve|warm_serve|memo_serve|paper_sweep> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.unwrap_or(false),
    })
}

/// The environment stamp printed with every result.
fn environment() -> String {
    let forced = std::env::var("ADC_FORCE_SCALAR").unwrap_or_default();
    format!(
        "env: simd_backend={} ADC_FORCE_SCALAR={} nproc={} clients={} workers={}",
        adc_numerics::simd::backend_name(),
        if forced.is_empty() {
            "unset"
        } else {
            forced.as_str()
        },
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        served::CLIENTS,
        served::WORKERS,
    )
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run reports.
pub struct Report {
    /// Output checks passed.
    pub correct: bool,
    /// Runs attempted in the timed window.
    pub attempted: usize,
    /// Runs failed, refused or wrong.
    pub failed: usize,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A run that completed without failing, as the end-to-end metrics see
/// it.
struct Completed {
    /// Request index.
    index: usize,
    /// Submit to result, ms.
    latency_ms: f64,
    /// Completion, s since the window opened.
    end_s: f64,
}

/// Latency percentiles and throughput ([`stats::sliced`]) and failure
/// share of a timed window.
fn end_to_end_metrics(
    done: &[Completed],
    attempted: usize,
    failed: usize,
    seconds: f64,
    setup_s: f64,
) -> (Vec<Metric>, String) {
    let stats::Sliced {
        runs_per_s,
        p50_ms: p50,
        p95_ms: p95,
        slices,
    } = stats::sliced(done.iter().map(|c| (c.end_s, c.latency_ms)), seconds);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let slowest = done
        .iter()
        .max_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    let line = format!(
        "end-to-end: runs_per_s={runs_per_s:.3} 1/s  latency_p50_ms={p50:.4} ms  latency_p95_ms={p95:.4} ms  \
         failed_frac={failed_frac} frac  setup_s={setup_s:.4} s  (runs {attempted}, failed {failed}, \
         medians over {slices} slices of {} or more, slowest run {} at {:.1} ms)",
        stats::SLICE_RUNS,
        slowest.map_or(0, |c| c.index),
        slowest.map_or(0.0, |c| c.latency_ms),
    );
    let metrics = vec![
        Metric {
            name: "runs_per_s",
            unit: "1/s",
            value: runs_per_s,
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: p50,
        },
        Metric {
            name: "latency_p95_ms",
            unit: "ms",
            value: p95,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
    ];
    (metrics, line)
}

/// Latency quartiles per resolution: the modes of the end-to-end
/// latency distribution.
fn by_resolution(traffic: &Traffic, done: &[Completed]) -> String {
    let mut groups: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for c in done {
        let k = traffic.request(c.index).spec.resolution;
        groups.entry(k).or_default().push(c.latency_ms);
    }
    let mut line = String::from("latency by resolution:");
    for (k, v) in groups {
        let s = Summary::of(&v);
        let _ = write!(
            line,
            "  {k}-bit n={} q1={:.3} p50={:.3} q3={:.3} ms",
            s.n, s.q1, s.median, s.q3
        );
    }
    line
}

/// Times `SETUP_REPS` set-ups and keeps the last one.
fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let made = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// The untraced run of a served workload.
fn served_run(traffic: &Traffic, seconds: f64, seed: u64) -> Result<Report, String> {
    let (mut rig, setup_s) = timed_setups(|| served::boot(traffic), served::Rig::shutdown)?;
    let window = served::serve_window(&mut rig, traffic, seconds, false);
    rig.shutdown();
    let wrong = oracle::check_window(traffic, &window, seed);
    let mut notes = Vec::new();
    let mut failed_idx: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for r in &window.records {
        if let Some(reason) = &r.failure {
            notes.push(format!("FAILED run {}: {reason}", r.index));
            failed_idx.insert(r.index);
        }
    }
    for (i, reason) in &wrong {
        notes.push(format!("WRONG {reason}"));
        failed_idx.insert(*i);
    }
    let done: Vec<Completed> = window
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| Completed {
            index: r.index,
            latency_ms: r.latency_ms,
            end_s: r.end_s,
        })
        .collect();
    let attempted = window.records.len();
    let completed = done.len();
    let (metrics, line) =
        end_to_end_metrics(&done, attempted, failed_idx.len(), window.seconds, setup_s);
    notes.push(line);
    notes.push(by_resolution(traffic, &done));
    let polls: Vec<f64> = window.records.iter().map(|r| r.polls as f64).collect();
    notes.push(format!(
        "checks: {} distinct payloads, {} checked against the batch oracle, {} wrong; polls/run median {:.1}",
        window.payloads.len(),
        if traffic.workload == Workload::ColdServe { oracle::COLD_SAMPLE.min(completed) } else { window.payloads.len() },
        wrong.len(),
        Summary::of(&polls).median
    ));
    Ok(Report {
        correct: wrong.is_empty() && failed_idx.is_empty(),
        attempted,
        failed: failed_idx.len(),
        metrics,
        notes,
    })
}

/// The untraced run of the paper sweep.
fn sweep_run(traffic: &Traffic, seconds: f64, seed: u64) -> Result<Report, String> {
    let (plan, setup_s) = timed_setups(sweep::setup, drop)?;
    let records = sweep::sweep_window(&plan, traffic, seconds);
    let wrong = sweep::check_against_serial(&plan, traffic, &records, seed);
    let mut notes = Vec::new();
    let mut failed_idx = std::collections::BTreeSet::new();
    for r in &records {
        if let Some(reason) = &r.failure {
            notes.push(format!("FAILED step {}: {reason}", r.index));
            failed_idx.insert(r.index);
        }
    }
    for (i, reason) in &wrong {
        notes.push(format!("WRONG {reason}"));
        failed_idx.insert(*i);
    }
    let failed = failed_idx.len();
    let done: Vec<Completed> = records
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| Completed {
            index: r.index,
            latency_ms: r.latency_ms,
            end_s: r.end_s,
        })
        .collect();
    let (metrics, line) = end_to_end_metrics(&done, records.len(), failed, seconds, setup_s);
    notes.push(line);
    notes.push(by_resolution(traffic, &done));
    let unsigned: Vec<(usize, &sweep::Unsigned)> = records
        .iter()
        .filter_map(|r| r.unsigned.as_ref().map(|u| (r.index, u)))
        .collect();
    let feasible_unsigned = unsigned.iter().filter(|(_, u)| u.feasible).count();
    notes.push(format!(
        "checks: winners {}; {} of {} winners' chains verified; {} sweeps re-run on the serial \
         batch oracle, {} steps differ",
        sweep::PAPER_OPTIMA.join("/"),
        records.len() - unsigned.len(),
        records.len(),
        sweep::ORACLE_SWEEPS,
        wrong.len()
    ));
    notes.push(format!(
        "sign-off: {} chains did not verify, {feasible_unsigned} of them built only from feasible blocks",
        unsigned.len()
    ));
    for (index, u) in unsigned.iter().filter(|(_, u)| u.feasible) {
        notes.push(format!(
            "UNSIGNED feasible chain, step {index}: {}",
            u.error
        ));
    }
    Ok(Report {
        correct: failed == 0,
        attempted: records.len(),
        failed,
        metrics,
        notes,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    check_seed_purity(args.workload, args.seed)?;
    let traffic = Traffic::new(args.workload, args.seed);
    match (args.trace, args.workload) {
        (true, _) => layers::traced_run(&traffic, args.seconds, args.seed),
        (false, Workload::PaperSweep) => sweep_run(&traffic, args.seconds, args.seed),
        (false, _) => served_run(&traffic, args.seconds, args.seed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "flowbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", environment());
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A layer this run never reached has no samples; the result line
    // carries numbers only, so it reads 0 and the run says why.
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report
                .notes
                .push(format!("{}: no samples in this run, reported as 0", m.name));
            m.value = 0.0;
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
