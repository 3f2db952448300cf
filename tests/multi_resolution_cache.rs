//! Cross-resolution synthesis-cache properties and executor determinism.
//!
//! The dependency-driven executor and the persistent [`BlockCache`] must
//! never change *what* gets synthesized, only *when* (executor) and *how
//! often* (cache, under the reproducible policy). These tests pin the
//! contracts end to end over two consecutive resolutions (10 → 11 bits):
//!
//! * cached, cache-cold and serial-oracle runs are **bit-identical** under
//!   [`CachePolicy::Reproducible`], with a cross-resolution hit rate > 0;
//! * the aggressive policy stays deterministic (serial ≡ parallel given the
//!   same cache state) and reuses strictly more;
//! * executor results are identical for 1, 2 and N worker threads.

use pipelined_adc::mdac::power::PowerModelParams;
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::synth::SynthConfig;
use pipelined_adc::topopt::cache::{BlockCache, CachePolicy};
use pipelined_adc::topopt::enumerate::enumerate_candidates;
use pipelined_adc::topopt::executor::ExecutorOptions;
use pipelined_adc::topopt::flow::{run_flow, FlowRequest, MdacBlock};

const RESOLUTIONS: [u32; 2] = [10, 11];

fn cfg() -> SynthConfig {
    SynthConfig {
        iterations: 10,
        nm_iterations: 2,
        seed: 9,
        ..Default::default()
    }
}

fn assert_blocks_bit_identical(label: &str, a: &[MdacBlock], b: &[MdacBlock]) {
    assert_eq!(a.len(), b.len(), "{label}: block count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.key, y.key, "{label}");
        assert_eq!(x.retargeted, y.retargeted, "{label}: key {:?}", x.key);
        assert_eq!(x.result.best_x, y.result.best_x, "{label}: key {:?}", x.key);
        assert_eq!(x.result.best_u, y.result.best_u, "{label}: key {:?}", x.key);
        assert_eq!(
            x.result.best_cost, y.result.best_cost,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.best_perf, y.result.best_perf,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.evaluations, y.result.evaluations,
            "{label}: key {:?}",
            x.key
        );
        assert_eq!(
            x.result.feasible, y.result.feasible,
            "{label}: key {:?}",
            x.key
        );
    }
}

/// Runs the two-resolution flow with an optional shared cache and the given
/// executor; returns per-resolution blocks and hit counts.
fn run_resolution_pair(
    cache: Option<&BlockCache>,
    exec: &ExecutorOptions,
    serial: bool,
) -> Vec<(Vec<MdacBlock>, usize)> {
    let params = PowerModelParams::calibrated();
    let config = cfg();
    RESOLUTIONS
        .iter()
        .map(|&k| {
            let spec = AdcSpec::date05(k);
            let cands = enumerate_candidates(k, 7);
            let req = if serial {
                FlowRequest::new(&spec, &cands, &params, &config).serial()
            } else {
                FlowRequest::new(&spec, &cands, &params, &config).with_executor(exec.clone())
            };
            let run = run_flow(&req, cache);
            (run.blocks, run.stats.cache_hits)
        })
        .collect()
}

/// The headline property: cached, cache-cold and serial-oracle synthesis
/// produce bit-identical candidate sets (and therefore identical optimizer
/// trajectories — `best_u`, costs and evaluation counts all match) across
/// two consecutive resolutions, and the reproducible cache still hits
/// across the resolution boundary.
#[test]
fn cached_cache_cold_and_serial_oracle_are_bit_identical() {
    let exec = ExecutorOptions::default();
    // Cache-cold baseline (no cache at all).
    let cold = run_resolution_pair(None, &exec, false);
    // Reproducible cache shared across both resolutions, parallel executor.
    let cache = BlockCache::new(CachePolicy::Reproducible);
    let cached = run_resolution_pair(Some(&cache), &exec, false);
    // Serial oracle with its own cache.
    let oracle_cache = BlockCache::new(CachePolicy::Reproducible);
    let oracle = run_resolution_pair(Some(&oracle_cache), &exec, true);

    for ((k, (a, _)), ((b, b_hits), (c, _))) in RESOLUTIONS
        .iter()
        .zip(cold.iter())
        .zip(cached.iter().zip(oracle.iter()))
    {
        assert_blocks_bit_identical(&format!("cold vs cached @ {k} bits"), a, b);
        assert_blocks_bit_identical(&format!("cached vs serial @ {k} bits"), b, c);
        let _ = b_hits;
    }
    // Cross-resolution reuse actually happened: the second resolution hit
    // at least the shared (2, 8) telescopic block.
    assert!(
        cached[1].1 > 0,
        "expected provenance-exact hits at 11 bits, stats: {:?}",
        cache.stats()
    );
    assert_eq!(cached[0].1, 0, "first resolution has nothing to hit");
}

/// The aggressive policy reuses strictly more than the reproducible one and
/// stays deterministic: serial and parallel executions over identically
/// warmed caches agree bit for bit.
#[test]
fn aggressive_cache_is_deterministic_and_reuses_more() {
    let exec = ExecutorOptions::default();
    let repro = BlockCache::new(CachePolicy::Reproducible);
    let repro_runs = run_resolution_pair(Some(&repro), &exec, false);

    let parallel_cache = BlockCache::new(CachePolicy::Aggressive);
    let parallel = run_resolution_pair(Some(&parallel_cache), &exec, false);
    let serial_cache = BlockCache::new(CachePolicy::Aggressive);
    let serial = run_resolution_pair(Some(&serial_cache), &exec, true);

    for (k, ((a, a_hits), (b, b_hits))) in
        RESOLUTIONS.iter().zip(parallel.iter().zip(serial.iter()))
    {
        assert_blocks_bit_identical(&format!("aggressive serial vs parallel @ {k} bits"), a, b);
        assert_eq!(a_hits, b_hits);
    }
    assert!(
        parallel[1].1 >= repro_runs[1].1,
        "aggressive ({}) must reuse at least as much as reproducible ({})",
        parallel[1].1,
        repro_runs[1].1
    );
    // And it eliminates every cold start at the second resolution: blocks
    // either hit exactly or warm-start from a cached/in-set neighbour.
    assert!(
        parallel_cache.stats().near_seeds > 0,
        "expected near-hit warm seeds, stats: {:?}",
        parallel_cache.stats()
    );
}

/// Executor determinism stress: the same candidate set synthesized with 1,
/// 2 and N worker threads yields bit-identical block lists.
#[test]
fn executor_results_identical_across_thread_counts() {
    let params = PowerModelParams::calibrated();
    let config = cfg();
    let spec = AdcSpec::date05(11);
    let cands = enumerate_candidates(11, 7);
    let baseline = run_flow(
        &FlowRequest::new(&spec, &cands, &params, &config)
            .with_executor(ExecutorOptions::with_threads(1)),
        None,
    );
    for threads in [2, 4, 8] {
        let run = run_flow(
            &FlowRequest::new(&spec, &cands, &params, &config)
                .with_executor(ExecutorOptions::with_threads(threads)),
            None,
        );
        assert_blocks_bit_identical(&format!("threads {threads}"), &baseline.blocks, &run.blocks);
        assert_eq!(baseline.stats, run.stats, "threads {threads}");
    }
}
