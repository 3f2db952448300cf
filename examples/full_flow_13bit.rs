//! The complete designer-driven flow for the paper's 13-bit case:
//! enumeration → analytic ranking → circuit-grounded synthesis of the
//! distinct MDAC opamps of the two leading candidates (cached
//! dependency-driven executor with reuse / retargeting) → chain-level
//! verification of the winner → rule derivation.
//!
//! Run with `cargo run --release --example full_flow_13bit` (takes a
//! minute or two: every block synthesis runs DC Newton + transfer-function
//! extraction per candidate sizing).

use pipelined_adc::mdac::power::PowerModelParams;
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::synth::SynthConfig;
use pipelined_adc::topopt::cache::{BlockCache, CachePolicy};
use pipelined_adc::topopt::enumerate::Candidate;
use pipelined_adc::topopt::flow::{distinct_mdac_specs, run_flow, FlowRequest};
use pipelined_adc::topopt::optimize::optimize_topology;
use pipelined_adc::topopt::report::{fig1_table, fig3_table, verify_table};
use pipelined_adc::topopt::rules::derive_rules;
use pipelined_adc::topopt::verify::{verify_candidate, VerifyOptions};

fn main() {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();

    println!("== Step 1: enumeration + analytic ranking (Fig. 1 data) ==");
    let report = optimize_topology(&spec, &params);
    print!("{}", fig1_table(&report));

    println!("\n== Step 2: distinct MDACs across all seven candidates ==");
    let cands: Vec<Candidate> = report.rows.iter().map(|r| r.candidate.clone()).collect();
    let keys = distinct_mdac_specs(&spec, &cands);
    println!("{} distinct (m, accuracy) blocks: {:?}", keys.len(), keys);

    println!("\n== Step 3: circuit-grounded synthesis of the leading candidates' blocks ==");
    let leading: Vec<Candidate> = report
        .rows
        .iter()
        .take(2)
        .map(|r| r.candidate.clone())
        .collect();
    println!(
        "synthesizing blocks of {} and {} on the cached dependency-driven executor…",
        leading[0], leading[1]
    );
    let cfg = SynthConfig {
        iterations: 500,
        nm_iterations: 80,
        seed: 3,
        ..Default::default()
    };
    let cache = BlockCache::new(CachePolicy::Aggressive);
    let run = run_flow(
        &FlowRequest::new(&spec, &leading, &params, &cfg),
        Some(&cache),
    );
    println!(
        "scheduled {} blocks: {} cold, {} retargeted, {} cache-seeded, {} cache hits ({} evaluations)",
        run.stats.blocks,
        run.stats.cold,
        run.stats.retargeted,
        run.stats.cache_seeded,
        run.stats.cache_hits,
        run.stats.evaluations_spent,
    );
    println!(
        "{:<12}{:>10}{:>12}{:>12}{:>12}{:>8}",
        "block", "feasible", "power[mW]", "a0", "fu[MHz]", "warm"
    );
    for b in &run.blocks {
        println!(
            "({}, {:>2})   {:>10}{:>12.3}{:>12.1}{:>12.1}{:>8}",
            b.key.0,
            b.key.1,
            b.result.feasible,
            b.result.best_perf.get("power").unwrap_or(f64::NAN) * 1e3,
            b.result.best_perf.get("a0").unwrap_or(f64::NAN),
            b.result.best_perf.get("unity_freq").unwrap_or(f64::NAN) / 1e6,
            b.retargeted,
        );
    }

    println!("\n== Step 4: chain-level verification of the winner ==\n");
    let winner = report.best().candidate.clone();
    match verify_candidate(
        &spec,
        &winner,
        &run.blocks,
        &params,
        &VerifyOptions::default(),
    ) {
        Ok(v) => print!("{}", verify_table(std::slice::from_ref(&v))),
        Err(e) => println!("chain verification failed: {e}"),
    }

    println!("\n== Step 5: derived optimum rules (Fig. 3) ==");
    let rules = derive_rules(8..=13, &params);
    print!("{}", fig3_table(&rules));
}
