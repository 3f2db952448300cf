//! Circuit-level verification of a ranked topology: build the 13-bit
//! winner's full-pipeline chain testbench (hierarchical MDAC stage
//! subcircuits with real inter-stage loading) from freshly synthesized
//! blocks, solve it through the reusable DC/TF workspaces, and report the
//! chain-level numbers next to the summed-stage estimates.
//!
//! Run with `cargo run --release --example pipeline_verification`.

use pipelined_adc::mdac::power::PowerModelParams;
use pipelined_adc::mdac::specs::AdcSpec;
use pipelined_adc::synth::SynthConfig;
use pipelined_adc::topopt::cache::{BlockCache, CachePolicy};
use pipelined_adc::topopt::flow::{run_flow, FlowRequest};
use pipelined_adc::topopt::optimize::optimize_topology;
use pipelined_adc::topopt::report::verify_table;
use pipelined_adc::topopt::verify::{build_candidate_testbench, verify_candidate, VerifyOptions};

fn main() {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();

    println!("== Step 1: analytic ranking picks the winner ==");
    let report = optimize_topology(&spec, &params);
    let winner = report.best().candidate.clone();
    println!(
        "winner: {winner} at {:.2} mW summed",
        report.best().total_power * 1e3
    );

    println!("\n== Step 2: synthesize the winner's MDAC blocks (cached executor) ==");
    let cfg = SynthConfig {
        iterations: 300,
        nm_iterations: 40,
        seed: 11,
        ..Default::default()
    };
    let cache = BlockCache::new(CachePolicy::Aggressive);
    let winner_set = std::slice::from_ref(&winner);
    let run = run_flow(
        &FlowRequest::new(&spec, winner_set, &params, &cfg),
        Some(&cache),
    );
    for b in &run.blocks {
        println!(
            "  block ({}, {:>2}): feasible {}, power {:.3} mW, a0 {:.0}",
            b.key.0,
            b.key.1,
            b.result.feasible,
            b.result.best_perf.get("power").unwrap_or(f64::NAN) * 1e3,
            b.result.best_perf.get("a0").unwrap_or(f64::NAN),
        );
    }

    println!("\n== Step 3: assemble the hierarchical chain testbench ==");
    let opts = VerifyOptions::default();
    let tb = build_candidate_testbench(&spec, &winner, &run.blocks, &params, &opts)
        .expect("chain testbench");
    println!(
        "  {} stages, {} elements, {} MNA unknowns, expected gain {}",
        tb.stages.len(),
        tb.circuit.elements().len(),
        tb.mna_dim(),
        tb.expected_gain
    );

    println!("\n== Step 4: chain-level verification ==\n");
    match verify_candidate(&spec, &winner, &run.blocks, &params, &opts) {
        Ok(v) => print!("{}", verify_table(std::slice::from_ref(&v))),
        Err(e) => println!("verification failed: {e}"),
    }
}
