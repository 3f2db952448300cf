//! Micro-benchmarks of the substrates the flow leans on: the DC Newton
//! solve, the DPI/SFG + Mason symbolic analysis, numeric TF extraction
//! and its root finding, the sparse symbolic LU analysis of a full chain
//! and the FFT-based converter metrics.

use adc_behav::metrics::sine_test;
use adc_behav::pipeline::PipelineAdc;
use adc_mdac::opamp::{build_telescopic, TelescopicParams, TwoStageParams};
use adc_mdac::power::{design_chain, PowerModelParams};
use adc_mdac::specs::AdcSpec;
use adc_numerics::roots::poly_roots;
use adc_numerics::sparse::{CsrPattern, Symbolic};
use adc_sfg::dpi::DpiSfg;
use adc_sfg::nettf::{extract_tf, NetTfOptions};
use adc_spice::dc::{dc_operating_point, DcOptions};
use adc_spice::linearize::SmallSignal;
use adc_spice::process::Process;
use adc_synth::{Performance, SynthResult};
use adc_topopt::enumerate::Candidate;
use adc_topopt::flow::{ota_requirements, BlockOrigin, MdacBlock, TemplateKind};
use adc_topopt::verify::{build_candidate_testbench, VerifyOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Small-signal pattern (`base` + `cap_entries`) of the 13-bit `4-3-2`
/// winner's chain testbench (dim 124) at nominal OTA sizings — the pattern
/// verification analyzes afresh on every served request.
fn chain_432_pattern() -> Arc<CsrPattern> {
    let spec = AdcSpec::date05(13);
    let params = PowerModelParams::calibrated();
    let blocks: Vec<MdacBlock> = design_chain(&spec, &[4, 3, 2], &params)
        .iter()
        .map(|d| {
            let requirements = ota_requirements(d, &spec);
            let best_x = match requirements.template {
                TemplateKind::Telescopic => TelescopicParams::nominal().to_vec(),
                TemplateKind::TwoStage => TwoStageParams::nominal().to_vec(),
            };
            MdacBlock {
                key: d.spec.reuse_key(),
                requirements,
                result: SynthResult {
                    best_x,
                    best_u: Vec::new(),
                    best_perf: Performance::default(),
                    best_cost: 0.0,
                    feasible: true,
                    evaluations: 0,
                },
                retargeted: false,
                origin: BlockOrigin::Cold,
            }
        })
        .collect();
    let tb = build_candidate_testbench(
        &spec,
        &Candidate::new(vec![4, 3, 2]),
        &blocks,
        &params,
        &VerifyOptions::default(),
    )
    .unwrap();
    let op = dc_operating_point(&tb.circuit, &tb.dc_options()).unwrap();
    let mut ss = SmallSignal::new();
    ss.bind(&tb.circuit, &op, 0.0).unwrap();
    let entries: Vec<(usize, usize)> = ss
        .base
        .iter()
        .chain(ss.cap_entries.iter())
        .map(|&(r, c, _)| (r, c))
        .collect();
    CsrPattern::from_entries(ss.dim(), &entries).0
}

fn bench(c: &mut Criterion) {
    let proc = Process::c025();
    let tb = build_telescopic(&proc, &TelescopicParams::nominal(), 1e-12);
    let op = dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap();

    c.bench_function("dc_newton_telescopic_ota", |b| {
        b.iter(|| black_box(dc_operating_point(&tb.circuit, &DcOptions::default()).unwrap()))
    });
    c.bench_function("nettf_extraction_telescopic", |b| {
        b.iter(|| {
            black_box(extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default()).unwrap())
        })
    });
    // Aberth on the extracted numerator and denominator: the root finding
    // behind every hybrid evaluation's pole-zero cancellation.
    let tf = extract_tf(&tb.circuit, &op, tb.output, &NetTfOptions::default()).unwrap();
    c.bench_function("poly_roots_ota_tf", |b| {
        b.iter(|| {
            black_box(poly_roots(black_box(tf.num().coeffs())));
            black_box(poly_roots(black_box(tf.den().coeffs())))
        })
    });

    let chain = chain_432_pattern();
    c.bench_function("symbolic_analyze_chain", |b| {
        b.iter(|| black_box(Symbolic::analyze(black_box(&chain)).unwrap()))
    });

    // DPI/Mason on a common-source stage (symbolic path).
    let mut cs = adc_spice::Circuit::new();
    let vdd = cs.node("vdd");
    let g = cs.node("g");
    let d = cs.node("d");
    cs.add_vsource("VDD", vdd, adc_spice::Circuit::GROUND, 3.3);
    cs.add_vsource_wave("VG", g, adc_spice::Circuit::GROUND, 0.8.into(), 1.0);
    cs.add_resistor("RD", vdd, d, 10e3);
    cs.add_capacitor("CL", d, adc_spice::Circuit::GROUND, 1e-12);
    cs.add_mosfet(
        "M1",
        d,
        g,
        adc_spice::Circuit::GROUND,
        adc_spice::Circuit::GROUND,
        proc.nmos,
        5e-6,
        0.5e-6,
    );
    let op_cs = dc_operating_point(&cs, &DcOptions::default()).unwrap();
    c.bench_function("dpi_mason_symbolic_common_source", |b| {
        b.iter(|| {
            let dpi = DpiSfg::build(&cs, &op_cs, g).unwrap();
            black_box(dpi.tf(d).unwrap())
        })
    });

    let adc = PipelineAdc::ideal(&[4, 3, 2], 7);
    let mut grp = c.benchmark_group("behavioural");
    grp.sample_size(20);
    grp.bench_function("sine_test_4096pt_13bit", |b| {
        b.iter(|| black_box(sine_test(&adc, 4096, 0.95, 1)))
    });
    grp.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
