//! `adc-serve` binary: run the resident flow server, or exercise it end
//! to end with `--smoke` (the CI gate).
//!
//! ```text
//! adc-serve [--addr HOST:PORT] [--workers N] [--max-inflight N] [--verify]
//!           [--snapshot PATH] [--snapshot-every SECS]
//! adc-serve --smoke [--snapshot PATH]
//! ```
//!
//! Smoke mode boots a server on an ephemeral port, checks keep-alive
//! connection reuse, submits a small 10-bit run over real sockets, polls
//! it to `Completed`, diffs the fetched payload's deterministic subtree
//! against the batch oracle, resubmits the same spec against the now-warm
//! cache, and requires the replay to be pure cache hits (zero cold
//! syntheses) — the acceptance contract of the serving layer. With
//! `--snapshot` it additionally shuts the server down (saving the
//! snapshot), boots a **second** server from the same snapshot file, and
//! requires the resubmission against the restarted server to be 100%
//! cache hits with zero cold syntheses — the persistence contract.

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_serve::http;
use adc_serve::protocol::{render_payload, SubmitRequest, BACKEND_BITS};
use adc_serve::{FlowServer, ServerConfig};
use adc_synth::SynthConfig;
use adc_topopt::enumerate::enumerate_candidates;
use adc_topopt::flow::{run_flow, FlowOptions, FlowRequest};
use adc_topopt::wire::JsonValue;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig::default();
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--verify" => config.verify = true,
            "--addr" => config.addr = expect_value(&mut iter, "--addr"),
            "--workers" => config.workers = parse_value(&mut iter, "--workers"),
            "--max-inflight" => config.max_inflight = parse_value(&mut iter, "--max-inflight"),
            "--snapshot" => {
                config.snapshot = Some(PathBuf::from(expect_value(&mut iter, "--snapshot")))
            }
            "--snapshot-every" => {
                let secs = parse_value(&mut iter, "--snapshot-every");
                if secs == 0 {
                    eprintln!("--snapshot-every needs a positive number of seconds");
                    std::process::exit(2);
                }
                config.snapshot_every = Some(Duration::from_secs(secs as u64));
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        run_smoke(config.snapshot);
        return;
    }
    config.addr = if config.addr == "127.0.0.1:0" {
        "127.0.0.1:8750".to_string()
    } else {
        config.addr
    };
    let server = FlowServer::start(config).unwrap_or_else(|e| {
        eprintln!("failed to start: {e}");
        std::process::exit(1);
    });
    println!("adc-serve listening on http://{}", server.addr());
    println!("  POST /v1/runs  GET /v1/runs/<id>[/result]  DELETE /v1/runs/<id>");
    // Resident: park this thread for the life of the process.
    loop {
        std::thread::park();
    }
}

fn expect_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    iter.next().cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
    expect_value(iter, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an unsigned integer");
        std::process::exit(2);
    })
}

fn check(ok: bool, what: &str) {
    if ok {
        println!("smoke: PASS {what}");
    } else {
        eprintln!("smoke: FAIL {what}");
        std::process::exit(1);
    }
}

fn poll_to_completed(addr: SocketAddr, run_id: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) =
            http::request(addr, "GET", &format!("/v1/runs/{run_id}"), None).expect("poll");
        check(status == 200, "poll status 200");
        let doc = JsonValue::parse(&body).expect("poll body is JSON");
        match doc.get("state") {
            Some(JsonValue::Str(s)) if s == "Completed" => return doc,
            Some(JsonValue::Str(s)) if s == "Failed" => {
                eprintln!("smoke: FAIL run failed: {body}");
                std::process::exit(1);
            }
            _ => {}
        }
        if Instant::now() > deadline {
            eprintln!("smoke: FAIL poll timed out: {body}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn smoke_request() -> SubmitRequest {
    SubmitRequest {
        spec: AdcSpec::date05(10),
        cfg: SynthConfig {
            iterations: 60,
            nm_iterations: 20,
            seed: 9,
            ..Default::default()
        },
        options: FlowOptions::default(),
    }
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = http::request(addr, "POST", "/v1/runs", Some(body)).expect("submit");
    check(status == 202, "submit accepted (202)");
    let doc = JsonValue::parse(&reply).expect("submit reply is JSON");
    match doc.get("run_id") {
        Some(JsonValue::Num(id)) => *id as u64,
        _ => {
            eprintln!("smoke: FAIL submit reply without run_id: {reply}");
            std::process::exit(1);
        }
    }
}

fn run_smoke(snapshot: Option<PathBuf>) {
    let server = FlowServer::start(ServerConfig {
        verify: true,
        snapshot: snapshot.clone(),
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.addr();
    println!("smoke: server on {addr}");

    let (status, body) = http::request(addr, "GET", "/healthz", None).expect("healthz");
    check(status == 200 && body.contains("\"ok\""), "healthz");

    // Keep-alive: two requests through one persistent client must cost
    // exactly one TCP connection.
    let mut client = http::Client::new(addr);
    let (first, _) = client.request("GET", "/healthz", None).expect("healthz#1");
    let (second, _) = client.request("GET", "/healthz", None).expect("healthz#2");
    check(
        first == 200 && second == 200 && client.connects() == 1,
        "keep-alive serves two requests on one connection",
    );

    // Cold run: submit, poll to Completed, fetch, diff vs the batch oracle.
    let request = smoke_request();
    let wire_body = request.canonical().render();
    let run_id = submit(addr, &wire_body);
    let status_doc = poll_to_completed(addr, run_id);
    check(
        status_doc.get("stats").is_some(),
        "completed poll carries stats",
    );
    let (code, payload) =
        http::request(addr, "GET", &format!("/v1/runs/{run_id}/result"), None).expect("fetch");
    check(code == 200, "fetch status 200");

    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(request.spec.resolution, BACKEND_BITS);
    let batch = run_flow(
        &FlowRequest::new(&request.spec, &candidates, &params, &request.cfg)
            .with_options(request.options),
        None,
    );
    let oracle = render_payload(&request, &candidates, &batch, true);
    let served = JsonValue::parse(&payload).expect("payload is JSON");
    let oracle_doc = JsonValue::parse(&oracle).expect("oracle is JSON");
    check(
        served.get("result").map(JsonValue::render)
            == oracle_doc.get("result").map(JsonValue::render),
        "served result subtree is bit-identical to the batch oracle",
    );

    // Warm run: same spec again; the resident cache must answer every
    // block without a single cold synthesis.
    let warm_id = submit(addr, &wire_body);
    let warm_doc = poll_to_completed(addr, warm_id);
    let stats = warm_doc.get("stats").expect("warm stats");
    let num = |k: &str| match stats.get(k) {
        Some(JsonValue::Num(v)) => *v,
        _ => f64::NAN,
    };
    check(
        num("cache_hits") == num("blocks") && num("blocks") > 0.0,
        "warm resubmission is 100% cache hits",
    );
    check(
        num("cold") == 0.0,
        "warm resubmission has zero cold syntheses",
    );
    check(
        num("evaluations_spent") == 0.0,
        "warm resubmission spends zero evaluations",
    );

    server.shutdown();

    // Persistence leg: the shutdown above saved the snapshot; a fresh
    // server booted from it must answer the same spec entirely from the
    // restored cache — zero cold syntheses across a process restart.
    if let Some(path) = snapshot {
        check(path.exists(), "shutdown wrote the cache snapshot");
        let server = FlowServer::start(ServerConfig {
            verify: true,
            snapshot: Some(path),
            ..ServerConfig::default()
        })
        .expect("snapshot-boot bind");
        let addr = server.addr();
        check(
            server.cache_len() > 0 && server.cache_stats().corrupt_dropped == 0,
            "restart restored snapshot entries with zero corrupt drops",
        );
        let restart_id = submit(addr, &wire_body);
        let restart_doc = poll_to_completed(addr, restart_id);
        let stats = restart_doc.get("stats").expect("restart stats");
        let num = |k: &str| match stats.get(k) {
            Some(JsonValue::Num(v)) => *v,
            _ => f64::NAN,
        };
        check(
            num("cache_hits") == num("blocks") && num("blocks") > 0.0,
            "restarted server answers resubmission 100% from the snapshot",
        );
        check(
            num("cold") == 0.0,
            "restarted server performs zero cold syntheses",
        );
        check(
            num("evaluations_spent") == 0.0,
            "restarted server spends zero evaluations",
        );
        let (code, restart_payload) =
            http::request(addr, "GET", &format!("/v1/runs/{restart_id}/result"), None)
                .expect("restart fetch");
        check(code == 200, "restart fetch status 200");
        let restart_served = JsonValue::parse(&restart_payload).expect("restart payload is JSON");
        check(
            restart_served.get("result").map(JsonValue::render)
                == oracle_doc.get("result").map(JsonValue::render),
            "restarted result subtree is bit-identical to the batch oracle",
        );
        server.shutdown();
    }
    println!("smoke: all checks passed");
}
