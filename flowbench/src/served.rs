//! The served workloads: an in-process [`FlowServer`] driven over real
//! keep-alive sockets by a closed loop of client threads.

use crate::gen::{warmup_request, Traffic};
use crate::stats::{merge_spans, Span, Tracer};
use adc_serve::http;
use adc_serve::{FlowServer, ServerConfig};
use adc_topopt::wire::JsonValue;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Client threads, each on one keep-alive connection.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// First poll-backoff sleep; doubles per poll up to [`POLL_CAP`].
const POLL_START: Duration = Duration::from_micros(20);
/// Longest poll-backoff sleep.
const POLL_CAP: Duration = Duration::from_millis(1);
/// A run still unfinished after this long counts as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// The served shape: two workers with small-signal verification, as
/// `adc-serve --smoke` and `bench_serve` run it.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        verify: true,
        ..ServerConfig::default()
    }
}

/// A booted server and its connected clients.
pub struct Rig {
    /// The server.
    pub server: FlowServer,
    /// One keep-alive client per client thread.
    pub clients: Vec<http::Client>,
}

impl Rig {
    /// Closes the client connections, then stops the server and joins
    /// its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Boots a server, connects the clients, runs the warm-up request and
/// pre-warms the server for `traffic`: each pool entry of `warm_serve` and
/// `memo_serve` is run once, so their timed resubmissions find every block
/// (and, for `memo_serve`, every `result` subtree) already computed.
///
/// # Errors
/// A pre-warm run that did not complete.
pub fn boot(traffic: &Traffic) -> Result<Rig, String> {
    let server = FlowServer::start(server_config()).map_err(|e| format!("server boot: {e}"))?;
    let mut clients: Vec<http::Client> = (0..CLIENTS)
        .map(|_| http::Client::new(server.addr()))
        .collect();
    for client in &mut clients {
        match client.request("GET", "/healthz", None) {
            Ok((200, _)) => {}
            other => return Err(format!("healthz: {other:?}")),
        }
    }
    let warmup = warmup_request().canonical().render();
    if let Err(reason) = drive_run(
        &mut clients[0],
        &warmup,
        &mut Tracer::new(Instant::now(), false),
        0,
    )
    .result
    {
        return Err(format!("warm-up run: {reason}"));
    }
    let bodies: Vec<String> = traffic
        .pool
        .iter()
        .map(|r| r.canonical().render())
        .collect();
    let next = AtomicUsize::new(0);
    let outcomes: Vec<Result<(), String>> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (bodies, next) = (&bodies, &next);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(Instant::now(), false);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else {
                            return Ok(());
                        };
                        let outcome = drive_run(client, body, &mut tracer, i as u64);
                        if let Err(reason) = outcome.result {
                            return Err(format!("pre-warm run {i}: {reason}"));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-warm client"))
            .collect()
    });
    outcomes.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(Rig { server, clients })
}

/// What one closed-loop run came back with.
pub struct Outcome {
    /// Submit to fetched payload, ms.
    pub latency_ms: f64,
    /// Status polls issued.
    pub polls: usize,
    /// The fetched payload, or why the run failed or was refused.
    pub result: Result<String, String>,
}

/// Drives one run on the client's connection: submit, poll (at once,
/// then backing off from 20 µs, doubling, capped at 1 ms), fetch.
pub fn drive_run(
    client: &mut http::Client,
    body: &str,
    tracer: &mut Tracer,
    request: u64,
) -> Outcome {
    let t0 = Instant::now();
    let span = tracer.begin("run", request);
    let mut polls = 0;
    let result = (|| -> Result<String, String> {
        let submitted = tracer.time("http.submit", request, || {
            client.request("POST", "/v1/runs", Some(body))
        });
        let reply = match submitted {
            Ok((202, reply)) => reply,
            Ok((429, _)) => return Err("refused (429)".to_string()),
            Ok((status, reply)) => return Err(format!("submit {status}: {reply}")),
            Err(e) => return Err(format!("submit: {e}")),
        };
        let id = match JsonValue::parse(&reply)
            .ok()
            .as_ref()
            .and_then(|d| d.get("run_id"))
        {
            Some(JsonValue::Num(id)) => *id as u64,
            _ => return Err(format!("submit reply without run_id: {reply}")),
        };
        let status_path = format!("/v1/runs/{id}");
        let mut backoff = POLL_START;
        loop {
            polls += 1;
            let polled = tracer.time("http.poll", request, || {
                client.request("GET", &status_path, None)
            });
            let state = match polled {
                Ok((200, text)) => match JsonValue::parse(&text)
                    .ok()
                    .as_ref()
                    .and_then(|d| d.get("state"))
                {
                    Some(JsonValue::Str(s)) => s.clone(),
                    _ => return Err(format!("poll reply without state: {text}")),
                },
                Ok((status, text)) => return Err(format!("poll {status}: {text}")),
                Err(e) => return Err(format!("poll: {e}")),
            };
            match state.as_str() {
                "Completed" => break,
                "Failed" => return Err(format!("run {id} failed")),
                _ => {}
            }
            if t0.elapsed() > RUN_TIMEOUT {
                return Err(format!("run {id} unfinished after {RUN_TIMEOUT:?}"));
            }
            thread::sleep(backoff);
            backoff = (backoff * 2).min(POLL_CAP);
        }
        let fetched = tracer.time("http.fetch", request, || {
            client.request("GET", &format!("{status_path}/result"), None)
        });
        match fetched {
            Ok((200, payload)) => Ok(payload),
            Ok((status, text)) => Err(format!("fetch {status}: {text}")),
            Err(e) => Err(format!("fetch: {e}")),
        }
    })();
    tracer.end(span);
    Outcome {
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        polls,
        result,
    }
}

/// One timed run of the served list.
pub struct Record {
    /// Request index in the list.
    pub index: usize,
    /// Submit to fetched payload, ms.
    pub latency_ms: f64,
    /// Completion, s since the window opened.
    pub end_s: f64,
    /// Status polls issued.
    pub polls: usize,
    /// Hash of the fetched payload (indexes [`Window::payloads`]).
    pub payload: Option<u64>,
    /// Payload size, bytes.
    pub payload_bytes: usize,
    /// Why it failed, if it did.
    pub failure: Option<String>,
}

/// The outcome of a timed window.
pub struct Window {
    /// Every run started inside the window, in completion order per
    /// client.
    pub records: Vec<Record>,
    /// Window length, s: runs started before it closes; those completed
    /// by then count toward throughput.
    pub seconds: f64,
    /// Distinct payloads by hash, each with the first request that
    /// returned it.
    pub payloads: HashMap<u64, (usize, String)>,
    /// Client-side spans (empty unless traced).
    pub spans: Vec<Span>,
    /// HTTP requests issued and TCP connects they cost, over all clients.
    pub http_requests: usize,
    /// TCP connects.
    pub http_connects: usize,
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Drives `traffic` through `rig` for `seconds` from every client: each
/// client takes the next index of the seeded list, waits for its run,
/// and takes the next, until the window closes.
pub fn serve_window(rig: &mut Rig, traffic: &Traffic, seconds: f64, trace: bool) -> Window {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    type PerClient = (
        Vec<Record>,
        HashMap<u64, (usize, String)>,
        Vec<Span>,
        usize,
        usize,
    );
    let per_client: Vec<PerClient> = thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let (requests0, connects0) = (client.requests(), client.connects());
                    let mut tracer = Tracer::new(origin, trace);
                    let mut records = Vec::new();
                    let mut payloads: HashMap<u64, (usize, String)> = HashMap::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let body = traffic.body(index);
                        let out = drive_run(client, &body, &mut tracer, index as u64);
                        let payload_bytes = out.result.as_ref().map_or(0, String::len);
                        let failure = out.result.as_ref().err().cloned();
                        let payload = out.result.ok().map(|p| {
                            let h = hash_str(&p);
                            payloads.entry(h).or_insert((index, p));
                            h
                        });
                        records.push(Record {
                            index,
                            latency_ms: out.latency_ms,
                            end_s: origin.elapsed().as_secs_f64(),
                            polls: out.polls,
                            payload,
                            payload_bytes,
                            failure,
                        });
                    }
                    (
                        records,
                        payloads,
                        tracer.into_spans(),
                        client.requests() - requests0,
                        client.connects() - connects0,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window = Window {
        records: Vec::new(),
        seconds,
        payloads: HashMap::new(),
        spans: Vec::new(),
        http_requests: 0,
        http_connects: 0,
    };
    for (records, payloads, spans, requests, connects) in per_client {
        window.records.extend(records);
        for (h, p) in payloads {
            window.payloads.entry(h).or_insert(p);
        }
        merge_spans(&mut window.spans, spans);
        window.http_requests += requests;
        window.http_connects += connects;
    }
    window.records.sort_by_key(|r| r.index);
    window
}
