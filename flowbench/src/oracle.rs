//! Output checks. A served payload is correct when its `result` subtree
//! is byte-equal to the batch oracle's — `run_and_render` of the same
//! `(spec, cfg)` on a fresh `CachePolicy::Reproducible` cache — and its
//! `request` echo is the body that was sent.

use crate::gen::{SplitMix64, Traffic, Workload};
use crate::served::Window;
use adc_serve::protocol::run_and_render;
use adc_topopt::cache::{CachePolicy, SharedCache};
use adc_topopt::flow::FlowOptions;
use adc_topopt::wire::JsonValue;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Runs of `cold_serve` re-synthesized by the oracle after the window.
pub const COLD_SAMPLE: usize = 6;

/// The oracle's `result` subtrees, memoized per distinct `(spec, cfg)`
/// (the subtree does not depend on the request's options).
pub struct Oracle<'a> {
    traffic: &'a Traffic,
    results: HashMap<String, String>,
}

impl<'a> Oracle<'a> {
    /// An empty oracle for `traffic`.
    pub fn new(traffic: &'a Traffic) -> Oracle<'a> {
        Oracle {
            traffic,
            results: HashMap::new(),
        }
    }

    /// The rendered `result` subtree the batch path produces for request
    /// `index` of the list.
    pub fn result(&mut self, index: usize) -> &str {
        let mut req = self.traffic.request(index);
        req.options = FlowOptions::default();
        self.results
            .entry(req.canonical().render())
            .or_insert_with(|| {
                let cache = SharedCache::with_default_shards(CachePolicy::Reproducible);
                let (_, payload) = run_and_render(&req, &cache, true);
                let doc = JsonValue::parse(&payload).expect("oracle payload parses");
                doc.get("result")
                    .expect("oracle payload has result")
                    .render()
            })
    }
}

/// Checks one payload against the oracle and the body that was sent.
///
/// # Errors
/// What differs.
fn check_payload(oracle: &mut Oracle<'_>, index: usize, payload: &str) -> Result<(), String> {
    let doc = JsonValue::parse(payload)
        .map_err(|e| format!("run {index}: payload does not parse: {e}"))?;
    let body = oracle.traffic.body(index);
    match doc.get("request") {
        Some(echo) if echo.render() == *body => {}
        _ => {
            return Err(format!(
                "run {index}: request echo differs from the body sent"
            ))
        }
    }
    let served = doc
        .get("result")
        .ok_or_else(|| format!("run {index}: payload without result"))?
        .render();
    if served != oracle.result(index) {
        return Err(format!(
            "run {index}: result subtree differs from the batch oracle"
        ));
    }
    Ok(())
}

/// Checks a served window after it closed. `warm_serve`/`memo_serve`:
/// every distinct payload. Lists whose every request is new
/// (`cold_serve`, and `paper_sweep` when served): a seeded sample of
/// [`COLD_SAMPLE`] runs, each re-synthesized from scratch.
///
/// Returns the indices of the runs whose output was wrong, with reasons.
pub fn check_window(traffic: &Traffic, window: &Window, seed: u64) -> Vec<(usize, String)> {
    let mut oracle = Oracle::new(traffic);
    let mut wrong = Vec::new();
    let by_hash: HashMap<u64, Vec<usize>> =
        window.records.iter().fold(HashMap::new(), |mut m, r| {
            if let Some(h) = r.payload {
                m.entry(h).or_default().push(r.index);
            }
            m
        });
    let hashes: Vec<u64> = match traffic.workload {
        Workload::ColdServe | Workload::PaperSweep => {
            let done: Vec<&crate::served::Record> = window
                .records
                .iter()
                .filter(|r| r.payload.is_some())
                .collect();
            let mut rng = SplitMix64::new(seed ^ 0x6f72_6163_6c65);
            let mut picked = BTreeSet::new();
            while picked.len() < COLD_SAMPLE.min(done.len()) {
                picked.insert(rng.below(done.len() as u64) as usize);
            }
            picked.into_iter().filter_map(|i| done[i].payload).collect()
        }
        _ => {
            let mut seen = HashSet::new();
            window
                .records
                .iter()
                .filter_map(|r| r.payload)
                .filter(|h| seen.insert(*h))
                .collect()
        }
    };
    for h in hashes {
        let (index, payload) = &window.payloads[&h];
        if let Err(reason) = check_payload(&mut oracle, *index, payload) {
            for &i in &by_hash[&h] {
                wrong.push((i, reason.clone()));
            }
        }
    }
    wrong
}
