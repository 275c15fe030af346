//! The three workloads, each a closed loop against
//! `MaskService::call(Request::RecommendMask)`: a caller is a compiler
//! that needs its mask before it can submit the job, so it sends its next
//! request only after the previous answer arrives.
//!
//! A run with tracing off measures the end-to-end metrics. A run with
//! tracing on drives one fixed round of the same requests and, beside
//! each service call, repeats the request's layer calls from here with a
//! span around each: the per-layer figures.

use crate::checks::{self, check_cache_accounting, check_same_answer, KeyContext};
use crate::json::{Metric, RunResult};
use crate::stats::{self, median};
use crate::trace::{Ledger, Recorder, TracedMachine};
use adapt::dd::{analyze_idle_windows, insert_dd_prepared, mask_to_wires};
use adapt::decoy::make_decoy;
use adapt::{Adapt, DdMask, DdProtocol, DecoyKind};
use adapt_fleet::wire;
use adapt_service::{
    CachedMask, DeviceId, DeviceRegistry, Lookup, MaskCache, MaskKey, MaskService, Provenance,
    Recommendation, Request, Response, SearchBudget, ServiceConfig,
};
use benchmarks::BenchmarkSpec;
use device::Device;
use machine::{structural_hash, Machine, SimEngine, WireDeadline};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use transpiler::{transpile, TranspileOptions};

/// Devices every workload targets.
pub const DEVICES: [DeviceId; 3] = [DeviceId::Guadalupe, DeviceId::Toronto, DeviceId::Paris];

/// Service seed. Fixed, so the corpus (calibrations, compiled programs,
/// decoys) and every work count are the same in every run; `--seed`
/// draws the request order and the Zipf sequence.
pub const SERVICE_SEED: u64 = 2021;

/// DD protocol of every request.
pub const PROTOCOL: DdProtocol = DdProtocol::Xy4;

/// `paper_suite` programs left out of `search_sdc` and `serve_zipf`:
/// BV-7 and BV-8 are all-Clifford, so their seeded decoys score on CHP
/// rather than the dense engine; QAOA-10A and QAOA-10B take seconds per
/// dense search, longer than the rest of a round together.
pub const SDC_LEFT_OUT: [&str; 4] = ["BV-7", "BV-8", "QAOA-10A", "QAOA-10B"];

/// Each timed phase holds at least this many requests (enough for a
/// tail percentile).
const MIN_TIMED_REQUESTS: usize = 40;

/// Zipf exponent of `serve_zipf` key popularity. There is no published
/// trace of mask requests; this is the exponent the repository's
/// `trace_replay` experiment gives its tenant population, so the mix is
/// a synthetic assumption (README: the share each program and device
/// receives).
const ZIPF_EXPONENT: f64 = 1.2;

/// Requests each `serve_zipf` client sends per round. A round of 500
/// requests carries a p95 tail (25 samples beyond it); the run reports
/// medians over its rounds.
const ZIPF_BLOCK: usize = 250;

/// Requests per client in a traced `serve_zipf` run.
const ZIPF_TRACED_PER_CLIENT: usize = 400;

/// Client threads of `serve_zipf` (the host has two cores).
const ZIPF_CLIENTS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold searches scored on the CHP engine (Clifford decoys).
    SearchCdc,
    /// Cold searches scored on the dense engine (the service's default
    /// seeded decoys).
    SearchSdc,
    /// Cache hits under Zipf popularity, two clients, two workers.
    ServeZipf,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SearchCdc,
        Workload::SearchSdc,
        Workload::ServeZipf,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCdc => "search_cdc",
            Workload::SearchSdc => "search_sdc",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    /// Parses [`Self::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn decoy(self) -> DecoyKind {
        match self {
            Workload::SearchCdc => DecoyKind::Clifford,
            Workload::SearchSdc | Workload::ServeZipf => DecoyKind::default(),
        }
    }

    /// The programs of the workload's corpus.
    pub fn programs(self) -> Vec<BenchmarkSpec> {
        let all = benchmarks::paper_suite();
        match self {
            Workload::SearchCdc => all,
            Workload::SearchSdc | Workload::ServeZipf => all
                .into_iter()
                .filter(|b| !SDC_LEFT_OUT.contains(&b.name))
                .collect(),
        }
    }

    /// Length of one round on the reference host (2 cores, release
    /// build). A run does `--seconds` divided by this many rounds,
    /// rounded, so every run and every commit does the same requests.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::SearchCdc => 4.5,
            Workload::SearchSdc => 4.0,
            Workload::ServeZipf => 0.09,
        }
    }

    /// Rounds of the timed phase for `seconds`: at least one, and at
    /// least [`MIN_TIMED_REQUESTS`] requests.
    fn rounds(self, seconds: f64, requests_per_round: usize) -> u64 {
        let min = MIN_TIMED_REQUESTS.div_ceil(requests_per_round) as u64;
        ((seconds / self.nominal_round_s()).round() as u64).max(min)
    }

    fn service_config(self) -> ServiceConfig {
        let base = ServiceConfig {
            devices: DEVICES.to_vec(),
            seed: SERVICE_SEED,
            ..ServiceConfig::default()
        };
        match self {
            Workload::SearchCdc | Workload::SearchSdc => ServiceConfig {
                workers: 1,
                decoy: self.decoy(),
                ..base
            },
            Workload::ServeZipf => base,
        }
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Draws the request order and the Zipf sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// When `main` started: `setup_s` runs from here to the first timed
    /// request.
    pub started: Instant,
}

/// SplitMix64: a small seeded generator for request order and Zipf
/// draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights `1/(rank+1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One request of the corpus: a program on a device.
#[derive(Debug, Clone, Copy)]
struct Item {
    program: usize,
    device: DeviceId,
}

struct Corpus {
    programs: Vec<BenchmarkSpec>,
    items: Vec<Item>,
}

/// `serve_zipf` popularity ranks, as corpus item indices (most popular
/// first): rank `r` is program `r mod programs` on device
/// `r mod DEVICES.len()`, so ranks go round the programs and the devices
/// together and neither one program nor one device takes the whole head.
/// A bijection when the program count is prime to the device count.
fn zipf_ranks(programs: usize) -> Vec<usize> {
    let d = DEVICES.len();
    (0..programs * d)
        .map(|r| (r % programs) * d + r % d)
        .collect()
}

impl Corpus {
    fn new(w: Workload) -> Self {
        let programs = w.programs();
        let items = (0..programs.len())
            .flat_map(|program| DEVICES.map(|device| Item { program, device }))
            .collect();
        Corpus { programs, items }
    }

    /// A round's request order: program by program in corpus order, the
    /// devices of each program in seeded order. Each device then sees its
    /// programs in the same sequence in every run, which keeps the
    /// contents of its plan cache (least recently used out), and with
    /// them the process's memory, independent of the seed.
    fn order(&self, rng: &mut Rng) -> Vec<Item> {
        let mut order = self.items.clone();
        for program in order.chunks_mut(DEVICES.len()) {
            rng.shuffle(program);
        }
        order
    }

    fn request(&self, item: Item) -> Request {
        Request::RecommendMask {
            circuit: self.programs[item.program].circuit.clone(),
            device: item.device,
            protocol: PROTOCOL,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy: Default::default(),
        }
    }
}

/// The devices of the first `epochs` calibration epochs, from a registry
/// of our own built from the service seed.
fn epoch_devices(epochs: u64) -> Vec<Vec<(DeviceId, Device)>> {
    let registry = DeviceRegistry::new(&DEVICES, SERVICE_SEED);
    (0..epochs)
        .map(|e| {
            DEVICES
                .iter()
                .map(|&d| {
                    if e > 0 {
                        registry.advance_epoch(d);
                    }
                    let (_, m) = registry.snapshot(d).expect("registered device");
                    (d, m.device().clone())
                })
                .collect()
        })
        .collect()
}

fn device_at(devices: &[Vec<(DeviceId, Device)>], epoch: u64, id: DeviceId) -> &Device {
    &devices[epoch as usize]
        .iter()
        .find(|(d, _)| *d == id)
        .expect("device in corpus")
        .1
}

/// Collects check failures; a run with any is reported incorrect.
#[derive(Default)]
struct Verdict {
    failures: u64,
}

impl Verdict {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.failures += 1;
            if self.failures <= 20 {
                eprintln!("check failed: {what}: {e}");
            }
        }
    }
}

fn mask_answer(r: Result<Response, adapt_service::ServiceError>) -> Result<Recommendation, String> {
    match r {
        Ok(Response::Mask(rec)) => Ok(rec),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up step that fails outright (the run cannot measure anything).
pub fn run(args: &Args) -> Result<RunResult, String> {
    match (args.workload, args.trace) {
        (Workload::ServeZipf, false) => run_zipf(args),
        (Workload::ServeZipf, true) => trace_zipf(args),
        (w, false) => run_search(w, args),
        (w, true) => trace_search(w, args),
    }
}

/// Throughput and client-side latency of a timed phase.
struct Timed {
    req_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    /// Which percentile the tail is, over how many samples.
    note: String,
}

fn tail_note(n: usize, per_mille: Option<u64>) -> String {
    match per_mille {
        Some(p) => format!("p{} of {n} latency samples", p as f64 / 10.0),
        None => format!("the median of {n} latency samples (fewer than 40)"),
    }
}

impl Timed {
    /// All samples of the phase pooled.
    fn pooled(latencies_ms: &[f64], phase_s: f64) -> Self {
        let (p50_ms, tail_ms, per_mille) = stats::median_and_tail(latencies_ms);
        Timed {
            req_per_s: latencies_ms.len() as f64 / phase_s,
            p50_ms,
            tail_ms,
            note: tail_note(latencies_ms.len(), per_mille),
        }
    }

    /// Each figure computed per round, then the median over rounds.
    fn per_round(rounds: &[(f64, Vec<f64>)]) -> Self {
        let each: Vec<Timed> = rounds
            .iter()
            .map(|(s, lat)| Timed::pooled(lat, *s))
            .collect();
        let med = |f: fn(&Timed) -> f64| median(&each.iter().map(f).collect::<Vec<_>>());
        Timed {
            req_per_s: med(|t| t.req_per_s),
            p50_ms: med(|t| t.p50_ms),
            tail_ms: med(|t| t.tail_ms),
            note: format!(
                "the median over {} rounds of each round's {}",
                each.len(),
                each.first().map_or(String::new(), |t| t.note.clone())
            ),
        }
    }
}

/// The six end-to-end metrics. `peak_rss_mb` is the high-water mark
/// read when the timed phase ends, before the answer checks run.
fn end_to_end(setup_s: f64, timed: &Timed, peak_rss_mb: f64, fidelities: &[f64]) -> Vec<Metric> {
    // Summed in a fixed order, so the mean does not depend on the
    // order the keys were answered in.
    let mut sorted = fidelities.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean_fidelity = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", setup_s),
        m("req_per_s", "1/s", timed.req_per_s),
        m("req_ms_p50", "ms", timed.p50_ms),
        m("req_ms_tail", "ms", timed.tail_ms),
        m("adapt_fidelity", "fidelity", mean_fidelity),
        m("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

fn run_search(w: Workload, args: &Args) -> Result<RunResult, String> {
    let svc = MaskService::start(w.service_config());
    let corpus = Corpus::new(w);
    let mut setup_s = 0.0;
    let per_round = corpus.items.len();
    let rounds = w.rounds(args.seconds, per_round);

    let mut latencies = Vec::new();
    let mut answers: Vec<(Item, u64, Recommendation)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut phase = Duration::ZERO;
    for epoch in 0..rounds {
        // A new calibration epoch makes every key cold again; the drift
        // itself is not a request and stays outside the timed phase.
        if epoch > 0 {
            for d in DEVICES {
                svc.advance_epoch(d).map_err(|e| e.to_string())?;
            }
        }
        let order = corpus.order(&mut Rng::new(
            args.seed ^ epoch.wrapping_mul(0xa076_1d64_78bd_642f),
        ));
        let requests: Vec<Request> = order.iter().map(|&i| corpus.request(i)).collect();
        let t_round = Instant::now();
        if epoch == 0 {
            setup_s = (t_round - args.started).as_secs_f64();
        }
        for (&item, request) in order.iter().zip(requests) {
            attempted += 1;
            let t0 = Instant::now();
            let answer = mask_answer(svc.call(request));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match answer {
                Ok(rec) => {
                    latencies.push(ms);
                    answers.push((item, epoch, rec));
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("request failed: {e}");
                }
            }
        }
        phase += t_round.elapsed();
    }
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    svc.shutdown();

    let mut verdict = Verdict::default();
    let devices = epoch_devices(rounds);
    let mut fidelities = Vec::new();
    let mut seen = HashSet::new();
    for (item, e, rec) in &answers {
        let program = &corpus.programs[item.program];
        let what = format!("{} on {} epoch {e}", program.name, item.device);
        verdict.check(
            &what,
            (rec.key.device == item.device && rec.key.epoch == *e)
                .then_some(())
                .ok_or_else(|| format!("answer keyed {:?}", rec.key)),
        );
        if !seen.insert(rec.key) {
            continue;
        }
        let kc = KeyContext::new(
            &program.circuit,
            device_at(&devices, *e, item.device).clone(),
            &rec.key,
            SERVICE_SEED,
            SearchBudget::default(),
        )?;
        verdict.check(&what, kc.verify_search_answer(rec));
        match kc.program_fidelity(rec.mask) {
            Ok(f) => fidelities.push(f),
            Err(err) => verdict.check(&what, Err(err)),
        }
    }
    verdict.check(
        "distinct keys",
        (seen.len() == answers.len())
            .then_some(())
            .ok_or("a key repeated within the run".to_string()),
    );

    let timed = Timed::pooled(&latencies, phase.as_secs_f64());
    println!(
        "{}: {rounds} round(s) of {per_round} cold keys, attempted {attempted}, failed {failed}; \
         req_ms_tail is {}",
        w.name(),
        timed.note
    );
    Ok(RunResult {
        correct: verdict.failures == 0,
        attempted,
        failed,
        metrics: end_to_end(setup_s, &timed, peak_rss_mb, &fidelities),
    })
}

/// Starts a `serve_zipf` service and fills its cache with every corpus
/// key (both workers searching). Returns the fill answers in corpus
/// order.
fn zipf_setup(corpus: &Corpus) -> Result<(MaskService, Vec<Recommendation>), String> {
    let svc = MaskService::start(Workload::ServeZipf.service_config());
    let pending: Vec<_> = corpus
        .items
        .iter()
        .map(|&i| svc.submit(corpus.request(i)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let fill = pending
        .into_iter()
        .map(|p| mask_answer(p.wait()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((svc, fill))
}

/// Checks the answers of the cold services that filled the caches: each
/// is a fresh search of the right width, and both services answered each
/// key bit-identically.
fn check_fills(
    verdict: &mut Verdict,
    corpus: &Corpus,
    fill: &[Recommendation],
    cold: &[Recommendation],
) {
    for ((item, rec), other) in corpus.items.iter().zip(fill).zip(cold) {
        let width = corpus.programs[item.program].num_qubits;
        verdict.check("cache fill", checks::check_fresh(rec, width));
        verdict.check("cache fill", checks::check_fresh(other, width));
        verdict.check("cold services agree", check_same_answer(rec, other));
    }
}

/// Checks timed hits against the cold answers and scores each distinct
/// key's mask on its program.
fn check_hits_and_score(
    verdict: &mut Verdict,
    corpus: &Corpus,
    fill: &[Recommendation],
    hits: &[(usize, Recommendation)],
    score: bool,
) -> Result<Vec<f64>, String> {
    let mut answered = vec![false; fill.len()];
    for (k, rec) in hits {
        answered[*k] = true;
        verdict.check(
            "timed answer",
            (rec.provenance == Provenance::CacheHit)
                .then_some(())
                .ok_or_else(|| format!("provenance {}", rec.provenance)),
        );
        verdict.check("timed answer", check_same_answer(rec, &fill[*k]));
    }
    let mut fidelities = Vec::new();
    let devices = epoch_devices(1);
    for (k, rec) in fill.iter().enumerate() {
        if !answered[k] {
            continue;
        }
        let item = corpus.items[k];
        let program = &corpus.programs[item.program];
        let what = format!("{} on {}", program.name, item.device);
        let kc = KeyContext::new(
            &program.circuit,
            device_at(&devices, 0, item.device).clone(),
            &rec.key,
            SERVICE_SEED,
            SearchBudget::default(),
        )?;
        verdict.check(&what, kc.verify_search_answer(rec));
        if score {
            match kc.program_fidelity(rec.mask) {
                Ok(f) => fidelities.push(f),
                Err(e) => verdict.check(&what, Err(e)),
            }
        }
    }
    Ok(fidelities)
}

fn run_zipf(args: &Args) -> Result<RunResult, String> {
    let clients = ZIPF_CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let corpus = Corpus::new(Workload::ServeZipf);
    let (svc, fill) = zipf_setup(&corpus)?;
    let zipf = Zipf::new(corpus.items.len(), ZIPF_EXPONENT);
    let ranks = zipf_ranks(corpus.programs.len());
    let barrier = Barrier::new(clients);
    let rounds = Workload::ServeZipf.rounds(args.seconds, clients * ZIPF_BLOCK);
    // The clients start the first round as soon as they are spawned.
    let setup_s = args.started.elapsed().as_secs_f64();

    // Per client: each round's (seconds, latencies), its hits and its
    // failed count. Clients start every round together.
    type ClientOut = (Vec<(f64, Vec<f64>)>, Vec<(usize, Recommendation)>, u64);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (svc, corpus, zipf, ranks, barrier) = (&svc, &corpus, &zipf, &ranks, &barrier);
                s.spawn(move || {
                    let mut rng =
                        Rng::new(args.seed ^ (c as u64 + 1).wrapping_mul(0xe703_7ed1_a0b4_28db));
                    let (mut per_round, mut hits, mut failed) = (Vec::new(), Vec::new(), 0u64);
                    for _ in 0..rounds {
                        let picks: Vec<usize> = (0..ZIPF_BLOCK)
                            .map(|_| ranks[zipf.sample(&mut rng)])
                            .collect();
                        let mut lat = Vec::with_capacity(ZIPF_BLOCK);
                        barrier.wait();
                        let start = Instant::now();
                        for &k in &picks {
                            let request = corpus.request(corpus.items[k]);
                            let t0 = Instant::now();
                            let answer = mask_answer(svc.call(request));
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            match answer {
                                Ok(rec) => {
                                    lat.push(ms);
                                    hits.push((k, rec));
                                }
                                Err(e) => {
                                    failed += 1;
                                    eprintln!("request failed: {e}");
                                }
                            }
                        }
                        per_round.push((start.elapsed().as_secs_f64(), lat));
                    }
                    (per_round, hits, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    let cache = svc.cache_stats();
    svc.shutdown();
    // A second cold service with the same seed, outside every timed
    // metric: the reference the timed hits must match bit for bit.
    let (cold_svc, cold) = zipf_setup(&corpus)?;
    cold_svc.shutdown();

    // A round lasts until its slower client finishes.
    let mut round_figures: Vec<(f64, Vec<f64>)> = vec![(0.0, Vec::new()); rounds as usize];
    let mut hits = Vec::new();
    let mut failed = 0;
    for (per_round, h, f) in outs {
        for (slot, (secs, lat)) in round_figures.iter_mut().zip(per_round) {
            slot.0 = slot.0.max(secs);
            slot.1.extend(lat);
        }
        hits.extend(h);
        failed += f;
    }
    let attempted = rounds * (clients * ZIPF_BLOCK) as u64;
    let mut verdict = Verdict::default();
    check_fills(&mut verdict, &corpus, &fill, &cold);
    verdict.check("cache accounting", check_cache_accounting(&cache));
    verdict.check(
        "cache counts",
        (cache.misses == corpus.items.len() as u64 && cache.hits == hits.len() as u64)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "{} misses and {} hits for {} keys and {} timed answers",
                    cache.misses,
                    cache.hits,
                    corpus.items.len(),
                    hits.len()
                )
            }),
    );
    let fidelities = check_hits_and_score(&mut verdict, &corpus, &cold, &hits, true)?;
    let timed = Timed::per_round(&round_figures);
    println!(
        "serve_zipf: {clients} clients, {rounds} rounds of {ZIPF_BLOCK} requests each over {} \
         cached keys, attempted {attempted}, failed {failed}; req_ms_tail is {}",
        corpus.items.len(),
        timed.note
    );
    Ok(RunResult {
        correct: verdict.failures == 0,
        attempted,
        failed,
        metrics: end_to_end(setup_s, &timed, peak_rss_mb, &fidelities),
    })
}

/// Figures gathered beside the spans of a traced run.
#[derive(Default)]
struct LayerCounts {
    plan_cache_hits: u64,
    dd_pulses: u64,
    decoy_runs: u64,
    evaluations: u64,
    pulse_penalty: Vec<f64>,
    queued_us: Vec<f64>,
    service_us: Vec<f64>,
    request_bytes: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    searches: u64,
}

/// Top-level spans whose work the service also does inside a request.
/// Per request, their time (with everything below them, less
/// [`TRACING_EXTRA`]) over the service call is its coverage, and the
/// service's own time is the call minus theirs; the metrics are medians
/// over requests.
const SERVICE_PATH: [&str; 5] = [
    "transpile",
    "structural_hash",
    "MaskCache::lookup",
    "make_decoy",
    "search",
];

/// Spans inside the traced search that the service's search does not
/// pay: the machine hashes and builds each plan internally (the build
/// is the `plan.warm` span), so the wrapper's own hash and build calls
/// are extra.
const TRACING_EXTRA: [&str; 2] = ["structural_hash", "CompiledPlan::build"];

fn layer_metrics(ledger: &Ledger, c: &LayerCounts) -> Vec<Metric> {
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let t = |name: &str| ledger.totals(name);
    let search = t("search");
    let requests = t("request").count.max(1) as f64;
    let chp = t("engine.chp");
    let dense = t("engine.dense");
    let enc = [t("wire.encode_request"), t("wire.encode_response")];
    let dec = [t("wire.decode_request"), t("wire.decode_response")];
    let per_call = |ts: &[crate::trace::NameTotals]| {
        let n: u64 = ts.iter().map(|x| x.count).sum();
        let ns: u64 = ts.iter().map(|x| x.dur_ns).sum();
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let explained = ledger.explained_per_request("service.call", &SERVICE_PATH, &TRACING_EXTRA);
    let service_self: Vec<f64> = explained
        .iter()
        .map(|&(call, layers)| (call as f64 - layers as f64) / 1e3)
        .collect();
    let coverage: Vec<f64> = explained
        .iter()
        .filter(|&&(call, _)| call > 0)
        .map(|&(call, layers)| layers as f64 / call as f64)
        .collect();
    let calls: Vec<f64> = ledger
        .durations("service.call")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("transpiler.calls", "count", t("transpile").count as f64),
        m("transpiler.us_per_call", "us", t("transpile").us_per_call()),
        m(
            "plan.hash_us_per_call",
            "us",
            t("structural_hash").us_per_call(),
        ),
        m(
            "plan.builds",
            "count",
            t("CompiledPlan::build").count as f64,
        ),
        m(
            "plan.build_us_per_call",
            "us",
            t("CompiledPlan::build").us_per_call(),
        ),
        m("plan.cache_hits", "count", c.plan_cache_hits as f64),
        m("decoy.builds", "count", t("make_decoy").count as f64),
        m(
            "decoy.build_ms_per_call",
            "ms",
            t("make_decoy").us_per_call() / 1e3,
        ),
        m(
            "dd.idle_analysis_us_per_call",
            "us",
            t("analyze_idle_windows").us_per_call(),
        ),
        m("dd.inserts", "count", t("insert_dd_prepared").count as f64),
        m(
            "dd.insert_us_per_call",
            "us",
            t("insert_dd_prepared").us_per_call(),
        ),
        m("dd.pulses", "count", c.dd_pulses as f64),
        m("engine.chp.runs", "count", chp.count as f64),
        m("engine.chp.ms_per_run", "ms", chp.us_per_call() / 1e3),
        m("engine.dense.runs", "count", dense.count as f64),
        m("engine.dense.ms_per_run", "ms", dense.us_per_call() / 1e3),
        m(
            "engine.dense.pulse_penalty",
            "ratio",
            mean(&c.pulse_penalty),
        ),
        m(
            "metrics.fidelity_us_per_call",
            "us",
            t("metrics::fidelity").us_per_call(),
        ),
        m("search.decoy_runs", "count", c.decoy_runs as f64),
        m(
            "search.masks_per_s",
            "1/s",
            if search.dur_ns == 0 {
                0.0
            } else {
                c.evaluations as f64 / (search.dur_ns as f64 / 1e9)
            },
        ),
        m(
            "search.self_ms_per_req",
            "ms",
            search.self_ns as f64 / 1e6 / requests,
        ),
        m("service.queued_us_p50", "us", p50(&c.queued_us)),
        m("service.service_us_p50", "us", p50(&c.service_us)),
        m(
            "service.cache.lookup_us_per_call",
            "us",
            t("MaskCache::lookup").us_per_call(),
        ),
        m("service.self_us_per_req", "us", p50(&service_self)),
        m("service.cache.hits", "count", c.cache_hits as f64),
        m("service.cache.misses", "count", c.cache_misses as f64),
        m("service.searches", "count", c.searches as f64),
        m("fleet.wire.request_bytes", "B", mean(&c.request_bytes)),
        m("fleet.wire.encode_us_per_call", "us", per_call(&enc)),
        m("fleet.wire.decode_us_per_call", "us", per_call(&dec)),
        m("trace.coverage", "ratio", p50(&coverage)),
        m("trace.req_ms_p50", "ms", p50(&calls)),
    ]
}

/// Times the wire codec on one request and its answer, checking that
/// the answer survives the round trip.
fn wire_spans(
    rec: &Recorder,
    request: &Request,
    answer: &Recommendation,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let bytes = rec.span("wire.encode_request", || {
        wire::encode_request(request, WireDeadline::unbounded())
    });
    counts.request_bytes.push(bytes.len() as f64);
    rec.span("wire.decode_request", || wire::decode_request(&bytes))
        .map_err(|e| e.to_string())?;
    let response = Response::Mask(*answer);
    let bytes = rec.span("wire.encode_response", || wire::encode_response(&response));
    match rec.span("wire.decode_response", || wire::decode_response(&bytes)) {
        Ok(Response::Mask(back)) => check_same_answer(&back, answer),
        Ok(other) => Err(format!("wire returned {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn write_spans(args: &Args, ledger: &Ledger) {
    let path = format!(
        ".bench_trace/{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    );
    if let Err(e) = ledger.write_tsv(Path::new(&path)) {
        eprintln!("could not write {path}: {e}");
    } else {
        eprintln!("spans written to {path}");
    }
}

fn trace_search(w: Workload, args: &Args) -> Result<RunResult, String> {
    let svc = MaskService::start(w.service_config());
    let corpus = Corpus::new(w);
    let devices = epoch_devices(1);
    let cache = Arc::new(MaskCache::new(4096));
    let budget = SearchBudget::default();
    let rec = Arc::new(Recorder::new(Instant::now()));
    let order = corpus.order(&mut Rng::new(args.seed));
    let stats0 = svc.stats();
    let cache0 = svc.cache_stats();
    let mut counts = LayerCounts::default();
    let mut verdict = Verdict::default();
    let mut answers = Vec::new();
    let mut failed = 0u64;
    for (r, &item) in order.iter().enumerate() {
        rec.set_request(r as u32);
        let program = &corpus.programs[item.program];
        let device = device_at(&devices, 0, item.device).clone();
        let request = corpus.request(item);
        let outcome = rec.span("request", || -> Result<Recommendation, String> {
            let answer = rec.span("service.call", || mask_answer(svc.call(request.clone())));
            let answer = answer.inspect_err(|_| failed += 1)?;
            wire_spans(&rec, &request, &answer, &mut counts)?;
            counts.queued_us.push(answer.timing.queued_us as f64);
            counts.service_us.push(answer.timing.service_us as f64);

            // The same request through the library, one span per call.
            let compiled = rec.span("transpile", || {
                transpile(&program.circuit, &device, &TranspileOptions::default())
            });
            let hash = rec.span("structural_hash", || structural_hash(&compiled.timed));
            let key = MaskKey {
                device: item.device,
                epoch: 0,
                circuit_hash: hash,
                protocol: PROTOCOL,
                decoy: w.decoy(),
            };
            if key != answer.key {
                return Err(format!(
                    "library key {key:?} != service key {:?}",
                    answer.key
                ));
            }
            let Lookup::Miss(ticket) =
                rec.span("MaskCache::lookup", || MaskCache::lookup(&cache, key))
            else {
                return Err("cold key hit the cache".into());
            };
            let decoy = rec
                .span("make_decoy", || make_decoy(&compiled.timed, key.decoy))
                .map_err(|e| e.to_string())?;
            let cfg = checks::search_config(SERVICE_SEED, &key, key.decoy, budget);
            let traced = Arc::new(TracedMachine::new(
                Machine::new(device.clone()),
                Arc::clone(&rec),
            ));
            let adapt = Adapt::with_backend(Arc::clone(&traced) as Arc<dyn machine::Backend>);
            let n = program.num_qubits;
            let result = rec
                .span("search", || {
                    adapt.choose_mask_with_decoy(&compiled, &decoy, n, &cfg)
                })
                .map_err(|e| e.to_string())?;
            let ml = traced.take_ledger();
            // The search calls these internally; replaying them on the
            // same inputs times them.
            let analysis = rec.span("analyze_idle_windows", || {
                analyze_idle_windows(&decoy.timed, &device, &cfg.dd)
            });
            for ev in &result.evaluations {
                let wires = mask_to_wires(ev.mask, &compiled.initial_layout);
                let ins = rec.span("insert_dd_prepared", || {
                    insert_dd_prepared(&decoy.timed, &analysis, &wires)
                });
                counts.dd_pulses += ins.pulse_count as u64;
            }
            for c in &ml.counts {
                rec.span("metrics::fidelity", || {
                    black_box(adapt::metrics::fidelity(&decoy.ideal, c))
                });
            }
            let fidelity = result
                .evaluations
                .iter()
                .filter(|s| s.mask == result.best)
                .map(|s| s.fidelity)
                .next_back()
                .unwrap_or(0.0);
            let repeat = Recommendation {
                mask: result.best,
                decoy_fidelity: fidelity,
                decoy_runs: result.decoy_runs(),
                degraded: result.is_degraded(),
                ..answer
            };
            check_same_answer(&repeat, &answer)
                .map_err(|e| format!("library repeat of the search: {e}"))?;
            ticket.complete(CachedMask {
                mask: result.best,
                decoy_fidelity: fidelity,
                decoy_runs: result.decoy_runs(),
                degraded: result.is_degraded(),
            });
            // Dense time per run over the search's masks, against the
            // runs of the no-DD mask on the same decoy.
            let none = DdMask::none(n);
            let dense: Vec<(bool, u64)> = result
                .evaluations
                .iter()
                .zip(&ml.runs)
                .filter(|(_, run)| run.1 == SimEngine::StateVector)
                .map(|(ev, run)| (ev.mask == none, run.2))
                .collect();
            let reference: Vec<f64> = dense.iter().filter(|d| d.0).map(|d| d.1 as f64).collect();
            if !dense.is_empty() && !reference.is_empty() {
                let all = dense.iter().map(|d| d.1 as f64).sum::<f64>() / dense.len() as f64;
                let base = reference.iter().sum::<f64>() / reference.len() as f64;
                counts.pulse_penalty.push(all / base);
            }
            counts.plan_cache_hits += ml.plan_cache_hits;
            counts.decoy_runs += result.decoy_runs() as u64;
            counts.evaluations += result.evaluations.len() as u64;
            Ok(answer)
        });
        match outcome {
            Ok(answer) => answers.push((item, answer)),
            Err(e) => verdict.check(&format!("{} on {}", program.name, item.device), Err(e)),
        }
    }
    let stats1 = svc.stats();
    let cache1 = svc.cache_stats();
    svc.shutdown();
    counts.cache_hits = cache1.hits - cache0.hits;
    counts.cache_misses = cache1.misses - cache0.misses;
    counts.searches = stats1.searches - stats0.searches;
    verdict.check("cache accounting", check_cache_accounting(&cache1));
    verdict.check(
        "all misses",
        (counts.cache_hits == 0 && counts.searches == order.len() as u64)
            .then_some(())
            .ok_or_else(|| format!("{} hits, {} searches", counts.cache_hits, counts.searches)),
    );
    for (item, answer) in &answers {
        let program = &corpus.programs[item.program];
        let kc = KeyContext::new(
            &program.circuit,
            device_at(&devices, 0, item.device).clone(),
            &answer.key,
            SERVICE_SEED,
            budget,
        )?;
        verdict.check(
            &format!("{} on {}", program.name, item.device),
            kc.verify_search_answer(answer),
        );
    }
    let ledger = Ledger::merge(vec![rec.spans()]);
    write_spans(args, &ledger);
    println!(
        "{} (traced): one round of {} cold keys, failed {failed}",
        w.name(),
        order.len()
    );
    Ok(RunResult {
        correct: verdict.failures == 0,
        attempted: order.len() as u64,
        failed,
        metrics: layer_metrics(&ledger, &counts),
    })
}

fn trace_zipf(args: &Args) -> Result<RunResult, String> {
    let corpus = Corpus::new(Workload::ServeZipf);
    let (svc, fill) = zipf_setup(&corpus)?;
    let devices = epoch_devices(1);
    let cache = Arc::new(MaskCache::new(4096));
    for rec in &fill {
        cache.insert(
            rec.key,
            CachedMask {
                mask: rec.mask,
                decoy_fidelity: rec.decoy_fidelity,
                decoy_runs: rec.decoy_runs,
                degraded: rec.degraded,
            },
        );
    }
    let zipf = Zipf::new(corpus.items.len(), ZIPF_EXPONENT);
    let ranks = zipf_ranks(corpus.programs.len());
    let clients = ZIPF_CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let barrier = Barrier::new(clients);
    let origin = Instant::now();
    let stats0 = svc.stats();
    let cache0 = svc.cache_stats();

    type ClientOut = (
        Vec<crate::trace::Span>,
        LayerCounts,
        Vec<(usize, Recommendation)>,
        Vec<String>,
        u64,
    );
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (svc, corpus, zipf, ranks, barrier, cache, devices) =
                    (&svc, &corpus, &zipf, &ranks, &barrier, &cache, &devices);
                s.spawn(move || {
                    let rec = Recorder::new(origin);
                    let mut rng =
                        Rng::new(args.seed ^ (c as u64 + 1).wrapping_mul(0xe703_7ed1_a0b4_28db));
                    let mut counts = LayerCounts::default();
                    let (mut hits, mut errors, mut failed) = (Vec::new(), Vec::new(), 0u64);
                    barrier.wait();
                    for r in 0..ZIPF_TRACED_PER_CLIENT {
                        rec.set_request((c * ZIPF_TRACED_PER_CLIENT + r) as u32);
                        let k = ranks[zipf.sample(&mut rng)];
                        let item = corpus.items[k];
                        let request = corpus.request(item);
                        let outcome = rec.span("request", || -> Result<Recommendation, String> {
                            let answer =
                                rec.span("service.call", || mask_answer(svc.call(request.clone())));
                            let answer = answer.inspect_err(|_| failed += 1)?;
                            wire_spans(&rec, &request, &answer, &mut counts)?;
                            counts.queued_us.push(answer.timing.queued_us as f64);
                            counts.service_us.push(answer.timing.service_us as f64);
                            // Key derivation and lookup as each hit does them.
                            let device = device_at(devices, 0, item.device);
                            let compiled = rec.span("transpile", || {
                                transpile(
                                    &corpus.programs[item.program].circuit,
                                    device,
                                    &TranspileOptions::default(),
                                )
                            });
                            let hash =
                                rec.span("structural_hash", || structural_hash(&compiled.timed));
                            let key = MaskKey {
                                circuit_hash: hash,
                                ..answer.key
                            };
                            match rec.span("MaskCache::lookup", || MaskCache::lookup(cache, key)) {
                                Lookup::Hit(cached)
                                    if cached.mask == answer.mask && key == answer.key =>
                                {
                                    Ok(answer)
                                }
                                Lookup::Hit(_) => {
                                    Err("library lookup disagrees with the service".into())
                                }
                                Lookup::Miss(_) => Err("library lookup missed a filled key".into()),
                            }
                        });
                        match outcome {
                            Ok(answer) => hits.push((k, answer)),
                            Err(e) => errors.push(e),
                        }
                    }
                    (rec.spans(), counts, hits, errors, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats1 = svc.stats();
    let cache1 = svc.cache_stats();
    svc.shutdown();

    let mut verdict = Verdict::default();
    let mut counts = LayerCounts::default();
    let mut hits = Vec::new();
    let mut spans = Vec::new();
    let mut failed = 0;
    for (s, c, h, errors, f) in outs {
        spans.push(s);
        counts.queued_us.extend(c.queued_us);
        counts.service_us.extend(c.service_us);
        counts.request_bytes.extend(c.request_bytes);
        hits.extend(h);
        failed += f;
        for e in errors {
            verdict.check("traced request", Err(e));
        }
    }
    counts.cache_hits = cache1.hits - cache0.hits;
    counts.cache_misses = cache1.misses - cache0.misses;
    counts.searches = stats1.searches - stats0.searches;
    verdict.check("cache accounting", check_cache_accounting(&cache1));
    verdict.check(
        "all hits",
        (counts.cache_misses == 0
            && counts.searches == 0
            && counts.cache_hits == hits.len() as u64)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "{} misses, {} searches",
                    counts.cache_misses, counts.searches
                )
            }),
    );
    check_hits_and_score(&mut verdict, &corpus, &fill, &hits, false)?;
    let ledger = Ledger::merge(spans);
    write_spans(args, &ledger);
    let attempted = (clients * ZIPF_TRACED_PER_CLIENT) as u64;
    println!("serve_zipf (traced): {clients} clients × {ZIPF_TRACED_PER_CLIENT} requests, failed {failed}");
    Ok(RunResult {
        correct: verdict.failures == 0,
        attempted,
        failed,
        metrics: layer_metrics(&ledger, &counts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_cover_every_serve_zipf_key_once() {
        let n = Workload::ServeZipf.programs().len();
        let mut ranks = zipf_ranks(n);
        assert_eq!(&ranks[..4], &[0, 4, 8, 9]);
        ranks.sort_unstable();
        assert_eq!(ranks, (0..n * DEVICES.len()).collect::<Vec<_>>());
    }
}
