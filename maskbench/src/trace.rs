//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer's public functions, and the `Backend` wrapper that
//! times machine executions inside an unchanged search.
//!
//! A span has a name, start, end, parent and request id. Spans stay in
//! memory until the run ends; then they are written out as one TSV file
//! and reduced to per-layer figures. A span's self time is its duration
//! minus the part of it that its child spans cover.

use machine::{
    routing_key, structural_hash, Backend, CompiledPlan, ExecError, ExecutionConfig, Machine,
    ShotBatch, SimEngine,
};
use qcirc::{Circuit, Counts};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use transpiler::{try_schedule, SchedulePolicy, TimedCircuit};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which call (a layer's public function).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

/// Span recorder for one thread of calls (nesting follows call order).
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder lock poisoned")
    }

    /// Tags later spans with request `id`.
    pub fn set_request(&self, id: u32) {
        self.lock().request = id;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut st = self.lock();
            let idx = st.spans.len();
            let parent = st.stack.last().copied();
            let request = st.request;
            st.stack.push(idx);
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            idx
        };
        let out = f();
        let mut st = self.lock();
        st.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        st.stack.pop();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Count, total duration and total self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub dur_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in µs (0 without spans).
    pub fn us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Spans of a finished run with their self times.
pub struct Ledger {
    /// All spans, parents before children within each recorder.
    pub spans: Vec<Span>,
    /// Self time of each span, ns.
    pub self_ns: Vec<u64>,
}

impl Ledger {
    /// Merges the spans of several recorders (parent indices are
    /// re-based per recorder).
    pub fn merge(recorders: Vec<Vec<Span>>) -> Self {
        let mut spans = Vec::new();
        let mut self_ns = Vec::new();
        for rec in recorders {
            let base = spans.len();
            self_ns.extend(self_times(&rec));
            spans.extend(rec.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Ledger { spans, self_ns }
    }

    /// Totals of the spans called `name`.
    pub fn totals(&self, name: &str) -> NameTotals {
        let mut t = NameTotals::default();
        for (s, &own) in self.spans.iter().zip(&self.self_ns) {
            if s.name == name {
                t.count += 1;
                t.dur_ns += s.dur_ns();
                t.self_ns += own;
            }
        }
        t
    }

    /// Durations (ns) of the spans called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per request: the duration of its first top-level span called
    /// `outer`, and how much of it the library layers explain: the self
    /// times of the top-level spans named in `layers` and of every span
    /// below them, except deeper spans named in `extra` (work the traced
    /// repetition does on top of what the request itself does). Requests
    /// in id order; a top-level span is a child of the request's root.
    pub fn explained_per_request(
        &self,
        outer: &str,
        layers: &[&str],
        extra: &[&str],
    ) -> Vec<(u64, u64)> {
        // The top-level ancestor of each span (None for roots).
        let mut top: Vec<Option<usize>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            top[i] = s.parent.map(|p| top[p].unwrap_or(i));
        }
        let mut by_req: BTreeMap<u32, (Option<u64>, u64)> = BTreeMap::new();
        for (i, (s, &own)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let Some(t) = top[i] else { continue };
            let e = by_req.entry(s.request).or_default();
            if t == i && s.name == outer && e.0.is_none() {
                e.0 = Some(s.dur_ns());
            } else if layers.contains(&self.spans[t].name) && (t == i || !extra.contains(&s.name)) {
                e.1 += own;
            }
        }
        by_req
            .into_values()
            .filter_map(|(o, explained)| o.map(|o| (o, explained)))
            .collect()
    }

    /// Writes the spans as TSV (name, request, start, end, parent,
    /// self time; times in ns).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\trequest\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (s, own) in self.spans.iter().zip(&self.self_ns) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns, parent, own
            )?;
        }
        out.flush()
    }
}

/// Counts kept by [`TracedMachine`].
#[derive(Debug, Default, Clone)]
pub struct MachineLedger {
    /// Executions whose plan had been built before (by routing key).
    pub plan_cache_hits: u64,
    /// Per execution: structural hash, engine and engine time (ns).
    pub runs: Vec<(u64, SimEngine, u64)>,
    /// Output counts of every execution, for replaying the scoring step.
    pub counts: Vec<Counts>,
}

/// A [`Backend`] over a [`Machine`] that times each execution's layers:
/// the structural hash, the plan build (first sighting of a routing key,
/// followed by a zero-shot execution that caches the plan inside the
/// machine), and the engine run with the plan already cached.
pub struct TracedMachine {
    inner: Machine,
    rec: Arc<Recorder>,
    engines: Mutex<HashMap<u64, SimEngine>>,
    ledger: Mutex<MachineLedger>,
}

impl TracedMachine {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Machine, rec: Arc<Recorder>) -> Self {
        TracedMachine {
            inner,
            rec,
            engines: Mutex::new(HashMap::new()),
            ledger: Mutex::new(MachineLedger::default()),
        }
    }

    /// Takes the counts recorded so far.
    pub fn take_ledger(&self) -> MachineLedger {
        std::mem::take(&mut *self.ledger.lock().expect("machine ledger lock poisoned"))
    }
}

impl Backend for TracedMachine {
    fn execute(&self, circuit: &Circuit, config: &ExecutionConfig) -> Result<ShotBatch, ExecError> {
        let timed = try_schedule(circuit, self.inner.device(), SchedulePolicy::Alap)?;
        self.execute_timed(&timed, config)
    }

    fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<ShotBatch, ExecError> {
        let hash = self
            .rec
            .span("structural_hash", || black_box(structural_hash(timed)));
        let key = routing_key(timed, self.inner.toggles(), self.inner.engine_policy());
        let known = self
            .engines
            .lock()
            .expect("engine map lock poisoned")
            .get(&key)
            .copied();
        let engine = match known {
            Some(engine) => {
                self.ledger
                    .lock()
                    .expect("machine ledger lock poisoned")
                    .plan_cache_hits += 1;
                engine
            }
            None => {
                let plan = self.rec.span("CompiledPlan::build", || {
                    CompiledPlan::build(
                        timed,
                        self.inner.device(),
                        self.inner.toggles(),
                        self.inner.engine_policy(),
                    )
                })?;
                let warm = ExecutionConfig {
                    shots: 0,
                    ..*config
                };
                self.rec
                    .span("plan.warm", || self.inner.execute_timed(timed, &warm))?;
                self.engines
                    .lock()
                    .expect("engine map lock poisoned")
                    .insert(key, plan.engine);
                plan.engine
            }
        };
        let name = match engine {
            SimEngine::Chp => "engine.chp",
            SimEngine::StateVector => "engine.dense",
        };
        let t0 = Instant::now();
        let counts = self
            .rec
            .span(name, || self.inner.execute_timed(timed, config))?;
        let ns = t0.elapsed().as_nanos() as u64;
        let mut ledger = self.ledger.lock().expect("machine ledger lock poisoned");
        ledger.runs.push((hash, engine, ns));
        ledger.counts.push(counts.clone());
        Ok(ShotBatch::complete(counts, config.shots))
    }

    fn device_snapshot(&self) -> device::Device {
        self.inner.device().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 25, 8]);
    }

    #[test]
    fn explained_time_counts_only_the_named_layers() {
        let spans = vec![
            span("request", 0, 200, None),
            span("service.call", 0, 100, Some(0)),
            span("transpile", 100, 130, Some(0)),
            span("search", 130, 180, Some(0)),
            span("engine", 140, 160, Some(3)),
            span("hash", 160, 165, Some(3)),
            span("wire", 180, 200, Some(0)),
        ];
        let ledger = Ledger::merge(vec![spans]);
        // transpile 30 + search self 25 + engine 20; the extra hash, the
        // wire span and the outer call itself are left out.
        assert_eq!(
            ledger.explained_per_request("service.call", &["transpile", "search"], &["hash"]),
            vec![(100, 75)]
        );
        assert_eq!(
            ledger.explained_per_request("service.call", &["transpile", "search"], &[]),
            vec![(100, 80)]
        );
    }

    #[test]
    fn recorder_nests_spans_in_call_order() {
        let rec = Recorder::new(Instant::now());
        rec.set_request(7);
        rec.span("outer", || {
            rec.span("inner", || std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
