//! The traced run (`--trace 1`): the same generated inputs and request sequences,
//! first over the wire untraced (server CPU, push wait, the read p50 the residual is
//! taken from), then replayed in-process through each layer's public functions with
//! spans recorded here, around the calls. Prints the per-layer table.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pdqi_core::{
    ChangeScope, EngineSnapshot, Mutation, Parallelism, PreparedQuery, SnapshotRegistry,
    SubscriptionManager, WriteCoalescer, WriteFrame,
};
use pdqi_priority::Priority;
use pdqi_relation::{TupleId, Value};
use pdqi_server::{ExecMode, Request};

use crate::gen::{Family, Mode, Read, Write};
use crate::oracle;
use crate::run::{self, Checks, Inputs, Stream, Tag};
use crate::stats;
use crate::wire::Conn;
use crate::{Args, Metric, Report};

/// One recorded span: a layer call made for request `req`.
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, req, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, req, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Durations of every span named `name`, in `unit_ns` units.
    fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / unit_ns)
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name,
                span.req,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The per-layer table: metric, layer, the end-to-end metrics it should move, and
/// the workload that shows it.
const LAYERS: &[(&str, &str, &str, &str)] = &[
    ("server.residual_us", "server::server", "read_p50_ms read_max_rps", "serve_hot"),
    ("server.render_us", "server::server", "read_p50_ms", "serve_hot"),
    ("server.push_wait_ms", "server::server", "push_lag_p50_ms", "serve_hot adhoc_scan"),
    ("server.cpu_ms_per_kop", "server::server", "read_max_rps", "serve_hot"),
    ("protocol.parse_us", "server::protocol", "read_p50_ms", "serve_hot"),
    ("protocol.req_bytes", "server::protocol", "read_p50_ms", "serve_hot"),
    ("protocol.resp_bytes", "server::protocol", "read_p50_ms", "serve_hot"),
    ("registry.lease_us", "core::registry", "read_p50_ms", "serve_hot adhoc_scan"),
    ("registry.swap_ms", "core::registry", "mutate_p50_ms", "serve_hot adhoc_scan"),
    ("prepared.parse_us", "core::prepared", "read_p50_ms", "adhoc_scan"),
    ("prepared.execute_us_p50", "core::prepared", "read_p50_ms read_max_rps", "adhoc_scan"),
    ("prepared.execute_us_p99", "core::prepared", "read_p50_ms read_max_rps", "adhoc_scan"),
    ("prepared.selections_per_query", "core::prepared", "read_p50_ms read_max_rps", "adhoc_scan"),
    (
        "prepared.answer_hit_ratio",
        "core::prepared",
        "read_p50_ms read_max_rps",
        "adhoc_scan (about 1 on serve_hot)",
    ),
    ("prepared.answer_evictions", "core::prepared", "read_max_rps", "adhoc_scan"),
    ("prepared.component_hit_ratio", "core::prepared", "read_p50_ms", "adhoc_scan"),
    ("planner.planned", "query::planner", "read_p50_ms read_max_rps", "adhoc_scan"),
    ("planner.cache_hit_ratio", "query::planner", "read_p50_ms", "adhoc_scan"),
    ("planner.derived_components", "query::planner", "read_p50_ms", "adhoc_scan"),
    ("eval.vectorized_ratio", "query::vector/eval", "read_p50_ms read_max_rps", "adhoc_scan"),
    ("enumerate.rep_ms", "core::families", "setup_s", "all"),
    ("enumerate.semiglobal_ms", "core::families", "setup_s revise_p50_ms mutate_p50_ms", "all"),
    ("enumerate.global_ms", "core::families", "setup_s revise_p50_ms mutate_p50_ms", "all"),
    ("enumerate.common_ms", "core::families", "setup_s revise_p50_ms mutate_p50_ms", "all"),
    ("enumerate.components", "core::families", "setup_s", "all"),
    ("snapshot.build_ms", "core::snapshot", "setup_s", "all"),
    ("snapshot.revise_ms", "core::snapshot", "revise_p50_ms", "serve_hot adhoc_scan"),
    ("snapshot.invalidated_components", "core::snapshot", "revise_p50_ms", "serve_hot adhoc_scan"),
    ("delta.derive_ms", "core::delta", "mutate_p50_ms push_lag_p50_ms", "serve_hot adhoc_scan"),
    ("delta.recomputed_entries", "core::delta", "mutate_p50_ms", "serve_hot adhoc_scan"),
    ("delta.carried_entries", "core::delta", "mutate_p50_ms", "serve_hot adhoc_scan"),
    ("window.apply_ms", "core::window", "mutate_p50_ms", "serve_hot adhoc_scan"),
    ("window.frames_per_batch", "core::window", "mutate_p50_ms", "serve_hot adhoc_scan"),
    (
        "subscribe.executions",
        "core::subscribe",
        "push_lag_p50_ms mutate_p50_ms",
        "serve_hot adhoc_scan",
    ),
    (
        "subscribe.skip_ratio",
        "core::subscribe",
        "push_lag_p50_ms mutate_p50_ms",
        "serve_hot adhoc_scan",
    ),
    ("subscribe.lagged", "core::subscribe", "push_lag_p50_ms", "serve_hot adhoc_scan"),
    ("trace.overhead_us", "(benchmark)", "traced minus untraced per read", "all"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `key=value` from a `STATS` line starting with `prefix`.
fn stat(stats: &str, prefix: &str, key: &str) -> u64 {
    stats
        .lines()
        .find(|line| line.starts_with(prefix))
        .and_then(|line| {
            line.split_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The in-process stand-in for the server's dispatch of one read request.
struct Replay {
    registry: Arc<SnapshotRegistry>,
    prepared: HashMap<String, Arc<PreparedQuery>>,
}

impl Replay {
    /// Dispatches one request frame, tracing each layer when `tracer` is given.
    /// Returns the rendered response size.
    fn request(
        &mut self,
        frame: &str,
        req: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<usize, String> {
        macro_rules! layer {
            ($name:expr, $parent:expr, $body:expr) => {
                match tracer.as_deref_mut() {
                    Some(t) => t.span($name, req, $parent, || $body),
                    None => $body,
                }
            };
        }
        let root = tracer.as_deref_mut().map(|t| t.open("request", req, None));
        let request = layer!("protocol.parse", root, Request::parse(frame))?;
        let specs = match request {
            Request::Prepare { id, query } => {
                let query = layer!("prepared.parse", root, PreparedQuery::parse(&query))
                    .map_err(|e| e.to_string())?;
                self.prepared.insert(id, Arc::new(query));
                if let (Some(t), Some(root)) = (tracer, root) {
                    t.close(root);
                }
                return Ok(0);
            }
            Request::Exec(spec) => vec![spec],
            Request::Batch(specs) => specs,
            other => return Err(format!("not a read: {other:?}")),
        };
        let lease = layer!("registry.lease", root, self.registry.read("R")).ok_or("no snapshot")?;
        let mut bytes = 0;
        for spec in specs {
            let query = self.prepared.get(&spec.id).ok_or("unknown prepared query")?;
            let mode = match spec.mode {
                ExecMode::Certain => Mode::Certain,
                ExecMode::Possible => Mode::Possible,
                _ => Mode::Closed,
            };
            let answer = layer!(
                "prepared.execute",
                root,
                oracle::execute(lease.snapshot(), query, spec.family, mode)
            );
            bytes += layer!("server.render", root, oracle::render(&answer)).len();
        }
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        Ok(bytes)
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let mut inputs = Inputs::generate(args)?;
    let mut checks = Checks::default();
    let mut stream = Stream::new(&inputs.table, args.seed);
    let mut detail = Vec::new();

    // Over the wire, untraced: the same phases as the end-to-end run, with at least
    // twice the fixed-rate reads (half replay traced, half untraced).
    let (live, setup_s) = run::setup(args, &inputs, &mut checks)?;
    let g0 = live.g0;
    let (_, fixed_secs, write_secs) = run::phase_seconds(workload, args.seconds);
    let min_secs = 2.0 * run::READ_SAMPLES as f64 / workload.fixed_rate();
    // Server CPU per operation over the read traffic.
    let cpu_before = live.server.cpu_ms();
    let (read_ms, mut ops) = run::fixed_phase(
        &live,
        &mut inputs,
        &mut checks,
        workload,
        fixed_secs.max(min_secs),
        &mut detail,
    )?;
    let cpu_ms = live.server.cpu_ms() - cpu_before;
    let (write_samples, write_ops) = run::write_phase(
        &live,
        &mut inputs,
        &mut checks,
        &mut stream,
        workload,
        write_secs,
        &mut detail,
    )?;
    // The write phase follows the reads.
    ops.extend(write_ops);
    let cpu_ms_per_kop = cpu_ms / read_ms.len() as f64 * 1000.0;
    let server_stats = Conn::connect(&live.server.addr)
        .and_then(|mut conn| conn.request("STATS"))
        .map_err(|e| format!("STATS failed: {e}"))?;
    live.server.stop().map_err(|e| format!("cannot stop the server: {e}"))?;
    let oracle_g0 = oracle::build(&inputs.table);
    checks.verify(&inputs.table, g0, &stream.writes, &run::FAMILIES, &oracle_g0, args.seed);
    drop(oracle_g0);

    // In-process, traced.
    let mut tracer = Tracer::new();
    let parallelism = Parallelism::sequential();
    let snapshot: EngineSnapshot =
        tracer.span("snapshot.build", 0, None, || oracle::build(&inputs.table));
    let mut enumerate = Vec::new();
    for (name, family) in [
        ("enumerate.rep", Family::Rep),
        ("enumerate.semiglobal", Family::S),
        ("enumerate.global", Family::G),
        ("enumerate.common", Family::C),
    ] {
        let count =
            tracer.span(name, 0, None, || snapshot.warm_components(family.kind(), parallelism));
        enumerate.push(count);
    }
    let registry = SnapshotRegistry::shared();
    registry.publish("R", snapshot.clone());
    // Mutations go through the write coalescer, as the server sends them.
    let coalescer = WriteCoalescer::new(Arc::clone(&registry), parallelism);
    let manager = SubscriptionManager::new(parallelism);
    manager.attach(&registry);
    for read in &inputs.subscriptions {
        let query = Arc::new(PreparedQuery::parse(&read.text).map_err(|e| e.to_string())?);
        let semantics = if read.mode == Mode::Certain {
            pdqi_core::Semantics::Certain
        } else {
            pdqi_core::Semantics::Possible
        };
        manager
            .subscribe(&registry, query, read.family.kind(), semantics)
            .map_err(|e| e.to_string())?;
    }
    let mut replay = Replay { registry: Arc::clone(&registry), prepared: HashMap::new() };
    let mut req = 1u64;
    // The set-up's prepares (the pool), as the server saw them.
    let mut ids: Vec<(&String, &String)> = inputs.ids.iter().collect();
    ids.sort();
    for (text, id) in ids {
        replay.request(&format!("PREPARE {id} {text}"), req, Some(&mut tracer))?;
        req += 1;
    }
    let plans_before = pdqi_core::plan_stats();
    let eval_before = pdqi_query::eval_path_stats();
    let mut memo = [0u64; 5]; // answer hits, misses, evictions, component hits, misses
    let mut selections = Vec::new();
    let (mut req_bytes, mut resp_bytes, mut requests) = (0usize, 0usize, 0usize);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let (mut recomputed, mut carried) = (0u64, 0u64);
    let mut invalidated = Vec::new();
    // Reads and writes in the order they were sent.
    for (i, (op, tag)) in ops.iter().enumerate() {
        match tag {
            Tag::Write(k) => match &stream.writes[*k] {
                Write::Mutate { inserts, deletes } => {
                    let rows = |rows: &[crate::gen::Row]| -> Vec<Vec<Value>> {
                        rows.iter()
                            .map(|r| r.values.iter().map(|&v| Value::int(v)).collect())
                            .collect()
                    };
                    let mutation = Mutation::new()
                        .insert_rows("R", rows(inserts))
                        .delete_rows("R", rows(deletes));
                    // The derivation alone, on the current snapshot and unpublished;
                    // then the same frame through the coalescer, which derives again
                    // and swaps. Its swap is the difference.
                    let lease = registry.read("R").ok_or("no snapshot")?;
                    let (_, report) = tracer
                        .span("delta.derive", req, None, || {
                            lease.snapshot().with_mutations_reported(&mutation, parallelism)
                        })
                        .map_err(|e| e.to_string())?;
                    drop(lease);
                    recomputed += report.recomputed_entries as u64;
                    carried += report.carried_entries as u64;
                    let frame = WriteFrame::new(rows(inserts), rows(deletes));
                    tracer
                        .span("window.apply", req, None, || coalescer.apply("R", frame))
                        .map_err(|e| e.to_string())?;
                }
                Write::Revise { .. } => {
                    let Ok(Request::SetPriority { pairs, .. }) = Request::parse(&op.frames[0])
                    else {
                        return Err("unparseable SET-PRIORITY frame".into());
                    };
                    let pairs: Vec<(TupleId, TupleId)> =
                        pairs.iter().map(|&(w, l)| (TupleId(w), TupleId(l))).collect();
                    let apply = tracer.open("registry.revise", req, None);
                    let spans = &mut tracer;
                    let mut touched = 0;
                    registry
                        .revise_scoped("R", |current| {
                            let graph =
                                Arc::clone(current.context_of("R").ok_or("no relation R")?.graph());
                            let priority =
                                Priority::from_pairs(graph, &pairs).map_err(|e| e.to_string())?;
                            let (snapshot, affected) = spans
                                .span("snapshot.revise", req, Some(apply), || {
                                    current.with_priority_revalidated_reported_for(
                                        "R",
                                        priority,
                                        parallelism,
                                    )
                                })
                                .map_err(|e| e.to_string())?;
                            touched = affected.len();
                            Ok::<_, String>((
                                snapshot,
                                ChangeScope::Priority { relation: "R".into(), affected },
                            ))
                        })
                        .map_err(|e| e.to_string())?;
                    tracer.close(apply);
                    invalidated.push(touched as f64);
                }
            },
            _ => {
                // Every other read runs untraced, to measure what tracing costs.
                let traced_op = i % 2 == 0;
                let lease = registry.read("R").ok_or("no snapshot")?;
                let before = lease.snapshot().memo_stats();
                let started = Instant::now();
                let mut bytes = 0;
                for frame in &op.frames {
                    bytes += replay.request(frame, req, traced_op.then_some(&mut tracer))?;
                    req_bytes += frame.len() + 4;
                }
                let elapsed_us = started.elapsed().as_nanos() as f64 / US;
                if traced_op {
                    traced.push(elapsed_us)
                } else {
                    plain.push(elapsed_us)
                }
                let after = lease.snapshot().memo_stats();
                for (slot, (a, b)) in memo.iter_mut().zip([
                    (after.answer_hits, before.answer_hits),
                    (after.answer_misses, before.answer_misses),
                    (after.answer_evictions, before.answer_evictions),
                    (after.component_hits, before.component_hits),
                    (after.component_misses, before.component_misses),
                ]) {
                    *slot += a - b;
                }
                resp_bytes += bytes + 4 * op.frames.len();
                requests += 1;
                // Rep ground probes take the polynomial path: no product is enumerated.
                for read in reads_of(tag, &checks).into_iter().filter(|r| r.family != Family::Rep) {
                    selections
                        .push(lease.snapshot().preferred_repair_count(read.family.kind()) as f64);
                }
            }
        }
        req += 1;
    }
    let plans = pdqi_core::plan_stats();
    let eval = pdqi_query::eval_path_stats();
    let spans_path = args.out.join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
    tracer.write(&spans_path).map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    // A revision's swap is its registry span minus the revalidation inside it; a
    // mutation's is its coalescer span minus the same derivation timed alone.
    let mut swap_ms = Vec::new();
    let mut derived = HashMap::new();
    for (i, span) in tracer.spans.iter().enumerate() {
        let ns = span.end_ns - span.start_ns;
        match span.name {
            "delta.derive" => {
                derived.insert(span.req, ns);
            }
            "window.apply" => {
                let derive = derived.get(&span.req).copied().unwrap_or(0);
                swap_ms.push(ns.saturating_sub(derive) as f64 / MS);
            }
            "registry.revise" => {
                let child: u64 = tracer
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                swap_ms.push(ns.saturating_sub(child) as f64 / MS);
            }
            _ => {}
        }
    }
    // Wire read p50 minus the in-process parse + lease + execute + render of a read.
    let residual_us = stats::median(&read_ms) * US - stats::median(&traced);
    let p50 = |name: &str, unit: f64| stats::median(&tracer.durations(name, unit));
    let one = |name: &str, unit: f64| tracer.durations(name, unit).first().copied().unwrap_or(0.0);
    let execute_us = tracer.durations("prepared.execute", US);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let frames = stat(&server_stats, "writes", "frames");
    let batches = stat(&server_stats, "writes", "batches");
    let executions = stat(&server_stats, "subscriptions", "executions");
    let skipped = stat(&server_stats, "subscriptions", "skipped");
    let planned = plans.planned - plans_before.planned;
    let plan_hits = plans.cache_hits - plans_before.cache_hits;
    let vectorized = eval.vectorized - eval_before.vectorized;
    let scalar = eval.scalar - eval_before.scalar;
    let table: Vec<(&'static str, f64, &'static str, usize)> = vec![
        ("server.residual_us", residual_us, "us", traced.len()),
        ("server.render_us", p50("server.render", US), "us", execute_us.len()),
        (
            "server.push_wait_ms",
            stats::median(&write_samples.push_wait_ms),
            "ms",
            write_samples.push_wait_ms.len(),
        ),
        ("server.cpu_ms_per_kop", cpu_ms_per_kop, "ms/kop", read_ms.len()),
        (
            "protocol.parse_us",
            p50("protocol.parse", US),
            "us",
            tracer.durations("protocol.parse", US).len(),
        ),
        ("protocol.req_bytes", req_bytes as f64 / requests.max(1) as f64, "bytes", requests),
        ("protocol.resp_bytes", resp_bytes as f64 / requests.max(1) as f64, "bytes", requests),
        (
            "registry.lease_us",
            p50("registry.lease", US),
            "us",
            tracer.durations("registry.lease", US).len(),
        ),
        ("registry.swap_ms", stats::median(&swap_ms), "ms", swap_ms.len()),
        (
            "prepared.parse_us",
            p50("prepared.parse", US),
            "us",
            tracer.durations("prepared.parse", US).len(),
        ),
        ("prepared.execute_us_p50", stats::median(&execute_us), "us", execute_us.len()),
        ("prepared.execute_us_p99", stats::percentile(&execute_us, 99.0), "us", execute_us.len()),
        ("prepared.selections_per_query", mean(&selections), "count", selections.len()),
        (
            "prepared.answer_hit_ratio",
            ratio(memo[0], memo[0] + memo[1]),
            "ratio",
            (memo[0] + memo[1]) as usize,
        ),
        ("prepared.answer_evictions", memo[2] as f64, "count", 1),
        (
            "prepared.component_hit_ratio",
            ratio(memo[3], memo[3] + memo[4]),
            "ratio",
            (memo[3] + memo[4]) as usize,
        ),
        ("planner.planned", planned as f64, "count", 1),
        (
            "planner.cache_hit_ratio",
            ratio(plan_hits, planned + plan_hits),
            "ratio",
            (planned + plan_hits) as usize,
        ),
        (
            "planner.derived_components",
            (plans.derived_components - plans_before.derived_components) as f64,
            "count",
            1,
        ),
        (
            "eval.vectorized_ratio",
            ratio(vectorized, vectorized + scalar),
            "ratio",
            (vectorized + scalar) as usize,
        ),
        ("enumerate.rep_ms", one("enumerate.rep", MS), "ms", 1),
        ("enumerate.semiglobal_ms", one("enumerate.semiglobal", MS), "ms", 1),
        ("enumerate.global_ms", one("enumerate.global", MS), "ms", 1),
        ("enumerate.common_ms", one("enumerate.common", MS), "ms", 1),
        ("enumerate.components", enumerate[2] as f64, "count", 1),
        ("snapshot.build_ms", one("snapshot.build", MS), "ms", 1),
        ("snapshot.revise_ms", p50("snapshot.revise", MS), "ms", invalidated.len()),
        ("snapshot.invalidated_components", mean(&invalidated), "count", invalidated.len()),
        (
            "delta.derive_ms",
            p50("delta.derive", MS),
            "ms",
            tracer.durations("delta.derive", MS).len(),
        ),
        ("delta.recomputed_entries", recomputed as f64, "count", 1),
        ("delta.carried_entries", carried as f64, "count", 1),
        (
            "window.apply_ms",
            p50("window.apply", MS),
            "ms",
            tracer.durations("window.apply", MS).len(),
        ),
        ("window.frames_per_batch", ratio(frames, batches), "ratio", batches as usize),
        ("subscribe.executions", executions as f64, "count", 1),
        (
            "subscribe.skip_ratio",
            ratio(skipped, skipped + executions),
            "ratio",
            (skipped + executions) as usize,
        ),
        ("subscribe.lagged", stat(&server_stats, "subscriptions", "lagged") as f64, "count", 1),
        (
            "trace.overhead_us",
            stats::median(&traced) - stats::median(&plain),
            "us",
            traced.len() + plain.len(),
        ),
    ];
    detail.push(format!(
        "setup_s={setup_s:.3} spans={} file={}",
        tracer.spans.len(),
        spans_path.display()
    ));
    println!(
        "{:<32} {:<20} {:>14} {:<6} {:<40} on",
        "per-layer metric", "layer", "value", "unit", "moves"
    );
    let mut metrics = Vec::new();
    for (name, value, unit, samples) in table {
        let (_, layer, moves, on) =
            LAYERS.iter().find(|(n, ..)| *n == name).expect("every metric has a table row");
        // An empty sample (no such work in this run) reports 0, never NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<32} {layer:<20} {value:>14.4} {unit:<6} {moves:<40} {on}");
        metrics.push(Metric { name, value, unit, samples });
    }
    println!(
        "tracing overhead: {:.3} us per read request (median traced {:.3} us, untraced {:.3} us, n={}+{})",
        stats::median(&traced) - stats::median(&plain),
        stats::median(&traced),
        stats::median(&plain),
        traced.len(),
        plain.len()
    );
    Ok(Report {
        attempted: checks.ops as u64,
        failed: checks.failed() as u64,
        mismatches: checks.mismatches.clone(),
        metrics,
        detail,
    })
}

fn reads_of<'a>(tag: &Tag, checks: &'a Checks) -> Vec<&'a Read> {
    match tag {
        Tag::Exec(r) | Tag::Adhoc(r) => vec![&checks.catalogue[*r]],
        Tag::Batch(rs) => rs.iter().map(|r| &checks.catalogue[*r]).collect(),
        Tag::Write(_) => Vec::new(),
    }
}
