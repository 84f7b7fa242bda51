//! The end-to-end run (`--trace 0`): set-up, then rounds of closed-loop capacity,
//! fixed-rate read and write chunks over the wire, then the oracle check of every
//! answer.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pdqi_core::EngineSnapshot;

use crate::gen::{self, Family, Mode, Read, Rng, Row, Table, Write};
use crate::oracle;
use crate::stats::{self, Folded, Step, Verdict};
use crate::wire::{self, Conn, Done, Op, Server};
use crate::{Args, Metric, Report, Workload};

/// Reads in the fixed-rate phase: enough for a p99 with ten samples beyond it.
pub(crate) const READ_SAMPLES: usize = stats::WINDOW;

/// Seconds of the capacity phase, the fixed-rate read phase and the write phase
/// within a run of `seconds`.
pub(crate) fn phase_seconds(workload: Workload, seconds: f64) -> (f64, f64, f64) {
    let reads = READ_SAMPLES as f64 / workload.fixed_rate();
    // The write phase is the longest: push lag waits out the server's idle poll, a
    // uniform share of 50 ms, so its median needs many writes.
    (seconds * 0.3, (seconds * 0.2).max(reads), seconds * 0.45)
}

/// Slices of the closed-loop capacity phase; the first of each chunk, while the
/// window fills, is not counted.
const SLICE: Duration = Duration::from_millis(100);
/// Rounds of capacity, fixed-rate and write chunks per run.
const ROUNDS: usize = 8;

/// Writes whose invariants are checked before any timing.
const INVARIANT_WRITES: usize = 400;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Writes per second in the write phase.
const WRITE_RATE: f64 = 15.0;
/// Longest wait for the responses of a phase after its last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Prepared-statement handles the ad-hoc lanes rotate through (re-`PREPARE`d with
/// fresh text, as a client reusing statement handles would): few enough that the
/// server's 4096-entry statement cache never clears.
const ADHOC_HANDLES: usize = 2000;
/// A fresh oracle build pays about a second for its first S-Rep answer (the family
/// is derived over every component), so past the initial state S-Rep is checked at
/// about this many generations, a seeded stride through those with S-Rep answers:
/// its answers there and its whole product. G-Rep and C-Rep are checked at every
/// generation, and the structural invariant bounds all three products at every
/// generation before timing.
const S_GENERATIONS: usize = 4;

impl Workload {
    /// Read p90 limit: the capacity phase keeps its latency at half of it, and the
    /// fixed-rate phase is valid only while the generator stays well within it.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::ServeHot => 2.0,
            Workload::AdhocScan => 25.0,
        }
    }

    /// Offered read rate of the fixed-rate phase.
    pub fn fixed_rate(self) -> f64 {
        match self {
            Workload::ServeHot => 2000.0,
            Workload::AdhocScan => 400.0,
        }
    }

    /// Ops each closed-loop connection keeps in flight: by Little's law (latency =
    /// in flight / rate), about half the limit's worth at the rate a connection
    /// sustains on a 2-vCPU Xeon (serve_hot about 60k/s, adhoc_scan 1.6k/s), so
    /// that the server never waits for a request while the latency stays within the
    /// limit. Fixed, so that two builds are measured with the same window.
    fn window(self) -> usize {
        match self {
            Workload::ServeHot => 48,
            Workload::AdhocScan => 16,
        }
    }

    /// Connections of the closed-loop capacity phase, one generator thread each.
    /// `serve_hot` uses as many as there are CPUs: its reads are so cheap that on
    /// one connection server and generator took turns, each idle a sixth of the
    /// time, and the rate followed how fast an idle CPU woke (spread 0.28 over five
    /// seeds against 0.12). One `adhoc_scan` connection keeps a server thread busy
    /// (the generator needs an eighth of a CPU), and two made the rate follow the
    /// slower CPU of the moment (spread 0.28 against 0.12).
    fn closed_lanes(self) -> usize {
        match self {
            Workload::ServeHot => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Workload::AdhocScan => 1,
        }
    }

    /// Connections the open-loop reads use, each with a sender and a receiver
    /// thread (a write phase adds one for the writes).
    fn lanes(self) -> usize {
        (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
    }
}

/// Families of every workload's reads besides Rep's ground probes: the ones whose
/// repair products the generator bounds.
pub const FAMILIES: [Family; 3] = [Family::S, Family::G, Family::C];

/// The generated inputs of one run. The server only ever sees `script` and frames.
pub struct Inputs {
    pub table: Table,
    pub script: PathBuf,
    /// The recurring reads (`serve_hot`), `EXEC`ed by prepared id.
    pub pool: Vec<Read>,
    /// Prepared id per distinct pool text.
    pub ids: HashMap<String, String>,
    /// The set-up warm-up pass.
    pub warm: Vec<Read>,
    /// Continuous queries of the write phase.
    pub subscriptions: Vec<Read>,
    pub rng: Rng,
}

impl Inputs {
    pub fn generate(args: &Args) -> Result<Inputs, String> {
        let mut rng = Rng::new(args.seed);
        let table = Table::generate(&mut rng);
        let mut pool = gen::hot_pool(&table, &mut rng);
        if args.workload == Workload::AdhocScan {
            pool.clear();
        }
        let mut ids = HashMap::new();
        for read in &pool {
            let next = format!("h{}", ids.len());
            ids.entry(read.text.clone()).or_insert(next);
        }
        let warm = match args.workload {
            Workload::AdhocScan => {
                // One query per shape and family: warms every family's components.
                let mut warm = Vec::new();
                for (shape, _) in gen::ADHOC_MIX {
                    for family in &FAMILIES {
                        let a = rng.below(table.a_keys as u64) as i64;
                        let text = shape.text(&table, a, &mut rng);
                        let (drawn, mode) = shape.draw(&mut rng);
                        let family = if drawn == Family::Rep { Family::Rep } else { *family };
                        warm.push(Read { text, family, mode });
                    }
                }
                warm
            }
            _ => pool.clone(),
        };
        let lo = rng.below(table.a_keys as u64 / 2) as i64;
        let subscriptions = vec![
            Read { text: "EXISTS c,d . R(x,y,c,d)".into(), family: Family::G, mode: Mode::Certain },
            Read {
                text: format!(
                    "EXISTS c,d . R(x,y,c,d) AND x >= {lo} AND x < {}",
                    lo + table.a_keys / 4
                ),
                family: Family::C,
                mode: Mode::Possible,
            },
        ];
        let script = args.out.join(format!("{}-seed{}.sql", args.workload.name(), args.seed));
        std::fs::write(&script, table.script())
            .map_err(|e| format!("cannot write the script: {e}"))?;
        Ok(Inputs { table, script, pool, ids, warm, subscriptions, rng })
    }

    fn exec_line(&self, read: &Read) -> String {
        format!("{} {} {}", self.ids[&read.text], read.family.token(), read.mode.token())
    }
}

/// The write stream: writes drawn against a model of the table, in the order the
/// single writer connection sends them (write `k` publishes generation `g0 + k + 1`).
pub struct Stream {
    model: Table,
    live: Vec<Row>,
    rng: Rng,
    pub writes: Vec<Write>,
}

impl Stream {
    pub fn new(table: &Table, seed: u64) -> Stream {
        Stream {
            model: table.clone(),
            live: Vec::new(),
            rng: Rng::new(seed ^ 0xA11CE),
            writes: Vec::new(),
        }
    }

    /// The next write's index and frame.
    pub fn next(&mut self) -> (usize, String) {
        let write =
            gen::draw_write(&mut self.model, &mut self.live, self.writes.len(), &mut self.rng);
        let frame = gen::write_frame(&self.model, &write);
        gen::apply_write(&mut self.model, &write);
        self.writes.push(write);
        (self.writes.len() - 1, frame)
    }
}

/// Asserts the generator's invariants over every generation of `writes` before any
/// timing: rows stay distinct, priority pairs are conflict edges between live rows,
/// and every unoriented edge lies in the tie chain or touches one of at most
/// [`gen::MAX_OUTSTANDING`] live inserts — which bounds the repair products.
pub fn check_invariants(base: &Table, writes: &[Write]) -> Result<(), String> {
    let mut model = base.clone();
    for step in 0..=writes.len() {
        if step > 0 {
            gen::apply_write(&mut model, &writes[step - 1]);
        }
        let distinct: HashSet<[i64; 4]> = model.rows.iter().map(|r| r.values).collect();
        if distinct.len() != model.rows.len() {
            return Err(format!("generation +{step}: duplicate rows"));
        }
        let uid_at: HashMap<u64, usize> =
            model.rows.iter().enumerate().map(|(i, r)| (r.uid, i)).collect();
        let edges: HashSet<(usize, usize)> = model.conflict_edges().into_iter().collect();
        let mut oriented = HashSet::new();
        for (w, l) in &model.priority {
            let (Some(&w), Some(&l)) = (uid_at.get(w), uid_at.get(l)) else {
                return Err(format!("generation +{step}: priority names a deleted row"));
            };
            let edge = (w.min(l), w.max(l));
            if !edges.contains(&edge) {
                return Err(format!("generation +{step}: priority pair is not a conflict"));
            }
            oriented.insert(edge);
        }
        let tie = Some(model.tie_chain);
        let mut inserts = HashSet::new();
        for &(i, j) in edges.difference(&oriented) {
            let (ri, rj) = (&model.rows[i], &model.rows[j]);
            if ri.chain == tie && rj.chain == tie {
                continue;
            }
            let inserted =
                if ri.chain.is_none() && ri.uid >= base.rows.len() as u64 { ri } else { rj };
            inserts.insert(inserted.uid);
        }
        if inserts.len() > gen::MAX_OUTSTANDING {
            return Err(format!("generation +{step}: {} unoriented inserts", inserts.len()));
        }
    }
    Ok(())
}

/// What to check about one op's responses.
#[derive(Debug, Clone)]
pub(crate) enum Tag {
    Exec(usize),
    Batch(Vec<usize>),
    /// `PREPARE` then `EXEC` of catalogue read `usize`.
    Adhoc(usize),
    Write(usize),
}

/// One generation's oracle verdicts: its product check and the answer per read.
type Answered = (u64, Result<(), String>, HashMap<usize, String>);

/// Every answer the run saw, checked against the oracle afterwards.
#[derive(Default)]
pub struct Checks {
    pub(crate) catalogue: Vec<Read>,
    index: HashMap<Read, usize>,
    /// (generation, read, op, rendered block the server sent)
    blocks: Vec<(u64, usize, usize, String)>,
    /// (generation, read, folded subscription rows)
    rows: Vec<(u64, usize, BTreeSet<String>)>,
    failed_ops: BTreeSet<usize>,
    pub ops: usize,
    /// S-Rep answers at generations the oracle skipped (see `S_GENERATIONS`).
    pub unchecked: usize,
    pub mismatches: Vec<String>,
}

impl Checks {
    pub fn read_id(&mut self, read: &Read) -> usize {
        if let Some(&id) = self.index.get(read) {
            return id;
        }
        self.catalogue.push(read.clone());
        self.index.insert(read.clone(), self.catalogue.len() - 1);
        self.catalogue.len() - 1
    }

    fn fail(&mut self, op: usize, why: String) {
        self.failed_ops.insert(op);
        if self.mismatches.len() < 100 {
            self.mismatches.push(why);
        }
    }

    /// A new op id.
    fn op(&mut self) -> usize {
        self.ops += 1;
        self.ops - 1
    }

    fn answer(&mut self, op: usize, read: usize, response: &str) {
        match wire::split_generation(response) {
            Some((body, gen)) => self.blocks.push((gen, read, op, body)),
            None => {
                self.fail(op, format!("`{}`: {}", self.catalogue[read].text, first_line(response)))
            }
        }
    }

    /// Records one completed op (or its failure).
    pub(crate) fn record(&mut self, done: &Done, tag: &Tag, acks: &dyn Fn(usize) -> String) {
        let op = self.op();
        if done.done.is_none() {
            self.fail(op, "no response within the drain limit".into());
            return;
        }
        match tag {
            Tag::Exec(read) => self.answer(op, *read, &done.responses[0]),
            Tag::Adhoc(read) => {
                if !done.responses[0].starts_with("OK prepared") {
                    self.fail(op, format!("PREPARE refused: {}", first_line(&done.responses[0])));
                } else {
                    self.answer(op, *read, &done.responses[1]);
                }
            }
            Tag::Batch(reads) => {
                let blocks = wire::split_generation(&done.responses[0])
                    .and_then(|(body, gen)| {
                        let rest = body.split_once('\n').map_or("", |(_, rest)| rest);
                        stats::batch_blocks(rest).ok().map(|blocks| (blocks, gen))
                    })
                    .filter(|(blocks, _)| blocks.len() == reads.len());
                match blocks {
                    Some((blocks, gen)) => {
                        for (read, block) in reads.iter().zip(blocks) {
                            self.blocks.push((gen, *read, op, block));
                        }
                    }
                    None => self.fail(
                        op,
                        format!("bad BATCH response: {}", first_line(&done.responses[0])),
                    ),
                }
            }
            Tag::Write(k) => {
                let expected = acks(*k);
                if done.responses[0] != expected {
                    self.fail(
                        op,
                        format!(
                            "write {k}: got `{}`, expected `{expected}`",
                            first_line(&done.responses[0])
                        ),
                    );
                }
            }
        }
    }

    /// Checks every recorded answer against a fresh oracle build at its generation
    /// (S-Rep past `g0` only at a stride of generations offset by `seed`, see
    /// [`S_GENERATIONS`]). `base` is the state at `g0`, `writes[k]` publishes
    /// `g0 + k + 1`. Nothing is timed any more, so the oracle uses every core:
    /// generations build in parallel, and `g0`'s reads (all of `adhoc_scan`) answer
    /// in parallel.
    #[allow(clippy::too_many_arguments)]
    pub fn verify(
        &mut self,
        base: &Table,
        g0: u64,
        writes: &[Write],
        families: &[Family],
        at_g0: &EngineSnapshot,
        seed: u64,
    ) {
        let mut by_gen: BTreeMap<u64, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for (i, (gen, ..)) in self.blocks.iter().enumerate() {
            by_gen.entry(*gen).or_default().0.push(i);
        }
        for (i, (gen, ..)) in self.rows.iter().enumerate() {
            by_gen.entry(*gen).or_default().1.push(i);
        }
        let blocks = std::mem::take(&mut self.blocks);
        let rows = std::mem::take(&mut self.rows);
        let catalogue = &self.catalogue;
        let needed = |(block_items, row_items): &(Vec<usize>, Vec<usize>), with_s: bool| {
            let mut needed: Vec<usize> = block_items.iter().map(|&i| blocks[i].1).collect();
            needed.extend(row_items.iter().map(|&i| rows[i].1));
            needed.retain(|&read| with_s || catalogue[read].family != Family::S);
            needed.sort_unstable();
            needed.dedup();
            needed
        };
        let mut answered: Vec<Answered> = Vec::new();
        if let Some(items) = by_gen.get(&g0) {
            let reads = needed(items, true);
            let answers = par_map(&reads, |&read| oracle::answer(at_g0, &catalogue[read]));
            answered.push((
                g0,
                oracle::check_product(at_g0, families),
                reads.into_iter().zip(answers).collect(),
            ));
        }
        // Past g0, S-Rep only at a seeded stride of generations (`S_GENERATIONS`).
        let cheap: Vec<Family> = families.iter().copied().filter(|&f| f != Family::S).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut model = base.clone();
        let mut current = g0;
        let mut jobs: Vec<(u64, Table, Vec<usize>, &[Family])> = Vec::new();
        let gens: Vec<u64> = by_gen.keys().copied().filter(|&gen| gen > g0).collect();
        let reads_s =
            |gen: &u64| by_gen[gen].0.iter().any(|&i| catalogue[blocks[i].1].family == Family::S);
        let with_s: Vec<u64> = gens.iter().copied().filter(reads_s).collect();
        let stride = with_s.len().div_ceil(S_GENERATIONS).max(1);
        let offset = (seed % stride as u64) as usize;
        let with_s: HashSet<u64> = with_s.into_iter().skip(offset).step_by(stride).collect();
        for (n, gen) in gens.iter().enumerate() {
            if *gen > g0 + writes.len() as u64 {
                for &i in &by_gen[gen].0 {
                    self.failed_ops.insert(blocks[i].2);
                }
                self.mismatches.push(format!("answers at unknown generation {gen}"));
                continue;
            }
            while current < *gen {
                gen::apply_write(&mut model, &writes[(current - g0) as usize]);
                current += 1;
            }
            let last = n + 1 == gens.len();
            let product = if with_s.contains(gen) { families } else { &cheap[..] };
            jobs.push((*gen, model.clone(), needed(&by_gen[gen], with_s.contains(gen)), product));
            if jobs.len() == threads || last {
                answered.extend(par_map(&jobs, |(gen, table, reads, product)| {
                    let snapshot = oracle::build(table);
                    let answers = reads
                        .iter()
                        .map(|&read| (read, oracle::answer(&snapshot, &catalogue[read])))
                        .collect();
                    (*gen, oracle::check_product(&snapshot, product), answers)
                }));
                jobs.clear();
            }
        }
        for (gen, product, expected) in answered {
            if let Err(e) = product {
                self.mismatches.push(format!("generation {gen}: {e}"));
            }
            let (block_items, row_items) = &by_gen[&gen];
            for &i in block_items {
                let (_, read, op, ref got) = blocks[i];
                let Some(want) = expected.get(&read) else {
                    self.unchecked += 1;
                    continue;
                };
                if got != want {
                    let why = format!(
                        "generation {gen} `{}` {} {}: got `{}`, oracle `{}`",
                        self.catalogue[read].text,
                        self.catalogue[read].family.token(),
                        self.catalogue[read].mode.token(),
                        first_line(got),
                        first_line(want)
                    );
                    self.fail(op, why);
                }
            }
            for &i in row_items {
                let (_, read, ref got) = rows[i];
                if stats::block_rows(&expected[&read]).as_ref() != Ok(got) {
                    self.mismatches.push(format!(
                        "generation {gen}: folded subscription `{}` differs from the oracle",
                        self.catalogue[read].text
                    ));
                }
            }
        }
        for (gen, (block_items, _)) in by_gen.range(..g0) {
            for &i in block_items {
                self.fail(blocks[i].2, format!("answer at unknown generation {gen}"));
            }
        }
    }

    pub fn failed(&self) -> usize {
        self.failed_ops.len()
    }
}

/// `f` over `items` on every core, results in order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    })
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or_default()
}

/// A running server after set-up.
pub struct Live {
    pub server: Server,
    pub g0: u64,
}

/// Spawns the server, installs the priority, prepares the pool and runs one
/// warm-up pass of the workload's queries. Returns the server and the seconds it took.
pub fn setup(args: &Args, inputs: &Inputs, checks: &mut Checks) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(&args.pdqi, &inputs.script)
        .map_err(|e| format!("cannot start pdqi serve: {e}"))?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| format!("cannot connect: {e}"))?;
    let request = |conn: &mut Conn, frame: &str| {
        conn.request(frame).map_err(|e| format!("set-up request failed: {e}"))
    };
    let swapped = request(&mut conn, &gen::priority_frame(&inputs.table))?;
    let g0 = swapped
        .strip_prefix("OK swapped R gen=")
        .and_then(|g| g.parse().ok())
        .ok_or_else(|| format!("priority refused: {}", first_line(&swapped)))?;
    let mut prepared: Vec<(&String, &String)> = inputs.ids.iter().collect();
    prepared.sort();
    for (text, id) in prepared {
        let reply = request(&mut conn, &format!("PREPARE {id} {text}"))?;
        if !reply.starts_with("OK prepared") {
            return Err(format!("PREPARE refused: {}", first_line(&reply)));
        }
    }
    for (i, read) in inputs.warm.iter().enumerate() {
        let id = checks.read_id(read);
        let op = checks.op();
        if inputs.ids.contains_key(&read.text) {
            let reply = request(&mut conn, &format!("EXEC {}", inputs.exec_line(read)))?;
            checks.answer(op, id, &reply);
        } else {
            let prepare = request(&mut conn, &format!("PREPARE w{i} {}", read.text))?;
            if !prepare.starts_with("OK prepared") {
                return Err(format!("PREPARE refused: {}", first_line(&prepare)));
            }
            let reply = request(
                &mut conn,
                &format!("EXEC w{i} {} {}", read.family.token(), read.mode.token()),
            )?;
            checks.answer(op, id, &reply);
        }
    }
    Ok((Live { server, g0 }, started.elapsed().as_secs_f64()))
}

/// Draws the read ops of the workload for one or more lanes.
pub(crate) struct Drawer<'a> {
    workload: Workload,
    table: &'a Table,
    /// Each pool read's `EXEC` line and catalogue id.
    pool: &'a [(String, usize)],
    rng: Rng,
    /// The next ad-hoc statement handle per lane.
    handles: Vec<usize>,
}

impl<'a> Drawer<'a> {
    pub(crate) fn new(
        workload: Workload,
        table: &'a Table,
        pool: &'a [(String, usize)],
        seed: u64,
        lanes: usize,
    ) -> Drawer<'a> {
        Drawer { workload, table, pool, rng: Rng::new(seed), handles: vec![0; lanes] }
    }

    /// One read op for `lane`: its frames and what to check. `fresh` gives an ad-hoc
    /// read its catalogue id.
    pub(crate) fn read(
        &mut self,
        lane: usize,
        fresh: &mut dyn FnMut(&Read) -> usize,
    ) -> (Vec<String>, Tag) {
        if self.workload == Workload::AdhocScan {
            let read = gen::draw_read(self.table, &gen::ADHOC_MIX, &mut self.rng);
            let per_lane = ADHOC_HANDLES / self.handles.len();
            let handle = &mut self.handles[lane];
            *handle = (*handle + 1) % per_lane;
            let name = format!("a{lane}_{handle}");
            return (
                vec![
                    format!("PREPARE {name} {}", read.text),
                    format!("EXEC {name} {} {}", read.family.token(), read.mode.token()),
                ],
                Tag::Adhoc(fresh(&read)),
            );
        }
        let batch = self.workload == Workload::ServeHot && self.rng.chance(0.2);
        let n = if batch { 8 } else { 1 };
        let mut lines = Vec::new();
        let mut ids = Vec::new();
        for _ in 0..n {
            let (line, id) = &self.pool[self.rng.below(self.pool.len() as u64) as usize];
            lines.push(line.as_str());
            ids.push(*id);
        }
        if batch {
            (vec![format!("BATCH\n{}", lines.join("\n"))], Tag::Batch(ids))
        } else {
            (vec![format!("EXEC {}", lines[0])], Tag::Exec(ids[0]))
        }
    }
}

/// Each pool read's `EXEC` line and catalogue id.
fn pool_lines(inputs: &Inputs, checks: &mut Checks) -> Vec<(String, usize)> {
    inputs.pool.iter().map(|read| (inputs.exec_line(read), checks.read_id(read))).collect()
}

/// One open-loop phase: reads at `rate` for `secs` spread over the workload's
/// lanes, plus writes at `write_rate` on a connection of their own.
pub(crate) struct Phase {
    pub(crate) lanes: Vec<Vec<(Op, Tag)>>,
}

impl Phase {
    pub(crate) fn build(
        inputs: &mut Inputs,
        checks: &mut Checks,
        workload: Workload,
        rate: f64,
        secs: f64,
        writes: Option<(&mut Stream, f64)>,
    ) -> Phase {
        let lanes_n = workload.lanes();
        let mut lanes: Vec<Vec<(Op, Tag)>> = vec![Vec::new(); lanes_n];
        let pool = pool_lines(inputs, checks);
        let mut drawer =
            Drawer::new(workload, &inputs.table, &pool, inputs.rng.next_u64(), lanes_n);
        let mut slots = Rng::new(inputs.rng.next_u64());
        let count = (rate * secs).round() as usize;
        for i in 0..count {
            let lane = i % lanes_n;
            let (frames, tag) = drawer.read(lane, &mut |read| checks.read_id(read));
            let due = Duration::from_secs_f64(i as f64 / rate);
            lanes[lane].push((Op { due, frames }, tag));
        }
        if let Some((stream, write_rate)) = writes {
            let count = (write_rate * secs).round() as usize;
            let mut lane = Vec::with_capacity(count);
            for i in 0..count {
                let (k, frame) = stream.next();
                // A seeded phase in the middle half of each write slot: writes stay a
                // half slot apart, but do not lock onto the read grid.
                let phase = 0.25 + 0.5 * slots.unit();
                let due = Duration::from_secs_f64((i as f64 + phase) / write_rate);
                lane.push((Op { due, frames: vec![frame] }, Tag::Write(k)));
            }
            lanes.push(lane);
        }
        lanes.retain(|lane| !lane.is_empty());
        Phase { lanes }
    }

    /// Runs the lanes concurrently, one connection each. Returns every op with its
    /// tag, and the worst generator thread's mean run-queue wait per timeslice (ms).
    pub(crate) fn run(
        &self,
        addr: &str,
        start: Instant,
    ) -> Result<(Vec<(Done, Tag)>, f64), String> {
        let results: Vec<std::io::Result<wire::Driven>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter()
                .map(|lane| {
                    let ops: Vec<Op> = lane.iter().map(|(op, _)| op.clone()).collect();
                    scope.spawn(move || wire::drive(addr, &ops, start, DRAIN))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lane thread panicked")).collect()
        });
        let mut out = Vec::new();
        let mut starved: f64 = 0.0;
        for (lane, result) in self.lanes.iter().zip(results) {
            let driven = result.map_err(|e| format!("connection failed: {e}"))?;
            starved = starved.max(driven.sender.per_slice_ms()).max(driven.receiver.per_slice_ms());
            out.extend(driven.done.into_iter().zip(lane.iter().map(|(_, tag)| tag.clone())));
        }
        Ok((out, starved))
    }
}

/// A subscriber connection holding the workload's subscriptions, listening on its
/// own thread until stopped.
struct Subscriber {
    /// Subscription id → (catalogue read, folded answer).
    subs: HashMap<u64, (usize, Folded)>,
}

impl Subscriber {
    /// Subscribes on a fresh connection; returns the subscriber and the connection's
    /// reader for the listening thread.
    fn open(
        addr: &str,
        inputs: &Inputs,
        checks: &mut Checks,
    ) -> Result<(Subscriber, wire::FrameReader), String> {
        let mut conn = Conn::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let mut subs = HashMap::new();
        for (i, read) in inputs.subscriptions.iter().enumerate() {
            let prepare =
                conn.request(&format!("PREPARE s{i} {}", read.text)).map_err(|e| e.to_string())?;
            if !prepare.starts_with("OK prepared") {
                return Err(format!("PREPARE refused: {}", first_line(&prepare)));
            }
            let reply = conn
                .request(&format!("SUBSCRIBE s{i} {} {}", read.family.token(), read.mode.token()))
                .map_err(|e| e.to_string())?;
            let (sub, folded) = Folded::from_subscribe(&reply)?;
            let id = checks.read_id(read);
            checks.rows.push((folded.generation, id, folded.rows.clone()));
            subs.insert(sub, (id, folded));
        }
        Ok((Subscriber { subs }, conn.into_parts().1))
    }

    /// Folds every pushed frame; returns the arrival time of the first frame per
    /// generation. Each subscription's final answer is checked at `last`, the
    /// generation the last write published.
    fn fold(
        mut self,
        frames: Vec<(Duration, String)>,
        last: u64,
        checks: &mut Checks,
    ) -> BTreeMap<u64, Duration> {
        let mut arrivals = BTreeMap::new();
        for (at, frame) in frames {
            let sub = frame
                .split_whitespace()
                .find_map(|f| f.strip_prefix("sub="))
                .and_then(|s| s.parse::<u64>().ok());
            let Some((read, folded)) = sub.and_then(|s| self.subs.get_mut(&s)) else {
                checks
                    .mismatches
                    .push(format!("pushed frame for no subscription: {}", first_line(&frame)));
                continue;
            };
            match folded.apply(&frame) {
                Ok(()) => {
                    arrivals.entry(folded.generation).or_insert(at);
                    checks.rows.push((folded.generation, *read, folded.rows.clone()));
                }
                Err(e) => checks.mismatches.push(format!("delta fold: {e}")),
            }
        }
        for (read, folded) in self.subs.values() {
            checks.rows.push((last, *read, folded.rows.clone()));
        }
        arrivals
    }
}

/// Write-phase results: per-write ack latency and push lag/wait samples.
#[derive(Default)]
pub struct WriteSamples {
    pub mutate_ms: Vec<f64>,
    pub revise_ms: Vec<f64>,
    pub push_lag_ms: Vec<f64>,
    pub push_wait_ms: Vec<f64>,
}

impl WriteSamples {
    fn extend(&mut self, other: WriteSamples) {
        self.mutate_ms.extend(other.mutate_ms);
        self.revise_ms.extend(other.revise_ms);
        self.push_lag_ms.extend(other.push_lag_ms);
        self.push_wait_ms.extend(other.push_wait_ms);
    }
}

/// Runs the write stream on one connection, with an idle subscriber connection, and
/// records everything.
pub(crate) fn write_phase(
    live: &Live,
    inputs: &mut Inputs,
    checks: &mut Checks,
    stream: &mut Stream,
    workload: Workload,
    secs: f64,
    detail: &mut Vec<String>,
) -> Result<(WriteSamples, Vec<(Op, Tag)>), String> {
    let (subscriber, reader) = Subscriber::open(&live.server.addr, inputs, checks)?;
    let first = stream.writes.len();
    let phase = Phase::build(inputs, checks, workload, 0.0, secs, Some((stream, WRITE_RATE)));
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (done, frames) = std::thread::scope(|scope| {
        let listener = scope.spawn(|| wire::listen(reader, start, &stop));
        let done = phase.run(&live.server.addr, start);
        // Let the last pushes arrive before stopping the listener.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::SeqCst);
        (done, listener.join().expect("listener thread panicked"))
    });
    let (done, starved) = done?;
    let frames = frames.map_err(|e| format!("subscriber connection failed: {e}"))?;
    let acks = |k: usize| gen::expected_ack(&stream.writes[k], live.g0 + k as u64 + 1);
    let mut samples = WriteSamples::default();
    let mut ack_done: HashMap<usize, (Duration, Duration)> = HashMap::new();
    for (d, tag) in &done {
        checks.record(d, tag, &acks);
        let (Some(at), Tag::Write(k)) = (d.done, tag) else { continue };
        let latency = at.saturating_sub(d.due).as_secs_f64() * 1e3;
        ack_done.insert(*k, (d.due, at));
        match stream.writes[*k] {
            Write::Mutate { .. } => samples.mutate_ms.push(latency),
            Write::Revise { .. } => samples.revise_ms.push(latency),
        }
    }
    let writes: Vec<Done> = done.iter().map(|(d, _)| d.clone()).collect();
    let late = stats::lateness_ms(&writes);
    // Every subscription's folded answer must match the state the last write
    // published: a push lost after the last one that arrived shows here.
    let last = live.g0 + stream.writes.len() as u64;
    let arrivals = subscriber.fold(frames, last, checks);
    for k in first..stream.writes.len() {
        let generation = live.g0 + k as u64 + 1;
        if let (Some(&(due, acked)), Some(&arrived)) = (ack_done.get(&k), arrivals.get(&generation))
        {
            samples.push_lag_ms.push(arrived.saturating_sub(due).as_secs_f64() * 1e3);
            samples.push_wait_ms.push(arrived.as_secs_f64() * 1e3 - acked.as_secs_f64() * 1e3);
        }
    }
    detail.push(format!(
        "write phase writes={} mutate_p50_ms={:.3} revise_p50_ms={:.3} push_lag_p50_ms={:.3} generator_late_p50_ms={:.3} generator_late_p90_ms={:.3} generator_starved_ms={starved:.3}",
        writes.len(),
        stats::median(&samples.mutate_ms),
        stats::median(&samples.revise_ms),
        stats::median(&samples.push_lag_ms),
        stats::median(&late),
        stats::percentile(&late, 90.0)
    ));
    let mut ops: Vec<(Op, Tag)> = phase.lanes.into_iter().flatten().collect();
    ops.sort_by_key(|(op, _)| op.due);
    Ok((samples, ops))
}

/// A fixed-rate phase: read latencies (ms) and the ops in send order.
pub(crate) type FixedPhase = (Vec<f64>, Vec<(Op, Tag)>);

/// Reads at the workload's fixed rate for `secs`. A phase in which the generator
/// fell behind is invalid and run once more; the second one counts either way,
/// with its verdict in `detail`.
pub(crate) fn fixed_phase(
    live: &Live,
    inputs: &mut Inputs,
    checks: &mut Checks,
    workload: Workload,
    secs: f64,
    detail: &mut Vec<String>,
) -> Result<FixedPhase, String> {
    let rate = workload.fixed_rate();
    let mut attempt = 0;
    loop {
        let phase = Phase::build(inputs, checks, workload, rate, secs, None);
        let (done, starved) = phase.run(&live.server.addr, Instant::now())?;
        let before = checks.failed();
        let acks = |_: usize| String::new();
        for (d, tag) in &done {
            checks.record(d, tag, &acks);
        }
        let mut done: Vec<Done> = done.into_iter().map(|(d, _)| d).collect();
        done.sort_by_key(|d| d.due);
        let step = Step::from_done(&done, checks.failed() - before, starved);
        let verdict = step.verdict(workload.limit_ms());
        detail.push(format!(
            "fixed rate={rate} samples={} p50_ms={:.3} p90_ms={:.3} tail_p50_ms={:.3} generator_late_p50_ms={:.3} generator_late_p90_ms={:.3} generator_starved_ms={:.3} verdict={verdict:?}",
            step.samples, stats::median(&stats::latencies_ms(&done)), step.p90_ms, step.tail_p50_ms, step.late_p50_ms, step.late_p90_ms, step.starved_ms
        ));
        attempt += 1;
        if verdict != Verdict::Invalid || attempt == 2 {
            let mut ops: Vec<(Op, Tag)> = phase.lanes.into_iter().flatten().collect();
            ops.sort_by_key(|(op, _)| op.due);
            return Ok((stats::latencies_ms(&done), ops));
        }
    }
}

/// One closed-loop run on every lane with `window` ops in flight per connection
/// for `slices` slices. Records every answer; returns the read rate per slice, the
/// reads' latencies (ms) and the CPUs the generator threads kept busy.
fn saturate(
    live: &Live,
    inputs: &mut Inputs,
    checks: &mut Checks,
    workload: Workload,
    window: usize,
    slices: usize,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let pool = pool_lines(inputs, checks);
    let lanes = workload.closed_lanes();
    let seeds: Vec<u64> = (0..lanes).map(|_| inputs.rng.next_u64()).collect();
    let shared = Mutex::new(&mut *checks);
    let start = Instant::now();
    let results: Vec<std::io::Result<wire::Saturated<Tag>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(lane, &seed)| {
                let mut drawer = Drawer::new(workload, &inputs.table, &pool, seed, lanes);
                let (shared, addr) = (&shared, &live.server.addr);
                scope.spawn(move || {
                    wire::saturate(addr, window, start, SLICE * slices as u32, DRAIN, || {
                        let mut fresh =
                            |read: &Read| shared.lock().expect("checks lock").read_id(read);
                        drawer.read(lane, &mut fresh)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("lane thread panicked")).collect()
    });
    let acks = |_: usize| String::new();
    let mut lanes = Vec::new();
    let mut read_ms = Vec::new();
    let mut busy = 0.0;
    for result in results {
        let run = result.map_err(|e| format!("connection failed: {e}"))?;
        let mut completions = Vec::new();
        for (d, tag) in &run.done {
            checks.record(d, tag, &acks);
            if let Some(at) = d.done {
                completions.push(at);
                read_ms.push(at.saturating_sub(d.due).as_secs_f64() * 1e3);
            }
        }
        busy += run.generator.cpu.as_secs_f64() / (SLICE * slices as u32).as_secs_f64();
        lanes.push(completions);
    }
    Ok((stats::slice_rates(&lanes, SLICE, slices), read_ms, busy))
}

/// One chunk of the capacity phase: `slices` slices closed loop, each connection
/// keeping `window` ops in flight. While the read p90 exceeds the workload's limit
/// the window is halved (for later chunks too) and the chunk run again. Returns the
/// chunk's slice rates.
#[allow(clippy::too_many_arguments)]
fn capacity_chunk(
    live: &Live,
    inputs: &mut Inputs,
    checks: &mut Checks,
    workload: Workload,
    slices: usize,
    window: &mut usize,
    detail: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    loop {
        let (cpu_before, started) = (live.server.cpu_ms(), Instant::now());
        let (rates, read_ms, generator) =
            saturate(live, inputs, checks, workload, *window, slices)?;
        let busy = (live.server.cpu_ms() - cpu_before) / started.elapsed().as_secs_f64() / 1e3;
        let p90 = stats::percentile(&read_ms, 90.0);
        detail.push(format!(
            "capacity window={window} lanes={} read_p90_ms={p90:.3} server_cpus_busy={busy:.2} generator_cpus_busy={generator:.2} rates={:?}",
            workload.closed_lanes(),
            rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ));
        if p90 <= workload.limit_ms() || *window <= 2 {
            return Ok(rates);
        }
        *window /= 2;
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let run_started = Instant::now();
    let workload = args.workload;
    let mut inputs = Inputs::generate(args)?;
    let mut checks = Checks::default();
    let mut detail = Vec::new();

    // Invariants before any timing: the write stream the run will use, the memo
    // working sets, and the repair-product bound on the initial state.
    let mut stream = Stream::new(&inputs.table, args.seed);
    let mut probe = Stream::new(&inputs.table, args.seed);
    for _ in 0..INVARIANT_WRITES {
        probe.next();
    }
    check_invariants(&inputs.table, &probe.writes)?;
    let oracle_g0 = oracle::build(&inputs.table);
    oracle::check_product(&oracle_g0, &FAMILIES)?;
    let memo = oracle_g0.answer_cache_capacity();
    let distinct_pool: HashSet<&Read> = inputs.pool.iter().collect();
    match workload {
        Workload::AdhocScan => {
            // Point lookups alone span 6 answer-memo keys per A value.
            let key_space = inputs.table.a_keys as usize * 6;
            if key_space <= 4 * memo {
                return Err(format!(
                    "ad-hoc key space {key_space} does not exceed the {memo}-entry answer memo"
                ));
            }
        }
        _ => {
            if distinct_pool.len() > memo {
                return Err(format!("the hot pool does not fit the {memo}-entry answer memo"));
            }
        }
    }
    detail.push(format!(
        "table rows={} priority_pairs={} pool={} product_bound={}",
        inputs.table.rows.len(),
        inputs.table.priority.len(),
        distinct_pool.len(),
        gen::PRODUCT_BOUND
    ));

    // Set-up, several times: the median is `setup_s`; the last server stays up.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(previous) = live.take() {
            let previous: Live = previous;
            previous.server.stop().map_err(|e| format!("cannot stop the server: {e}"))?;
        }
        let (server, secs) = setup(args, &inputs, &mut checks)?;
        setups.push(secs);
        live = Some(server);
    }
    let live = live.expect("at least one set-up");
    let g0 = live.g0;
    detail.push(format!("setups_s={setups:?}"));
    // Peak memory of the set-up server, warmed. Later the peak turns on the host:
    // in write chunks, on which allocator arena the writer's connection thread draws
    // (48 or 61 MiB on serve_hot, run to run); in ad-hoc traffic, on how many reads
    // ran before the answer memo filled.
    let rss = live.server.peak_rss_mb();

    // Every round runs a capacity chunk, a fixed-rate read chunk and a write chunk,
    // and each metric pools its samples over all rounds, so that it samples the host
    // over the whole run, not over one stretch of it (on a shared 2-vCPU VM the
    // single-thread speed swung by a third within seconds).
    let (capacity_secs, fixed_secs, write_secs) = phase_seconds(workload, args.seconds);
    let slices = ((capacity_secs / ROUNDS as f64 / SLICE.as_secs_f64()).round() as usize).max(3);
    let mut window = workload.window();
    let (mut rates, mut read_ms) = (Vec::new(), Vec::new());
    let mut writes = WriteSamples::default();
    for _ in 0..ROUNDS {
        let slice_rates = capacity_chunk(
            &live,
            &mut inputs,
            &mut checks,
            workload,
            slices,
            &mut window,
            &mut detail,
        )?;
        rates.push(slice_rates.iter().sum::<f64>() / slice_rates.len() as f64);
        let (chunk, _) = fixed_phase(
            &live,
            &mut inputs,
            &mut checks,
            workload,
            fixed_secs / ROUNDS as f64,
            &mut detail,
        )?;
        read_ms.extend(chunk);
        let (samples, _) = write_phase(
            &live,
            &mut inputs,
            &mut checks,
            &mut stream,
            workload,
            write_secs / ROUNDS as f64,
            &mut detail,
        )?;
        writes.extend(samples);
    }
    // The median over the chunks of each chunk's rate: a chunk run while the host
    // was slow moves one chunk, not the result.
    let max_rps = stats::median(&rates);
    live.server.stop().map_err(|e| format!("cannot stop the server: {e}"))?;

    detail.push(format!("distinct reads={} of {} ops", checks.catalogue.len(), checks.ops));
    let verify_started = Instant::now();
    if stream.writes.len() > INVARIANT_WRITES {
        // The same stream, longer than the check before timing covered.
        check_invariants(&inputs.table, &stream.writes)?;
    }
    checks.verify(&inputs.table, g0, &stream.writes, &FAMILIES, &oracle_g0, args.seed);
    detail.push(format!(
        "verify_s={:.2} generations={} unchecked_s_rep_answers={} run_s={:.2}",
        verify_started.elapsed().as_secs_f64(),
        stream.writes.len() + 1,
        checks.unchecked,
        run_started.elapsed().as_secs_f64()
    ));

    let metric = |name: &'static str, values: &[f64], p: f64, unit: &'static str| Metric {
        name,
        value: stats::percentile(values, p),
        unit,
        samples: values.len(),
    };
    for (name, values) in [
        ("read", &read_ms),
        ("mutate", &writes.mutate_ms),
        ("revise", &writes.revise_ms),
        ("push_lag", &writes.push_lag_ms),
    ] {
        let p = stats::supported_percentile(values.len());
        detail.push(format!(
            "{name}: n={} p50={:.3} windowed_p90={:.3} highest_supported=p{} value={:.3}",
            values.len(),
            stats::median(values),
            stats::windowed(values, 90.0, stats::STEP_WINDOW),
            p.unwrap_or(0.0),
            p.map_or(f64::NAN, |p| stats::percentile(values, p))
        ));
    }
    if stats::supported_percentile(read_ms.len()).is_none_or(|p| p < 99.0) {
        return Err(format!("{} read samples cannot support a windowed p99", read_ms.len()));
    }
    let metrics = vec![
        Metric { name: "setup_s", value: stats::median(&setups), unit: "s", samples: setups.len() },
        Metric {
            name: "read_p50_ms",
            value: stats::windowed(&read_ms, 50.0, stats::WINDOW),
            unit: "ms",
            samples: read_ms.len(),
        },
        Metric { name: "read_max_rps", value: max_rps, unit: "1/s", samples: rates.len() },
        metric("mutate_p50_ms", &writes.mutate_ms, 50.0, "ms"),
        metric("revise_p50_ms", &writes.revise_ms, 50.0, "ms"),
        metric("push_lag_p50_ms", &writes.push_lag_ms, 50.0, "ms"),
        Metric { name: "server_rss_mb", value: rss, unit: "MiB", samples: 1 },
    ];
    Ok(Report {
        attempted: checks.ops as u64,
        failed: checks.failed() as u64,
        mismatches: checks.mismatches.clone(),
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_streams_keep_the_invariants_and_the_product_bound() {
        for seed in [1, 2] {
            let table = Table::generate(&mut Rng::new(seed));
            let mut stream = Stream::new(&table, seed);
            for _ in 0..24 {
                stream.next();
            }
            check_invariants(&table, &stream.writes).expect("invariants hold");
            // The oracle agrees with the structural bound at every generation.
            let mut model = table.clone();
            for write in &stream.writes {
                gen::apply_write(&mut model, write);
                let snapshot = oracle::build(&model);
                oracle::check_product(&snapshot, &[Family::G, Family::C]).expect("bounded product");
            }
        }
    }

    #[test]
    fn invariant_check_catches_an_unbounded_product() {
        let table = Table::generate(&mut Rng::new(3));
        let mut stream = Stream::new(&table, 3);
        for _ in 0..6 {
            stream.next();
        }
        // Drop the priority of every chain: far more unoriented components than the
        // bound allows.
        let mut broken = table.clone();
        broken.priority.clear();
        assert!(check_invariants(&broken, &stream.writes).is_err());
    }

    #[test]
    fn the_model_follows_the_monotone_id_remap() {
        let mut table = Table::generate(&mut Rng::new(4));
        let before: Vec<u64> = table.rows.iter().map(|r| r.uid).collect();
        let victim = table.rows[10].clone();
        table.mutate(&[], std::slice::from_ref(&victim));
        let after: Vec<u64> = table.rows.iter().map(|r| r.uid).collect();
        let mut expected = before.clone();
        expected.remove(10);
        assert_eq!(after, expected, "survivors keep their order");
        let mut live = Vec::new();
        let mut rng = Rng::new(5);
        let insert = gen::draw_write(&mut table, &mut live, 0, &mut rng);
        gen::apply_write(&mut table, &insert);
        assert_eq!(table.rows.last().map(|r| r.uid), live.first().map(|r| r.uid), "inserts append");
    }
}
