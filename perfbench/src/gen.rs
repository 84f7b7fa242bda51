//! Seeded workload generation: the table, its priority, the query pools and the
//! write stream.
//!
//! One table `R(A,B,C,D)` with FDs `A -> B` and `C -> D`. Conflict components are FD
//! chains (`t1 -A- t2 -C- t3 -A- t4`: neighbours alternately share `A` with a
//! different `B` and `C` with a different `D`), mixed with conflict-free rows. Each
//! row carries a source score; the priority orients every conflict edge towards the
//! higher score, except inside one *tie* chain of three rows, which stays unoriented.
//!
//! **Product bound.** The engine enumerates a query's whole preferred-repair
//! product, so the generator keeps it small at every generation. With every other
//! component totally oriented, S-Rep, G-Rep and C-Rep each select one repair per
//! component; the tie chain contributes 2, and every conflicting insert that no
//! revision has oriented yet contributes at most 2. At most [`MAX_OUTSTANDING`]
//! inserts are live at once, so the product stays at or below [`PRODUCT_BOUND`].

use std::collections::{BTreeMap, HashMap};

/// Inserted rows alive at once in the write stream.
pub const MAX_OUTSTANDING: usize = 1;
/// Upper bound on the S-Rep, G-Rep and C-Rep repair products at every generation.
pub const PRODUCT_BOUND: u128 = 2 << MAX_OUTSTANDING;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One stored tuple. `uid` identifies it across id remaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub uid: u64,
    pub values: [i64; 4],
    pub score: i64,
    /// The chain the row was generated in (`None` for conflict-free and inserted rows).
    pub chain: Option<u32>,
}

impl Row {
    pub fn fields(&self) -> String {
        self.values.map(|v| v.to_string()).join("\t")
    }
}

/// Generation parameters (fixed: the seed varies keys, values, chain lengths and
/// scores, not these counts).
pub const CHAINS: usize = 720;
pub const FREE_ROWS: usize = 3240;
/// Offset separating the `C` domain from the `A` domain.
const C_BASE: i64 = 1_000_000;

/// The table at one generation, with its installed priority.
#[derive(Debug, Clone)]
pub struct Table {
    /// Rows in tuple-id order: deletes keep survivors' order, inserts append.
    pub rows: Vec<Row>,
    /// The installed priority as `(winner uid, loser uid)` pairs.
    pub priority: Vec<(u64, u64)>,
    pub tie_chain: u32,
    /// Distinct `A` values in the generated table (`0..a_keys`).
    pub a_keys: i64,
    /// Uids below this are generated rows; inserts get larger ones.
    generated: u64,
    next_uid: u64,
    next_fresh: i64,
}

impl Table {
    pub fn generate(rng: &mut Rng) -> Table {
        let mut rows = Vec::with_capacity(CHAINS * 3 + FREE_ROWS);
        let mut uid = 0u64;
        let mut a_next = 0i64;
        let mut c_next = 0i64;
        let mut push =
            |rows: &mut Vec<Row>, values: [i64; 4], chain: Option<u32>, rng: &mut Rng| {
                let score = (rng.below(1 << 40) as i64) * 65_536 + uid as i64 % 65_536;
                rows.push(Row { uid, values, score, chain });
                uid += 1;
            };
        for chain in 0..CHAINS as u32 {
            let len = 2 + rng.below(3) as usize;
            let (mut a, mut c) = (a_next, c_next);
            a_next += 1;
            c_next += 1;
            let mut values = [a, rng.below(50) as i64, C_BASE + c, rng.below(50) as i64];
            push(&mut rows, values, Some(chain), rng);
            for link in 1..len {
                if link % 2 == 1 {
                    // Same A, different B: a conflict on A -> B; a fresh C.
                    c = c_next;
                    c_next += 1;
                    values = [
                        a,
                        (values[1] + 1 + rng.below(40) as i64) % 50,
                        C_BASE + c,
                        rng.below(50) as i64,
                    ];
                } else {
                    // Same C, different D: a conflict on C -> D; a fresh A.
                    a = a_next;
                    a_next += 1;
                    values = [
                        a,
                        rng.below(50) as i64,
                        C_BASE + c,
                        (values[3] + 1 + rng.below(40) as i64) % 50,
                    ];
                }
                push(&mut rows, values, Some(chain), rng);
            }
        }
        for _ in 0..FREE_ROWS {
            let values = [a_next, rng.below(50) as i64, C_BASE + c_next, rng.below(50) as i64];
            a_next += 1;
            c_next += 1;
            push(&mut rows, values, None, rng);
        }
        // Relabel A and C through seeded permutations so key ranges mix chains and
        // conflict-free rows, then shuffle the row order (the tuple ids).
        let a_perm = permutation(a_next as usize, rng);
        let c_perm = permutation(c_next as usize, rng);
        for row in &mut rows {
            row.values[0] = a_perm[row.values[0] as usize] as i64;
            row.values[2] = C_BASE + c_perm[(row.values[2] - C_BASE) as usize] as i64;
        }
        let order = permutation(rows.len(), rng);
        let mut shuffled: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
        for (i, row) in shuffled.iter_mut().enumerate() {
            row.uid = i as u64;
        }
        // The tie chain: the first three-row chain.
        let mut lens: BTreeMap<u32, usize> = BTreeMap::new();
        for row in &shuffled {
            if let Some(chain) = row.chain {
                *lens.entry(chain).or_default() += 1;
            }
        }
        let tie_chain = *lens.iter().find(|(_, &len)| len == 3).expect("a three-row chain").0;
        let mut table = Table {
            generated: shuffled.len() as u64,
            next_uid: shuffled.len() as u64,
            rows: shuffled,
            priority: Vec::new(),
            tie_chain,
            a_keys: a_next,
            next_fresh: a_next + 1_000,
        };
        table.priority = table.oriented_pairs();
        table
    }

    /// Conflict edges as row-index pairs `(i, j)` with `i < j`.
    pub fn conflict_edges(&self) -> Vec<(usize, usize)> {
        let mut by_a: HashMap<i64, Vec<usize>> = HashMap::new();
        let mut by_c: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            by_a.entry(row.values[0]).or_default().push(i);
            by_c.entry(row.values[2]).or_default().push(i);
        }
        let mut edges = Vec::new();
        for (groups, dependent) in [(&by_a, 1), (&by_c, 3)] {
            for group in groups.values() {
                for (k, &i) in group.iter().enumerate() {
                    for &j in &group[k + 1..] {
                        if self.rows[i].values[dependent] != self.rows[j].values[dependent] {
                            edges.push((i.min(j), i.max(j)));
                        }
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Every conflict edge outside the tie chain, oriented towards the higher score.
    pub fn oriented_pairs(&self) -> Vec<(u64, u64)> {
        let tie = Some(self.tie_chain);
        self.conflict_edges()
            .into_iter()
            .filter(|&(i, j)| !(self.rows[i].chain == tie && self.rows[j].chain == tie))
            .map(|(i, j)| {
                let (ri, rj) = (&self.rows[i], &self.rows[j]);
                if ri.score > rj.score {
                    (ri.uid, rj.uid)
                } else {
                    (rj.uid, ri.uid)
                }
            })
            .collect()
    }

    /// The installed priority as tuple-id pairs at this generation.
    pub fn priority_ids(&self) -> Vec<(u32, u32)> {
        let index: HashMap<u64, u32> =
            self.rows.iter().enumerate().map(|(i, row)| (row.uid, i as u32)).collect();
        self.priority.iter().map(|(w, l)| (index[w], index[l])).collect()
    }

    /// The `serve` script: schema, FDs and rows. The priority is installed over the
    /// wire with `SET-PRIORITY`.
    pub fn script(&self) -> String {
        let mut out = String::from(
            "CREATE TABLE R (A INT, B INT, C INT, D INT);\n\
             ALTER TABLE R ADD FD A -> B;\n\
             ALTER TABLE R ADD FD C -> D;\n",
        );
        for chunk in self.rows.chunks(500) {
            let values: Vec<String> = chunk
                .iter()
                .map(|r| {
                    format!("({},{},{},{})", r.values[0], r.values[1], r.values[2], r.values[3])
                })
                .collect();
            out.push_str(&format!("INSERT INTO R VALUES {};\n", values.join(",")));
        }
        out
    }

    /// A fresh conflict-free row (new `A`, new `C`).
    fn fresh_row(&mut self, rng: &mut Rng) -> Row {
        let a = self.next_fresh;
        self.next_fresh += 1;
        let uid = self.next_uid;
        self.next_uid += 1;
        let values = [a, rng.below(50) as i64, 3 * C_BASE + a, rng.below(50) as i64];
        Row { uid, values, score: rng.below(1 << 40) as i64, chain: None }
    }

    /// A row conflicting with one conflict-free row on `A -> B`.
    fn conflicting_row(&mut self, rng: &mut Rng) -> Row {
        let mut row = self.fresh_row(rng);
        loop {
            let target = self.rows[rng.below(self.rows.len() as u64) as usize].clone();
            let conflicted = self.rows.iter().filter(|r| r.values[0] == target.values[0]).count();
            if target.chain.is_none() && conflicted == 1 && target.uid < self.generated {
                row.values[0] = target.values[0];
                row.values[1] = (target.values[1] + 1 + rng.below(40) as i64) % 50;
                return row;
            }
        }
    }

    /// Applies `inserts`, then `deletes`, like the server's delta: survivors keep
    /// their order, inserts append, and priority pairs of deleted rows go.
    pub fn mutate(&mut self, inserts: &[Row], deletes: &[Row]) {
        let gone = |uid: &u64| deletes.iter().any(|row| row.uid == *uid);
        self.rows.retain(|row| !gone(&row.uid));
        self.priority.retain(|(w, l)| !gone(w) && !gone(l));
        self.rows.extend(inserts.iter().cloned());
    }
}

fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
    items
}

/// A query mode on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Certain,
    Possible,
    Closed,
}

impl Mode {
    pub fn token(self) -> &'static str {
        match self {
            Mode::Certain => "CERTAIN",
            Mode::Possible => "POSSIBLE",
            Mode::Closed => "CLOSED",
        }
    }
}

/// A family on the wire (`ALL` is Rep, used only for ground closed probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    Rep,
    S,
    G,
    C,
}

impl Family {
    pub fn token(self) -> &'static str {
        match self {
            Family::Rep => "ALL",
            Family::S => "S",
            Family::G => "G",
            Family::C => "C",
        }
    }

    pub fn kind(self) -> pdqi_core::FamilyKind {
        match self {
            Family::Rep => pdqi_core::FamilyKind::Rep,
            Family::S => pdqi_core::FamilyKind::SemiGlobal,
            Family::G => pdqi_core::FamilyKind::Global,
            Family::C => pdqi_core::FamilyKind::Common,
        }
    }
}

/// One executable read: query text, family and mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Read {
    pub text: String,
    pub family: Family,
    pub mode: Mode,
}

/// The query shapes the workloads draw from.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Point,
    Range,
    SelfJoin,
    ClosedExists,
    Ground,
}

impl Shape {
    /// A query of this shape around key `a` (ground probes need the table).
    pub fn text(self, table: &Table, a: i64, rng: &mut Rng) -> String {
        match self {
            Shape::Point => format!("EXISTS c,d . R({a},y,c,d)"),
            Shape::Range => format!("EXISTS c,d . R(x,y,c,d) AND x >= {a} AND x < {}", a + 8),
            Shape::SelfJoin => format!("EXISTS b,c,d,f,h . R({a},b,c,d) AND R(y,f,c,h)"),
            Shape::ClosedExists => format!("EXISTS c,d . R({a},{},c,d)", rng.below(50)),
            Shape::Ground => {
                let row = &table.rows[rng.below(table.rows.len() as u64) as usize];
                let mut v = row.values;
                if rng.chance(0.3) {
                    v[1] = (v[1] + 1) % 50;
                }
                format!("R({},{},{},{})", v[0], v[1], v[2], v[3])
            }
        }
    }

    /// Family and mode for this shape.
    pub fn draw(self, rng: &mut Rng) -> (Family, Mode) {
        let family = *rng.pick(&[Family::S, Family::G, Family::C]);
        match self {
            Shape::Ground => (Family::Rep, Mode::Closed),
            Shape::ClosedExists => (family, Mode::Closed),
            _ => (family, *rng.pick(&[Mode::Certain, Mode::Possible])),
        }
    }
}

/// A read drawn from the shape mix.
pub fn draw_read(table: &Table, mix: &[(Shape, u32)], rng: &mut Rng) -> Read {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut ticket = rng.below(total as u64) as u32;
    let shape = mix
        .iter()
        .find(|(_, w)| {
            if ticket < *w {
                true
            } else {
                ticket -= w;
                false
            }
        })
        .expect("weights cover the ticket")
        .0;
    let a = rng.below(table.a_keys as u64) as i64;
    let text = shape.text(table, a, rng);
    let (family, mode) = shape.draw(rng);
    Read { text, family, mode }
}

/// The `serve_hot` pool: a few dozen recurring reads (fits the answer memo).
pub fn hot_pool(table: &Table, rng: &mut Rng) -> Vec<Read> {
    let mut pool = Vec::new();
    for shape in
        [Shape::Point, Shape::Point, Shape::Point, Shape::Point, Shape::Range, Shape::Range]
    {
        let a = rng.below(table.a_keys as u64) as i64;
        let text = shape.text(table, a, rng);
        for family in [Family::S, Family::G, Family::C] {
            for mode in [Mode::Certain, Mode::Possible] {
                pool.push(Read { text: text.clone(), family, mode });
            }
        }
    }
    for shape in [Shape::ClosedExists, Shape::ClosedExists] {
        let a = rng.below(table.a_keys as u64) as i64;
        let text = shape.text(table, a, rng);
        for family in [Family::S, Family::G, Family::C] {
            pool.push(Read { text: text.clone(), family, mode: Mode::Closed });
        }
    }
    for _ in 0..4 {
        let text = Shape::Ground.text(table, 0, rng);
        pool.push(Read { text, family: Family::Rep, mode: Mode::Closed });
    }
    pool
}

/// The ad-hoc shape mix: point lookups, key ranges, self-joins on `C`, Rep probes.
pub const ADHOC_MIX: [(Shape, u32); 4] =
    [(Shape::Point, 40), (Shape::Range, 25), (Shape::SelfJoin, 10), (Shape::Ground, 25)];

/// One write of the write stream.
#[derive(Debug, Clone)]
pub enum Write {
    Mutate { inserts: Vec<Row>, deletes: Vec<Row> },
    Revise { chain: u32 },
}

/// The write stream's fixed cycle of kinds, so every run has the same write mix:
/// each insert is deleted again two writes later, and a third of the writes are
/// revisions.
const WRITE_CYCLE: [WriteKind; 6] = [
    WriteKind::InsertFresh,
    WriteKind::Revise,
    WriteKind::DeleteOldest,
    WriteKind::InsertConflicting,
    WriteKind::Revise,
    WriteKind::DeleteOldest,
];

#[derive(Debug, Clone, Copy)]
enum WriteKind {
    InsertFresh,
    InsertConflicting,
    DeleteOldest,
    Revise,
}

/// Draws write number `n` of the stream against the model `table` (apply it with
/// [`apply_write`]). The table stays stationary and at most [`MAX_OUTSTANDING`]
/// inserts are alive.
pub fn draw_write(table: &mut Table, live: &mut Vec<Row>, n: usize, rng: &mut Rng) -> Write {
    match WRITE_CYCLE[n % WRITE_CYCLE.len()] {
        WriteKind::Revise => {
            let chain = loop {
                let chain = rng.below(CHAINS as u64) as u32;
                if chain != table.tie_chain {
                    break chain;
                }
            };
            Write::Revise { chain }
        }
        WriteKind::DeleteOldest => {
            Write::Mutate { inserts: Vec::new(), deletes: vec![live.remove(0)] }
        }
        kind => {
            let row = match kind {
                WriteKind::InsertFresh => table.fresh_row(rng),
                _ => table.conflicting_row(rng),
            };
            live.push(row.clone());
            Write::Mutate { inserts: vec![row], deletes: Vec::new() }
        }
    }
}

/// Applies `write` to the model. A revision re-orients one chain by negating its
/// scores and installs the full pair list, which also orients every live
/// conflicting insert.
pub fn apply_write(table: &mut Table, write: &Write) {
    match write {
        Write::Mutate { inserts, deletes } => table.mutate(inserts, deletes),
        Write::Revise { chain } => {
            for row in &mut table.rows {
                if row.chain == Some(*chain) {
                    row.score = -row.score;
                }
            }
            table.priority = table.oriented_pairs();
        }
    }
}

/// The wire frame for `write` against the model state *before* it applies.
pub fn write_frame(table: &Table, write: &Write) -> String {
    match write {
        Write::Mutate { inserts, deletes } => {
            let mut frame = String::from("MUTATE R");
            for row in inserts {
                frame.push_str(&format!("\n+\t{}", row.fields()));
            }
            for row in deletes {
                frame.push_str(&format!("\n-\t{}", row.fields()));
            }
            frame
        }
        Write::Revise { .. } => {
            let mut after = table.clone();
            apply_write(&mut after, write);
            priority_frame(&after)
        }
    }
}

/// `SET-PRIORITY` carrying the full pair list of `table`.
pub fn priority_frame(table: &Table) -> String {
    let pairs: Vec<String> = table.priority_ids().iter().map(|(w, l)| format!("{w}>{l}")).collect();
    format!("SET-PRIORITY R {}", pairs.join(" "))
}

/// The acknowledgement the server must send for `write` at `generation`.
pub fn expected_ack(write: &Write, generation: u64) -> String {
    match write {
        Write::Mutate { inserts, deletes } => format!(
            "OK mutated inserted {} deleted {} gen={generation}",
            inserts.len(),
            deletes.len()
        ),
        Write::Revise { .. } => format!("OK swapped R gen={generation}"),
    }
}
