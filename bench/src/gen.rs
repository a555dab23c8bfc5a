//! Seeded workload generators and the answers their construction predicts.
//!
//! The server sees only the request text rendered here. A seed changes
//! coefficient magnitudes (drawn from sets of one bit width, so every seed
//! gives the same amount of arithmetic), variable names and the order of
//! the shapes in a round. It never changes sign patterns, atom counts,
//! quantifier counts, facet counts or ε/δ — the work of a round is the same
//! for every seed, which is what lets runs at different seeds be compared.
//!
//! Expected answers come from the construction: exact rationals ([`Frac`],
//! the bench's own arithmetic) for the FO+LIN shapes and the Σ-terms,
//! closed-form volumes for the polynomial regions. Only the lens family has
//! no closed form; it is checked against a serial in-process engine.

use std::fmt;

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one per use).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// An exact fraction in lowest terms — the bench's own arithmetic for
/// expected answers, printed the way the engine prints a rational.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frac {
    n: i128,
    d: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

impl Frac {
    pub fn new(n: i128, d: i128) -> Frac {
        assert!(d != 0, "zero denominator");
        let g = gcd(n, d).max(1) * d.signum();
        Frac { n: n / g, d: d / g }
    }

    pub fn int(n: i128) -> Frac {
        Frac { n, d: 1 }
    }

    pub fn add(self, o: Frac) -> Frac {
        Frac::new(self.n * o.d + o.n * self.d, self.d * o.d)
    }

    pub fn sub(self, o: Frac) -> Frac {
        Frac::new(self.n * o.d - o.n * self.d, self.d * o.d)
    }

    pub fn mul(self, o: Frac) -> Frac {
        Frac::new(self.n * o.n, self.d * o.d)
    }

    pub fn max(self, o: Frac) -> Frac {
        if self.n * o.d >= o.n * self.d {
            self
        } else {
            o
        }
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.d == 1 {
            write!(f, "{}", self.n)
        } else {
            write!(f, "{}/{}", self.n, self.d)
        }
    }
}

/// The Hoeffding sample count for an additive (ε, δ) answer — Lemma 1's
/// `ln(2/δ) / (2ε²)` rounded up, plus the one the engine adds. Recomputed
/// here so that a change of the engine's count shows as a failure.
pub fn hoeffding_samples(eps: f64, delta: f64) -> usize {
    (((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize).max(1) + 1
}

/// Where an approximate answer's reference volume comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum Volume {
    /// A closed form; the estimate must lie within ε of it.
    Closed(f64),
    /// No closed form: the `value=` a serial in-process engine returned,
    /// which the wire answer must equal.
    Oracle(String),
}

/// What a response must say.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `OK LOAD statements=<cumulative count>`.
    Load { statements: usize },
    /// `OK PREPARE <name> …`.
    Prepare { name: String },
    /// `status=exact value=<value> cache=<cache>`.
    Exact { value: Frac, cache: &'static str },
    /// `status=approx` with the recomputed sample count, the ε and δ asked
    /// for, the cache tag, and a value the reference volume allows.
    Approx {
        volume: Volume,
        eps: f64,
        delta: f64,
        cache: &'static str,
    },
    /// `OK SUM <name> value=<value>`.
    Sum { value: Frac },
    /// `OK BATCH n=<len> errors=0` and one checked line per inner `EXEC`.
    Batch(Vec<Expect>),
}

/// One request frame, pre-rendered, with the number of completed requests
/// it stands for (the inner `EXEC`s of a `BATCH` count one each).
#[derive(Clone, Debug)]
pub struct Request {
    pub text: String,
    pub ops: u32,
    pub expect: Expect,
}

/// The four workloads; the names are fixed because later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdLin,
    ColdPoly,
    WarmRtt,
    WarmBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdLin,
        Workload::ColdPoly,
        Workload::WarmRtt,
        Workload::WarmBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLin => "cold_lin",
            Workload::ColdPoly => "cold_poly",
            Workload::WarmRtt => "warm_rtt",
            Workload::WarmBatch => "warm_batch",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// A cold workload boots a fresh engine and server for every round.
    pub fn is_cold(self) -> bool {
        matches!(self, Workload::ColdLin | Workload::ColdPoly)
    }
}

/// `EXEC`s per `BATCH` frame and `BATCH` frames per round of `warm_batch`.
pub const BATCH_EXECS: usize = 16;
const BATCH_FRAMES: usize = 8;
/// The ε = δ every `EXEC` of a `warm_batch` frame asks for: 26 493 samples,
/// so that a frame is 424 k sampled lanes behind one round trip.
pub const BATCH_EPS: f64 = 0.01;
/// Frames per round of `warm_rtt`, drawn from its pool of cached queries.
const RTT_FRAMES: usize = 256;
/// The engine's default ε = δ, which the other workloads leave in force.
pub const DEFAULT_EPS: f64 = 0.05;

/// Statements in the program every workload loads, one per `LOAD` frame: the
/// program goes up in small pieces, as a client streaming its schema does,
/// and every `LOAD` re-analyses what the session holds so far — that is the
/// deterministic work `setup_s` times.
pub const PROGRAM_STATEMENTS: usize = 140;

/// 7-bit primes: every numerator below stays in lowest terms over them, so
/// a seed never changes the size of a rational.
const DENOMS: [u64; 8] = [67, 71, 73, 79, 83, 89, 97, 101];

/// The program: 113 one-atom thresholds with 9 interval, 9 box and 6
/// two-interval relations at fixed places among them, then three Σ-terms
/// over the two-interval ones. `PREPARE` re-analyses the whole session
/// source, so the program's atom count (≈ 190) is what every `PREPARE` costs.
pub struct Program {
    pub statements: Vec<String>,
    d: u64,
    /// `B<i>(t)`: `lo/d <= t <= hi/d`, all pairs distinct.
    bands: Vec<(u64, u64)>,
    /// `P<i>(s,t)`: the box `[a,b] × [c,e]` over `d`.
    boxes: Vec<[u64; 4]>,
    /// Name and value of each Σ-term.
    sums: Vec<(String, Frac)>,
}

impl Program {
    fn generate(rng: &mut Rng, names: &Names) -> Program {
        let (x, y, z) = (names.free(0), names.free(1), names.free(2));
        let d = DENOMS[rng.below(DENOMS.len() as u64) as usize];
        let (mut bands, mut unions, mut boxes) = (Vec::new(), Vec::new(), Vec::new());
        let mut stmts: Vec<String> = Vec::new();
        for i in 0..PROGRAM_STATEMENTS - 3 {
            if i % 16 == 0 {
                // (lo, hi) is distinct for every band: lo cycles, hi moves
                // to a fresh window of four every eight bands.
                let j = bands.len() as u64;
                let (lo, hi) = (8 + j % 8, 32 + (j / 8) * 4 + rng.below(4));
                stmts.push(format!(
                    "rel B{j:02}({x}) := {lo}/{d} <= {x} & {x} <= {hi}/{d}"
                ));
                bands.push((lo, hi));
            } else if i % 16 == 8 {
                let j = boxes.len();
                let b = [
                    rng.range(8, 15),
                    rng.range(32, 47),
                    rng.range(16, 31),
                    rng.range(48, 63),
                ];
                stmts.push(format!(
                    "rel P{j:02}({x}, {y}) := {}/{d} <= {x} & {x} <= {}/{d} & {}/{d} <= {y} & {y} <= {}/{d}",
                    b[0], b[1], b[2], b[3]
                ));
                boxes.push(b);
            } else if i % 24 == 4 {
                let j = unions.len();
                let u = [
                    rng.range(8, 15),
                    rng.range(16, 31),
                    rng.range(32, 47),
                    rng.range(48, 63),
                ];
                stmts.push(format!(
                    "rel U{j:02}({z}) := ({}/{d} <= {z} & {z} <= {}/{d}) | ({}/{d} <= {z} & {z} <= {}/{d})",
                    u[0], u[1], u[2], u[3]
                ));
                unions.push(u);
            } else {
                stmts.push(format!(
                    "rel H{i:03}({x}) := {x} <= {}/{d}",
                    rng.range(32, 63)
                ));
            }
        }
        // Σ over the four endpoints of a two-interval relation.
        let over_d = |n: u64| Frac::new(i128::from(n), i128::from(d));
        let pick = |rng: &mut Rng| rng.below(unions.len() as u64) as usize;
        let (i0, i1, i2) = (pick(rng), pick(rng), pick(rng));
        let all = |u: [u64; 4]| over_d(u.iter().sum());
        let mut sums = Vec::new();
        stmts.push(format!(
            "sum T0(w) := true | END[y. U{i0:02}(y)] ; xout . xout = w"
        ));
        sums.push(("T0".to_string(), all(unions[i0])));
        let u = unions[i1];
        stmts.push(format!(
            "sum T1(w) := w >= {}/{d} | END[y. U{i1:02}(y)] ; xout . xout = 2*w",
            u[1]
        ));
        sums.push((
            "T1".to_string(),
            Frac::int(2).mul(over_d(u[1] + u[2] + u[3])),
        ));
        stmts.push(format!(
            "sum T2(w) := true | END[y. U{i2:02}(y)] ; xout . xout = w + 1"
        ));
        sums.push(("T2".to_string(), all(unions[i2]).add(Frac::int(4))));
        assert_eq!(stmts.len(), PROGRAM_STATEMENTS);
        Program {
            statements: stmts,
            d,
            bands,
            boxes,
            sums,
        }
    }

    /// The whole source, as one `LOAD` would send it.
    pub fn source(&self) -> String {
        let mut s = self.statements.join("\n");
        s.push('\n');
        s
    }

    fn load_requests(&self) -> Vec<Request> {
        self.statements
            .iter()
            .enumerate()
            .map(|(i, stmt)| Request {
                text: format!("LOAD\n{stmt}\n.\n"),
                ops: 1,
                expect: Expect::Load { statements: i + 1 },
            })
            .collect()
    }
}

/// A query and the answer its construction predicts.
pub struct Query {
    pub src: String,
    pub answer: Answer,
}

/// The predicted answer of a query, before ε, δ and the cache tag are known.
pub enum Answer {
    Exact(Frac),
    Approx(Volume),
}

impl Answer {
    fn closed(volume: f64) -> Answer {
        Answer::Approx(Volume::Closed(volume))
    }
}

/// Per-seed variable names: one digit shared by every name, so names keep
/// their length and free variables keep their alphabetical order (the
/// engine sorts parameters by name).
///
/// What a query costs depends on the order in which the session interned
/// its variables (Hörmander eliminates in that order), and the seed orders
/// the queries. So the order is pinned: the program's relations take the
/// free names as their formal parameters, which interns them at `LOAD`, and
/// every query binds names of its own, which are therefore new to the
/// session and interned in the order the query writes them.
pub struct Names {
    tag: u64,
}

impl Names {
    #[cfg(test)]
    pub fn for_test() -> Names {
        Names { tag: 0 }
    }

    fn free(&self, i: usize) -> String {
        format!("{}{}", ["x", "y", "z"][i], self.tag)
    }

    /// The `i`-th bound variable of the plan's `query`-th query.
    fn bound(&self, query: usize, i: usize) -> String {
        format!("{}{query:02}{}", ["p", "q", "r", "u"][i], self.tag)
    }
}

/// `(v - n/den)*(v - n/den)`.
fn sq(v: &str, n: u64, den: u64) -> String {
    format!("({v} - {n}/{den})*({v} - {n}/{den})")
}

/// E19's chained-∃ core: `k` bound variables, each within `c` of `x` and
/// of its neighbour, the first above 0 and the last below 1. Every `x` in
/// `[0, 1]` satisfies it (all `y = 1/2` does, because `c >= 1`), so the
/// volume of `core ∧ band` is the width of the band.
fn chain_core(k: usize, c: u64, x: &str, names: &Names, query: usize) -> String {
    let y: Vec<String> = (0..k).map(|i| names.bound(query, i)).collect();
    let mut atoms = Vec::new();
    for i in 0..k {
        atoms.push(format!("{x} - {c} < {}", y[i]));
        atoms.push(format!("{} < {x} + {c}", y[i]));
        if i + 1 < k {
            atoms.push(format!("{} - {} < {c}", y[i], y[i + 1]));
            atoms.push(format!("{} - {} < {c}", y[i + 1], y[i]));
        }
    }
    atoms.push(format!("{} > 0", y[0]));
    atoms.push(format!("{} < 1", y[k - 1]));
    format!("(exists {}. {})", y.join(" "), atoms.join(" & "))
}

/// The 36 FO+LIN queries of a `cold_lin` round: twelve chained-∃ queries
/// (K = 2, 3 with two cores of two bands each, K = 4 with one core of four:
/// every core is eliminated once and then shared through the subplan
/// store), twelve two-quantifier simplex projections and twelve
/// quantifier-free unions of two boxes. Output dimension 1 or 2.
///
/// Only the three 2-D unions and the one K = 4 elimination cost a
/// millisecond more than everything else; they are the top 5 % of a round's
/// 80 frames, which keeps the 90th percentile four ranks below that step,
/// in the part of the distribution the reactor's tick smears flat.
fn lin_queries(p: &Program, rng: &mut Rng, names: &Names) -> Vec<Query> {
    let d = p.d;
    let over_d = |n: u64| Frac::new(i128::from(n), i128::from(d));
    let (x, y) = (names.free(0), names.free(1));
    let mut out = Vec::new();
    // Distinct relations, so no two queries expand to one formula.
    let mut band_ix: Vec<usize> = (0..p.bands.len()).collect();
    rng.shuffle(&mut band_ix);
    for (g, k) in [2usize, 3, 4].into_iter().enumerate() {
        let a0 = rng.below(8);
        for j in 0..4 {
            // K = 2, 3: two cores with two bands each; K = 4: one core.
            let c = if k == 4 { 2 } else { 2 + j as u64 / 2 };
            let core = chain_core(k, c, &x, names, g * 4 + j);
            let (band, width) = if j % 2 == 0 {
                let i = band_ix[g * 2 + j / 2];
                let (lo, hi) = p.bands[i];
                (format!("B{i:02}({x})"), over_d(hi - lo))
            } else {
                // Inline bands end in 24..=31, relation bands in 32..=63:
                // never the same interval.
                let (lo, hi) = (8 + (a0 + j as u64) % 8, rng.range(24, 31));
                (
                    format!("{lo}/{d} <= {x} & {x} <= {hi}/{d}"),
                    over_d(hi - lo),
                )
            };
            out.push(Query {
                src: format!("{core} & {band}"),
                answer: Answer::Exact(width),
            });
        }
    }
    // Simplex projections. 2-D: {x, y >= 0, a·x + b·y <= 1} has area
    // 1/(2ab). 1-D: {x >= 0, a·x <= 1} has length 1/a; b only makes the
    // key distinct.
    let (oa, ob) = (rng.below(4), rng.below(4));
    for j in 0..12u64 {
        let (u, v) = (
            names.bound(12 + j as usize, 0),
            names.bound(12 + j as usize, 1),
        );
        // (j % 4, j / 4 + shift) runs over distinct pairs of {4..7}².
        let a = 4 + (j + oa) % 4;
        let b = 4 + (j / 4 + j % 4 + ob) % 4;
        if j < 6 {
            out.push(Query {
                src: format!(
                    "exists {u} {v}. {u} >= 0 & {v} >= 0 & {x} >= 0 & {y} >= 0 \
                     & {a}*{x} + {b}*{y} + {u} + {v} <= 1"
                ),
                answer: Answer::Exact(Frac::new(1, i128::from(2 * a * b))),
            });
        } else {
            out.push(Query {
                src: format!(
                    "exists {u} {v}. {u} >= {a}*{x} & {v} >= 0 & {x} >= 0 & {u} + {b}*{v} <= 1"
                ),
                answer: Answer::Exact(Frac::new(1, i128::from(a))),
            });
        }
    }
    // Unions of two boxes. 2-D: two box relations, area by inclusion–
    // exclusion. 1-D: two inline intervals that may overlap.
    let mut box_ix: Vec<usize> = (0..p.boxes.len()).collect();
    rng.shuffle(&mut box_ix);
    for j in 0..3 {
        let (i1, i2) = (box_ix[2 * j], box_ix[2 * j + 1]);
        let (b1, b2) = (p.boxes[i1], p.boxes[i2]);
        let side = |lo: u64, hi: u64| over_d(hi).sub(over_d(lo)).max(Frac::int(0));
        let area = |b: [u64; 4]| side(b[0], b[1]).mul(side(b[2], b[3]));
        let overlap =
            side(b1[0].max(b2[0]), b1[1].min(b2[1])).mul(side(b1[2].max(b2[2]), b1[3].min(b2[3])));
        out.push(Query {
            src: format!("P{i1:02}({x}, {y}) | P{i2:02}({x}, {y})"),
            answer: Answer::Exact(area(b1).add(area(b2)).sub(overlap)),
        });
    }
    let o = rng.below(8);
    for j in 0..9u64 {
        // [a, b] ∪ [c, e] with a < c <= b < e: the union is [a, e]; the
        // pair (a, b) is distinct for each j.
        let (a, b) = (8 + (j + o) % 8, 40 + j % 8 + (j / 8) * 4 % 8);
        let (c, e) = (rng.range(32, 39), rng.range(48, 63));
        out.push(Query {
            src: format!("({a}/{d} <= {x} & {x} <= {b}/{d}) | ({c}/{d} <= {x} & {x} <= {e}/{d})"),
            answer: Answer::Exact(over_d(e - a)),
        });
    }
    out
}

/// Sixteenths for centres, so that a radius of at most 1/4 around a centre
/// in 6/16..=10/16 stays inside the unit box.
const CENTRE_DEN: u64 = 16;

fn centre(i: u64) -> u64 {
    6 + i % 5
}

/// The one-quantifier quadratics of `cold_poly`, by offsets into the
/// coefficient sets (the unit test sweeps every offset, so that no seed can
/// pick a region whose fixed-seed estimate misses its closed form by ε).
/// Eliminating the bound variable leaves a polynomial condition on the
/// free ones, so every answer is `status=approx`.
pub fn quadratic_queries(o: [u64; 3], names: &Names) -> Vec<Query> {
    use std::f64::consts::PI;
    let (x, y) = (names.free(0), names.free(1));
    let mut out = Vec::new();
    for j in 0..4u64 {
        let w = names.bound(j as usize, 0);
        let (cx, cy) = (centre(j + o[0]), centre(2 * j + o[1]));
        // ∃w. |(x,y) − c|² + w² <= 1/k²: the disk of radius 1/k.
        let k = 6 + (j + o[2]) % 2;
        out.push(Query {
            src: format!(
                "exists {w}. {} + {} + {w}*{w} <= 1/{}",
                sq(&x, cx, CENTRE_DEN),
                sq(&y, cy, CENTRE_DEN),
                k * k
            ),
            answer: Answer::closed(PI / (k * k) as f64),
        });
        // ∃w. (x − c)² + w² <= 1/k²: the segment of half-length 1/k.
        let k = 8 + o[2] % 2;
        out.push(Query {
            src: format!(
                "exists {w}. {} + {w}*{w} <= 1/{}",
                sq(&x, cx, CENTRE_DEN),
                k * k
            ),
            answer: Answer::closed(2.0 / k as f64),
        });
        // ∃w. w² + (x − c)² <= y <= 1/k²: under a parabola of
        // half-width 1/k, area 4/(3k³).
        let k = 4 + o[2] % 2;
        out.push(Query {
            src: format!(
                "exists {w}. {w}*{w} + {} <= {y} & {y} <= 1/{}",
                sq(&x, cx, CENTRE_DEN),
                k * k
            ),
            answer: Answer::closed(4.0 / (3 * k * k * k) as f64),
        });
    }
    out
}

/// `(c − h)/16 <= v <= (c + h)/16`.
fn within(v: &str, c: u64, h: u64) -> String {
    format!(
        "{}/{CENTRE_DEN} <= {v} & {v} <= {}/{CENTRE_DEN}",
        c - h,
        c + h
    )
}

/// The 36 FO+POLY queries of a `cold_poly` round: 12 one-quantifier
/// quadratics, 15 E15 lens queries through Hörmander, 9 E18 ones that the
/// abstract interpreter decides statically or shrinks to a box.
///
/// The lens queries are the top fifth of a round's 72 frames, so the 90th
/// percentile sits in the middle of their class, where their latencies
/// plateau; with a quarter of the queries (an eighth of the frames) it sat
/// on the ramp at the class's cheap end and moved 25 % between runs.
fn poly_queries(program: &Program, rng: &mut Rng, names: &Names) -> Vec<Query> {
    let x = names.free(0);
    let mut out = quadratic_queries([rng.below(5), rng.below(5), rng.below(2)], names);
    // E15's lens: ∃v ∃w. x² + v² + w² <= R ∧ v >= x² − C ∧ w <= v, with
    // (R, C) running over distinct pairs of eighths.
    let o = rng.below(4);
    for j in 0..15u64 {
        let (v, w) = (
            names.bound(18 + j as usize, 0),
            names.bound(18 + j as usize, 1),
        );
        let (r, c) = (5 + (j + o) % 4, 2 + j / 4);
        let src = format!(
            "exists {v}. exists {w}. ({x}*{x} + {v}*{v} + {w}*{w} <= {r}/8 \
             & {v} >= {x}*{x} - {c}/8 & {w} <= {v})"
        );
        let answer = Answer::Approx(Volume::Oracle(oracle_value(&program.source(), &src)));
        out.push(Query { src, answer });
    }
    out.extend(decided_queries([rng.below(5), rng.below(5)], names));
    out
}

/// The E18 queries of `cold_poly`, by offsets into the centre set: three
/// statically empty, three statically valid, three box-shrinkable.
pub fn decided_queries(o: [u64; 2], names: &Names) -> Vec<Query> {
    use std::f64::consts::PI;
    let (x, y) = (names.free(0), names.free(1));
    let mut out = Vec::new();
    for j in 0..3u64 {
        let (cx, cy) = (centre(j + o[0]), centre(2 * j + o[1]));
        let disk = |k: u64| {
            format!(
                "{} + {} <= 1/{}",
                sq(&x, cx, CENTRE_DEN),
                sq(&y, cy, CENTRE_DEN),
                k * k
            )
        };
        // Statically empty: the interval pass refutes x > 2 ∧ x <= 1 …
        out.push(Query {
            src: format!("{} & {x} > {} & {x} <= 1", disk(4 + j), 2 + j),
            answer: Answer::closed(0.0),
        });
        // … statically valid: a sum of squares is above any negative …
        out.push(Query {
            src: format!("{x}*{x} + {y}*{y} >= 0 - {}", 4 + j + o[0]),
            answer: Answer::closed(1.0),
        });
        // … and box-shrinkable: the disk of radius 1/10 sits in a box of
        // side 1/4, so 15/16 of the sample lanes skip the kernel.
        out.push(Query {
            src: format!(
                "{} & {} & {}",
                disk(10),
                within(&x, cx, 2),
                within(&y, cy, 2)
            ),
            answer: Answer::closed(PI / 100.0),
        });
    }
    out
}

/// The four region shapes of the warm workloads, quantifier-free and
/// polynomial, each with a closed-form volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A disk of radius 1/k.
    Disk,
    /// A disk of radius 1/k without the concentric one of radius 1/(2k).
    Annulus,
    /// A disk of radius 1/(2k) inside a stated box of side 1/4: the
    /// abstract interpreter certifies the box and most lanes skip the kernel.
    BoxedDisk,
    /// The half of a ball of radius 1/k below the plane through its centre.
    HalfBall,
}

pub const SHAPES: [Shape; 4] = [
    Shape::Disk,
    Shape::Annulus,
    Shape::BoxedDisk,
    Shape::HalfBall,
];

/// The `j`-th region of `shape` under coefficient offsets `o`; the pairs
/// (centre, k) are distinct for `j < 15`, so no two regions share a key.
///
/// What a sweep costs must not depend on the offsets. So `k` is never 4: a
/// bound of 1/16 keeps every coefficient dyadic, and the kernel then sweeps
/// a disk in 0.7 of the time it needs for k = 5, 6 or 7, which cost the
/// same. And the half ball's plane is always z = 1/2, because the share of
/// the lanes below it, which is all the kernel sees, is the plane's height.
pub fn region(shape: Shape, j: u64, o: [u64; 3], names: &Names) -> Query {
    use std::f64::consts::PI;
    let (x, y, z) = (names.free(0), names.free(1), names.free(2));
    let (cx, cy, cz) = (centre(j + o[0]), centre(2 * j + o[1]), 8);
    let k = 5 + (j + o[2]) % 3;
    let r = 1.0 / k as f64;
    let dist2 = format!("{} + {}", sq(&x, cx, CENTRE_DEN), sq(&y, cy, CENTRE_DEN));
    let (src, volume) = match shape {
        Shape::Disk => (format!("{dist2} <= 1/{}", k * k), PI * r * r),
        Shape::Annulus => (
            format!("{dist2} <= 1/{} & {dist2} >= 1/{}", k * k, 4 * k * k),
            PI * r * r * 0.75,
        ),
        Shape::BoxedDisk => (
            format!(
                "{dist2} <= 1/{} & {} & {}",
                4 * k * k,
                within(&x, cx, 2),
                within(&y, cy, 2)
            ),
            PI * r * r / 4.0,
        ),
        Shape::HalfBall => (
            format!(
                "{dist2} + {} <= 1/{} & {z} <= {cz}/{CENTRE_DEN}",
                sq(&z, cz, CENTRE_DEN),
                k * k
            ),
            2.0 / 3.0 * PI * r * r * r,
        ),
    };
    Query {
        src,
        answer: Answer::closed(volume),
    }
}

/// `per_shape` regions of each shape, interleaved.
pub fn regions(per_shape: u64, o: [u64; 3], names: &Names) -> Vec<Query> {
    (0..per_shape)
        .flat_map(|j| SHAPES.into_iter().map(move |s| (s, j)))
        .map(|(s, j)| region(s, j, o, names))
        .collect()
}

/// The `value=` a serial in-process engine gives `query` — the reference
/// for the one family without a closed form.
fn oracle_value(program: &str, query: &str) -> String {
    use cqa_engine::{Engine, EngineConfig};
    let engine = Engine::new(EngineConfig {
        timeout: Some(std::time::Duration::from_secs(60)),
        ..EngineConfig::default()
    });
    let mut session = engine.open_session();
    assert!(engine.load(&mut session, program).is_ok(), "oracle LOAD");
    let r = engine.prepare(&mut session, "oracle", query);
    assert!(r.is_ok(), "oracle PREPARE: {r:?}");
    let r = engine.exec(&mut session, "oracle", None, None);
    crate::check::field(&r.header, "value")
        .unwrap_or_else(|| panic!("oracle EXEC: {r:?}"))
        .to_string()
}

/// Everything a run sends: the pipelined set-up frames, the pool of frames
/// a round draws from, and how it draws.
pub struct Plan {
    pub workload: Workload,
    /// Sent pipelined after the greeting: the `LOAD` frames, and for the
    /// warm workloads one `PREPARE` and one cache-filling `EXEC` per query.
    pub setup: Vec<Request>,
    /// The distinct frames of a round.
    pub pool: Vec<Request>,
    draw: Rng,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed, workload as u64);
        let names = Names { tag: rng.below(10) };
        let program = Program::generate(&mut rng, &names);
        let mut setup = program.load_requests();
        let mut pool = Vec::new();
        // What an `EXEC` of `q` at ε = δ = `eps` must answer.
        let expect = |q: &Query, eps: f64, cache: &'static str| match &q.answer {
            Answer::Exact(value) => Expect::Exact {
                value: *value,
                cache,
            },
            Answer::Approx(volume) => Expect::Approx {
                volume: volume.clone(),
                eps,
                delta: eps,
                cache,
            },
        };
        // An `EXEC` at the engine's default ε = δ.
        let exec = |name: &str, q: &Query, cache: &'static str| Request {
            text: format!("EXEC {name}\n"),
            ops: 1,
            expect: expect(q, DEFAULT_EPS, cache),
        };
        let prepare = |name: &str, src: &str| Request {
            text: format!("PREPARE {name} {src}\n"),
            ops: 1,
            expect: Expect::Prepare {
                name: name.to_string(),
            },
        };
        match workload {
            Workload::ColdLin | Workload::ColdPoly => {
                let qs = if workload == Workload::ColdLin {
                    lin_queries(&program, &mut rng, &names)
                } else {
                    poly_queries(&program, &mut rng, &names)
                };
                // A round item is a (PREPARE, EXEC) pair or one SUM; the
                // seed orders the items.
                let mut items: Vec<Vec<Request>> = Vec::new();
                for (i, q) in qs.iter().enumerate() {
                    let name = format!("q{i:02}");
                    items.push(vec![prepare(&name, &q.src), exec(&name, q, "miss")]);
                }
                if workload == Workload::ColdLin {
                    for i in 0..8 {
                        let (name, value) = &program.sums[i % program.sums.len()];
                        items.push(vec![Request {
                            text: format!("SUM {name}\n"),
                            ops: 1,
                            expect: Expect::Sum { value: *value },
                        }]);
                    }
                }
                rng.shuffle(&mut items);
                pool = items.into_iter().flatten().collect();
            }
            Workload::WarmRtt | Workload::WarmBatch => {
                let per_shape = if workload == Workload::WarmRtt { 8 } else { 2 };
                let o = [rng.below(5), rng.below(5), rng.below(3)];
                let qs = regions(per_shape, o, &names);
                for (i, q) in qs.iter().enumerate() {
                    let name = format!("r{i:02}");
                    setup.push(prepare(&name, &q.src));
                    setup.push(exec(&name, q, "miss"));
                }
                if workload == Workload::WarmRtt {
                    for (i, q) in qs.iter().enumerate() {
                        pool.push(exec(&format!("r{i:02}"), q, "hit"));
                    }
                } else {
                    // Every BATCH holds each region twice, in seeded order:
                    // all frames do the same work.
                    for _ in 0..BATCH_FRAMES {
                        let mut ix: Vec<usize> = (0..BATCH_EXECS).map(|i| i % qs.len()).collect();
                        rng.shuffle(&mut ix);
                        let mut text = String::from("BATCH\n");
                        for &i in &ix {
                            text.push_str(&format!("r{i:02} {BATCH_EPS} {BATCH_EPS}\n"));
                        }
                        text.push_str(".\n");
                        pool.push(Request {
                            text,
                            ops: BATCH_EXECS as u32,
                            expect: Expect::Batch(
                                ix.iter()
                                    .map(|&i| expect(&qs[i], BATCH_EPS, "hit"))
                                    .collect(),
                            ),
                        });
                    }
                }
            }
        }
        Plan {
            workload,
            setup,
            pool,
            draw: Rng::new(seed, 0x100 + workload as u64),
        }
    }

    /// The pool indices of the next round, in sending order. Cold and
    /// `warm_batch` rounds send the whole pool; a `warm_rtt` round draws
    /// uniformly from it.
    pub fn next_round(&mut self) -> Vec<usize> {
        if self.workload == Workload::WarmRtt {
            let n = self.pool.len() as u64;
            (0..RTT_FRAMES)
                .map(|_| self.draw.below(n) as usize)
                .collect()
        } else {
            (0..self.pool.len()).collect()
        }
    }

    /// How many queries the plan prepares.
    #[cfg(test)]
    pub fn queries(&self) -> usize {
        let prepares = |rs: &[Request]| {
            rs.iter()
                .filter(|r| matches!(r.expect, Expect::Prepare { .. }))
                .count()
        };
        prepares(&self.setup) + prepares(&self.pool)
    }

    /// Request bytes of one round (the same for every round of a plan).
    #[cfg(test)]
    pub fn round_bytes(&self) -> usize {
        let per_frame: usize = self.pool.iter().map(|r| r.text.len()).sum();
        if self.workload == Workload::WarmRtt {
            per_frame * RTT_FRAMES / self.pool.len()
        } else {
            per_frame
        }
    }
}
