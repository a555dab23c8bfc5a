//! Seeded FO+POLY source text: the Hörmander corpus and the benchmark's
//! lens queries. The text depends on [`SplitMix`] alone, never on an RNG
//! crate's stream, so pinned digests over it survive dependency updates.

/// splitmix64.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw below `n` (> 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One atom over `vars` (free `x, a` first, then the bound ones): one to
/// three monomials of degree ≤ 2 with coefficients in ±1..3, the first
/// mentioning a bound variable, against a constant in -3..3.
fn corpus_atom(rng: &mut SplitMix, vars: &[&str]) -> String {
    let mut src = String::new();
    for t in 0..1 + rng.below(3) {
        let first = if t == 0 {
            vars[2 + rng.below(vars.len() as u64 - 2) as usize]
        } else {
            vars[rng.below(vars.len() as u64) as usize]
        };
        let mut mono = first.to_string();
        if rng.below(3) == 0 {
            mono = format!("{mono}*{}", vars[rng.below(vars.len() as u64) as usize]);
        }
        let c = 1 + rng.below(3);
        let sign = if rng.below(2) == 0 { "+" } else { "-" };
        let coeff = if c == 1 {
            String::new()
        } else {
            format!("{c}*")
        };
        if t == 0 && sign == "+" {
            src += &format!("{coeff}{mono}");
        } else {
            src += &format!(" {sign} {coeff}{mono}");
        }
    }
    let rel = ["<", "<=", ">", ">=", "="][rng.below(5) as usize];
    let rhs = rng.below(7) as i64 - 3;
    format!("{src} {rel} {rhs}")
}

/// One corpus formula: one or two quantifiers (`y`, or `y` then `z`), each
/// ∃ with probability 4/5, over a body of 1–3 atoms joined by `&`/`|`, with
/// `x` and `a` free.
pub fn corpus_formula(rng: &mut SplitMix) -> String {
    let vars: &[&str] = if rng.below(3) != 0 {
        &["x", "a", "y"]
    } else {
        &["x", "a", "y", "z"]
    };
    let mut body = String::new();
    for i in 0..[1, 1, 2, 2, 3][rng.below(5) as usize] {
        if i > 0 {
            body += if rng.below(2) == 0 { " & " } else { " | " };
        }
        body += &format!("({})", corpus_atom(rng, vars));
    }
    let mut src = format!("({body})");
    for v in vars[2..].iter().rev() {
        let q = if rng.below(5) == 0 {
            "forall"
        } else {
            "exists"
        };
        src = format!("{q} {v}. {src}");
    }
    src
}

/// Lens query `j` of the benchmark's `cold_poly` round (E15: ∃v ∃w.
/// x² + v² + w² ≤ R ∧ v ≥ x² − C ∧ w ≤ v), over the variable names `[x,
/// v, w]`.
pub fn lens_formula(j: u64, [x, v, w]: [&str; 3]) -> String {
    let (r, c) = (5 + j % 4, 2 + j / 4);
    format!(
        "exists {v}. exists {w}. ({x}*{x} + {v}*{v} + {w}*{w} <= {r}/8 \
         & {v} >= {x}*{x} - {c}/8 & {w} <= {v})"
    )
}
