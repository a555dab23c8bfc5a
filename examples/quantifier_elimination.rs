//! A tour of the quantifier-elimination engines — the algorithmic heart of
//! the constraint-database closure property.
//!
//! ```text
//! cargo run --release --example quantifier_elimination
//! ```

use constraint_agg::logic::budget::EvalBudget;
use constraint_agg::logic::{display_formula, parse_formula, parse_formula_with, VarMap};
use constraint_agg::qe::{
    decide_sentence, eliminate, equivalent, fourier_motzkin, hoermander, loos_weispfenning,
};

fn main() {
    // Every engine takes a cooperative budget; this tour sets no limits.
    let unlimited = &EvalBudget::unlimited();

    // Linear elimination two ways.
    let mut vars = VarMap::new();
    let q = parse_formula_with("exists y. x < 2*y & 3*y < z & y != 1", &mut vars).unwrap();
    let fm = fourier_motzkin(&q, unlimited).unwrap();
    let lw = loos_weispfenning(&q, unlimited).unwrap();
    println!("query: ∃y. x < 2y ∧ 3y < z ∧ y ≠ 1");
    println!("  Fourier–Motzkin    → {}", display_formula(&fm, &vars));
    println!("  Loos–Weispfenning  → {}", display_formula(&lw, &vars));
    println!("  equivalent? {}", equivalent(&fm, &lw, unlimited).unwrap());

    // Polynomial elimination: the discriminant emerges from the algebra.
    let mut vars2 = VarMap::new();
    let qp = parse_formula_with("exists x. x*x + b*x + 1 = 0", &mut vars2).unwrap();
    let qf = hoermander(&qp, unlimited).unwrap();
    println!("\n∃x. x² + bx + 1 = 0   (Cohen–Hörmander)");
    println!("  → {}", display_formula(&qf, &vars2));
    println!("  (semantically: b ≤ −2 ∨ b ≥ 2, i.e. b² − 4 ≥ 0)");

    // Sentences: Tarski decidability in action.
    println!("\ndecisions over the real field:");
    for src in [
        "forall x. x*x >= 0",
        "exists x. x*x = 2",
        "forall a, b, c. (a != 0 & b*b - 4*a*c >= 0) -> exists x. a*x*x + b*x + c = 0",
        "forall x. exists y. y > x*x",
        "exists y. forall x. y > x*x",
    ] {
        let (f, _) = parse_formula(src).unwrap();
        println!("  {:<74} {}", src, decide_sentence(&f, unlimited).unwrap());
    }

    // The dispatcher picks the right engine by constraint class.
    let (lin, linv) = parse_formula("exists u. x <= u & u <= y").unwrap();
    let (pol, polv) = parse_formula("exists u. u*u <= x").unwrap();
    println!("\ndispatcher:");
    println!(
        "  linear     → {}",
        display_formula(&eliminate(&lin, unlimited).unwrap(), &linv)
    );
    println!(
        "  polynomial → {}",
        display_formula(&eliminate(&pol, unlimited).unwrap(), &polv)
    );
}
