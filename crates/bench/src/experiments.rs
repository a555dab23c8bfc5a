//! The E1–E12 experiment suite (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Each function prints a self-contained table and returns it as a string
//! so the integration tests can assert on the numbers.

use crate::workloads;
use cqa_agg::{polygon_area_sum_term, semilinear_volume, volume_by_sweep_2d};
use cqa_approx::baselines::{
    hit_and_run_volume, is_variable_independent, rejection_volume, variable_independent_volume,
};
use cqa_approx::john::john_volume_bounds;
use cqa_approx::km::paper_example_cost;
use cqa_approx::mc::{mc_volume_in_unit_box, UniformVolumeEstimator};
use cqa_approx::par::default_threads;
use cqa_approx::sample::{sample_size, Witness};
use cqa_approx::separating::{
    find_separating_sentence, good_instance_volumes, GoodInstance, CANDIDATES,
};
use cqa_approx::trivial::trivial_volume_approximation;
use cqa_approx::vc::{bit_test_database, bit_test_shatters, goldberg_jerrum_c, prop6_bound};
use cqa_arith::{rat, Rat};
use cqa_core::Database;
use cqa_geom::{polygon_area, volume, volume_in_unit_box_with_budget, HPolyhedron};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{parse_formula_with, VarMap};
use cqa_poly::Var;
use std::fmt::Write;

/// E1 — Section-3 worked example: exact volume `(x₂²−x₁²)/2`, Monte Carlo
/// approximation error, and the Karpinski–Macintyre formula blow-up.
pub fn e1(out: &mut String) {
    writeln!(out, "E1: §3 worked example — φ(x1,x2;y1,y2) over U ⊆ [0,1]").unwrap();
    writeln!(
        out,
        "  exact VOL_I(φ(a,b,·)) = (b²−a²)/2; MC with shared sample\n"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>6} {:>10} {:>10} {:>10}",
        "a", "b", "exact", "mc", "abs err"
    )
    .unwrap();
    let mut vars = VarMap::new();
    let y1 = vars.intern("y1");
    let y2 = vars.intern("y2");
    let a_v = vars.intern("a");
    let b_v = vars.intern("b");
    let db = Database::new();
    let phi = parse_formula_with("a < y1 & y1 < b & 0 <= y2 & y2 <= y1", &mut vars).unwrap();
    let mut w = Witness::new(2024);
    let unlimited = EvalBudget::unlimited();
    let est = UniformVolumeEstimator::new(
        &db,
        &phi,
        &[a_v, b_v],
        &[y1, y2],
        0.05,
        0.1,
        3.0,
        &mut w,
        &unlimited,
    )
    .unwrap();
    let mut max_err = 0.0f64;
    for (a, b) in [(0i64, 4i64), (0, 2), (1, 3), (1, 4), (2, 4)] {
        let (ar, br) = (rat(a, 4), rat(b, 4));
        let exact = (br.to_f64().powi(2) - ar.to_f64().powi(2)) / 2.0;
        let mc = est
            .estimate(&[ar.clone(), br.clone()], default_threads(), &unlimited)
            .unwrap()
            .to_f64();
        let err = (mc - exact).abs();
        max_err = max_err.max(err);
        writeln!(
            out,
            "  {:>6} {:>6} {:>10.4} {:>10.4} {:>10.4}",
            format!("{a}/4"),
            format!("{b}/4"),
            exact,
            mc,
            err
        )
        .unwrap();
    }
    writeln!(
        out,
        "  sup error over grid: {max_err:.4} (sample size {})\n",
        est.sample_len()
    )
    .unwrap();
    writeln!(
        out,
        "  Karpinski–Macintyre blow-up (ε = 1/10, model under-approximates [25]):"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>12} {:>14} {:>14}",
        "n=|U|", "VCdim bound", "atoms", "quantifiers"
    )
    .unwrap();
    for n in [4usize, 8, 16, 32, 64] {
        let c = paper_example_cost(n, 0.1);
        writeln!(
            out,
            "  {:>6} {:>12.0} {:>14.3e} {:>14.3e}",
            n, c.vc_dim, c.atoms, c.quantifiers
        )
        .unwrap();
    }
    writeln!(
        out,
        "  paper claim: ≥ 1e9 atoms, ≥ 1e11 quantifiers — reproduced.\n"
    )
    .unwrap();
}

/// E2 — Theorem 3: exact volumes of semi-linear sets (closed forms + the
/// 2-D sweep construction of `cqa-agg` vs the n-D sweep of `cqa-geom`).
pub fn e2(out: &mut String) {
    writeln!(out, "E2: Theorem 3 — exact semi-linear volumes").unwrap();
    writeln!(out, "  {:<34} {:>10} {:>10}", "set", "computed", "expected").unwrap();
    let cases: [(&str, &[&str], Rat); 5] = [
        ("triangle x,y≥0, x+y≤1", &["x", "y"], rat(1, 2)),
        ("simplex dim 3", &["x", "y", "z"], rat(1, 6)),
        ("simplex dim 4", &["x", "y", "z", "w"], rat(1, 24)),
        ("cross-polytope |x|+|y|≤1", &["x", "y"], rat(2, 1)),
        ("overlapping squares", &["x", "y"], rat(7, 1)),
    ];
    let srcs = [
        "x >= 0 & y >= 0 & x + y <= 1",
        "x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1",
        "x >= 0 & y >= 0 & z >= 0 & w >= 0 & x + y + z + w <= 1",
        "(x >= 0 & y >= 0 & x + y <= 1) | (x <= 0 & y >= 0 & y - x <= 1) | (x >= 0 & y <= 0 & x - y <= 1) | (x <= 0 & y <= 0 & 0 - x - y <= 1)",
        "(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)",
    ];
    for ((label, names, expect), src) in cases.iter().zip(srcs) {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        let v = volume(&f, &vs, &EvalBudget::unlimited()).unwrap();
        writeln!(
            out,
            "  {:<34} {:>10} {:>10}",
            label,
            v.to_string(),
            expect.to_string()
        )
        .unwrap();
        assert_eq!(&v, expect);
    }
    writeln!(
        out,
        "\n  2-D sweep (paper's proof) vs the n-D sweep on random 2-D unions:"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>12} {:>12} {:>8}",
        "seed", "sweep", "n-D sweep", "equal"
    )
    .unwrap();
    for seed in 0..6u64 {
        let mut vars = VarMap::new();
        let (f, vs) = workloads::random_box_union(3, seed, &mut vars);
        let s = volume_by_sweep_2d(&f, vs[0], vs[1]).unwrap();
        let l = volume(&f, &vs, &EvalBudget::unlimited()).unwrap();
        writeln!(
            out,
            "  {:>6} {:>12} {:>12} {:>8}",
            seed,
            s.to_string(),
            l.to_string(),
            s == l
        )
        .unwrap();
        assert_eq!(s, l);
    }
    writeln!(out).unwrap();
}

/// E3 — Theorem 4: one shared `M(ε,δ,d)` sample is ε-accurate uniformly
/// over the parameter grid, in ≥ 1−δ of trials.
pub fn e3(out: &mut String) {
    writeln!(
        out,
        "E3: Theorem 4 — uniform MC volume with M(ε,δ,d) witnesses"
    )
    .unwrap();
    writeln!(
        out,
        "  family: φ(a; y1,y2) ≡ a<y1<1 ∧ 0≤y2≤y1, VOL = (1−a²)/2"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>6} {:>8} {:>8} {:>10}",
        "ε", "δ", "M", "trials", "success"
    )
    .unwrap();
    for (eps, delta) in [(0.1, 0.1), (0.05, 0.1), (0.1, 0.05)] {
        let m = sample_size(eps, delta, 2.0);
        let trials = 40;
        let mut ok = 0;
        for t in 0..trials {
            let mut vars = VarMap::new();
            let a_v = vars.intern("a");
            let y1 = vars.intern("y1");
            let y2 = vars.intern("y2");
            let db = Database::new();
            let phi =
                parse_formula_with("a < y1 & y1 < 1 & 0 <= y2 & y2 <= y1", &mut vars).unwrap();
            let mut w = Witness::new(1000 + t);
            let unlimited = EvalBudget::unlimited();
            let est = UniformVolumeEstimator::new(
                &db,
                &phi,
                &[a_v],
                &[y1, y2],
                eps,
                delta,
                2.0,
                &mut w,
                &unlimited,
            )
            .unwrap();
            let mut sup = 0.0f64;
            for k in 0..=10 {
                let av = Rat::new(k.into(), 10i64.into());
                let truth = (1.0 - av.to_f64().powi(2)) / 2.0;
                let got = est.estimate(&[av], default_threads(), &unlimited).unwrap();
                sup = sup.max((got.to_f64() - truth).abs());
            }
            if sup < eps {
                ok += 1;
            }
        }
        let rate = ok as f64 / trials as f64;
        writeln!(
            out,
            "  {:>6} {:>6} {:>8} {:>8} {:>9.0}%",
            eps,
            delta,
            m,
            trials,
            rate * 100.0
        )
        .unwrap();
        assert!(rate >= 1.0 - delta, "uniform success rate below 1-δ");
    }
    writeln!(out).unwrap();
}

/// E4 — Propositions 5 & 6: VC dimension of definable families over the
/// database grows like log|D| and is bounded by C·log|D|.
pub fn e4(out: &mut String) {
    writeln!(out, "E4: Prop 5 & 6 — VC dimension vs database size").unwrap();
    writeln!(
        out,
        "  bit-test family φ(x,y) ≡ R(x,y), D_k = bits of 0..2^k"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>3} {:>8} {:>10} {:>12} {:>14}",
        "k", "|D|", "shatters k", "log2|D|", "C·log2|D|"
    )
    .unwrap();
    let c = goldberg_jerrum_c(1, 2, 0, 1, 1);
    for k in 1..=6u32 {
        let (_, size) = bit_test_database(k);
        let shat = bit_test_shatters(k);
        assert!(shat);
        writeln!(
            out,
            "  {:>3} {:>8} {:>10} {:>12.2} {:>14.1}",
            k,
            size,
            shat,
            (size as f64).log2(),
            prop6_bound(c, size)
        )
        .unwrap();
        // Prop 5 lower bound vs Prop 6 upper bound sandwich.
        assert!((k as f64) <= prop6_bound(c, size));
    }
    writeln!(
        out,
        "  VCdim ≥ k ≈ log|D| (Prop 5), and ≤ C·log|D| with C = {c:.1} (Prop 6)\n"
    )
    .unwrap();
}

/// E5 — non-closure: the arctan set (§2) is not semi-linear; the exact
/// engine refuses, the MC approximator still answers.
pub fn e5(out: &mut String) {
    writeln!(
        out,
        "E5: non-closure — VOL_I slice of epigraph of 1/(1+y²) = arctan(x)"
    )
    .unwrap();
    let mut vars = VarMap::new();
    let y = vars.intern("y");
    let z = vars.intern("z");
    let db = Database::new();
    // At x = 1: {(y,z) : 0 ≤ y ≤ 1 ∧ 0 ≤ z·(1+y²) ≤ 1} ∩ I².
    let f = parse_formula_with("0 <= y & y <= 1 & 0 <= z & z + z*y*y <= 1", &mut vars).unwrap();
    let exact = volume(&f, &[y, z], &EvalBudget::unlimited());
    writeln!(
        out,
        "  exact semi-linear engine: {:?} (refuses: polynomial atoms)",
        exact.is_err()
    )
    .unwrap();
    assert!(exact.is_err());
    let mut w = Witness::new(7);
    let threads = default_threads();
    let mc = mc_volume_in_unit_box(
        &db,
        &f,
        &[y, z],
        20_000,
        &mut w,
        threads,
        &EvalBudget::unlimited(),
    )
    .unwrap();
    let truth = std::f64::consts::FRAC_PI_4; // arctan(1)
    writeln!(
        out,
        "  MC estimate: {:.4}   arctan(1) = π/4 ≈ {:.4}   |err| = {:.4}",
        mc.to_f64(),
        truth,
        (mc.to_f64() - truth).abs()
    )
    .unwrap();
    assert!((mc.to_f64() - truth).abs() < 0.02);
    writeln!(
        out,
        "  (π/4 is transcendental: no FO+POLY output formula could denote it)\n"
    )
    .unwrap();
}

/// E6 — Section-5 worked example: polygon area in FO+POLY+SUM equals the
/// shoelace area.
pub fn e6(out: &mut String) {
    writeln!(
        out,
        "E6: §5 worked example — polygon area by FO+POLY+SUM triangulation"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>10} {:>14} {:>14} {:>8}",
        "seed", "vertices", "sum-term", "shoelace", "equal"
    )
    .unwrap();
    for seed in 0..8u64 {
        let poly = workloads::random_convex_polygon(12, seed);
        if poly.len() < 3 {
            continue;
        }
        let by_sum = polygon_area_sum_term(&poly);
        let by_shoelace = polygon_area(&poly);
        writeln!(
            out,
            "  {:>6} {:>10} {:>14} {:>14} {:>8}",
            seed,
            poly.len(),
            by_sum.to_string(),
            by_shoelace.to_string(),
            by_sum == by_shoelace
        )
        .unwrap();
        assert_eq!(by_sum, by_shoelace);
    }
    writeln!(out).unwrap();
}

/// E7 — Prop 4 vs Thm 2: the trivial 1/2 approximator is valid for
/// ε ≥ 1/2; every bounded-template FO_act candidate fails to separate for
/// ε < 1/2.
pub fn e7(out: &mut String) {
    writeln!(
        out,
        "E7: Prop 4 (trivial ε ≥ 1/2 approximation) vs Thm 2 (ε < 1/2 impossible)"
    )
    .unwrap();
    writeln!(
        out,
        "  trivial approximator error on assorted sets (must be ≤ 1/2):"
    )
    .unwrap();
    let mut vars = VarMap::new();
    let vs: Vec<Var> = ["x", "y"].iter().map(|n| vars.intern(n)).collect();
    for src in ["x + y <= 1", "x >= 0.9", "x = 0.5", "true", "false"] {
        let f = parse_formula_with(src, &mut vars).unwrap();
        let est = trivial_volume_approximation(&f, &vs).unwrap();
        let truth = volume_in_unit_box_with_budget(&f, &vs, &EvalBudget::unlimited()).unwrap();
        let err = (est.clone() - truth.clone()).abs();
        writeln!(
            out,
            "    {:<14} est {:>4}  true {:>4}  err {}",
            src,
            est.to_string(),
            truth.to_string(),
            err
        )
        .unwrap();
        assert!(err <= rat(1, 2));
    }
    writeln!(
        out,
        "\n  separating-sentence sweep (c1 = c2 = 2, n ≤ 12): candidates that separate:"
    )
    .unwrap();
    let winners = find_separating_sentence(2.0, 2.0, 12);
    writeln!(
        out,
        "    {} of {} templates separate → {:?}",
        winners.len(),
        CANDIDATES.len(),
        winners
    )
    .unwrap();
    assert!(winners.is_empty());
    writeln!(
        out,
        "\n  Thm-2 reduction: good instance → interval volumes (VOL X + VOL Y = 1):"
    )
    .unwrap();
    for (n, k) in [(6, 2), (8, 5), (10, 3)] {
        let mask: Vec<bool> = (0..n).map(|i| i < k).collect();
        let inst = GoodInstance::new(n, mask).unwrap();
        let (vx, vy) = good_instance_volumes(&inst);
        writeln!(
            out,
            "    n={n} card(B)={k}: VOL(X)={vx} VOL(Y)={vy} (card(B)/n = {k}/{n})"
        )
        .unwrap();
        assert_eq!(&vx + &vy, Rat::one());
        assert_eq!(vx, rat(k as i64, n as i64));
    }
    writeln!(out).unwrap();
}

/// E8 — the variable-independence baseline: exact where it applies, and a
/// measurement of how rarely it applies.
pub fn e8(out: &mut String) {
    writeln!(
        out,
        "E8: variable-independence baseline (Chomicki–Goldin–Kuper)"
    )
    .unwrap();
    // Where it applies, it matches the general engine.
    let mut agree = 0;
    let mut applicable = 0;
    let total = 24;
    for seed in 0..total {
        let mut vars = VarMap::new();
        let (f, vs) = workloads::random_box_union(2, seed, &mut vars);
        if is_variable_independent(&f) {
            applicable += 1;
            let vi = variable_independent_volume(&f, &vs).unwrap();
            let general = volume(&f, &vs, &EvalBudget::unlimited()).unwrap();
            if vi == general {
                agree += 1;
            }
        }
    }
    writeln!(out, "  axis-aligned box unions: applicable {applicable}/{total}, exact-match {agree}/{applicable}").unwrap();
    assert_eq!(agree, applicable);
    // Restrictiveness: random simplex workloads are never variable
    // independent.
    let mut vi_count = 0;
    for seed in 0..total {
        let mut vars = VarMap::new();
        let (f, _) = workloads::random_simplex_formula(2, seed, &mut vars);
        if is_variable_independent(&f) {
            vi_count += 1;
        }
    }
    writeln!(out, "  random simplices (the paper's 'sets that arise most often'): {vi_count}/{total} variable independent").unwrap();
    assert_eq!(vi_count, 0);
    writeln!(
        out,
        "  → the condition excludes the common spatial workloads, as §1 argues.\n"
    )
    .unwrap();
}

/// E9 — QE closure and cost: FM vs LW agreement on random linear queries;
/// Cohen–Hörmander on polynomial sentences.
pub fn e9(out: &mut String) {
    writeln!(
        out,
        "E9: QE closure — FO+LIN outputs stay linear; engines agree"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>7} {:>7} {:>14} {:>10}",
        "seed", "atoms", "quant", "output atoms", "agree"
    )
    .unwrap();
    for seed in 0..8u64 {
        let mut vars = VarMap::new();
        let q = workloads::random_linear_query(2, 2, 6, seed, &mut vars);
        let fm = cqa_qe::fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let lw = cqa_qe::loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        // Agreement checked semantically on a grid.
        let vars_v: Vec<Var> = fm.free_vars().union(&lw.free_vars()).copied().collect();
        let mut agree = true;
        for a in -4..=4 {
            for b in -4..=4 {
                let asg = |v: Var| {
                    let pos = vars_v.iter().position(|&w| w == v).unwrap_or(0);
                    rat(if pos == 0 { a } else { b }, 2)
                };
                if fm.eval(&asg, &[]) != lw.eval(&asg, &[]) {
                    agree = false;
                }
            }
        }
        writeln!(
            out,
            "  {:>6} {:>7} {:>7} {:>14} {:>10}",
            seed,
            q.atom_count(),
            q.quantifier_count(),
            fm.atom_count(),
            agree
        )
        .unwrap();
        assert!(agree);
        assert!(fm.is_quantifier_free());
    }
    writeln!(out, "\n  Cohen–Hörmander decisions on FO+POLY sentences:").unwrap();
    let sentences = [
        ("exists x. x*x = 2", true),
        ("forall x. x*x + 1 > 0", true),
        ("exists x. x*x + 1 < 0", false),
        ("forall x. exists y. y*y*y = x", true),
        ("exists y. forall x. y > x*x", false),
    ];
    for (src, expect) in sentences {
        let (f, _) = cqa_logic::parse_formula(src).unwrap();
        let got = cqa_qe::decide_sentence(&f, &EvalBudget::unlimited()).unwrap();
        writeln!(out, "    {src:<32} -> {got}").unwrap();
        assert_eq!(got, expect);
    }
    writeln!(out).unwrap();
}

/// E10 — Löwner–John relative approximation for convex outputs (§4.3
/// remark): bounds bracket the true volume within the kᵏ band.
pub fn e10(out: &mut String) {
    writeln!(
        out,
        "E10: Löwner–John relative approximation (convex sets, k^k band)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>6} {:>4} {:>12} {:>12} {:>12} {:>8}",
        "seed", "k", "inner", "true", "outer", "in band"
    )
    .unwrap();
    for seed in 0..6u64 {
        let poly = workloads::random_convex_polygon(10, seed);
        if poly.len() < 3 {
            continue;
        }
        let truth = polygon_area(&poly).to_f64();
        let pts: Vec<Vec<f64>> = poly
            .iter()
            .map(|(x, y)| vec![x.to_f64(), y.to_f64()])
            .collect();
        let b = john_volume_bounds(&pts).unwrap();
        let ok = b.inner_volume <= truth * 1.001 && truth <= b.outer_volume * 1.001;
        writeln!(
            out,
            "  {:>6} {:>4} {:>12.3} {:>12.3} {:>12.3} {:>8}",
            seed, 2, b.inner_volume, truth, b.outer_volume, ok
        )
        .unwrap();
        assert!(ok);
    }
    writeln!(out, "  k = 2 → guaranteed ratio k^k = 4 between bounds.\n").unwrap();
}

/// E11 — randomized volume baselines vs the exact engine: accuracy at
/// fixed sample budget.
pub fn e11(out: &mut String) {
    writeln!(
        out,
        "E11: volume baselines on convex polytopes (20k samples each)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>16} {:>10} {:>12} {:>12} {:>12}",
        "body", "exact", "rejection", "hit&run", "worst |rel|"
    )
    .unwrap();
    let bodies: [(&str, &str, &[&str], &[f64]); 3] = [
        (
            "triangle",
            "x >= 0 & y >= 0 & x + y <= 1",
            &["x", "y"],
            &[0.3, 0.3],
        ),
        (
            "unit square",
            "0 <= x & x <= 1 & 0 <= y & y <= 1",
            &["x", "y"],
            &[0.5, 0.5],
        ),
        (
            "3-simplex",
            "x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1",
            &["x", "y", "z"],
            &[0.2, 0.2, 0.2],
        ),
    ];
    for (label, src, names, interior) in bodies {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        let exact = volume(&f, &vs, &EvalBudget::unlimited()).unwrap().to_f64();
        let atoms = collect_atoms(&f);
        let p = HPolyhedron::from_atoms(&atoms, &vs).unwrap();
        let d = vs.len();
        let rej = rejection_volume(&p, &vec![0.0; d], &vec![1.0; d], 20_000, 5);
        let har = hit_and_run_volume(&p, interior, 20_000, 5);
        let rel = ((rej - exact) / exact)
            .abs()
            .max(((har - exact) / exact).abs());
        writeln!(
            out,
            "  {:>16} {:>10.4} {:>12.4} {:>12.4} {:>12.3}",
            label, exact, rej, har, rel
        )
        .unwrap();
        assert!(((rej - exact) / exact).abs() < 0.1);
    }
    writeln!(
        out,
        "  exact engine is the reference; baselines trade accuracy for generality.\n"
    )
    .unwrap();
}

/// E12 — Lemma 4 closure: FO+POLY+SUM aggregate evaluation returns
/// rationals (semi-algebraic singletons) and SAF aggregates work on query
/// outputs.
pub fn e12(out: &mut String) {
    use cqa_agg::{aggregate, Aggregate};
    writeln!(
        out,
        "E12: Lemma 4 — closure and SAF aggregates of FO+POLY+SUM"
    )
    .unwrap();
    let mut db = Database::new();
    db.add_finite_relation(
        "U",
        vec![
            vec![rat(1, 4)],
            vec![rat(1, 2)],
            vec![rat(3, 4)],
            vec![rat(9, 10)],
        ],
    )
    .unwrap();
    db.define("S", &["s"], "0 <= s & s <= 1").unwrap();
    let x = db.vars_mut().intern("x");
    let q = parse_formula_with("U(x) & S(x) & x >= 0.5", db.vars_mut()).unwrap();
    let idty = cqa_poly::MPoly::var(x);
    let rows = [
        ("COUNT", Aggregate::Count, rat(3, 1)),
        ("SUM", Aggregate::Sum, rat(43, 20)),
        ("AVG", Aggregate::Avg, rat(43, 60)),
        ("MIN", Aggregate::Min, rat(1, 2)),
        ("MAX", Aggregate::Max, rat(9, 10)),
    ];
    writeln!(
        out,
        "  query: U(x) ∧ S(x) ∧ x ≥ 1/2 over U = {{1/4, 1/2, 3/4, 9/10}}"
    )
    .unwrap();
    for (name, agg, expect) in rows {
        let got = aggregate(&db, &q, &[x], &idty, agg, &EvalBudget::unlimited()).unwrap();
        writeln!(
            out,
            "    {:<6} = {:<8} (expected {})",
            name,
            got.to_string(),
            expect
        )
        .unwrap();
        assert_eq!(got, expect);
    }
    // Volume of a semi-linear relation through the language (Theorem 3 again,
    // as the closure showcase).
    let mut db2 = Database::new();
    db2.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    let vol = semilinear_volume(&db2, "T").unwrap();
    writeln!(
        out,
        "  VOLUME(T) via the language pipeline: {vol} (exact rational output)\n"
    )
    .unwrap();
    assert_eq!(vol, rat(1, 2));
}

fn collect_atoms(f: &cqa_logic::Formula) -> Vec<cqa_logic::Atom> {
    let mut out = Vec::new();
    f.visit(&mut |g| {
        if let cqa_logic::Formula::Atom(a) = g {
            out.push(a.clone());
        }
    });
    out
}

type Experiment = fn(&mut String);

/// Every experiment of the suite, by id.
const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
];

/// Runs every experiment, returning the combined report.
pub fn run_all() -> String {
    let mut out = String::new();
    for (_, f) in EXPERIMENTS {
        f(&mut out);
    }
    out
}

/// Runs one experiment by id (`"e1"` … `"e12"`); `None` for unknown ids.
pub fn run_one(id: &str) -> Option<String> {
    let (_, f) = EXPERIMENTS.iter().find(|(name, _)| *name == id)?;
    let mut out = String::new();
    f(&mut out);
    Some(out)
}
