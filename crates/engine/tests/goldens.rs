//! Literal goldens for the warm Monte Carlo path: the sample stream every
//! sampled answer is drawn from, and the answers and lane counters of one
//! `EXEC` per warm region shape whose constants are not dyadic. The values
//! were recorded from the guarded per-lane sweep; any change to how the
//! sweep is certified, how the columns are filled or how the box prefilter
//! compacts lanes must leave every one of them as it is.

use cqa_approx::mc::mc_volume_in_unit_box;
use cqa_approx::sample::Witness;
use cqa_arith::rat;
use cqa_core::Database;
use cqa_engine::{Engine, EngineConfig, EngineStats, MC_SEED};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{parse_formula_with, Batch, BATCH_LANES};

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The first 4 096 coordinates `Witness::new(MC_SEED)` puts into a batch
/// of `dim` point columns after one parameter slot, read back twice: column
/// by column within each batch (where the fill put them) and lane by lane
/// (the order they were drawn in). Before the first fill the point columns
/// hold `1/3`, so they are inexact until the fill makes them exact again.
fn draws(dim: usize) -> (Vec<f64>, Vec<f64>) {
    const DRAWS: usize = 4_096;
    let mut w = Witness::new(MC_SEED);
    let mut batch = Batch::new(dim + 1);
    batch.set_len(BATCH_LANES);
    for slot in 1..=dim {
        batch.set_col_rats(slot, &vec![rat(1, 3); BATCH_LANES]);
    }
    let (mut by_column, mut by_lane) = (Vec::new(), Vec::new());
    while by_lane.len() < DRAWS {
        w.fill_unit_columns(&mut batch, 1, dim);
        for slot in 1..=dim {
            by_column.extend((0..batch.len()).map(|lane| batch.value(slot, lane)));
        }
        for lane in 0..batch.len() {
            by_lane.extend((1..=dim).map(|slot| batch.value(slot, lane)));
        }
    }
    by_column.truncate(DRAWS);
    by_lane.truncate(DRAWS);
    (by_column, by_lane)
}

#[test]
fn the_sample_stream_is_pinned() {
    let want: [u64; 5] = [
        0x9f5f_7ae4_549b_4ca4,
        0xf710_3f6f_42ae_3a40,
        0x1bc5_5cee_741c_1cf8,
        0x3cda_80ad_34d1_7088,
        0xfbe7_9f28_8033_8b66,
    ];
    let got: Vec<u64> = (1..=5).map(|dim| fnv(draws(dim).0)).collect();
    assert_eq!(got, want, "{got:#018x?}");
    // Draws are lane-major: every dimension reads the same stream.
    let stream = draws(1).1;
    for dim in 2..=5 {
        assert!(draws(dim).1 == stream, "dim {dim}");
    }
}

#[test]
fn warm_answers_with_non_dyadic_constants_are_pinned() {
    let dist2 = "(x - 7/16)*(x - 7/16) + (y - 9/16)*(y - 9/16)";
    let regions = [
        ("disk", format!("{dist2} <= 1/36")),
        ("annulus", format!("{dist2} <= 1/49 & {dist2} >= 1/196")),
        (
            "boxed",
            format!("{dist2} <= 1/100 & 5/16 <= x & x <= 9/16 & 7/16 <= y & y <= 11/16"),
        ),
        (
            "half",
            format!("{dist2} + (z - 8/16)*(z - 8/16) <= 1/36 & z <= 8/16"),
        ),
        ("fifth", format!("{dist2} <= 1/25")),
    ];
    // (header, [fast, exact, box-skipped] lanes of that EXEC)
    let want: [(&str, [u64; 3]); 5] = [
        (
            "OK EXEC disk status=approx value=774/8831 eps=0.01 delta=0.01 samples=26493 \
             reason=nonlinear cache=miss steps=0",
            [26_493, 0, 0],
        ),
        (
            "OK EXEC annulus status=approx value=428/8831 eps=0.01 delta=0.01 samples=26493 \
             reason=nonlinear cache=miss steps=0",
            [26_493, 0, 0],
        ),
        (
            "OK EXEC boxed status=approx value=838/26493 eps=0.01 delta=0.01 samples=26493 \
             reason=nonlinear cache=miss steps=0",
            [1684, 0, 24_809],
        ),
        (
            "OK EXEC half status=approx value=84/8831 eps=0.01 delta=0.01 samples=26493 \
             reason=nonlinear cache=miss steps=0",
            [13_237, 0, 13_256],
        ),
        (
            "OK EXEC fifth status=approx value=3311/26493 eps=0.01 delta=0.01 samples=26493 \
             reason=nonlinear cache=miss steps=0",
            [26_493, 0, 0],
        ),
    ];
    let e = Engine::new(EngineConfig::default());
    let mut s = e.open_session();
    let counters = |e: &Engine| {
        let st = &e.stats;
        [
            EngineStats::get(&st.batch_fast_lanes),
            EngineStats::get(&st.batch_exact_lanes),
            EngineStats::get(&st.absint_box_skipped_lanes),
        ]
    };
    let mut got = Vec::new();
    for (name, src) in &regions {
        assert!(e.prepare(&mut s, name, src).is_ok(), "{name}");
        let before = counters(&e);
        let header = e.exec(&mut s, name, Some(0.01), Some(0.01)).header;
        let after = counters(&e);
        got.push((header, [0, 1, 2].map(|i| after[i] - before[i])));
    }
    for ((header, lanes), (want_header, want_lanes)) in got.iter().zip(want) {
        assert_eq!(
            (header.as_str(), *lanes),
            (want_header, want_lanes),
            "{got:#?}"
        );
    }
}

/// There is one Monte Carlo: the library's `mc_volume_in_unit_box` over
/// `Witness::new(MC_SEED)`, at the sample count an `EXEC` at ε = δ = 0.01
/// draws, gives each warm region above the `value=` of its `EXEC`, on one
/// thread and on two.
#[test]
fn the_library_estimator_answers_what_the_wire_does() {
    let dist2 = "(x - 7/16)*(x - 7/16) + (y - 9/16)*(y - 9/16)";
    let regions = [
        ("disk", format!("{dist2} <= 1/36")),
        ("annulus", format!("{dist2} <= 1/49 & {dist2} >= 1/196")),
        (
            "boxed",
            format!("{dist2} <= 1/100 & 5/16 <= x & x <= 9/16 & 7/16 <= y & y <= 11/16"),
        ),
        (
            "half",
            format!("{dist2} + (z - 8/16)*(z - 8/16) <= 1/36 & z <= 8/16"),
        ),
        ("fifth", format!("{dist2} <= 1/25")),
    ];
    let (eps, delta) = (0.01, 0.01);
    let samples = Engine::sample_count(eps, delta).unwrap();
    let e = Engine::new(EngineConfig::default());
    let mut s = e.open_session();
    for (name, src) in &regions {
        assert!(e.prepare(&mut s, name, src).is_ok(), "{name}");
        let header = e.exec(&mut s, name, Some(eps), Some(delta)).header;
        let wire = header
            .split_whitespace()
            .find(|t| t.starts_with("value="))
            .unwrap_or_else(|| panic!("{header}"));
        // The engine's point columns are the free variables by name.
        let mut db = Database::new();
        let f = parse_formula_with(src, db.vars_mut()).unwrap();
        let mut vars: Vec<_> = f.free_vars().into_iter().collect();
        vars.sort_by_key(|v| db.vars().name(*v));
        for threads in [1, 2] {
            let mut w = Witness::new(MC_SEED);
            let budget = EvalBudget::unlimited();
            let v =
                mc_volume_in_unit_box(&db, &f, &vars, samples, &mut w, threads, &budget).unwrap();
            assert_eq!(format!("value={v}"), wire, "{name}, threads = {threads}");
        }
    }
}

/// The exact `value=` of one `EXEC` per shape of `cqa-e2e`'s `cold_lin`
/// workload, recorded from the inclusion–exclusion volume the sweep
/// replaced: a 1-D band under a chained-∃ core, a 1-D union of two
/// overlapping intervals, the 1-D and 2-D simplex projections, and a 2-D
/// union of two overlapping boxes.
#[test]
fn exact_volumes_of_the_cold_lin_shapes_are_pinned() {
    let program = "rel B00(x) := 9/67 <= x & x <= 37/67\n\
                   rel P00(x, y) := 9/67 <= x & x <= 40/67 & 20/67 <= y & y <= 50/67\n\
                   rel P01(x, y) := 12/67 <= x & x <= 45/67 & 17/67 <= y & y <= 60/67\n";
    let queries = [
        (
            "band",
            "(exists a b. x - 2 < a & a < x + 2 & a - b < 2 & b - a < 2 \
             & x - 2 < b & b < x + 2 & a > 0 & b < 1) & B00(x)",
            "28/67",
        ),
        (
            "intervals",
            "(10/67 <= x & x <= 41/67) | (35/67 <= x & x <= 55/67)",
            "45/67",
        ),
        (
            "simplex1",
            "exists u v. u >= 5*x & v >= 0 & x >= 0 & u + 6*v <= 1",
            "1/5",
        ),
        (
            "simplex2",
            "exists u v. u >= 0 & v >= 0 & x >= 0 & y >= 0 & 5*x + 6*y + u + v <= 1",
            "1/60",
        ),
        ("boxes", "P00(x, y) | P01(x, y)", "1509/4489"),
    ];
    let e = Engine::new(EngineConfig::default());
    let mut s = e.open_session();
    assert!(e.load(&mut s, program).is_ok());
    for (name, src, value) in queries {
        assert!(e.prepare(&mut s, name, src).is_ok(), "{name}");
        let header = e.exec(&mut s, name, None, None).header;
        let want = format!("status=exact value={value} ");
        assert!(header.contains(&want), "{name}: {header}");
    }
}

/// The full `EXEC` reply of three of `cqa-e2e`'s `cold_poly` lens queries
/// (E15: ∃v ∃w. x² + v² + w² ≤ R ∧ v ≥ x² − C ∧ w ≤ v), prepared after a
/// program of the benchmark's relation shapes and variable names, so the
/// variables are numbered as they are there. Hörmander eliminates each
/// one; `value=` is the Monte Carlo estimate over its output and `steps=`
/// the elimination's budget steps, so a change to either the output
/// formula or the step count fails here.
#[test]
fn lens_replies_of_the_cold_poly_workload_are_pinned() {
    let program = "rel B00(x0) := 8/67 <= x0 & x0 <= 33/67\n\
                   rel H001(x0) := x0 <= 40/67\n\
                   rel H002(x0) := x0 <= 51/67\n\
                   rel H003(x0) := x0 <= 37/67\n\
                   rel U00(z0) := (9/67 <= z0 & z0 <= 20/67) | (33/67 <= z0 & z0 <= 50/67)\n\
                   rel H005(x0) := x0 <= 44/67\n\
                   rel P00(x0, y0) := 9/67 <= x0 & x0 <= 40/67 & 20/67 <= y0 & y0 <= 50/67\n\
                   sum T0(w) := true | END[y. U00(y)] ; xout . xout = w\n";
    let lens = |j: u64| {
        let (r, c) = (5 + j % 4, 2 + j / 4);
        let (v, w) = (format!("p{}0", 18 + j), format!("q{}0", 18 + j));
        format!(
            "exists {v}. exists {w}. (x0*x0 + {v}*{v} + {w}*{w} <= {r}/8 \
             & {v} >= x0*x0 - {c}/8 & {w} <= {v})"
        )
    };
    let want = [
        (
            0,
            "OK EXEC lens0 status=approx value=553/739 eps=0.05 delta=0.05 samples=739 \
             reason=nonlinear cache=miss steps=611",
        ),
        (
            7,
            "OK EXEC lens7 status=approx value=672/739 eps=0.05 delta=0.05 samples=739 \
             reason=nonlinear cache=miss steps=611",
        ),
        (
            14,
            "OK EXEC lens14 status=approx value=682/739 eps=0.05 delta=0.05 samples=739 \
             reason=nonlinear cache=miss steps=611",
        ),
    ];
    let e = Engine::new(EngineConfig::default());
    let mut s = e.open_session();
    assert!(e.load(&mut s, program).is_ok());
    let mut got = Vec::new();
    for (j, _) in want {
        let name = format!("lens{j}");
        assert!(e.prepare(&mut s, &name, &lens(j)).is_ok(), "{name}");
        got.push(e.exec(&mut s, &name, None, None).header);
    }
    let want: Vec<&str> = want.iter().map(|(_, line)| *line).collect();
    assert_eq!(got, want);
}
