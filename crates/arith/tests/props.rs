//! Property-based tests for the exact arithmetic substrate.

use cqa_arith::{Int, Rat};
use proptest::prelude::*;

fn int_strategy() -> impl Strategy<Value = Int> {
    // Mix of small and multi-limb values built from up to 4 random i64 factors,
    // and values within a few units of ±2^k at the limb and i64 boundaries,
    // where the inline representation hands over to the limb one.
    prop_oneof![
        prop::collection::vec(any::<i64>(), 1..4)
            .prop_map(|vs| vs.into_iter().fold(Int::one(), |acc, v| acc * Int::from(v))),
        any::<i64>().prop_map(Int::from),
        (0usize..5, -3i64..=3, any::<bool>()).prop_map(|(k, d, negative)| {
            let v = Int::one().shl([31, 32, 63, 64, 127][k]) + Int::from(d);
            if negative {
                -v
            } else {
                v
            }
        }),
    ]
}

fn rat_strategy() -> impl Strategy<Value = Rat> {
    (any::<i64>(), 1..10_000i64).prop_map(|(n, d)| Rat::new(Int::from(n), Int::from(d)))
}

proptest! {
    #[test]
    fn int_add_commutes(a in int_strategy(), b in int_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn int_add_associates(a in int_strategy(), b in int_strategy(), c in int_strategy()) {
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
    }

    #[test]
    fn int_mul_distributes(a in int_strategy(), b in int_strategy(), c in int_strategy()) {
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn int_sub_inverts_add(a in int_strategy(), b in int_strategy()) {
        prop_assert_eq!((&a + &b) - &b, a);
    }

    #[test]
    fn int_div_rem_identity(a in int_strategy(), b in int_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&q * &b + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder sign matches the dividend (truncated division).
        prop_assert!(r.is_zero() || r.signum() == a.signum());
    }

    #[test]
    fn int_display_parse_roundtrip(a in int_strategy()) {
        let s = a.to_string();
        let back: Int = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn int_gcd_divides_both(a in int_strategy(), b in int_strategy()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn int_cmp_consistent_with_sub(a in int_strategy(), b in int_strategy()) {
        let diff = &a - &b;
        prop_assert_eq!(a.cmp(&b), diff.cmp(&Int::zero()));
    }

    #[test]
    fn rat_field_axioms(a in rat_strategy(), b in rat_strategy(), c in rat_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn rat_div_inverts_mul(a in rat_strategy(), b in rat_strategy()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((&a * &b) / &b, a);
        // `recip` moves only the sign: it is the reduced inverse.
        prop_assert_eq!(b.recip(), Rat::new(b.denom().clone(), b.numer().clone()));
        prop_assert_eq!(b.recip().recip(), b);
    }

    #[test]
    fn rat_normalized(a in rat_strategy()) {
        prop_assert!(a.denom().is_positive());
        prop_assert!(a.numer().gcd(a.denom()).is_one() || a.is_zero());
    }

    #[test]
    fn rat_display_parse_roundtrip(a in rat_strategy()) {
        let s = a.to_string();
        let back: Rat = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in rat_strategy()) {
        let f = Rat::from_int(a.floor());
        let c = Rat::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(&c - &f <= Rat::one());
    }

    #[test]
    fn rat_to_f64_close(n in -1_000_000i64..1_000_000, d in 1i64..1_000_000) {
        let r = Rat::new(Int::from(n), Int::from(d));
        let expect = n as f64 / d as f64;
        prop_assert!((r.to_f64() - expect).abs() <= expect.abs() * 1e-14 + 1e-300);
    }
}
