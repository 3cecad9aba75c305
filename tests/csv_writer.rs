//! The CSV writer's fixed-point formatter and digit writer agree byte for
//! byte with std's `format!("{:.1}")` / `format!("{:.3}")` / `to_string`,
//! and `columns_to_csv` equals a `format!`-based reference render (rows
//! of finite keys in argsort order) on stores with NaN and infinite keys
//! and powers, owned and viewed.

use fingrav::core::profile::{ProfileAxis, ProfilePoint};
use fingrav::core::report::{columns_to_csv, view_to_csv, write_fixed, write_u64};
use fingrav::core::store::{ProfileColumns, ProfileStore, ProfileStoreView};
use fingrav::sim::ComponentPower;
use proptest::prelude::*;

fn fixed(x: f64, precision: usize) -> String {
    let mut out = Vec::new();
    write_fixed(&mut out, x, precision);
    String::from_utf8(out).expect("ASCII")
}

/// Checks one value at every precision the CSV uses, plus the ones
/// around them.
fn check(x: f64) {
    for precision in 0..=4 {
        assert_eq!(
            fixed(x, precision),
            format!("{x:.precision$}"),
            "x = {x:e} (bits {:#018x}), precision {precision}",
            x.to_bits()
        );
    }
}

/// `f64` with a random mantissa and sign and an exponent drawn around the
/// values the fast path rounds (from well below `10^-3` to past `2^53`).
fn near_unit(mantissa: u64, exponent: u64, negative: bool) -> f64 {
    let biased = 1023 - 80 + exponent % 140;
    f64::from_bits(u64::from(negative) << 63 | biased << 52 | mantissa >> 12)
}

proptest! {
    /// Arbitrary bit patterns (NaNs, infinities, subnormals, huge and
    /// tiny magnitudes included) format exactly as std does.
    #[test]
    fn write_fixed_matches_std_on_arbitrary_bits(bits in prop::collection::vec(0u64..=u64::MAX, 256..257)) {
        for b in bits {
            let x = f64::from_bits(b);
            prop_assert_eq!(fixed(x, 1), format!("{x:.1}"));
            prop_assert_eq!(fixed(x, 3), format!("{x:.3}"));
        }
    }

    /// Magnitudes where rounding happens, drawn densely.
    #[test]
    fn write_fixed_matches_std_near_the_rounding_digits(
        mantissas in prop::collection::vec(0u64..=u64::MAX, 256..257),
        exponents in prop::collection::vec(0u64..140, 256..257),
        signs in prop::collection::vec(0u8..2, 256..257),
    ) {
        for ((m, e), s) in mantissas.into_iter().zip(exponents).zip(signs) {
            let x = near_unit(m, e, s == 1);
            prop_assert_eq!(fixed(x, 1), format!("{x:.1}"));
            prop_assert_eq!(fixed(x, 3), format!("{x:.3}"));
        }
    }

    /// The digit writer matches `to_string`.
    #[test]
    fn write_u64_matches_std(values in prop::collection::vec(0u64..=u64::MAX, 256..257), shift in 0u32..64) {
        for v in values {
            let v = v >> shift;
            let mut out = Vec::new();
            write_u64(&mut out, v);
            prop_assert_eq!(String::from_utf8(out).expect("ASCII"), v.to_string());
        }
    }
}

#[test]
fn exact_ties_round_half_to_even() {
    // 0.0625 and 0.25 are exact binary ties at 3 and 1 decimals; 0.0005
    // is not exactly representable and rounds on its true value.
    for x in [0.0625, 0.1875, 0.25, 0.75, 0.0005, 0.0015, 2.5, 1.5, 0.05] {
        check(x);
        check(-x);
    }
    // Dense dyadic grids: every k/2^j holds exact ties at some precision.
    for j in [1u32, 2, 3, 4, 6, 8, 11, 12, 16] {
        let denom = f64::from(1u32 << j);
        for k in -4096i32..=4096 {
            check(f64::from(k) / denom);
        }
    }
    for k in 0..=100_000u32 {
        check(f64::from(k) / 2048.0);
        check(-f64::from(k) / 4096.0);
    }
}

#[test]
fn negative_zero_and_tiny_negatives_keep_their_sign() {
    assert_eq!(fixed(-0.0, 3), "-0.000");
    assert_eq!(fixed(-0.0004, 3), "-0.000");
    assert_eq!(fixed(-0.04, 1), "-0.0");
    assert_eq!(fixed(0.0, 1), "0.0");
    for x in [
        -0.0, -1e-300, -0.0004, -0.0005, -0.04, -0.05, -1e-20, -4.9e-324,
    ] {
        check(x);
    }
}

#[test]
fn subnormals_format_as_std() {
    for bits in [
        1u64,
        2,
        0x0000_0000_ffff_ffff,
        0x000f_ffff_ffff_ffff,
        0x0008_0000_0000_0000,
    ] {
        check(f64::from_bits(bits));
        check(-f64::from_bits(bits));
    }
    check(f64::MIN_POSITIVE);
}

#[test]
fn large_magnitudes_take_the_fallback_exactly() {
    let two53 = 9_007_199_254_740_992.0f64;
    for x in [
        two53 - 1.0,
        two53 - 0.5,
        two53,
        two53 + 2.0,
        2.0 * two53,
        1e20,
        1e300,
        f64::MAX,
        4_503_599_627_370_495.5,
    ] {
        check(x);
        check(-x);
    }
}

#[test]
fn non_finite_values_format_as_std() {
    for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check(x);
    }
    assert_eq!(fixed(f64::NEG_INFINITY, 3), "-inf");
}

#[test]
fn digit_writer_covers_every_length() {
    let mut v = 1u64;
    loop {
        for n in [v - 1, v, v + 1, v.saturating_mul(9)] {
            let mut out = Vec::new();
            write_u64(&mut out, n);
            assert_eq!(String::from_utf8(out).expect("ASCII"), n.to_string());
        }
        match v.checked_mul(10) {
            Some(next) => v = next,
            None => break,
        }
    }
    let mut out = Vec::new();
    write_u64(&mut out, u64::MAX);
    assert_eq!(out, u64::MAX.to_string().as_bytes());
}

#[test]
fn digit_writer_matches_std_across_every_group_boundary() {
    let powers = (0..=19).map(|k| 10u64.pow(k));
    let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
    let mut out = Vec::new();
    for n in (0..2_000_000).chain(edges).chain([4_294_967_295, u64::MAX]) {
        out.clear();
        write_u64(&mut out, n);
        assert_eq!(out, n.to_string().as_bytes(), "n = {n}");
    }
}

#[test]
fn rounding_carries_across_a_group_boundary() {
    // Each rounds up to a power of ten at some precision, so the carry
    // moves into a new leading group of the integer part.
    for x in [999.9995, 999_999.95, 999_999_999.95] {
        check(x);
        check(-x);
    }
}

/// The render the CSV writer replaced: rows in argsort order, finite keys
/// only, every field through `format!`.
fn reference_csv<C: ProfileColumns + ?Sized>(
    store: &C,
    order: &[u32],
    axis: ProfileAxis,
) -> String {
    let mut out = String::from("run,exec_pos,x_ns,total_w,xcd_w,iod_w,hbm_w,rest_w\n");
    for &i in order {
        let i = i as usize;
        let x = match axis {
            ProfileAxis::RunTime => Some(store.run_time_at(i)),
            ProfileAxis::Toi => store.toi_at(i),
        };
        let Some(x) = x.filter(|x| x.is_finite()) else {
            continue;
        };
        let p = store.power_at(i);
        out.push_str(&format!(
            "{},{},{:.1},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
            store.run_at(i),
            store.exec_pos_at(i).unwrap_or(u32::MAX),
            x,
            p.total(),
            p.xcd,
            p.iod,
            p.hbm,
            p.rest
        ));
    }
    out
}

/// Some non-finite keys and powers among ordinary ones.
fn special(k: u32) -> f64 {
    match k % 11 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => (f64::from(k) * 7.3).sin() * 1.0e5,
    }
}

fn special_store(n: u32, salt: u32) -> ProfileStore {
    ProfileStore::from_points((0..n).map(|i| {
        let valid = !(i + salt).is_multiple_of(4);
        let k = i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 7;
        ProfilePoint {
            run: k % 977,
            exec_pos: valid.then_some(i),
            toi_ns: valid.then(|| special(k / 3)),
            run_time_ns: special(k),
            power: ComponentPower::new(special(k / 5), 0.0625, -0.0004, special(k / 7) * 1e-3),
        }
    }))
}

#[test]
fn csv_matches_the_format_reference_with_special_keys_and_powers() {
    for (n, salt) in [(0, 0), (1, 3), (7, 1), (64, 2), (500, 5), (2_000, 9)] {
        let store = special_store(n, salt);
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            let want = reference_csv(&store, &store.argsort_by_axis(axis), axis);
            assert_eq!(columns_to_csv(&store, axis), want, "n = {n}, {axis:?}");
            assert_eq!(view_to_csv(&view, axis), want, "view, n = {n}, {axis:?}");
        }
    }
}
