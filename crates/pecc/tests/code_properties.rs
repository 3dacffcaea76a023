//! Property tests for the cyclic p-ECC code.

use rtm_codes::{PeccCode, Verdict};
use rtm_util::check::{run_cases, Gen};

/// Windows are unique within a period for every strength.
#[test]
fn windows_unique() {
    run_cases(16, |g: &mut Gen| {
        let m = g.u32_in(0, 7);
        let code = PeccCode::new(m);
        let p = code.period();
        for i in 0..p {
            for j in (i + 1)..p {
                assert_ne!(
                    code.expected_window(i as i64),
                    code.expected_window(j as i64),
                    "m={m} phases {i} and {j} collide"
                );
            }
        }
    });
}

/// decode(expected, window(expected - e)) recovers e (mod P) with
/// the documented correctable/uncorrectable split.
#[test]
fn decode_round_trip() {
    run_cases(256, |g: &mut Gen| {
        let m = g.u32_in(0, 5);
        let expected = g.i64_in(-100, 99);
        let e = g.i64_in(-15, 14);
        let code = PeccCode::new(m);
        let observed = code.expected_window(expected - e);
        let verdict = code.decode(expected, &observed);
        // decode can only see e modulo the period.
        let p = code.period() as i64;
        let d = e.rem_euclid(p);
        let want = if d == 0 {
            Verdict::Clean
        } else if d <= m as i64 {
            Verdict::Correctable(d as i32)
        } else if d == m as i64 + 1 {
            Verdict::Uncorrectable
        } else {
            Verdict::Correctable((d - p) as i32)
        };
        assert_eq!(verdict, want);
    });
}

/// The code pattern is periodic and balanced: exactly half ones in
/// any whole number of periods.
#[test]
fn pattern_periodic_and_balanced() {
    run_cases(64, |g: &mut Gen| {
        let m = g.u32_in(0, 5);
        let periods = g.usize_in(1, 4);
        let code = PeccCode::new(m);
        let p = code.period() as usize;
        let pat = code.pattern(0, p * periods);
        for (i, &b) in pat.iter().enumerate() {
            assert_eq!(b, pat[i % p]);
        }
        let ones = pat.iter().filter(|b| b.to_bool() == Some(true)).count();
        assert_eq!(ones, p * periods / 2);
    });
}

/// classify_offset is periodic with period P.
#[test]
fn classification_is_periodic() {
    run_cases(256, |g: &mut Gen| {
        let m = g.u32_in(0, 4);
        let e = g.i32_in(-20, 19);
        let code = PeccCode::new(m);
        let p = code.period() as i32;
        assert_eq!(code.classify_offset(e), code.classify_offset(e + p));
        assert_eq!(code.classify_offset(e), code.classify_offset(e - p));
    });
}

/// A corrected verdict, applied as a back-shift, always lands on a
/// clean verdict (single-error closure).
#[test]
fn correction_closes() {
    run_cases(256, |g: &mut Gen| {
        let m = g.u32_in(1, 4);
        let e = g.i32_in(-4, 4);
        let code = PeccCode::new(m);
        if let Verdict::Correctable(k) = code.classify_offset(e) {
            // The residual offset after shifting back by k.
            let residual = e - k;
            // Aliased corrections leave a multiple of the period.
            assert_eq!(code.classify_offset(residual), Verdict::Clean);
        }
    });
}
