//! Property-based tests over the core invariants, spanning crates.

use hifi_rtm::codes::{PeccCode, Verdict};
use hifi_rtm::controller::safety::SafetyBudget;
use hifi_rtm::controller::sequence::SequenceTable;
use hifi_rtm::mem::cache::{AccessKind, Cache};
use hifi_rtm::model::rates::{mttf_for_error_rate, OutOfStepRates};
use hifi_rtm::model::shift::ShiftOutcome;
use hifi_rtm::model::sts::StsTiming;
use hifi_rtm::pecc::layout::ProtectionKind;
use hifi_rtm::pecc::protected::ProtectedStripe;
use hifi_rtm::track::bit::Bit;
use hifi_rtm::track::fault::ScriptedFaultModel;
use hifi_rtm::track::geometry::StripeGeometry;
use hifi_rtm::track::stripe::SegmentedStripe;
use hifi_rtm::util::check::{run_cases, Gen};

/// Error-free shifting is reversible for any data pattern and any
/// in-range seek schedule: the stripe's data region is preserved.
#[test]
fn prop_error_free_seeks_preserve_data() {
    run_cases(64, |g: &mut Gen| {
        let data = g.vec_of(64, 64, |g| g.bool());
        let seeks = g.vec_of(1, 19, |g| g.usize_in(0, 7));
        let geometry = StripeGeometry::paper_default();
        let bits: Vec<Bit> = data.iter().copied().map(Bit::from).collect();
        let mut stripe = SegmentedStripe::with_data(geometry, &bits);
        for &s in &seeks {
            stripe.seek(s).unwrap();
        }
        assert_eq!(stripe.read_all().unwrap(), bits);
    });
}

/// For every strength m and every offset |e| <= m, the code
/// corrects exactly e; |e| = m+1 is flagged uncorrectable.
#[test]
fn prop_code_corrects_to_strength() {
    run_cases(256, |g: &mut Gen| {
        let m = g.u32_in(0, 5);
        let e = g.i32_in(-7, 7);
        let code = PeccCode::new(m);
        let verdict = code.classify_offset(e);
        if e == 0 {
            assert_eq!(verdict, Verdict::Clean);
        } else if e.unsigned_abs() <= m {
            assert_eq!(verdict, Verdict::Correctable(e));
        } else if e.unsigned_abs() == m + 1 {
            assert_eq!(verdict, Verdict::Uncorrectable);
        }
        // Beyond m+1 the verdict may alias, but it must never claim a
        // correction larger than the strength.
        if let Verdict::Correctable(k) = verdict {
            assert!(k.unsigned_abs() <= m);
        }
    });
}

/// The physical stripe and the phase arithmetic always agree: an
/// injected offset e is decoded exactly as classify_offset says,
/// from any starting head position reachable without data loss.
#[test]
fn prop_physical_decode_matches_classification() {
    run_cases(256, |g: &mut Gen| {
        let start = g.usize_in(0, 7);
        let delta = g.i64_in(1, 3);
        let e = g.i32_in(-2, 2);
        let geometry = StripeGeometry::paper_default();
        let mut stripe = ProtectedStripe::new(geometry, ProtectionKind::SECDED).unwrap();
        let mut ideal = hifi_rtm::track::fault::IdealFaultModel;
        stripe.seek_checked(start, &mut ideal);
        // Keep the faulty shift inside the head range.
        let delta = if start as i64 + delta > 7 {
            -delta
        } else {
            delta
        };
        let mut faults = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: e }]);
        stripe.shift(delta, &mut faults);
        // The fault model expresses the offset in the direction of
        // travel; the decoder reports it in absolute head coordinates.
        let absolute = delta.signum() as i32 * e;
        let code = PeccCode::secded();
        assert_eq!(stripe.check(), code.classify_offset(absolute));
    });
}

/// Every safe sequence covers its distance, respects the part cap,
/// and meets its own interval threshold's risk bound.
#[test]
fn prop_sequences_cover_and_bound() {
    run_cases(128, |g: &mut Gen| {
        let distance = g.u32_in(1, 7);
        let interval = g.u64_in(0, 9_999);
        let budget = SafetyBudget::paper_secded();
        let table = SequenceTable::build(&budget, &StsTiming::paper(), 7, 7);
        let opt = table.select(distance, interval);
        assert_eq!(opt.sequence.iter().sum::<u32>(), distance);
        assert!(opt.sequence.iter().all(|&p| (1..=7).contains(&p)));
        // Risk equals the sum of per-part residuals.
        let direct: f64 = opt.sequence.iter().map(|&d| budget.residual_rate(d)).sum();
        assert!((opt.risk - direct).abs() <= direct * 1e-12);
        // The safest option is never riskier than the selected one.
        assert!(table.safest(distance).risk <= opt.risk * (1.0 + 1e-12));
    });
}

/// Cache conservation: hits + misses == accesses, writebacks never
/// exceed misses, and re-access of the most recent line always hits.
#[test]
fn prop_cache_conservation() {
    run_cases(64, |g: &mut Gen| {
        let addrs = g.vec_of(1, 299, |g| g.u64_in(0, (1u64 << 20) - 1));
        let mut cache = Cache::new(16 << 10, 4, 64);
        for (i, &a) in addrs.iter().enumerate() {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            cache.access(a, kind);
        }
        let s = *cache.stats();
        assert_eq!(s.hits + s.misses, addrs.len() as u64);
        assert!(s.writebacks <= s.misses);
        // MRU property.
        let last = *addrs.last().unwrap();
        assert!(cache.access(last, AccessKind::Read).is_hit());
    });
}

/// MTTF is monotone: more error rate or more intensity never helps.
#[test]
fn prop_mttf_monotone() {
    run_cases(256, |g: &mut Gen| {
        let rate = 10f64.powf(g.f64_in(-24.0, -2.0));
        let intensity = 10f64.powf(g.f64_in(3.0, 11.0));
        let bump = g.f64_in(1.1, 10.0);
        let base = mttf_for_error_rate(rate, intensity).as_secs();
        assert!(mttf_for_error_rate(rate * bump, intensity).as_secs() < base);
        assert!(mttf_for_error_rate(rate, intensity * bump).as_secs() < base);
    });
}

/// Rate-table sanity for every distance/k in (extrapolated) range:
/// probabilities are in [0, 1], monotone in distance, and decay
/// catastrophically in k.
#[test]
fn prop_rate_table_sanity() {
    run_cases(256, |g: &mut Gen| {
        let d = g.u32_in(1, 15);
        let k = g.u32_in(1, 4);
        let rates = OutOfStepRates::paper_calibration();
        let r = rates.rate(d, k);
        assert!((0.0..=1.0).contains(&r));
        if d < 15 {
            assert!(rates.rate(d + 1, k) >= r);
        }
        if k < 4 && r > 0.0 {
            assert!(rates.rate(d, k + 1) < r);
        }
    });
}

/// Bit packing round-trips for arbitrary lengths.
#[test]
fn prop_bit_pack_round_trip() {
    run_cases(256, |g: &mut Gen| {
        let data = g.vec_of(0, 129, |g| g.bool());
        let bits: Vec<Bit> = data.iter().copied().map(Bit::from).collect();
        let bytes = Bit::pack(&bits);
        assert_eq!(Bit::unpack(&bytes, bits.len()), bits);
    });
}

/// STS latency formula: cycles are positive, monotone in distance,
/// and amortisation holds at scale (doubling the distance never
/// doubles the cost; per-step cost is bounded by the 1-step cost).
/// Exact per-step monotonicity is broken by ceil() quantisation at
/// a few boundaries, so the property compares across octaves.
#[test]
fn prop_sts_latency_amortises() {
    run_cases(64, |g: &mut Gen| {
        let n = g.u32_in(1, 63);
        let t = StsTiming::paper();
        let c_n = t.shift_cycles(n).count();
        assert!(c_n >= 3);
        assert!(t.shift_cycles(n + 1).count() >= c_n);
        let c_2n = t.shift_cycles(2 * n).count();
        assert!(c_2n < 2 * c_n, "doubling must amortise stage 2");
        let per_1 = t.shift_cycles(1).count() as f64;
        assert!(c_n as f64 / n as f64 <= per_1 + 1e-12);
    });
}
