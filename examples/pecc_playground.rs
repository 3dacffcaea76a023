//! Visual walkthrough of the p-ECC cyclic codes — a live version of the
//! paper's Figs. 5, 6 and 8.
//!
//! ```text
//! cargo run --release --example pecc_playground
//! ```
//!
//! Prints the code patterns, walks a stripe through shifts while
//! showing the tap windows, and demonstrates how each error magnitude
//! is classified (including the aliasing blind spots).

use hifi_rtm::codes::{PeccCode, Verdict};
use hifi_rtm::model::shift::ShiftOutcome;
use hifi_rtm::pecc::layout::{PeccLayout, ProtectionKind};
use hifi_rtm::pecc::protected::ProtectedStripe;
use hifi_rtm::track::fault::ScriptedFaultModel;
use hifi_rtm::track::geometry::StripeGeometry;

fn bits_to_string(bits: &[hifi_rtm::track::bit::Bit]) -> String {
    bits.iter().map(|b| b.to_string()).collect()
}

fn main() {
    // --- code patterns (Figs. 5 and 6) --------------------------------
    println!("p-ECC cyclic code patterns:\n");
    for m in 0..=3u32 {
        let code = PeccCode::new(m);
        let pattern = bits_to_string(&code.pattern(0, 16));
        let name = match m {
            0 => "SED    (detect ±1)",
            1 => "SECDED (correct ±1, detect ±2)",
            _ => "m-step",
        };
        println!(
            "  m={m} {name:<32} period {:>2}, window {:>2}: {pattern}...",
            code.period(),
            code.window()
        );
    }

    // --- the SECDED cycle of Fig. 6(e) ---------------------------------
    println!("\nSECDED tap windows while shifting right (the 11 -> 01 -> 00 -> 10 cycle):\n");
    let code = PeccCode::secded();
    for s in 0..5i64 {
        let window = bits_to_string(&code.expected_window(-s));
        println!("  after {s} right steps the taps read: {window}");
    }

    // --- error classification, including blind spots -------------------
    println!("\nhow SECDED classifies each physical offset:\n");
    for e in -4i32..=4 {
        let verdict = code.classify_offset(e);
        let note = match (e, verdict) {
            (0, _) => "correct shift",
            (_, Verdict::Correctable(_)) if e.abs() == 1 => "repaired by a back-shift",
            (_, Verdict::Uncorrectable) => "raises a DUE",
            (_, Verdict::Clean) => "ALIASED: silent corruption (period-4 blind spot)",
            (_, Verdict::Correctable(_)) => "MIS-CORRECTED: silent corruption",
        };
        println!("  offset {e:+}: {verdict:<18} {note}");
    }

    // --- a physical walk with a fault ----------------------------------
    println!("\nphysical stripe walk (64 domains, 8 ports, SECDED):\n");
    let geometry = StripeGeometry::paper_default();
    let mut stripe = ProtectedStripe::new(geometry, ProtectionKind::SECDED).expect("layout");
    println!(
        "  layout: {}",
        PeccLayout::new(geometry, ProtectionKind::SECDED).expect("layout")
    );
    let mut faults = ScriptedFaultModel::new([
        ShiftOutcome::Pinned { offset: 0 },
        ShiftOutcome::Pinned { offset: 1 },
    ]);
    for step in 0..2 {
        stripe.shift(2, &mut faults);
        let taps = bits_to_string(&stripe.read_taps());
        let verdict = stripe.check();
        println!(
            "  shift #{step}: believed head {}, actual {}, taps {}, verdict {}",
            stripe.believed_head(),
            stripe.actual_head(),
            taps,
            verdict
        );
        if let Verdict::Correctable(k) = verdict {
            stripe.correct(k, &mut faults);
            println!(
                "    corrected by shifting back {k:+}: verdict now {}, synchronised {}",
                stripe.check(),
                stripe.is_synchronised()
            );
        }
    }

    // --- p-ECC-O discipline ---------------------------------------------
    println!("\np-ECC-O (overhead region) forces 1-step shift-and-write operations:");
    let o = PeccLayout::new(geometry, ProtectionKind::SECDED_O).expect("layout");
    println!("  {} | max shift per op: {}", o, o.max_shift_per_op);
}
