//! Quickstart: protect a racetrack stripe against position errors.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's default design (64-domain stripe, 8 ports, SECDED
//! p-ECC, adaptive safe distance), injects an out-of-step shift error,
//! and shows the p-ECC transaction detecting and repairing it.

use hifi_rtm::codes::Verdict;
use hifi_rtm::controller::controller::ShiftPolicy;
use hifi_rtm::core::RtmConfig;
use hifi_rtm::model::shift::ShiftOutcome;
use hifi_rtm::track::bit::Bit;
use hifi_rtm::track::fault::{IdealFaultModel, ScriptedFaultModel};

fn main() {
    // 1. Describe the design. `paper_default()` is the configuration the
    //    paper evaluates; everything is overridable through the builder.
    let config = RtmConfig::paper_default();
    println!("design: {config}");
    println!(
        "budget: +{} code domains, +{} guards, +{} read ports ({:.1}% storage overhead)",
        config.layout().code_domains,
        config.layout().guard_domains,
        config.layout().extra_read_ports,
        config.layout().storage_overhead() * 100.0
    );

    // 2. Write some data through the bit-accurate stripe.
    let mut stripe = config.build_stripe();
    let mut ideal = IdealFaultModel;
    let geometry = *config.geometry();
    stripe.seek_checked(geometry.head_position_for(42), &mut ideal);
    stripe.write_domain(42, Bit::One).expect("write domain 42");
    println!(
        "\nwrote 1 to domain 42 (head position {})",
        stripe.believed_head()
    );

    // 3. A shift suffers a +1 out-of-step error. Without p-ECC this
    //    would silently corrupt every later access; with SECDED p-ECC
    //    the checked transaction spots the phase slip and shifts back.
    let mut faulty = ScriptedFaultModel::new([ShiftOutcome::Pinned { offset: 1 }]);
    let verdict = stripe.shift_checked(-3, &mut faulty, 3);
    println!("\nshift of -3 steps hit a +1 position error...");
    println!("transaction verdict: {verdict}");
    assert_eq!(verdict, Verdict::Clean);
    println!(
        "corrections issued: {} | stripe synchronised: {}",
        stripe.corrections(),
        stripe.is_synchronised()
    );

    // 4. The datum survived.
    stripe.seek_checked(geometry.head_position_for(42), &mut ideal);
    let bit = stripe.read_domain(42).expect("read domain 42");
    println!("\ndomain 42 reads back: {bit}");
    assert_eq!(bit, Bit::One);

    // 5. The same machinery, statistically: the shift controller plans
    //    safe sequences from the measured shift interval.
    let mut controller = config.with_policy(ShiftPolicy::Adaptive).build_controller();
    controller.plan_shift(1, 0); // warm up the interval counter
    for (interval, label) in [(3_000_000u64, "idle bus"), (30, "busy bus")] {
        let plan = controller.plan_shift(7, interval + 3_000_000);
        println!(
            "7-step request after {label}: sequence {:?}, {} cycles, DUE risk {:.2e}",
            plan.sequence,
            plan.latency.count(),
            plan.due_risk
        );
        controller.reset();
        controller.plan_shift(1, 3_000_000);
    }
}
