//! Simulate a PARSEC-like workload on different last-level caches.
//!
//! ```text
//! cargo run --release --example llc_simulation -- canneal 500000
//! ```
//!
//! Drives the same synthetic trace through the paper's Table 4 platform
//! with each LLC design (SRAM, STT-RAM and the protected racetrack
//! variants) and reports execution time, miss behaviour, shift traffic,
//! energy and the implied reliability of the run.

use hifi_rtm::mem::hierarchy::{Hierarchy, LlcChoice};
use hifi_rtm::obs::Obs;
use hifi_rtm::trace::{TraceGenerator, WorkloadProfile};
use hifi_rtm::util::units::format_mttf;

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "canneal".to_string());
    let accesses: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(500_000);

    let Some(profile) = WorkloadProfile::by_name(&workload) else {
        eprintln!("unknown workload {workload}; pick one of:");
        for p in WorkloadProfile::parsec() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(2);
    };
    println!(
        "workload {} ({} accesses, working set {} MB, {})",
        profile.name,
        accesses,
        profile.working_set_bytes >> 20,
        if profile.capacity_sensitive {
            "capacity sensitive"
        } else {
            "capacity insensitive"
        }
    );
    println!();
    println!(
        "{:<22} {:>10} {:>9} {:>10} {:>11} {:>12} {:>12}",
        "LLC", "cycles", "LLC miss", "shifts", "shift cyc", "dyn E (mJ)", "DUE MTTF"
    );

    for choice in LlcChoice::ALL {
        let mut sys = Hierarchy::new(choice, Obs::default());
        let mut gen = TraceGenerator::new(profile, 42);
        let r = sys.run(&mut gen, accesses);
        println!(
            "{:<22} {:>10} {:>8.1}% {:>10} {:>11} {:>12.4} {:>12}",
            choice.to_string(),
            r.cycles,
            r.llc.cache.miss_rate() * 100.0,
            r.llc.shift_ops,
            r.shift_cycles,
            r.llc_dynamic_energy().as_millijoules(),
            format_mttf(r.due_mttf()),
        );
    }

    println!(
        "\nreading the table: the racetrack LLC holds 32x the SRAM capacity at the\n\
         same area, so capacity-sensitive workloads trade a few percent of shift\n\
         latency for far fewer DRAM round-trips; the p-ECC columns show what the\n\
         position-error protection costs and buys."
    );
}
