//! The four workloads. Each runs the pipeline through its public entry
//! point, checks every iteration's model output, and in a traced run
//! replays it through the timing wrappers to split host time by layer.

mod closed;
mod lanes;
mod open;
mod sweep;

use rtm_trace::{MixedTraceGenerator, WorkloadProfile};

use crate::report::Report;
use crate::{Args, Budget, Layers};

/// Runs the named workload, filling `report`; `root` is the workload's
/// span. A traced run repeats its traced pass until the time budget is
/// spent and reports each per-layer metric's median over the passes.
pub fn run(args: &Args, report: &mut Report, root: usize) -> Result<(), String> {
    type Untraced = fn(&Args, &mut Report, usize);
    type Traced = fn(&Args, &mut Report, usize) -> Layers;
    let (untraced, traced): (Untraced, Traced) = match args.workload.as_str() {
        "sweep" => (sweep::untraced, sweep::traced),
        "closed" => (closed::untraced, closed::traced),
        "open" => (open::untraced, open::traced),
        "lanes" => (lanes::untraced, lanes::traced),
        other => {
            return Err(format!(
                "unknown workload {other:?}: expected sweep, closed, open or lanes"
            ))
        }
    };
    if !args.trace {
        untraced(args, report, root);
        return Ok(());
    }
    let budget = Budget::new(args.seconds);
    let mut passes = Vec::new();
    while budget.more(passes.len()) {
        let span = report
            .spans
            .open(&format!("traced pass {}", passes.len()), Some(root));
        passes.push(traced(args, report, span));
        report.spans.close(span);
    }
    Layers::emit_median(&passes, report);
    Ok(())
}

/// The serving workloads' traffic: four `canneal` tenants whose 100 MB
/// working sets together overflow the 128 MB LLC, so misses and fills
/// occur.
fn canneal_mix(seed: u64) -> MixedTraceGenerator {
    let p = WorkloadProfile::by_name("canneal").expect("canneal is a PARSEC profile");
    MixedTraceGenerator::new(&[p; 4], seed)
}
