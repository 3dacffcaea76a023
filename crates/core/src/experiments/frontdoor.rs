//! Front-door experiment: multi-tenant admission control at the scale
//! the paper motivates ("heavy traffic from millions of users").
//!
//! Each cell replays one ≥10k-tenant open-loop arrival sequence from
//! [`rtm_front`] through the serving simulator under one
//! [`SchedPolicy`], with per-tenant token-bucket admission deciding
//! admit / defer / shed *before* the bounded per-group queues can
//! backpressure. The report compares policies on per-class latency
//! percentiles, shed/deferral behaviour and cross-class fairness.
//!
//! Cells are independent simulations fanned out over the `rtm-par`
//! pool and folded back in strict policy order, so the sweep is
//! bit-identical for any `--threads` setting — the admission decision
//! stream itself is a pure function of the [`FrontConfig`].

use super::render_table;
use rtm_front::{run_front, ClassSpec, FrontConfig, FrontResult};
use rtm_obs::Obs;
use rtm_serve::SchedPolicy;

/// Front-door sweep parameters.
#[derive(Debug, Clone)]
pub struct FrontSettings {
    /// Simulated tenant sessions.
    pub tenants: u32,
    /// SLO class mix (weighted round-robin over tenants).
    pub classes: ClassSpec,
    /// Total requests offered across all tenants.
    pub offered: u64,
    /// RNG seed base.
    pub seed: u64,
}

impl FrontSettings {
    /// Full-fidelity settings: 10k tenants, 12 requests per tenant.
    pub fn full() -> Self {
        Self::for_tenants(10_000, false)
    }

    /// Reduced offered load for unit tests and `--quick` runs (the
    /// tenant count stays at 10k so the scale claim is still tested).
    pub fn quick() -> Self {
        Self::for_tenants(10_000, true)
    }

    /// Settings for an explicit tenant count; `quick` trims the
    /// offered load to 4 requests per tenant (vs 12 at full fidelity).
    pub fn for_tenants(tenants: u32, quick: bool) -> Self {
        let per_tenant = if quick { 4 } else { 12 };
        Self {
            tenants,
            classes: ClassSpec::balanced(),
            offered: (tenants as u64).saturating_mul(per_tenant).max(24_000),
            seed: 2015,
        }
    }

    /// The [`FrontConfig`] these settings describe.
    pub fn config(&self) -> FrontConfig {
        FrontConfig::new(self.tenants)
            .with_classes(self.classes.clone())
            .with_seed(self.seed)
            .with_offered(self.offered)
    }
}

/// One cell of the front-door sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontCell {
    /// Scheduling policy under test.
    pub policy: SchedPolicy,
    /// Full admission + serving statistics.
    pub result: FrontResult,
}

/// Results of the policy sweep, in [`SchedPolicy::ALL`] order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrontSweep {
    /// One cell per scheduling policy.
    pub cells: Vec<FrontCell>,
}

impl FrontSweep {
    /// Runs the sweep on `threads` workers, with every cell's
    /// serving simulation recording into `obs`; results are identical
    /// for any `threads` value.
    pub fn run_with_threads(settings: &FrontSettings, threads: usize, obs: &Obs) -> Self {
        let cfg = settings.config();
        let policies = SchedPolicy::ALL;
        let progress = obs.progress("sweep(front)", policies.len() as u64, "cells");
        let sweep = rtm_par::parallel_fold_with(
            threads,
            policies.len(),
            |i| {
                let r = run_front(&cfg, policies[i], obs.clone());
                progress.tick(1);
                r
            },
            Self::default(),
            |sweep, i, result| {
                sweep.cells.push(FrontCell {
                    policy: policies[i],
                    result,
                });
            },
        );
        progress.finish();
        sweep
    }

    /// The cell for one scheduling policy.
    pub fn cell(&self, policy: SchedPolicy) -> Option<&FrontCell> {
        self.cells.iter().find(|c| c.policy == policy)
    }
}

fn grid_rows(sweep: &FrontSweep, precise: bool) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "policy".to_string(),
        "class".to_string(),
        "tenants".to_string(),
        "admitted".to_string(),
        "shed".to_string(),
        "deferrals".to_string(),
        "completed".to_string(),
        "total_p50".to_string(),
        "total_p95".to_string(),
        "total_p99".to_string(),
    ]];
    for c in &sweep.cells {
        for s in &c.result.classes {
            rows.push(vec![
                c.policy.to_string(),
                s.class.label().to_string(),
                s.tenants.to_string(),
                s.admitted.to_string(),
                s.shed.to_string(),
                s.deferred.to_string(),
                s.completed.to_string(),
                s.latency.p50.to_string(),
                s.latency.p95.to_string(),
                s.latency.p99.to_string(),
            ]);
        }
    }
    if precise {
        // CSV keeps the per-policy roll-up as explicit columns instead
        // of the prose footer the text report uses.
        rows[0].extend(["cycles".to_string(), "fairness_ratio".to_string()]);
        let mut i = 1;
        for c in &sweep.cells {
            for _ in &c.result.classes {
                rows[i].extend([
                    c.result.serve.cycles.to_string(),
                    format!("{:.4}", c.result.fairness_ratio()),
                ]);
                i += 1;
            }
        }
    }
    rows
}

/// Renders the sweep as a text report: the per-(policy, class) table
/// plus a per-policy totals footer.
pub fn render_front(sweep: &FrontSweep) -> String {
    let mut out = String::from("Front door: admission control x scheduling policy\n");
    if let Some(c) = sweep.cells.first() {
        out.push_str(&format!(
            "{} tenants ({}), {} requests offered\n\n",
            c.result.tenants,
            c.result
                .classes
                .iter()
                .map(|s| format!("{} {}", s.tenants, s.class.label()))
                .collect::<Vec<_>>()
                .join(", "),
            c.result.admitted() + c.result.shed(),
        ));
    }
    out.push_str(&render_table(&grid_rows(sweep, false)));
    out.push_str(
        "\nPer-policy totals (fairness = max/min per-tenant completions across classes):\n",
    );
    for c in &sweep.cells {
        let r = &c.result;
        out.push_str(&format!(
            "  {}: {} admitted, {} shed, {} deferrals, {} completed in {} cycles, fairness {:.2}\n",
            c.policy,
            r.admitted(),
            r.shed(),
            r.deferred(),
            r.completed(),
            r.serve.cycles,
            r.fairness_ratio()
        ));
    }
    out
}

/// Machine-readable CSV of the sweep (one row per policy × class).
pub fn front_csv(sweep: &FrontSweep) -> String {
    super::to_csv(&grid_rows(sweep, true))
}

/// Publishes each cell's labeled admission counters into `obs`
/// (no-op without a registry). Called after the sweep so the emission
/// order is the deterministic policy order regardless of `--threads`.
pub fn record_front_labels(sweep: &FrontSweep, obs: &Obs) {
    for c in &sweep.cells {
        c.result.record_labels(c.policy.label(), obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_front::SloClass;

    fn tiny() -> FrontSettings {
        let mut s = FrontSettings::for_tenants(400, true);
        s.offered = 6_000;
        s
    }

    #[test]
    fn sweep_covers_every_policy_and_class() {
        let sweep = FrontSweep::run_with_threads(&tiny(), rtm_par::threads(), &Obs::default());
        assert_eq!(sweep.cells.len(), SchedPolicy::ALL.len());
        for c in &sweep.cells {
            assert_eq!(c.result.classes.len(), SloClass::ALL.len());
            assert_eq!(c.result.admitted() + c.result.shed(), 6_000);
            assert_eq!(c.result.completed(), c.result.admitted());
            assert!(c.result.fairness_ratio() >= 1.0);
        }
        assert!(sweep.cell(SchedPolicy::ShiftAware).is_some());
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let s = tiny();
        let base = FrontSweep::run_with_threads(&s, 1, &Obs::default());
        for threads in [2usize, 8] {
            let alt = FrontSweep::run_with_threads(&s, threads, &Obs::default());
            assert_eq!(base, alt, "threads={threads}");
        }
    }

    #[test]
    fn admission_is_worker_count_independent_for_random_configs() {
        use rtm_front::SloClass;
        use rtm_util::check::{run_cases, Gen};
        // Property: the admitted/shed/deferred decision stream is a
        // pure function of the config — fanning the policy sweep over
        // 1, 2 or 8 workers must reproduce every per-class count and
        // latency percentile exactly, for arbitrary tenant counts,
        // class mixes and offered loads.
        run_cases(3, |g: &mut Gen| {
            let entries: Vec<(SloClass, u32)> = SloClass::ALL
                .into_iter()
                .map(|c| (c, g.u32_in(1, 3)))
                .collect();
            let classes = ClassSpec::new(&entries);
            let s = FrontSettings {
                tenants: g.u32_in(50, 250),
                classes,
                offered: g.u64_in(800, 2_000),
                seed: g.u64(),
            };
            let base = FrontSweep::run_with_threads(&s, 1, &Obs::default());
            for threads in [2usize, 8] {
                let alt = FrontSweep::run_with_threads(&s, threads, &Obs::default());
                assert_eq!(base, alt, "threads={threads} settings={s:?}");
            }
        });
    }

    #[test]
    fn render_and_csv_agree_on_row_count() {
        let sweep = FrontSweep::run_with_threads(&tiny(), rtm_par::threads(), &Obs::default());
        let text = render_front(&sweep);
        assert!(text.contains("Front door"));
        assert!(text.contains("fairness"));
        let csv = front_csv(&sweep);
        assert_eq!(
            csv.lines().count(),
            1 + sweep.cells.len() * SloClass::ALL.len()
        );
        assert!(csv.lines().next().unwrap().contains("fairness_ratio"));
    }

    #[test]
    fn labeled_emission_covers_the_grid_when_enabled() {
        let sweep = FrontSweep::run_with_threads(&tiny(), rtm_par::threads(), &Obs::default());
        let obs = Obs::default().with_labels(true);
        record_front_labels(&sweep, &obs);
        let snap = obs.labels().unwrap().labeled_snapshot();
        assert_eq!(
            snap.series("front.admitted").len(),
            sweep.cells.len() * SloClass::ALL.len()
        );
    }
}
