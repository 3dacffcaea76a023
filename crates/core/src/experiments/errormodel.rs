//! Fig. 4 (position-error PDFs) and Table 2 (out-of-step rates).

use super::render_table;
use rtm_model::analytic::Engine;
use rtm_model::montecarlo::{figure4_with_engine, PositionPdf};
use rtm_model::params::DeviceParams;
use rtm_model::rates::{OutOfStepRates, MAX_TABULATED_DISTANCE};
use rtm_model::shift::NoiseModel;
use rtm_obs::Obs;

/// The Fig. 4 experiment output: three position-error PDFs.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4 {
    /// Panels for 1-, 4- and 7-step shifts.
    pub panels: [PositionPdf; 3],
}

/// Runs the Fig. 4 experiment from the requested engine, recording
/// into `obs`: Monte-Carlo sampling (`trials` samples per panel), or
/// the exact closed form (for which `trials`/`seed` are irrelevant and
/// the panels carry `trials == 0`).
pub fn figure4_experiment_with_engine(
    trials: u64,
    seed: u64,
    engine: Engine,
    obs: &Obs,
) -> Figure4 {
    Figure4 {
        panels: figure4_with_engine(&DeviceParams::table1(), trials, seed, engine, obs),
    }
}

impl Figure4 {
    /// Renders the three panels side by side (probability per bin,
    /// using the analytic tail extension where sampling saw nothing —
    /// the same fitting-curve treatment the paper applies).
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "bin".to_string(),
            "1-step".to_string(),
            "4-step".to_string(),
            "7-step".to_string(),
        ]];
        for (i, bin) in rtm_model::montecarlo::PositionBin::FIG4.iter().enumerate() {
            rows.push(vec![
                bin.label(),
                format!("{:.2e}", self.panels[0].bins[i].probability()),
                format!("{:.2e}", self.panels[1].bins[i].probability()),
                format!("{:.2e}", self.panels[2].bins[i].probability()),
            ]);
        }
        let mut out = String::from(
            "Figure 4: probability distribution of position errors (raw shift, before STS)\n\n",
        );
        out.push_str(&render_table(&rows));
        if self.panels[0].trials == 0 {
            out.push_str("\nclosed form (analytic engine): exact erf bands, no sampling\n");
        } else {
            out.push_str(&format!(
                "\ntrials per panel: {} (tail bins analytic, as in the paper's fit)\n",
                self.panels[0].trials
            ));
        }
        out
    }
}

/// One Table 2 row: paper calibration next to the regenerated model
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Shift distance.
    pub distance: u32,
    /// ±1 rate, paper calibration.
    pub paper_k1: f64,
    /// ±1 rate, regenerated from the displacement model.
    pub model_k1: f64,
    /// ±2 rate, paper calibration.
    pub paper_k2: f64,
    /// ±3 rate (derived; the paper lists "too small").
    pub k3: f64,
}

/// The Table 2 experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// One row per tabulated distance.
    pub rows: Vec<Table2Row>,
}

/// Regenerates Table 2 from both the calibration and the physics model.
pub fn table2_experiment() -> Table2 {
    let paper = OutOfStepRates::paper_calibration();
    let model = OutOfStepRates::from_noise_model(&NoiseModel::from_params(&DeviceParams::table1()));
    let rows = (1..=MAX_TABULATED_DISTANCE)
        .map(|d| Table2Row {
            distance: d,
            paper_k1: paper.rate(d, 1),
            model_k1: model.rate(d, 1),
            paper_k2: paper.rate(d, 2),
            k3: paper.rate(d, 3),
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    /// Renders the table with the model-agreement column.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "distance".to_string(),
            "k=1 (paper)".to_string(),
            "k=1 (model)".to_string(),
            "ratio".to_string(),
            "k=2".to_string(),
            "k>=3".to_string(),
        ]];
        for r in &self.rows {
            rows.push(vec![
                r.distance.to_string(),
                format!("{:.2e}", r.paper_k1),
                format!("{:.2e}", r.model_k1),
                format!("{:.2}", r.model_k1 / r.paper_k1),
                format!("{:.2e}", r.paper_k2),
                if r.k3 < 1e-30 {
                    "too small".to_string()
                } else {
                    format!("{:.2e}", r.k3)
                },
            ]);
        }
        let mut out =
            String::from("Table 2: probability of out-of-step position errors (after STS)\n\n");
        out.push_str(&render_table(&rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_cover_all_distances() {
        let t = table2_experiment();
        assert_eq!(t.rows.len(), 7);
        for r in &t.rows {
            let ratio = r.model_k1 / r.paper_k1;
            assert!(
                (0.4..2.5).contains(&ratio),
                "d={}: ratio {ratio}",
                r.distance
            );
            assert!(r.k3 < r.paper_k2);
        }
    }

    #[test]
    fn table2_render_mentions_too_small() {
        let text = table2_experiment().render();
        assert!(text.contains("too small"));
        assert!(text.contains("Table 2"));
    }

    #[test]
    fn figure4_render_has_all_bins() {
        let f = figure4_experiment_with_engine(50_000, 3, Engine::MonteCarlo, &Obs::default());
        let text = f.render();
        for label in ["(-2,-1)", "-1", "(-1,+0)", "+0", "(+0,+1)", "+1", "(+1,+2)"] {
            assert!(text.contains(label), "missing bin {label}");
        }
    }

    #[test]
    fn figure4_success_mass_dominates() {
        let f = figure4_experiment_with_engine(50_000, 3, Engine::MonteCarlo, &Obs::default());
        for p in &f.panels {
            assert!(p.success_probability() > 0.99);
        }
    }

    #[test]
    fn figure4_analytic_engine_matches_mc_and_renders() {
        let mc = figure4_experiment_with_engine(200_000, 3, Engine::MonteCarlo, &Obs::default());
        let an = figure4_experiment_with_engine(0, 0, Engine::Analytic, &Obs::default());
        for (m, a) in mc.panels.iter().zip(an.panels.iter()) {
            assert_eq!(a.trials, 0);
            assert_eq!(m.distance, a.distance);
            for (mb, ab) in m.bins.iter().zip(a.bins.iter()) {
                if mb.samples >= 100 {
                    let ratio = ab.probability() / mb.probability();
                    assert!(
                        (0.8..1.25).contains(&ratio),
                        "d={} bin {}: analytic {:.3e} vs mc {:.3e}",
                        m.distance,
                        mb.bin.label(),
                        ab.probability(),
                        mb.probability()
                    );
                }
            }
        }
        let text = an.render();
        assert!(text.contains("closed form"), "{text}");
        assert!(!text.contains("trials per panel"));
    }
}
