//! Tour of the position-error physics: from device parameters to the
//! Fig. 4 distributions and the Table 2 rates.
//!
//! ```text
//! cargo run --release --example error_model_tour -- 1000000
//! ```
//!
//! Runs the Monte-Carlo with the argument's sample count (default
//! 500 000), prints the per-bin distributions with ASCII bars, and
//! compares the regenerated rate table against the paper's calibration.

use hifi_rtm::model::analytic::Engine;
use hifi_rtm::model::montecarlo::{figure4_with_engine, PositionBin};
use hifi_rtm::model::params::DeviceParams;
use hifi_rtm::model::rates::OutOfStepRates;
use hifi_rtm::model::shift::NoiseModel;
use hifi_rtm::obs::Obs;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);

    let params = DeviceParams::table1();
    let noise = NoiseModel::from_params(&params);
    println!("device: Table 1 (in-plane), drive 2*J0");
    println!(
        "noise model: sigma_fixed {:.4}, sigma_walk {:.4}/sqrt(step), drift {:+.4}/step, capture ±{:.3}\n",
        noise.sigma_fixed, noise.sigma_walk, noise.drift_per_step, noise.capture_half_window
    );

    println!("Figure 4: position-error PDFs ({trials} raw shifts per panel)\n");
    let panels = figure4_with_engine(&params, trials, 2015, Engine::MonteCarlo, &Obs::default());
    for pdf in &panels {
        println!("  {}-step shift:", pdf.distance);
        for (i, bin) in PositionBin::FIG4.iter().enumerate() {
            let est = &pdf.bins[i];
            let p = est.probability();
            // Log-scale bar: full width at p = 1, empty below 1e-12.
            let bar_len = if p > 0.0 {
                ((12.0 + p.log10()) / 12.0 * 40.0).max(0.0) as usize
            } else {
                0
            };
            println!(
                "    {:>9}  {:>9.2e}  {}",
                bin.label(),
                p,
                "#".repeat(bar_len)
            );
        }
        println!(
            "    -> success {:.6}, stop-in-middle {:.2e}, out-of-step {:.2e}\n",
            pdf.success_probability(),
            pdf.stop_in_middle_probability(),
            pdf.out_of_step_probability()
        );
    }

    println!("Table 2 regeneration: paper calibration vs displacement model\n");
    let paper = OutOfStepRates::paper_calibration();
    let model = OutOfStepRates::from_noise_model(&noise);
    println!("  distance   paper ±1     model ±1    ratio");
    for d in 1..=7u32 {
        let (p, m) = (paper.rate(d, 1), model.rate(d, 1));
        println!("  {d:>8}   {p:>9.2e}   {m:>9.2e}   {:>5.2}", m / p);
    }
    println!(
        "\nthe model regenerates the paper's published column within a factor of ~2\n\
         across all distances; the architecture layers consume the calibrated table."
    );
}
