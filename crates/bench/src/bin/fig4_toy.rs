//! Regenerates **Fig. 4**: a 1-D toy with three fidelities, their GP models
//! and per-fidelity (penalized) EI — showing the lowest fidelity winning the
//! per-step selection, as the paper illustrates.
//!
//! Prints CSV series: for each fidelity, posterior mean/std over a 1-D grid
//! and the per-fidelity acquisition, then the selected (x, fidelity) pair.
//!
//! Usage: `cargo run --release -p cmmf-bench --bin fig4_toy`

use cmmf::eipv::{peipv, EipvScorer};
use gp::kernel::Matern52;
use gp::{Gp, GpConfig, MultiTaskPrediction};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three latent fidelity functions (increasingly accurate views of the
/// same landscape, as in the paper's toy).
fn truth(x: f64, fid: usize) -> f64 {
    let high = (6.0 * x - 2.0).powi(2) * (12.0 * x - 4.0).sin() / 20.0;
    match fid {
        0 => 0.6 * high + 0.4 * (3.0 * x).cos() * 0.3,
        1 => 0.85 * high + 0.1 * (3.0 * x).cos() * 0.3,
        _ => high,
    }
}

use cmmf_bench::harness_args;

fn main() {
    harness_args(&["--threads"]);
    // Nested observation sets: 9 hls, 5 syn, 3 impl.
    let counts = [9usize, 5, 3];
    let times = [30.0, 300.0, 1500.0];
    let cfg = GpConfig::default();

    let mut gps = Vec::new();
    for (fid, &n) in counts.iter().enumerate() {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| truth(x[0], fid)).collect();
        gps.push(Gp::fit(Matern52::ard(1), &xs, &ys, &cfg).expect("toy GP fits"));
    }

    println!("x,fid,mean,std,truth,ei,peipv");
    let mut best: Option<(f64, usize, f64)> = None;
    // Current single-objective "front": the best observed value per fidelity.
    let fronts: Vec<f64> = (0..3)
        .map(|fid| {
            (0..counts[fid])
                .map(|i| truth(i as f64 / (counts[fid] - 1) as f64, fid))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let scorers: Vec<EipvScorer> = fronts
        .iter()
        .map(|&f| EipvScorer::new(&[vec![f]], &[2.0]))
        .collect();
    for i in 0..=100 {
        let x = i as f64 / 100.0;
        for (fid, gp) in gps.iter().enumerate() {
            let p = gp.predict(&[x]).expect("1-D predict");
            // 1-objective EIPV == classical EI; use the MC machinery with a
            // single-objective "front".
            let pred = MultiTaskPrediction {
                mean: vec![p.mean],
                cov: Matrix::from_diag(&[p.var]),
            };
            let mut rng = StdRng::seed_from_u64(1234 + i as u64 * 7 + fid as u64);
            let ei = scorers[fid].eipv_mc(&pred, 256, &mut rng);
            // The toy uses the literal Eq. 10 penalty, as in the paper's figure.
            let score = peipv(ei, times[2], times[fid], 1.0);
            println!(
                "{x:.3},{fid},{:.5},{:.5},{:.5},{:.6},{:.6}",
                p.mean,
                p.std(),
                truth(x, fid),
                ei,
                score
            );
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((x, fid, score));
            }
        }
    }
    let (x, fid, score) = best.expect("grid is non-empty");
    println!("# selected: x={x:.3} fidelity={fid} (PEIPV={score:.6})");
    println!("# paper: the lowest fidelity obtains the highest EI and is selected (Fig. 4)");
}
