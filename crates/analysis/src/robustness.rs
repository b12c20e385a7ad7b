//! Robustness beyond the paper's theorems (its §6 asks for exactly this):
//! the α-asynchrony ablation. The protocol × adversary tournament is the
//! `robustness-small` campaign preset.

use stabcon_core::init::InitialCondition;
use stabcon_core::runner::SimSpec;
use stabcon_exp::sweep_stats;
use stabcon_par::ThreadPool;
use stabcon_util::table::Table;

use crate::experiment::{cell, HitMetric};

/// α-asynchrony ablation: only an α-fraction of balls updates per round.
/// The effective per-ball round rate is α, so rounds should scale ≈ 1/α —
/// the dynamics themselves survive partial participation.
pub fn asynchrony_table(n: usize, alphas: &[f64], trials: u64, seed: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!("α-asynchrony ablation: two bins at n = {n}"),
        &["alpha", "mean rounds", "p95", "mean · alpha", "hit%"],
    );
    let pool = ThreadPool::new(threads);
    for &alpha in alphas {
        let spec = SimSpec::new(n)
            .init(InitialCondition::TwoBins { left: n / 2 })
            .update_fraction(alpha)
            .max_rounds(20_000);
        let stats = sweep_stats(
            &pool,
            &spec,
            trials,
            seed ^ (alpha * 1000.0) as u64,
            HitMetric::Consensus,
        );
        table.push_row(vec![
            format!("{alpha:.2}"),
            cell(stats.mean()),
            cell(stats.p95()),
            cell(stats.mean() * alpha),
            format!("{:.0}", stats.hit_rate() * 100.0),
        ]);
    }
    table.push_note(
        "mean·α should be roughly constant: asynchrony rescales time without breaking convergence",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asynchrony_scales_inverse_alpha() {
        let t = asynchrony_table(512, &[1.0, 0.25], 6, 7, 2);
        assert_eq!(t.len(), 2);
        // Parse the "mean rounds" cells and compare.
        let text = t.to_text();
        let mut means = Vec::new();
        for line in text.lines() {
            let cells: Vec<&str> = line.split('|').collect();
            if cells.len() >= 2 {
                if let Ok(v) = cells[1].trim().parse::<f64>() {
                    means.push(v);
                }
            }
        }
        assert_eq!(means.len(), 2, "{text}");
        assert!(
            means[1] > 2.0 * means[0],
            "α = 0.25 should be ≫ slower: {means:?}\n{text}"
        );
    }
}
