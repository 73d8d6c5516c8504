//! Bitmap front-end for the lock-step propagation machine
//! ([`slap_machine::propagate`]) — the GPU-style iterative kernel run in the
//! paper's machine model, with grid output for differential testing.
//!
//! [`crate::lockstep_cc::label_components_lockstep`] runs the paper's
//! pipeline Algorithm CC on the same executor; the `lockstep` section of
//! `slap-bench record` puts the two side by side on identical inputs,
//! recording exactly how many machine rounds the naive neighbor-relaxation
//! iteration pays for its locality (one column of label travel per
//! iteration) against the pipeline's single sweep each way.

use slap_image::{Bitmap, Connectivity, LabelGrid};
use slap_machine::propagate::propagate_lockstep;

/// Machine-time accounting of one [`propagate_components_lockstep`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropagateLockstepReport {
    /// Total simulated machine rounds (the PRAM-style time).
    pub rounds: u64,
    /// Total PE ticks executed (the PRAM-style work).
    pub ticks: u64,
    /// Jacobi iterations, including the final no-change iteration that
    /// proves convergence.
    pub iterations: u64,
}

/// Labels `img` by iterative min-label propagation on the lock-step linear
/// array (one PE per column) and returns the grid plus exact machine-time
/// accounting. Output is bit-identical to
/// [`slap_image::bfs_labels_conn`]. `threads > 1` runs the simulation on the
/// multithreaded executor with identical results and counts.
pub fn propagate_components_lockstep(
    img: &Bitmap,
    conn: Connectivity,
    threads: usize,
) -> (LabelGrid, PropagateLockstepReport) {
    let (rows, cols) = (img.rows(), img.cols());
    let mut grid = LabelGrid::new_background(rows, cols);
    if rows == 0 || cols == 0 {
        return (grid, PropagateLockstepReport::default());
    }
    let columns = img.columns();
    let runs: Vec<Vec<(u32, u32)>> = (0..cols)
        .map(|c| {
            let mut v = Vec::with_capacity(columns.count_column_runs(c));
            columns.for_each_column_run(c, |s, e| v.push((s, e)));
            v
        })
        .collect();
    let eight = conn == Connectivity::Eight;
    let out = propagate_lockstep(&runs, rows as u32, eight, threads);
    for (c, (col_runs, labels)) in runs.iter().zip(&out.labels).enumerate() {
        for (&(s, e), &label) in col_runs.iter().zip(labels) {
            for r in s..=e {
                grid.set(r as usize, c, label);
            }
        }
    }
    let report = PropagateLockstepReport {
        rounds: out.report.rounds,
        ticks: out.report.ticks,
        iterations: out.iterations,
    };
    (grid, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{bfs_labels_conn, gen};

    #[test]
    fn matches_the_oracle_on_every_workload_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 24, 11).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let (grid, report) = propagate_components_lockstep(&img, conn, 1);
                assert_eq!(grid, bfs_labels_conn(&img, conn), "{name} {conn}");
                assert!(report.iterations >= 1, "{name} {conn}");
                assert!(report.rounds >= report.iterations, "{name} {conn}");
                assert!(report.ticks >= report.rounds, "{name} {conn}");
            }
        }
    }

    #[test]
    fn threaded_simulation_is_bit_identical_with_equal_counts() {
        let img = gen::by_name("blobs", 32, 3).unwrap();
        let (seq_grid, seq_report) = propagate_components_lockstep(&img, Connectivity::Eight, 1);
        for threads in [2usize, 4] {
            let (grid, report) = propagate_components_lockstep(&img, Connectivity::Eight, threads);
            assert_eq!(grid, seq_grid, "threads={threads}");
            assert_eq!(report, seq_report, "threads={threads}");
        }
    }

    #[test]
    fn iteration_count_tracks_label_travel_distance() {
        // A single full row: the minimum label must travel from column 0 to
        // column n-1, one column per iteration — the cost the pipeline
        // algorithm's one-sweep-each-way design avoids.
        let mut img = Bitmap::new(4, 24);
        for c in 0..24 {
            img.set(1, c, true);
        }
        let (grid, report) = propagate_components_lockstep(&img, Connectivity::Four, 1);
        assert_eq!(grid, bfs_labels_conn(&img, Connectivity::Four));
        assert!(
            report.iterations >= 24,
            "min label crosses 23 columns: {} iterations",
            report.iterations
        );
    }
}
