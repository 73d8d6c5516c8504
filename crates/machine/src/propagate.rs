//! Iterative min-label propagation on the lock-step linear array — the
//! GPU-style CCL kernel expressed in the machine model of the paper.
//!
//! Each PE holds one image column as its list of vertical runs (maximal
//! intervals of set rows) and a current label per run. An **iteration** is a
//! Jacobi relaxation step: every PE streams its runs with their labels to
//! both neighbors (one `(interval, label)` word per link per time step,
//! exactly what the machine's `O(lg n)` links carry), relaxes its own
//! next-labels against every adjacent run it hears about, and then joins a
//! global convergence handshake — a changed-flag wave accumulating
//! left-to-right and a verdict wave broadcast right-to-left. Iterations
//! repeat until one changes nothing.
//!
//! This is deliberately the *naive* data-parallel propagation: on a linear
//! array with neighbor-only links there is no global memory to hook or
//! pointer-jump through, so labels spread one column per iteration — the
//! locality wall the SLAP paper's pipeline algorithm (one `O(rows + cols)`
//! sweep each way) was designed to break, three decades before the same
//! contrast reappeared between GPU label-equivalence kernels and
//! union–find-based CCL (Chen et al., arXiv:1708.08180). Running both on
//! identical inputs (the `lockstep` section of `slap-bench record`) records
//! that gap in exact machine rounds; the host twin
//! (`slap_image::fast::propagate`) shows what root-hooking plus
//! pointer-jumping reduction does to the iteration count when global memory
//! *is* available.
//!
//! Labels are initialized to the column-major position of the run's first
//! pixel (`col * rows + start`), so the Jacobi fixpoint labels every
//! component with its minimum column-major position — bit-identical to the
//! host engines and the BFS oracle.

use crate::lockstep::{run_lockstep, run_lockstep_threaded, LockstepReport, PeIo, PeStatus};

/// One link word of the propagation protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PMsg {
    /// A run of the sending column: `(start_row, end_row, current_label)`.
    Run(u32, u32, u32),
    /// End of the sender's run stream for this iteration.
    Eos,
    /// Changed-flag accumulation wave, travelling left-to-right: `true` iff
    /// some PE at or left of the sender relaxed a label this iteration.
    Chg(bool),
    /// Convergence verdict, broadcast right-to-left: `true` means another
    /// iteration is needed.
    Verdict(bool),
}

/// Where a PE is inside the current iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Streaming runs both ways and relaxing against arrivals.
    Exchange,
    /// Exchange finished; participating in the changed/verdict waves.
    Wave,
}

/// One column's worth of the propagation machine.
struct PropagatePe {
    index: usize,
    n: usize,
    /// Horizontal adjacency reach: `0` for 4-connectivity, `1` for 8.
    reach: u32,
    /// This column's vertical runs, `(start_row, end_row)` inclusive,
    /// ascending.
    runs: Vec<(u32, u32)>,
    /// Current labels (the values streamed this iteration).
    labels: Vec<u32>,
    /// Next labels (relaxed against arrivals; committed at iteration end).
    next: Vec<u32>,
    phase: Phase,
    /// Next run index to send left / right (`== runs.len()` → send `Eos`).
    send_l: usize,
    send_r: usize,
    eos_sent_l: bool,
    eos_sent_r: bool,
    got_eos_l: bool,
    got_eos_r: bool,
    /// Relaxation cursors into `runs` for the left / right arrival streams
    /// (arrivals come in ascending start order, so each stream needs one).
    cur_l: usize,
    cur_r: usize,
    /// Changed flag accumulated from the left, once it arrives.
    pending_chg: Option<bool>,
    chg_sent: bool,
    /// Verdict accumulated from the right, once it arrives.
    pending_verdict: Option<bool>,
    /// Iterations this PE has completed (all PEs agree at the end).
    iterations: u64,
}

impl PropagatePe {
    fn new(index: usize, n: usize, rows: u32, reach: u32, runs: Vec<(u32, u32)>) -> Self {
        let col_base = index as u32 * rows;
        let labels: Vec<u32> = runs.iter().map(|&(s, _)| col_base + s).collect();
        PropagatePe {
            index,
            n,
            reach,
            next: labels.clone(),
            labels,
            runs,
            phase: Phase::Exchange,
            send_l: 0,
            send_r: 0,
            eos_sent_l: false,
            eos_sent_r: false,
            got_eos_l: index == 0,
            got_eos_r: index + 1 == n,
            cur_l: 0,
            cur_r: 0,
            pending_chg: None,
            chg_sent: false,
            pending_verdict: None,
            iterations: 0,
        }
    }

    /// Relaxes `next` against one arrived run, using the per-stream cursor
    /// (arrivals stream in ascending start order, so the cursor only moves
    /// forward; a run stays under the cursor while it can still reach the
    /// *next* arrival).
    fn relax(&mut self, cursor_left: bool, start: u32, end: u32, label: u32) {
        let cur = if cursor_left {
            &mut self.cur_l
        } else {
            &mut self.cur_r
        };
        let mut k = *cur;
        while k < self.runs.len() && self.runs[k].1 + self.reach < start {
            k += 1;
        }
        *cur = k;
        while k < self.runs.len() && self.runs[k].0 <= end + self.reach {
            if label < self.next[k] {
                self.next[k] = label;
            }
            k += 1;
        }
    }

    /// Handles one arrived word (`from_left` tells which link).
    fn on_msg(&mut self, from_left: bool, msg: PMsg) {
        match msg {
            PMsg::Run(s, e, l) => self.relax(from_left, s, e, l),
            PMsg::Eos => {
                if from_left {
                    self.got_eos_l = true;
                } else {
                    self.got_eos_r = true;
                }
            }
            PMsg::Chg(c) => self.pending_chg = Some(c),
            PMsg::Verdict(v) => self.pending_verdict = Some(v),
        }
    }

    /// Resets per-iteration state and re-enters [`Phase::Exchange`] (or
    /// reports the run finished when the verdict said converged).
    fn finish_iteration(&mut self, verdict: bool) -> PeStatus {
        self.iterations += 1;
        if !verdict {
            return PeStatus::Done;
        }
        self.labels.copy_from_slice(&self.next);
        self.phase = Phase::Exchange;
        self.send_l = 0;
        self.send_r = 0;
        self.eos_sent_l = false;
        self.eos_sent_r = false;
        self.got_eos_l = self.index == 0;
        self.got_eos_r = self.index + 1 == self.n;
        self.cur_l = 0;
        self.cur_r = 0;
        self.pending_chg = None;
        self.chg_sent = false;
        self.pending_verdict = None;
        PeStatus::Running
    }
}

impl crate::lockstep::PeProgram for PropagatePe {
    type Word = PMsg;

    fn tick(&mut self, io: &mut PeIo<PMsg>) -> PeStatus {
        // Drain both links every tick, whatever the phase: the link register
        // holds one word, and a neighbor further along in the handshake may
        // deliver while this PE is still streaming.
        if let Some(m) = io.recv_left() {
            self.on_msg(true, m);
        }
        if let Some(m) = io.recv_right() {
            self.on_msg(false, m);
        }
        if self.phase == Phase::Exchange {
            // Stream one run (or the Eos terminator) each way per tick.
            if self.index > 0 && !self.eos_sent_l {
                if self.send_l < self.runs.len() {
                    let (s, e) = self.runs[self.send_l];
                    io.send_left(PMsg::Run(s, e, self.labels[self.send_l]));
                    self.send_l += 1;
                } else {
                    io.send_left(PMsg::Eos);
                    self.eos_sent_l = true;
                }
            }
            if self.index + 1 < self.n && !self.eos_sent_r {
                if self.send_r < self.runs.len() {
                    let (s, e) = self.runs[self.send_r];
                    io.send_right(PMsg::Run(s, e, self.labels[self.send_r]));
                    self.send_r += 1;
                } else {
                    io.send_right(PMsg::Eos);
                    self.eos_sent_r = true;
                }
            }
            let sent_all = (self.index == 0 || self.eos_sent_l)
                && (self.index + 1 == self.n || self.eos_sent_r);
            if sent_all && self.got_eos_l && self.got_eos_r {
                self.phase = Phase::Wave;
            } else {
                return PeStatus::Running;
            }
        }
        // Wave phase. The changed flag accumulates rightward: PE 0 owns the
        // initial flag; everyone else waits for the left partial. A wave
        // word can land on a link the same tick the Exchange terminator
        // used it, so every send checks the link and retries next tick.
        let changed = self.labels != self.next;
        if !self.chg_sent {
            let upstream = if self.index == 0 {
                Some(false)
            } else {
                self.pending_chg
            };
            if let Some(up) = upstream {
                let acc = up || changed;
                if self.index + 1 < self.n {
                    if io.send_right(PMsg::Chg(acc)) {
                        self.chg_sent = true;
                    }
                } else {
                    // Rightmost PE turns the accumulated flag into the
                    // verdict and starts the leftward broadcast.
                    if self.index == 0 || io.send_left(PMsg::Verdict(acc)) {
                        return self.finish_iteration(acc);
                    }
                }
            }
        }
        if let Some(v) = self.pending_verdict {
            if self.index == 0 || io.send_left(PMsg::Verdict(v)) {
                return self.finish_iteration(v);
            }
        }
        PeStatus::Running
    }
}

/// Result of [`propagate_lockstep`].
#[derive(Clone, Debug)]
pub struct PropagateOutcome {
    /// Final per-run labels, one `Vec` per column, parallel to the input
    /// run lists. At the fixpoint each label is its component's minimum
    /// column-major position.
    pub labels: Vec<Vec<u32>>,
    /// Machine-time accounting of the whole run.
    pub report: LockstepReport,
    /// Jacobi iterations executed, including the final no-change iteration
    /// that proves convergence. Always ≥ 1.
    pub iterations: u64,
}

/// Runs iterative min-label propagation over `columns` on the lock-step
/// array — one PE per column, `columns[i]` listing column `i`'s vertical
/// runs as `(start_row, end_row)` inclusive pairs in ascending order.
///
/// `rows` is the image height (labels are column-major positions
/// `col * rows + row`); `eight` widens run adjacency to horizontal reach 1
/// (8-connectivity). `threads > 1` uses the multithreaded executor — results
/// and step counts are identical by construction.
///
/// # Panics
/// Panics if `columns` is empty, or if the iteration fails to converge
/// within the internal (diameter-based, generous) round bound — which a
/// correct input cannot trigger.
pub fn propagate_lockstep(
    columns: &[Vec<(u32, u32)>],
    rows: u32,
    eight: bool,
    threads: usize,
) -> PropagateOutcome {
    let n = columns.len();
    assert!(n > 0, "propagation machine needs at least one column");
    let reach = u32::from(eight);
    let mut pes: Vec<PropagatePe> = columns
        .iter()
        .enumerate()
        .map(|(i, runs)| PropagatePe::new(i, n, rows, reach, runs.clone()))
        .collect();
    // Round bound: iterations ≤ run-graph diameter + 2 ≤ total_runs + 2,
    // and one iteration costs ≤ (longest column stream + Eos) rounds of
    // exchange plus a full left-right-left wave.
    let total_runs: u64 = columns.iter().map(|c| c.len() as u64).sum();
    let max_col = columns.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let per_iteration = max_col + 3 * n as u64 + 16;
    let max_rounds = per_iteration * (total_runs + 4) + 1_000;
    let report = if threads > 1 {
        run_lockstep_threaded(&mut pes, threads, max_rounds)
    } else {
        run_lockstep(&mut pes, max_rounds)
    };
    let iterations = pes[0].iterations;
    debug_assert!(pes.iter().all(|p| p.iterations == iterations));
    PropagateOutcome {
        labels: pes.into_iter().map(|p| p.labels).collect(),
        report,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_column_components_are_their_runs() {
        let cols = vec![vec![(0u32, 2u32), (5, 5)]];
        let out = propagate_lockstep(&cols, 8, false, 1);
        assert_eq!(out.labels, vec![vec![0, 5]]);
        assert_eq!(out.iterations, 1, "nothing to relax: one proving pass");
    }

    #[test]
    fn overlapping_runs_take_the_minimum_position() {
        // Two columns, runs overlapping in rows 1..=2: one component whose
        // minimum position is column 0 row 0.
        let cols = vec![vec![(0u32, 2u32)], vec![(1, 3)]];
        let out = propagate_lockstep(&cols, 4, false, 1);
        assert_eq!(out.labels, vec![vec![0], vec![0]]);
        assert_eq!(out.iterations, 2);
        assert!(out.report.rounds > 0);
    }

    #[test]
    fn diagonal_touch_merges_only_under_eight() {
        // col 0 holds row 0, col 1 holds row 1: corners touch.
        let cols = vec![vec![(0u32, 0u32)], vec![(1, 1)]];
        let four = propagate_lockstep(&cols, 2, false, 1);
        assert_eq!(four.labels, vec![vec![0], vec![3]]);
        let eight = propagate_lockstep(&cols, 2, true, 1);
        assert_eq!(eight.labels, vec![vec![0], vec![0]]);
    }

    #[test]
    fn labels_cross_the_whole_array_one_column_per_iteration() {
        // A full horizontal bar: n columns, one run each, all one component.
        // The naive propagation needs ~n iterations — the locality wall the
        // paper's pipeline avoids.
        let n = 9usize;
        let cols: Vec<Vec<(u32, u32)>> = (0..n).map(|_| vec![(0u32, 0u32)]).collect();
        let out = propagate_lockstep(&cols, 1, false, 1);
        for (c, labels) in out.labels.iter().enumerate() {
            assert_eq!(labels, &vec![0u32], "column {c}");
        }
        assert!(
            out.iterations >= n as u64 / 2,
            "{} iterations for an {n}-wide bar",
            out.iterations
        );
    }

    #[test]
    fn empty_and_ragged_columns_are_fine() {
        let cols = vec![
            vec![],
            vec![(0u32, 0u32), (2, 4), (6, 6)],
            vec![],
            vec![(3u32, 3u32)],
        ];
        let out = propagate_lockstep(&cols, 8, true, 1);
        // Column 1's three runs are mutually disconnected (column 3 is out of
        // reach of column 1); everything keeps its own position label.
        assert_eq!(out.labels[1], vec![8, 10, 14]);
        assert_eq!(out.labels[3], vec![27]);
    }

    #[test]
    fn threaded_executor_reproduces_sequential_exactly() {
        let cols: Vec<Vec<(u32, u32)>> = (0..17)
            .map(|i| {
                let mut v = Vec::new();
                if i % 3 != 0 {
                    v.push((i as u32 % 5, i as u32 % 5 + 2));
                }
                if i % 4 == 1 {
                    v.push((8, 9));
                }
                v
            })
            .collect();
        let seq = propagate_lockstep(&cols, 12, true, 1);
        for threads in [2usize, 3, 8] {
            let par = propagate_lockstep(&cols, 12, true, threads);
            assert_eq!(par.labels, seq.labels, "threads={threads}");
            assert_eq!(par.iterations, seq.iterations, "threads={threads}");
            assert_eq!(par.report, seq.report, "threads={threads}");
        }
    }
}
