//! Tests of the `record::validate` gates on the label-equivalence engine
//! against the oracle on the adversarial families, its convergence
//! counters, and the lock-step pipeline-vs-iteration comparison.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, SCHEMA};

    fn tiny() -> Report {
        tiny_report(1)
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny().to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let text = tiny().to_json().replace(SCHEMA, "bogus/v0");
        assert!(validate(&text, false).is_err());
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "propagate" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_requires_convergence_counters() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "propagate" {
                e.iterations = None;
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("iterations"), "{err}");
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "propagate" {
                e.iterations = Some(0);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "propagate" {
                e.reduction_passes = None;
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("reduction_passes"), "{err}");
        // The lock-step counters: pipeline_rounds ≥ 1 and propagate_ticks ≥
        // propagate_rounds ≥ propagate_iterations ≥ 1.
        type Bad = fn(&mut crate::record::LockstepEntry);
        let cases: [(Bad, &str); 5] = [
            (|e| e.conn = 6, "conn is not 4 or 8"),
            (|e| e.pipeline_rounds = 0, "pipeline_rounds"),
            (|e| e.propagate_iterations = 0, "propagate_iterations"),
            (
                |e| e.propagate_rounds = e.propagate_iterations - 1,
                "below propagate_iterations",
            ),
            (
                |e| e.propagate_ticks = e.propagate_rounds - 1,
                "below propagate_rounds",
            ),
        ];
        for (bad, want) in cases {
            let mut report = tiny();
            bad(&mut report.lockstep[0]);
            let err = validate(&report.to_json(), false).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn validation_requires_the_adversarial_families() {
        let mut report = tiny();
        report.entries.retain(|e| e.family != "hilbert");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("hilbert"), "{err}");
    }

    #[test]
    fn validation_requires_lockstep_coverage_of_both_conns() {
        let mut report = tiny();
        report.lockstep.retain(|e| e.conn != 8);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("8-connectivity"), "{err}");
    }

    #[test]
    fn validation_rejects_disagreeing_lockstep_kernels() {
        let mut report = tiny();
        report.lockstep[0].labels_match = false;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("disagreed"), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_headline_speedup() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "propagate" {
                e.best_ns = 9000; // slower than the oracle's 8000
                e.mean_ns = 9500;
            }
        }
        let text = report.to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("2×") || err.contains("need ≥ 2"), "{err}");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny();
        report
            .entries
            .retain(|e| e.family == "random50" || e.family == "spiral");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
        // Propagate rows at two sizes are thin on their own.
        let mut report = tiny();
        report
            .entries
            .retain(|e| e.engine != "propagate" || e.n != 2048);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("with bfs + propagate"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        // The shared quick record validated; it has converged propagate rows
        // and lock-step comparisons at both connectivities.
        let report = quick_run();
        let rows: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.engine == "propagate")
            .collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|e| e.iterations.is_some_and(|i| i >= 1)));
        for conn in [4, 8] {
            assert!(report
                .lockstep
                .iter()
                .any(|e| e.conn == conn && e.labels_match));
        }
    }
}
