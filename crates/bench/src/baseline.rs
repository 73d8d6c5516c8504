//! Tests of the `record::validate` gates on the fast engine against the BFS
//! oracle, its coarse-to-fine tile counters, and the `slap-sim-runs` paper
//! column.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, SCHEMA, SIM};

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
            if e.engine == "fast" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
        // The paper column is held to the oracle too.
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == SIM {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny();
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
        // The paper column on a single family is thin on its own.
        let mut report = tiny();
        report
            .entries
            .retain(|e| e.engine != SIM || e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage") && err.contains(SIM), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_headline_speedup() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "fast" && e.family == "random50" && e.n == 2048 {
                e.best_ns = 2000; // only 4× the oracle's 8000
            }
        }
        let text = report.to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("5×"), "{err}");
    }

    #[test]
    fn full_validation_bounds_the_eight_over_four_gap() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "fast" && e.family == "random50" && e.n == 2048 && e.conn == 8 {
                e.best_ns = 2500; // 2.5× the 4-conn entry's 1000 — past the bound
            }
        }
        let text = report.to_json();
        validate(&text, false).expect("quick validation ignores the gap");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("8-connectivity"), "{err}");
    }

    #[test]
    fn validation_rejects_missing_or_short_tile_counters() {
        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "fast" {
                e.tiles = None;
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("tiles_background"), "{err}");

        let mut report = tiny();
        for e in &mut report.entries {
            if e.engine == "fast" {
                if let Some(t) = &mut e.tiles {
                    t.boundary -= 1; // counters no longer cover the frame
                }
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("word-tiles"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        // The shared quick record validated; every point has the oracle, the
        // fast engine with its tile counters, and the paper column.
        let report = quick_run();
        let fast = report.entries.iter().filter(|e| e.engine == "fast");
        for point in fast {
            assert!(point.tiles.is_some(), "{point:?}");
            for engine in ["bfs", SIM] {
                assert!(
                    report.entries.iter().any(|e| e.engine == engine
                        && (&e.family, e.n, e.conn) == (&point.family, point.n, point.conn)),
                    "no {engine} row at {point:?}"
                );
            }
        }
    }
}
