//! Tests of the `record::validate` gates on the 2-D tiled engine across tile
//! shapes and on the out-of-core band scheduler's carried-state bound.

pub(crate) mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, SCHEMA, TILE_SHAPES};

    /// `tiny_report(host_threads)` with every `engine` row slowed to the
    /// fast engine's time (no speedup at any shape or thread count).
    pub(crate) fn without_speedup(host_threads: usize, engine: &str) -> Report {
        let mut report = tiny_report(host_threads);
        for e in &mut report.entries {
            if e.engine == engine {
                e.best_ns = 1000;
            }
        }
        report
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny_report(8).to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let text = tiny_report(8).to_json().replace(SCHEMA, "bogus/v0");
        assert!(validate(&text, false).is_err());
        // The retired tiled schemas are no longer accepted.
        for retired in ["slap-bench-tiled/v1", "slap-bench-tiled/v2"] {
            let text = tiny_report(8).to_json().replace(SCHEMA, retired);
            assert!(validate(&text, false).is_err());
        }
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "tiled" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_rejects_mismatched_ooc_components() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.components_match = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("retired"), "{err}");
    }

    #[test]
    fn validation_rejects_unbounded_carried_state() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.peak_carried_runs = Some(e.n); // a full frame of state
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("one-row bound"), "{err}");
    }

    #[test]
    fn validation_rejects_in_core_band_budgets() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.band_rows = Some(e.n); // whole frame resident: not OOC
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("band budget"), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_speedup_on_wide_hosts() {
        let text = without_speedup(8, "tiled").to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("1.5"), "{err}");
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // Same no-speedup numbers, but recorded on a 1-thread host: the
        // ratio criterion cannot apply there.
        validate(&without_speedup(1, "tiled").to_json(), true)
            .expect("narrow-host full validation");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny_report(8);
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
        // Fewer than three tile shapes per point is thin.
        let mut report = tiny_report(8);
        report
            .entries
            .retain(|e| e.engine != "tiled" || e.grid.0 == 1);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(
            err.contains("coverage") && err.contains("tile shapes"),
            "{err}"
        );
        // Each connectivity needs an out-of-core point.
        let mut report = tiny_report(8);
        report.entries.retain(|e| e.engine != "ooc" || e.conn == 4);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("no out-of-core point at 8"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        // The shared quick record validated; every point has every tile
        // shape bit-identical, and an out-of-core row.
        let report = quick_run();
        for point in report.entries.iter().filter(|e| e.engine == "fast") {
            let at = |engine: &'static str| {
                report.entries.iter().filter(move |e| {
                    e.engine == engine
                        && (&e.family, e.n, e.conn) == (&point.family, point.n, point.conn)
                })
            };
            for &shape in TILE_SHAPES {
                let tiled = at("tiled")
                    .find(|e| e.grid == shape)
                    .unwrap_or_else(|| panic!("no tiled {shape:?} at {point:?}"));
                assert_eq!(tiled.bit_identical, Some(true), "{tiled:?}");
            }
            let ooc = at("ooc").next().expect("an ooc row");
            assert_eq!(ooc.components_match, Some(true), "{ooc:?}");
        }
    }
}
