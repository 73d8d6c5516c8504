//! Tests of the strip rows `record::record` times for the registry's
//! `parallel` engine.
//!
//! There is no separate strip recorder: `BENCH.json` times the `T × 1`
//! tiles that `EngineKind::Parallel.session(T)` opens at every `T` in
//! [`crate::record::STRIP_THREADS`], and [`crate::record::validate`] holds
//! their gates — bit-identity to the oracle, a `threads × 1` grid, ≥ 3
//! strip thread counts per covered point, and strips @ 4 threads ≥
//! [`crate::record::STRIP_SPEEDUP`]× the fast engine on hosts with ≥ 4
//! hardware threads. These tests pin those gates.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, SCHEMA, STRIP_THREADS};
    use crate::tiled::tests::without_speedup;

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny_report(8).to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
        let report = Report::from_json(&text).expect("parse");
        let at = |engine: &str, threads: usize| {
            let e = report.entries.iter().find(|e| {
                (e.engine.as_str(), e.threads, e.family.as_str(), e.n, e.conn)
                    == (engine, threads, "random50", 2048, 4)
            });
            e.map(|e| e.best_ns).expect("headline row")
        };
        for &t in STRIP_THREADS {
            at("parallel", t);
        }
        assert_eq!(at("fast", 1), 4 * at("parallel", 4));
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        // The strip-less v1 tiled schema cannot stand in for the strips.
        let text = tiny_report(8)
            .to_json()
            .replace(SCHEMA, "slap-bench-tiled/v1");
        assert!(validate(&text, false).is_err());
        // Nor can the retired stand-alone strip schema.
        let text = tiny_report(8)
            .to_json()
            .replace(SCHEMA, "slap-bench-parallel/v1");
        assert!(validate(&text, false).is_err());
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "parallel" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_rejects_strips_of_the_wrong_shape() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "parallel" {
                e.grid = (1, e.threads); // columns, not strips
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("threads x 1"), "{err}");
        // The sequential reference is one tile.
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "fast" {
                e.grid = (2, 1);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("1x1 grid"), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_speedup_on_wide_hosts() {
        let text = without_speedup(8, "parallel").to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("1.8"), "{err}");
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // Same no-speedup numbers, but recorded on a 1-thread host: the
        // ratio criterion cannot apply there.
        validate(&without_speedup(1, "parallel").to_json(), true)
            .expect("narrow-host full validation");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        // Fewer than three strip thread counts per point is thin.
        let mut report = tiny_report(8);
        report
            .entries
            .retain(|e| e.engine != "parallel" || e.threads <= 2);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
        // So is a single family, even with every strip thread count.
        let mut report = tiny_report(8);
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        let report = quick_run();
        let fast_points = report.entries.iter().filter(|e| e.engine == "fast");
        for point in fast_points {
            for &t in STRIP_THREADS {
                let strip = report
                    .entries
                    .iter()
                    .find(|e| {
                        e.engine == "parallel"
                            && (e.family.as_str(), e.n, e.conn)
                                == (point.family.as_str(), point.n, point.conn)
                            && e.threads == t
                    })
                    .unwrap_or_else(|| panic!("no strip@{t} at {point:?}"));
                assert_eq!(strip.grid, (t, 1), "{strip:?}");
                assert_eq!(strip.bit_identical, Some(true), "{strip:?}");
            }
        }
    }
}
