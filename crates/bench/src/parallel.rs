//! Tests of the strip points the `slap-bench tiled` recorder carries for
//! the registry's `parallel` engine.
//!
//! There is no separate strip recorder: `BENCH_tiled.json` times the
//! `T × 1` tiles that `EngineKind::Parallel.session(T)` opens at every `T`
//! in [`crate::tiled::STRIP_THREADS`], and [`crate::tiled::validate`]
//! holds their gates — bit-identity to the fast engine, a `threads × 1`
//! grid, ≥ 3 strip thread counts per covered point, and strips @ 4 threads
//! ≥ [`crate::tiled::STRIP_SPEEDUP`]× the fast engine on hosts with ≥ 4
//! hardware threads. These tests pin those gates.

mod tests {
    use crate::tiled::tests::{tiny_report, without_speedup};
    use crate::tiled::{run_tiled, validate, STRIP_THREADS};

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny_report(8).to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
        assert!(text.contains("\"strip_threads\": [1, 2, 4, 8]"), "{text}");
        assert!(text.contains("\"parallel@4\": 4.000"), "{text}");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        // The strip-less v1 tiled schema cannot stand in for the strips.
        let text = tiny_report(8)
            .to_json()
            .replace(crate::tiled::SCHEMA, "slap-bench-tiled/v1");
        assert!(validate(&text, false).is_err());
        // Nor can the retired stand-alone strip schema.
        let text = tiny_report(8)
            .to_json()
            .replace(crate::tiled::SCHEMA, "slap-bench-parallel/v1");
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
                e.tiles = (1, e.threads); // columns, not strips
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("threads x 1"), "{err}");
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
        let report = run_tiled(true, |_| {});
        validate(&report.to_json(), false).expect("fresh quick sweep validates");
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
                assert_eq!(strip.tiles, (t, 1), "{strip:?}");
                assert_eq!(strip.bit_identical, Some(true), "{strip:?}");
            }
        }
    }
}
