//! Tests of the `record::validate` gates on session reuse: every registry
//! engine timed cold and warm, warm never slower than cold, and nothing
//! outside the registry.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, SCHEMA};
    use slap_cc::engine::registry;

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
    fn validation_enforces_warm_at_least_cold() {
        let mut report = tiny();
        let e = &mut report.entries[5];
        let (cold_best, _) = e.cold.expect("a registry row");
        e.best_ns = cold_best + 1;
        e.mean_ns = cold_best + 2;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("reuse criterion"), "{err}");
        // A registry row without cold timings cannot show the criterion.
        let mut report = tiny();
        report.entries[5].cold = None;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("lacks cold_best_ns"), "{err}");
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny();
        report.entries[0].bit_identical = Some(false);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_requires_every_registered_engine() {
        let mut report = tiny();
        report.entries.retain(|e| e.engine != "propagate");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("propagate"), "{err}");
    }

    #[test]
    fn validation_rejects_unregistered_engines() {
        let mut report = tiny();
        report.entries[0].engine = "warp-drive".to_string();
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("not in the registry"), "{err}");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny();
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(
            err.contains("coverage") && err.contains("for engine"),
            "{err}"
        );
    }

    #[test]
    fn quick_sweep_smoke() {
        // The shared quick record validated (warm ≤ cold aside, see
        // `quick_run`); every registry engine has cold-timed,
        // bit-identical rows.
        let report = quick_run();
        for info in registry() {
            let rows: Vec<_> = report
                .entries
                .iter()
                .filter(|e| e.engine == info.kind.name())
                .collect();
            assert!(!rows.is_empty(), "{:?}", info.kind);
            for e in rows {
                assert!(e.cold.is_some(), "{e:?}");
                assert_eq!(e.bit_identical, Some(true), "{e:?}");
            }
        }
    }
}
