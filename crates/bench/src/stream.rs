//! Tests of the `record::validate` gates on the bounded-memory streaming
//! labeler: feature equivalence and the `O(cols)` frontier bound.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Entry, Report, SCHEMA};

    fn tiny() -> Report {
        tiny_report(1)
    }

    /// The first `stream` row of `report`.
    fn first_stream(report: &mut Report) -> &mut Entry {
        report
            .entries
            .iter_mut()
            .find(|e| e.engine == "stream")
            .unwrap()
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
    fn validation_rejects_non_equivalent_features() {
        let mut report = tiny();
        first_stream(&mut report).feature_equivalent = Some(false);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("equivalent"), "{err}");
    }

    #[test]
    fn validation_enforces_the_memory_bound() {
        let mut report = tiny();
        let e = first_stream(&mut report);
        e.peak_frontier_runs = Some(e.n); // > n/2 + 1
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("O(cols)"), "{err}");
        let mut report = tiny();
        let e = first_stream(&mut report);
        e.peak_nodes = Some(2 * e.n);
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("O(cols + live)"), "{err}");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny();
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
        // Stream rows on a single family are thin on their own.
        let mut report = tiny();
        report
            .entries
            .retain(|e| e.engine != "stream" || e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("with stream"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        let report = quick_run();
        let rows: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.engine == "stream")
            .collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|e| e.feature_equivalent == Some(true)));
    }
}
