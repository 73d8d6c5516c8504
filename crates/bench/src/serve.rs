//! Tests of the `record::validate` gates on `slapd`: loss-free service at
//! every concurrency level and mode, and the paper's carried-state bound on
//! the streaming paths.

mod tests {
    use crate::record::tests::{quick_run, tiny_report};
    use crate::record::{validate, Report, CLIENT_COUNTS, MODES, SCHEMA};

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
    fn validation_enforces_loss_free_service() {
        let mut report = tiny();
        report.serve[2].failures = 1;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("loss-free"), "{err}");
    }

    #[test]
    fn validation_enforces_full_client_coverage() {
        let mut report = tiny();
        report
            .serve
            .retain(|e| !(e.family == "blobs" && e.n == 256 && e.conn == 8 && e.clients == 16));
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage hole"), "{err}");
    }

    #[test]
    fn validation_enforces_full_mode_coverage() {
        let mut report = tiny();
        report
            .serve
            .retain(|e| !(e.family == "blobs" && e.n == 256 && e.conn == 8 && e.mode == "ooc"));
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage hole"), "{err}");
    }

    #[test]
    fn validation_enforces_the_carried_state_bound() {
        let mut report = tiny();
        let e = report.serve.iter_mut().find(|e| e.mode == "ooc").unwrap();
        e.peak_carried_runs = (e.n * e.n) as u64; // O(n²): the bug the bound catches
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("carried-state bound"), "{err}");
    }

    #[test]
    fn validation_enforces_ooc_routing() {
        let mut report = tiny();
        let e = report.serve.iter_mut().find(|e| e.mode == "ooc").unwrap();
        e.ooc_jobs = e.jobs_ok - 1;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("ooc routing hole"), "{err}");
        // In-core stream jobs route none.
        let mut report = tiny();
        let e = report
            .serve
            .iter_mut()
            .find(|e| e.mode == "stream")
            .unwrap();
        e.ooc_jobs = 1;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("must not route ooc"), "{err}");
    }

    #[test]
    fn validation_rejects_stream_state_on_grid_entries() {
        let mut report = tiny();
        let e = report.serve.iter_mut().find(|e| e.mode == "grid").unwrap();
        e.peak_carried_runs = 7;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("no stream state"), "{err}");
    }

    #[test]
    fn validation_rejects_idle_windows() {
        let mut report = tiny();
        report.serve[0].jobs_ok = 0;
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("no jobs"), "{err}");
    }

    #[test]
    fn validation_requires_full_scale_when_asked() {
        let mut report = tiny();
        report.scale = "quick".to_string();
        assert!(validate(&report.to_json(), false).is_ok());
        let err = validate(&report.to_json(), true).unwrap_err();
        assert!(err.contains("full-scale"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        // The shared quick record validated, against a live server: every
        // mode at every client count served loss-free, and the ooc rows
        // actually routed out of core.
        let report = quick_run();
        for &mode in MODES {
            for &clients in CLIENT_COUNTS {
                let e = report
                    .serve
                    .iter()
                    .find(|e| e.mode == mode && e.clients == clients)
                    .unwrap_or_else(|| panic!("no {mode} x{clients} row"));
                assert!(e.jobs_ok > 0 && e.failures == 0, "{e:?}");
                if mode == "ooc" {
                    assert_eq!(e.ooc_jobs, e.jobs_ok, "{e:?}");
                }
            }
        }
    }
}
