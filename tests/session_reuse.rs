//! Session-reuse coverage for the engine layer: a **warm** session — one
//! that has already labeled arbitrary other frames — must behave exactly
//! like a fresh one (bit-identical output, no state leaks), and once its
//! arenas have reached their high-water marks, further calls must perform
//! **zero reallocations** (asserted through the `scratch_bytes` capacity
//! watermark: a `Vec` can only grow its capacity by reallocating, so a
//! stable watermark over a repeated frame set proves the steady state is
//! allocation-free).

use proptest::prelude::*;
use slap_repro::cc::engine::{registry, FastSession, LabelEngine};
use slap_repro::image::stream::{label_stream, BitmapRows, RetiredComponent, StreamLabeler};
use slap_repro::image::{bfs_labels_conn, fast_labels_conn, gen, Bitmap, Connectivity, LabelGrid};

fn arb_frame() -> impl Strategy<Value = Bitmap> {
    // Dims straddle the 64-bit word boundary; densities span run-sparse to
    // run-dense; all deterministic from the seed.
    (1usize..48, 1usize..132, 0.0f64..1.0, 0u64..10_000)
        .prop_map(|(r, c, d, s)| gen::uniform_random(r, c, d, s))
}

fn arb_conn() -> impl Strategy<Value = Connectivity> {
    prop::sample::select(vec![Connectivity::Four, Connectivity::Eight])
}

/// Streams `img` through the warm `labeler` (`reset` → `push_row` →
/// `finish` → `drain_retired`) and returns its records, sorted.
fn warm_records(
    labeler: &mut StreamLabeler,
    img: &Bitmap,
    conn: Connectivity,
) -> Vec<RetiredComponent> {
    labeler.reset(img.cols(), conn);
    for r in 0..img.rows() {
        labeler.push_row(img.row_words(r));
    }
    labeler.finish();
    let mut records: Vec<RetiredComponent> = labeler.drain_retired().collect();
    records.sort_unstable();
    records
}

/// Streams `img` through the warm `labeler` and asserts its records equal a
/// fresh `label_stream`'s.
fn check_warm_records_equal_fresh(labeler: &mut StreamLabeler, img: &Bitmap, conn: Connectivity) {
    let warm = warm_records(labeler, img, conn);
    let mut fresh = label_stream(&mut BitmapRows::new(img), conn)
        .unwrap()
        .components;
    fresh.sort_unstable();
    assert_eq!(warm, fresh, "warm vs fresh stream records");
}

/// Labels `img` with a warm `session` and asserts the result equals a fresh
/// session's and the oracle's.
fn check_warm_equals_fresh(session: &mut dyn LabelEngine, img: &Bitmap, conn: Connectivity) {
    let mut warm_grid = LabelGrid::new_background(1, 1);
    session.label_into(img, conn, &mut warm_grid);
    let mut fresh = session.kind().session(session.threads());
    let mut fresh_grid = LabelGrid::new_background(1, 1);
    fresh.label_into(img, conn, &mut fresh_grid);
    assert_eq!(warm_grid, fresh_grid, "warm vs fresh ({})", session.kind());
    assert_eq!(
        warm_grid,
        bfs_labels_conn(img, conn),
        "warm vs oracle ({})",
        session.kind()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reuse property: a warm `FastSession`'s grid and a warm
    /// `StreamLabeler`'s records are identical to a fresh one's after
    /// interleaving frames of different dims and families.
    #[test]
    fn warm_fast_and_stream_sessions_match_fresh_after_interleaved_frames(
        a in arb_frame(),
        b in arb_frame(),
        c in arb_frame(),
        conn in arb_conn(),
        family in prop::sample::select(gen::WORKLOADS.to_vec()),
        side in 4usize..40,
    ) {
        let named = gen::by_name(family, side, 5).unwrap();
        let mut fast = FastSession::new();
        let mut grid = LabelGrid::new_background(1, 1);
        // Interleave frames of unrelated dims/densities, checking the warm
        // output against a fresh session at every step.
        fast.label_into(&a, conn, &mut grid);
        check_warm_equals_fresh(&mut fast, &b, conn);
        fast.label_into(&named, conn, &mut grid);
        check_warm_equals_fresh(&mut fast, &c, conn);
        // Re-labeling an earlier frame must reproduce it exactly.
        check_warm_equals_fresh(&mut fast, &a, conn);
        // The streaming half: one warm labeler over the same interleaving.
        let mut stream = StreamLabeler::new(1, conn);
        warm_records(&mut stream, &a, conn);
        check_warm_records_equal_fresh(&mut stream, &b, conn);
        warm_records(&mut stream, &named, conn);
        check_warm_records_equal_fresh(&mut stream, &c, conn);
        check_warm_records_equal_fresh(&mut stream, &a, conn);
    }

    /// Warm calls are allocation-free: after a frame set has been seen
    /// (twice — double-buffered arenas need a pass per buffer half), its
    /// capacity watermark is final, so repeating the set reallocates nothing.
    #[test]
    fn warm_sessions_reallocate_nothing_on_seen_frame_sets(
        a in arb_frame(),
        b in arb_frame(),
        conn in arb_conn(),
    ) {
        for info in registry() {
            let mut session = info.kind.session(2);
            let mut grid = LabelGrid::new_background(1, 1);
            for _ in 0..2 {
                session.label_into(&a, conn, &mut grid);
                session.label_into(&b, conn, &mut grid);
            }
            let watermark = session.scratch_bytes();
            for _ in 0..3 {
                session.label_into(&a, conn, &mut grid);
                session.label_into(&b, conn, &mut grid);
            }
            prop_assert_eq!(
                session.scratch_bytes(),
                watermark,
                "{}: warm repeat grew an arena",
                info.kind
            );
        }
    }
}

#[test]
fn watermarks_are_monotone_and_engine_owned() {
    // Deterministic companion to the property: watermarks only ever grow,
    // grow when a strictly larger frame arrives, and never grow on repeats.
    let small = gen::uniform_random(16, 16, 0.5, 1);
    let large = gen::uniform_random(128, 128, 0.5, 2);
    for info in registry() {
        let mut session = info.kind.session(2);
        let mut grid = LabelGrid::new_background(1, 1);
        session.label_into(&small, Connectivity::Four, &mut grid);
        let after_small = session.scratch_bytes();
        assert!(after_small > 0, "{}", info.kind);
        session.label_into(&large, Connectivity::Four, &mut grid);
        let after_large = session.scratch_bytes();
        assert!(
            after_large > after_small,
            "{}: a 64x larger frame must grow the arenas",
            info.kind
        );
        session.label_into(&small, Connectivity::Four, &mut grid);
        assert_eq!(
            session.scratch_bytes(),
            after_large,
            "{}: shrinking back must keep (not shrink or grow) the arenas",
            info.kind
        );
    }
}

#[test]
fn warm_fast_session_relabels_allocation_free_with_block_classification() {
    // The coarse-to-fine pass added per-row run-start mask buffers to the
    // fast engine's scratch; they must obey the same watermark contract as
    // every other arena. Interleave dims, families, connectivities — the
    // classes of frames that stress different tile mixes (all-background,
    // all-interior, all-boundary, ragged tail words) — then assert the warm
    // watermark is final while the tile counters keep reporting per-call.
    let frames: Vec<Bitmap> = [
        ("empty", 96usize, 96usize),
        ("full", 96, 96),
        ("random50", 96, 65),
        ("blobs", 64, 127),
        ("checker", 40, 128),
        ("maze", 96, 63),
    ]
    .iter()
    .map(|&(name, rows, cols)| gen::by_name_dims(name, rows, cols, 13).unwrap())
    .collect();
    let mut session = FastSession::new();
    let mut grid = LabelGrid::new_background(1, 1);
    for _ in 0..2 {
        for (i, img) in frames.iter().enumerate() {
            let conn = if i % 2 == 0 {
                Connectivity::Four
            } else {
                Connectivity::Eight
            };
            session.label_into(img, conn, &mut grid);
        }
    }
    let watermark = session.scratch_bytes();
    for _ in 0..3 {
        for (i, img) in frames.iter().enumerate() {
            let conn = if i % 2 == 0 {
                Connectivity::Four
            } else {
                Connectivity::Eight
            };
            let stats = session.label_into(img, conn, &mut grid);
            assert_eq!(grid, bfs_labels_conn(img, conn));
            assert_eq!(
                stats.tiles.total(),
                (img.words_per_row() * img.rows()) as u64,
                "tile counters must stay call-local on a warm session"
            );
            assert_eq!(
                session.scratch_bytes(),
                watermark,
                "warm relabel with block classification grew an arena"
            );
        }
    }
}

#[test]
fn stream_session_grid_path_matches_pure_streaming_retirements() {
    // A warm streaming labeler must retire exactly the whole-frame
    // component count frame after frame, within the frontier bound.
    let mut labeler = StreamLabeler::new(1, Connectivity::Four);
    for (i, name) in gen::WORKLOADS.iter().enumerate() {
        let img = gen::by_name(name, 24 + (i % 5) * 7, i as u64).unwrap();
        let records = warm_records(&mut labeler, &img, Connectivity::Four);
        assert_eq!(
            records.len(),
            fast_labels_conn(&img, Connectivity::Four).component_count(),
            "workload {name}"
        );
        assert!(
            labeler.stats().peak_frontier_runs <= img.cols() / 2 + 1,
            "{name}"
        );
    }
}
