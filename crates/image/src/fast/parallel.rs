//! Tests of the strip shape the registry's `parallel` engine opens.
//!
//! There is no separate strip engine: `parallel` is [`super::TiledLabeler`]
//! on a `threads × 1` grid with `threads` workers, whose single-tile bands
//! relocate by offset. These tests pin that shape against the sequential
//! engine and the BFS oracle across thread counts.

mod tests {
    use crate::bitmap::Bitmap;
    use crate::connectivity::Connectivity;
    use crate::fast::{fast_labels_conn, tiled_labels_conn, TiledLabeler};
    use crate::gen;
    use crate::labels::LabelGrid;
    use crate::oracle::bfs_labels_conn;

    const THREADS: &[usize] = &[1, 2, 3, 4, 8];

    /// Labels `img` the way `EngineKind::Parallel` does: `t` strips on `t`
    /// workers.
    fn strip_labels_conn(img: &Bitmap, conn: Connectivity, t: usize) -> LabelGrid {
        tiled_labels_conn(img, conn, t, 1, t)
    }

    #[test]
    fn matches_fast_engine_on_tiny_shapes() {
        for art in [
            "#",
            ".",
            "##\n##\n",
            "#.\n.#\n",
            "###\n..#\n###\n",
            "#.#\n###\n#.#\n",
            "#####\n.....\n#####\n",
            ".#.\n###\n.#.\n",
            "#..#\n....\n#..#\n",
            "#\n#\n#\n#\n#\n#\n#\n#\n",
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &t in THREADS {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        fast_labels_conn(&img, conn),
                        "threads={t} conn={conn:?} art:\n{art}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_fast_engine_on_every_workload_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 41, 13).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let reference = fast_labels_conn(&img, conn);
                for &t in THREADS {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        reference,
                        "workload {name} threads={t} conn={conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 130] {
            let img = gen::uniform_random(37, cols, 0.5, cols as u64);
            for &t in THREADS {
                assert_eq!(
                    strip_labels_conn(&img, Connectivity::Four, t),
                    bfs_labels_conn(&img, Connectivity::Four),
                    "cols={cols} threads={t}"
                );
            }
        }
    }

    #[test]
    fn seam_components_spanning_every_strip_collapse_to_one_label() {
        // A full column through many strips: every seam must union it.
        let mut bm = Bitmap::new(64, 9);
        for r in 0..64 {
            bm.set(r, 4, true);
        }
        for &t in THREADS {
            let l = strip_labels_conn(&bm, Connectivity::Four, t);
            assert_eq!(l.component_count(), 1, "threads={t}");
        }
    }

    #[test]
    fn more_threads_than_rows_degrades_gracefully() {
        let img = gen::uniform_random(3, 50, 0.5, 7);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                strip_labels_conn(&img, conn, 64),
                fast_labels_conn(&img, conn)
            );
        }
    }

    #[test]
    fn reused_parallel_labeler_leaves_no_stale_state() {
        let mut labeler = TiledLabeler::new(4, 1, 4);
        let mut grid = LabelGrid::new_background(1, 1);
        let big = gen::uniform_random(80, 80, 0.6, 1);
        labeler.label_into(&big, Connectivity::Four, &mut grid);
        assert_eq!(grid, fast_labels_conn(&big, Connectivity::Four));
        let small = Bitmap::from_art("#.#\n###\n");
        labeler.label_into(&small, Connectivity::Four, &mut grid);
        assert_eq!(grid, fast_labels_conn(&small, Connectivity::Four));
        labeler.label_into(&big, Connectivity::Eight, &mut grid);
        assert_eq!(grid, fast_labels_conn(&big, Connectivity::Eight));
    }

    #[test]
    fn one_by_one_and_single_row_images_do_not_panic() {
        // Degenerate dimensions through every phase: bounds construction,
        // seam loops, and the output bands.
        for art in ["#", ".", "#\n", "##"] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &t in &[1usize, 2, 4, 64] {
                    assert_eq!(
                        strip_labels_conn(&img, conn, t),
                        fast_labels_conn(&img, conn),
                        "art {art:?} conn={conn:?} threads={t}"
                    );
                }
            }
        }
        // Single column, many rows: every seam is one-run-to-one-run.
        let mut col = Bitmap::new(9, 1);
        for r in 0..9 {
            col.set(r, 0, r != 4);
        }
        for &t in THREADS {
            assert_eq!(
                strip_labels_conn(&col, Connectivity::Four, t),
                fast_labels_conn(&col, Connectivity::Four),
                "threads={t}"
            );
        }
    }
}
