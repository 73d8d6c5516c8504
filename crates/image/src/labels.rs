//! Per-pixel component labels and comparisons between labelings.

use crate::bitmap::Bitmap;
use std::collections::HashMap;

/// Per-pixel component labels, row-major.
///
/// Foreground pixels hold a `u32` label; background pixels hold
/// [`LabelGrid::BACKGROUND`]. The paper's convention — used by the oracle and
/// by Algorithm CC — is that a component's label is the minimum column-major
/// position (`col * rows + row`) over its pixels, so labels of an `r × c`
/// image fit in `u32` for any image up to 65536 × 65536 pixels... in practice
/// we require `rows * cols <= u32::MAX` and assert it on construction.
#[derive(Clone, PartialEq, Eq)]
pub struct LabelGrid {
    rows: usize,
    cols: usize,
    labels: Vec<u32>,
}

impl LabelGrid {
    /// Sentinel for background (0) pixels.
    pub const BACKGROUND: u32 = u32::MAX;

    /// Creates a grid with every pixel marked background.
    pub fn new_background(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "label grid dimensions must be positive"
        );
        // checked_mul, not plain widening: on a 64-bit usize two huge dims
        // can wrap u64 itself, so the widening product alone could pass.
        assert!(
            (rows as u64)
                .checked_mul(cols as u64)
                .is_some_and(|px| px < u32::MAX as u64),
            "image too large for u32 labels"
        );
        LabelGrid {
            rows,
            cols,
            labels: vec![Self::BACKGROUND; rows * cols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the label of pixel `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u32 {
        self.labels[row * self.cols + col]
    }

    /// Writes the label of pixel `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, label: u32) {
        self.labels[row * self.cols + col] = label;
    }

    /// `true` when the pixel carries a (foreground) label.
    #[inline]
    pub fn is_foreground(&self, row: usize, col: usize) -> bool {
        self.get(row, col) != Self::BACKGROUND
    }

    /// The raw label slice (row-major), for bulk comparisons.
    pub fn as_slice(&self) -> &[u32] {
        &self.labels
    }

    /// The labels of one row, read-only.
    #[inline]
    pub fn row(&self, row: usize) -> &[u32] {
        &self.labels[row * self.cols..(row + 1) * self.cols]
    }

    /// The labels of one row, for bulk writes (run fills in the fast engine
    /// and the readout phases).
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [u32] {
        &mut self.labels[row * self.cols..(row + 1) * self.cols]
    }

    /// Splits the grid into disjoint consecutive row bands for concurrent
    /// writes (one scoped thread per band in the tiled engine).
    ///
    /// `bounds` are the `T + 1` ascending band boundaries, starting at `0`
    /// and ending at `rows()`; band `t` receives the row-major cells of rows
    /// `bounds[t]..bounds[t + 1]` as one mutable slice. Panics when the
    /// boundaries are not ascending or do not cover the grid exactly.
    pub fn strip_rows_mut(&mut self, bounds: &[usize]) -> Vec<&mut [u32]> {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&self.rows),
            "band boundaries must start at 0 and end at rows()"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "band boundaries must be strictly ascending"
        );
        let cols = self.cols;
        let mut rest = &mut self.labels[..];
        let mut bands = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let (band, tail) = rest.split_at_mut((w[1] - w[0]) * cols);
            bands.push(band);
            rest = tail;
        }
        bands
    }

    /// Re-dimensions the grid to `rows × cols` and marks every pixel
    /// background, reusing the existing allocation when it is large enough.
    /// The batch-fill equivalent of constructing with
    /// [`LabelGrid::new_background`].
    pub fn reset_background(&mut self, rows: usize, cols: usize) {
        self.reset_dims(rows, cols);
        self.labels.fill(Self::BACKGROUND);
    }

    /// Re-dimensions the grid, leaving cell contents unspecified — the
    /// caller must overwrite every cell (the fast engine writes each row
    /// exactly once, runs and background gaps alike).
    pub(crate) fn reset_dims(&mut self, rows: usize, cols: usize) {
        assert!(
            rows > 0 && cols > 0,
            "label grid dimensions must be positive"
        );
        assert!(
            (rows as u64) * (cols as u64) < u32::MAX as u64,
            "image too large for u32 labels"
        );
        self.rows = rows;
        self.cols = cols;
        self.labels.resize(rows * cols, Self::BACKGROUND);
    }

    /// Number of distinct components (distinct foreground labels).
    pub fn component_count(&self) -> usize {
        let mut seen: Vec<u32> = self
            .labels
            .iter()
            .copied()
            .filter(|&l| l != Self::BACKGROUND)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Relabels each component with the minimum column-major position of its
    /// pixels, producing the paper's canonical labeling. Foreground/background
    /// structure is preserved.
    pub fn canonicalize(&self) -> LabelGrid {
        let mut min_pos: HashMap<u32, u32> = HashMap::new();
        for c in 0..self.cols {
            for r in 0..self.rows {
                let l = self.get(r, c);
                if l != Self::BACKGROUND {
                    let pos = (c * self.rows + r) as u32;
                    min_pos.entry(l).or_insert(pos); // first in col-major scan = min
                }
            }
        }
        let mut out = LabelGrid::new_background(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let l = self.get(r, c);
                if l != Self::BACKGROUND {
                    out.set(r, c, min_pos[&l]);
                }
            }
        }
        out
    }

    /// `true` when `self` and `other` encode the same partition of foreground
    /// pixels (i.e. they agree up to a bijective renaming of labels) and the
    /// same foreground mask.
    pub fn same_partition(&self, other: &LabelGrid) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        let mut fwd: HashMap<u32, u32> = HashMap::new();
        let mut bwd: HashMap<u32, u32> = HashMap::new();
        for (&a, &b) in self.labels.iter().zip(other.labels.iter()) {
            match (a == Self::BACKGROUND, b == Self::BACKGROUND) {
                (true, true) => continue,
                (false, false) => {
                    if *fwd.entry(a).or_insert(b) != b || *bwd.entry(b).or_insert(a) != a {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// Per-component statistics, sorted by label.
    pub fn component_stats(&self) -> Vec<ComponentInfo> {
        let mut map: HashMap<u32, ComponentInfo> = HashMap::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let l = self.get(r, c);
                if l == Self::BACKGROUND {
                    continue;
                }
                let e = map.entry(l).or_insert(ComponentInfo {
                    label: l,
                    pixels: 0,
                    min_row: r,
                    max_row: r,
                    min_col: c,
                    max_col: c,
                });
                e.pixels += 1;
                e.min_row = e.min_row.min(r);
                e.max_row = e.max_row.max(r);
                e.min_col = e.min_col.min(c);
                e.max_col = e.max_col.max(c);
            }
        }
        let mut v: Vec<ComponentInfo> = map.into_values().collect();
        v.sort_unstable_by_key(|i| i.label);
        v
    }

    /// Renders the labeling as ASCII art: each component gets a letter
    /// (`a`–`z`, `A`–`Z`, `0`–`9`, cycling in order of first column-major
    /// appearance), background is `.`. Intended for examples and debugging
    /// of small images.
    pub fn to_art(&self) -> String {
        const GLYPHS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        let mut glyph_of: HashMap<u32, char> = HashMap::new();
        for c in 0..self.cols {
            for r in 0..self.rows {
                let l = self.get(r, c);
                if l != Self::BACKGROUND && !glyph_of.contains_key(&l) {
                    let g = GLYPHS[glyph_of.len() % GLYPHS.len()] as char;
                    glyph_of.insert(l, g);
                }
            }
        }
        let mut s = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                let l = self.get(r, c);
                s.push(if l == Self::BACKGROUND {
                    '.'
                } else {
                    glyph_of[&l]
                });
            }
            s.push('\n');
        }
        s
    }

    /// Checks that `self` is a *valid* labeling of `img`: the foreground mask
    /// matches and two foreground pixels have equal labels exactly when they
    /// are 4-connected in `img`. Returns a description of the first violation.
    pub fn validate_against(&self, img: &Bitmap) -> Result<(), String> {
        if self.rows != img.rows() || self.cols != img.cols() {
            return Err(format!(
                "dimension mismatch: labels {}x{} vs image {}x{}",
                self.rows,
                self.cols,
                img.rows(),
                img.cols()
            ));
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                if img.get(r, c) != self.is_foreground(r, c) {
                    return Err(format!("foreground mask mismatch at ({r},{c})"));
                }
            }
        }
        // Deliberately the BFS oracle, not the fast engine: a *validity*
        // check must use the one reference that shares no code path with
        // the run-scanning machinery it may be asked to judge.
        let truth = crate::oracle::bfs_labels(img);
        if self.same_partition(&truth) {
            Ok(())
        } else {
            Err("labeling partition differs from 4-connectivity".to_string())
        }
    }
}

impl std::fmt::Debug for LabelGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "LabelGrid({}x{})", self.rows, self.cols)?;
        if self.rows <= 32 && self.cols <= 32 {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let l = self.get(r, c);
                    if l == Self::BACKGROUND {
                        write!(f, "   .")?;
                    } else {
                        write!(f, "{l:4}")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Summary of one labeled component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentInfo {
    /// The component's label.
    pub label: u32,
    /// Number of pixels.
    pub pixels: usize,
    /// Topmost row index.
    pub min_row: usize,
    /// Bottommost row index.
    pub max_row: usize,
    /// Leftmost column index.
    pub min_col: usize,
    /// Rightmost column index.
    pub max_col: usize,
}

impl ComponentInfo {
    /// Width of the bounding box.
    pub fn width(&self) -> usize {
        self.max_col - self.min_col + 1
    }

    /// Height of the bounding box.
    pub fn height(&self) -> usize {
        self.max_row - self.min_row + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabelGrid {
        // Two components: left column pair (label 7) and bottom-right (label 9).
        let mut g = LabelGrid::new_background(2, 2);
        g.set(0, 0, 7);
        g.set(1, 0, 7);
        g.set(1, 1, 9);
        g
    }

    #[test]
    fn background_default() {
        let g = LabelGrid::new_background(3, 3);
        assert!(!g.is_foreground(1, 1));
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn component_count_counts_distinct_labels() {
        assert_eq!(tiny().component_count(), 2);
    }

    #[test]
    fn reset_background_reuses_and_clears() {
        let mut g = tiny();
        g.reset_background(3, 4);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        assert_eq!(g.component_count(), 0);
        assert!(g.as_slice().iter().all(|&l| l == LabelGrid::BACKGROUND));
        g.set(2, 3, 9);
        g.reset_background(2, 2); // shrink: stale labels must not survive
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn row_accessors_slice_the_grid() {
        let mut g = tiny();
        assert_eq!(g.row(1), &[7, 9]);
        g.row_mut(0)[1] = 5;
        assert_eq!(g.get(0, 1), 5);
    }

    #[test]
    fn canonicalize_uses_min_column_major_position() {
        let g = tiny();
        let c = g.canonicalize();
        // Component {(0,0),(1,0)}: positions 0 and 1 -> label 0.
        // Component {(1,1)}: position 1*2+1 = 3 -> label 3.
        assert_eq!(c.get(0, 0), 0);
        assert_eq!(c.get(1, 0), 0);
        assert_eq!(c.get(1, 1), 3);
        assert_eq!(c.get(0, 1), LabelGrid::BACKGROUND);
    }

    #[test]
    fn same_partition_accepts_renaming() {
        let g = tiny();
        let mut h = LabelGrid::new_background(2, 2);
        h.set(0, 0, 100);
        h.set(1, 0, 100);
        h.set(1, 1, 5);
        assert!(g.same_partition(&h));
    }

    #[test]
    fn same_partition_rejects_merge_and_split() {
        let g = tiny();
        let mut merged = LabelGrid::new_background(2, 2);
        merged.set(0, 0, 1);
        merged.set(1, 0, 1);
        merged.set(1, 1, 1);
        assert!(!g.same_partition(&merged));
        let mut split = LabelGrid::new_background(2, 2);
        split.set(0, 0, 1);
        split.set(1, 0, 2);
        split.set(1, 1, 3);
        assert!(!g.same_partition(&split));
    }

    #[test]
    fn same_partition_rejects_mask_mismatch() {
        let g = tiny();
        let mut h = LabelGrid::new_background(2, 2);
        h.set(0, 0, 1);
        h.set(1, 0, 1);
        assert!(!g.same_partition(&h));
    }

    #[test]
    fn stats_cover_bounding_boxes() {
        let stats = tiny().component_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, 7);
        assert_eq!(stats[0].pixels, 2);
        assert_eq!(stats[0].height(), 2);
        assert_eq!(stats[0].width(), 1);
        assert_eq!(stats[1].label, 9);
        assert_eq!(stats[1].pixels, 1);
    }

    #[test]
    fn to_art_assigns_one_glyph_per_component() {
        let g = tiny();
        let art = g.to_art();
        assert_eq!(art, "a.\nab\n");
    }

    #[test]
    fn to_art_cycles_glyphs_beyond_62_components() {
        // 8x16 checkerboard = 32 isolated components; use a wide grid with
        // 70 singletons to force glyph reuse without panicking
        let mut g = LabelGrid::new_background(1, 70);
        for c in 0..70 {
            g.set(0, c, c as u32);
        }
        let art = g.to_art();
        assert_eq!(art.trim_end().chars().count(), 70);
        assert!(art.starts_with("abcdefgh"));
    }

    #[test]
    fn validate_against_detects_bad_mask() {
        let img = Bitmap::from_art("#.\n##\n");
        let mut g = LabelGrid::new_background(2, 2);
        g.set(0, 0, 0);
        // missing (1,0) and (1,1)
        assert!(g.validate_against(&img).is_err());
    }
}
