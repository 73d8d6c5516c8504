//! Seeded inputs and their reference answers.
//!
//! Every frame comes from a `slap_image::gen` family and a seed derived
//! from the run's `--seed`; the program under test only ever sees the
//! generated bitmaps or their PBM bytes. References come from the BFS
//! oracle, computed after the timed loops so they cost neither set-up nor
//! peak memory of the workload.

use slap_cc::Connectivity;
use slap_image::{gen, pbm, BfsOracle, Bitmap, LabelGrid, RetiredComponent};

/// Side of the large frames (the offline deck, every 32nd serve job).
pub const LARGE: usize = 2048;
/// Side of the primary serve frames.
pub const SMALL: usize = 256;
/// Families of the offline deck; each is labeled at both connectivities.
pub const DECK_FAMILIES: [&str; 4] = ["random50", "blobs", "hilbert", "maze"];
/// Distinct small frames per serve family.
pub const SMALL_PER_FAMILY: usize = 8;

/// splitmix64: derives independent per-frame seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated input.
pub struct Frame {
    pub img: Bitmap,
    /// The raw (`P4`) PBM encoding of `img`.
    pub pbm: Vec<u8>,
}

impl Frame {
    pub fn generate(family: &'static str, side: usize, seed: u64) -> Frame {
        let img = gen::by_name(family, side, seed).expect("registered generator family");
        let mut pbm = Vec::new();
        pbm::write_raw(&img, &mut pbm).expect("PBM encode into memory");
        Frame { img, pbm }
    }

    pub fn is_large(&self) -> bool {
        self.img.rows() * self.img.cols() >= LARGE * LARGE
    }
}

/// What a checked output must reproduce: the component count and a hash of
/// either the label grid or the sorted `(min column-major label, area)`
/// list of a stream reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub components: usize,
    pub hash: u64,
}

/// FNV-1a over 64-bit words; order-sensitive.
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a row-major label grid.
pub fn grid_digest(components: usize, labels: &[u32]) -> Digest {
    let hash = hash_words(labels.iter().map(|&l| u64::from(l)));
    Digest { components, hash }
}

/// Digest of a stream reply: its records reduced to `(label, area)` and
/// sorted by label.
pub fn stream_digest(rows: usize, records: &[RetiredComponent]) -> Digest {
    let mut pairs: Vec<(u64, u64)> = records.iter().map(|r| (r.label(rows), r.area)).collect();
    pairs.sort_unstable();
    Digest {
        components: pairs.len(),
        hash: hash_words(pairs.into_iter().flat_map(|(l, a)| [l, a])),
    }
}

/// Reference digests from the BFS oracle: `(grid, stream)` for `img` at
/// `conn`.
pub fn reference(img: &Bitmap, conn: Connectivity) -> (Digest, Digest) {
    let mut grid = LabelGrid::new_background(1, 1);
    let components = BfsOracle::new().label_into(img, conn, &mut grid);
    let labels = grid.as_slice();
    // Labels are column-major positions, so counting areas by label and
    // walking the counts in index order yields the pairs sorted by label.
    let mut area = vec![0u32; labels.len()];
    for &l in labels {
        if l != LabelGrid::BACKGROUND {
            area[l as usize] += 1;
        }
    }
    let pairs = area
        .iter()
        .enumerate()
        .filter(|(_, &a)| a > 0)
        .flat_map(|(l, &a)| [l as u64, u64::from(a)]);
    let stream = Digest {
        components,
        hash: hash_words(pairs),
    };
    (grid_digest(components, labels), stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{label_stream, BitmapRows};

    #[test]
    fn digests_agree_with_the_oracle_on_both_paths() {
        for (family, conn) in [("blobs", Connectivity::Four), ("maze", Connectivity::Eight)] {
            let f = Frame::generate(family, 64, 5);
            let (grid_ref, stream_ref) = reference(&f.img, conn);
            let fast = slap_image::fast_labels_conn(&f.img, conn);
            assert_eq!(
                grid_digest(fast.component_count(), fast.as_slice()),
                grid_ref
            );
            let run = label_stream(&mut BitmapRows::new(&f.img), conn).unwrap();
            assert_eq!(stream_digest(64, &run.components), stream_ref);
            assert_eq!(pbm::read(&f.pbm[..]).unwrap(), f.img);
        }
    }

    #[test]
    fn a_wrong_answer_changes_the_digest() {
        let f = Frame::generate("random50", 64, 1);
        let (grid_ref, _) = reference(&f.img, Connectivity::Four);
        let mut labels = slap_image::fast_labels(&f.img).as_slice().to_vec();
        let i = labels
            .iter()
            .position(|&l| l != LabelGrid::BACKGROUND)
            .unwrap();
        labels[i] += 1;
        assert_ne!(grid_digest(grid_ref.components, &labels), grid_ref);
    }
}
