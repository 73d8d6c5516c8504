//! Shared wire plumbing for the `slapd` protocol: the single
//! length-prefixed [`Frame`] codec (re-exported from
//! [`slap_image::framing`], where the framed-PBM readers use the same
//! implementation) plus the fixed-width binary codec for
//! [`RetiredComponent`] feature records, the items of a protocol-v2
//! `STREAM` reply's counted payload.
//!
//! Every framed surface in the service — request framing and multi-image
//! PBM ingest — parses through one implementation, so the byte-soup
//! property tests at the bottom of this module exercise the hostile-input
//! behavior of all of them at once. Replies are not framed: their header
//! line counts the payload ([`crate::protocol`]).

pub use slap_image::framing::{Frame, FrameError, PrefixParser, MAX_FRAME_BYTES};
use slap_image::RetiredComponent;

/// Encoded size of one feature record: six `u32` position/bbox fields then
/// four `u64` accumulators, all little-endian.
pub const RECORD_BYTES: usize = 6 * 4 + 4 * 8;

/// Appends the little-endian fixed-width encoding of `rec` to `out`.
/// Field order: `min_pos_col`, `min_pos_row`, `min_row`, `max_row`,
/// `min_col`, `max_col` (u32 each), then `area`, `sum_row`, `sum_col`,
/// `perimeter` (u64 each).
pub fn encode_record(rec: &RetiredComponent, out: &mut Vec<u8>) {
    out.reserve(RECORD_BYTES);
    for v in [
        rec.min_pos_col,
        rec.min_pos_row,
        rec.min_row,
        rec.max_row,
        rec.min_col,
        rec.max_col,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [rec.area, rec.sum_row, rec.sum_col, rec.perimeter] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes one record from exactly [`RECORD_BYTES`] bytes; `None` if the
/// slice has any other length. Never panics on arbitrary byte content —
/// every 56-byte string decodes to *some* record (validity checks such as
/// `min_row <= max_row` belong to the consumer).
pub fn decode_record(bytes: &[u8]) -> Option<RetiredComponent> {
    if bytes.len() != RECORD_BYTES {
        return None;
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
    let u64_at = |i: usize| {
        let at = 24 + i * 8;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    };
    Some(RetiredComponent {
        min_pos_col: u32_at(0),
        min_pos_row: u32_at(1),
        min_row: u32_at(2),
        max_row: u32_at(3),
        min_col: u32_at(4),
        max_col: u32_at(5),
        area: u64_at(0),
        sum_row: u64_at(1),
        sum_col: u64_at(2),
        perimeter: u64_at(3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::DetRng;

    fn arbitrary_record(rng: &mut DetRng) -> RetiredComponent {
        RetiredComponent {
            min_pos_col: rng.next_u64() as u32,
            min_pos_row: rng.next_u64() as u32,
            area: rng.next_u64(),
            min_row: rng.next_u64() as u32,
            max_row: rng.next_u64() as u32,
            min_col: rng.next_u64() as u32,
            max_col: rng.next_u64() as u32,
            sum_row: rng.next_u64(),
            sum_col: rng.next_u64(),
            perimeter: rng.next_u64(),
        }
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let mut rng = DetRng::new(0xfeed);
        let mut buf = Vec::new();
        for _ in 0..200 {
            let rec = arbitrary_record(&mut rng);
            buf.clear();
            encode_record(&rec, &mut buf);
            assert_eq!(buf.len(), RECORD_BYTES);
            assert_eq!(decode_record(&buf), Some(rec));
        }
    }

    #[test]
    fn decode_rejects_every_other_length() {
        for len in 0..RECORD_BYTES * 2 {
            if len == RECORD_BYTES {
                continue;
            }
            assert!(decode_record(&vec![0u8; len]).is_none(), "len {len}");
        }
    }

    #[test]
    fn byte_soup_never_panics_the_framing_stack() {
        // The no-panic property over the whole shared stack: arbitrary
        // bytes through the incremental prefix parser, the blocking frame
        // reader, and the record decoder. Every outcome is a typed value.
        let mut rng = DetRng::new(0x50fa);
        let mut soup = Vec::new();
        let mut body = Vec::new();
        for round in 0..400 {
            let len = rng.below(512) as usize;
            soup.clear();
            for _ in 0..len {
                // Bias toward digits and whitespace so the parser gets past
                // the prefix often enough to exercise the body path too.
                let b = match rng.below(4) {
                    0 => b'0' + rng.below(10) as u8,
                    1 => b"\n\r \t"[rng.below(4) as usize],
                    _ => rng.next_u64() as u8,
                };
                soup.push(b);
            }
            let mut parser = PrefixParser::new(MAX_FRAME_BYTES);
            for &b in &soup {
                if parser.step(b).is_err() {
                    break;
                }
            }
            let mut r = &soup[..];
            while let Ok(Some(got)) = Frame::read_into(&mut r, &mut body, 1 << 16) {
                assert_eq!(got, body.len(), "round {round}");
                let _ = decode_record(&body);
            }
        }
    }
}
