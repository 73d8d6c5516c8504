//! The `slapd` wire protocol: framed-PBM jobs in, typed replies out.
//!
//! Requests reuse the existing framed-PBM format unchanged
//! ([`slap_image::pbm::write_framed`] / [`slap_image::pbm::FramedPbmReader`]):
//! a client connection is a sequence of `<decimal length>\n<raw P4 PBM>`
//! job frames. Replies come one per job, in submission order, and every
//! successful reply has one shape — a header line that counts its payload,
//! then that many bytes of fixed-width items:
//!
//! ```text
//! OK <rows> <cols> <components> <payload_len>\n<payload_len bytes>
//! STREAM <rows> <cols> <components> <payload_len>\n<payload_len bytes>
//! ERR <code> <detail>\n
//! ```
//!
//! The `OK` payload is the label grid, row-major, one little-endian `u32`
//! per pixel (background = `u32::MAX`), bit-identical to the fast engine:
//! `payload_len = rows × cols × 4`. The `STREAM` payload is one 56-byte
//! little-endian [`RetiredComponent`] feature record per component
//! ([`crate::wire::encode_record`]), in retirement order:
//! `payload_len = components × 56`, with `components ≤ rows × cols`.
//! `ERR` codes are the closed [`WireError`] taxonomy — a client can branch
//! on the code (retry on `queue-full`, give up on `too-large`) without
//! parsing prose.
//!
//! Both reply kinds are read by one header parser and one payload reader
//! ([`read_response`], [`read_stream_response`]). The reader checks
//! `payload_len` against the header's counts before reading a byte of
//! payload, decodes items straight out of the reader's buffer, and past a
//! fixed 256 KiB head start grows its output only with the items that
//! arrive, so a lying header costs only the bytes that actually arrive.
//!
//! # Protocol v2: negotiated response modes
//!
//! A v2 client opens its connection with a hello line:
//!
//! ```text
//! HELLO slapd/2 <mode>\n
//! ```
//!
//! where `<mode>` is `grid` or `stream` ([`ResponseMode`]); the server
//! echoes the hello back with the mode it granted, and every job on that
//! connection is answered in the granted mode. Only version
//! [`PROTOCOL_VERSION`] is granted: any other version is answered
//! `ERR bad-frame bad hello line` and the connection closed. A connection
//! whose first byte is a frame length digit instead of `H` is a v1 client:
//! no hello is exchanged and responses stay whole-grid, so v1 clients work
//! untouched. Rejections are the same `ERR` replies in both modes.

use crate::wire::{decode_record, encode_record, RECORD_BYTES};
use slap_image::pbm::PbmError;
use slap_image::RetiredComponent;
use std::io::{self, BufRead, Read, Write};

/// The protocol generation spoken by this build: the `2` in
/// `HELLO slapd/2`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on an `OK` payload a client will buffer (bytes). The label grid
/// of the largest admissible job (`rows × cols < u32::MAX` pixels) fits; a
/// lying header above it is rejected before any allocation.
pub const MAX_PAYLOAD_BYTES: u64 = (u32::MAX as u64) * 4;

/// Cap on a response header line; anything longer is a protocol violation,
/// not a response.
pub(crate) const MAX_HEADER_BYTES: usize = 256;

/// Payload capacity a reader reserves before any item arrives: one 256²
/// grid's labels. Growing every reply from empty instead fragments the
/// heap (peak RSS on the `serve-grid` benchmark rose ~20%).
const PREALLOC_BYTES: usize = 256 << 10;

/// How a connection wants its successful job responses encoded, negotiated
/// once per connection by the v2 hello.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// Whole label grids, one `u32` per pixel — the v1 format and the
    /// default when no hello is exchanged.
    #[default]
    Grid,
    /// Retired-component feature records, one fixed-width 56-byte record
    /// per component in a counted payload: `O(components)` bytes per job,
    /// and the only mode in which frames above the grid pixel budget are
    /// routed out-of-core instead of rejected.
    Stream,
}

impl ResponseMode {
    /// The stable wire token for this mode.
    pub fn name(self) -> &'static str {
        match self {
            ResponseMode::Grid => "grid",
            ResponseMode::Stream => "stream",
        }
    }

    /// Parses a wire token as produced by [`ResponseMode::name`].
    pub fn parse(s: &str) -> Option<ResponseMode> {
        match s {
            "grid" => Some(ResponseMode::Grid),
            "stream" => Some(ResponseMode::Stream),
            _ => None,
        }
    }
}

impl std::fmt::Display for ResponseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Writes one hello line (`HELLO slapd/<version> <mode>`): the client's
/// opening request, and the server's echo granting a mode.
pub fn write_hello<W: Write>(w: &mut W, mode: ResponseMode) -> io::Result<()> {
    writeln!(w, "HELLO slapd/{PROTOCOL_VERSION} {}", mode.name())?;
    w.flush()
}

/// Parses a hello line (without its terminating newline) into the mode it
/// requests or grants. `None` if the line is not a well-formed hello for
/// [`PROTOCOL_VERSION`] — a speaker of any other version is refused, never
/// served a grammar it does not know.
pub fn parse_hello(line: &str) -> Option<ResponseMode> {
    let rest = line.strip_prefix(&format!("HELLO slapd/{PROTOCOL_VERSION} "))?;
    ResponseMode::parse(rest)
}

/// Reads the server's hello echo and returns the granted mode. An `ERR`
/// line or a hello of another version in place of the echo surfaces as
/// `InvalidData` carrying the line; a clean close surfaces as
/// `UnexpectedEof`.
pub fn read_hello<R: BufRead>(r: &mut R) -> io::Result<ResponseMode> {
    let line = read_header_line(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the hello echo",
        )
    })?;
    parse_hello(&line).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a hello echo, got {line:?}"),
        )
    })
}

/// The closed set of typed job-rejection codes `slapd` can answer with.
///
/// Every guard in the service maps to exactly one code, so the chaos suite
/// (and real clients) can assert on *which* defense fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireError {
    /// The job frame did not parse as framed PBM (bad magic, bad dims,
    /// truncated raster, lying length prefix, garbage bytes...).
    BadFrame,
    /// The image exceeds the server's dimension or pixel budget.
    TooLarge,
    /// `rows × cols` overflows the label space (`u32`) or `usize`.
    Overflow,
    /// The bounded job queue is full — backpressure, resubmit later.
    QueueFull,
    /// The job missed its wall-clock deadline (queued too long, stalled
    /// ingest, or slow compute).
    Deadline,
    /// The job panicked inside the engine; it was isolated and the worker
    /// session rebuilt. The server is still healthy.
    Panic,
    /// The server is draining and accepts no new jobs.
    Shutdown,
}

impl WireError {
    /// Every code, in wire order.
    pub const ALL: [WireError; 7] = [
        WireError::BadFrame,
        WireError::TooLarge,
        WireError::Overflow,
        WireError::QueueFull,
        WireError::Deadline,
        WireError::Panic,
        WireError::Shutdown,
    ];

    /// The stable wire token for this code.
    pub fn code(self) -> &'static str {
        match self {
            WireError::BadFrame => "bad-frame",
            WireError::TooLarge => "too-large",
            WireError::Overflow => "overflow",
            WireError::QueueFull => "queue-full",
            WireError::Deadline => "deadline",
            WireError::Panic => "panic",
            WireError::Shutdown => "shutdown",
        }
    }

    /// Parses a wire token as produced by [`WireError::code`].
    pub fn parse(s: &str) -> Option<WireError> {
        WireError::ALL.into_iter().find(|e| e.code() == s)
    }

    /// Whether an idempotent client should resubmit after this rejection:
    /// transient conditions (load, drain, a one-off panic) are retryable;
    /// verdicts about the job itself are not.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            WireError::QueueFull | WireError::Deadline | WireError::Panic | WireError::Shutdown
        )
    }

    /// Maps a structured PBM parse failure to its wire code: dimension
    /// overflow keeps its own code, every other malformation is `bad-frame`.
    pub fn from_pbm(e: &PbmError) -> WireError {
        match e {
            PbmError::DimsOverflow { .. } => WireError::Overflow,
            _ => WireError::BadFrame,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A successful grid-mode job reply: the labeled grid plus its summary
/// numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOk {
    /// Image height.
    pub rows: usize,
    /// Image width.
    pub cols: usize,
    /// Connected components found.
    pub components: usize,
    /// Row-major per-pixel labels (background = `u32::MAX`), bit-identical
    /// to the fast engine's `LabelGrid`.
    pub labels: Vec<u32>,
}

/// A successful stream-mode job reply: per-component feature records
/// instead of a pixel grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStream {
    /// Image height.
    pub rows: usize,
    /// Image width.
    pub cols: usize,
    /// Connected components found (equals `records.len()`: the header's
    /// count sizes the payload).
    pub components: usize,
    /// One feature record per component, in retirement order.
    pub records: Vec<RetiredComponent>,
}

/// One parsed server reply: a labeled job of kind `T`, or a typed
/// rejection (one taxonomy for both modes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<T> {
    /// The job was labeled.
    Ok(T),
    /// The job was rejected with a typed code.
    Rejected {
        /// The typed rejection code.
        code: WireError,
        /// Human-readable detail (single line, diagnostic only).
        detail: String,
    },
}

/// One parsed grid-mode server reply.
pub type Response = Reply<JobOk>;

/// One parsed stream-mode server reply.
pub type StreamResponse = Reply<JobStream>;

/// What distinguishes the two successful reply kinds: the mode that asks
/// for them, the header keyword, the width of one payload item, and how
/// items encode, decode and assemble into the reply.
pub(crate) trait ReplyKind: Sized {
    const MODE: ResponseMode;
    const KEYWORD: &'static str;
    const ITEM_BYTES: usize;
    type Item;
    /// Items the payload must hold for a header with these counts, or
    /// `None` if the counts contradict each other.
    fn items(rows: u64, cols: u64, components: u64) -> Option<u64>;
    /// Appends the encoding of `items` to `out`.
    fn encode(items: &[Self::Item], out: &mut Vec<u8>);
    /// Decodes `bytes`, a whole number of items, onto `out`.
    fn decode(bytes: &[u8], out: &mut Vec<Self::Item>);
    fn assemble(rows: usize, cols: usize, components: usize, items: Vec<Self::Item>) -> Self;
}

impl ReplyKind for JobOk {
    const MODE: ResponseMode = ResponseMode::Grid;
    const KEYWORD: &'static str = "OK";
    const ITEM_BYTES: usize = 4;
    type Item = u32;

    fn items(rows: u64, cols: u64, _components: u64) -> Option<u64> {
        rows.checked_mul(cols)
            .filter(|&px| px <= MAX_PAYLOAD_BYTES / 4)
    }

    fn encode(labels: &[u32], out: &mut Vec<u8>) {
        // Filling fixed 4-byte slots vectorizes; appending label by label
        // does not.
        let start = out.len();
        out.resize(start + labels.len() * 4, 0);
        for (quad, label) in out[start..].chunks_exact_mut(4).zip(labels) {
            quad.copy_from_slice(&label.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8], out: &mut Vec<u32>) {
        let quads = bytes.chunks_exact(4);
        out.extend(quads.map(|q| u32::from_le_bytes([q[0], q[1], q[2], q[3]])));
    }

    fn assemble(rows: usize, cols: usize, components: usize, labels: Vec<u32>) -> JobOk {
        JobOk {
            rows,
            cols,
            components,
            labels,
        }
    }
}

impl ReplyKind for JobStream {
    const MODE: ResponseMode = ResponseMode::Stream;
    const KEYWORD: &'static str = "STREAM";
    const ITEM_BYTES: usize = RECORD_BYTES;
    type Item = RetiredComponent;

    /// One record per component, and a pixel belongs to at most one
    /// component.
    fn items(rows: u64, cols: u64, components: u64) -> Option<u64> {
        rows.checked_mul(cols)
            .filter(|&px| components <= px)
            .map(|_| components)
    }

    fn encode(records: &[RetiredComponent], out: &mut Vec<u8>) {
        for rec in records {
            encode_record(rec, out);
        }
    }

    fn decode(bytes: &[u8], out: &mut Vec<RetiredComponent>) {
        let records = bytes.chunks_exact(RECORD_BYTES);
        out.extend(records.map(|b| decode_record(b).expect("one record")));
    }

    fn assemble(
        rows: usize,
        cols: usize,
        components: usize,
        records: Vec<RetiredComponent>,
    ) -> JobStream {
        JobStream {
            rows,
            cols,
            components,
            records,
        }
    }
}

/// Appends one successful reply of kind `T` — header line, then the
/// encoded items — to `out`. The single encoder behind both writers and
/// the server's workers.
pub(crate) fn encode_reply<T: ReplyKind>(
    out: &mut Vec<u8>,
    rows: usize,
    cols: usize,
    components: usize,
    items: &[T::Item],
) {
    let payload_len = items.len() * T::ITEM_BYTES;
    writeln!(
        out,
        "{} {rows} {cols} {components} {payload_len}",
        T::KEYWORD
    )
    .expect("writing to a Vec cannot fail");
    out.reserve(payload_len);
    T::encode(items, out);
}

/// Writes an `OK` reply carrying the label grid. `scratch` is the caller's
/// reusable encoding buffer (cleared here, so a warm caller serializes
/// without reallocating).
pub fn write_ok<W: Write>(
    w: &mut W,
    rows: usize,
    cols: usize,
    components: usize,
    labels: &[u32],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    encode_reply::<JobOk>(scratch, rows, cols, components, labels);
    w.write_all(scratch)?;
    w.flush()
}

/// Writes a `STREAM` reply carrying one feature record per component.
/// `scratch` is the caller's reusable encoding buffer, as for [`write_ok`].
pub fn write_stream_ok<W: Write>(
    w: &mut W,
    rows: usize,
    cols: usize,
    records: &[RetiredComponent],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    encode_reply::<JobStream>(scratch, rows, cols, records.len(), records);
    w.write_all(scratch)?;
    w.flush()
}

/// Writes an `ERR` response. Newlines in `detail` are flattened so the
/// record stays one line.
pub fn write_err<W: Write>(w: &mut W, code: WireError, detail: &str) -> io::Result<()> {
    let detail: String = detail
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    writeln!(w, "ERR {} {detail}", code.code())?;
    w.flush()
}

/// Reads one response header line (bytes up to `\n`, at most
/// [`MAX_HEADER_BYTES`] before it). `Ok(None)` at a clean end of stream
/// before any byte.
pub(crate) fn read_header_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    r.take(MAX_HEADER_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?;
    match line.pop() {
        None => Ok(None),
        Some(b'\n') => String::from_utf8(line).map(Some).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "response header is not UTF-8")
        }),
        Some(_) if line.len() == MAX_HEADER_BYTES => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response header too long",
        )),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "response header truncated",
        )),
    }
}

/// Reads one reply of kind `T`: the shared header parser, then the shared
/// payload reader. `Ok(None)` at a clean end of stream (the server closed
/// between replies).
pub(crate) fn read_reply<R: BufRead, T: ReplyKind>(r: &mut R) -> io::Result<Option<Reply<T>>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{msg}: {line:?}"));
    let (keyword, rest) = line.split_once(' ').unwrap_or((&line, ""));
    if keyword == "ERR" {
        let (code, detail) = rest.split_once(' ').unwrap_or((rest, ""));
        let code = WireError::parse(code).ok_or_else(|| bad("unknown ERR code"))?;
        let detail = detail.to_string();
        return Ok(Some(Reply::Rejected { code, detail }));
    }
    if keyword != T::KEYWORD {
        return Err(bad(&format!("expected an {} or ERR reply", T::KEYWORD)));
    }
    let nums = rest
        .split(' ')
        .map(str::parse)
        .collect::<Result<Vec<u64>, _>>();
    let Ok(&[rows, cols, components, payload_len]) = nums.as_deref() else {
        return Err(bad("expected rows, cols, components and payload length"));
    };
    let count = T::items(rows, cols, components)
        .filter(|&n| n.checked_mul(T::ITEM_BYTES as u64) == Some(payload_len))
        .ok_or_else(|| bad("payload length disagrees with header"))?;
    let items = read_items::<R, T>(r, count)?;
    let reply = T::assemble(rows as usize, cols as usize, components as usize, items);
    Ok(Some(Reply::Ok(reply)))
}

/// Reads `count` items of kind `T`, decoding them straight out of the
/// reader's buffer (one `fill_buf` per buffer refill; an item split across
/// refills goes through a small carry). At most [`PREALLOC_BYTES`] of
/// items are reserved before any arrive; past that the output grows only
/// with the items that arrive, so a lying count costs a fixed head start
/// plus the bytes actually sent.
fn read_items<R: BufRead, T: ReplyKind>(r: &mut R, count: u64) -> io::Result<Vec<T::Item>> {
    let width = T::ITEM_BYTES;
    let mut items = Vec::with_capacity(count.min((PREALLOC_BYTES / width) as u64) as usize);
    let mut carry = Vec::with_capacity(width);
    let mut remaining = count * width as u64;
    while remaining > 0 {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("reply payload truncated: {remaining} bytes missing"),
            ));
        }
        let used = buf
            .len()
            .min(usize::try_from(remaining).unwrap_or(usize::MAX));
        let mut bytes = &buf[..used];
        if !carry.is_empty() {
            let take = (width - carry.len()).min(bytes.len());
            carry.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if carry.len() == width {
                T::decode(&carry, &mut items);
                carry.clear();
            }
        }
        let whole = bytes.len() / width * width;
        T::decode(&bytes[..whole], &mut items);
        carry.extend_from_slice(&bytes[whole..]);
        r.consume(used);
        remaining -= used as u64;
    }
    Ok(items)
}

/// Reads one grid-mode server reply (`OK` or `ERR`). `Ok(None)` at a clean
/// end of stream. The label count is bounded by [`MAX_PAYLOAD_BYTES`].
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Option<Response>> {
    read_reply(r)
}

/// Reads one stream-mode server reply (`STREAM` or `ERR`). `Ok(None)` at a
/// clean end of stream. The record count is bounded by `rows × cols` (a
/// pixel belongs to at most one component).
pub fn read_stream_response<R: BufRead>(r: &mut R) -> io::Result<Option<StreamResponse>> {
    read_reply(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_response_roundtrips() {
        let labels = vec![0u32, u32::MAX, 7, 0xdead_beef];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_ok(&mut buf, 2, 2, 2, &labels, &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_response(&mut r).unwrap().unwrap() {
            Response::Ok(ok) => {
                assert_eq!((ok.rows, ok.cols, ok.components), (2, 2, 2));
                assert_eq!(ok.labels, labels);
            }
            other => panic!("expected OK, got {other:?}"),
        }
        assert!(read_response(&mut r).unwrap().is_none(), "clean end");
    }

    #[test]
    fn err_response_roundtrips_every_code() {
        for code in WireError::ALL {
            let mut buf = Vec::new();
            write_err(&mut buf, code, "detail\nwith newline").unwrap();
            let mut r = io::BufReader::new(&buf[..]);
            match read_response(&mut r).unwrap().unwrap() {
                Response::Rejected { code: got, detail } => {
                    assert_eq!(got, code);
                    assert!(!detail.contains('\n'), "{detail:?}");
                }
                other => panic!("expected ERR, got {other:?}"),
            }
            assert_eq!(WireError::parse(code.code()), Some(code));
        }
        assert_eq!(WireError::parse("nope"), None);
    }

    #[test]
    fn lying_ok_header_is_rejected_without_allocation() {
        // Payload length that disagrees with dims.
        let mut r = io::BufReader::new(&b"OK 2 2 1 999\n"[..]);
        assert!(read_response(&mut r).is_err());
        // Dims product overflowing u64.
        let huge = format!("OK {} {} 1 16\n", u64::MAX, u64::MAX);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert!(read_response(&mut r).is_err());
        // Truncated payload costs only the bytes that arrived.
        let mut r = io::BufReader::new(&b"OK 2 2 1 16\n\x01\x00"[..]);
        let err = read_response(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_header_is_a_protocol_error() {
        let mut r = io::BufReader::new(&b"HELLO world\n"[..]);
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut r = io::BufReader::new(&b"ERR not-a-code x\n"[..]);
        assert!(read_response(&mut r).is_err());
        // A header of exactly MAX_HEADER_BYTES is read; one byte more is a
        // protocol violation, not a longer read.
        let line = |len: usize| format!("ERR deadline {}\n", "x".repeat(len - 13));
        let at_cap = line(MAX_HEADER_BYTES);
        assert_eq!(at_cap.len(), MAX_HEADER_BYTES + 1);
        match read_response(&mut at_cap.as_bytes()).unwrap().unwrap() {
            Response::Rejected { code, detail } => {
                assert_eq!(code, WireError::Deadline);
                assert_eq!(detail.len(), MAX_HEADER_BYTES - 13);
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        let over = line(MAX_HEADER_BYTES + 1);
        assert_eq!(
            read_response(&mut over.as_bytes()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A header cut off before its newline is a truncation.
        assert_eq!(
            read_response(&mut &b"OK 1 1"[..]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn retryable_codes_are_the_transient_ones() {
        assert!(WireError::QueueFull.retryable());
        assert!(WireError::Deadline.retryable());
        assert!(WireError::Shutdown.retryable());
        assert!(WireError::Panic.retryable());
        assert!(!WireError::BadFrame.retryable());
        assert!(!WireError::TooLarge.retryable());
        assert!(!WireError::Overflow.retryable());
    }

    #[test]
    fn hello_lines_roundtrip_both_modes() {
        for mode in [ResponseMode::Grid, ResponseMode::Stream] {
            let mut buf = Vec::new();
            write_hello(&mut buf, mode).unwrap();
            let line = std::str::from_utf8(&buf).unwrap().trim_end();
            assert_eq!(parse_hello(line), Some(mode));
            let mut r = io::BufReader::new(&buf[..]);
            assert_eq!(read_hello(&mut r).unwrap(), mode);
        }
        // Another protocol generation is refused on both ends.
        assert_eq!(parse_hello("HELLO slapd/3 stream"), None);
        let mut r = io::BufReader::new(&b"HELLO slapd/3 stream\n"[..]);
        assert_eq!(
            read_hello(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(parse_hello("HELLO slapd/2"), None);
        assert_eq!(parse_hello("HELLO slapd/x grid"), None);
        assert_eq!(parse_hello("HELLO other/2 grid"), None);
        assert_eq!(parse_hello("HELLO slapd/2 grid extra"), None);
        assert_eq!(parse_hello("OK 1 1 1 4"), None);
        assert_eq!(ResponseMode::parse("stream"), Some(ResponseMode::Stream));
        assert_eq!(ResponseMode::parse("nope"), None);
    }

    #[test]
    fn stream_response_roundtrips() {
        let records = vec![
            RetiredComponent {
                min_pos_col: 0,
                min_pos_row: 0,
                area: 3,
                min_row: 0,
                max_row: 1,
                min_col: 0,
                max_col: 1,
                sum_row: 1,
                sum_col: 1,
                perimeter: 8,
            },
            RetiredComponent {
                min_pos_col: 3,
                min_pos_row: 2,
                area: 1,
                min_row: 2,
                max_row: 2,
                min_col: 3,
                max_col: 3,
                sum_row: 2,
                sum_col: 3,
                perimeter: 4,
            },
        ];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_stream_ok(&mut buf, 3, 4, &records, &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => {
                assert_eq!((job.rows, job.cols, job.components), (3, 4, 2));
                assert_eq!(job.records, records);
            }
            other => panic!("expected STREAM, got {other:?}"),
        }
        assert!(read_stream_response(&mut r).unwrap().is_none(), "clean end");
    }

    #[test]
    fn empty_stream_response_roundtrips() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_stream_ok(&mut buf, 5, 5, &[], &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => {
                assert_eq!(job.components, 0);
                assert!(job.records.is_empty());
            }
            other => panic!("expected STREAM, got {other:?}"),
        }
    }

    #[test]
    fn stream_errors_share_the_v1_taxonomy() {
        for code in WireError::ALL {
            let mut buf = Vec::new();
            write_err(&mut buf, code, "why it failed").unwrap();
            let mut r = io::BufReader::new(&buf[..]);
            match read_stream_response(&mut r).unwrap().unwrap() {
                StreamResponse::Rejected { code: got, detail } => {
                    assert_eq!(got, code);
                    assert_eq!(detail, "why it failed");
                }
                other => panic!("expected ERR, got {other:?}"),
            }
        }
    }

    fn record(area: u64) -> RetiredComponent {
        RetiredComponent {
            min_pos_col: 0,
            min_pos_row: 0,
            area,
            min_row: 0,
            max_row: 0,
            min_col: 0,
            max_col: 0,
            sum_row: 0,
            sum_col: 0,
            perimeter: 4,
        }
    }

    #[test]
    fn hostile_stream_responses_are_typed_errors() {
        let kind = |bytes: &[u8]| read_stream_response(&mut &bytes[..]).unwrap_err().kind();
        let mut one = Vec::new();
        encode_record(&record(1), &mut one);
        // The retired per-record framing: a count-less header is refused
        // before any record is misread.
        let mut old = b"STREAM 2 2\n56\n".to_vec();
        old.extend_from_slice(&one);
        old.extend_from_slice(b"0\nEND 1\n");
        assert_eq!(kind(&old), io::ErrorKind::InvalidData);
        // payload_len != components × 56.
        let mut short = b"STREAM 2 2 1 55\n".to_vec();
        short.extend_from_slice(&one[..55]);
        assert_eq!(kind(&short), io::ErrorKind::InvalidData);
        // More records than pixels.
        let mut scratch = Vec::new();
        let mut crowded = Vec::new();
        write_stream_ok(&mut crowded, 1, 1, &[record(1), record(1)], &mut scratch).unwrap();
        assert!(crowded.starts_with(b"STREAM 1 1 2 112\n"));
        assert_eq!(kind(&crowded), io::ErrorKind::InvalidData);
        // A payload cut short.
        let mut cut = b"STREAM 2 2 1 56\n".to_vec();
        cut.extend_from_slice(&one[..10]);
        assert_eq!(kind(&cut), io::ErrorKind::UnexpectedEof);
        // A header promising 4 Gi records (240 GB) followed by a few bytes:
        // the reader allocates a fixed head start and what arrives, not
        // what is promised.
        let huge = 1u64 << 32;
        let mut lying = format!("STREAM 65536 65536 {huge} {}\n", huge * 56).into_bytes();
        lying.extend_from_slice(&one);
        lying.extend_from_slice(&one[..3]);
        assert_eq!(kind(&lying), io::ErrorKind::UnexpectedEof);
    }

    /// A `BufRead` that counts the calls made on it.
    struct Counting<R> {
        inner: R,
        calls: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl<R: BufRead> BufRead for Counting<R> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.calls += 1;
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt)
        }
    }

    #[test]
    fn stream_replies_decode_in_a_bounded_number_of_reads() {
        // Per-record framing made one read call per prefix byte: more than
        // 8,000 calls for 4,096 records. The counted payload is decoded
        // straight out of the reader's buffer.
        let records: Vec<RetiredComponent> = (1..=4096).map(record).collect();
        let mut buf = Vec::new();
        write_stream_ok(&mut buf, 128, 128, &records, &mut Vec::new()).unwrap();
        let mut r = Counting {
            inner: &buf[..],
            calls: 0,
        };
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => assert_eq!(job.records, records),
            other => panic!("expected STREAM, got {other:?}"),
        }
        assert!(r.calls <= 16, "{} read/fill_buf calls", r.calls);
    }

    #[test]
    fn payload_items_split_across_refills_decode_intact() {
        // A tiny reader buffer splits records and labels across refills,
        // exercising the carry.
        let records: Vec<RetiredComponent> = (1..=40).map(record).collect();
        let mut buf = Vec::new();
        write_stream_ok(&mut buf, 8, 8, &records, &mut Vec::new()).unwrap();
        let labels: Vec<u32> = (0..64).map(|i| i * 0x0101_0101).collect();
        write_ok(&mut buf, 8, 8, 3, &labels, &mut Vec::new()).unwrap();
        let mut r = io::BufReader::with_capacity(5, &buf[..]);
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => assert_eq!(job.records, records),
            other => panic!("expected STREAM, got {other:?}"),
        }
        match read_response(&mut r).unwrap().unwrap() {
            Response::Ok(ok) => assert_eq!(ok.labels, labels),
            other => panic!("expected OK, got {other:?}"),
        }
        assert!(read_response(&mut r).unwrap().is_none());
    }

    #[test]
    fn pbm_taxonomy_maps_to_wire_codes() {
        assert_eq!(
            WireError::from_pbm(&PbmError::DimsOverflow { rows: 9, cols: 9 }),
            WireError::Overflow
        );
        assert_eq!(
            WireError::from_pbm(&PbmError::TruncatedHeader),
            WireError::BadFrame
        );
        assert_eq!(
            WireError::from_pbm(&PbmError::LyingLengthPrefix { declared: 1 }),
            WireError::BadFrame
        );
    }
}
