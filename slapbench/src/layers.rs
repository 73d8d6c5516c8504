//! The traced per-layer replay: the seed's frames, replayed through each
//! layer's public function with one span per call. Every output is checked
//! against the BFS references, outside the spans.
//!
//! The corpus is the offline deck plus the serve mix of the same seed, so
//! every traced run reports every layer the same way.

use crate::corpus::{self, Digest, Frame};
use crate::offline::{self, conn_digit};
use crate::serve::{self, Mode};
use crate::trace::{self, Span, Tracer};
use crate::{Checks, Metric};
use slap_cc::EngineKind;
use slap_image::pbm::{self, PbmRowReader};
use slap_image::{label_stream, LabelGrid, OocRun, OutOfCoreLabeler, TileStats};
use slap_serve::protocol::{self, Response, StreamResponse};
use std::hint::black_box;
use std::time::Instant;

/// Replays per deck entry, per 256² frame, and of the large frame.
const DECK_REPS: usize = 3;
const SMALL_REPS: usize = 4;
const LARGE_REPS: usize = 3;

/// Frame ids of the replay spans: deck entries are `0..8`, serve frames
/// are offset by this.
const SERVE_ID: u64 = 100;

/// Replayed layer chains whose medians `server.overhead_ms` subtracts from
/// the round trip, per workload.
pub const OFFLINE_CHAIN: &[&str] = &["pbm.read", "engine.fast.label"];
pub const GRID_CHAIN: &[&str] = &[
    "pbm.write_framed",
    "pbm.read.256",
    "engine.fast.label.256",
    "protocol.write_ok.256",
    "protocol.read_response.256",
];
pub const STREAM_CHAIN: &[&str] = &[
    "pbm.write_framed",
    "stream.label",
    "protocol.write_stream_ok.256",
    "protocol.read_stream_response.256",
];

/// Span name → per-layer metric name (all medians, in ms).
const TIMED: &[(&str, &str)] = &[
    ("pbm.read", "pbm.read_ms"),
    ("pbm.read.256", "pbm.read_256_ms"),
    ("pbm.write_framed", "pbm.write_framed_ms"),
    ("engine.fast.label", "engine.fast.label_ms"),
    ("engine.fast.label.256", "engine.fast.label_256_ms"),
    ("engine.parallel.label", "engine.parallel.label_ms"),
    ("engine.tiled.label", "engine.tiled.label_ms"),
    ("stream.label", "stream.label_ms"),
    ("ooc.label", "ooc.label_ms"),
    ("protocol.write_ok.256", "protocol.write_ok_256_ms"),
    ("protocol.write_ok.2048", "protocol.write_ok_2048_ms"),
    (
        "protocol.read_response.256",
        "protocol.read_response_256_ms",
    ),
    (
        "protocol.read_response.2048",
        "protocol.read_response_2048_ms",
    ),
    (
        "protocol.write_stream_ok.256",
        "protocol.write_stream_ok_256_ms",
    ),
    (
        "protocol.write_stream_ok.2048",
        "protocol.write_stream_ok_2048_ms",
    ),
    (
        "protocol.read_stream_response.256",
        "protocol.read_stream_response_256_ms",
    ),
    (
        "protocol.read_stream_response.2048",
        "protocol.read_stream_response_2048_ms",
    ),
];

pub struct Replay {
    pub spans: Vec<Span>,
    pub metrics: Vec<Metric>,
}

fn grid_of(resp: std::io::Result<Option<Response>>) -> Option<Digest> {
    match resp {
        Ok(Some(Response::Ok(ok))) => Some(corpus::grid_digest(ok.components, &ok.labels)),
        _ => None,
    }
}

fn stream_of(resp: std::io::Result<Option<StreamResponse>>) -> Option<Digest> {
    match resp {
        Ok(Some(StreamResponse::Ok(ok))) => Some(corpus::stream_digest(ok.rows, &ok.records)),
        _ => None,
    }
}

pub fn replay(seed: u64, epoch: Instant, checks: &mut Checks) -> Replay {
    let mut t = Tracer::new(epoch, true);
    let mut metrics = Vec::new();
    let mut count = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit, None));
    };
    let mut grid = LabelGrid::new_background(1, 1);

    // The offline deck through `pbm::read` and a warm fast session. The
    // warm-up pass also takes the exact work counts.
    let (images, entries) = offline::deck(seed);
    let deck_refs: Vec<Digest> = entries
        .iter()
        .map(|e| corpus::reference(&images[e.image].img, e.conn).0)
        .collect();
    let mut fast = EngineKind::Fast.session(1);
    let (mut runs, mut components, mut tiles) = (0, 0, TileStats::default());
    for e in &entries {
        let img = pbm::read(&images[e.image].pbm[..]).expect("deck frame decodes");
        let stats = fast.label_into(&img, e.conn, &mut grid);
        runs += stats.runs;
        components += stats.components;
        tiles.accumulate(stats.tiles);
    }
    for _ in 0..DECK_REPS {
        for (i, e) in entries.iter().enumerate() {
            let id = i as u64;
            t.set_kind(i);
            let root = t.open("replay.offline", None, id);
            let img = t.time("pbm.read", Some(root), id, || {
                pbm::read(black_box(&images[e.image].pbm[..]))
            });
            let got = img.ok().map(|img| {
                let c = t.time("engine.fast.label", Some(root), id, || {
                    fast.label_into(&img, e.conn, &mut grid).components
                });
                corpus::grid_digest(c, grid.as_slice())
            });
            t.close(root);
            checks.check(got, deck_refs[i]);
        }
    }
    count("engine.fast.runs", runs as f64, "count");
    count("engine.fast.components", components as f64, "count");
    count(
        "engine.fast.tiles_skipped_share",
        (tiles.background + tiles.interior) as f64 / tiles.total() as f64,
        "share",
    );
    count(
        "engine.fast.scratch_bytes",
        fast.scratch_bytes() as f64,
        "bytes",
    );
    drop(images);

    // The serve mix at the server's connectivity.
    let conn = serve::config(Mode::Grid).conn;
    let frames = serve::frames(seed);
    let refs: Vec<(Digest, Digest)> = frames
        .iter()
        .map(|f| corpus::reference(&f.img, conn))
        .collect();
    let (large, small) = frames
        .split_last()
        .expect("the mix ends with the large frame");
    let large_id = SERVE_ID + small.len() as u64;
    let (large_grid_ref, large_stream_ref) = refs[small.len()];
    let mut out = Vec::new();
    let mut scratch = Vec::new();

    // The large frame: threaded engines, out-of-core, and the bulk codecs.
    let mut parallel = EngineKind::Parallel.session(2);
    let mut tiled = EngineKind::Tiled {
        tiles_x: 1,
        tiles_y: 2,
    }
    .session(2);
    let mut ooc = OutOfCoreLabeler::new(serve::config(Mode::Stream).ooc_band_rows, 1);
    let ooc_run = |ooc: &mut OutOfCoreLabeler, f: &Frame| -> std::io::Result<OocRun> {
        let mut rows = PbmRowReader::new(&f.pbm[..])?;
        ooc.label_source(&mut rows, conn)
    };
    parallel.label_into(&large.img, conn, &mut grid);
    tiled.label_into(&large.img, conn, &mut grid);
    ooc_run(&mut ooc, large).expect("large frame streams");
    let (mut grid_bytes, mut stream_bytes, mut peak_carried) = (0, 0, 0);
    t.set_kind(0);
    for _ in 0..LARGE_REPS {
        let id = large_id;
        let mut c = 0;
        for (name, session) in [
            ("engine.parallel.label", &mut parallel),
            ("engine.tiled.label", &mut tiled),
        ] {
            c = t.time(name, None, id, || {
                session.label_into(&large.img, conn, &mut grid).components
            });
            checks.check(
                Some(corpus::grid_digest(c, grid.as_slice())),
                large_grid_ref,
            );
        }
        let (rows, cols) = (grid.rows(), grid.cols());
        out.clear();
        t.time("protocol.write_ok.2048", None, id, || {
            protocol::write_ok(&mut out, rows, cols, c, grid.as_slice(), &mut scratch)
        })
        .expect("encode into memory");
        grid_bytes = out.len();
        let got = t.time("protocol.read_response.2048", None, id, || {
            protocol::read_response(&mut &out[..])
        });
        checks.check(grid_of(got), large_grid_ref);

        let run = t.time("ooc.label", None, id, || ooc_run(&mut ooc, large));
        let records = match run {
            Ok(run) => {
                peak_carried = peak_carried.max(run.stats.peak_carried_runs);
                checks.check(
                    Some(corpus::stream_digest(rows, &run.components)),
                    large_stream_ref,
                );
                run.components
            }
            Err(_) => {
                checks.check(None, large_stream_ref);
                continue;
            }
        };
        out.clear();
        t.time("protocol.write_stream_ok.2048", None, id, || {
            protocol::write_stream_ok(&mut out, rows, cols, &records, &mut scratch)
        })
        .expect("encode into memory");
        stream_bytes = out.len();
        let got = t.time("protocol.read_stream_response.2048", None, id, || {
            protocol::read_stream_response(&mut &out[..])
        });
        checks.check(stream_of(got), large_stream_ref);
    }
    count("ooc.peak_carried_runs", peak_carried as f64, "count");
    count("protocol.response_bytes_2048", grid_bytes as f64, "bytes");
    count(
        "protocol.stream_response_bytes_2048",
        stream_bytes as f64,
        "bytes",
    );

    // The 256² frames through the grid path and the stream path, in the
    // order a request passes the layers.
    let mut framed = Vec::new();
    let (mut records_total, mut peak_frontier) = (0, 0);
    let (mut small_grid_bytes, mut small_stream_bytes) = (0, 0);
    for _ in 0..SMALL_REPS {
        for (k, f) in small.iter().enumerate() {
            let id = SERVE_ID + k as u64;
            t.set_kind(serve::family_of(k));
            let (grid_ref, stream_ref) = refs[k];
            let (rows, cols) = (f.img.rows(), f.img.cols());

            let root = t.open("replay.grid", None, id);
            framed.clear();
            t.time("pbm.write_framed", Some(root), id, || {
                pbm::write_framed(black_box(&f.img), &mut framed)
            })
            .expect("encode into memory");
            let img = t.time("pbm.read.256", Some(root), id, || {
                pbm::read(black_box(&f.pbm[..]))
            });
            let c = img.ok().map(|img| {
                t.time("engine.fast.label.256", Some(root), id, || {
                    fast.label_into(&img, conn, &mut grid).components
                })
            });
            out.clear();
            t.time("protocol.write_ok.256", Some(root), id, || {
                protocol::write_ok(
                    &mut out,
                    rows,
                    cols,
                    c.unwrap_or(0),
                    grid.as_slice(),
                    &mut scratch,
                )
            })
            .expect("encode into memory");
            small_grid_bytes += out.len();
            let got = t.time("protocol.read_response.256", Some(root), id, || {
                protocol::read_response(&mut &out[..])
            });
            t.close(root);
            checks.check(c.and(grid_of(got)), grid_ref);

            let root = t.open("replay.stream", None, id);
            framed.clear();
            t.time("pbm.write_framed", Some(root), id, || {
                pbm::write_framed(black_box(&f.img), &mut framed)
            })
            .expect("encode into memory");
            let run = t.time("stream.label", Some(root), id, || {
                let mut rows = PbmRowReader::new(black_box(&f.pbm[..]))?;
                label_stream(&mut rows, conn)
            });
            let Ok(run) = run else {
                t.close(root);
                checks.check(None, stream_ref);
                continue;
            };
            records_total += run.components.len();
            peak_frontier = peak_frontier.max(run.stats.peak_frontier_runs);
            out.clear();
            t.time("protocol.write_stream_ok.256", Some(root), id, || {
                protocol::write_stream_ok(&mut out, rows, cols, &run.components, &mut scratch)
            })
            .expect("encode into memory");
            small_stream_bytes += out.len();
            let got = t.time("protocol.read_stream_response.256", Some(root), id, || {
                protocol::read_stream_response(&mut &out[..])
            });
            t.close(root);
            checks.check(stream_of(got), stream_ref);
        }
    }
    let small_jobs = (SMALL_REPS * small.len()) as f64;
    count(
        "stream.records_per_frame",
        records_total as f64 / small_jobs,
        "count",
    );
    count("stream.peak_frontier_runs", peak_frontier as f64, "count");
    count(
        "protocol.response_bytes_256",
        small_grid_bytes as f64 / small_jobs,
        "bytes",
    );
    count(
        "protocol.stream_response_bytes_256",
        small_stream_bytes as f64 / small_jobs,
        "bytes",
    );

    let spans = t.into_spans();
    for (span, metric) in TIMED {
        let (p50, n) = trace::pct_ms(&spans, span, 500);
        metrics.push(Metric::new(metric, p50, "ms", Some(n)));
    }
    // One median per deck entry.
    for (i, e) in entries.iter().enumerate() {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "engine.fast.label" && s.frame == i as u64)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        let name = format!(
            "engine.fast.label_ms.{}.c{}",
            corpus::DECK_FAMILIES[e.image],
            conn_digit(e.conn)
        );
        metrics.push(Metric::new(
            &name,
            crate::stats::median(&d),
            "ms",
            Some(d.len()),
        ));
    }
    Replay { spans, metrics }
}
