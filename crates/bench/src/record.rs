//! `slap-bench record`: the one wall-clock recorder. A single sweep times
//! every host engine, the record paths, the lock-step machine and `slapd`,
//! and writes them to one `BENCH.json` (schema [`SCHEMA`]) that one
//! [`validate`] checks.
//!
//! The file has three parts:
//!
//! * a header recorded once — `scale`, `seed`, `host_threads`, `commit`,
//!   the swept families and sides;
//! * `entries`, one row shape for every timed (engine, family, n, conn)
//!   point. They come from one [`sweep::drive`] pass. At each point the
//!   BFS oracle labels the frame once, and then the pass times
//!   - every [`registry`] session cold and warm: `parallel` as `T × 1`
//!     strips at every `T` in [`STRIP_THREADS`], `tiled` at every shape in
//!     [`TILE_SHAPES`], the sequential engines on one thread;
//!   - the two bounded-memory record paths, `stream` ([`StreamLabeler`])
//!     and `ooc` ([`label_out_of_core`]);
//!   - the paper's simulated run-based Algorithm CC (`slap-sim-runs`).
//!
//!   The strip two-pass of Gupta et al. (arXiv 1606.05973) is the
//!   one-column case of the coarse-to-fine tiling of Chen et al. (arXiv
//!   1712.09789), so strips and tiles share one row shape;
//! * `lockstep` (the paper's pipeline vs. the propagation kernel in exact
//!   machine rounds) and `serve` (`slapd` sustained jobs/sec under 1, 4 and
//!   16 clients), the two measurements that are not per-frame host timings.
//!
//! Every grid-producing row is checked bit-identical to the oracle while it
//! is timed; the record paths carry their own correctness witnesses
//! (`feature_equivalent`, `components_match`).

use crate::json::{self, Fields, Json, ObjectWriter};
use crate::sweep::{self, conn_id, Point, CONNS, SEED};
use slap_cc::engine::{registry, EngineKind, EngineStats};
use slap_cc::features::{component_features, streamed_features};
use slap_cc::lockstep_cc::label_components_lockstep;
use slap_cc::lockstep_propagate::propagate_components_lockstep;
use slap_cc::{label_components_runs, CcOptions};
use slap_image::stream::StreamLabeler;
use slap_image::{
    bfs_labels_conn, gen, label_out_of_core, Bitmap, BitmapRows, Connectivity, LabelGrid, TileStats,
};
use slap_serve::{Client, RetryPolicy, ServeConfig, Server};
use slap_unionfind::RankHalvingUf;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier stamped into (and required from) `BENCH.json`.
pub const SCHEMA: &str = "slap-bench/v1";

/// Engine id of the simulated run-based Algorithm CC column: a paper
/// simulation, not a host engine, so not a registry row.
pub const SIM: &str = "slap-sim-runs";

/// Tile grids swept by the `tiled` rows, as `(tiles_y, tiles_x)`: the two
/// degenerate single-axis cuts, the canonical quad, and a deeper hierarchy.
pub const TILE_SHAPES: &[(usize, usize)] = &[(1, 2), (2, 1), (2, 2), (4, 4)];

/// Worker threads given to every `tiled` row.
pub const TILE_THREADS: usize = 4;

/// Thread counts swept by the `parallel` rows (`T × 1` tiles on `T`
/// workers).
pub const STRIP_THREADS: &[usize] = &[1, 2, 4, 8];

/// The fast engine's required speedup over the oracle on `random50` @ 2048²,
/// 4-connectivity.
pub const FAST_SPEEDUP: f64 = 5.0;

/// Regression bound on the fast engine's 8-over-4-connectivity wall-clock
/// ratio on `random50` @ 2048². It fails the record if the 8-connectivity
/// path ever falls off the word-level kernel onto a per-run slow path.
pub const EIGHT_OVER_FOUR_BOUND: f64 = 2.2;

/// Required speedup of tiled 2×2 @ [`TILE_THREADS`] over the fast engine on
/// `random50` @ 2048², 4-connectivity, on hosts with ≥ [`MIN_HOST_THREADS`]
/// hardware threads.
pub const TILED_SPEEDUP: f64 = 1.5;

/// Required speedup of the `parallel` strips @ 4 threads over the fast
/// engine at the same point and under the same host condition.
pub const STRIP_SPEEDUP: f64 = 1.8;

/// Minimum recorded `host_threads` for the thread-scaling gates to apply: a
/// narrower host cannot exhibit the wall-clock speedup.
pub const MIN_HOST_THREADS: usize = 4;

/// Required speedup of the propagate engine over the oracle on `random50` @
/// 2048², under both connectivities.
pub const PROPAGATE_SPEEDUP: f64 = 2.0;

/// Families the propagate rows must cover: long snaking components that
/// maximize label-travel distance for naive relaxation.
pub const ADVERSARIAL_FAMILIES: &[&str] = &["spiral", "serpentine", "hilbert"];

/// Concurrency levels every `serve` sweep covers.
pub const CLIENT_COUNTS: &[usize] = &[1, 4, 16];

/// Response modes every `serve` sweep covers: `grid` (v1 whole-grid
/// payloads), `stream` (protocol-v2 feature records, in-core), and `ooc`
/// (stream mode against a server whose `max_pixels` routing threshold,
/// `n²/4`, pushes every job through the out-of-core band scheduler).
pub const MODES: &[&str] = &["grid", "stream", "ooc"];

/// Worker threads of the benched `slapd`.
pub const WORKERS: usize = 2;

/// Host sweep per scale: the families and sides the retired recorders
/// swept between them (`fig3a` for the paper column, the
/// [`ADVERSARIAL_FAMILIES`] for propagate).
fn sweep_params(quick: bool) -> (&'static [&'static str], &'static [usize]) {
    const FAMILIES: &[&str] = &[
        "random50",
        "blobs",
        "checker",
        "fig3a",
        "spiral",
        "serpentine",
        "hilbert",
    ];
    if quick {
        (FAMILIES, &[64, 128, 256])
    } else {
        (FAMILIES, &[256, 512, 1024, 2048])
    }
}

/// Lock-step sweep per scale: small frames, because the simulator pays
/// `O(rounds × PEs)` host work and the propagation kernel's rounds grow
/// with label-travel distance.
fn lockstep_params(quick: bool) -> (&'static [&'static str], &'static [usize]) {
    const FAMILIES: &[&str] = &["random50", "blobs", "spiral"];
    if quick {
        (FAMILIES, &[16])
    } else {
        (FAMILIES, &[32])
    }
}

/// `slapd` sweep per scale: families, sides, and the window per point.
fn serve_params(quick: bool) -> (&'static [&'static str], &'static [usize], Duration) {
    if quick {
        (&["random50"], &[128], Duration::from_millis(250))
    } else {
        (
            &["random50", "blobs"],
            &[128, 256],
            Duration::from_millis(1000),
        )
    }
}

/// One timed (engine, family, n, conn) row. Optional fields are the
/// counters and witnesses of the engines that have them.
#[derive(Clone, Debug, Default)]
pub struct Entry {
    /// A registry name ([`EngineKind::name`]), `stream`, `ooc`, or [`SIM`].
    pub engine: String,
    /// Workload family name (a `gen::by_name` key).
    pub family: String,
    /// Image side (the image is `n × n`).
    pub n: usize,
    /// Adjacency convention: `4` or `8`.
    pub conn: u32,
    /// Tile grid `(tiles_y, tiles_x)`: `(1, 1)` for whole-frame engines,
    /// `(threads, 1)` for strips, `(1, tiles_x)` for out-of-core bands.
    pub grid: (usize, usize),
    /// Worker threads.
    pub threads: usize,
    /// Best wall-clock nanoseconds (a warm session for registry rows).
    pub best_ns: u64,
    /// Mean wall-clock nanoseconds.
    pub mean_ns: u64,
    /// Timed repetitions.
    pub reps: usize,
    /// Registry rows: `(best, mean)` nanoseconds with a fresh session and
    /// grid built inside every call.
    pub cold: Option<(u64, u64)>,
    /// Grid-producing rows: labels were bit-identical to the oracle.
    pub bit_identical: Option<bool>,
    /// Engines with a coarse-to-fine first pass: the word × 2-row tile
    /// classification of the timed call.
    pub tiles: Option<TileStats>,
    /// Iterative engines: relaxation rounds to the fixpoint, including the
    /// final no-change round.
    pub iterations: Option<usize>,
    /// Iterative engines: pointer-jumping label-reduction passes.
    pub reduction_passes: Option<usize>,
    /// `ooc`: rows resident per band (below `n`, so the frame exceeded the
    /// budget).
    pub band_rows: Option<usize>,
    /// `ooc`: peak carried seam runs across band boundaries.
    pub peak_carried_runs: Option<usize>,
    /// `ooc`: the retired label set matched the oracle's components.
    pub components_match: Option<bool>,
    /// `stream`: largest frontier (runs of one row) observed.
    pub peak_frontier_runs: Option<usize>,
    /// `stream`: largest live union–find slab occupancy observed.
    pub peak_nodes: Option<usize>,
    /// `stream`: the retired feature multiset matched the whole-frame
    /// reference.
    pub feature_equivalent: Option<bool>,
}

/// One lock-step machine comparison: the paper's pipeline and the iterative
/// propagation kernel on the same generated input.
#[derive(Clone, Debug)]
pub struct LockstepEntry {
    /// Workload family name.
    pub family: String,
    /// Image side.
    pub n: usize,
    /// Adjacency convention: `4` or `8`.
    pub conn: u32,
    /// Total simulated rounds of the pipeline Algorithm CC run.
    pub pipeline_rounds: u64,
    /// Total simulated rounds of the propagation run.
    pub propagate_rounds: u64,
    /// Total PE ticks of the propagation run (the PRAM-style work).
    pub propagate_ticks: u64,
    /// Jacobi iterations of the propagation run, including the final
    /// no-change iteration.
    pub propagate_iterations: u64,
    /// Both kernels produced the same labeling.
    pub labels_match: bool,
}

/// One `slapd` measurement: (family, n, conn, mode, clients).
#[derive(Clone, Debug)]
pub struct ServeEntry {
    /// Workload family name.
    pub family: String,
    /// Image side (jobs are `n × n`).
    pub n: usize,
    /// Adjacency convention: `4` or `8`.
    pub conn: u32,
    /// Response mode: one of [`MODES`].
    pub mode: String,
    /// Concurrent clients driving the server.
    pub clients: usize,
    /// Measurement window actually elapsed, nanoseconds.
    pub elapsed_ns: u64,
    /// Jobs answered `OK` inside the window.
    pub jobs_ok: u64,
    /// Jobs that exhausted their retries.
    pub failures: u64,
    /// Client-side retries (reconnect + resubmit events).
    pub retries: u64,
    /// Server-side typed rejections during the window.
    pub rejected: u64,
    /// Jobs the server routed through the out-of-core band scheduler.
    pub ooc_jobs: u64,
    /// The server's peak carried runs across all streamed jobs.
    pub peak_carried_runs: u64,
    /// Server worker threads.
    pub workers: usize,
}

/// A finished record, ready to serialize.
#[derive(Clone, Debug)]
pub struct Report {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Seed of the random workload families.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_threads: usize,
    /// `git rev-parse --short HEAD` of the recording checkout, `-dirty`
    /// when tracked files differed, or `unknown` outside git.
    pub commit: String,
    /// Families of the host sweep.
    pub families: Vec<String>,
    /// Sides of the host sweep.
    pub sides: Vec<usize>,
    /// Every timed host row.
    pub entries: Vec<Entry>,
    /// Every lock-step comparison.
    pub lockstep: Vec<LockstepEntry>,
    /// Every `slapd` measurement.
    pub serve: Vec<ServeEntry>,
}

impl Entry {
    /// A row at sweep point `p` with no engine-specific fields set.
    fn at(p: &Point, engine: &str, (best_ns, mean_ns): (u64, u64), reps: usize) -> Entry {
        Entry {
            engine: engine.to_string(),
            family: p.family.to_string(),
            n: p.n,
            conn: p.cid,
            grid: (1, 1),
            threads: 1,
            best_ns,
            mean_ns,
            reps,
            ..Entry::default()
        }
    }

    /// The engine with its shape: `tiled@2x2`, `parallel@4`, else the id.
    fn label(&self) -> String {
        match self.engine.as_str() {
            "tiled" => format!("tiled@{}x{}", self.grid.0, self.grid.1),
            "parallel" => format!("parallel@{}", self.threads),
            id => id.to_string(),
        }
    }

    fn to_json(&self) -> String {
        let tiles = self.tiles;
        ObjectWriter::default()
            .str("engine", &self.engine)
            .str("family", &self.family)
            .raw("n", self.n)
            .raw("conn", self.conn)
            .raw("tiles_y", self.grid.0)
            .raw("tiles_x", self.grid.1)
            .raw("threads", self.threads)
            .raw("best_ns", self.best_ns)
            .raw("mean_ns", self.mean_ns)
            .raw("reps", self.reps)
            .opt("cold_best_ns", self.cold.map(|c| c.0))
            .opt("cold_mean_ns", self.cold.map(|c| c.1))
            .opt("bit_identical", self.bit_identical)
            .opt("tiles_background", tiles.map(|t| t.background))
            .opt("tiles_interior", tiles.map(|t| t.interior))
            .opt("tiles_boundary", tiles.map(|t| t.boundary))
            .opt("iterations", self.iterations)
            .opt("reduction_passes", self.reduction_passes)
            .opt("band_rows", self.band_rows)
            .opt("peak_carried_runs", self.peak_carried_runs)
            .opt("components_match", self.components_match)
            .opt("peak_frontier_runs", self.peak_frontier_runs)
            .opt("peak_nodes", self.peak_nodes)
            .opt("feature_equivalent", self.feature_equivalent)
            .finish()
    }

    fn from_json(f: &Fields) -> Result<Entry, String> {
        let int = |key| f.opt(key, "an integer", Json::as_u64);
        let tiles = match (
            int("tiles_background")?,
            int("tiles_interior")?,
            int("tiles_boundary")?,
        ) {
            (None, None, None) => None,
            (Some(background), Some(interior), Some(boundary)) => Some(TileStats {
                background,
                interior,
                boundary,
            }),
            _ => return Err(f.err("partial tile counters")),
        };
        let cold = match (int("cold_best_ns")?, int("cold_mean_ns")?) {
            (None, None) => None,
            (Some(best), Some(mean)) => Some((best, mean)),
            _ => return Err(f.err("cold_best_ns and cold_mean_ns come as a pair")),
        };
        Ok(Entry {
            engine: f.str("engine")?.to_string(),
            family: f.str("family")?.to_string(),
            n: f.usize("n")?,
            conn: f.u64("conn")? as u32,
            grid: (f.usize("tiles_y")?, f.usize("tiles_x")?),
            threads: f.usize("threads")?,
            best_ns: f.u64("best_ns")?,
            mean_ns: f.u64("mean_ns")?,
            reps: f.usize("reps")?,
            cold,
            bit_identical: f.opt_bool("bit_identical")?,
            tiles,
            iterations: f.opt_usize("iterations")?,
            reduction_passes: f.opt_usize("reduction_passes")?,
            band_rows: f.opt_usize("band_rows")?,
            peak_carried_runs: f.opt_usize("peak_carried_runs")?,
            components_match: f.opt_bool("components_match")?,
            peak_frontier_runs: f.opt_usize("peak_frontier_runs")?,
            peak_nodes: f.opt_usize("peak_nodes")?,
            feature_equivalent: f.opt_bool("feature_equivalent")?,
        })
    }
}

impl LockstepEntry {
    fn to_json(&self) -> String {
        ObjectWriter::default()
            .str("family", &self.family)
            .raw("n", self.n)
            .raw("conn", self.conn)
            .raw("pipeline_rounds", self.pipeline_rounds)
            .raw("propagate_rounds", self.propagate_rounds)
            .raw("propagate_ticks", self.propagate_ticks)
            .raw("propagate_iterations", self.propagate_iterations)
            .raw("labels_match", self.labels_match)
            .finish()
    }

    fn from_json(f: &Fields) -> Result<LockstepEntry, String> {
        Ok(LockstepEntry {
            family: f.str("family")?.to_string(),
            n: f.usize("n")?,
            conn: f.u64("conn")? as u32,
            pipeline_rounds: f.u64("pipeline_rounds")?,
            propagate_rounds: f.u64("propagate_rounds")?,
            propagate_ticks: f.u64("propagate_ticks")?,
            propagate_iterations: f.u64("propagate_iterations")?,
            labels_match: f.bool("labels_match")?,
        })
    }
}

impl ServeEntry {
    /// Sustained throughput over the measured window.
    fn jobs_per_sec(&self) -> f64 {
        self.jobs_ok as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-9)
    }

    fn to_json(&self) -> String {
        ObjectWriter::default()
            .str("family", &self.family)
            .raw("n", self.n)
            .raw("conn", self.conn)
            .str("mode", &self.mode)
            .raw("clients", self.clients)
            .raw("elapsed_ns", self.elapsed_ns)
            .raw("jobs_ok", self.jobs_ok)
            .raw("failures", self.failures)
            .raw("retries", self.retries)
            .raw("rejected", self.rejected)
            .raw("ooc_jobs", self.ooc_jobs)
            .raw("peak_carried_runs", self.peak_carried_runs)
            .raw("workers", self.workers)
            .raw("jobs_per_sec", format!("{:.1}", self.jobs_per_sec()))
            .finish()
    }

    fn from_json(f: &Fields) -> Result<ServeEntry, String> {
        Ok(ServeEntry {
            family: f.str("family")?.to_string(),
            n: f.usize("n")?,
            conn: f.u64("conn")? as u32,
            mode: f.str("mode")?.to_string(),
            clients: f.usize("clients")?,
            elapsed_ns: f.u64("elapsed_ns")?,
            jobs_ok: f.u64("jobs_ok")?,
            failures: f.u64("failures")?,
            retries: f.u64("retries")?,
            rejected: f.u64("rejected")?,
            ooc_jobs: f.u64("ooc_jobs")?,
            peak_carried_runs: f.u64("peak_carried_runs")?,
            workers: f.usize("workers")?,
        })
    }
}

/// The registry sessions timed at every point: sequential engines on one
/// thread, `parallel` at every [`STRIP_THREADS`], `tiled` at every
/// [`TILE_SHAPES`].
fn sessions() -> Vec<(EngineKind, usize)> {
    registry()
        .iter()
        .flat_map(|info| match info.kind {
            EngineKind::Parallel => STRIP_THREADS
                .iter()
                .map(|&t| (EngineKind::Parallel, t))
                .collect(),
            EngineKind::Tiled { .. } => TILE_SHAPES
                .iter()
                .map(|&(tiles_y, tiles_x)| (EngineKind::Tiled { tiles_x, tiles_y }, TILE_THREADS))
                .collect(),
            kind => vec![(kind, 1)],
        })
        .collect()
}

/// Best, total and count of timed calls.
struct Samples {
    best: u64,
    total: u128,
    reps: usize,
}

impl Samples {
    const NONE: Samples = Samples {
        best: u64::MAX,
        total: 0,
        reps: 0,
    };

    fn time(&mut self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        self.best = self.best.min(ns);
        self.total += u128::from(ns);
        self.reps += 1;
    }

    fn mean(&self) -> u64 {
        (self.total / self.reps as u128) as u64
    }
}

/// Times one registry session at `p`: a block of cold calls (a fresh
/// session and grid inside every call), then a block of warm calls (one
/// session and grid, warmed twice so double-buffered arenas reach their
/// high-water mark).
///
/// A warm call does strictly less work than a cold one, but on a loaded
/// host one best-of-N sample can invert. Each further attempt times both
/// blocks again, the warm one on a newly opened session and grid, and
/// keeps the running minimum of each (more samples only tighten a floor)
/// until the ordering settles.
fn time_session(p: &Point, kind: EngineKind, threads: usize, truth: &LabelGrid) -> Entry {
    let (mut cold, mut warm) = (Samples::NONE, Samples::NONE);
    let mut stats = EngineStats::default();
    let mut identical = false;
    for attempt in 0..6 {
        let reps = p.reps << attempt.min(3);
        for _ in 0..reps {
            cold.time(|| {
                let mut grid = LabelGrid::new_background(1, 1);
                kind.session(threads)
                    .label_into(black_box(p.img), p.conn, &mut grid);
                black_box(&grid);
            });
        }
        let mut session = kind.session(threads);
        let mut grid = LabelGrid::new_background(1, 1);
        session.label_into(p.img, p.conn, &mut grid);
        session.label_into(p.img, p.conn, &mut grid);
        for _ in 0..reps {
            warm.time(|| stats = session.label_into(black_box(p.img), p.conn, &mut grid));
        }
        identical = grid == *truth;
        if warm.best <= cold.best {
            break;
        }
    }
    let iterative = stats.iterations > 0;
    Entry {
        grid: match kind {
            EngineKind::Tiled { tiles_x, tiles_y } => (tiles_y, tiles_x),
            EngineKind::Parallel => (threads, 1),
            _ => (1, 1),
        },
        threads,
        cold: Some((cold.best, cold.mean())),
        bit_identical: Some(identical),
        tiles: Some(stats.tiles).filter(|t| t.total() > 0),
        iterations: iterative.then_some(stats.iterations),
        reduction_passes: iterative.then_some(stats.reduction_passes),
        ..Entry::at(p, kind.name(), (warm.best, warm.mean()), warm.reps)
    }
}

/// One full streaming pass over `img` through a warm labeler: `reset`
/// rewinds it instead of reconstructing, so repeated passes reuse every
/// arena.
fn stream_once(labeler: &mut StreamLabeler, img: &Bitmap, conn: Connectivity) {
    labeler.reset(img.cols(), conn);
    for r in 0..img.rows() {
        labeler.push_row(img.row_words(r));
    }
    labeler.finish();
}

/// The streaming record path at `p`: an untimed pass for the memory peaks
/// and the retired-feature check against the whole-frame reference, then
/// the timed passes.
fn time_stream(p: &Point, truth: &LabelGrid) -> Entry {
    let mut labeler = StreamLabeler::new(p.img.cols(), p.conn);
    stream_once(&mut labeler, p.img, p.conn);
    labeler.drain_retired();
    let stats = labeler.stats();
    let reference = component_features(p.img, truth, p.conn);
    let equivalent = streamed_features(p.img, p.conn) == reference.per_component;
    let timing = sweep::time_reps(p.reps, || {
        stream_once(&mut labeler, black_box(p.img), p.conn);
        black_box(labeler.drain_retired().count());
    });
    Entry {
        peak_frontier_runs: Some(stats.peak_frontier_runs),
        peak_nodes: Some(stats.peak_nodes),
        feature_equivalent: Some(equivalent),
        ..Entry::at(p, "stream", timing, p.reps)
    }
}

/// The out-of-core record path at `p`: a quarter-frame band budget forces
/// ≥ 4 band seams, and the retired label set must equal the oracle's
/// component labels.
fn time_ooc(p: &Point, truth: &LabelGrid) -> Entry {
    let band_rows = (p.n / 4).max(1);
    let tiles_x = 2usize;
    let run = label_out_of_core(&mut BitmapRows::new(p.img), p.conn, band_rows, tiles_x)
        .expect("in-memory rows cannot fail");
    let mut retired: Vec<u64> = run
        .components
        .iter()
        .map(|rec| rec.label(p.img.rows()))
        .collect();
    retired.sort_unstable();
    let mut want: Vec<u64> = truth
        .component_stats()
        .iter()
        .map(|s| u64::from(s.label))
        .collect();
    want.sort_unstable();
    let timing = sweep::time_reps(p.reps, || {
        let mut rows = BitmapRows::new(black_box(p.img));
        label_out_of_core(&mut rows, p.conn, band_rows, tiles_x).expect("in-memory rows");
    });
    Entry {
        grid: (1, tiles_x),
        threads: tiles_x,
        band_rows: Some(band_rows),
        peak_carried_runs: Some(run.stats.peak_carried_runs),
        components_match: Some(retired == want),
        ..Entry::at(p, "ooc", timing, p.reps)
    }
}

/// The simulated SLAP column at `p` (at most three repetitions: the
/// simulation is slow). The identity check runs outside the timed region.
fn time_sim(p: &Point, truth: &LabelGrid) -> Entry {
    let opts = CcOptions {
        connectivity: p.conn,
        ..CcOptions::default()
    };
    let reps = p.reps.min(3);
    let mut labels = None;
    let timing = sweep::time_reps(reps, || {
        labels = Some(label_components_runs::<RankHalvingUf>(black_box(p.img), &opts).labels);
    });
    Entry {
        bit_identical: Some(labels.as_ref() == Some(truth)),
        ..Entry::at(p, SIM, timing, reps)
    }
}

/// Measures one `slapd` point: a fresh server on an ephemeral port driven by
/// `clients` concurrent retrying clients for `window`.
fn serve_point(
    family: &str,
    n: usize,
    conn: Connectivity,
    mode: &str,
    clients: usize,
    window: Duration,
) -> ServeEntry {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            conn,
            workers: WORKERS,
            max_pixels: if mode == "ooc" {
                ((n * n) / 4) as u64
            } else {
                ServeConfig::default().max_pixels
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let drivers: Vec<_> = (0..clients)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let family = family.to_string();
            let grid_mode = mode == "grid";
            std::thread::spawn(move || {
                // Distinct seeds so concurrent clients don't serve one
                // identical job from the page cache of the allocator.
                let img = gen::by_name(&family, n, SEED + i as u64).expect("workload");
                let mut client = Client::with_policy(
                    addr,
                    RetryPolicy {
                        base_delay: Duration::from_millis(2),
                        jitter_seed: 0x5eed + i as u64,
                        ..RetryPolicy::default()
                    },
                );
                let (mut ok, mut failures) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let outcome = if grid_mode {
                        client.label(&img).map(|_| ())
                    } else {
                        client.label_stream(&img).map(|_| ())
                    };
                    match outcome {
                        Ok(()) => ok += 1,
                        Err(_) => failures += 1,
                    }
                }
                (ok, failures, client.retries())
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let (mut jobs_ok, mut failures, mut retries) = (0u64, 0u64, 0u64);
    for d in drivers {
        let (o, f, r) = d.join().expect("bench client");
        jobs_ok += o;
        failures += f;
        retries += r;
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let stats = server.shutdown();
    ServeEntry {
        family: family.to_string(),
        n,
        conn: conn_id(conn),
        mode: mode.to_string(),
        clients,
        elapsed_ns,
        jobs_ok,
        failures,
        retries,
        rejected: stats.rejected(),
        ooc_jobs: stats.jobs_ooc,
        peak_carried_runs: stats.peak_carried_runs,
        workers: WORKERS,
    }
}

/// `git rev-parse --short HEAD` of the working directory's checkout,
/// suffixed `-dirty` when tracked files differ from it, or `"unknown"`
/// outside a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Runs the whole record. `progress` receives one line per row.
pub fn record(quick: bool, mut progress: impl FnMut(&str)) -> Report {
    let (families, sides) = sweep_params(quick);
    let sessions = sessions();
    let mut entries = Vec::new();
    sweep::drive(families, sides, quick, |p| {
        let truth = bfs_labels_conn(p.img, p.conn);
        let paths: [fn(&Point, &LabelGrid) -> Entry; 3] = [time_stream, time_ooc, time_sim];
        let rows = sessions
            .iter()
            .map(|&(kind, threads)| time_session(p, kind, threads, &truth))
            .chain(paths.iter().map(|path| path(p, &truth)));
        for e in rows {
            progress(&format!(
                "{}/{}/{}-conn {}: {:.3} ms",
                e.family,
                e.n,
                e.conn,
                e.label(),
                e.best_ns as f64 / 1e6
            ));
            entries.push(e);
        }
    });

    let mut lockstep = Vec::new();
    let (ls_families, ls_sides) = lockstep_params(quick);
    sweep::drive(ls_families, ls_sides, quick, |p| {
        let opts = CcOptions {
            connectivity: p.conn,
            ..CcOptions::default()
        };
        let (cc_run, cc_report) = label_components_lockstep::<RankHalvingUf>(p.img, &opts, 1);
        let (prop_grid, prop_report) = propagate_components_lockstep(p.img, p.conn, 1);
        progress(&format!(
            "{}/{}/{}-conn lockstep: pipeline {} rounds, propagate {} rounds",
            p.family, p.n, p.cid, cc_report.total_rounds, prop_report.rounds
        ));
        lockstep.push(LockstepEntry {
            family: p.family.to_string(),
            n: p.n,
            conn: p.cid,
            pipeline_rounds: cc_report.total_rounds,
            propagate_rounds: prop_report.rounds,
            propagate_ticks: prop_report.ticks,
            propagate_iterations: prop_report.iterations,
            labels_match: cc_run.labels == prop_grid,
        });
    });

    let mut serve = Vec::new();
    let (sv_families, sv_sides, window) = serve_params(quick);
    for &family in sv_families {
        for &n in sv_sides {
            for &conn in CONNS {
                for &mode in MODES {
                    for &clients in CLIENT_COUNTS {
                        let e = serve_point(family, n, conn, mode, clients, window);
                        progress(&format!(
                            "{family}/{n}/{}-conn serve {mode} x{clients}: {:.0} jobs/s \
                             ({} failed, {} ooc, peak {} runs)",
                            e.conn,
                            e.jobs_per_sec(),
                            e.failures,
                            e.ooc_jobs,
                            e.peak_carried_runs
                        ));
                        serve.push(e);
                    }
                }
            }
        }
    }

    Report {
        scale: if quick { "quick" } else { "full" }.to_string(),
        seed: SEED,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        commit: commit(),
        families: families.iter().map(|s| s.to_string()).collect(),
        sides: sides.to_vec(),
        entries,
        lockstep,
        serve,
    }
}

/// Appends `"key": [rows]` to `s`, one row per line.
fn section(s: &mut String, key: &str, rows: impl Iterator<Item = String>, last: bool) {
    let rows: Vec<String> = rows.map(|r| format!("    {r}")).collect();
    let _ = write!(s, "  {}: [\n{}\n  ]", json::quote(key), rows.join(",\n"));
    s.push_str(if last { "\n" } else { ",\n" });
}

impl Report {
    /// Serializes the report. Hand-rolled (the workspace `serde` is a no-op
    /// stub); [`Report::from_json`] reads it back.
    pub fn to_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(", "));
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json::quote(SCHEMA));
        let _ = writeln!(s, "  \"scale\": {},", json::quote(&self.scale));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"host_threads\": {},", self.host_threads);
        let _ = writeln!(s, "  \"commit\": {},", json::quote(&self.commit));
        let families = self.families.iter().map(|f| json::quote(f)).collect();
        let _ = writeln!(s, "  \"families\": {},", list(families));
        let sides = self.sides.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(s, "  \"sides\": {},", list(sides));
        let entries = self.entries.iter().map(Entry::to_json);
        section(&mut s, "entries", entries, false);
        let lockstep = self.lockstep.iter().map(LockstepEntry::to_json);
        section(&mut s, "lockstep", lockstep, false);
        let serve = self.serve.iter().map(ServeEntry::to_json);
        section(&mut s, "serve", serve, true);
        s.push_str("}\n");
        s
    }

    /// Parses a `BENCH.json` document into a report. Rejects any schema
    /// other than [`SCHEMA`] (every retired `slap-bench-*` id included) and
    /// any row with a missing or mistyped field; the gates are
    /// [`validate`]'s.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = json::parse(text)?;
        let top = Fields::of(&doc, "BENCH.json".to_string())?;
        let schema = top.str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?}"));
        }
        fn rows<T>(
            top: &Fields,
            key: &str,
            ctx: &str,
            read: impl Fn(&Fields) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            top.array(key)?
                .iter()
                .enumerate()
                .map(|(i, v)| read(&Fields::of(v, format!("{ctx} {i}"))?))
                .collect()
        }
        let families = top.array("families")?.iter();
        let families = families
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| top.err("families is not an array of strings"))?;
        let sides = top.array("sides")?.iter();
        let sides = sides
            .map(|v| v.as_u64().map(|n| n as usize))
            .collect::<Option<_>>()
            .ok_or_else(|| top.err("sides is not an array of integers"))?;
        Ok(Report {
            scale: top.str("scale")?.to_string(),
            seed: top.u64("seed")?,
            host_threads: top.usize("host_threads")?,
            commit: top.str("commit")?.to_string(),
            families,
            sides,
            entries: rows(&top, "entries", "entry", Entry::from_json)?,
            lockstep: rows(&top, "lockstep", "lockstep entry", LockstepEntry::from_json)?,
            serve: rows(&top, "serve", "serve entry", ServeEntry::from_json)?,
        })
    }
}

/// Validates a `BENCH.json` document. Any schema other than [`SCHEMA`] is
/// rejected as `unknown schema`. The header must record `scale` (`quick` or
/// `full`), a positive `host_threads`, and a non-empty `commit`. Always
/// enforced:
///
/// * every row: positive `n`, grid, threads, `best_ns` and `reps`,
///   `mean_ns ≥ best_ns`, conn `4` or `8`, and an engine that is a
///   registry name, `stream`, `ooc`, or [`SIM`];
/// * registry and [`SIM`] rows are bit-identical to the oracle;
/// * registry rows record cold timings, and warm ≤ cold
///   (`best_ns ≤ cold_best_ns`);
/// * `fast` rows record a `1 × 1` grid and tile counters that cover the
///   frame's `ceil(n/64) × n` word-tiles exactly; `parallel` rows record a
///   `threads × 1` grid;
/// * `propagate` rows record `iterations ≥ 1` and `reduction_passes`;
/// * `stream` rows are feature-equivalent, with `peak_frontier_runs ≤
///   n/2 + 1` and `peak_nodes ≤ n + 1`;
/// * `ooc` rows have `band_rows < n`, `peak_carried_runs ≤ n/2 + 1`, and
///   `components_match`;
/// * coverage per connectivity, counted in (family, n) points:
///   - every registry engine, on ≥ 3 families × ≥ 2 sizes;
///   - `bfs` + `fast` + [`SIM`] on ≥ 3 × ≥ 3;
///   - `stream` on ≥ 2 × ≥ 3;
///   - `fast` + ≥ 3 tile shapes + ≥ 3 strip thread counts on ≥ 2 × ≥ 3,
///     plus at least one `ooc` point;
///   - `bfs` + `propagate` on ≥ 3 × ≥ 3, including every
///     [`ADVERSARIAL_FAMILIES`] member;
/// * `lockstep`: `labels_match`, `pipeline_rounds ≥ 1`, `propagate_ticks ≥
///   propagate_rounds ≥ propagate_iterations ≥ 1`, both connectivities;
/// * `serve`: `jobs_ok > 0` and zero failures at every point; every mode
///   of [`MODES`] at every count of [`CLIENT_COUNTS`] for each swept
///   (family, n, conn); grid rows carry no stream state; streaming rows keep
///   `peak_carried_runs ≤ n/2 + 1`; `ooc` rows route every job out of core
///   and in-core `stream` rows route none.
///
/// With `require_full` the scale must be `full`, and on `random50` @ 2048²
/// the headlines hold:
///
/// * fast ≥ [`FAST_SPEEDUP`]× the oracle (4-connectivity);
/// * fast 8-connectivity ≤ [`EIGHT_OVER_FOUR_BOUND`]× its 4-connectivity
///   time;
/// * propagate ≥ [`PROPAGATE_SPEEDUP`]× the oracle at both connectivities;
/// * only when `host_threads ≥` [`MIN_HOST_THREADS`]: tiled 2×2 ≥
///   [`TILED_SPEEDUP`]× and `parallel@4` ≥ [`STRIP_SPEEDUP`]× fast
///   (4-connectivity).
pub fn validate(text: &str, require_full: bool) -> Result<(), String> {
    Report::from_json(text)?.check(require_full)
}

/// Checks one host row's shape and its engine's own gates.
fn check_entry(e: &Entry) -> Result<(), String> {
    let n = e.n;
    if n == 0 || e.reps == 0 || e.threads == 0 || e.grid.0 == 0 || e.grid.1 == 0 {
        return Err("n, reps, threads, tiles_y and tiles_x must be positive".to_string());
    }
    if e.conn != 4 && e.conn != 8 {
        return Err("conn is not 4 or 8".to_string());
    }
    if e.best_ns == 0 {
        return Err("best_ns is not a positive integer".to_string());
    }
    if e.mean_ns < e.best_ns {
        return Err("mean_ns is below best_ns".to_string());
    }
    let registered = EngineKind::parse(&e.engine).is_some();
    if !registered && !["stream", "ooc", SIM].contains(&e.engine.as_str()) {
        return Err(format!("engine {:?} is not in the registry", e.engine));
    }
    let lacks = |what: &str| format!("{} entry lacks {what}", e.engine);
    if (registered || e.engine == SIM) && !e.bit_identical.ok_or_else(|| lacks("bit_identical"))? {
        return Err("labels were not bit-identical to the oracle".to_string());
    }
    if registered {
        let (cold_best, cold_mean) = e.cold.ok_or_else(|| lacks("cold_best_ns"))?;
        if cold_mean < cold_best {
            return Err("cold_mean_ns is below cold_best_ns".to_string());
        }
        if e.best_ns > cold_best {
            return Err(format!(
                "reuse criterion violated: warm {} ns > cold {cold_best} ns ({} on {} @ {n})",
                e.best_ns,
                e.label(),
                e.family
            ));
        }
    }
    match e.engine.as_str() {
        "fast" => {
            if e.grid != (1, 1) {
                return Err("fast entries must record a 1x1 grid".to_string());
            }
            let tiles = e.tiles.ok_or_else(|| lacks("tiles_background"))?;
            let expect = (n.div_ceil(64) * n) as u64;
            if tiles.total() != expect {
                return Err(format!(
                    "tile counters cover {} word-tiles, frame has {expect}",
                    tiles.total()
                ));
            }
        }
        "parallel" if e.grid != (e.threads, 1) => {
            return Err("strip entries must record a threads x 1 grid".to_string());
        }
        "propagate" => {
            if e.iterations.ok_or_else(|| lacks("iterations"))? == 0 {
                return Err("propagate iterations must be at least 1".to_string());
            }
            e.reduction_passes
                .ok_or_else(|| lacks("reduction_passes"))?;
        }
        "stream" => {
            let frontier = e
                .peak_frontier_runs
                .ok_or_else(|| lacks("peak_frontier_runs"))?;
            if frontier > n / 2 + 1 {
                return Err(format!(
                    "peak_frontier_runs {frontier} violates the O(cols) bound for n = {n}"
                ));
            }
            let nodes = e.peak_nodes.ok_or_else(|| lacks("peak_nodes"))?;
            if nodes > n + 1 {
                return Err(format!(
                    "peak_nodes {nodes} violates the O(cols + live) bound for n = {n}"
                ));
            }
            if !e
                .feature_equivalent
                .ok_or_else(|| lacks("feature_equivalent"))?
            {
                return Err(
                    "retired features were not equivalent to the whole-frame reference".into(),
                );
            }
        }
        "ooc" => {
            if e.band_rows.ok_or_else(|| lacks("band_rows"))? >= n {
                return Err("ooc band budget must be below the frame height".to_string());
            }
            let peak = e
                .peak_carried_runs
                .ok_or_else(|| lacks("peak_carried_runs"))?;
            if peak > n / 2 + 1 {
                return Err(format!(
                    "peak carried runs {peak} exceeds the one-row bound {}",
                    n / 2 + 1
                ));
            }
            if !e
                .components_match
                .ok_or_else(|| lacks("components_match"))?
            {
                return Err("retired labels did not match the whole-frame engine".to_string());
            }
        }
        _ => {}
    }
    Ok(())
}

/// Checks one lock-step comparison.
fn check_lockstep(e: &LockstepEntry) -> Result<(), String> {
    if e.conn != 4 && e.conn != 8 {
        return Err("conn is not 4 or 8".to_string());
    }
    if e.pipeline_rounds == 0 {
        return Err("pipeline_rounds must be at least 1".to_string());
    }
    if e.propagate_iterations == 0 {
        return Err("propagate_iterations must be at least 1".to_string());
    }
    if e.propagate_rounds < e.propagate_iterations {
        return Err("propagate_rounds is below propagate_iterations".to_string());
    }
    if e.propagate_ticks < e.propagate_rounds {
        return Err("propagate_ticks is below propagate_rounds".to_string());
    }
    if !e.labels_match {
        return Err("the two kernels disagreed on the labeling".to_string());
    }
    Ok(())
}

/// Checks one `slapd` measurement.
fn check_serve(e: &ServeEntry) -> Result<(), String> {
    let (n, mode) = (e.n as u64, e.mode.as_str());
    if n == 0 || e.elapsed_ns == 0 || e.workers == 0 {
        return Err("n, elapsed_ns and workers must be positive".to_string());
    }
    if e.conn != 4 && e.conn != 8 {
        return Err("conn is not 4 or 8".to_string());
    }
    if !MODES.contains(&mode) {
        return Err("mode is not one of the swept modes".to_string());
    }
    if !CLIENT_COUNTS.contains(&e.clients) {
        return Err("clients is not one of the swept counts".to_string());
    }
    if e.jobs_ok == 0 {
        return Err("no jobs completed inside the window".to_string());
    }
    if e.failures > 0 {
        return Err(format!(
            "loss-free criterion violated: {} job(s) exhausted their retries \
             ({}/{n} @ {} clients)",
            e.failures, e.family, e.clients
        ));
    }
    if mode == "grid" {
        if e.ooc_jobs != 0 || e.peak_carried_runs != 0 {
            return Err("grid entries must carry no stream state".to_string());
        }
        return Ok(());
    }
    if e.peak_carried_runs > n / 2 + 1 {
        return Err(format!(
            "carried-state bound violated: peak {} runs > n/2+1 = {} ({}/{n}/{mode})",
            e.peak_carried_runs,
            n / 2 + 1,
            e.family
        ));
    }
    if mode == "ooc" && e.ooc_jobs != e.jobs_ok {
        return Err(format!(
            "ooc routing hole: {} jobs ok but only {} routed out-of-core",
            e.jobs_ok, e.ooc_jobs
        ));
    }
    if mode == "stream" && e.ooc_jobs != 0 {
        return Err("in-core stream entries must not route ooc".to_string());
    }
    Ok(())
}

/// Number of distinct values in `items`.
fn distinct<T: Ord>(items: impl Iterator<Item = T>) -> usize {
    items.collect::<std::collections::BTreeSet<_>>().len()
}

impl Report {
    /// Applies every gate [`validate`] lists.
    fn check(&self, require_full: bool) -> Result<(), String> {
        if self.scale != "quick" && self.scale != "full" {
            return Err(format!("scale {:?} is neither quick nor full", self.scale));
        }
        if require_full && self.scale != "full" {
            return Err("a full-scale record is required".to_string());
        }
        if self.host_threads == 0 {
            return Err("host_threads is not a positive integer".to_string());
        }
        if self.commit.is_empty() {
            return Err("commit is empty".to_string());
        }
        for (key, empty) in [
            ("entries", self.entries.is_empty()),
            ("lockstep", self.lockstep.is_empty()),
            ("serve", self.serve.is_empty()),
        ] {
            if empty {
                return Err(format!("{key} is empty"));
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            check_entry(e).map_err(|m| format!("entry {i}: {m}"))?;
        }
        self.check_coverage()?;
        for (i, e) in self.lockstep.iter().enumerate() {
            check_lockstep(e).map_err(|m| format!("lockstep entry {i}: {m}"))?;
        }
        for conn in [4, 8] {
            if !self.lockstep.iter().any(|e| e.conn == conn) {
                return Err(format!("no lockstep comparison at {conn}-connectivity"));
            }
        }
        for (i, e) in self.serve.iter().enumerate() {
            check_serve(e).map_err(|m| format!("serve entry {i}: {m}"))?;
        }
        self.check_serve_coverage()?;
        if require_full {
            self.check_headlines()?;
        }
        Ok(())
    }

    /// The host coverage gates, per connectivity.
    fn check_coverage(&self) -> Result<(), String> {
        for conn in [4u32, 8] {
            // The rows of each (family, n) point at this connectivity.
            let mut points: Vec<(&str, usize, Vec<&Entry>)> = Vec::new();
            for e in self.entries.iter().filter(|e| e.conn == conn) {
                match points
                    .iter_mut()
                    .find(|(f, n, _)| (*f, *n) == (&e.family, e.n))
                {
                    Some((.., rows)) => rows.push(e),
                    None => points.push((&e.family, e.n, vec![e])),
                }
            }
            let has = |rows: &[&Entry], engine: &str| rows.iter().any(|e| e.engine == engine);
            // The families of the points passing `covered`, if ≥ `need`
            // families × sizes of them exist.
            let thin = |what: &str, need: (usize, usize), covered: &dyn Fn(&[&Entry]) -> bool| {
                let full: Vec<_> = points.iter().filter(|(.., rows)| covered(rows)).collect();
                let families: Vec<&str> = full.iter().map(|(f, ..)| *f).collect();
                let (nf, ns) = (
                    distinct(families.iter()),
                    distinct(full.iter().map(|p| p.1)),
                );
                if nf < need.0 || ns < need.1 {
                    return Err(format!(
                        "coverage too thin at {conn}-connectivity: {nf} families × {ns} sizes \
                         {what} (need ≥ {} × ≥ {})",
                        need.0, need.1
                    ));
                }
                Ok(families)
            };
            for info in registry() {
                let name = info.kind.name();
                thin(&format!("for engine {name:?}"), (3, 2), &|r| has(r, name))?;
            }
            thin("with bfs + fast + slap-sim-runs", (3, 3), &|r| {
                has(r, "bfs") && has(r, "fast") && has(r, SIM)
            })?;
            thin("with stream", (2, 3), &|r| has(r, "stream"))?;
            let shapes = |r: &[&Entry], engine: &str| {
                distinct(
                    r.iter()
                        .filter(|e| e.engine == engine)
                        .map(|e| (e.grid, e.threads)),
                )
            };
            thin(
                "with fast + ≥3 tile shapes + ≥3 strip thread counts",
                (2, 3),
                &|r| has(r, "fast") && shapes(r, "tiled") >= 3 && shapes(r, "parallel") >= 3,
            )?;
            if !points.iter().any(|(.., r)| has(r, "ooc")) {
                return Err(format!("no out-of-core point at {conn}-connectivity"));
            }
            let families = thin("with bfs + propagate", (3, 3), &|r| {
                has(r, "bfs") && has(r, "propagate")
            })?;
            if let Some(adv) = ADVERSARIAL_FAMILIES.iter().find(|a| !families.contains(a)) {
                return Err(format!(
                    "adversarial family {adv:?} is not covered at {conn}-connectivity"
                ));
            }
        }
        Ok(())
    }

    /// Every swept `slapd` workload measured in every mode at every client
    /// count.
    fn check_serve_coverage(&self) -> Result<(), String> {
        let workloads = distinct(self.serve.iter().map(|e| (&e.family, e.n, e.conn)));
        let groups = distinct(self.serve.iter().map(|e| (&e.family, e.n, e.conn, &e.mode)));
        if groups != workloads * MODES.len() {
            return Err(format!(
                "coverage hole: {groups} (family, n, conn, mode) groups, expected {}",
                workloads * MODES.len()
            ));
        }
        for e in &self.serve {
            let counts: Vec<usize> = self
                .serve
                .iter()
                .filter(|o| (&o.family, o.n, o.conn, &o.mode) == (&e.family, e.n, e.conn, &e.mode))
                .map(|o| o.clients)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            if counts != CLIENT_COUNTS {
                return Err(format!(
                    "coverage hole: {}/{}/{}-conn/{} measured at client counts {counts:?}, \
                     need exactly {CLIENT_COUNTS:?}",
                    e.family, e.n, e.conn, e.mode
                ));
            }
        }
        Ok(())
    }

    /// The full-scale headline ratios on `random50` @ 2048².
    fn check_headlines(&self) -> Result<(), String> {
        let best = |engine: &str, conn: u32, grid: (usize, usize)| {
            self.entries
                .iter()
                .find(|e| {
                    (e.family.as_str(), e.n, e.conn, e.engine.as_str(), e.grid)
                        == ("random50", 2048, conn, engine, grid)
                })
                .map(|e| e.best_ns as f64)
                .ok_or_else(|| format!("no {engine} entry for random50 @ 2048 ({conn}-conn)"))
        };
        let fast = best("fast", 4, (1, 1))?;
        let ratio = best("bfs", 4, (1, 1))? / fast;
        if ratio < FAST_SPEEDUP {
            return Err(format!(
                "fast engine is only {ratio:.2}× the oracle on random50 @ 2048 \
                 (need ≥ {FAST_SPEEDUP}×)"
            ));
        }
        let gap = best("fast", 8, (1, 1))? / fast;
        if gap > EIGHT_OVER_FOUR_BOUND {
            return Err(format!(
                "fast 8-connectivity is {gap:.2}× its 4-connectivity time on random50 @ 2048 \
                 (bound {EIGHT_OVER_FOUR_BOUND})"
            ));
        }
        for conn in [4, 8] {
            let ratio = best("bfs", conn, (1, 1))? / best("propagate", conn, (1, 1))?;
            if ratio < PROPAGATE_SPEEDUP {
                return Err(format!(
                    "propagate is only {ratio:.2}× the oracle on random50 @ 2048 \
                     ({conn}-conn; need ≥ {PROPAGATE_SPEEDUP}×)"
                ));
            }
        }
        if self.host_threads >= MIN_HOST_THREADS {
            for (engine, grid, what, required) in [
                ("tiled", (2, 2), "tiled 2x2", TILED_SPEEDUP),
                ("parallel", (4, 1), "parallel@4", STRIP_SPEEDUP),
            ] {
                let ratio = fast / best(engine, 4, grid)?;
                if ratio < required {
                    return Err(format!(
                        "{what} is only {ratio:.2}× the fast engine on random50 @ 2048 \
                         (need ≥ {required}× on a host with ≥ {MIN_HOST_THREADS} threads)"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A full-scale report that passes every gate on any host. On
    /// `random50` @ 2048² the oracle takes 8000 ns and fast 1000 ns (8×);
    /// tiled rows take 500 ns (2× fast), strips `1000 / min(T, 4)` ns (4× at
    /// 4 threads), propagate 3000 ns (2.67× the oracle). Every registry row
    /// records a cold time of 50 µs, far above any warm time a test sets.
    pub(crate) fn tiny_report(host_threads: usize) -> Report {
        let families = ["random50", "spiral", "serpentine", "hilbert"];
        let sides = [512usize, 1024, 2048];
        let mut entries = Vec::new();
        for family in families {
            for n in sides {
                for conn in [4u32, 8] {
                    let row = |engine: &str, grid, threads, best_ns| Entry {
                        engine: engine.to_string(),
                        family: family.to_string(),
                        n,
                        conn,
                        grid,
                        threads,
                        best_ns,
                        mean_ns: 10_000,
                        reps: 3,
                        ..Entry::default()
                    };
                    let session = |engine: &str, grid, threads, best_ns| Entry {
                        cold: Some((50_000, 60_000)),
                        bit_identical: Some(true),
                        ..row(engine, grid, threads, best_ns)
                    };
                    entries.push(session("bfs", (1, 1), 1, 8000));
                    entries.push(Entry {
                        tiles: Some(TileStats {
                            background: 1,
                            interior: 1,
                            boundary: (n.div_ceil(64) * n) as u64 - 2,
                        }),
                        ..session("fast", (1, 1), 1, 1000)
                    });
                    for &t in STRIP_THREADS {
                        entries.push(session("parallel", (t, 1), t, 1000 / t.min(4) as u64));
                    }
                    for &shape in TILE_SHAPES {
                        entries.push(session("tiled", shape, TILE_THREADS, 500));
                    }
                    entries.push(Entry {
                        iterations: Some(4),
                        reduction_passes: Some(2),
                        ..session("propagate", (1, 1), 1, 3000)
                    });
                    entries.push(Entry {
                        peak_frontier_runs: Some(n / 2),
                        peak_nodes: Some(n),
                        feature_equivalent: Some(true),
                        ..row("stream", (1, 1), 1, 5000)
                    });
                    entries.push(Entry {
                        band_rows: Some(n / 4),
                        peak_carried_runs: Some(n / 8),
                        components_match: Some(true),
                        ..row("ooc", (1, 2), 2, 4400)
                    });
                    entries.push(Entry {
                        bit_identical: Some(true),
                        ..row(SIM, (1, 1), 1, 8000)
                    });
                }
            }
        }
        let lockstep = [4u32, 8]
            .iter()
            .map(|&conn| LockstepEntry {
                family: "random50".to_string(),
                n: 32,
                conn,
                pipeline_rounds: 400,
                propagate_rounds: 2600,
                propagate_ticks: 80_000,
                propagate_iterations: 9,
                labels_match: true,
            })
            .collect();
        let mut serve = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [128usize, 256] {
                for conn in [4u32, 8] {
                    for mode in MODES {
                        for &clients in CLIENT_COUNTS {
                            let jobs_ok = 100 * clients as u64;
                            serve.push(ServeEntry {
                                family: family.to_string(),
                                n,
                                conn,
                                mode: mode.to_string(),
                                clients,
                                elapsed_ns: 1_000_000_000,
                                jobs_ok,
                                failures: 0,
                                retries: 3,
                                rejected: 3,
                                ooc_jobs: if *mode == "ooc" { jobs_ok } else { 0 },
                                peak_carried_runs: if *mode == "grid" { 0 } else { n as u64 / 2 },
                                workers: WORKERS,
                            });
                        }
                    }
                }
            }
        }
        Report {
            scale: "full".to_string(),
            seed: SEED,
            host_threads,
            commit: "0123abc".to_string(),
            families: families.iter().map(|f| f.to_string()).collect(),
            sides: sides.to_vec(),
            entries,
            lockstep,
            serve,
        }
    }

    /// The one quick `record` run every `quick_sweep_smoke` test shares,
    /// validated once.
    ///
    /// Warm ≤ cold is a timing gate. Under `cargo test` every suite shares
    /// the host, so an inversion here is noise, not a bug; CI's sequential
    /// `slap-bench record --quick` step enforces it. The copy validated here
    /// lifts each cold time to at least its warm time, so every other gate
    /// still runs on the fresh data.
    pub(crate) fn quick_run() -> &'static Report {
        static RUN: OnceLock<Report> = OnceLock::new();
        RUN.get_or_init(|| {
            let report = record(true, |_| {});
            let mut lifted = report.clone();
            for e in &mut lifted.entries {
                if let Some((best, mean)) = &mut e.cold {
                    *best = (*best).max(e.best_ns);
                    *mean = (*mean).max(*best);
                }
            }
            validate(&lifted.to_json(), false).expect("fresh quick record validates");
            report
        })
    }

    #[test]
    fn check_rejects_every_retired_schema() {
        let text = tiny_report(8).to_json();
        for retired in [
            "slap-bench-baseline/v3",
            "slap-bench-stream/v1",
            "slap-bench-reuse/v1",
            "slap-bench-tiled/v2",
            "slap-bench-propagate/v1",
            "slap-bench-serve/v2",
            "slap-bench-parallel/v1",
        ] {
            let err = validate(&text.replace(SCHEMA, retired), false).unwrap_err();
            assert_eq!(err, format!("unknown schema {retired:?}"));
        }
    }
}
