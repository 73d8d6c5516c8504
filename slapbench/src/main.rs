//! `slapbench`: the repository's benchmark.
//!
//! ```text
//! slapbench --workload <offline-2048|serve-grid|serve-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process, closed loop, at most two caller threads. `--trace 0` runs
//! the workload untraced and prints the end-to-end metrics. `--trace 1`
//! runs it untraced for half the time and traced for the other half,
//! replays the seed's frames through each layer's public function (see
//! [`layers`]), and prints the per-layer metrics. Every output is checked
//! against the BFS oracle; the last stdout line is one JSON object, and any
//! failed check makes the exit code 1. `METRICS.md` maps each layer metric
//! to the end-to-end metric it should move.

mod corpus;
mod env;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use corpus::Digest;
use env::json_str;
use slap_serve::StatsSnapshot;
use std::io::Write;
use std::time::Instant;
use trace::{Span, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One timed frame: which input, its class, latency, and the digest of
/// what came back (`None` when the call failed).
pub struct Job {
    pub frame: usize,
    pub large: bool,
    /// Seconds from the start of the loop to the submit.
    pub start_s: f64,
    pub lat_ms: f64,
    pub digest: Option<Digest>,
}

/// The jobs of one timed loop.
pub struct Measured {
    pub jobs: Vec<Job>,
    /// The loop's time budget; jobs start within it.
    pub seconds: f64,
    /// Take the rate over the summed job latencies (one caller, so the
    /// check digest computed between jobs does not count) instead of over
    /// wall time.
    pub rate_over_busy: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing (`None` for exact counts).
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Output checks of a run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, got: Option<Digest>, want: Digest) -> bool {
        self.attempted += 1;
        let ok = got == Some(want);
        self.failed += u64::from(!ok);
        ok
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Offline,
    Serve(serve::Mode),
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "offline-2048" => Some(Kind::Offline),
            "serve-grid" => Some(Kind::Serve(serve::Mode::Grid)),
            "serve-stream" => Some(Kind::Serve(serve::Mode::Stream)),
            _ => None,
        }
    }
}

/// A set-up workload, ready to be measured.
enum Workload {
    Offline(offline::Offline),
    Serve(serve::Serve),
}

/// What the end of a workload left to report.
struct Finish {
    /// The reconciled client and server counts, for the report.
    ledger: Option<String>,
    problems: Vec<String>,
    /// `client.retries` and the `server.*` counters.
    metrics: Vec<Metric>,
}

impl Workload {
    fn setup(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::Offline => Workload::Offline(offline::Offline::setup(seed)),
            Kind::Serve(mode) => Workload::Serve(serve::Serve::setup(seed, mode)),
        }
    }

    fn working_set(&self) -> Vec<(&'static str, u64)> {
        match self {
            Workload::Offline(w) => vec![("large_2048", w.working_set_bytes())],
            Workload::Serve(w) => w.working_set().to_vec(),
        }
    }

    fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> (Measured, Vec<Span>) {
        match self {
            Workload::Offline(w) => {
                let mut tracer = Tracer::new(epoch, traced);
                let m = w.measure(seconds, &mut tracer);
                (m, tracer.into_spans())
            }
            Workload::Serve(w) => w.measure(seconds, traced, epoch),
        }
    }

    /// The primary-class kind of a job, `None` outside the class: the
    /// deck entry offline, the generator family of a 256² frame on the
    /// serve workloads. The kinds' latencies do not overlap (on the stream
    /// path blobs replies carry a few records, random50 replies thousands),
    /// so a pooled median of the mix would land on the seam between two
    /// kinds and jump between them from run to run.
    fn kind(&self, job: &Job) -> Option<usize> {
        match self {
            Workload::Offline(_) => Some(job.frame),
            Workload::Serve(_) if job.large => None,
            Workload::Serve(_) => Some(serve::family_of(job.frame)),
        }
    }

    fn references(&self) -> Vec<Digest> {
        match self {
            Workload::Offline(w) => w.references(),
            Workload::Serve(w) => w.references(),
        }
    }

    fn chain(&self) -> &'static [&'static str] {
        match self {
            Workload::Offline(_) => layers::OFFLINE_CHAIN,
            Workload::Serve(w) if w.mode == serve::Mode::Grid => layers::GRID_CHAIN,
            Workload::Serve(_) => layers::STREAM_CHAIN,
        }
    }

    /// Stops the workload; on the serve workloads, drains the server and
    /// reconciles its ledger. The library path has no server, so its
    /// server counters read zero.
    fn finish(self) -> Finish {
        match self {
            Workload::Offline(_) => Finish {
                ledger: None,
                problems: Vec::new(),
                metrics: server_metrics(0, &StatsSnapshot::default()),
            },
            Workload::Serve(w) => {
                let (mode, ledger, retries) = (w.mode, w.ledger, w.retries());
                let s = w.finish();
                let ledger_line = format!(
                    "ledger client attempted={} answered={} large={} errors={} retries={} | \
                     server jobs_ok={} jobs_streamed={} jobs_ooc={} rejected={} io_errors={} \
                     sessions_rebuilt={} peak_carried_runs={} (bound {})",
                    ledger.attempted,
                    ledger.answered,
                    ledger.large_attempted,
                    ledger.client_errors,
                    retries,
                    s.jobs_ok,
                    s.jobs_streamed,
                    s.jobs_ooc,
                    s.rejected(),
                    s.io_errors,
                    s.sessions_rebuilt,
                    s.peak_carried_runs,
                    corpus::LARGE / 2 + 1
                );
                Finish {
                    ledger: Some(ledger_line),
                    problems: serve::reconcile(mode, &ledger, retries, &s),
                    metrics: server_metrics(retries, &s),
                }
            }
        }
    }
}

/// `client.retries` and the `server.*` counters of a final snapshot.
fn server_metrics(retries: u64, s: &StatsSnapshot) -> Vec<Metric> {
    [
        ("client.retries", retries, "count"),
        ("server.peak_queue_depth", s.peak_queue_depth, "count"),
        ("server.peak_queue_bytes", s.peak_queue_bytes, "bytes"),
        ("server.rejected", s.rejected(), "count"),
        ("server.io_errors", s.io_errors, "count"),
        ("server.sessions_rebuilt", s.sessions_rebuilt, "count"),
        ("server.jobs_ooc", s.jobs_ooc, "count"),
        ("server.peak_carried_runs", s.peak_carried_runs, "count"),
    ]
    .into_iter()
    .map(|(name, v, unit)| Metric::new(name, v as f64, unit, None))
    .collect()
}

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(&workload).ok_or(format!(
        "unknown workload {workload:?} (offline-2048, serve-grid, serve-stream)"
    ))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Per-job verdicts against the reference of each job's frame.
fn check_jobs(m: &Measured, refs: &[Digest], checks: &mut Checks) -> Vec<bool> {
    m.jobs
        .iter()
        .map(|j| checks.check(j.digest, refs[j.frame]))
        .collect()
}

/// Median over `samples`, or NaN when there are none.
fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        stats::median(samples)
    }
}

/// One timed loop reduced to its rate and latency percentiles.
struct Summary {
    /// Median over [`stats::WINDOWS`] time windows, so a burst of outside
    /// load moves one window, not the result.
    frames_per_s: f64,
    /// Per-kind medians of the primary class, averaged over its kinds
    /// ([`stats::balanced_percentile`]).
    p50_ms: f64,
    /// Pooled over the primary class: it falls inside the slowest kind's
    /// own distribution, so no seam between kinds moves it.
    p90_ms: f64,
    /// Per-frame medians of the 2048² frames, averaged, for the same
    /// reason as `p50_ms`: the offline deck entries do not overlap.
    large_p50_ms: f64,
    primary: usize,
    /// Samples of the primary kind that has the fewest.
    thinnest: usize,
    /// The per-window rates and per-kind percentiles behind the reported
    /// values.
    detail: String,
}

fn summarize(m: &Measured, ok: &[bool], kind: impl Fn(&Job) -> Option<usize>) -> Summary {
    let in_window = |w: usize| {
        m.jobs
            .iter()
            .zip(ok)
            .filter(move |(j, _)| stats::window_of(j.start_s, m.seconds) == w)
    };
    let first_starts: Vec<Option<f64>> = (0..stats::WINDOWS)
        .map(|w| in_window(w).map(|(j, _)| j.start_s).min_by(f64::total_cmp))
        .collect();
    let end_s = m
        .jobs
        .iter()
        .map(|j| j.start_s + j.lat_ms / 1e3)
        .fold(0.0, f64::max);
    let wall = stats::window_spans(&first_starts, end_s);
    let mut rates = Vec::new();
    for (w, wall_s) in wall.into_iter().enumerate() {
        let Some(wall_s) = wall_s else { continue };
        let verified = in_window(w).filter(|(_, ok)| **ok).count() as f64;
        let span_s = if m.rate_over_busy {
            in_window(w).map(|(j, _)| j.lat_ms).sum::<f64>() / 1e3
        } else {
            wall_s
        };
        rates.push(verified / span_s);
    }
    let mut kinds: Vec<Vec<f64>> = Vec::new();
    for j in &m.jobs {
        if let Some(k) = kind(j) {
            if kinds.len() <= k {
                kinds.resize(k + 1, Vec::new());
            }
            kinds[k].push(j.lat_ms);
        }
    }
    // Large frames grouped by frame: the deck entries offline, the one
    // 2048² frame on the serve workloads.
    let mut large: Vec<Vec<f64>> = Vec::new();
    for j in m.jobs.iter().filter(|j| j.large) {
        if large.len() <= j.frame {
            large.resize(j.frame + 1, Vec::new());
        }
        large[j.frame].push(j.lat_ms);
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let pooled = stats::sorted(kinds.concat());
    Summary {
        frames_per_s: median_or_nan(&rates),
        p50_ms: stats::balanced_percentile(&kinds, 500),
        p90_ms: if pooled.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&pooled, 900)
        },
        large_p50_ms: stats::balanced_percentile(&large, 500),
        primary: kinds.iter().map(Vec::len).sum(),
        thinnest: kinds.iter().map(Vec::len).min().unwrap_or(0),
        detail: format!(
            "frames_per_s [{}] per-kind p50_ms [{}] p90_ms [{}]",
            fmt(&rates),
            fmt(&stats::group_percentiles(&kinds, 500)),
            fmt(&stats::group_percentiles(&kinds, 900))
        ),
    }
}

fn run(args: &Args) -> i32 {
    let epoch = Instant::now();
    let mut problems: Vec<String> = Vec::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        if let Some(previous) = workload.take() {
            Workload::finish(previous);
        }
        let t0 = Instant::now();
        workload = Some(Workload::setup(args.kind, args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let stamp = env::stamp(&args.workload, args.seed, &w.working_set());
    println!("env {stamp}");

    // A traced run splits its time: half untraced, for the overhead
    // share, and half traced.
    let loop_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, _) = w.measure(loop_s, false, epoch);
    let peak_rss_mb = env::peak_rss_mb();
    let traced = args.trace.then(|| w.measure(loop_s, true, epoch));

    let refs = w.references();
    let mut checks = Checks::default();
    let ok = check_jobs(&untraced, &refs, &mut checks);
    let summary = summarize(&untraced, &ok, |j| w.kind(j));
    let traced_summary = traced.as_ref().map(|(m, _)| {
        let ok = check_jobs(m, &refs, &mut checks);
        summarize(m, &ok, |j| w.kind(j))
    });
    let chain = w.chain();
    let finish = w.finish();
    if let Some(line) = &finish.ledger {
        println!("{line}");
    }
    problems.extend(finish.problems);
    println!(
        "checks attempted={} failed={} failed_share={}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    println!("detail {}", summary.detail);

    let metrics = match traced_summary.zip(traced) {
        None => {
            if !stats::reportable(summary.primary, 900) {
                problems.push(format!(
                    "{} primary-class frames leave fewer than {} beyond p90",
                    summary.primary,
                    stats::MIN_BEYOND
                ));
            }
            if !stats::reportable(summary.thinnest, 500) {
                problems.push(format!(
                    "a primary-class kind holds {} frames, fewer than {} beyond its median",
                    summary.thinnest,
                    stats::MIN_BEYOND
                ));
            }
            let jobs = untraced.jobs.len();
            let large = untraced.jobs.iter().filter(|j| j.large).count();
            let end_to_end = vec![
                Metric::new("setup_s", stats::median(&setups), "s", Some(setups.len())),
                Metric::new("frames_per_s", summary.frames_per_s, "1/s", Some(jobs)),
                Metric::new(
                    "latency_p50_ms",
                    summary.p50_ms,
                    "ms",
                    Some(summary.primary),
                ),
                Metric::new(
                    "latency_p90_ms",
                    summary.p90_ms,
                    "ms",
                    Some(summary.primary),
                ),
                Metric::new(
                    "large_latency_p50_ms",
                    summary.large_p50_ms,
                    "ms",
                    Some(large),
                ),
                Metric::new(
                    "ok_share",
                    (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
                    "share",
                    Some(checks.attempted as usize),
                ),
                Metric::new("peak_rss_mb", peak_rss_mb, "MiB", None),
            ];
            report(&end_to_end);
            end_to_end
        }
        Some((traced_summary, (traced_m, loop_spans))) => {
            let replay = layers::replay(args.seed, epoch, &mut checks);
            let spans = trace::merge(vec![loop_spans, replay.spans]);
            let mut per_layer = replay.metrics;
            per_layer.extend(finish.metrics);
            per_layer.extend(client_metrics(&spans, matches!(args.kind, Kind::Offline)));
            per_layer.push(Metric::new(
                "server.overhead_ms",
                trace::overhead_ms(&spans, "client.roundtrip", chain),
                "ms",
                None,
            ));
            let (fps, traced_fps) = (summary.frames_per_s, traced_summary.frames_per_s);
            println!("frames_per_s untraced {fps} traced {traced_fps}");
            per_layer.push(Metric::new(
                "trace.overhead_share",
                (fps - traced_fps) / fps,
                "share",
                Some(traced_m.jobs.len()),
            ));
            report(&per_layer);
            match dump_spans(args, &stamp, &spans) {
                Ok(path) => println!("spans written to {path}"),
                Err(e) => problems.push(format!("writing spans: {e}")),
            }
            per_layer
        }
    };

    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not a number", m.name));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && checks.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// `client.roundtrip_*` at p50 and p99 per class, with sample counts. On
/// the library path every frame is 2048², so both classes are the same
/// spans.
fn client_metrics(spans: &[Span], offline: bool) -> Vec<Metric> {
    let large_name = if offline {
        "client.roundtrip"
    } else {
        "client.roundtrip.large"
    };
    let mut out = Vec::new();
    for (prefix, name) in [
        ("client.roundtrip", "client.roundtrip"),
        ("client.large_roundtrip", large_name),
    ] {
        for (suffix, q) in [("p50_ms", 500), ("p99_ms", 990)] {
            let (v, n) = trace::pct_ms(spans, name, q);
            out.push(Metric::new(&format!("{prefix}_{suffix}"), v, "ms", Some(n)));
        }
        let n = trace::pct_ms(spans, name, 500).1;
        out.push(Metric::new(
            &format!("{prefix}_samples"),
            n as f64,
            "count",
            None,
        ));
    }
    out
}

fn report(metrics: &[Metric]) {
    for m in metrics {
        match m.samples {
            Some(n) => println!("metric {} = {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("metric {} = {} {}", m.name, m.value, m.unit),
        }
    }
}

/// Writes the environment stamp, every span and the per-name summary
/// (count, median duration, median self time) under the build directory.
fn dump_spans(args: &Args, stamp: &str, spans: &[Span]) -> std::io::Result<String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join("slapbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"env\": {stamp},\n\"summary\": {{")?;
    let summary = trace::summary(spans);
    let last = summary.len().saturating_sub(1);
    for (i, (name, (count, total, own))) in summary.iter().enumerate() {
        let sep = if i == last { "" } else { "," };
        writeln!(
            f,
            "  {}: {{\"count\": {count}, \"p50_ms\": {total}, \"self_p50_ms\": {own}}}{sep}",
            json_str(name)
        )?;
    }
    writeln!(f, "}},\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            f,
            "  [{}, {}, {}, {parent}, {}, {}]{sep}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.frame,
            s.kind
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "slapbench: {e}\nusage: slapbench --workload <offline-2048|serve-grid|serve-stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let code = run(&args);
    std::process::exit(code);
}
