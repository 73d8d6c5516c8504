//! The `slap-bench tiled` sweep: 2-D tiled engine across tile shapes, the
//! strip shape the `parallel` registry row opens, and the out-of-core band
//! scheduler, serialized to `BENCH_tiled.json`.
//!
//! For each (family, size, connectivity) point the sweep times the
//! sequential fast engine once (the identity baseline), the tiled engine at
//! every shape in [`TILE_SHAPES`], the strip shape `T × 1` on `T` workers at
//! every `T` in [`STRIP_THREADS`] (exactly what `EngineKind::Parallel`
//! opens: the strip two-pass of Gupta et al., arXiv 1606.05973, is the
//! one-column case of the coarse-to-fine tiling of Chen et al., arXiv
//! 1712.09789) — asserting bit-identical labels while timing — and the
//! out-of-core scheduler at a band budget of a quarter frame, recording its
//! carried-state peak and checking its retired labels against the
//! whole-frame engine. The recorded `host_threads` travels with the file:
//! the [`validate`] headline speedups on `random50` @ 2048² under
//! 4-connectivity — tiled 2×2 @ 4 threads ≥ [`TILED_SPEEDUP`]× and strips @
//! 4 threads ≥ [`STRIP_SPEEDUP`]× the fast engine — are only enforceable
//! when the recording host actually has ≥ [`MIN_HOST_THREADS`] hardware
//! threads; the bit-identity, carried-state, and coverage checks apply
//! everywhere.

use crate::json;
use crate::sweep::{self, conn_id, Point, CONNS, SEED};
use slap_cc::engine::EngineKind;
use slap_image::{label_out_of_core, BitmapRows, LabelGrid};
use std::fmt::Write as _;

/// Schema identifier stamped into (and required from) every tiled file.
pub const SCHEMA: &str = "slap-bench-tiled/v2";

/// Tile grids swept, as `(tiles_y, tiles_x)`: the two degenerate
/// single-axis cuts, the canonical quad, and a deeper hierarchy.
pub const TILE_SHAPES: &[(usize, usize)] = &[(1, 2), (2, 1), (2, 2), (4, 4)];

/// Worker threads given to every tiled entry.
pub const TILE_THREADS: usize = 4;

/// Thread counts swept by the `parallel` strip entries (`T × 1` tiles on
/// `T` workers).
pub const STRIP_THREADS: &[usize] = &[1, 2, 4, 8];

/// The headline speedup `validate` demands from tiled 2×2 @ 4 threads over
/// the sequential engine on `random50` @ 2048² (4-connectivity), on hosts
/// with at least [`MIN_HOST_THREADS`] hardware threads.
pub const TILED_SPEEDUP: f64 = 1.5;

/// The headline speedup `validate` demands from the `parallel` strips @ 4
/// threads over the sequential engine at the same point and under the same
/// host condition.
pub const STRIP_SPEEDUP: f64 = 1.8;

/// Minimum recorded host parallelism for the speedup criteria to apply.
pub const MIN_HOST_THREADS: u64 = 4;

/// One timed (family, size, connectivity, engine) point.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Workload family name (a `gen::by_name` key).
    pub family: String,
    /// Image side (the image is `n × n`).
    pub n: usize,
    /// Adjacency convention: `4` or `8`.
    pub conn: u32,
    /// `"fast"` (sequential reference), `"tiled"`, `"parallel"` (strips),
    /// or `"ooc"`.
    pub engine: String,
    /// Tile grid, `(tiles_y, tiles_x)`; `(1, 1)` for the fast reference,
    /// `(threads, 1)` for strips, and `(1, tiles_x)` for out-of-core bands.
    pub tiles: (usize, usize),
    /// Worker threads.
    pub threads: usize,
    /// Best wall-clock nanoseconds over the repetitions.
    pub best_ns: u64,
    /// Mean wall-clock nanoseconds over the repetitions.
    pub mean_ns: u64,
    /// Number of timed repetitions.
    pub reps: usize,
    /// For `"tiled"` and `"parallel"` entries: labels were bit-identical to
    /// the sequential engine's.
    pub bit_identical: Option<bool>,
    /// For `"ooc"` entries: rows resident per band (strictly below `n`, so
    /// the frame genuinely exceeded the band budget).
    pub band_rows: Option<usize>,
    /// For `"ooc"` entries: peak carried seam runs across band boundaries —
    /// the `O(cols + live)` witness, at most `n/2 + 1`.
    pub peak_carried_runs: Option<usize>,
    /// For `"ooc"` entries: the retired label set matched the whole-frame
    /// engine's component labels exactly.
    pub components_match: Option<bool>,
}

impl Entry {
    /// A timed entry at sweep point `p` with no engine-specific fields set.
    fn timed(
        p: &Point,
        engine: &str,
        tiles: (usize, usize),
        threads: usize,
        (best_ns, mean_ns): (u64, u64),
    ) -> Entry {
        Entry {
            family: p.family.to_string(),
            n: p.n,
            conn: p.cid,
            engine: engine.to_string(),
            tiles,
            threads,
            best_ns,
            mean_ns,
            reps: p.reps,
            bit_identical: None,
            band_rows: None,
            peak_carried_runs: None,
            components_match: None,
        }
    }
}

/// A finished sweep, ready to serialize.
#[derive(Clone, Debug)]
pub struct TiledReport {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_threads: usize,
    /// Families swept.
    pub families: Vec<String>,
    /// Sides swept.
    pub sides: Vec<usize>,
    /// All timed points.
    pub entries: Vec<Entry>,
}

/// Sweep parameters per scale.
fn sweep_params(quick: bool) -> (&'static [&'static str], &'static [usize]) {
    const FAMILIES: &[&str] = &["random50", "blobs", "checker"];
    if quick {
        (FAMILIES, &[64, 128, 256])
    } else {
        (FAMILIES, &[512, 1024, 2048])
    }
}

/// Runs the sweep. `progress` receives one line per timed point. The fast
/// reference, every tiled shape, and every strip shape run as warm registry
/// sessions; the out-of-core point re-streams the frame from memory through
/// [`BitmapRows`] with a quarter-frame band budget.
pub fn run_tiled(quick: bool, mut progress: impl FnMut(&str)) -> TiledReport {
    let (families, sides) = sweep_params(quick);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut entries = Vec::new();
    let mut fast = EngineKind::Fast.session(1);
    let mut fast_grid = LabelGrid::new_background(1, 1);
    let mut tiled_grid = LabelGrid::new_background(1, 1);
    sweep::drive(families, sides, quick, |p| {
        let (family, n, conn, cid, img, reps) = (p.family, p.n, p.conn, p.cid, p.img, p.reps);
        let timing = sweep::time_reps(reps, || {
            fast.label_into(std::hint::black_box(img), conn, &mut fast_grid);
        });
        progress(&format!(
            "{family}/{n}/{cid}-conn fast: {:.3} ms",
            timing.0 as f64 / 1e6
        ));
        entries.push(Entry::timed(p, "fast", (1, 1), 1, timing));
        let tiled = TILE_SHAPES
            .iter()
            .map(|&(tiles_y, tiles_x)| (EngineKind::Tiled { tiles_x, tiles_y }, TILE_THREADS));
        let strips = STRIP_THREADS.iter().map(|&t| (EngineKind::Parallel, t));
        for (kind, threads) in tiled.chain(strips) {
            let mut session = kind.session(threads);
            let tiles = match kind {
                EngineKind::Tiled { tiles_x, tiles_y } => (tiles_y, tiles_x),
                _ => (threads, 1),
            };
            let timing = sweep::time_reps(reps, || {
                session.label_into(std::hint::black_box(img), conn, &mut tiled_grid);
            });
            let ok = tiled_grid == fast_grid;
            progress(&format!(
                "{family}/{n}/{cid}-conn {kind} {}x{} @{threads}: {:.3} ms",
                tiles.0,
                tiles.1,
                timing.0 as f64 / 1e6
            ));
            entries.push(Entry {
                bit_identical: Some(ok),
                ..Entry::timed(p, kind.name(), tiles, threads, timing)
            });
        }
        // Out-of-core: a quarter-frame band budget forces ≥ 4 band
        // seams; correctness = the retired label set equals the
        // whole-frame component labels.
        let band_rows = (n / 4).max(1);
        let tiles_x = 2usize;
        let run = label_out_of_core(&mut BitmapRows::new(img), conn, band_rows, tiles_x)
            .expect("in-memory rows cannot fail");
        let mut retired: Vec<u64> = run
            .components
            .iter()
            .map(|rec| rec.label(img.rows()))
            .collect();
        retired.sort_unstable();
        let mut want: Vec<u64> = fast_grid
            .component_stats()
            .iter()
            .map(|s| u64::from(s.label))
            .collect();
        want.sort_unstable();
        let ok = retired == want;
        let timing = sweep::time_reps(reps, || {
            let mut rows = BitmapRows::new(std::hint::black_box(img));
            label_out_of_core(&mut rows, conn, band_rows, tiles_x).unwrap();
        });
        progress(&format!(
            "{family}/{n}/{cid}-conn ooc@{band_rows} rows: {:.3} ms \
             (peak carried {})",
            timing.0 as f64 / 1e6,
            run.stats.peak_carried_runs
        ));
        entries.push(Entry {
            band_rows: Some(band_rows),
            peak_carried_runs: Some(run.stats.peak_carried_runs),
            components_match: Some(ok),
            ..Entry::timed(p, "ooc", (1, tiles_x), tiles_x, timing)
        });
    });
    TiledReport {
        scale: if quick { "quick" } else { "full" }.to_string(),
        host_threads,
        families: families.iter().map(|s| s.to_string()).collect(),
        sides: sides.to_vec(),
        entries,
    }
}

impl TiledReport {
    /// Best time of one recorded point.
    fn best_of(
        &self,
        family: &str,
        n: usize,
        conn: u32,
        engine: &str,
        tiles: (usize, usize),
    ) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| {
                e.family == family
                    && e.n == n
                    && e.conn == conn
                    && e.engine == engine
                    && e.tiles == tiles
            })
            .map(|e| e.best_ns)
    }

    /// Serializes the report. Hand-rolled (the workspace `serde` is a
    /// no-op stub); [`validate`] checks the inverse direction.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json::quote(SCHEMA));
        let _ = writeln!(s, "  \"scale\": {},", json::quote(&self.scale));
        let _ = writeln!(s, "  \"seed\": {SEED},");
        let _ = writeln!(s, "  \"host_threads\": {},", self.host_threads);
        let fams: Vec<String> = self.families.iter().map(|f| json::quote(f)).collect();
        let _ = writeln!(s, "  \"families\": [{}],", fams.join(", "));
        let sides: Vec<String> = self.sides.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(s, "  \"sides\": [{}],", sides.join(", "));
        let shapes: Vec<String> = TILE_SHAPES
            .iter()
            .map(|&(y, x)| format!("[{y}, {x}]"))
            .collect();
        let _ = writeln!(s, "  \"tile_shapes\": [{}],", shapes.join(", "));
        let strips: Vec<String> = STRIP_THREADS.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(s, "  \"strip_threads\": [{}],", strips.join(", "));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"family\": {}, \"n\": {}, \"conn\": {}, \"engine\": {}, \
                 \"tiles_y\": {}, \"tiles_x\": {}, \"threads\": {}, \
                 \"best_ns\": {}, \"mean_ns\": {}, \"reps\": {}",
                json::quote(&e.family),
                e.n,
                e.conn,
                json::quote(&e.engine),
                e.tiles.0,
                e.tiles.1,
                e.threads,
                e.best_ns,
                e.mean_ns,
                e.reps
            );
            if let Some(ok) = e.bit_identical {
                let _ = write!(s, ", \"bit_identical\": {ok}");
            }
            if let Some(b) = e.band_rows {
                let _ = write!(s, ", \"band_rows\": {b}");
            }
            if let Some(p) = e.peak_carried_runs {
                let _ = write!(s, ", \"peak_carried_runs\": {p}");
            }
            if let Some(ok) = e.components_match {
                let _ = write!(s, ", \"components_match\": {ok}");
            }
            s.push('}');
            if i + 1 < self.entries.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");
        // Derived scaling ratios: tiled shape and strips@T vs the sequential
        // engine.
        s.push_str("  \"speedups\": [\n");
        let mut lines = Vec::new();
        for family in &self.families {
            for &n in &self.sides {
                for &conn in CONNS {
                    let cid = conn_id(conn);
                    let Some(fast) = self.best_of(family, n, cid, "fast", (1, 1)) else {
                        continue;
                    };
                    let ratio = |engine: &str, shape, key: String| {
                        let t = self.best_of(family, n, cid, engine, shape)?;
                        Some(format!("\"{key}\": {:.3}", fast as f64 / t.max(1) as f64))
                    };
                    let ratios: Vec<String> =
                        TILE_SHAPES
                            .iter()
                            .filter_map(|&(y, x)| ratio("tiled", (y, x), format!("{y}x{x}")))
                            .chain(STRIP_THREADS.iter().filter_map(|&t| {
                                ratio("parallel", (t, 1), format!("parallel@{t}"))
                            }))
                            .collect();
                    lines.push(format!(
                        "    {{\"family\": {}, \"n\": {}, \"conn\": {}, {}}}",
                        json::quote(family),
                        n,
                        cid,
                        ratios.join(", ")
                    ));
                }
            }
        }
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Which engines one (family, n, conn) point of a file covers.
struct Coverage {
    family: String,
    n: u64,
    conn: u64,
    fast: bool,
    shapes: Vec<(u64, u64)>,
    strips: Vec<u64>,
    ooc: bool,
}

/// Validates a tiled-sweep JSON document against the schema. Always
/// enforced: every tiled and strip entry is bit-identical, every strip
/// entry records a `threads × 1` grid, every out-of-core entry labeled a
/// frame strictly taller than its band budget with the retired set matching
/// the whole-frame engine and carried state within the `n/2 + 1` row bound,
/// and each connectivity is covered by ≥ 2 families × ≥ 3 sizes × (≥ 3 tile
/// shapes and ≥ 3 strip thread counts) plus at least one out-of-core point.
/// With `require_full` the file must be a full-scale sweep and — when the
/// recording host had ≥ [`MIN_HOST_THREADS`] hardware threads — meet both
/// headlines, [`TILED_SPEEDUP`] and [`STRIP_SPEEDUP`]; on narrower hosts (a
/// 1-core CI container cannot exhibit wall-clock speedup) everything else
/// still applies.
pub fn validate(text: &str, require_full: bool) -> Result<(), String> {
    let doc = json::parse(text)?;
    let obj = doc.as_object().ok_or("top level is not an object")?;
    let get = |key: &str| {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    };
    let schema = get("schema")?.as_str().ok_or("schema is not a string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let scale = get("scale")?.as_str().ok_or("scale is not a string")?;
    if scale != "quick" && scale != "full" {
        return Err(format!("scale {scale:?} is neither quick nor full"));
    }
    if require_full && scale != "full" {
        return Err("a full-scale tiled sweep is required".to_string());
    }
    let host_threads = get("host_threads")?
        .as_u64()
        .filter(|&v| v > 0)
        .ok_or("host_threads is not a positive integer")?;
    let entries = get("entries")?
        .as_array()
        .ok_or("entries is not an array")?;
    if entries.is_empty() {
        return Err("entries is empty".to_string());
    }
    let mut coverage: Vec<Coverage> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let ctx = |msg: &str| format!("entry {i}: {msg}");
        let eo = e.as_object().ok_or_else(|| ctx("not an object"))?;
        let field = |key: &str| {
            eo.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ctx(&format!("missing {key:?}")))
        };
        let family = field("family")?
            .as_str()
            .ok_or_else(|| ctx("family is not a string"))?
            .to_string();
        let n = field("n")?
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| ctx("n is not a positive integer"))?;
        let conn = field("conn")?
            .as_u64()
            .filter(|&c| c == 4 || c == 8)
            .ok_or_else(|| ctx("conn is not 4 or 8"))?;
        let engine = field("engine")?
            .as_str()
            .ok_or_else(|| ctx("engine is not a string"))?
            .to_string();
        let tiles_y = field("tiles_y")?
            .as_u64()
            .filter(|&t| t > 0)
            .ok_or_else(|| ctx("tiles_y is not a positive integer"))?;
        let tiles_x = field("tiles_x")?
            .as_u64()
            .filter(|&t| t > 0)
            .ok_or_else(|| ctx("tiles_x is not a positive integer"))?;
        let threads = field("threads")?
            .as_u64()
            .filter(|&t| t > 0)
            .ok_or_else(|| ctx("threads is not a positive integer"))?;
        let best = field("best_ns")?
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| ctx("best_ns is not a positive integer"))?;
        let mean = field("mean_ns")?
            .as_u64()
            .ok_or_else(|| ctx("mean_ns is not an integer"))?;
        if mean < best {
            return Err(ctx("mean_ns is below best_ns"));
        }
        field("reps")?
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| ctx("reps is not a positive integer"))?;
        let opt_bool = |key: &str| {
            eo.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_bool())
        };
        match engine.as_str() {
            "fast" => {
                if (tiles_y, tiles_x) != (1, 1) {
                    return Err(ctx("fast entries must record a 1x1 grid"));
                }
            }
            "tiled" | "parallel" => {
                if engine == "parallel" && (tiles_y, tiles_x) != (threads, 1) {
                    return Err(ctx("strip entries must record a threads x 1 grid"));
                }
                let ok = opt_bool("bit_identical")
                    .ok_or_else(|| ctx(&format!("{engine} entry lacks bit_identical")))?;
                if !ok {
                    return Err(ctx("labels were not bit-identical to the fast engine"));
                }
            }
            "ooc" => {
                let band = eo
                    .iter()
                    .find(|(k, _)| k == "band_rows")
                    .and_then(|(_, v)| v.as_u64())
                    .ok_or_else(|| ctx("ooc entry lacks band_rows"))?;
                if band >= n {
                    return Err(ctx("ooc band budget must be below the frame height"));
                }
                let peak = eo
                    .iter()
                    .find(|(k, _)| k == "peak_carried_runs")
                    .and_then(|(_, v)| v.as_u64())
                    .ok_or_else(|| ctx("ooc entry lacks peak_carried_runs"))?;
                if peak > n / 2 + 1 {
                    return Err(ctx(&format!(
                        "peak carried runs {peak} exceeds the one-row bound {}",
                        n / 2 + 1
                    )));
                }
                let ok = opt_bool("components_match")
                    .ok_or_else(|| ctx("ooc entry lacks components_match"))?;
                if !ok {
                    return Err(ctx("retired labels did not match the whole-frame engine"));
                }
            }
            other => return Err(ctx(&format!("unknown engine {other:?}"))),
        }
        let idx = match coverage
            .iter()
            .position(|c| c.family == family && c.n == n && c.conn == conn)
        {
            Some(idx) => idx,
            None => {
                coverage.push(Coverage {
                    family,
                    n,
                    conn,
                    fast: false,
                    shapes: Vec::new(),
                    strips: Vec::new(),
                    ooc: false,
                });
                coverage.len() - 1
            }
        };
        let point = &mut coverage[idx];
        match engine.as_str() {
            "fast" => point.fast = true,
            "tiled" => point.shapes.push((tiles_y, tiles_x)),
            "parallel" => point.strips.push(threads),
            _ => point.ooc = true,
        }
    }
    // Coverage: every counted point needs the sequential reference plus ≥ 3
    // distinct tile shapes and ≥ 3 distinct strip thread counts; each
    // connectivity needs ≥ 2 families × ≥ 3 sizes of such points and at
    // least one out-of-core point.
    fn distinct<T: Ord + Clone>(v: &[T]) -> usize {
        let mut v = v.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
    for want in [4u64, 8] {
        let full_points: Vec<&Coverage> = coverage
            .iter()
            .filter(|c| {
                c.conn == want && c.fast && distinct(&c.shapes) >= 3 && distinct(&c.strips) >= 3
            })
            .collect();
        let fams: Vec<&str> = full_points.iter().map(|c| c.family.as_str()).collect();
        let ns: Vec<u64> = full_points.iter().map(|c| c.n).collect();
        if distinct(&fams) < 2 || distinct(&ns) < 3 {
            return Err(format!(
                "coverage too thin at {want}-connectivity: {} families × {} sizes \
                 with fast + ≥3 tile shapes + ≥3 strip thread counts (need ≥ 2 × ≥ 3)",
                distinct(&fams),
                distinct(&ns)
            ));
        }
        if !coverage.iter().any(|c| c.conn == want && c.ooc) {
            return Err(format!("no out-of-core point at {want}-connectivity"));
        }
    }
    if require_full && host_threads >= MIN_HOST_THREADS {
        let best_of = |engine: &str, ty: u64, tx: u64| {
            entries.iter().find_map(|e| {
                let eo = e.as_object()?;
                let s = |k: &str| eo.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                (s("family")?.as_str()? == "random50"
                    && s("n")?.as_u64()? == 2048
                    && s("conn")?.as_u64()? == 4
                    && s("engine")?.as_str()? == engine
                    && s("tiles_y")?.as_u64()? == ty
                    && s("tiles_x")?.as_u64()? == tx)
                    .then(|| s("best_ns")?.as_u64())
                    .flatten()
            })
        };
        let fast = best_of("fast", 1, 1).ok_or("no fast entry for random50 @ 2048 (4-conn)")?;
        for (engine, (ty, tx), what, required) in [
            ("tiled", (2, 2), "tiled 2x2", TILED_SPEEDUP),
            ("parallel", (4, 1), "parallel@4", STRIP_SPEEDUP),
        ] {
            let t = best_of(engine, ty, tx)
                .ok_or_else(|| format!("no {what} entry for random50 @ 2048 (4-conn)"))?;
            let ratio = fast as f64 / t.max(1) as f64;
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A full-scale report that passes every gate on an 8-thread host: 2×
    /// for every tile shape, 4× for strips at 4 threads.
    pub(crate) fn tiny_report(host_threads: usize) -> TiledReport {
        let mut entries = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [512usize, 1024, 2048] {
                for conn in [4u32, 8] {
                    let point = |engine: &str, tiles, threads, best_ns| Entry {
                        family: family.to_string(),
                        n,
                        conn,
                        engine: engine.to_string(),
                        tiles,
                        threads,
                        best_ns,
                        mean_ns: 4500,
                        reps: 3,
                        bit_identical: (engine == "tiled" || engine == "parallel").then_some(true),
                        band_rows: (engine == "ooc").then_some(n / 4),
                        peak_carried_runs: (engine == "ooc").then_some(n / 8),
                        components_match: (engine == "ooc").then_some(true),
                    };
                    entries.push(point("fast", (1, 1), 1, 4000));
                    for &shape in TILE_SHAPES {
                        entries.push(point("tiled", shape, TILE_THREADS, 2000));
                        // 2× speedup
                    }
                    for &t in STRIP_THREADS {
                        // 4× at 4 threads
                        entries.push(point("parallel", (t, 1), t, 4000 / (t as u64).min(4)));
                    }
                    entries.push(point("ooc", (1, 2), 2, 4400));
                }
            }
        }
        TiledReport {
            scale: "full".to_string(),
            host_threads,
            families: vec!["random50".to_string(), "blobs".to_string()],
            sides: vec![512, 1024, 2048],
            entries,
        }
    }

    /// `tiny_report(host_threads)` with every `engine` entry slowed to the
    /// sequential engine's time (no speedup at any shape or thread count).
    pub(crate) fn without_speedup(host_threads: usize, engine: &str) -> TiledReport {
        let mut report = tiny_report(host_threads);
        for e in &mut report.entries {
            if e.engine == engine {
                e.best_ns = 4000;
            }
        }
        report
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny_report(8).to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let text = tiny_report(8).to_json().replace(SCHEMA, "bogus/v0");
        assert!(validate(&text, false).is_err());
        // The strip-less v1 schema is no longer accepted.
        let text = tiny_report(8)
            .to_json()
            .replace(SCHEMA, "slap-bench-tiled/v1");
        assert!(validate(&text, false).is_err());
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "tiled" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn validation_rejects_mismatched_ooc_components() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.components_match = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("retired"), "{err}");
    }

    #[test]
    fn validation_rejects_unbounded_carried_state() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.peak_carried_runs = Some(e.n); // a full frame of state
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("one-row bound"), "{err}");
    }

    #[test]
    fn validation_rejects_in_core_band_budgets() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "ooc" {
                e.band_rows = Some(e.n); // whole frame resident: not OOC
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("band budget"), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_speedup_on_wide_hosts() {
        let text = without_speedup(8, "tiled").to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("1.5"), "{err}");
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // Same no-speedup numbers, but recorded on a 1-thread host: the
        // ratio criterion cannot apply there.
        validate(&without_speedup(1, "tiled").to_json(), true)
            .expect("narrow-host full validation");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny_report(8);
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        let report = run_tiled(true, |_| {});
        validate(&report.to_json(), false).expect("fresh quick sweep validates");
    }
}
