//! `slap-bench` — wall-clock perf baselines for the SLAP reproduction.
//!
//! ```text
//! slap-bench baseline                    # full sweep -> BENCH_baseline.json
//! slap-bench baseline --quick --out F    # small sweep (CI smoke), custom path
//! slap-bench stream                      # streaming sweep -> BENCH_stream.json
//! slap-bench stream --quick --out F      # small sweep (CI smoke), custom path
//! slap-bench reuse                       # cold-vs-warm sweep over the engine
//!                                        #   registry -> BENCH_reuse.json
//! slap-bench reuse --quick --out F       # small sweep (CI smoke), custom path
//! slap-bench tiled                       # tile-shape + strip-thread +
//!                                        #   out-of-core sweep
//!                                        #   -> BENCH_tiled.json
//! slap-bench tiled --quick --out F       # small sweep (CI smoke), custom path
//! slap-bench serve                       # slapd sustained jobs/sec at
//!                                        #   1/4/16 concurrent clients
//!                                        #   -> BENCH_serve.json
//! slap-bench serve --quick --out F       # small sweep (CI smoke), custom path
//! slap-bench propagate                   # label-equivalence engine vs oracle
//!                                        #   + lock-step pipeline-vs-iteration
//!                                        #   step counts -> BENCH_propagate.json
//! slap-bench propagate --quick --out F   # small sweep (CI smoke), custom path
//! slap-bench check FILE                  # schema-validate a recorded file
//! slap-bench check FILE --require-full   # + full scale and the headline criteria
//! ```
//!
//! The criterion microbenches remain under `cargo bench`; this binary records
//! the end-to-end trajectory points — oracle vs. fast engine vs. simulated
//! Algorithm CC (`baseline`, both connectivities), the bounded-memory
//! streaming engine with its frontier peaks (`stream`), cold-call vs.
//! warm-session throughput for every engine in
//! `slap_cc::engine::registry()` (`reuse`), the 2-D tiled engine across
//! tile shapes and its `T × 1` strip shape across thread counts plus the
//! out-of-core band scheduler (`tiled`), and the
//! iterative label-equivalence engine vs. the oracle plus the lock-step
//! pipeline-vs-iteration step-count comparison (`propagate`) — that the
//! `BENCH_*.json` files
//! commit to the repository. `check` dispatches on the file's `schema`
//! field.

use slap_bench::{baseline, json, propagate, reuse, serve, stream, tiled};

fn usage() -> ! {
    eprintln!(
        "usage: slap-bench baseline [--quick] [--out PATH]\n       \
         slap-bench stream [--quick] [--out PATH]\n       \
         slap-bench reuse [--quick] [--out PATH]\n       \
         slap-bench tiled [--quick] [--out PATH]\n       \
         slap-bench serve [--quick] [--out PATH]\n       \
         slap-bench propagate [--quick] [--out PATH]\n       \
         slap-bench check PATH [--require-full]"
    );
    std::process::exit(2);
}

/// Parses the shared `--quick` / `--out` flags of the sweep subcommands.
fn sweep_flags(args: &[String], default_out: &str) -> (bool, String) {
    let mut quick = false;
    let mut out = default_out.to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--out" | "-o" => match it.next() {
                Some(path) => out = path.clone(),
                None => usage(),
            },
            _ => usage(),
        }
    }
    (quick, out)
}

/// Validates `text` (against its own validator), writes it to `out`.
fn write_validated(
    text: &str,
    out: &str,
    entries: usize,
    validate: impl Fn(&str) -> Result<(), String>,
) {
    validate(text).unwrap_or_else(|e| {
        eprintln!("generated sweep failed its own validation: {e}");
        std::process::exit(1);
    });
    std::fs::write(out, text).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out} ({entries} entries)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("baseline") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_baseline.json");
            let report = baseline::run_baseline(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                baseline::validate(t, !quick)
            });
        }
        Some("stream") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_stream.json");
            let report = stream::run_stream(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                stream::validate(t, !quick)
            });
        }
        Some("reuse") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_reuse.json");
            let report = reuse::run_reuse(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                reuse::validate(t, !quick)
            });
        }
        Some("tiled") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_tiled.json");
            let report = tiled::run_tiled(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                tiled::validate(t, !quick)
            });
        }
        Some("serve") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_serve.json");
            let report = serve::run_serve(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                serve::validate(t, !quick)
            });
        }
        Some("propagate") => {
            let (quick, out) = sweep_flags(&args[1..], "BENCH_propagate.json");
            let report = propagate::run_propagate(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            write_validated(&text, &out, report.entries.len(), |t| {
                propagate::validate(t, !quick)
            });
        }
        Some("check") => {
            let mut path: Option<&str> = None;
            let mut require_full = false;
            for a in &args[1..] {
                match a.as_str() {
                    "--require-full" => require_full = true,
                    p if path.is_none() => path = Some(p),
                    _ => usage(),
                }
            }
            let Some(path) = path else { usage() };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            // Dispatch on the recorded schema id.
            let schema = json::parse(&text)
                .ok()
                .and_then(|doc| {
                    doc.as_object()?
                        .iter()
                        .find(|(k, _)| k == "schema")
                        .and_then(|(_, v)| v.as_str().map(str::to_string))
                })
                .unwrap_or_default();
            let result = match schema.as_str() {
                stream::SCHEMA => stream::validate(&text, require_full),
                tiled::SCHEMA => tiled::validate(&text, require_full),
                reuse::SCHEMA => reuse::validate(&text, require_full),
                serve::SCHEMA => serve::validate(&text, require_full),
                propagate::SCHEMA => propagate::validate(&text, require_full),
                _ => baseline::validate(&text, require_full),
            };
            match result {
                Ok(()) => println!("{path}: ok"),
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
