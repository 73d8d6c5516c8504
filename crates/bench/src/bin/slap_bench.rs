//! `slap-bench` — the one wall-clock recorder of the SLAP reproduction.
//!
//! ```text
//! slap-bench record                     # full record -> BENCH.json
//! slap-bench record --quick --out F     # small record (CI smoke), custom path
//! slap-bench check FILE                 # validate a recorded file
//! slap-bench check FILE --require-full  # + full scale and the headline gates
//! ```
//!
//! The criterion microbenches remain under `cargo bench`; this binary
//! records the end-to-end trajectory that `BENCH.json` commits to the
//! repository — every registry engine cold and warm, the streaming and
//! out-of-core record paths, the simulated Algorithm CC column, the
//! lock-step pipeline-vs-iteration round counts, and `slapd` under 1/4/16
//! clients — in one run. `record` validates the run before it writes and
//! refuses to write a file that fails (the rejected run goes to
//! `<out>.rejected`, exit 1); `check` validates a file (see
//! `slap_bench::record::validate` for the gates).

use slap_bench::record;

fn usage() -> ! {
    eprintln!(
        "usage: slap-bench record [--quick] [--out PATH]\n       \
         slap-bench check PATH [--require-full]"
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let mut quick = false;
            let mut out = "BENCH.json".to_string();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" | "-q" => quick = true,
                    "--out" | "-o" => out = it.next().unwrap_or_else(|| usage()).clone(),
                    _ => usage(),
                }
            }
            let report = record::record(quick, |line| eprintln!("  {line}"));
            let text = report.to_json();
            // Refuses to overwrite `out` with a file that fails its own
            // gates; the rejected record goes to a side path instead.
            if let Err(e) = record::validate(&text, !quick) {
                let side = format!("{out}.rejected");
                std::fs::write(&side, &text)
                    .unwrap_or_else(|e| fail(format!("cannot write {side}: {e}")));
                fail(format!(
                    "the record failed its own validation ({side} kept, {out} untouched): {e}"
                ));
            }
            std::fs::write(&out, &text)
                .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
            eprintln!("wrote {out} ({} entries)", report.entries.len());
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
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            match record::validate(&text, require_full) {
                Ok(()) => println!("{path}: ok"),
                Err(e) => fail(format!("{path}: INVALID: {e}")),
            }
        }
        _ => usage(),
    }
}
