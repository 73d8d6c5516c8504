//! The environment stamp printed with every result, and the process's peak
//! resident set.

use std::process::Command;

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Cache size in bytes of the given level on CPU 0 (from sysfs, e.g.
/// `4096K`).
pub fn cache_bytes(level: u32) -> Option<u64> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        if read_trimmed(&format!("{dir}/level"))? != level.to_string() {
            continue;
        }
        if read_trimmed(&format!("{dir}/type")).as_deref() == Some("Instruction") {
            continue;
        }
        let size = read_trimmed(&format!("{dir}/size"))?;
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let n: u64 = digits.parse().ok()?;
        return Some(match unit {
            "K" => n << 10,
            "M" => n << 20,
            "G" => n << 30,
            _ => n,
        });
    }
    None
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One JSON object describing where and how the run was made.
/// `working_set` pairs each frame class with its computed bytes.
pub fn stamp(workload: &str, seed: u64, working_set: &[(&str, u64)]) -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let nproc = command_line("nproc", &[]).unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let l2 = cache_bytes(2);
    let l3 = cache_bytes(3);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout: elsewhere it would report the
    // commit of whatever repository encloses the directory.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
    let sets: Vec<String> = working_set
        .iter()
        .map(|(class, bytes)| {
            let vs = |cache: Option<u64>| match cache {
                Some(c) if *bytes > c => "exceeds",
                Some(_) => "fits",
                None => "unknown",
            };
            format!(
                "{}: {{\"bytes\": {bytes}, \"vs_l2\": \"{}\", \"vs_l3\": \"{}\"}}",
                json_str(class),
                vs(l2),
                vs(l3)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"available_parallelism\": {parallelism}, \
         \"nproc\": {}, \"cpu\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"rustc\": {}, \
         \"commit\": {}, \"working_set\": {{{}}}}}",
        json_str(workload),
        json_str(&nproc),
        json_str(&cpu),
        opt(l2),
        opt(l3),
        json_str(&rustc),
        json_str(&commit),
        sets.join(", ")
    )
}
