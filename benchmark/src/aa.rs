//! Running the suite: every workload in a fresh child process
//! (`--workload all`), and the A/A check (`aa`) that runs the untraced
//! suite twice on the same build and holds the two against each other
//! with the benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::Command;

use ss_common::Result;

use crate::spec::{self, Better};
use crate::stats;
use crate::workloads::invalid;

/// What one child run printed.
struct Child {
    ok: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

/// The unsigned integer after `"key": ` in a one-line JSON object.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Run one workload in a child process, relaying its `NOTE` and
/// `METRIC` lines (when `echo`) and keeping the metrics.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> Result<Child> {
    let exe = std::env::current_exe()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut out = Child {
        ok: output.status.success(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["METRIC", _, name, value, unit] => {
                let value = value
                    .parse()
                    .map_err(|_| invalid(format!("bad metric line: {line}")))?;
                out.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            _ if line.starts_with('{') => {
                out.attempted = json_u64(line, "attempted").unwrap_or(0);
                out.failed = json_u64(line, "failed").unwrap_or(0);
                continue;
            }
            _ => {}
        }
        if echo {
            println!("{line}");
        }
    }
    if !out.ok {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok(out)
}

/// `--workload all`: each workload in its own process, untraced, then
/// (with `--trace 1`) again traced; one summary object at the end.
pub fn run_all(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<bool> {
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let mut summary = Vec::new();
    for w in &spec::WORKLOADS {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let c = child(w.name, seed, seconds, traced, smoke, true)?;
            ok &= c.ok;
            if !traced {
                attempted += c.attempted;
                failed += c.failed;
            }
            summary.extend(c.metrics.iter().map(|(name, value, unit)| {
                format!(
                    "\"{}/{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                    w.name
                )
            }));
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        summary.join(", ")
    );
    Ok(ok)
}

/// `(workload index, end-to-end metric index) → one value per run`.
type RunValues = BTreeMap<(usize, usize), Vec<f64>>;

/// One round of the untraced suite: `runs` runs of every workload (or
/// of the `only` one), on seeds `seed..seed + runs`; per `(workload,
/// metric)` the run values.
fn round(only: &str, seed: u64, seconds: f64, runs: usize) -> Result<(bool, RunValues)> {
    let mut ok = true;
    let mut values = RunValues::new();
    for (wi, w) in spec::WORKLOADS.iter().enumerate() {
        if only != "all" && only != w.name {
            continue;
        }
        for run in 0..runs {
            let c = child(w.name, seed + run as u64, seconds, false, false, false)?;
            ok &= c.ok && c.failed == 0;
            for (mi, (m, _)) in spec::END_TO_END.iter().enumerate() {
                let found = c.metrics.iter().find(|(name, _, _)| name == m.name);
                let (_, value, _) =
                    found.ok_or_else(|| invalid(format!("{} printed no {}", w.name, m.name)))?;
                values.entry((wi, mi)).or_default().push(*value);
            }
        }
        eprintln!("aa: {} x{runs} done", w.name);
    }
    Ok((ok, values))
}

/// The A/A check. Two rounds on the same build and the same seeds; for
/// every `(workload, end-to-end metric)` the two medians may differ by
/// at most the metric's bound, and (from four runs per round up) each
/// round's quartile spread must stay within it too — `setup_s`'s
/// spread is reported but not held against it.
pub fn run(only: &str, seed: u64, seconds: f64, runs: usize) -> Result<bool> {
    let runs = runs.max(1);
    let (ok_a, a) = round(only, seed, seconds, runs)?;
    let (ok_b, b) = round(only, seed, seconds, runs)?;
    let mut ok = ok_a && ok_b;
    println!(
        "{:<17} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for ((wi, mi), va) in &a {
        let (workload, (metric, bound)) = (&spec::WORKLOADS[*wi], &spec::END_TO_END[*mi]);
        let vb = &b[&(*wi, *mi)];
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let worse = match metric.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let (sa, sb) = (stats::quartile_spread(va), stats::quartile_spread(vb));
        let spread_held = runs < 4 || metric.name == "setup_s" || sa.max(sb) <= *bound;
        let verdict = if worse.abs() > *bound {
            "MEDIANS DIFFER"
        } else if !spread_held {
            "SPREAD"
        } else {
            ""
        };
        ok &= verdict.is_empty();
        println!(
            "{:<17} {:<16} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}% {verdict}",
            workload.name,
            metric.name,
            worse * 100.0,
            sa * 100.0,
            sb * 100.0,
            bound * 100.0,
        );
        if !verdict.is_empty() {
            println!("    A {va:.6?}\n    B {vb:.6?}");
        }
    }
    println!("aa: {}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_fields_parse() {
        let line = "{\"correct\": true, \"attempted\": 2000000, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(json_u64(line, "attempted"), Some(2_000_000));
        assert_eq!(json_u64(line, "failed"), Some(0));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
