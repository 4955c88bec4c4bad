//! The repo benchmark. See `README.md` beside `Cargo.toml` for the
//! metric dictionary and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! benchmark aa --seed <u64> [--workload <name>] [--seconds <n>] [--runs <n>]
//! benchmark manifest
//! ```
//!
//! One workload runs in this process and prints one `METRIC` line per
//! metric, then — as the last line of standard output — the JSON object
//! the contract asks for. `--workload all` and `aa` run every workload
//! in a fresh child process each.

mod aa;
mod clock;
mod gen;
mod oracle;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use ss_common::Result;

use workloads::{Env, Layers, Report, Scale};

/// `run_seconds` of `BENCHMARK.json`: how long the driver's runs
/// measure. Stage lengths and topic sizes were chosen for it.
pub const RUN_SECONDS: u64 = 10;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked");
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|_| bad("not a count"))?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One metric value as printed and as put into the JSON result.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(report: &Report) -> Vec<Reading> {
    let mut latency = report.latency_ms.clone();
    stats::sort(&mut latency);
    let mut setups = report.setup_s.clone();
    stats::sort(&mut setups);
    let values = [
        // Interference only ever makes a set-up slower: the lower
        // quartile of the repetitions, like the steady tail below.
        stats::quantile(&setups, 0.25),
        stats::median(&report.throughput_rps),
        stats::quantile(&latency, 0.50),
        stats::steady_tail(&report.latency_ms, 0.95),
        report.delivered_ratio(),
        workloads::rss_peak_mb(),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|((m, _), value)| Reading {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect()
}

fn per_layer(layers: &Layers) -> Vec<Reading> {
    spec::PER_LAYER
        .iter()
        .map(|m| Reading {
            name: m.name,
            unit: m.unit,
            value: layers.get(m.name),
        })
        .collect()
}

fn dispatch(workload: &str, env: &Env) -> Result<Report> {
    match workload {
        "yahoo_drain" => workloads::yahoo::run(env, "yahoo_drain", workloads::yahoo::SERIAL),
        "yahoo_exchange" => {
            workloads::yahoo::run(env, "yahoo_exchange", workloads::yahoo::EXCHANGE)
        }
        "sessions_drain" => workloads::sessions::run_drain(env),
        "sessions_paced" => workloads::sessions::run_paced(env),
        "continuous_paced" => workloads::continuous::run(env),
        "fleet_shared" => workloads::fleet::run(env),
        other => Err(workloads::invalid(format!("unknown workload {other}"))),
    }
}

/// What one `--workload <name>` invocation produced.
pub struct Outcome {
    pub report: Report,
    pub metrics: Vec<Reading>,
}

/// Untraced: the workload as is, end-to-end metrics. Traced: a quarter
/// of the time untraced for reference, the rest with the wrappers
/// installed, then the probes; per-layer metrics.
pub fn run_workload(workload: &str, seed: u64, scale: Scale, traced: bool) -> Result<Outcome> {
    if !traced {
        let report = dispatch(
            workload,
            &Env {
                seed,
                scale,
                rec: None,
            },
        )?;
        let metrics = end_to_end(&report);
        return Ok(Outcome { report, metrics });
    }
    let part = |share: f64| Scale {
        seconds: scale.seconds * share,
        ..scale
    };
    let plain = dispatch(
        workload,
        &Env {
            seed,
            scale: part(0.25),
            rec: None,
        },
    )?;
    let rec = trace::Recorder::new(1 << 20);
    let mut report = dispatch(
        workload,
        &Env {
            seed,
            scale: part(0.75),
            rec: Some(rec),
        },
    )?;

    let open_loop = workload.ends_with("_paced");
    let (plain_rps, plain_p50) = (
        stats::median(&plain.throughput_rps),
        stats::median(&plain.latency_ms),
    );
    let overhead = if open_loop {
        stats::median(&report.latency_ms) / plain_p50
    } else {
        plain_rps / stats::median(&report.throughput_rps)
    };
    let mut latency = report.latency_ms.clone();
    stats::sort(&mut latency);
    let layers = &mut report.layers;
    layers.set("driver.trace_overhead_ratio", overhead);
    layers.set("driver.untraced_throughput_rps", plain_rps);
    layers.set("driver.untraced_latency_p50_ms", plain_p50);
    layers.set("driver.latency_samples", latency.len() as f64);
    layers.set("driver.latency_p99_ms", stats::quantile(&latency, 0.99));
    probes::run(workload, seed, scale.smoke, layers)?;
    for (name, lo, hi) in [
        ("core.xcheck_source_ratio", 0.85, 1.15),
        ("core.xcheck_sink_ratio", 0.85, 1.15),
    ] {
        let v = layers.get(name);
        if v != 0.0 && !(lo..=hi).contains(&v) {
            report.notes.push(format!(
                "WARN {name} = {v:.3} is outside {lo}-{hi}: the boundary span and the profiler phase disagree"
            ));
        }
    }
    report.correct &= plain.correct;
    report.notes.extend(
        plain
            .notes
            .iter()
            .map(|n| format!("untraced reference: {n}")),
    );
    let metrics = per_layer(&report.layers);
    Ok(Outcome { report, metrics })
}

/// The contract's result line.
pub fn result_json(report: &Report, metrics: &[Reading]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                json_number(v.value),
                v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed(),
        metrics.join(", ")
    )
}

/// A float with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The sample count behind the latency percentiles, and the highest
/// percentile that count supports.
fn tail_note(report: &Report) -> String {
    let mut latency = report.latency_ms.clone();
    stats::sort(&mut latency);
    match stats::highest_supported_percentile(latency.len()) {
        Some(p) => format!(
            "{} latency samples; the highest percentile with ten samples beyond it is p{} = {:.3} ms",
            latency.len(),
            p * 100.0,
            stats::quantile(&latency, p)
        ),
        None => format!("{} latency samples: too few for any percentile", latency.len()),
    }
}

fn run_single(args: &Args) -> Result<bool> {
    let scale = Scale {
        seconds: if args.smoke {
            args.seconds.min(0.5)
        } else {
            args.seconds
        },
        smoke: args.smoke,
    };
    let mut outcome = run_workload(&args.workload, args.seed, scale, args.trace)?;
    outcome.report.notes.push(tail_note(&outcome.report));
    if workloads::live_threads() > 1 {
        outcome.report.notes.push(format!(
            "WARN {} threads outlived the workload",
            workloads::live_threads() - 1
        ));
    }
    let mut setups = outcome.report.setup_s.clone();
    stats::sort(&mut setups);
    outcome.report.notes.push(format!(
        "{} set-ups: min {:.6} s, quartiles {:.6} / {:.6} / {:.6} s",
        setups.len(),
        setups.first().copied().unwrap_or(0.0),
        stats::quantile(&setups, 0.25),
        stats::quantile(&setups, 0.5),
        stats::quantile(&setups, 0.75),
    ));
    for note in &outcome.report.notes {
        println!("NOTE {} {note}", args.workload);
    }
    for v in &outcome.metrics {
        println!(
            "METRIC {} {} {} {}",
            args.workload,
            v.name,
            json_number(v.value),
            v.unit
        );
    }
    println!("{}", result_json(&outcome.report, &outcome.metrics));
    Ok(outcome.report.correct)
}

fn main() -> ExitCode {
    // The engine reads these when a config is defaulted; every option
    // the workloads depend on is set explicitly, and these are cleared
    // so that nothing else leaks in.
    for var in [
        "SS_PARALLELISM",
        "SS_EPOCH_DEADLINE_MS",
        "SS_EVENT_LOG",
        "SS_BENCH_RECORDS",
    ] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_str(), args.workload.as_str()) {
        ("manifest", _) => {
            print!("{}", spec::manifest_json(RUN_SECONDS));
            Ok(true)
        }
        ("aa", only) => aa::run(only, args.seed, args.seconds, args.runs),
        ("run", "all") => aa::run_all(args.seed, args.seconds, args.trace, args.smoke),
        ("run", name) if spec::workload(name).is_some() => run_single(&args),
        (command, workload) => {
            eprintln!("benchmark: unknown command or workload: {command} {workload}");
            return ExitCode::from(2);
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        seconds: 0.3,
        smoke: true,
    };

    /// All six workloads at ≈ 1 % of their records: every oracle passes
    /// and nothing due is left uncommitted.
    #[test]
    fn smoke_scale_passes_every_oracle() {
        for w in &spec::WORKLOADS {
            let outcome = run_workload(w.name, 7, SMOKE, false).expect(w.name);
            let report = &outcome.report;
            assert!(report.correct, "{}: {:?}", w.name, report.notes);
            assert_eq!(report.failed(), 0, "{}: {:?}", w.name, report.notes);
            assert!(
                report.attempted > 0 && !report.latency_ms.is_empty(),
                "{}",
                w.name
            );
            let names: Vec<&str> = outcome.metrics.iter().map(|v| v.name).collect();
            let want: Vec<&str> = spec::END_TO_END.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, want);
            assert!(
                outcome.metrics.iter().all(|v| v.value > 0.0),
                "{}: a metric reads 0",
                w.name
            );
        }
    }

    /// The traced run of one closed and one open loop: wrappers
    /// installed, oracles still pass, the spans add up.
    #[test]
    fn smoke_scale_traced_runs_report_every_layer_metric() {
        for workload in ["sessions_drain", "sessions_paced"] {
            let outcome = run_workload(workload, 11, SMOKE, true).expect(workload);
            assert!(
                outcome.report.correct,
                "{workload}: {:?}",
                outcome.report.notes
            );
            assert_eq!(outcome.metrics.len(), spec::PER_LAYER.len());
            let layers = &outcome.report.layers;
            assert!(layers.get("core.epochs") > 0.0, "{workload}");
            assert!(layers.get("bus.read_rows") > 0.0, "{workload}");
            assert!(
                layers.get("state.checkpoint_bytes_per_epoch") > 0.0,
                "{workload}"
            );
            assert!(layers.get("wal.write_commit_us_p50") > 0.0, "{workload}");
            let share = layers.get("core.self_share_of_epoch");
            assert!(
                (0.0..=1.0).contains(&share),
                "{workload}: self share {share}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 10,
            delivered: 9,
            ..Report::default()
        };
        let metrics = [Reading {
            name: "setup_s",
            unit: "s",
            value: 0.25,
        }];
        assert_eq!(
            result_json(&report, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
