//! The repo benchmark: five workloads, eight end-to-end metrics that every
//! workload reports, and a traced run that attributes time to layers from
//! outside the program. `README.md` beside this file says what each name
//! means and why it is there; `BENCHMARK.json` at the repo root is the
//! machine-readable list.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds 15 --trace <0|1> [--trace-out <file>]
//! benchmark --seed <n> [--trace 1]      # every workload, one child process each
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

#![forbid(unsafe_code)]

mod host;
mod inputs;
mod layers;
mod learning;
mod oracle;
mod report;
mod serving;
mod spec;
mod stats;
mod trace;

use report::{metrics_json, Outcome};
use spec::{Sizes, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Trace;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 1, trace: false, trace_out: None };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match (flag.as_str(), value.as_str()) {
            ("--workload", name) if WORKLOADS.contains(&name) => parsed.workload = Some(value.clone()),
            ("--workload", _) => return Err(format!("unknown workload {value}; known: {}", WORKLOADS.join(", "))),
            ("--seed", _) => {
                parsed.seed = value.parse().map_err(|_| format!("--seed {value} is not a whole number"))?
            }
            // The driver passes the `run_seconds` of `BENCHMARK.json`. The
            // window is a constant of the benchmark, so that is the only
            // value there is.
            ("--seconds", _) if value.parse() == Ok(RUN_SECONDS) => {}
            ("--seconds", _) => return Err(format!("the window is {RUN_SECONDS} s; --seconds {value} is not offered")),
            ("--trace", "0" | "1") => parsed.trace = value == "1",
            ("--trace", _) => return Err(format!("--trace takes 0 or 1, not {value}")),
            ("--trace-out", _) => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_workload(name: &str, sizes: &Sizes, seed: u64, trace: Option<&mut Trace>) -> Outcome {
    match name {
        "serve_solo_10k" => serving::serve_solo(sizes, sizes.small_catalog, seed, trace),
        "serve_solo_120k" => serving::serve_solo(sizes, sizes.large_catalog, seed, trace),
        "batch_120k" => serving::batch(sizes, sizes.large_catalog, seed, trace),
        "train_eval_ml1m" => learning::train_eval(sizes, seed, trace),
        "online_rounds" => learning::online(sizes, seed, trace),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// Where a traced run writes its spans unless `--trace-out` says otherwise:
/// under the build's target directory, which `.gitignore` already covers.
fn default_trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark").join(format!("trace-{workload}.jsonl"))
}

/// One workload, in this process: prints every metric by name and unit, then
/// the result line. `Err` (nothing measured, or a metric is not a number)
/// makes the process exit non-zero without a result line.
fn run_single(name: &str, args: &Args) -> Result<bool, String> {
    let fingerprint = host::fingerprint(args.seed);
    println!("benchmark: workload={name} trace={} seconds={RUN_SECONDS} {fingerprint}", u8::from(args.trace));
    let sizes = Sizes::reference();
    let mut trace = args.trace.then(Trace::new);
    let outcome = run_workload(name, &sizes, args.seed, trace.as_mut());
    let peak_rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    println!(
        "phases: warm-up sent={} succeeded={} failed={} | measured sent={} succeeded={} failed={} failed_share={}",
        outcome.warmup.sent,
        outcome.warmup.succeeded,
        outcome.warmup.failed,
        outcome.measured.sent,
        outcome.measured.succeeded,
        outcome.measured.failed,
        outcome.failed_share()
    );
    println!("set-up runs: {:?} s", outcome.setup_runs_s);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let end_to_end = outcome.end_to_end(peak_rss_mib);
    for (metric, unit, value) in &end_to_end {
        println!("end_to_end: {metric} = {value} {unit}");
    }
    let emitted = if let Some(trace) = &trace {
        let per_layer = outcome.per_layer();
        for (metric, unit, value) in &per_layer {
            println!("per_layer: {metric} = {value} {unit}");
        }
        let path = args.trace_out.clone().unwrap_or_else(|| default_trace_path(name));
        let header = format!("{{\"workload\": \"{name}\", \"fingerprint\": {fingerprint}}}");
        trace.write_jsonl(&path, &header).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", trace.spans().len(), path.display());
        per_layer
    } else {
        end_to_end
    };
    if let Some((metric, _, value)) = emitted.iter().find(|(_, _, value)| !value.is_finite()) {
        return Err(format!("{metric} was not measured ({value})"));
    }
    if outcome.measured.sent == 0 {
        return Err("nothing was attempted".to_string());
    }
    let correct = outcome.measured.failed == 0 && outcome.warmup.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.measured.sent,
        outcome.measured.failed,
        metrics_json(&emitted)
    );
    Ok(correct)
}

/// Lines of a child's output that carry `end_to_end: name = value unit`.
fn end_to_end_values(output: &str) -> Vec<(String, f64)> {
    output
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.strip_prefix("end_to_end: ")?.split_once(" = ")?;
            Some((name.to_string(), rest.split(' ').next()?.parse().ok()?))
        })
        .collect()
}

/// Every workload, each in a child process of its own (a fresh global pool,
/// kernel tier and peak RSS per workload). With `--trace 1` each workload
/// runs twice — untraced, then traced — and the difference of every
/// end-to-end metric between the two runs is printed as `trace_overhead`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let run_child = |name: &str, traced: bool| -> Result<(bool, String), String> {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string(), "--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout).into_owned();
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        Ok((output.status.success(), text))
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let (ok, untraced) = run_child(name, false)?;
        all_correct &= ok;
        results
            .push(format!("\"{name}\": {}", untraced.lines().last().filter(|l| l.starts_with('{')).unwrap_or("null")));
        if args.trace {
            let (ok, traced) = run_child(name, true)?;
            all_correct &= ok;
            for ((metric, plain), (_, traced)) in
                end_to_end_values(&untraced).into_iter().zip(end_to_end_values(&traced))
            {
                println!(
                    "trace_overhead: {name} {metric} untraced={plain} traced={traced} difference={:+.2}%",
                    (traced - plain) / plain * 100.0
                );
            }
        }
    }
    println!(
        "{{\"correct\": {all_correct}, \"fingerprint\": {}, \"workloads\": {{{}}}}}",
        host::fingerprint(args.seed),
        results.join(", ")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let forbidden = host::forbidden_env_set();
    if !forbidden.is_empty() {
        eprintln!(
            "benchmark: refusing to measure with {} set — they change what is built and run",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(name) => run_single(name, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: operations failed or outputs were wrong — see failed_share above");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = args(&["--workload", "batch_120k", "--seed", "42", "--seconds", "15", "--trace", "1"]).unwrap();
        assert_eq!(parsed, Args { workload: Some("batch_120k".to_string()), seed: 42, trace: true, trace_out: None });
        assert!(!args(&["--trace", "0", "--seed", "3"]).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "serve_solo_1m"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "10"]).is_err(), "the window is a constant");
        assert!(args(&["--seed", "3", "--trace"]).is_err());
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn metric_lines_are_read_back() {
        let output = "note: x\nend_to_end: setup_s = 0.26 s\nend_to_end: users_per_s = 2200 1/s\n";
        assert_eq!(end_to_end_values(output), vec![("setup_s".to_string(), 0.26), ("users_per_s".to_string(), 2200.0)]);
    }

    /// The rot guard: every workload end to end at toy scale, traced, through
    /// the same code the real run takes. Every declared metric must come out
    /// as a finite number and nothing may fail.
    #[test]
    fn every_workload_runs_at_toy_scale_and_emits_every_metric() {
        let sizes = Sizes::toy();
        for name in WORKLOADS {
            let mut trace = Trace::new();
            let outcome = run_workload(name, &sizes, 5, Some(&mut trace));
            assert_eq!(outcome.failed_share(), 0.0, "{name}: {:?} {:?}", outcome.measured, outcome.notes);
            assert_eq!(outcome.warmup.failed, 0, "{name}");
            assert!(outcome.measured.sent > 0, "{name}");
            for (metric, _, value) in outcome.end_to_end(1.0) {
                assert!(value.is_finite(), "{name}: end-to-end {metric} = {value}");
                // A toy model asked a few dozen times may hit nothing; at
                // reference scale the quality metrics sum over thousands.
                let may_be_zero_at_toy_scale = metric == "recall_at_10" || metric == "ndcg_at_10";
                assert!(value > 0.0 || may_be_zero_at_toy_scale, "{name}: end-to-end {metric} is {value}");
            }
            for (metric, _, value) in outcome.per_layer() {
                assert!(value.is_finite(), "{name}: per-layer {metric} = {value}");
            }
            assert!(!trace.spans().is_empty(), "{name} recorded no spans");
        }
    }
}
