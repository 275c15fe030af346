//! End-to-end and per-layer benchmark of the ADAPT mask search and mask
//! service. See `README.md` beside this package for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! maskbench --workload <search_cdc|search_sdc|serve_zipf> --seed <n> --seconds <s> --trace <0|1>
//! maskbench steady --workload <name> --runs <k> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run prints a `requests` line and one `metric <name> <value> <unit>`
//! line per metric (values at full precision); the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

mod checks;
mod json;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Args, Workload};

const USAGE: &str = "usage: maskbench --workload <search_cdc|search_sdc|serve_zipf> --seed <n> \
                     --seconds <s> --trace <0|1>\n       \
                     maskbench steady --workload <name> --runs <k> [--seconds <s>] [--trace <0|1>]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String], started: Instant) -> Result<Args, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) || i + 1 >= args.len() {
            return Err(format!("unexpected argument `{}`", args[i]));
        }
        i += 2;
    }
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flag(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        started,
    })
}

fn run(args: &Args) -> ExitCode {
    match workload::run(args) {
        Ok(result) => {
            println!(
                "requests attempted {} failed {} correct {}",
                result.attempted, result.failed, result.correct
            );
            for m in &result.metrics {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            if !result.correct {
                eprintln!("answer checks FAILED");
            }
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A run's `requests` line and `metric` lines, read back from its
/// standard output: (attempted, failed, correct) and name → (value, unit).
type RunLines = ((u64, u64, bool), BTreeMap<String, (f64, String)>);

fn read_run_lines(stdout: &str) -> Result<RunLines, String> {
    let mut requests = None;
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["requests", "attempted", a, "failed", f, "correct", c] => {
                let bad = || format!("bad line `{line}`");
                requests = Some((
                    a.parse().map_err(|_| bad())?,
                    f.parse().map_err(|_| bad())?,
                    c.parse().map_err(|_| bad())?,
                ));
            }
            ["metric", name, value, unit] => {
                let value = value.parse().map_err(|_| format!("bad line `{line}`"))?;
                metrics.insert(name.to_string(), (value, unit.to_string()));
            }
            _ => {}
        }
    }
    Ok((requests.ok_or("no `requests` line")?, metrics))
}

/// Runs one workload `runs` times in fresh processes (seeds 1..=runs,
/// one after another) and prints, per metric, the median, the quartiles
/// as Python's `statistics.quantiles(values, n=4)` computes them, and
/// their spread as a share of the median.
fn steady(args: &[String], started: Instant) -> Result<(), String> {
    let runs: u64 = flag(args, "--runs")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--runs takes a whole number")?;
    if !(2..=100).contains(&runs) {
        return Err("--runs must lie in 2..=100".into());
    }
    let rest: Vec<String> = match args.iter().position(|a| a == "--runs") {
        Some(i) => [&args[..i], args.get(i + 2..).unwrap_or(&[])].concat(),
        None => args.to_vec(),
    };
    let base = parse_run(&rest, started)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut shares = Vec::new();
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args([
                "--workload",
                base.workload.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                &base.seconds.to_string(),
                "--trace",
                if base.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| e.to_string())?;
        let ((attempted, failed, correct), metrics) =
            read_run_lines(&String::from_utf8_lossy(&out.stdout))
                .map_err(|e| format!("seed {seed}: {e} (exit {:?})", out.status.code()))?;
        if !out.status.success() || !correct {
            return Err(format!("seed {seed}: run failed or its answers were wrong"));
        }
        shares.push(failed as f64 / attempted.max(1) as f64);
        eprintln!("seed {seed}: attempted {attempted}, failed {failed}");
        for (name, (value, unit)) in metrics {
            values
                .entry(name)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    println!(
        "{} over {runs} runs ({} s, trace {}); failed share per run: {:?}",
        base.workload.name(),
        base.seconds,
        u8::from(base.trace),
        shares
    );
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "iqr/med"
    );
    let mut per_run = Vec::new();
    for (name, (unit, v)) in values {
        let med = stats::median_interpolated(&v);
        let [q1, _, q3] = stats::quartiles(&v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!("{name:<34} {unit:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}");
        per_run.push(format!("{name}: {v:?}"));
    }
    println!("values per run (seed 1 first):");
    for line in per_run {
        println!("  {line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady(&args[1..], started) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse_run(&args, started) {
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lines_read_back_at_full_precision() {
        let out = "search_cdc: 2 round(s)\nrequests attempted 66 failed 1 correct true\n\
                   metric req_ms_p50 123.456789012345 ms\nmetric req_per_s 7 1/s\n{\"correct\": true}";
        let ((attempted, failed, correct), metrics) = read_run_lines(out).unwrap();
        assert_eq!((attempted, failed, correct), (66, 1, true));
        assert_eq!(metrics["req_ms_p50"], (123.456789012345, "ms".to_string()));
        assert_eq!(metrics["req_per_s"], (7.0, "1/s".to_string()));
        assert!(read_run_lines("metric x 1 s").is_err());
    }
}
