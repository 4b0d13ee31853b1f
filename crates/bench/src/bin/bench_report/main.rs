//! `bench_report`: the committed end-to-end and per-layer benchmark
//! (`BENCHMARK.json` at the repository root; README.md beside this file).
//!
//! ```text
//! bench_report --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! bench_report [--seed 42] [--seconds 20] [--out <dir>] [--smoke]
//!     every workload, untraced then traced, each in a fresh child process
//! ```

mod client;
mod e2e;
mod metrics;
mod spans;
mod stats;
mod traced;
mod workload;

use duoquest_service::json::{escape_string, Json};
use metrics::{Better, Decl, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Workload, WORKLOADS};

/// Instances per pass and traced requests of a `--smoke` run.
const SMOKE_INSTANCES: usize = 16;
const SMOKE_TRACED: usize = 8;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_values(decls: &[Decl], outcome: &metrics::Outcome) {
    for d in decls {
        if let Some((_, value)) = outcome.values.iter().find(|(name, _)| *name == d.name) {
            let better = match d.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let bound = d.bound.map(|b| format!(", may worsen by {b}")).unwrap_or_default();
            println!("  {:<44} {value:>16.4} {:<6} ({better} is better{bound})", d.name, d.unit);
        }
    }
}

/// One workload, in this process.
fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let opts = e2e::Options {
        seed: args.seed,
        seconds: args.seconds,
        limit: args.smoke.then_some(if args.trace { SMOKE_TRACED } else { SMOKE_INSTANCES }),
    };
    let (outcome, decls): (_, &[Decl]) = if args.trace {
        let (outcome, log) = traced::run(workload, &opts);
        if let Some(dir) = &args.out {
            let path = dir.join(format!("trace-{}.json", workload.name));
            if let Err(e) = write_file(&path, &log.to_json()) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        (outcome, &PER_LAYER)
    } else {
        (e2e::run(workload, &opts), &END_TO_END)
    };
    print_values(decls, &outcome);
    println!("{}", outcome.to_json(decls));
    ExitCode::SUCCESS
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine record written into every result file.
fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
        escape_string(&kernel),
        escape_string(&command_output("rustc", &["--version"])),
        escape_string(&command_output("git", &["rev-parse", "HEAD"])),
    )
}

/// Check a child's result line: parseable, correct, nothing failed. That
/// it names exactly the declared metrics, each finite, the child has
/// asserted itself (`Outcome::to_json`).
fn check_result_line(line: &str) -> Result<(), String> {
    let json = Json::parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("run is not correct".into());
    }
    if json.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err("fail share is not 0".into());
    }
    if json.get("attempted").and_then(Json::as_u64).is_none_or(|n| n == 0) {
        return Err("nothing attempted".into());
    }
    Ok(())
}

/// Every workload, untraced then traced, each run in a fresh child process
/// so peak memory and CPU do not leak from one into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut sections = Vec::new();
    let mut problems = Vec::new();
    for workload in &WORKLOADS {
        let mut lines = Vec::new();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(dir) = &args.out {
                child.arg("--out").arg(dir);
            }
            // stderr is inherited; stdout is echoed once the child has ended.
            let output = child.output().expect("re-executing this benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default().to_string();
            if !output.status.success() {
                problems.push(format!("{} --trace {trace}: {}", workload.name, output.status));
            } else if let Err(problem) = check_result_line(&line) {
                problems.push(format!("{} --trace {trace}: {problem}", workload.name));
            }
            lines.push(format!("\"{key}\": {}", if line.is_empty() { "null" } else { &line }));
        }
        sections.push(format!("    \"{}\": {{{}}}", workload.name, lines.join(", ")));
    }
    if let Some(dir) = &args.out {
        let result = format!(
            "{{\n  \"machine\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            machine_json(),
            args.seed,
            args.seconds,
            args.smoke,
            sections.join(",\n"),
        );
        if let Err(e) = write_file(&dir.join("result.json"), &result) {
            problems.push(e);
        }
    }
    for problem in &problems {
        eprintln!("PROBLEM {problem}");
    }
    if problems.is_empty() {
        println!("bench_report: {} workloads, every declared metric reported", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_report: {message}");
            return ExitCode::from(2);
        }
    };
    if args.smoke && args.workload.is_none() {
        args.seconds = 1.0;
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match Workload::by_name(name) {
            Some(workload) => run_one(workload, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("bench_report: unknown workload {name:?}; one of {names:?}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_are_checked() {
        let outcome = metrics::Outcome {
            attempted: 10,
            failed: 0,
            sound: true,
            values: END_TO_END.iter().map(|d| (d.name, 1.5)).collect(),
        };
        assert_eq!(check_result_line(&outcome.to_json(&END_TO_END)), Ok(()));
        let failed = metrics::Outcome { failed: 1, ..outcome };
        assert!(check_result_line(&failed.to_json(&END_TO_END)).is_err());
        assert!(check_result_line("not json").is_err());
    }
}
