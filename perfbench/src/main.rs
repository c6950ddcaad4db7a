//! `iotrace-perfbench --workload <capture|analyze|ingest|all> --seed <n>
//! --seconds <s> --trace <0|1> [--size <full|small>]`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics with `--trace 1`). Exits 1 when a
//! correctness check failed, 2 on bad arguments or a harness error.
//! `--size small` runs the reduced inputs of the benchmark's own tests.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use iotrace_perfbench::{parse_result, run, Metric, Options, Outcome, Size, Tally, WorkloadName};

fn usage() -> String {
    "usage: iotrace-perfbench --workload <capture|analyze|ingest|all> --seed <n> \
     --seconds <s> --trace <0|1> [--size <full|small>]"
        .to_string()
}

fn parse(args: &[String]) -> Result<(Vec<WorkloadName>, Options), String> {
    let mut workloads = None;
    let mut opts = Options {
        workload: WorkloadName::Capture,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad {flag} {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => WorkloadName::ALL.to_vec(),
                    w => vec![WorkloadName::parse(w).ok_or_else(bad)?],
                })
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(usage()),
        }
    }
    let workloads = workloads.ok_or_else(usage)?;
    Ok((workloads, opts))
}

fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one workload in this process and print its result.
fn run_one(opts: &Options) -> ExitCode {
    let name = opts.workload.as_str();
    match run(opts) {
        Ok(o) => {
            for m in &o.metrics {
                eprintln!("{name:>10} {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for f in &o.tally.failures {
                eprintln!("{name:>10} FAILED: {f}");
            }
            println!("{}", o.to_json());
            exit_code(&o)
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run each workload in a child process of its own, so that its peak
/// RSS and allocator state are its own, and print one result whose
/// metric names are prefixed by the workload.
fn run_each(workloads: &[WorkloadName], opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all = Outcome {
        tally: Tally::default(),
        metrics: Vec::new(),
        breakdowns: Vec::new(),
    };
    for w in workloads {
        let size = match opts.size {
            Size::Full => "full",
            Size::Small => "small",
        };
        let output = Command::new(&exe)
            .args(["--workload", w.as_str(), "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--size", size])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(out) if matches!(out.status.code(), Some(0 | 1)) => out.stdout,
            Ok(out) => {
                eprintln!("{}: {}", w.as_str(), out.status);
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("{}: {e}", w.as_str());
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&stdout);
        let Some(o) = text.lines().last().and_then(parse_result) else {
            eprintln!("{}: no result line", w.as_str());
            return ExitCode::from(2);
        };
        all.tally.attempted += o.tally.attempted;
        all.tally.failed += o.tally.failed;
        all.metrics.extend(o.metrics.into_iter().map(|m| Metric {
            name: format!("{}.{}", w.as_str(), m.name),
            ..m
        }));
    }
    println!("{}", all.to_json());
    exit_code(&all)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((workloads, opts)) => match workloads.as_slice() {
            [workload] => run_one(&Options {
                workload: *workload,
                ..opts
            }),
            _ => run_each(&workloads, &opts),
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
