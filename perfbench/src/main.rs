//! `gpm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]`
//!
//! Runs one workload and prints its result as one JSON line, last on
//! standard output. A summary goes to standard error; with `--out-dir`,
//! the summary (and, when traced, every span) is also written there.

use std::process::ExitCode;

use gpm_perfbench::{run, RunConfig, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: gpm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(RunConfig, Option<String>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--out-dir" => out_dir = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((
        RunConfig {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            max_ops: None,
        },
        out_dir,
    ))
}

fn main() -> ExitCode {
    let (config, out_dir) = match parse() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{}: {err}", config.workload);
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", report.summary);
    if let Some(failure) = &report.first_failure {
        eprintln!(
            "FAILED {} of {} ops; first: {failure}",
            report.failed, report.attempted
        );
    }
    if let Some(dir) = out_dir {
        let stem = format!(
            "{dir}/{}-seed{}-trace{}",
            config.workload,
            config.seed,
            u8::from(config.trace)
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(format!("{stem}.txt"), &report.summary))
            .and_then(|()| {
                if config.trace {
                    std::fs::write(format!("{stem}.spans.tsv"), &report.spans_tsv)
                } else {
                    Ok(())
                }
            });
        if let Err(err) = written {
            eprintln!("writing {stem}: {err}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
