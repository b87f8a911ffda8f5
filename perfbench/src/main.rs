//! Command-line entry point of the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload viewer_fleet --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Prints the host block and, when traced, the per-layer self-time
//! table, then one JSON result object as the last line of stdout. A
//! traced run also writes its spans as Chrome trace-event JSON to
//! `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{run, self_time_table, Config, Scale};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(config.seconds.is_finite() && config.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", outcome.host.to_json());
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    if config.trace {
        for line in self_time_table(&outcome.tracer) {
            println!("{line}");
        }
        let dir = Path::new("perfbench/out");
        let path = dir.join(format!("{workload}-seed{}.trace.json", config.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, outcome.tracer.chrome_json(&outcome.host.to_json()))
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
