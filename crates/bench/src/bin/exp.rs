//! Runs experiments by name: `exp e23_sim`, `exp e1_video_pipeline
//! e5_me`, or `exp all` for every one in order (see
//! `mmbench::experiments`). An unknown name exits with status 2 and
//! lists the valid names; a failed claim or bar panics.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mmbench::experiments::select(&args) {
        Ok(experiments) => {
            experiments.iter().for_each(|e| e.run());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
