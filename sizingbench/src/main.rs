//! `sizingbench` — the repository's end-to-end benchmark of sizing jobs.
//!
//! ```text
//! cargo run --release --manifest-path sizingbench/Cargo.toml -- \
//!     --workload paper_analytic|campaign_spice|serve_open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no probes;
//! `--trace 1` runs the same jobs untraced and then traced and prints the
//! per-layer split. The last stdout line is one JSON object; the exit
//! code is nonzero when a job fails or an output check does not hold.
//! See `README.md` for the metric tables.

mod campaign;
mod common;
mod paper;
mod serve;

use common::{Args, USAGE};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper_analytic" => paper::run(&args),
        "campaign_spice" => campaign::run(&args),
        "serve_open" => serve::run(&args),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
