//! The sxv benchmark: three workloads driven through the public API of
//! `sxv-serve` and `sxv-core`, every answer checked, every metric printed
//! by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf|engine-scan|plan-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around the calls into each layer and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it describe the run (seed, loop, sizes, sample counts). Any
//! wrong answer makes the run exit non-zero without a result line.

mod engine_scan;
mod harness;
mod metrics;
mod plan_churn;
mod querygen;
mod serve_zipf;
mod trace;
mod workload;

pub use metrics::Report;

/// How one run is configured (all from the command line).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    "usage: sxv-perfbench --workload serve-zipf|engine-scan|plan-churn --seed N \
     --seconds S --trace 0|1"
        .to_string()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(0.5..=600.0).contains(&seconds) {
        return Err("--seconds must be between 0.5 and 600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((workload, Ctx { seed, seconds, trace }))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let cpus = harness::init_cpus();
    let outcome = match workload.as_str() {
        "serve-zipf" => serve_zipf::run(&ctx),
        "engine-scan" => engine_scan::run(&ctx),
        "plan-churn" => plan_churn::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let line = outcome.and_then(|report| {
        let line = metrics::result_line(&report, ctx.trace)?;
        println!(
            "# workload={workload} seed={} trace={} timed rounds rotate over cpus={cpus:?}",
            ctx.seed,
            u8::from(ctx.trace)
        );
        for note in &report.notes {
            println!("# {note}");
        }
        Ok(line)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("sxv-perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
