//! The serve-plane benchmark: one workload per process, on the real
//! threaded runtime. See README.md for the protocol and the metrics.
//!
//! ```text
//! msd_benchmark --workload <name> --seed <n> --seconds 20 --trace <0|1>
//!               [--smoke] [--corrupt] [--trace-dir <dir>]
//! msd_benchmark --manifest        # prints BENCHMARK.json
//! ```

mod alloc;
mod inline;
mod micro;
mod oracle;
mod procfs;
mod reduce;
mod report;
mod session;
mod stats;
mod trace;
mod traced;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use report::{Outcome, END_TO_END, RUN_SECONDS};
use workload::{Workload, DIGEST_STEPS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The command line, parsed.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Shrinks every step count (20 for `--smoke`; the traced run's
    /// untraced twin passes its own).
    pub divisor: u64,
    /// Damage the logs before judging them (oracle self-test).
    pub corrupt: bool,
    /// Where the Chrome-trace file goes.
    pub trace_dir: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: workload::WORKLOADS[0],
        seed: 1,
        trace: false,
        divisor: 1,
        corrupt: false,
        trace_dir: "benchmark/target/msd_trace".into(),
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--manifest" => {
                print!("{}", report::manifest());
                return Ok(None);
            }
            "--workload" => {
                let name = value()?;
                args.workload = workload::by_name(&name).ok_or(format!("no workload {name}"))?;
                named = true;
            }
            "--seed" => args.seed = number(value()?)?,
            // Work is fixed: the one length the bounds were measured at.
            "--seconds" => {
                if number(value()?)? != RUN_SECONDS {
                    return Err(format!("--seconds: runs are sized for {RUN_SECONDS}"));
                }
            }
            "--trace" => args.trace = number(value()?)? != 0,
            "--divisor" => args.divisor = number(value()?)?.max(1),
            "--smoke" => args.divisor = 20,
            "--corrupt" => args.corrupt = true,
            "--trace-dir" => args.trace_dir = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if named {
        Ok(Some(args))
    } else {
        Err("--workload is required (run.sh runs all four)".into())
    }
}

/// The inline replica's digest of every batch of the first
/// [`DIGEST_STEPS`] steps, as `reference[bucket][step]`.
fn reference_digests(args: &Args) -> Vec<Vec<u64>> {
    let inputs = workload::generate(&args.workload, args.seed);
    let mut replica = inline::Replica::new(inputs, args.workload.refill_target);
    let mut reference: Vec<Vec<u64>> = Vec::new();
    let mut rec = trace::Recorder::off();
    for step in 0..DIGEST_STEPS {
        for batch in replica.step(&mut rec, step) {
            let bucket = batch.bucket as usize;
            if reference.len() <= bucket {
                reference.resize(bucket + 1, Vec::new());
            }
            reference[bucket].push(oracle::digest_batch(step, &batch));
        }
    }
    reference
}

/// Judges a finished session against the oracle.
pub fn judge(args: &Args, result: &mut session::SessionResult) -> oracle::Verdict {
    if args.corrupt {
        oracle::corrupt(&mut result.logs);
    }
    let steps = result.warmup + result.measured;
    let verdict = oracle::judge(&result.logs, steps, &reference_digests(args));
    for note in &verdict.notes {
        eprintln!("{} oracle: {note}", args.workload.name);
    }
    verdict
}

fn run_untraced(args: &Args, origin: Instant) -> Outcome {
    let w = &args.workload;
    let (warmup, measured) = w.steps(args.divisor);
    let inputs = workload::generate(w, args.seed);
    let mut result = session::run(w, inputs, warmup, measured, origin, None);
    let verdict = judge(args, &mut result);
    let values = reduce::end_to_end(&result);
    let metrics: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    println!(
        "{} steps warmup={warmup} measured={measured} served={} stream_digest={:016x}",
        w.name, result.served, verdict.stream_digest
    );
    let outcome = Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
    };
    report::print_run(w.name, &metrics, &values, outcome);
    outcome
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("msd_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(&args, origin)
    } else {
        run_untraced(&args, origin)
    };
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
