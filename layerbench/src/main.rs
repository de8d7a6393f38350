//! End-to-end and per-layer benchmark for the distfront workspace.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload live-ladder|replay-dtm|daemon-mix \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path layerbench/Cargo.toml -- --bless
//! ```
//!
//! Each workload drives the program through its public front doors
//! (`JobSpec` → `SweepRunner::from_spec`, `SweepDaemon::bind_persistent`
//! and `Client`), checks the result bytes, and prints its metrics as the
//! last line of standard output, one JSON object. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the per-layer ledger instead (see
//! `DESIGN.md`). A failed check prints the findings, reports
//! `"correct": false` and exits 1. `--bless` rewrites the committed
//! `live-ladder` row digests.

mod daemon_mix;
mod digest;
mod host;
mod layers;
mod ledger;
mod ledger_run;
mod live_ladder;
mod replay_dtm;
mod report;
mod server;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use distfront::job::JobSpec;
use report::Report;

/// The seed a run uses when none is given. Seed 381 is held out of
/// tuning, for confirming a claimed gain on inputs a change was not
/// tuned on.
const DEFAULT_SEED: u64 = 2005;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Least measuring time in seconds; every workload also makes a least
    /// number of passes.
    pub seconds: f64,
    /// Run the per-layer ledger instead of the end-to-end measurement.
    pub trace: bool,
    /// Rewrite the committed digests and exit.
    pub bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.bless && !["live-ladder", "replay-dtm", "daemon-mix"].contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload must be live-ladder, replay-dtm or daemon-mix, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Times `samples` batches of `batch` calls of a workload's set-up,
/// appending the seconds per call of each batch to `out`, and returns
/// the last call's value. Workloads call it before every pass and after
/// the last, so `setup_s` is a median over moments spread across the run:
/// on a shared host, set-up time drifts by half within seconds.
pub fn sample_setup<T>(
    samples: usize,
    batch: usize,
    out: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..samples {
        drop(last.take());
        let t = Instant::now();
        for _ in 0..batch {
            last = Some(std::hint::black_box(setup()?));
        }
        out.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    last.ok_or_else(|| "no set-up was timed".to_string())
}

/// A scratch directory for this process inside the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let dir = cwd
            .join(".layerbench-work")
            .join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One-cell jobs for the server probe of an engine workload, two run
/// lengths per application: `stored` are executed by a previous daemon
/// life, `novel` are new to the restarted daemon.
fn probe_specs(apps: &[&str]) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let grids = |uops: [u64; 2]| -> Vec<JobSpec> {
        apps.iter()
            .flat_map(|a| {
                uops.map(|u| {
                    JobSpec::grid(["baseline"], [*a])
                        .with_uops(u)
                        .with_workers(1)
                })
            })
            .collect()
    };
    (grids([20_000, 21_000]), grids([20_250, 21_250]))
}

fn traced(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let overhead = if args.workload == "daemon-mix" {
        let (input, prior, hits, novel) = daemon_mix::ledger_input(args, work)?;
        let overhead = ledger_run::engine_layers(&input, report);
        server::server_layers(&prior, &hits, &novel, work, report)?;
        overhead
    } else {
        let input = if args.workload == "live-ladder" {
            live_ladder::ledger_input(args)?
        } else {
            replay_dtm::ledger_input(args, work)?
        };
        let overhead = ledger_run::engine_layers(&input, report);
        let apps: Vec<&str> = input.replay_workloads.iter().map(|w| w.name()).collect();
        let (stored, novel) = probe_specs(&apps);
        let prior = server::build_prior(work, "probe-life", &stored)?;
        server::server_layers(&prior, &stored, &novel, work, report)?;
        overhead
    };
    report.metric("bench.tracing_overhead_pct", overhead * 100.0, "%");
    println!("traced run: {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match live_ladder::bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let facts = host::facts();
    let chase = host::chase_ms();
    println!(
        "host nproc={} l2_kib={} l3_kib={} chase_ms={chase:.1}",
        facts.nproc, facts.l2_kib, facts.l3_kib
    );
    let work = match WorkDir::new() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::default();
    let outcome = if args.trace {
        traced(&args, &work.0, &mut report).map(|()| {
            report.metric("host.chase_ms", chase, "ms");
        })
    } else {
        match args.workload.as_str() {
            "live-ladder" => live_ladder::run(&args, &mut report),
            "replay-dtm" => replay_dtm::run(&args, &work.0, &mut report),
            _ => daemon_mix::run(&args, &work.0, &mut report),
        }
        .map(|()| report.metric("peak_rss_mb", host::peak_rss_mb(), "MB"))
    };
    drop(work);
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for finding in &report.errors {
        eprintln!("check failed: {finding}");
    }
    if report.failed > 0 {
        eprintln!(
            "check failed: {} of {} units failed",
            report.failed, report.attempted
        );
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
