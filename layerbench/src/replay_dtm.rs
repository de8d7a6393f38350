//! `replay-dtm`: a seeded DTM parameter sweep replayed over the full
//! 26-application suite, batched as the CLI's `--replay` runs it.
//!
//! Emergency, DVFS and fetch-gate trip temperatures are swept across the
//! baseline and combined machines. Each (machine, policy) pair's
//! top-band configuration is recorded once per invocation, before any
//! timing, and written out as `.dft` files: the emergency recording is
//! the nominal stream every emergency cell replays, and the DVFS and
//! fetch-gate recordings carry the family their policies need. Replaying
//! a recording's own configuration is byte-identical to live; the other
//! trips engage the policy on other intervals, which the engine replays
//! as its documented first-order approximation. Propagator builds,
//! thermal advance, DTM decide and batching do nearly all the work here;
//! the core simulator does none. The seeded trips throttle some intervals
//! and not others, which gives the mixed interval lengths real sweeps
//! have.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::{CoupledEngine, SweepRunner, TraceStore, WarmStartCache};
use distfront::job::{JobEnv, JobSpec, TraceSpec};
use distfront::scenarios::csv_row;
use distfront::{DtmSpec, DvfsPolicy, EmergencyPolicy, ExperimentConfig, FetchGatePolicy};
use distfront_trace::record::ActivityTrace;
use distfront_trace::rng::SplitMix64;
use distfront_trace::Workload;

use crate::ledger_run::LedgerInput;
use crate::report::Report;
use crate::stats::{best_of, median, percentile, throughput};
use crate::{sample_setup, stream, Args};

/// Micro-ops per application: the replay reference size.
pub const UOPS: u64 = 60_000;

/// Trips drawn per policy and machine.
const TRIPS: usize = 4;

/// Repetitions of the work list a run makes at least.
const MIN_PASSES: usize = 3;

/// Recorded cells also run live, per run, to check replay against live.
const LIVE_SAMPLE: usize = 6;

/// Indices into [`configs`] of the recorded configurations: the top trip
/// band of every (machine, policy) pair.
fn recorders() -> Vec<usize> {
    (0..6).map(|pair| pair * TRIPS + TRIPS - 1).collect()
}

/// The seeded sweep: per machine and policy, one trip temperature from
/// each of `TRIPS` bands of 3.5 °C over 86–99.5 °C, in 0.5 °C steps. One
/// trip a band keeps the amount of throttling, hence of work, about the
/// same whatever the seed.
pub fn configs(seed: u64) -> Vec<ExperimentConfig> {
    let mut rng = SplitMix64::new(seed ^ 0x0e71_ca1d);
    let mut out = Vec::new();
    for machine in [ExperimentConfig::baseline, ExperimentConfig::combined] {
        for policy in 0..3 {
            for band in 0..TRIPS {
                let trip = 86.0 + 3.5 * band as f64 + 0.5 * rng.next_below(7) as f64;
                let spec = match policy {
                    0 => DtmSpec::Emergency(EmergencyPolicy::with_threshold(trip)),
                    1 => DtmSpec::GlobalDvfs(DvfsPolicy::with_trip(trip)),
                    _ => DtmSpec::FetchGate(FetchGatePolicy::with_trip(trip)),
                };
                out.push(machine().with_dtm(spec).with_uops(UOPS));
            }
        }
    }
    out
}

/// The job's scheduling: serial, batched, replaying.
fn spec() -> JobSpec {
    JobSpec::scenario("dtm-dvfs")
        .with_uops(UOPS)
        .with_workers(1)
        .with_batch(true)
        .with_trace(TraceSpec::Replay)
}

fn workloads() -> Result<Vec<Workload>, String> {
    Ok(spec().resolve().map_err(|e| e.to_string())?.workloads)
}

/// Records the recorder configurations over `workloads` through the
/// same front door the sweep uses and writes every trace to `dir` as a
/// `.dft` file; returns the files.
pub fn record(
    configs: &[ExperimentConfig],
    workloads: &[Workload],
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let env = JobEnv::default();
    let recorded: Vec<ExperimentConfig> = recorders().iter().map(|&i| configs[i].clone()).collect();
    let job = spec().with_batch(false).with_trace(TraceSpec::Record);
    let report = SweepRunner::from_spec(&job)
        .with_warm_cache(Arc::clone(&env.warm))
        .with_trace_mode(TraceSpec::Record.bind(&env.traces))
        .try_grid_workloads(&recorded, workloads);
    if report.failed() > 0 {
        return Err(format!("{} recorded cells failed", report.failed()));
    }
    let mut files = Vec::new();
    for (i, trace) in env.traces.traces().iter().enumerate() {
        let path = dir.join(format!("{i:04}.dft"));
        std::fs::write(&path, trace.encode())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        files.push(path);
    }
    Ok(files)
}

/// What a replaying user pays before the first cell: read and decode
/// the `.dft` traces into a `TraceStore`.
fn load(files: &[PathBuf]) -> Result<Arc<TraceStore>, String> {
    let store = TraceStore::new();
    for f in files {
        let bytes = std::fs::read(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        store.insert(ActivityTrace::decode(&bytes).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    Ok(Arc::new(store))
}

/// The e2e run.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let configs = configs(args.seed);
    let workloads = workloads()?;
    let files = record(&configs, &workloads, &work.join("traces"))?;
    println!(
        "replay-dtm: seed {} {} configs x {} apps over {} traces",
        args.seed,
        configs.len(),
        workloads.len(),
        files.len()
    );
    let mut setups = Vec::new();
    let labels: Vec<&str> = configs.iter().map(|c| c.name).collect();

    // Replaying a recording's own configuration must reproduce its live
    // bytes: a seeded sample of recorded cells, run live.
    let mut rng = SplitMix64::new(args.seed ^ 0x5a3b_1e00);
    let recorded = recorders();
    let sample: Vec<(usize, usize)> = (0..LIVE_SAMPLE)
        .map(|_| {
            (
                recorded[rng.next_below(recorded.len() as u64) as usize],
                rng.next_below(workloads.len() as u64) as usize,
            )
        })
        .collect();
    let live_rows: Vec<String> = sample
        .iter()
        .map(|&(c, w)| {
            CoupledEngine::for_workload(&configs[c], workloads[w].clone())
                .with_warm_cache(Arc::new(WarmStartCache::new()))
                .run()
                .map(|r| csv_row(labels[c], &r))
                .map_err(|e| format!("live sample cell failed: {e}"))
        })
        .collect::<Result<_, _>>()?;
    report.attempted += LIVE_SAMPLE as u64;

    let started = Instant::now();
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<stream::Streamed> = None;
    while reps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let store = sample_setup(5, 1, &mut setups, || load(&files))?;
        let env = JobEnv {
            traces: Arc::clone(&store),
            ..JobEnv::default()
        };
        let runner = SweepRunner::from_spec(&spec())
            .with_warm_cache(Arc::clone(&env.warm))
            .with_trace_mode(TraceSpec::Replay.bind(&env.traces));
        let s = stream::run(runner, &configs, &workloads, &labels);
        report.attempted += s.report.cells().len() as u64;
        report.failed += s.report.failed() as u64;
        if s.report.replayed() != s.report.cells().len() {
            report.error(format!(
                "{} of {} cells fell back to live simulation",
                s.report.cells().len() - s.report.replayed(),
                s.report.cells().len()
            ));
        }
        for (&(c, w), live) in sample.iter().zip(&live_rows) {
            let replayed = s
                .report
                .cell(c, w)
                .result
                .as_ref()
                .map(|r| csv_row(labels[c], r));
            if replayed.as_ref() != Ok(live) {
                report.error(format!(
                    "replayed row differs from live for {}/{} under {:?}:\n  replay {:?}\n  live   {live}",
                    labels[c],
                    workloads[w].name(),
                    configs[c].dtm,
                    replayed
                ));
            }
        }
        if let Some(f) = &first {
            if f.rows != s.rows {
                report.error("replay rows differ between passes");
            }
            if !f
                .arrivals
                .iter()
                .map(|a| a.0)
                .eq(s.arrivals.iter().map(|a| a.0))
            {
                return Err("cells streamed in a different order".into());
            }
        }
        reps.push(s.arrivals.iter().map(|(_, c)| *c).collect());
        first.get_or_insert(s);
    }
    sample_setup(5, 1, &mut setups, || load(&files))?;
    let best = best_of(&reps);
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", median(&setups), "s");
    report.metric("cells_per_s", throughput(best.len(), &best), "cells/s");
    report.metric("jobs_per_s", throughput(1, &best), "jobs/s");
    report.metric(
        "job_ms_p50",
        percentile(&ms, 50.0).ok_or("too few cells for p50")?,
        "ms",
    );
    report.metric(
        "job_ms_p90",
        percentile(&ms, 90.0).ok_or("too few cells for p90")?,
        "ms",
    );
    println!(
        "replay-dtm: {} passes, {} cells each, best-of per cell",
        reps.len(),
        best.len()
    );
    Ok(())
}

/// The traced run's cells: the sweep over two applications, replayed
/// from recordings of them; two cells live; the recorded configurations
/// recorded against live.
pub fn ledger_input(args: &Args, work: &Path) -> Result<LedgerInput, String> {
    let configs = configs(args.seed);
    let two: Vec<Workload> = workloads()?.into_iter().take(2).collect();
    let store = load(&record(&configs, &two, &work.join("traces"))?)?;
    Ok(LedgerInput {
        live: vec![
            (configs[0].clone(), two[0].clone()),
            (configs[configs.len() - 1].clone(), two[1].clone()),
        ],
        recorded: recorders()
            .into_iter()
            .map(|i| (configs[i].clone(), two[0].clone()))
            .collect(),
        replay_configs: configs,
        replay_workloads: two,
        store,
        specs: vec![spec()],
    })
}
