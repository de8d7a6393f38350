//! `live-ladder`: the Figs. 12–14 technique ladder, live and serial, at
//! the full run length, over a seeded SPEC2000 subset.
//!
//! Every pass runs two jobs on a fresh `JobEnv`: the seven presets
//! plain, and the three `technique-ladder-*` configurations under
//! `TraceSpec::Record` (whose probe forks record every DTM operating
//! point). The core simulator is most of this time, so uarch and
//! recording work shows here; thermal and replay do little.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::SweepRunner;
use distfront::job::{JobEnv, JobSpec, TraceSpec};
use distfront::ExperimentConfig;
use distfront_trace::rng::SplitMix64;
use distfront_trace::Workload;

use crate::ledger_run::LedgerInput;
use crate::report::Report;
use crate::stats::{best_of, median, percentile, throughput};
use crate::{digest, sample_setup, stream, Args};

/// Micro-ops per application: the CLI's full-suite run length.
pub const UOPS: u64 = 200_000;

/// Repetitions of the work list a run makes at least. This workload's
/// cells cost most and depend most on the shared L3, so it keeps the best
/// of more repetitions than the others.
const MIN_PASSES: usize = 4;

/// The memory-bound applications every subset carries.
const MEMORY_BOUND: [&str; 3] = ["mcf", "art", "swim"];

/// The compute-bound applications in seven strata of similar full-ladder
/// cost (cheapest first, measured on a 2-core host); the seed draws one
/// application from each, so every subset costs about the same.
const STRATA: [&[&str]; 7] = [
    &["applu", "gzip", "mgrid"],
    &["twolf", "crafty", "vpr"],
    &["galgel", "gcc", "mesa"],
    &["gap", "bzip2", "equake"],
    &["parser", "eon"],
    &["wupwise", "vortex", "apsi", "facerec"],
    &["sixtrack", "ammp", "perlbmk", "lucas", "fma3d"],
];

/// The recorded rungs, by scenario name.
const RECORDED: [&str; 3] = [
    "technique-ladder-dvfs",
    "technique-ladder-fetch-gate",
    "technique-ladder-migration",
];

/// The seeded application subset: the memory-bound trio plus one
/// compute-bound application per stratum.
pub fn apps(seed: u64) -> Vec<&'static str> {
    let mut rng = SplitMix64::new(seed ^ 0x11ad_de11);
    let mut apps: Vec<&'static str> = MEMORY_BOUND.to_vec();
    for stratum in STRATA {
        apps.push(stratum[rng.next_below(stratum.len() as u64) as usize]);
    }
    apps
}

/// Every application a seed can draw.
pub fn all_apps() -> Vec<&'static str> {
    MEMORY_BOUND
        .iter()
        .chain(STRATA.iter().flat_map(|s| s.iter()))
        .copied()
        .collect()
}

/// The pass's two jobs, resolved.
struct Ladder {
    plain: Vec<ExperimentConfig>,
    recorded: Vec<ExperimentConfig>,
    workloads: Vec<Workload>,
    specs: Vec<JobSpec>,
}

/// Rung labels in pass order: preset names, then the recorded rungs'
/// scenario names.
fn rung_labels() -> Vec<&'static str> {
    ExperimentConfig::presets()
        .iter()
        .map(|c| c.name)
        .chain(RECORDED)
        .collect()
}

/// The digest key of every row a pass over `apps` produces, in order.
fn row_keys(apps: &[&str]) -> Vec<String> {
    rung_labels()
        .iter()
        .flat_map(|rung| apps.iter().map(move |app| digest::cell_key(rung, app)))
        .collect()
}

fn resolve(apps: &[&str]) -> Result<Ladder, String> {
    let presets: Vec<&str> = ExperimentConfig::presets().iter().map(|c| c.name).collect();
    let plain_spec = JobSpec::grid(presets, apps.iter().copied())
        .with_uops(UOPS)
        .with_workers(1);
    let plain = plain_spec.resolve().map_err(|e| e.to_string())?;
    let mut specs = vec![plain_spec];
    let mut recorded = Vec::new();
    for name in RECORDED {
        let spec = JobSpec::scenario(name)
            .with_uops(UOPS)
            .with_workers(1)
            .with_trace(TraceSpec::Record);
        let resolved = spec.resolve().map_err(|e| e.to_string())?;
        recorded.extend(resolved.configs);
        specs.push(spec);
    }
    Ok(Ladder {
        plain: plain.configs,
        recorded,
        workloads: plain.workloads,
        specs,
    })
}

/// What a one-shot user pays before the first cell: resolve the specs,
/// build a fresh `JobEnv` and the two runners.
fn setup(apps: &[&str]) -> Result<(Ladder, JobEnv, SweepRunner, SweepRunner), String> {
    let ladder = resolve(apps)?;
    let env = JobEnv::default();
    let plain = SweepRunner::from_spec(&ladder.specs[0]).with_warm_cache(Arc::clone(&env.warm));
    let recorded = SweepRunner::from_spec(&ladder.specs[1])
        .with_warm_cache(Arc::clone(&env.warm))
        .with_trace_mode(TraceSpec::Record.bind(&env.traces));
    Ok((ladder, env, plain, recorded))
}

/// What one pass produced.
struct Pass {
    /// Rows in grid order, plain job first.
    rows: Vec<String>,
    /// Per arrival: the cell's cost in seconds.
    costs: Vec<f64>,
    /// Per arrival: the cell's (rung, application).
    order: Vec<(usize, usize)>,
}

/// One pass: both jobs on a fresh env.
fn pass(apps: &[&str], report: &mut Report) -> Result<Pass, String> {
    let (ladder, _env, plain, recorded) = setup(apps)?;
    let labels = rung_labels();
    let a = stream::run(plain, &ladder.plain, &ladder.workloads, &labels);
    let b = stream::run(
        recorded,
        &ladder.recorded,
        &ladder.workloads,
        &labels[ladder.plain.len()..],
    );
    let mut rows = a.rows;
    rows.extend(b.rows);
    let mut costs = Vec::new();
    let mut order = Vec::new();
    for (offset, s) in [(0, &a.arrivals), (ladder.plain.len(), &b.arrivals)] {
        for &((c, w), cost) in s {
            order.push((c + offset, w));
            costs.push(cost);
        }
    }
    for r in [&a.report, &b.report] {
        report.attempted += r.cells().len() as u64;
        report.failed += r.failed() as u64;
    }
    Ok(Pass { rows, costs, order })
}

/// The e2e run.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let apps = apps(args.seed);
    println!("live-ladder: seed {} apps {}", args.seed, apps.join(","));
    let golden = digest::load_golden()?;
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let mut first_order: Option<Vec<(usize, usize)>> = None;
    while reps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        sample_setup(5, 20, &mut setups, || setup(&apps))?;
        let p = pass(&apps, report)?;
        check_rows(&apps, &p.rows, &golden, report);
        match &first_order {
            None => first_order = Some(p.order),
            Some(o) if *o != p.order => return Err("cells streamed in a different order".into()),
            Some(_) => {}
        }
        reps.push(p.costs);
    }
    sample_setup(5, 20, &mut setups, || setup(&apps))?;
    let best = best_of(&reps);
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", median(&setups), "s");
    report.metric("cells_per_s", throughput(best.len(), &best), "cells/s");
    report.metric("jobs_per_s", throughput(2, &best), "jobs/s");
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
        "live-ladder: {} passes, {} cells each, best-of per cell",
        reps.len(),
        best.len()
    );
    Ok(())
}

/// Checks a pass's rows against the committed per-cell digests.
fn check_rows(apps: &[&str], rows: &[String], golden: &BTreeMap<String, u64>, report: &mut Report) {
    let keys = row_keys(apps);
    if rows.len() != keys.len() {
        report.error(format!("{} rows, expected {}", rows.len(), keys.len()));
        return;
    }
    for (key, row) in keys.iter().zip(rows) {
        match golden.get(key) {
            Some(d) if *d == digest::fnv64(row.as_bytes()) => {}
            Some(_) => report.error(format!("row for {key} differs from its committed digest")),
            None => report.error(format!("no committed digest for {key}")),
        }
    }
}

/// Regenerates the committed digests: every cell any seed can draw.
pub fn bless() -> Result<(), String> {
    let apps = all_apps();
    let mut report = Report::default();
    let rows = pass(&apps, &mut report)?.rows;
    if !report.correct() {
        return Err(format!("bless run failed: {:?}", report.errors));
    }
    let digests = row_keys(&apps)
        .into_iter()
        .zip(&rows)
        .map(|(key, row)| (key, digest::fnv64(row.as_bytes())))
        .collect();
    digest::save_golden(&digests)
}

/// The traced run's cells: two plain and one recorded cell live, the
/// recorded rungs replayed over the first two applications.
pub fn ledger_input(args: &Args) -> Result<LedgerInput, String> {
    let apps = apps(args.seed);
    let (ladder, env, _, recorded) = setup(&apps)?;
    let two: Vec<Workload> = ladder.workloads.iter().take(2).cloned().collect();
    // Record the rungs over the two applications, as a pass would.
    let r = recorded.try_grid_workloads(&ladder.recorded, &two);
    if r.failed() > 0 {
        return Err("recording the ledger sample failed".into());
    }
    Ok(LedgerInput {
        live: vec![
            (ladder.plain[0].clone(), two[0].clone()),
            (ladder.plain[6].clone(), two[1].clone()),
        ],
        recorded: ladder
            .recorded
            .iter()
            .map(|c| (c.clone(), two[0].clone()))
            .collect(),
        replay_configs: ladder.recorded.clone(),
        replay_workloads: two,
        store: Arc::clone(&env.traces),
        specs: ladder.specs,
    })
}
