//! `daemon-mix`: a persistent sweepd restarted on a fresh copy of a
//! previous life's state directory, driven closed-loop by two
//! connections.
//!
//! One connection pipelines deferrable live preset grids. The other
//! sends a seeded stream of interactive jobs of three kinds: disk-cache
//! hits on results the previous life stored (reads), DTM scenarios
//! replayed over the traces it persisted, and small novel live
//! grids that are executed, appended and fsynced before `DONE` (writes).
//! The kind counts are fixed, so every seed costs about the same; the
//! seed picks the jobs and their order.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use distfront::engine::TraceStore;
use distfront::job::{JobClass, JobSpec, TraceSpec};
use distfront::server::{Client, JobResponse, SweepDaemon};
use distfront::ExperimentConfig;
use distfront_trace::rng::SplitMix64;
use distfront_trace::AppProfile;

use crate::ledger_run::LedgerInput;
use crate::report::Report;
use crate::server::{build_prior, copy_dir, execute_rows, stored_traces};
use crate::stats::{best_of, median, percentile};
use crate::{sample_setup, Args};

/// Interactive jobs a pass: 60 hits, the 8 replays and 32 writes make
/// 100, the fewest that carry a p90 with ten samples beyond it.
const HITS: usize = 60;
const WRITES: usize = 32;
/// Deferrable grids pipelined beside the interactive stream.
const DEFERRABLE: usize = 12;

/// Repetitions of the mix a run makes at least. Interactive latency here
/// sits on a loopback timer floor and barely varies between passes.
const MIN_PASSES: usize = 2;

/// Run length of the previous life's recordings and of the replays.
const RECORD_UOPS: u64 = 20_000;

/// Scenarios the previous life records over the full suite. Their
/// families cover every point of [`REPLAYED`]'s policies.
const RECORDED: [&str; 6] = [
    "dtm-dvfs",
    "dtm-fetch-gate",
    "dtm-migration",
    "technique-ladder-dvfs",
    "technique-ladder-fetch-gate",
    "technique-ladder-migration",
];

/// DTM scenarios replayed as smoke suites over those traces: novel
/// fingerprints, since the previous life ran only the full suites. (The
/// store keeps one trace per configuration, application and family, so
/// run length cannot make replays novel.) The smoke suite's `tiny`
/// application was never recorded and falls back to live simulation.
const REPLAYED: [&str; 7] = [
    "dtm-emergency",
    "dtm-dvfs",
    "dtm-fetch-gate",
    "dtm-migration",
    "technique-ladder-dvfs",
    "technique-ladder-fetch-gate",
    "technique-ladder-migration",
];

/// The previous life's result set: one-cell preset grids.
fn stored_grids() -> Vec<JobSpec> {
    let presets = ExperimentConfig::presets();
    ["gzip", "mcf", "swim", "gcc", "art", "equake"]
        .iter()
        .enumerate()
        .flat_map(|(i, app)| {
            presets.iter().take(4).map(move |c| {
                JobSpec::grid([c.name], [*app])
                    .with_uops(20_000 + 1_000 * i as u64)
                    .with_workers(1)
            })
        })
        .collect()
}

/// The previous life's recordings.
fn recordings() -> Vec<JobSpec> {
    RECORDED
        .iter()
        .map(|name| {
            JobSpec::scenario(*name)
                .with_uops(RECORD_UOPS)
                .with_workers(1)
                .with_trace(TraceSpec::Record)
        })
        .collect()
}

/// The replayed jobs: each [`REPLAYED`] smoke suite, plus the emergency
/// throttle over the full suite.
fn replays() -> Vec<JobSpec> {
    let replay = |name: &str, smoke: bool| {
        JobSpec::scenario(name)
            .with_smoke(smoke)
            .with_uops(RECORD_UOPS)
            .with_workers(1)
            .with_trace(TraceSpec::Replay)
    };
    REPLAYED
        .iter()
        .map(|n| replay(n, true))
        .chain(std::iter::once(replay("dtm-emergency", false)))
        .collect()
}

/// Interactive kind of a stream entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Replay,
    Write,
}

/// The seeded mix.
struct Mix {
    interactive: Vec<(Kind, JobSpec)>,
    deferrable: Vec<JobSpec>,
}

fn mix(seed: u64) -> Mix {
    let mut rng = SplitMix64::new(seed ^ 0xdae3_0111);
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    let stored = stored_grids();
    let mut interactive: Vec<(Kind, JobSpec)> = Vec::new();
    for _ in 0..HITS {
        let s = stored[pick(stored.len())].clone();
        interactive.push((Kind::Hit, s.with_trace(TraceSpec::Live)));
    }
    interactive.extend(replays().into_iter().map(|s| (Kind::Replay, s)));
    let presets = ExperimentConfig::presets();
    let apps = AppProfile::spec2000();
    let mut seen = Vec::new();
    while seen.len() < WRITES {
        // Run lengths the previous life never used: novel fingerprints.
        let key = (pick(presets.len()), pick(apps.len()), 40 + pick(17));
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (c, a, u) = key;
        let spec = JobSpec::grid([presets[c].name], [apps[a].name])
            .with_uops(u as u64 * 500 + 250)
            .with_workers(1);
        interactive.push((Kind::Write, spec));
    }
    for i in (1..interactive.len()).rev() {
        interactive.swap(i, pick(i + 1));
    }
    let deferrable = (0..DEFERRABLE)
        .map(|i| {
            let c = &presets[i % presets.len()];
            let a = [apps[pick(apps.len())].name, apps[pick(apps.len())].name];
            JobSpec::grid([c.name], a)
                .with_uops(30_000 + 250 * i as u64)
                .with_workers(1)
                .with_class(JobClass::Deferrable)
        })
        .collect();
    Mix {
        interactive,
        deferrable,
    }
}

/// The previous life, built once per invocation before any timing.
fn prior_life(work: &Path) -> Result<PathBuf, String> {
    let specs: Vec<JobSpec> = stored_grids().into_iter().chain(recordings()).collect();
    build_prior(work, "prior-life", &specs)
}

/// `bind_persistent` on a fresh copy of the previous life's state
/// directory (the copy untimed), four times into `out`.
fn sample_bind(prior: &Path, work: &Path, out: &mut Vec<f64>) -> Result<(), String> {
    let dir = work.join("setup");
    for _ in 0..4 {
        copy_dir(prior, &dir)?;
        sample_setup(1, 1, out, || {
            SweepDaemon::bind_persistent("127.0.0.1:0", &dir)
                .map_err(|e| format!("binding sweepd: {e}"))
        })?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    latency_s: Vec<f64>,
    interactive: Vec<JobResponse>,
    deferrable: Vec<JobResponse>,
    executed: u64,
}

fn pass(prior: &Path, work: &Path, mix: &Mix) -> Result<Pass, String> {
    let dir = work.join("life");
    copy_dir(prior, &dir)?;
    let daemon = SweepDaemon::bind_persistent("127.0.0.1:0", &dir)
        .map_err(|e| format!("binding sweepd: {e}"))?;
    let handle = daemon.spawn();
    let addr = handle.addr();
    let start = Instant::now();
    let (inter, defer) = thread::scope(|s| {
        let defer = s.spawn(|| -> Result<Vec<JobResponse>, String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            c.submit_batch(&mix.deferrable).map_err(|e| e.to_string())
        });
        let inter = s.spawn(|| -> Result<Vec<(JobResponse, f64)>, String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            mix.interactive
                .iter()
                .map(|(_, spec)| {
                    let t = Instant::now();
                    let r = c.submit(spec).map_err(|e| e.to_string())?;
                    Ok((r, t.elapsed().as_secs_f64()))
                })
                .collect()
        });
        (
            inter.join().expect("interactive client panicked"),
            defer.join().expect("deferrable client panicked"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = admin.stats().map_err(|e| e.to_string())?;
    admin.shutdown().map_err(|e| e.to_string())?;
    handle.join().map_err(|e| format!("daemon exit: {e}"))?;
    let (interactive, latency_s) = inter?.into_iter().unzip();
    Ok(Pass {
        wall_s,
        latency_s,
        interactive,
        deferrable: defer?,
        executed: stats.executed,
    })
}

/// Rows every response must carry: in-process execution of each
/// distinct spec (replays against the previous life's traces).
fn expected_rows(
    mix: &Mix,
    traces: &Arc<TraceStore>,
) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out = BTreeMap::new();
    for spec in mix
        .interactive
        .iter()
        .map(|(_, s)| s)
        .chain(&mix.deferrable)
    {
        if let Entry::Vacant(slot) = out.entry(spec.encode_line()) {
            slot.insert(execute_rows(spec, traces)?.0);
        }
    }
    Ok(out)
}

fn check(pass: &Pass, mix: &Mix, expected: &BTreeMap<String, Vec<String>>, report: &mut Report) {
    let jobs = mix
        .interactive
        .iter()
        .map(|(k, s)| (Some(*k), s))
        .chain(mix.deferrable.iter().map(|s| (None, s)));
    for ((kind, spec), r) in jobs.zip(pass.interactive.iter().chain(&pass.deferrable)) {
        report.attempted += 1;
        if r.error.is_some() || r.failed > 0 {
            report.failed += 1;
            continue;
        }
        if r.csv_rows != expected[&spec.encode_line()] {
            report.error(format!(
                "daemon rows differ from in-process rows for {}",
                spec.encode_line()
            ));
        }
        if r.cached != (kind == Some(Kind::Hit)) {
            report.error(format!("{} served cached={}", spec.encode_line(), r.cached));
        }
    }
    let novel = (replays().len() + WRITES + DEFERRABLE) as u64;
    if pass.executed != novel {
        report.error(format!(
            "daemon executed {} jobs, expected {novel}",
            pass.executed
        ));
    }
}

/// The e2e run.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let mix = mix(args.seed);
    let prior = prior_life(work)?;
    let traces = stored_traces(&prior)?;
    let expected = expected_rows(&mix, &traces)?;
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut walls = Vec::new();
    let mut cells = 0usize;
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        sample_bind(&prior, work, &mut setups)?;
        let p = pass(&prior, work, &mix)?;
        check(&p, &mix, &expected, report);
        cells = p
            .interactive
            .iter()
            .chain(&p.deferrable)
            .map(|r| r.cells)
            .sum();
        walls.push(p.wall_s);
        latencies.push(p.latency_s);
    }
    let wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let jobs = mix.interactive.len() + mix.deferrable.len();
    let ms: Vec<f64> = best_of(&latencies).iter().map(|s| s * 1e3).collect();
    sample_bind(&prior, work, &mut setups)?;
    report.metric("setup_s", median(&setups), "s");
    report.metric("cells_per_s", cells as f64 / wall, "cells/s");
    report.metric("jobs_per_s", jobs as f64 / wall, "jobs/s");
    report.metric(
        "job_ms_p50",
        percentile(&ms, 50.0).ok_or("too few jobs for p50")?,
        "ms",
    );
    report.metric(
        "job_ms_p90",
        percentile(&ms, 90.0).ok_or("too few jobs for p90")?,
        "ms",
    );
    println!(
        "daemon-mix: {} passes, {} interactive + {} deferrable jobs each, best pass {:.3} s",
        walls.len(),
        mix.interactive.len(),
        mix.deferrable.len(),
        wall
    );
    Ok(())
}

/// The traced run: engine layers on the mix's own cells, then the server
/// and store layers on the previous life.
pub fn ledger_input(
    args: &Args,
    work: &Path,
) -> Result<(LedgerInput, PathBuf, Vec<JobSpec>, Vec<JobSpec>), String> {
    let mix = mix(args.seed);
    let prior = prior_life(work)?;
    let traces = stored_traces(&prior)?;
    let of = |k: Kind| -> Vec<JobSpec> {
        mix.interactive
            .iter()
            .filter(|(kind, _)| *kind == k)
            .map(|(_, s)| s.clone())
            .collect()
    };
    let (hits, replayed, writes) = (of(Kind::Hit), of(Kind::Replay), of(Kind::Write));
    let resolve = |s: &JobSpec| s.resolve().map_err(|e| e.to_string());
    let live: Vec<_> = writes
        .iter()
        .take(2)
        .map(|s| resolve(s).map(|r| (r.configs[0].clone(), r.workloads[0].clone())))
        .collect::<Result<_, _>>()?;
    let replay = resolve(&replays()[1])?;
    let recorded = resolve(&recordings()[0])?;
    let points = replay.configs[0].replay_points();
    let replay_workloads = replay
        .workloads
        .into_iter()
        .filter(|w| {
            traces
                .get(replay.configs[0].name, w.name(), &points)
                .is_some()
        })
        .collect();
    let input = LedgerInput {
        live,
        recorded: vec![(recorded.configs[0].clone(), recorded.workloads[0].clone())],
        replay_configs: replay.configs,
        replay_workloads,
        store: traces,
        specs: mix
            .interactive
            .iter()
            .take(10)
            .map(|(_, s)| s.clone())
            .collect(),
    };
    let novel: Vec<JobSpec> = replayed
        .iter()
        .take(4)
        .chain(writes.iter().take(4))
        .cloned()
        .collect();
    Ok((input, prior, hits.into_iter().take(10).collect(), novel))
}
