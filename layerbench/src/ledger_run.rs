//! The traced run's engine-side ledger: every engine, uarch, trace,
//! thermal, DTM and job layer, timed on cells each workload supplies
//! from its own inputs.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::{SweepRunner, TraceMode, TraceStore, WarmStartCache};
use distfront::job::JobSpec;
use distfront::scenarios::csv_row;
use distfront::ExperimentConfig;
use distfront_trace::Workload;

use crate::layers::{codec_pass, generator_kuops_per_s, plain_cell, traced_cell, uarch_pass};
use crate::ledger::{LayerTime, Ledger};
use crate::report::Report;
use crate::stats::median;

/// The cells a workload hands the ledger.
pub struct LedgerInput {
    /// Cells run live, traced and untraced.
    pub live: Vec<(ExperimentConfig, Workload)>,
    /// Cells whose recording is timed against their live run; configs
    /// with a multi-point family also time the probe forks.
    pub recorded: Vec<(ExperimentConfig, Workload)>,
    /// A replay grid over `store`, unbatched traced and batched.
    pub replay_configs: Vec<ExperimentConfig>,
    /// Workloads of the replay grid.
    pub replay_workloads: Vec<Workload>,
    /// Traces covering every replay cell.
    pub store: Arc<TraceStore>,
    /// Specs whose resolution and fingerprint are timed.
    pub specs: Vec<JobSpec>,
}

/// Wall time of `f` in seconds, with its value.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn fresh_cache() -> Arc<WarmStartCache> {
    Arc::new(WarmStartCache::new())
}

/// Per-call median of `f` in microseconds over `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Runs the ledger over `input` and adds its per-layer metrics to
/// `report`; returns the tracing overhead as a share of the untraced
/// time (traced rows that differ from untraced rows are errors).
pub fn engine_layers(input: &LedgerInput, report: &mut Report) -> f64 {
    let live_ledger = Rc::new(Ledger::default());
    let replay_ledger = Rc::new(Ledger::default());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    // One cache per side across the sample, as one job's cells share it.
    let (plain_cache, traced_cache) = (fresh_cache(), fresh_cache());

    let live = input.live.iter().map(|(c, w)| (c, w, false));
    let replayed = input
        .replay_configs
        .iter()
        .flat_map(|c| input.replay_workloads.iter().map(move |w| (c, w, true)));
    let cells: Vec<(&ExperimentConfig, &Workload, bool)> = live.chain(replayed).collect();
    for (cfg, w, replay) in cells {
        let trace = if replay {
            match input.store.get(cfg.name, w.name(), &cfg.replay_points()) {
                Some(t) => Some(t),
                None => {
                    report.error(format!("no trace covers {}/{}", cfg.name, w.name()));
                    continue;
                }
            }
        } else {
            None
        };
        let ledger = if replay { &replay_ledger } else { &live_ledger };
        let (plain, dt_plain) = timed(|| plain_cell(cfg, w, trace.as_ref(), &plain_cache));
        let (traced, dt_traced) =
            timed(|| traced_cell(ledger, cfg, w, trace.as_ref(), &traced_cache));
        untraced_s += dt_plain;
        traced_s += dt_traced;
        report.attempted += 2;
        match (plain.0, traced.0) {
            (Ok(a), Ok(b)) => {
                if csv_row(cfg.name, &a) != csv_row(cfg.name, &b) {
                    report.error(format!(
                        "traced row differs from untraced for {}/{}",
                        cfg.name,
                        w.name()
                    ));
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("cell {}/{} failed: {e}", cfg.name, w.name());
                    report.failed += 1;
                }
            }
        }
    }

    // Recording against live, same (config, workload).
    let (mut rec_s, mut live_s) = (0.0, 0.0);
    for (cfg, w) in &input.recorded {
        let (live, dt_live) = timed(|| plain_cell(cfg, w, None, &fresh_cache()));
        let (rec, dt_rec) = timed(|| {
            distfront::engine::CoupledEngine::for_workload(cfg, w.clone())
                .with_warm_cache(fresh_cache())
                .run_recorded()
        });
        report.attempted += 2;
        match (live.0, rec.0) {
            (Ok(a), Ok((b, _))) if csv_row(cfg.name, &a) == csv_row(cfg.name, &b) => {
                live_s += dt_live;
                rec_s += dt_rec;
            }
            (Ok(_), Ok(_)) => report.error(format!(
                "recorded row differs from live for {}/{}",
                cfg.name,
                w.name()
            )),
            (a, b) => report.failed += u64::from(a.is_err()) + u64::from(b.is_err()),
        }
    }

    // Batched against unbatched replay of the same grid.
    let replay_runner = |batch: bool| {
        SweepRunner::serial()
            .with_batch(batch)
            .with_trace_mode(TraceMode::Replay(Arc::clone(&input.store)))
    };
    let mut grid = |batch: bool| {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..2 {
            let (r, dt) = timed(|| {
                replay_runner(batch)
                    .try_grid_workloads(&input.replay_configs, &input.replay_workloads)
            });
            report.attempted += r.cells().len() as u64;
            report.failed += r.failed() as u64;
            best = best.min(dt);
            last = Some(r);
        }
        (best, last.expect("two grids ran"))
    };
    let ((unbatched_s, unbatched), (batched_s, batched)) = (grid(false), grid(true));
    if batched.cells() != unbatched.cells() {
        report.error("batched replay differs from unbatched replay");
    }

    // The core simulator driven directly.
    let uarch = Ledger::default();
    for (cfg, w) in input.live.iter().take(2) {
        uarch_pass(&uarch, cfg, w);
    }
    let uarch_cells = input.live.len().min(2) as f64;
    let (first_cfg, first_w) = &input.live[0];
    let gen_kuops = generator_kuops_per_s(first_w, first_cfg.seed, 200_000);

    // The trace codec over every stored trace.
    let codec = Ledger::default();
    let traces = input.store.traces();
    let bytes_per_cell = match codec_pass(&codec, &traces) {
        Ok(b) => b,
        Err(e) => {
            report.error(e);
            0.0
        }
    };

    let resolve_us = median(
        &input
            .specs
            .iter()
            .map(|s| per_call_us(51, || drop(std::hint::black_box(s.resolve()))))
            .collect::<Vec<_>>(),
    );
    let fingerprint_us = median(
        &input
            .specs
            .iter()
            .map(|s| per_call_us(51, || drop(std::hint::black_box(s.fingerprint()))))
            .collect::<Vec<_>>(),
    );

    print!(
        "{}{}{}{}",
        live_ledger.summary("ledger live"),
        replay_ledger.summary("ledger replay"),
        uarch.summary("ledger uarch"),
        codec.summary("ledger codec")
    );
    let live_times = live_ledger.layer_times();
    let replay_times = replay_ledger.layer_times();
    let get = |t: &BTreeMap<&'static str, LayerTime>, n: &'static str| {
        t.get(n).copied().unwrap_or_default()
    };
    let per_call_ms = |l: LayerTime, self_time: bool| {
        let s = if self_time { l.self_s } else { l.total_s };
        s * 1e3 / l.calls.max(1) as f64
    };
    let (live_cell, replay_cell) = (
        get(&live_times, "engine.cell"),
        get(&replay_times, "engine.cell"),
    );
    let cells = live_cell.calls + replay_cell.calls;
    report.metric(
        "engine.cell_ms",
        (live_cell.total_s + replay_cell.total_s) * 1e3 / cells.max(1) as f64,
        "ms",
    );
    report.metric(
        "engine.pilot.self_ms",
        per_call_ms(get(&live_times, "engine.pilot"), true),
        "ms",
    );
    report.metric(
        "engine.interval_loop.self_ms",
        per_call_ms(get(&live_times, "engine.interval_loop"), true),
        "ms",
    );
    report.metric(
        "engine.replay_loop.self_ms",
        per_call_ms(get(&replay_times, "engine.replay_loop"), true),
        "ms",
    );
    let warm = [
        get(&live_times, "engine.warm_start"),
        get(&replay_times, "engine.warm_start"),
    ];
    report.metric(
        "engine.warm_start.self_ms",
        warm.iter().map(|l| l.self_s).sum::<f64>() * 1e3
            / warm.iter().map(|l| l.calls).sum::<u64>().max(1) as f64,
        "ms",
    );
    let warm_hits =
        live_ledger.counter("engine.warm_hits") + replay_ledger.counter("engine.warm_hits");
    report.metric(
        "engine.warm_start.hit_ratio",
        warm_hits as f64 / cells.max(1) as f64,
        "ratio",
    );
    report.metric(
        "engine.record_overhead",
        if live_s > 0.0 { rec_s / live_s } else { 0.0 },
        "x",
    );
    report.metric("engine.batch_speedup", unbatched_s / batched_s, "x");

    let step = uarch.layer("uarch.step");
    let probe = uarch.layer("uarch.probe");
    report.metric("uarch.step_ms", step.total_s * 1e3 / uarch_cells, "ms");
    report.metric(
        "uarch.kuops_per_s",
        uarch.counter("uarch.uops") as f64 / step.total_s / 1e3,
        "kuops/s",
    );
    report.metric("uarch.probe_ms", per_call_ms(probe, false), "ms");
    report.metric(
        "uarch.probe_forks",
        uarch.counter("uarch.probe_forks") as f64 / uarch_cells,
        "count",
    );
    report.metric("trace.gen_kuops_per_s", gen_kuops, "kuops/s");
    report.metric(
        "trace.encode_ms",
        per_call_ms(codec.layer("trace.encode"), false),
        "ms",
    );
    report.metric(
        "trace.decode_ms",
        per_call_ms(codec.layer("trace.decode"), false),
        "ms",
    );
    report.metric("trace.bytes_per_cell", bytes_per_cell, "bytes");

    let advance = get(&replay_times, "thermal.advance");
    let replay_n = replay_cell.calls.max(1) as f64;
    report.metric("thermal.advance_ms", advance.total_s * 1e3 / replay_n, "ms");
    report.metric(
        "thermal.advance_share",
        advance.total_s / replay_cell.total_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.metric("thermal.advances", advance.calls as f64 / replay_n, "count");
    report.metric(
        "thermal.dt_distinct",
        replay_ledger.distinct_per_unit("thermal.dt"),
        "count",
    );
    report.metric(
        "thermal.steady_ms",
        per_call_ms(get(&replay_times, "thermal.steady"), false),
        "ms",
    );
    report.metric(
        "dtm.decide_us",
        per_call_ms(get(&replay_times, "dtm.decide"), false) * 1e3,
        "us",
    );
    report.metric(
        "dtm.throttled_ratio",
        replay_ledger.counter("dtm.throttled") as f64
            / replay_ledger.counter("dtm.decisions").max(1) as f64,
        "ratio",
    );
    report.metric("job.resolve_us", resolve_us, "us");
    report.metric("job.fingerprint_us", fingerprint_us, "us");

    (traced_s - untraced_s) / untraced_s
}
