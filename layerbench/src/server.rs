//! Daemon, protocol and store layers, timed through `SweepDaemon`,
//! `Client` and `DurableStore` from outside.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::TraceStore;
use distfront::job::{JobEnv, JobSpec};
use distfront::server::{Client, SweepDaemon};
use distfront::DurableStore;

use crate::report::Report;
use crate::stats::median;

/// Copies the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| format!("clearing {}: {e}", to.display()))?;
    }
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let target = to.join(path.file_name().expect("a file has a name"));
            std::fs::copy(&path, &target)
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn io(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// The traces a state directory holds, as a store.
pub fn stored_traces(dir: &Path) -> Result<Arc<TraceStore>, String> {
    let (_, snapshot) = DurableStore::open(dir).map_err(io("opening the store"))?;
    let store = TraceStore::new();
    for t in snapshot.traces {
        store.insert(t);
    }
    Ok(Arc::new(store))
}

/// In-process execution of `spec` on a fresh env holding `traces`:
/// its CSV rows and wall seconds.
pub fn execute_rows(
    spec: &JobSpec,
    traces: &Arc<TraceStore>,
) -> Result<(Vec<String>, f64), String> {
    let env = JobEnv {
        traces: Arc::clone(traces),
        ..JobEnv::default()
    };
    let t = Instant::now();
    let report = spec.execute(&env, |_| {}).map_err(|e| e.to_string())?;
    let dt = t.elapsed().as_secs_f64();
    if report.report.failed() > 0 {
        return Err(format!(
            "in-process execution of {} failed",
            spec.encode_line()
        ));
    }
    Ok((report.csv_rows(), dt))
}

/// Server and store layers: a daemon restarted on a copy of `prior`
/// serves `hits` (results the previous life stored) and executes
/// `novel` specs; each novel job's latency is set against in-process
/// execution of the same spec, and the store is opened and flushed
/// directly.
pub fn server_layers(
    prior: &Path,
    hits: &[JobSpec],
    novel: &[JobSpec],
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let life = work.join("ledger-life");
    copy_dir(prior, &life)?;
    let traces = stored_traces(prior)?;
    let daemon =
        SweepDaemon::bind_persistent("127.0.0.1:0", &life).map_err(io("binding sweepd"))?;
    let handle = daemon.spawn();
    let mut client = Client::connect(handle.addr()).map_err(io("connecting"))?;
    let mut hit_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for (spec, is_hit) in hits
        .iter()
        .map(|s| (s, true))
        .chain(novel.iter().map(|s| (s, false)))
    {
        let t = Instant::now();
        let r = client.submit(spec).map_err(io("submitting"))?;
        let daemon_s = t.elapsed().as_secs_f64();
        report.attempted += 1;
        let (rows, inproc_s) = execute_rows(spec, &traces)?;
        if r.csv_rows != rows || r.failed > 0 {
            report.error(format!(
                "daemon rows differ from in-process rows for {}",
                spec.encode_line()
            ));
        }
        if r.cached != is_hit {
            report.error(format!("{} served cached={}", spec.encode_line(), r.cached));
        }
        if is_hit {
            hit_ms.push(daemon_s * 1e3);
        } else {
            overhead_ms.push((daemon_s - inproc_s) * 1e3);
        }
    }
    let stats = client.stats().map_err(io("stats"))?;
    client.shutdown().map_err(io("shutting down"))?;
    handle.join().map_err(io("daemon exit"))?;

    let (mut open_ms, mut flush_ms) = (Vec::new(), Vec::new());
    let mut loaded = 0usize;
    for i in 0..5 {
        let dir = work.join(format!("ledger-store-{i}"));
        copy_dir(prior, &dir)?;
        let t = Instant::now();
        let (store, snapshot) = DurableStore::open(&dir).map_err(io("opening the store"))?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        loaded = snapshot.results.len() + snapshot.traces.len();
        let frames = snapshot
            .results
            .first()
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| vec!["DONE status=0 cells=0 failed=0".to_string()]);
        let t = Instant::now();
        store
            .append_result(0x1a7e_be0c_0000_0000 + i, &frames)
            .map_err(io("appending"))?;
        store.flush().map_err(io("flushing"))?;
        flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(store);
        std::fs::remove_dir_all(&dir).map_err(io("removing a store copy"))?;
    }

    report.metric("server.hit_ms_p50", median(&hit_ms), "ms");
    report.metric("server.result_hits", stats.result_hits as f64, "count");
    report.metric("server.executed", stats.executed as f64, "count");
    report.metric(
        "server.warm_hit_ratio",
        stats.warm_hits as f64 / (stats.warm_hits + stats.warm_misses).max(1) as f64,
        "ratio",
    );
    report.metric("server.overhead_ms_p50", median(&overhead_ms), "ms");
    report.metric("store.open_ms", median(&open_ms), "ms");
    report.metric("store.records_loaded", loaded as f64, "count");
    report.metric("store.segment_bytes", dir_bytes(&life) as f64, "bytes");
    report.metric("store.flush_ms", median(&flush_ms), "ms");
    std::fs::remove_dir_all(&life).map_err(io("removing the ledger life"))?;
    Ok(())
}

/// A previous daemon life under `work/name`: every spec submitted in
/// order on one connection, executed (or recorded) and persisted, then a
/// clean shutdown.
pub fn build_prior(work: &Path, name: &str, specs: &[JobSpec]) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io("clearing the prior life"))?;
    }
    let daemon = SweepDaemon::bind_persistent("127.0.0.1:0", &dir).map_err(io("binding sweepd"))?;
    let handle = daemon.spawn();
    let mut client = Client::connect(handle.addr()).map_err(io("connecting"))?;
    for spec in specs {
        let r = client.submit(spec).map_err(io("submitting"))?;
        if r.failed > 0 || r.error.is_some() {
            return Err(format!("previous daemon life failed a job: {:?}", r.error));
        }
    }
    client.shutdown().map_err(io("shutting down"))?;
    handle.join().map_err(io("daemon exit"))?;
    Ok(dir)
}
