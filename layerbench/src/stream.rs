//! Times a sweep job from outside, one streamed cell at a time.
//!
//! The runner streams each finished cell through its `on_cell` callback;
//! the benchmark stamps every arrival with its own clock. A cell's cost is
//! the gap since the previous arrival. Cells that arrive together — a
//! batched replay cohort finishes all its lanes at once — share the gap
//! that preceded them evenly.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use distfront::engine::{SweepReport, SweepRunner};
use distfront::scenarios::csv_row;
use distfront::ExperimentConfig;
use distfront_trace::Workload;

/// Arrivals closer than this belong to one burst.
const BURST_NS: u128 = 200_000;

/// One job's streamed outcome.
#[derive(Debug)]
pub struct Streamed {
    /// The job's report (grid order).
    pub report: SweepReport,
    /// CSV rows of successful cells, grid order, labelled with `labels`.
    pub rows: Vec<String>,
    /// Per arrival: `(config, app)` and the cell's cost in seconds.
    pub arrivals: Vec<((usize, usize), f64)>,
}

/// Runs `configs × workloads` on `runner`, stamping every arrival.
/// `labels[c]` names configuration `c` in the rows.
pub fn run(
    runner: SweepRunner,
    configs: &[ExperimentConfig],
    workloads: &[Workload],
    labels: &[&str],
) -> Streamed {
    let stamps: Arc<Mutex<Vec<(Instant, usize, usize)>>> = Arc::default();
    let sink = Arc::clone(&stamps);
    let start = Instant::now();
    let runner = runner.with_on_cell(move |c| {
        sink.lock()
            .expect("stamp log poisoned")
            .push((Instant::now(), c.config, c.app));
    });
    let report = runner.try_grid_workloads(configs, workloads);
    let stamps = std::mem::take(&mut *stamps.lock().expect("stamp log poisoned"));
    let rows = report
        .cells()
        .iter()
        .filter_map(|c| c.result.as_ref().ok().map(|r| csv_row(labels[c.config], r)))
        .collect();
    Streamed {
        report,
        rows,
        arrivals: spread_bursts(start, &stamps),
    }
}

fn spread_bursts(start: Instant, stamps: &[(Instant, usize, usize)]) -> Vec<((usize, usize), f64)> {
    let mut out = Vec::with_capacity(stamps.len());
    let mut prev = start;
    let mut i = 0;
    while i < stamps.len() {
        let mut j = i + 1;
        while j < stamps.len() && (stamps[j].0 - stamps[j - 1].0).as_nanos() < BURST_NS {
            j += 1;
        }
        let burst_end = stamps[j - 1].0;
        let share = (burst_end - prev).as_secs_f64() / (j - i) as f64;
        out.extend(stamps[i..j].iter().map(|&(_, c, a)| ((c, a), share)));
        prev = burst_end;
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bursts_share_their_gap_and_costs_sum_to_the_span() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let stamps = [
            (at(10_000), 0, 0),
            (at(40_000), 0, 1),
            (at(40_050), 1, 0),
            (at(40_100), 1, 1),
        ];
        let costs = spread_bursts(t0, &stamps);
        let s: Vec<f64> = costs.iter().map(|(_, c)| (c * 1e6).round()).collect();
        assert_eq!(s, vec![10_000.0, 10_033.0, 10_033.0, 10_033.0]);
        let total: f64 = costs.iter().map(|(_, c)| c).sum();
        assert!((total - 0.0401).abs() < 1e-9);
    }
}
