//! Order statistics and throughput arithmetic shared by every workload.

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0 < p < 100) of `xs` by the nearest-rank rule,
/// or `None` when fewer than ten samples lie beyond it — a tail estimate
/// resting on a handful of samples is noise, so it is not emitted.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = xs.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(v[rank - 1])
}

/// Element-wise minimum over repetitions of the same fixed work list:
/// `reps[r][i]` is unit `i`'s cost in repetition `r`. Each unit keeps its
/// fastest repetition, which discards the bursts of co-tenant cache
/// contention that inflate some repetitions on a shared host.
///
/// # Panics
///
/// Panics when there are no repetitions or they differ in length (the
/// work list was not fixed).
pub fn best_of(reps: &[Vec<f64>]) -> Vec<f64> {
    let first = reps.first().expect("at least one repetition");
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions of a fixed work list differ in length"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Completed units per second over a fixed work list: the unit count
/// divided by the summed cost. How the units were grouped into jobs does
/// not enter, only the work and its total time.
pub fn throughput(units: usize, costs_s: &[f64]) -> f64 {
    let total: f64 = costs_s.iter().sum();
    assert!(total > 0.0, "throughput over zero time");
    units as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(percentile(&xs[..99], 90.0), None);
        // The median of 19 samples has 9 beyond it; of 20, ten.
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
    }

    #[test]
    fn best_of_keeps_each_units_fastest_repetition() {
        let reps = vec![vec![1.0, 5.0, 3.0], vec![2.0, 4.0, 9.0]];
        assert_eq!(best_of(&reps), vec![1.0, 4.0, 3.0]);
    }

    #[test]
    fn throughput_over_fixed_work_ignores_job_granularity() {
        // The same 12 cells at 0.25 s each, grouped as 12 one-cell jobs,
        // 4 three-cell jobs or one twelve-cell job.
        let per_cell = vec![0.25; 12];
        let by_three: Vec<f64> = per_cell.chunks(3).map(|c| c.iter().sum()).collect();
        let whole = vec![per_cell.iter().sum::<f64>()];
        let a = throughput(12, &per_cell);
        assert_eq!(a, 4.0);
        assert_eq!(throughput(12, &by_three), a);
        assert_eq!(throughput(12, &whole), a);
    }
}
