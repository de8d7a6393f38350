//! The in-memory span ledger behind the traced run.
//!
//! Every timed call into a layer opens a span (name, start, end, parent,
//! and the id of the cell or job it serves); counts are recorded at the
//! same boundaries. Nothing is written while the workload runs: the spans
//! stay in memory and are folded into per-layer figures at the end. A
//! layer's self time is its span minus the spans of the calls it made.
//! Spans are opened and closed on one thread, so they nest strictly.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One closed (or still open, `end_ns == None`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `"engine.pilot"`.
    pub name: &'static str,
    /// Nanoseconds since the ledger's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the ledger's epoch; `None` while open.
    pub end_ns: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell or job the span serves.
    pub unit: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns
            .expect("span closed")
            .saturating_sub(self.start_ns)
    }
}

/// Total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Distinct cells or jobs those spans served.
    pub units: u64,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed durations minus the time their child spans cover.
    pub self_s: f64,
}

/// Spans and counters of one traced run.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    unit: Cell<u64>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
    distinct: RefCell<BTreeSet<(&'static str, u64, u64)>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
            counts: RefCell::new(BTreeMap::new()),
            distinct: RefCell::new(BTreeSet::new()),
        }
    }
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'a> {
    ledger: &'a Ledger,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.ledger.now_ns();
        let closed = self.ledger.open.borrow_mut().pop();
        debug_assert_eq!(closed, Some(self.index), "spans closed out of order");
        self.ledger.spans.borrow_mut()[self.index].end_ns = Some(now);
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Starts attributing spans to a new cell or job and returns its id.
    pub fn next_unit(&self) -> u64 {
        self.unit.set(self.unit.get() + 1);
        self.unit.get()
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent,
            unit: self.unit.get(),
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            ledger: self,
            index,
        }
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counts.borrow_mut().entry(name).or_default() += n;
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counts.borrow().get(name).copied().unwrap_or(0)
    }

    /// Notes a value under `name` for the current unit; see
    /// [`distinct_per_unit`](Self::distinct_per_unit).
    pub fn note(&self, name: &'static str, value: u64) {
        self.distinct
            .borrow_mut()
            .insert((name, self.unit.get(), value));
    }

    /// Mean number of distinct values noted under `name` per unit that
    /// noted any.
    pub fn distinct_per_unit(&self, name: &'static str) -> f64 {
        let distinct = self.distinct.borrow();
        let entries: Vec<_> = distinct.iter().filter(|(n, _, _)| *n == name).collect();
        let units: BTreeSet<u64> = entries.iter().map(|(_, u, _)| *u).collect();
        if units.is_empty() {
            0.0
        } else {
            entries.len() as f64 / units.len() as f64
        }
    }

    /// A copy of every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Calls, total and self time per span name.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        assert!(self.open.borrow().is_empty(), "a span is still open");
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut units: BTreeSet<(&'static str, u64)> = BTreeSet::new();
        for (s, children) in spans.iter().zip(&child_ns) {
            let d = s.duration_ns();
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            if units.insert((s.name, s.unit)) {
                e.units += 1;
            }
            e.total_s += d as f64 * 1e-9;
            e.self_s += d.saturating_sub(*children) as f64 * 1e-9;
        }
        out
    }

    /// One line per span name: calls, units served, total and self ms.
    pub fn summary(&self, prefix: &str) -> String {
        self.layer_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{prefix} span={name} calls={} units={} total_ms={:.3} self_ms={:.3}\n",
                    t.calls,
                    t.units,
                    t.total_s * 1e3,
                    t.self_s * 1e3
                )
            })
            .collect()
    }

    /// Calls, total and self time of `name` (zero when never entered).
    pub fn layer(&self, name: &'static str) -> LayerTime {
        self.layer_times().get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_with_non_negative_self_time() {
        let ledger = Ledger::default();
        for _ in 0..3 {
            ledger.next_unit();
            let _cell = ledger.enter("cell");
            spin(50);
            {
                let _a = ledger.enter("stage");
                spin(100);
                for _ in 0..4 {
                    let _b = ledger.enter("leaf");
                    spin(20);
                }
            }
            let _c = ledger.enter("stage");
            spin(30);
        }
        let spans = ledger.spans();
        for (i, s) in spans.iter().enumerate() {
            let end = s.end_ns.expect("closed");
            assert!(end >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(p < i, "a parent opens before its child");
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns);
                assert!(end <= parent.end_ns.expect("closed"));
                assert_eq!(parent.unit, s.unit);
            }
        }
        let times = ledger.layer_times();
        for (name, t) in &times {
            assert!(t.self_s >= 0.0 && t.self_s <= t.total_s + 1e-12, "{name}");
        }
        let (cell, stage, leaf) = (times["cell"], times["stage"], times["leaf"]);
        assert_eq!((cell.calls, stage.calls, leaf.calls), (3, 6, 12));
        assert_eq!((cell.units, stage.units, leaf.units), (3, 3, 3));
        assert_eq!(leaf.self_s, leaf.total_s);
        let covered = cell.self_s + stage.self_s + leaf.self_s;
        assert!(
            (covered - cell.total_s).abs() < 1e-9,
            "self times partition the root"
        );
    }

    #[test]
    fn distinct_values_count_per_unit() {
        let ledger = Ledger::default();
        ledger.next_unit();
        for v in [1, 2, 2, 3] {
            ledger.note("dt", v);
        }
        ledger.next_unit();
        ledger.note("dt", 1);
        assert_eq!(ledger.distinct_per_unit("dt"), 2.0);
        assert_eq!(ledger.distinct_per_unit("other"), 0.0);
    }
}
