//! Timing wrappers around each layer's public entry points, and the
//! traced passes that drive them.
//!
//! The program is measured from outside: every span is opened by a
//! wrapper in this file around a public call — a [`Stage`], the
//! [`ThermalBackend`], the [`DtmPolicy`], `Simulator::step`,
//! `TraceGenerator::next_uop` or the trace codec. A traced cell runs the
//! engine's own stage list, thermal backend and policy, each wrapped, so
//! its result must equal the untraced cell's bit for bit.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use distfront::engine::{
    CoupledEngine, DtmAction, DtmPolicy, EngineCx, EngineError, ReplayBackend, RunStats, Stage,
    ThermalBackend, WarmStartCache,
};
use distfront::{AppResult, ExperimentConfig};
use distfront_power::Machine;
use distfront_thermal::{
    ExpPropagator, Floorplan, Integrator, PackageConfig, ThermalNetwork, ThermalSolver,
};
use distfront_trace::record::{ActivityTrace, PointKey};
use distfront_trace::{TraceGenerator, Workload};
use distfront_uarch::{FetchGate, Simulator};

use crate::ledger::Ledger;

/// Span names of the engine's stages.
fn stage_span(stage: &str) -> &'static str {
    match stage {
        "pilot" => "engine.pilot",
        "warm-start" => "engine.warm_start",
        "interval-loop" => "engine.interval_loop",
        "replay-pilot" => "engine.replay_pilot",
        "replay-loop" => "engine.replay_loop",
        _ => "engine.stage",
    }
}

struct TimedStage {
    inner: Box<dyn Stage>,
    ledger: Rc<Ledger>,
}

impl Stage for TimedStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, cx: &mut EngineCx<'_>) -> Result<(), EngineError> {
        let _span = self.ledger.enter(stage_span(self.inner.name()));
        self.inner.run(cx)
    }
}

struct TimedThermal {
    inner: Box<dyn ThermalBackend>,
    ledger: Rc<Ledger>,
}

impl ThermalBackend for TimedThermal {
    fn block_temperatures(&self) -> &[f64] {
        self.inner.block_temperatures()
    }

    fn node_temperatures(&self) -> &[f64] {
        self.inner.node_temperatures()
    }

    fn set_node_temperatures(&mut self, t: Vec<f64>) {
        self.inner.set_node_temperatures(t);
    }

    fn steady_state(&mut self, power: &[f64]) {
        let _span = self.ledger.enter("thermal.steady");
        self.inner.steady_state(power);
    }

    fn advance(&mut self, power: &[f64], dt: f64) {
        self.ledger.note("thermal.dt", dt.to_bits());
        let _span = self.ledger.enter("thermal.advance");
        self.inner.advance(power, dt);
    }

    fn block_count(&self) -> usize {
        self.inner.block_count()
    }
}

struct TimedDtm {
    inner: Box<dyn DtmPolicy>,
    ledger: Rc<Ledger>,
}

impl DtmPolicy for TimedDtm {
    fn decide(&mut self, temps_c: &[f64]) -> DtmAction {
        let action = {
            let _span = self.ledger.enter("dtm.decide");
            self.inner.decide(temps_c)
        };
        self.ledger.count("dtm.decisions", 1);
        if action != DtmAction::Nominal {
            self.ledger.count("dtm.throttled", 1);
        }
        action
    }

    fn triggers(&self) -> u64 {
        self.inner.triggers()
    }

    fn throttled_intervals(&self) -> u64 {
        self.inner.throttled_intervals()
    }
}

fn machine_of(cfg: &ExperimentConfig) -> Machine {
    let pc = &cfg.processor;
    Machine::new(
        pc.frontend_mode.partitions(),
        pc.backends,
        pc.trace_cache.physical_banks(),
    )
}

/// The thermal backend the engine builds by default for `cfg`.
fn default_thermal(cfg: &ExperimentConfig) -> Box<dyn ThermalBackend> {
    let net = ThermalNetwork::from_floorplan(
        &Floorplan::for_machine(machine_of(cfg)),
        &PackageConfig::paper(),
    );
    match cfg.integrator {
        Integrator::Rk4 => Box::new(ThermalSolver::new(net)),
        Integrator::Expm => Box::new(ExpPropagator::new(net)),
    }
}

/// One cell as the engine runs it, untraced: live, or replayed from
/// `trace`, against a warm-start cache.
pub fn plain_cell(
    cfg: &ExperimentConfig,
    workload: &Workload,
    trace: Option<&Arc<ActivityTrace>>,
    cache: &Arc<WarmStartCache>,
) -> (Result<AppResult, EngineError>, RunStats) {
    let engine =
        CoupledEngine::for_workload(cfg, workload.clone()).with_warm_cache(Arc::clone(cache));
    match trace {
        Some(t) => engine.with_replay(Arc::clone(t)).run_with_stats(),
        None => engine.run_with_stats(),
    }
}

/// [`plain_cell`] with every stage, the thermal backend and the DTM
/// policy wrapped in spans, all under one `engine.cell` span.
pub fn traced_cell(
    ledger: &Rc<Ledger>,
    cfg: &ExperimentConfig,
    workload: &Workload,
    trace: Option<&Arc<ActivityTrace>>,
    cache: &Arc<WarmStartCache>,
) -> (Result<AppResult, EngineError>, RunStats) {
    ledger.next_unit();
    let _cell = ledger.enter("engine.cell");
    let stages = match trace {
        Some(t) => {
            if let Err(e) = ReplayBackend::validate(cfg, workload, t) {
                return (Err(e), RunStats::default());
            }
            ReplayBackend::stages(Arc::clone(t), Some(Arc::clone(cache)))
        }
        None => CoupledEngine::default_stages(Some(Arc::clone(cache))),
    };
    let stages = stages
        .into_iter()
        .map(|inner| {
            Box::new(TimedStage {
                inner,
                ledger: Rc::clone(ledger),
            }) as Box<dyn Stage>
        })
        .collect();
    let mut engine = CoupledEngine::for_workload(cfg, workload.clone())
        .with_stages(stages)
        .with_thermal(Box::new(TimedThermal {
            inner: default_thermal(cfg),
            ledger: Rc::clone(ledger),
        }));
    if let Some(spec) = &cfg.dtm {
        engine = engine.with_dtm(Box::new(TimedDtm {
            inner: spec.build(machine_of(cfg)),
            ledger: Rc::clone(ledger),
        }));
    }
    let (result, stats) = engine.run_with_stats();
    if stats.warm_start_hit {
        ledger.count("engine.warm_hits", 1);
    }
    (result, stats)
}

/// Drives the core simulator directly through one cell's evaluation
/// intervals: per interval, one `probe_interval` fork per non-nominal
/// point of the configuration's recording family (the DVFS point of the
/// default policy when the family has none), then the live `step`.
pub fn uarch_pass(ledger: &Ledger, cfg: &ExperimentConfig, workload: &Workload) {
    let mut points: Vec<PointKey> = cfg
        .replay_points()
        .into_iter()
        .filter(|k| *k != PointKey::Nominal)
        .collect();
    if points.is_empty() {
        let dvfs = distfront::DvfsPolicy::with_trip(distfront::scenarios::STUDY_TRIP_C);
        points.push(PointKey::dvfs(dvfs.f_scale, dvfs.v_scale));
    }
    ledger.next_unit();
    let mut sim = Simulator::with_workload(cfg.processor.clone(), workload, cfg.seed);
    loop {
        let target = sim.current_cycle() + cfg.interval_cycles;
        for &key in &points {
            let _span = ledger.enter("uarch.probe");
            let r = sim.probe_interval(|fork| set_point(fork, key), target, cfg.uops_per_app);
            std::hint::black_box(r);
        }
        ledger.count("uarch.probe_forks", points.len() as u64);
        let r = {
            let _span = ledger.enter("uarch.step");
            sim.step(target, cfg.uops_per_app)
        };
        if std::hint::black_box(r).done {
            break;
        }
    }
    ledger.count("uarch.uops", sim.total_committed());
}

fn set_point(sim: &mut Simulator, key: PointKey) {
    match key {
        PointKey::Nominal => {}
        PointKey::Dvfs { f_bits, .. } => sim.set_clock_scale(f64::from_bits(f_bits)),
        PointKey::FetchGate { open, period } => {
            sim.set_fetch_gate(Some(FetchGate { open, period }))
        }
        PointKey::MigrateTo(p) => sim.set_partition_bias(Some(p as usize)),
    }
}

/// Times `uops` calls of the synthetic trace generator for `workload`'s
/// first profile; returns thousands of micro-ops per second.
pub fn generator_kuops_per_s(workload: &Workload, seed: u64, uops: u64) -> f64 {
    let mut generator = match workload {
        Workload::Single(p) => TraceGenerator::new(p, seed),
        Workload::Phased(p) => TraceGenerator::phased(p, seed),
    };
    let t = Instant::now();
    for _ in 0..uops {
        std::hint::black_box(generator.next_uop());
    }
    uops as f64 / t.elapsed().as_secs_f64() / 1e3
}

/// Encodes and decodes every trace under spans; returns the mean encoded
/// bytes per trace and fails if a decode does not reproduce its trace.
pub fn codec_pass(ledger: &Ledger, traces: &[Arc<ActivityTrace>]) -> Result<f64, String> {
    let mut bytes = 0usize;
    for t in traces {
        let encoded = {
            let _span = ledger.enter("trace.encode");
            t.encode()
        };
        bytes += encoded.len();
        let decoded = {
            let _span = ledger.enter("trace.decode");
            ActivityTrace::decode(&encoded)
        }
        .map_err(|e| format!("decoding a just-encoded trace: {e}"))?;
        if decoded != **t {
            return Err("trace decode(encode) differs from the trace".into());
        }
    }
    Ok(bytes as f64 / traces.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfront::scenarios::csv_row;
    use distfront_trace::AppProfile;

    #[test]
    fn traced_rows_equal_untraced_rows() {
        let apps = [AppProfile::test_tiny()];
        let configs: Vec<ExperimentConfig> = ["baseline", "technique-ladder-dvfs"]
            .iter()
            .map(|n| {
                distfront::scenarios::by_name(n)
                    .expect("registered scenario")
                    .config()
                    .with_uops(30_000)
            })
            .collect();
        let ledger = Rc::new(Ledger::default());
        for cfg in &configs {
            for app in &apps {
                let w = Workload::Single(*app);
                let (recorded, _) = CoupledEngine::for_workload(cfg, w.clone()).run_recorded();
                let (live, trace) = recorded.expect("recorded cell");
                let trace = Arc::new(trace);
                for t in [None, Some(&trace)] {
                    let plain = plain_cell(cfg, &w, t, &Arc::new(WarmStartCache::new()));
                    let traced = traced_cell(&ledger, cfg, &w, t, &Arc::new(WarmStartCache::new()));
                    let row = |r: &AppResult| csv_row(cfg.name, r);
                    let plain = plain.0.expect("plain cell");
                    assert_eq!(row(&plain), row(&live));
                    assert_eq!(row(&traced.0.expect("traced cell")), row(&plain));
                }
            }
        }
        let times = ledger.layer_times();
        for span in [
            "engine.cell",
            "engine.pilot",
            "engine.warm_start",
            "engine.interval_loop",
            "engine.replay_loop",
            "thermal.advance",
            "dtm.decide",
        ] {
            assert!(
                times.get(span).is_some_and(|t| t.calls > 0),
                "{span} never timed"
            );
        }
    }
}
