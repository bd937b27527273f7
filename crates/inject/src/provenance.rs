//! Fault-provenance campaigns: statistical FI with a shadow-taint trace
//! attached to every trial.
//!
//! [`run_campaign_traced`] is the observability variant of
//! [`crate::run_campaign`]: each faulty execution runs under
//! [`peppa_vm::TaintHook`], so besides the outcome the campaign records
//! *how* each fault travelled — the seed's static instruction, every sid
//! that touched taint, the first observable sink reached, and where the
//! taint went extinct if it never reached one. Each trial emits an
//! [`Event::TrialProvenance`] right after its `TrialFinished`, feeding
//! the journal, the Chrome trace exporter, and the propagation heatmap.
//!
//! Tracing never changes what a campaign measures: fault sampling uses
//! the same per-trial RNG streams as the untraced runner, and the shadow
//! engine only observes the interpreter, so outcome counts are identical
//! to [`crate::run_campaign`] at every thread count.

use crate::campaign::{
    golden_run_on, sample_fault_burst, CampaignConfig, CampaignError, CampaignResult,
    SnapshotConfig, SnapshotStats,
};
use crate::forkpoint::{fork_point_for, plan_fork_points};
use crate::outcome::{classify, FaultOutcome};
use crate::parallel::map_claimed;
use peppa_ir::{Instr, Module};
use peppa_obs::{Event, NullObserver, Observer, Span};
use peppa_stats::Pcg64;
use peppa_vm::{
    encode_inputs, CompiledModule, Engine, EngineKind, ExecHook, ExecLimits, InjectionTarget,
    TaintHook, TaintReport, Vm,
};
use std::time::Instant;

/// One trial of a traced campaign: the classic outcome plus the taint
/// provenance of the faulty run.
#[derive(Debug, Clone)]
pub struct TracedTrial {
    /// Logical trial index (`0..trials`).
    pub trial: u32,
    pub outcome: FaultOutcome,
    /// Sampled dynamic fault site.
    pub site: u64,
    /// Sampled bit position.
    pub bit: u32,
    /// Static instruction the sampled dynamic site belongs to.
    pub sid: u32,
    /// Shadow-taint provenance of the faulty execution.
    pub report: TaintReport,
}

/// A [`CampaignResult`] plus per-trial provenance, indexed by trial.
#[derive(Debug, Clone)]
pub struct TracedCampaignResult {
    pub campaign: CampaignResult,
    /// `trials[t]` is trial `t`'s record, whatever order trials finished
    /// in — the traced result is thread-count-invariant.
    pub trials: Vec<TracedTrial>,
}

impl TracedCampaignResult {
    /// Trials whose taint reached an observable sink.
    pub fn propagated(&self) -> usize {
        self.trials.iter().filter(|t| t.report.propagated()).count()
    }

    /// Trials whose taint died before reaching any sink.
    pub fn extinguished(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.report.extinguished())
            .count()
    }
}

/// Maps every value-producing dynamic instruction of the golden run to
/// its static instruction — the traced campaign needs the seed sid even
/// when the fault never activates in the faulty run (hang budgets can
/// cut a run short of its site).
struct SidMapHook {
    sids: Vec<u32>,
}

impl ExecHook for SidMapHook {
    const ENABLED: bool = true;

    #[inline]
    fn def_value(&mut self, ins: &Instr, _bits: u64) {
        self.sids.push(ins.sid.0);
    }
}

struct TracedReport {
    trial: TracedTrial,
    latency_ns: u64,
}

impl TracedReport {
    fn emit(&self, observer: &dyn Observer) {
        let t = &self.trial;
        observer.on_event(&Event::TrialFinished {
            trial: t.trial,
            outcome: t.outcome.into(),
            site: t.site,
            bit: t.bit,
            latency_ns: self.latency_ns,
        });
        let r = &t.report;
        observer.on_event(&Event::TrialProvenance {
            trial: t.trial,
            outcome: t.outcome.into(),
            site: t.site,
            bit: t.bit,
            sid: t.sid,
            seeded: r.seeded,
            propagated: r.propagated(),
            sink: r.first_sink.map(|s| s.kind.as_str().to_string()),
            hops: r.tainted_defs,
            seed_dynamic: r.seed_dynamic,
            extinction_dynamic: r.extinction_dynamic,
            sid_hits: r.sid_hits.clone(),
        });
    }
}

/// [`crate::run_campaign`] with shadow-taint provenance per trial.
pub fn run_campaign_traced(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
) -> Result<TracedCampaignResult, CampaignError> {
    run_campaign_traced_observed(module, inputs, limits, cfg, &NullObserver)
}

/// [`run_campaign_traced`] with an [`Observer`] attached.
///
/// Event stream: `CampaignStarted`, `GoldenRun`, per trial a
/// `TrialFinished` immediately followed by its `TrialProvenance` (in
/// completion order; the `trial` field carries the logical index), and
/// `CampaignFinished`. The campaign phases are bracketed by
/// `golden`/`trials` spans for the Chrome trace exporter. As in the
/// untraced runner, workers never touch the observer: reports drain over
/// a bounded channel on the calling thread.
pub fn run_campaign_traced_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    observer: &dyn Observer,
) -> Result<TracedCampaignResult, CampaignError> {
    let start = Instant::now();
    observer.on_event(&Event::CampaignStarted {
        benchmark: module.name.clone(),
        trials: cfg.trials,
        seed: cfg.seed,
        threads: cfg.threads,
        engine: cfg.engine.as_str().to_string(),
    });

    // Lower once per campaign; workers share the read-only bytecode.
    let code = (cfg.engine == EngineKind::Compiled).then(|| CompiledModule::lower(module));

    let golden = {
        let _span = Span::enter(observer, "golden");
        golden_run_on(module, inputs, limits, code.as_ref())?
    };
    if golden.profile.value_dynamic == 0 {
        return Err(CampaignError::NoFaultSites);
    }
    // Replay the golden run under the sid-map hook; the hook does not
    // perturb execution.
    let bits = encode_inputs(module.entry_func(), inputs);
    let sid_map = {
        let eng = Engine::new(module, limits, code.as_ref());
        let mut hook = SidMapHook { sids: Vec::new() };
        eng.run_with_hook(&bits, None, &mut hook);
        hook.sids
    };
    debug_assert_eq!(sid_map.len() as u64, golden.profile.value_dynamic);
    observer.on_event(&Event::GoldenRun {
        benchmark: module.name.clone(),
        dynamic: golden.profile.dynamic,
        value_dynamic: golden.profile.value_dynamic,
        coverage: golden.profile.coverage(),
    });

    let faulty_limits = ExecLimits {
        max_dynamic: golden
            .profile
            .dynamic
            .saturating_mul(cfg.hang_factor)
            .saturating_add(10_000),
        ..limits
    };

    let run_trial = |t: u32| -> TracedReport {
        // Same per-trial stream as the untraced campaign: identical
        // faults, identical outcomes.
        let mut rng = Pcg64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let inj = sample_fault_burst(&mut rng, golden.profile.value_dynamic, cfg.burst);
        let site = match inj.target {
            InjectionTarget::DynamicIndex(k) => k,
            InjectionTarget::StaticInstance { instance, .. } => instance,
        };
        let eng = Engine::new(module, faulty_limits, code.as_ref());
        let mut hook = TaintHook::new(module);
        let t0 = Instant::now();
        let faulty = eng.run_with_hook(&bits, Some(inj), &mut hook);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        TracedReport {
            trial: TracedTrial {
                trial: t,
                outcome: classify(&golden, &faulty),
                site,
                bit: inj.bit,
                sid: sid_map[site as usize],
                report: hook.finish(),
            },
            latency_ns,
        }
    };

    let trials = run_traced_trials(cfg.trials, cfg.threads, run_trial, observer);
    let campaign = CampaignResult::tally(
        trials.iter().map(|t| t.outcome),
        cfg.trials as u64 + 1,
        golden.profile.dynamic,
    );
    observer.on_event(&campaign.finished_event(start));
    observer.flush();
    Ok(TracedCampaignResult { campaign, trials })
}

/// Runs every trial of a traced campaign under a `trials` span, emitting
/// each trial's events on the calling thread; `trials[t]` is trial `t`.
fn run_traced_trials(
    trials: u32,
    threads: usize,
    run_trial: impl Fn(u32) -> TracedReport + Sync,
    observer: &dyn Observer,
) -> Vec<TracedTrial> {
    let _span = Span::enter(observer, "trials");
    map_claimed(
        trials as usize,
        threads,
        |t| run_trial(t as u32),
        |r| r.emit(observer),
    )
    .into_iter()
    .map(|r| r.trial)
    .collect()
}

/// A [`TracedCampaignResult`] plus the snapshot engine's accounting.
#[derive(Debug, Clone)]
pub struct SnapshottedTracedCampaignResult {
    pub traced: TracedCampaignResult,
    pub stats: SnapshotStats,
}

/// [`run_campaign_traced`] with the golden prefix amortized across
/// trials — the `--snapshots K --trace-propagation` runner.
///
/// Faults are pre-sampled from the same per-trial streams, fork points
/// are planned exactly as in
/// [`crate::run_campaign_snapshotted`], and each resumed trial runs
/// under a [`TaintHook`] rebuilt for the snapshot's frame stack
/// ([`TaintHook::resumed`]). The skipped prefix carries no taint (the
/// fault has not been injected yet), so per-trial provenance records are
/// bit-identical to the full traced runner's. Convergence early-exit is
/// deliberately disabled: the shadow engine must observe the entire
/// suffix to report extinction and sink arrivals.
pub fn run_campaign_snapshotted_traced(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    snap: SnapshotConfig,
) -> Result<SnapshottedTracedCampaignResult, CampaignError> {
    run_campaign_snapshotted_traced_observed(module, inputs, limits, cfg, snap, &NullObserver)
}

/// [`run_campaign_snapshotted_traced`] with an [`Observer`] attached.
/// Event stream: as [`run_campaign_traced_observed`], plus one
/// `SnapshotCaptured` per fork point after `GoldenRun` and a
/// `SnapshotStats` immediately before the terminal `CampaignFinished`.
pub fn run_campaign_snapshotted_traced_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    snap: SnapshotConfig,
    observer: &dyn Observer,
) -> Result<SnapshottedTracedCampaignResult, CampaignError> {
    let start = Instant::now();
    observer.on_event(&Event::CampaignStarted {
        benchmark: module.name.clone(),
        trials: cfg.trials,
        seed: cfg.seed,
        threads: cfg.threads,
        engine: cfg.engine.as_str().to_string(),
    });

    // Lower once per campaign; workers share the read-only bytecode.
    let code = (cfg.engine == EngineKind::Compiled).then(|| CompiledModule::lower(module));

    let golden = {
        let _span = Span::enter(observer, "golden");
        golden_run_on(module, inputs, limits, code.as_ref())?
    };
    if golden.profile.value_dynamic == 0 {
        return Err(CampaignError::NoFaultSites);
    }
    // Replay the golden run under the sid-map hook; the hook does not
    // perturb execution.
    let bits = encode_inputs(module.entry_func(), inputs);
    let sid_map = {
        let eng = Engine::new(module, limits, code.as_ref());
        let mut hook = SidMapHook { sids: Vec::new() };
        eng.run_with_hook(&bits, None, &mut hook);
        hook.sids
    };
    debug_assert_eq!(sid_map.len() as u64, golden.profile.value_dynamic);
    observer.on_event(&Event::GoldenRun {
        benchmark: module.name.clone(),
        dynamic: golden.profile.dynamic,
        value_dynamic: golden.profile.value_dynamic,
        coverage: golden.profile.coverage(),
    });

    // Pre-sample, plan, capture — same planning as the untraced
    // snapshotted runner, so both amortize identically.
    let injections: Vec<peppa_vm::Injection> = (0..cfg.trials)
        .map(|t| {
            let mut rng = Pcg64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
            sample_fault_burst(&mut rng, golden.profile.value_dynamic, cfg.burst)
        })
        .collect();
    let sites: Vec<u64> = injections
        .iter()
        .map(|inj| match inj.target {
            InjectionTarget::DynamicIndex(k) => k,
            InjectionTarget::StaticInstance { instance, .. } => instance,
        })
        .collect();
    let points = plan_fork_points(&sites, snap.snapshots);
    let snaps = if points.is_empty() {
        Vec::new()
    } else {
        let _span = Span::enter(observer, "capture");
        let vm = Vm::new(module, limits);
        let (replay, snaps) = vm.run_with_snapshots(&bits, &points);
        debug_assert!(replay.status.is_ok());
        debug_assert_eq!(snaps.len(), points.len());
        snaps
    };
    let snap_bytes: u64 = snaps.iter().map(|s| s.bytes()).sum();
    for (i, s) in snaps.iter().enumerate() {
        observer.on_event(&Event::SnapshotCaptured {
            index: i as u32,
            value_dynamic: s.value_dynamic(),
            dynamic: s.dynamic(),
            bytes: s.bytes(),
        });
    }

    let faulty_limits = ExecLimits {
        max_dynamic: golden
            .profile
            .dynamic
            .saturating_mul(cfg.hang_factor)
            .saturating_add(10_000),
        ..limits
    };

    use std::sync::atomic::{AtomicU64, Ordering};
    let restores = AtomicU64::new(0);
    let full_runs = AtomicU64::new(0);
    let prefix_saved = AtomicU64::new(0);

    let run_trial = |t: u32| -> TracedReport {
        let inj = injections[t as usize];
        let site = sites[t as usize];
        let eng = Engine::new(module, faulty_limits, code.as_ref());
        let t0 = Instant::now();
        let (faulty, report) = match fork_point_for(&points, site) {
            None => {
                full_runs.fetch_add(1, Ordering::Relaxed);
                let mut hook = TaintHook::new(module);
                let faulty = eng.run_with_hook(&bits, Some(inj), &mut hook);
                (faulty, hook.finish())
            }
            Some(i) => {
                restores.fetch_add(1, Ordering::Relaxed);
                prefix_saved.fetch_add(snaps[i].dynamic(), Ordering::Relaxed);
                let mut hook = TaintHook::resumed(module, &snaps[i]);
                let faulty = eng.resume_from_with_hook(&snaps[i], Some(inj), &mut hook);
                (faulty, hook.finish())
            }
        };
        TracedReport {
            trial: TracedTrial {
                trial: t,
                outcome: classify(&golden, &faulty),
                site,
                bit: inj.bit,
                sid: sid_map[site as usize],
                report,
            },
            latency_ns: t0.elapsed().as_nanos() as u64,
        }
    };

    let trials = run_traced_trials(cfg.trials, cfg.threads, run_trial, observer);
    let campaign = CampaignResult::tally(
        trials.iter().map(|t| t.outcome),
        cfg.trials as u64 + 1,
        golden.profile.dynamic,
    );

    let stats = SnapshotStats {
        snapshots: snaps.len() as u32,
        bytes: snap_bytes,
        restores: restores.into_inner(),
        full_runs: full_runs.into_inner(),
        converged_exits: 0,
        prefix_instrs_saved: prefix_saved.into_inner(),
    };
    observer.on_event(&Event::SnapshotStats {
        snapshots: stats.snapshots,
        bytes: stats.bytes,
        restores: stats.restores,
        full_runs: stats.full_runs,
        converged_exits: stats.converged_exits,
        prefix_instrs_saved: stats.prefix_instrs_saved,
    });
    observer.on_event(&campaign.finished_event(start));
    observer.flush();
    Ok(SnapshottedTracedCampaignResult {
        traced: TracedCampaignResult { campaign, trials },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use peppa_obs::PropagationHeatmap;

    const SRC: &str = r#"
        global float buf[64];
        fn main(n: int, s: float) {
            for (i = 0; i < n; i = i + 1) {
                buf[i] = s * i2f(i) + 1.0;
            }
            let acc = 0.0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + buf[i] * buf[i];
            }
            output acc;
        }
    "#;

    fn module() -> Module {
        peppa_lang::compile(SRC, "traced").unwrap()
    }

    fn cfg(trials: u32, seed: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed,
            hang_factor: 8,
            threads,
            burst: 0,
            engine: EngineKind::Interp,
        }
    }

    #[test]
    fn tracing_does_not_perturb_outcomes() {
        let m = module();
        let inputs = [16.0, 0.5];
        let plain = run_campaign(&m, &inputs, ExecLimits::default(), cfg(150, 7, 2)).unwrap();
        let traced =
            run_campaign_traced(&m, &inputs, ExecLimits::default(), cfg(150, 7, 2)).unwrap();
        assert_eq!(
            (plain.sdc, plain.crash, plain.hang, plain.benign),
            (
                traced.campaign.sdc,
                traced.campaign.crash,
                traced.campaign.hang,
                traced.campaign.benign
            )
        );
    }

    #[test]
    fn every_trial_has_a_provenance_record_in_order() {
        let m = module();
        let r =
            run_campaign_traced(&m, &[12.0, 0.25], ExecLimits::default(), cfg(80, 3, 4)).unwrap();
        assert_eq!(r.trials.len(), 80);
        for (i, t) in r.trials.iter().enumerate() {
            assert_eq!(t.trial as usize, i);
        }
    }

    #[test]
    fn sdc_trials_always_propagate() {
        // An SDC means the output stream differed, so the shadow taint
        // must have reached a sink — the dynamic half of the containment
        // argument.
        let m = module();
        let r =
            run_campaign_traced(&m, &[16.0, 0.5], ExecLimits::default(), cfg(200, 11, 0)).unwrap();
        assert!(r.campaign.sdc > 0, "kernel should produce SDCs");
        for t in &r.trials {
            if t.outcome == FaultOutcome::Sdc {
                assert!(t.report.seeded, "SDC without an applied fault: {t:?}");
                assert!(
                    t.report.propagated(),
                    "SDC whose taint never reached a sink: {t:?}"
                );
            }
            if t.report.seeded && t.outcome == FaultOutcome::Benign {
                // Benign faults either extinguish or reach a sink that
                // happened not to change the outcome (e.g. a branch
                // condition whose decision was unaffected).
                assert!(
                    t.report.extinguished() || t.report.propagated() || t.report.live_at_end > 0,
                    "{t:?}"
                );
            }
        }
    }

    #[test]
    fn traced_records_identical_across_thread_counts() {
        let m = module();
        let inputs = [14.0, 0.75];
        let a = run_campaign_traced(&m, &inputs, ExecLimits::default(), cfg(60, 41, 1)).unwrap();
        let b = run_campaign_traced(&m, &inputs, ExecLimits::default(), cfg(60, 41, 4)).unwrap();
        assert_eq!(a.trials.len(), b.trials.len());
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
            assert_eq!(x.report.seeded, y.report.seeded);
            assert_eq!(x.report.seed_mask, y.report.seed_mask);
            assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
            assert_eq!(x.report.sid_hits, y.report.sid_hits);
            assert_eq!(x.report.first_sink, y.report.first_sink);
            assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
        }
        assert_eq!(a.propagated(), b.propagated());
        assert_eq!(a.extinguished(), b.extinguished());
    }

    #[test]
    fn snapshotted_traced_records_identical_to_full_traced() {
        let m = module();
        let inputs = [16.0, 0.5];
        let full =
            run_campaign_traced(&m, &inputs, ExecLimits::default(), cfg(120, 29, 2)).unwrap();
        for k in [0, 1, 8] {
            for threads in [1, 4] {
                let snap = run_campaign_snapshotted_traced(
                    &m,
                    &inputs,
                    ExecLimits::default(),
                    cfg(120, 29, threads),
                    SnapshotConfig {
                        snapshots: k,
                        converge_exit: true,
                    },
                )
                .unwrap();
                assert_eq!(
                    (
                        full.campaign.sdc,
                        full.campaign.crash,
                        full.campaign.hang,
                        full.campaign.benign
                    ),
                    (
                        snap.traced.campaign.sdc,
                        snap.traced.campaign.crash,
                        snap.traced.campaign.hang,
                        snap.traced.campaign.benign
                    ),
                    "k={k} threads={threads}"
                );
                assert_eq!(
                    snap.stats.restores + snap.stats.full_runs,
                    120,
                    "k={k}: every trial is either resumed or full"
                );
                assert_eq!(snap.stats.converged_exits, 0, "tracing never converges-out");
                if k > 0 {
                    assert!(snap.stats.restores > 0, "k={k}");
                }
                for (x, y) in full.trials.iter().zip(&snap.traced.trials) {
                    assert_eq!(x.trial, y.trial);
                    assert_eq!(x.outcome, y.outcome, "trial {}", x.trial);
                    assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
                    assert_eq!(x.report.seeded, y.report.seeded);
                    assert_eq!(x.report.seed_mask, y.report.seed_mask);
                    assert_eq!(x.report.seed_dynamic, y.report.seed_dynamic);
                    assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
                    assert_eq!(x.report.sid_hits, y.report.sid_hits, "trial {}", x.trial);
                    assert_eq!(x.report.first_sink, y.report.first_sink);
                    assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
                    assert_eq!(x.report.live_at_end, y.report.live_at_end);
                }
            }
        }
    }

    #[test]
    fn traced_provenance_identical_across_engines() {
        // TaintHook is a shadow engine driven purely by the ExecHook
        // stream, and the compiled backend emits the interpreter's
        // stream bit-for-bit — so every provenance record must match.
        let m = module();
        let inputs = [16.0, 0.5];
        let a = run_campaign_traced(&m, &inputs, ExecLimits::default(), cfg(80, 13, 2)).unwrap();
        let b = run_campaign_traced(
            &m,
            &inputs,
            ExecLimits::default(),
            CampaignConfig {
                engine: EngineKind::Compiled,
                ..cfg(80, 13, 2)
            },
        )
        .unwrap();
        assert_eq!(
            (
                a.campaign.sdc,
                a.campaign.crash,
                a.campaign.hang,
                a.campaign.benign
            ),
            (
                b.campaign.sdc,
                b.campaign.crash,
                b.campaign.hang,
                b.campaign.benign
            )
        );
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.outcome, y.outcome, "trial {}", x.trial);
            assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
            assert_eq!(x.report.seeded, y.report.seeded);
            assert_eq!(x.report.seed_mask, y.report.seed_mask);
            assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
            assert_eq!(x.report.sid_hits, y.report.sid_hits, "trial {}", x.trial);
            assert_eq!(x.report.first_sink, y.report.first_sink);
            assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
            assert_eq!(x.report.live_at_end, y.report.live_at_end);
        }
    }

    #[test]
    fn heatmap_merge_invariant_across_thread_counts() {
        // The per-sid propagation heatmap is an order-invariant fold of
        // the TrialProvenance stream, so 1 worker and 4 workers must
        // produce the identical merged aggregate.
        let m = module();
        let inputs = [16.0, 0.5];
        let h1 = PropagationHeatmap::new();
        let h4 = PropagationHeatmap::new();
        run_campaign_traced_observed(&m, &inputs, ExecLimits::default(), cfg(100, 23, 1), &h1)
            .unwrap();
        run_campaign_traced_observed(&m, &inputs, ExecLimits::default(), cfg(100, 23, 4), &h4)
            .unwrap();
        assert_eq!(h1.trials(), 100);
        assert_eq!(h1.trials(), h4.trials());
        assert_eq!(h1.snapshot(), h4.snapshot());
        assert!(!h1.snapshot().is_empty(), "some trial must touch taint");
    }

    #[test]
    fn provenance_events_pair_with_trial_events() {
        struct Collecting(std::sync::Mutex<Vec<Event>>);
        impl Observer for Collecting {
            fn on_event(&self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let m = module();
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        run_campaign_traced_observed(&m, &[12.0, 0.5], ExecLimits::default(), cfg(40, 5, 3), &obs)
            .unwrap();
        let events = obs.0.into_inner().unwrap();
        let finished = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        let prov = events
            .iter()
            .filter(|e| e.kind() == "trial_provenance")
            .count();
        assert_eq!(finished, 40);
        assert_eq!(prov, 40);
        // Each TrialFinished is immediately followed by its provenance
        // record for the same trial.
        for w in events.windows(2) {
            if let Event::TrialFinished { trial, .. } = &w[0] {
                match &w[1] {
                    Event::TrialProvenance { trial: p, .. } => assert_eq!(trial, p),
                    other => panic!("expected provenance after trial, got {other:?}"),
                }
            }
        }
        // Spans bracket the phases.
        assert!(events.iter().any(|e| e.kind() == "span_begin"));
        assert!(events.iter().any(|e| e.kind() == "span_end"));
    }
}
