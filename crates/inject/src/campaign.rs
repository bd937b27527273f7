//! Program-level statistical FI campaigns.
//!
//! Two runners share one engine: the classic full campaign and the
//! statically-pruned campaign ([`run_campaign_pruned`]). Pruning never
//! changes what a campaign *measures*: each trial's fault is sampled
//! from the same per-trial RNG stream first, and only then — if the
//! sampled `(static instruction, bit)` cell is provably masked per the
//! caller-supplied [`StaticPrune`] table — is the faulty execution
//! skipped and the trial counted Benign. Trials that do run are
//! bit-identical to the full campaign's, so a *sound* prune table makes
//! the pruned outcome counts exactly equal to the full campaign's.

use crate::forkpoint::{fork_point_for, plan_fork_points};
use crate::outcome::{classify, FaultOutcome};
use crate::parallel::map_claimed;
use peppa_ir::{Instr, Module};
use peppa_obs::{Event, NullObserver, Observer, Outcome as ObsOutcome};
use peppa_stats::{binomial_ci, ci::Z_95, BinomialCi, Pcg64};
use peppa_vm::{
    encode_inputs, CompiledModule, Engine, EngineKind, ExecHook, ExecLimits, Injection,
    InjectionTarget, RunOutput, TrialResume, Vm,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of FI trials (the paper uses 1,000 for program-level
    /// measurements).
    pub trials: u32,
    /// Seed for fault-site sampling. Trial `t` uses a stream derived from
    /// `(seed, t)`, so results do not depend on scheduling.
    pub seed: u64,
    /// Hang budget for faulty runs, as a multiple of the golden run's
    /// dynamic instruction count.
    pub hang_factor: u64,
    /// Additional adjacent bits to flip per fault (0 = the paper's
    /// single-bit model; 1 = adjacent double-bit, etc.).
    pub burst: u8,
    /// Number of worker threads; 0 means use all available cores.
    pub threads: usize,
    /// Execution backend trials run on. The engines are observably
    /// bit-identical (see `crates/vm/tests/engine_differential.rs`),
    /// so this is a pure wall-clock knob: outcome counts do not depend
    /// on it.
    pub engine: EngineKind,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 1000,
            seed: 0x5eed,
            hang_factor: 8,
            threads: 0,
            burst: 0,
            engine: EngineKind::Interp,
        }
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    pub trials: u32,
    pub sdc: u32,
    pub crash: u32,
    pub hang: u32,
    pub benign: u32,
    /// 95% Wilson interval on the SDC probability.
    pub sdc_ci: BinomialCi,
    /// Total program executions consumed (trials + the golden run) — the
    /// cost unit used when comparing search budgets with the baseline.
    pub executions: u64,
    /// Dynamic instructions of the golden run.
    pub golden_dynamic: u64,
}

impl CampaignResult {
    /// SDC probability: `P(SDC | fault activated)`. Return-value flips
    /// always activate, so the denominator is the trial count.
    pub fn sdc_prob(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.sdc as f64 / self.trials as f64
    }

    pub fn crash_prob(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.crash as f64 / self.trials as f64
    }

    /// Counts per-trial outcomes into a result; `executions` is the runs
    /// actually paid for, the golden run included.
    pub(crate) fn tally(
        outcomes: impl IntoIterator<Item = FaultOutcome>,
        executions: u64,
        golden_dynamic: u64,
    ) -> CampaignResult {
        let (mut sdc, mut crash, mut hang, mut benign) = (0, 0, 0, 0);
        for o in outcomes {
            match o {
                FaultOutcome::Sdc => sdc += 1,
                FaultOutcome::Crash => crash += 1,
                FaultOutcome::Hang => hang += 1,
                FaultOutcome::Benign => benign += 1,
            }
        }
        let trials = sdc + crash + hang + benign;
        CampaignResult {
            trials,
            sdc,
            crash,
            hang,
            benign,
            sdc_ci: binomial_ci(sdc as u64, trials as u64, Z_95),
            executions,
            golden_dynamic,
        }
    }

    /// The terminal `CampaignFinished` event of a campaign that began at
    /// `start`.
    pub(crate) fn finished_event(&self, start: Instant) -> Event {
        Event::CampaignFinished {
            trials: self.trials,
            sdc: self.sdc,
            crash: self.crash,
            hang: self.hang,
            benign: self.benign,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// Per-cell static skip table for `--static-prune` campaigns.
///
/// `cells[sid]` has bit `b` set iff a fault sampled at bit position `b`
/// of static instruction `sid` is provably masked under the burst model
/// the table was built for. The injector deliberately does not depend on
/// `peppa-analysis`; callers build this from a `FaultReach` (see
/// `StaticPrune::from_masks`-style constructors in the bench/CLI
/// layers). Missing sids are never skipped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticPrune {
    pub cells: Vec<u64>,
    /// Burst width the table was computed for; the campaign refuses a
    /// mismatched `CampaignConfig::burst`.
    pub burst: u8,
}

impl StaticPrune {
    /// Whether the sampled `(sid, bit)` cell is provably masked.
    #[inline]
    pub fn is_masked(&self, sid: u32, bit: u32) -> bool {
        bit < 64 && (self.cells.get(sid as usize).copied().unwrap_or(0) >> bit) & 1 != 0
    }

    /// Number of masked cells in the table.
    pub fn masked_cells(&self) -> u64 {
        self.cells.iter().map(|c| c.count_ones() as u64).sum()
    }
}

/// A [`CampaignResult`] plus the pruning bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrunedCampaignResult {
    pub campaign: CampaignResult,
    /// Trials skipped without execution (already counted Benign in
    /// `campaign`).
    pub skipped: u64,
}

impl PrunedCampaignResult {
    /// Fraction of trials that needed no faulty execution.
    pub fn skip_ratio(&self) -> f64 {
        if self.campaign.trials == 0 {
            return 0.0;
        }
        self.skipped as f64 / self.campaign.trials as f64
    }
}

/// Records, for every value-producing dynamic instruction of the golden
/// run, the static instruction it came from — the map a pruned campaign
/// uses to turn a sampled dynamic index into a prune-table sid.
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

/// Errors that stop a campaign before any trial runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden run did not exit cleanly; the input is invalid for
    /// resilience measurement (§3.1.2 discards inputs that error out).
    GoldenRunFailed(String),
    /// The program executed no value-producing instructions.
    NoFaultSites,
    /// The [`StaticPrune`] table was built for a different burst width
    /// than the campaign is configured to inject.
    PruneBurstMismatch { table: u8, campaign: u8 },
    /// A per-instruction measurement was asked for zero trials per
    /// instruction, which would leave every probability undefined.
    NoTrials,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::GoldenRunFailed(s) => write!(f, "golden run failed: {s}"),
            CampaignError::NoFaultSites => write!(f, "no value-producing dynamic instructions"),
            CampaignError::PruneBurstMismatch { table, campaign } => write!(
                f,
                "static-prune table built for burst {table}, campaign uses burst {campaign}"
            ),
            CampaignError::NoTrials => write!(f, "zero FI trials per instruction"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Runs the golden execution for `inputs`, checking it is clean.
pub fn golden_run(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
) -> Result<RunOutput, CampaignError> {
    golden_run_on(module, inputs, limits, None)
}

/// [`golden_run`] on the campaign's selected engine (`Some` = the
/// pre-lowered compiled module, `None` = interpreter).
pub(crate) fn golden_run_on(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    code: Option<&CompiledModule>,
) -> Result<RunOutput, CampaignError> {
    let eng = Engine::new(module, limits, code);
    let golden = eng.run_numeric(inputs, None);
    if !golden.status.is_ok() {
        return Err(CampaignError::GoldenRunFailed(format!(
            "{:?}",
            golden.status
        )));
    }
    Ok(golden)
}

/// Samples one fault site uniformly over the golden run's value-producing
/// dynamic instructions.
pub fn sample_fault(rng: &mut Pcg64, value_dynamic: u64) -> Injection {
    sample_fault_burst(rng, value_dynamic, 0)
}

/// Samples a fault site under the multi-bit (burst) model.
pub fn sample_fault_burst(rng: &mut Pcg64, value_dynamic: u64, burst: u8) -> Injection {
    let dyn_index = rng.gen_range_u64(value_dynamic);
    let bit = rng.gen_range_u64(64) as u32;
    Injection {
        target: InjectionTarget::DynamicIndex(dyn_index),
        bit,
        burst,
    }
}

/// Runs a statistical FI campaign for one input.
pub fn run_campaign(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_observed(module, inputs, limits, cfg, &NullObserver)
}

impl From<FaultOutcome> for ObsOutcome {
    fn from(o: FaultOutcome) -> ObsOutcome {
        match o {
            FaultOutcome::Sdc => ObsOutcome::Sdc,
            FaultOutcome::Crash => ObsOutcome::Crash,
            FaultOutcome::Hang => ObsOutcome::Hang,
            FaultOutcome::Benign => ObsOutcome::Benign,
        }
    }
}

/// One trial's observable facts, reported from worker threads to the
/// collector over a bounded channel.
struct TrialReport {
    trial: u32,
    outcome: FaultOutcome,
    site: u64,
    bit: u32,
    latency_ns: u64,
    /// `Some(sid)` if static pruning skipped the faulty execution.
    skipped_sid: Option<u32>,
}

impl TrialReport {
    fn to_event(&self) -> Event {
        Event::TrialFinished {
            trial: self.trial,
            outcome: self.outcome.into(),
            site: self.site,
            bit: self.bit,
            latency_ns: self.latency_ns,
        }
    }

    /// Emits this report's events (a `StaticSkip` first when pruned).
    fn emit(&self, observer: &dyn Observer) {
        if let Some(sid) = self.skipped_sid {
            observer.on_event(&Event::StaticSkip {
                trial: self.trial,
                sid,
                site: self.site,
                bit: self.bit,
            });
        }
        observer.on_event(&self.to_event());
    }
}

/// [`run_campaign`] with an [`Observer`] attached.
///
/// Emitted events: `CampaignStarted`, `GoldenRun`, one `TrialFinished`
/// per trial (in completion order — the `trial` field carries the
/// logical index), and `CampaignFinished` whose counts are the exact
/// counts of the returned [`CampaignResult`].
///
/// Worker threads never call the observer directly: they push
/// [`TrialReport`]s over a bounded channel drained on the calling
/// thread, so sinks see a single-threaded event stream and slow sinks
/// apply back-pressure instead of unbounded buffering. Outcomes are
/// unaffected by observation — trial RNG streams depend only on
/// `(seed, trial)`, so the result is identical to the unobserved runner
/// at every thread count.
pub fn run_campaign_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    observer: &dyn Observer,
) -> Result<CampaignResult, CampaignError> {
    campaign_impl(module, inputs, limits, cfg, observer, None).map(|r| r.campaign)
}

/// [`run_campaign`] with `ProvablyMasked` fault cells skipped.
///
/// Skipped trials count as Benign (the statically proven outcome) and
/// cost no execution; `executions` reflects only the runs actually
/// performed. Sampling is identical to the full campaign, so with a
/// sound table the outcome counts match [`run_campaign`] exactly —
/// `repro hybrid` checks this, plus FI ground truth on a sample of
/// skipped cells.
pub fn run_campaign_pruned(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    prune: &StaticPrune,
) -> Result<PrunedCampaignResult, CampaignError> {
    run_campaign_pruned_observed(module, inputs, limits, cfg, prune, &NullObserver)
}

/// [`run_campaign_pruned`] with an [`Observer`] attached. Each skipped
/// trial emits a `StaticSkip` event immediately before its
/// `TrialFinished`.
pub fn run_campaign_pruned_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    prune: &StaticPrune,
    observer: &dyn Observer,
) -> Result<PrunedCampaignResult, CampaignError> {
    if prune.burst != cfg.burst {
        return Err(CampaignError::PruneBurstMismatch {
            table: prune.burst,
            campaign: cfg.burst,
        });
    }
    campaign_impl(module, inputs, limits, cfg, observer, Some(prune))
}

fn campaign_impl(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    observer: &dyn Observer,
    prune: Option<&StaticPrune>,
) -> Result<PrunedCampaignResult, CampaignError> {
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

    // Pruning needs the dynamic-index → sid map of the golden run; the
    // hook does not perturb execution, so the output is the same either
    // way.
    let (golden, sid_map) = if prune.is_some() {
        let eng = Engine::new(module, limits, code.as_ref());
        let bits = encode_inputs(module.entry_func(), inputs);
        let mut hook = SidMapHook { sids: Vec::new() };
        let golden = eng.run_with_hook(&bits, None, &mut hook);
        if !golden.status.is_ok() {
            return Err(CampaignError::GoldenRunFailed(format!(
                "{:?}",
                golden.status
            )));
        }
        (golden, hook.sids)
    } else {
        (
            golden_run_on(module, inputs, limits, code.as_ref())?,
            Vec::new(),
        )
    };
    if golden.profile.value_dynamic == 0 {
        return Err(CampaignError::NoFaultSites);
    }
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

    debug_assert!(
        prune.is_none() || sid_map.len() as u64 == golden.profile.value_dynamic,
        "sid map must cover every value-producing dynamic instruction"
    );

    let run_trial = |t: u32| -> TrialReport {
        // Per-trial stream independent of scheduling. The fault is
        // sampled before the skip decision, so pruning never changes
        // which fault a trial measures.
        let mut rng = Pcg64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let inj = sample_fault_burst(&mut rng, golden.profile.value_dynamic, cfg.burst);
        let site = match inj.target {
            InjectionTarget::DynamicIndex(k) => k,
            InjectionTarget::StaticInstance { instance, .. } => instance,
        };
        if let Some(p) = prune {
            let sid = sid_map[site as usize];
            if p.is_masked(sid, inj.bit) {
                return TrialReport {
                    trial: t,
                    outcome: FaultOutcome::Benign,
                    site,
                    bit: inj.bit,
                    latency_ns: 0,
                    skipped_sid: Some(sid),
                };
            }
        }
        let eng = Engine::new(module, faulty_limits, code.as_ref());
        let t0 = Instant::now();
        let faulty = eng.run_numeric(inputs, Some(inj));
        let latency_ns = t0.elapsed().as_nanos() as u64;
        TrialReport {
            trial: t,
            outcome: classify(&golden, &faulty),
            site,
            bit: inj.bit,
            latency_ns,
            skipped_sid: None,
        }
    };

    let reports = map_claimed(
        cfg.trials as usize,
        cfg.threads,
        |t| run_trial(t as u32),
        |r| r.emit(observer),
    );
    let skipped = reports.iter().filter(|r| r.skipped_sid.is_some()).count() as u64;
    let campaign = CampaignResult::tally(
        reports.iter().map(|r| r.outcome),
        cfg.trials as u64 - skipped + 1,
        golden.profile.dynamic,
    );
    observer.on_event(&campaign.finished_event(start));
    observer.flush();
    Ok(PrunedCampaignResult { campaign, skipped })
}

/// Configuration of the snapshot/fork engine of a
/// [`run_campaign_snapshotted`] campaign.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Maximum golden-prefix snapshots to capture (the `--snapshots K`
    /// knob). `0` degenerates to the classic runner: every trial
    /// executes from program entry.
    pub snapshots: u32,
    /// Stop a faulty run early when its machine state becomes
    /// bit-identical to a later golden checkpoint (the continuation is
    /// then pinned to the golden one, so the outcome is decided without
    /// executing the suffix). Purely an optimization — outcomes are
    /// identical either way.
    pub converge_exit: bool,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            snapshots: 16,
            converge_exit: true,
        }
    }
}

/// Bookkeeping of one snapshotted campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Snapshots actually captured (≤ the configured `K`: fork points
    /// dedup when sampled sites repeat).
    pub snapshots: u32,
    /// Total heap bytes across all captured snapshots.
    pub bytes: u64,
    /// Trials resumed from a snapshot.
    pub restores: u64,
    /// Trials executed from program entry (site before the first fork
    /// point, or `snapshots == 0`).
    pub full_runs: u64,
    /// Trials cut short by golden-state convergence.
    pub converged_exits: u64,
    /// Golden-prefix dynamic instructions the resumed trials did not
    /// re-execute — the quantity the speedup comes from.
    pub prefix_instrs_saved: u64,
}

/// A [`CampaignResult`] plus the snapshot engine's accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshottedCampaignResult {
    pub campaign: CampaignResult,
    pub stats: SnapshotStats,
}

/// [`run_campaign`] with the golden prefix amortized across trials.
///
/// Pre-samples every trial's fault (per-trial RNG streams depend only
/// on `(seed, trial)`, so sampling commutes with execution), plans up
/// to `snap.snapshots` stratified fork points over the sampled sites,
/// replays the golden run once capturing a [`peppa_vm::VmSnapshot`] at
/// each, then runs every trial from the latest snapshot preceding its
/// fault site. The interpreter is deterministic and snapshots restore
/// the complete machine state (including the dynamic counters the
/// injection target and hang budget are defined over), so outcome
/// counts are **bit-identical** to [`run_campaign`] under the same
/// `CampaignConfig` — only wall time changes.
pub fn run_campaign_snapshotted(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    snap: SnapshotConfig,
) -> Result<SnapshottedCampaignResult, CampaignError> {
    run_campaign_snapshotted_observed(module, inputs, limits, cfg, snap, &NullObserver)
}

/// [`run_campaign_snapshotted`] with an [`Observer`] attached.
///
/// Event stream: `CampaignStarted`, `GoldenRun`, one `SnapshotCaptured`
/// per fork point, per-trial `TrialFinished` (completion order), then
/// `SnapshotStats` immediately before the terminal `CampaignFinished`.
pub fn run_campaign_snapshotted_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    snap: SnapshotConfig,
    observer: &dyn Observer,
) -> Result<SnapshottedCampaignResult, CampaignError> {
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

    // Plain golden run first: sampling needs the fault-site population
    // before any fork point can be planned.
    let golden = golden_run_on(module, inputs, limits, code.as_ref())?;
    if golden.profile.value_dynamic == 0 {
        return Err(CampaignError::NoFaultSites);
    }
    observer.on_event(&Event::GoldenRun {
        benchmark: module.name.clone(),
        dynamic: golden.profile.dynamic,
        value_dynamic: golden.profile.value_dynamic,
        coverage: golden.profile.coverage(),
    });

    // Pre-sample every trial's fault from the same per-trial streams the
    // classic runner uses — identical faults, identical outcomes.
    let injections: Vec<Injection> = (0..cfg.trials)
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

    // Capture run: replay the golden execution once, freezing the
    // machine at each planned fork point.
    let points = plan_fork_points(&sites, snap.snapshots);
    let bits = encode_inputs(module.entry_func(), inputs);
    let (snaps, read_sets) = if points.is_empty() {
        (Vec::new(), None)
    } else {
        let vm = Vm::new(module, limits);
        // Convergence additionally needs each checkpoint's future read
        // set, derived from the capture run's memory-access trace; a
        // prefix-skip-only campaign uses the cheaper plain capture.
        let (replay, snaps, read_sets) = if snap.converge_exit {
            let (replay, snaps, rs) = vm.run_with_snapshots_read_sets(&bits, &points);
            (replay, snaps, Some(rs))
        } else {
            let (replay, snaps) = vm.run_with_snapshots(&bits, &points);
            (replay, snaps, None)
        };
        debug_assert!(replay.status.is_ok());
        debug_assert_eq!(replay.output, golden.output);
        debug_assert_eq!(
            snaps.len(),
            points.len(),
            "every fork point precedes a sampled site, so all are reached"
        );
        (snaps, read_sets)
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
    let converged_exits = AtomicU64::new(0);
    let prefix_saved = AtomicU64::new(0);

    // Static live-register masks widen the convergence check: a benign
    // fault parked in a dead register would otherwise keep the register
    // file unequal forever and force the whole suffix to execute.
    let masks =
        (snap.converge_exit && !snaps.is_empty()).then(|| peppa_analysis::converge_masks(module));

    let run_trial = |t: u32| -> TrialReport {
        let inj = injections[t as usize];
        let site = sites[t as usize];
        let eng = Engine::new(module, faulty_limits, code.as_ref());
        let t0 = Instant::now();
        let outcome = match fork_point_for(&points, site) {
            None => {
                full_runs.fetch_add(1, Ordering::Relaxed);
                classify(&golden, &eng.run(&bits, Some(inj)))
            }
            Some(i) => {
                restores.fetch_add(1, Ordering::Relaxed);
                prefix_saved.fetch_add(snaps[i].dynamic(), Ordering::Relaxed);
                let later: &[peppa_vm::VmSnapshot] = if snap.converge_exit {
                    &snaps[i + 1..]
                } else {
                    &[]
                };
                match eng.resume_trial_amortized(
                    &snaps[i],
                    Some(inj),
                    later,
                    masks.as_ref(),
                    read_sets.as_ref(),
                ) {
                    TrialResume::Completed(faulty) => classify(&golden, &faulty),
                    TrialResume::Converged {
                        checkpoint_dynamic,
                        dynamic_at_exit,
                        output_matches,
                        ..
                    } => {
                        converged_exits.fetch_add(1, Ordering::Relaxed);
                        // The continuation from the matched checkpoint is
                        // exactly the golden continuation. Project the
                        // final dynamic count so the hang budget stays
                        // bit-exact with the full execution (the VM hangs
                        // when `dynamic > max_dynamic`).
                        let projected = dynamic_at_exit
                            .saturating_add(golden.profile.dynamic - checkpoint_dynamic);
                        if projected > faulty_limits.max_dynamic {
                            FaultOutcome::Hang
                        } else if output_matches {
                            FaultOutcome::Benign
                        } else {
                            FaultOutcome::Sdc
                        }
                    }
                }
            }
        };
        TrialReport {
            trial: t,
            outcome,
            site,
            bit: inj.bit,
            latency_ns: t0.elapsed().as_nanos() as u64,
            skipped_sid: None,
        }
    };

    let reports = map_claimed(
        cfg.trials as usize,
        cfg.threads,
        |t| run_trial(t as u32),
        |r| r.emit(observer),
    );
    // Same accounting as the classic runner: each trial measures one
    // (partial) program execution, plus the golden run.
    let campaign = CampaignResult::tally(
        reports.iter().map(|r| r.outcome),
        cfg.trials as u64 + 1,
        golden.profile.dynamic,
    );

    let stats = SnapshotStats {
        snapshots: snaps.len() as u32,
        bytes: snap_bytes,
        restores: restores.into_inner(),
        full_runs: full_runs.into_inner(),
        converged_exits: converged_exits.into_inner(),
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
    Ok(SnapshottedCampaignResult { campaign, stats })
}

/// Threshold policy for [`run_campaign_pruned_gated`]: pruning engages
/// whenever the predicted skip ratio *exceeds* the threshold.
///
/// The default threshold is 0: any table predicting a nonzero skip
/// ratio engages. The sid-map bookkeeping the gate once guarded against
/// is O(1) per trial and far cheaper than even a fraction of a percent
/// of skipped executions; the gate's remaining job is to keep empty
/// tables (ratio exactly 0, e.g. hpccg's honestly all-live space) on
/// the classic unpruned path.
#[derive(Debug, Clone, Copy)]
pub struct PruneGate {
    /// Predicted skip ratio must be strictly greater than this for
    /// pruning to engage.
    pub min_skip_ratio: f64,
}

impl Default for PruneGate {
    fn default() -> Self {
        PruneGate {
            min_skip_ratio: 0.0,
        }
    }
}

/// What a gated pruned campaign decided, and why.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruneDecision {
    /// Whether pruning actually engaged.
    pub applied: bool,
    /// Masked `(sid, bit)` cells in the supplied table.
    pub masked_cells: u64,
    /// Predicted fraction of trials the table would skip (0 when the
    /// table is empty and prediction was short-circuited).
    pub predicted_skip_ratio: f64,
    /// The gate's `min_skip_ratio`.
    pub threshold: f64,
}

/// A [`PrunedCampaignResult`] plus the gate's decision record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatedPrunedCampaignResult {
    pub result: PrunedCampaignResult,
    pub decision: PruneDecision,
}

impl StaticPrune {
    /// Predicted fraction of uniformly sampled `(dynamic site, bit)`
    /// faults this table skips, given the golden run's per-sid
    /// execution counts: `Σ exec_counts[sid] · popcount(cells[sid]) /
    /// (value_dynamic · 64)`. Exact for sound tables (masked cells only
    /// cover value-producing instructions, whose execution count equals
    /// their dynamic value instance count).
    pub fn predicted_skip_ratio(&self, exec_counts: &[u64], value_dynamic: u64) -> f64 {
        if value_dynamic == 0 {
            return 0.0;
        }
        let masked: f64 = exec_counts
            .iter()
            .zip(&self.cells)
            .map(|(&n, &c)| n as f64 * c.count_ones() as f64)
            .sum();
        masked / (value_dynamic as f64 * 64.0)
    }
}

/// [`run_campaign_pruned`] behind a cost gate: pruning engages whenever
/// the table predicts strictly more than `gate.min_skip_ratio` of
/// trials skip (any nonzero prediction under the default). At or below
/// the threshold, the campaign runs the classic unpruned path and
/// reports why.
///
/// Outcome counts are identical whichever way the gate decides — a
/// disengaged gate only stops trials from being *skipped*, and skipped
/// trials are Benign by proof.
pub fn run_campaign_pruned_gated(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    prune: &StaticPrune,
    gate: PruneGate,
) -> Result<GatedPrunedCampaignResult, CampaignError> {
    run_campaign_pruned_gated_observed(module, inputs, limits, cfg, prune, gate, &NullObserver)
}

/// [`run_campaign_pruned_gated`] with an [`Observer`] attached. The
/// decision is announced as an `Event::Message` before the campaign
/// starts.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_pruned_gated_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    prune: &StaticPrune,
    gate: PruneGate,
    observer: &dyn Observer,
) -> Result<GatedPrunedCampaignResult, CampaignError> {
    if prune.burst != cfg.burst {
        return Err(CampaignError::PruneBurstMismatch {
            table: prune.burst,
            campaign: cfg.burst,
        });
    }
    let masked_cells = prune.masked_cells();
    // Prediction needs the golden profile; an empty table needs nothing.
    let predicted_skip_ratio = if masked_cells == 0 {
        0.0
    } else {
        let golden = golden_run(module, inputs, limits)?;
        prune.predicted_skip_ratio(&golden.profile.exec_counts, golden.profile.value_dynamic)
    };
    let applied = predicted_skip_ratio > gate.min_skip_ratio;
    let decision = PruneDecision {
        applied,
        masked_cells,
        predicted_skip_ratio,
        threshold: gate.min_skip_ratio,
    };
    observer.on_event(&Event::Message {
        text: format!(
            "prune gate: {} (masked cells {}, predicted skip {:.2}% {} threshold {:.2}%)",
            if applied { "engaged" } else { "disengaged" },
            masked_cells,
            predicted_skip_ratio * 100.0,
            if applied { ">=" } else { "<" },
            gate.min_skip_ratio * 100.0
        ),
    });
    let result = campaign_impl(
        module,
        inputs,
        limits,
        cfg,
        observer,
        applied.then_some(prune),
    )?;
    Ok(GatedPrunedCampaignResult { result, decision })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel where faults visibly matter: accumulates a function of
    /// the input and outputs the sum plus a guard value.
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
        peppa_lang::compile(SRC, "camp").unwrap()
    }

    #[test]
    fn campaign_counts_sum_to_trials() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 200,
            seed: 1,
            ..Default::default()
        };
        let r = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        assert_eq!(r.sdc + r.crash + r.hang + r.benign, r.trials);
        assert!(r.sdc > 0, "expected some SDCs, got {r:?}");
        assert_eq!(r.executions, 201);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = module();
        let base = CampaignConfig {
            trials: 120,
            seed: 77,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let a = run_campaign(&m, &[12.0, 0.25], ExecLimits::default(), base).unwrap();
        let b = run_campaign(
            &m,
            &[12.0, 0.25],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
        )
        .unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (b.sdc, b.crash, b.hang, b.benign)
        );
    }

    #[test]
    fn different_seeds_vary() {
        let m = module();
        let mk = |seed| CampaignConfig {
            trials: 150,
            seed,
            ..Default::default()
        };
        let a = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), mk(1)).unwrap();
        let b = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), mk(2)).unwrap();
        // Same distribution, different sample: exact tie across all four
        // counters is very unlikely.
        assert!(
            (a.sdc, a.crash, a.hang, a.benign) != (b.sdc, b.crash, b.hang, b.benign),
            "two seeds produced identical outcome vectors"
        );
    }

    #[test]
    fn golden_failure_rejected() {
        // x = 0 divides by zero in the golden run, so the input is
        // rejected before any trial.
        let m = peppa_lang::compile("fn main(x: int) { output 100 / x; }", "div").unwrap();
        let e = run_campaign(&m, &[0.0], ExecLimits::default(), Default::default());
        assert!(matches!(e, Err(CampaignError::GoldenRunFailed(_))));
        // A clean divisor works.
        let ok = run_campaign(
            &m,
            &[5.0],
            ExecLimits::default(),
            CampaignConfig {
                trials: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ok.trials, 50);
    }

    /// Collects every event for post-hoc assertions.
    struct Collecting(std::sync::Mutex<Vec<Event>>);

    impl Observer for Collecting {
        fn on_event(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn observed_campaign_emits_one_event_per_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 90,
            seed: 3,
            threads: 4,
            ..Default::default()
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r = run_campaign_observed(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &obs).unwrap();
        let events = obs.0.into_inner().unwrap();

        let trials: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .collect();
        assert_eq!(trials.len(), cfg.trials as usize);
        // Every logical trial index appears exactly once, whatever the
        // completion order was.
        let mut seen: Vec<u32> = trials
            .iter()
            .map(|e| match e {
                Event::TrialFinished { trial, .. } => *trial,
                _ => unreachable!(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..cfg.trials).collect::<Vec<_>>());

        // The terminal event's counts match the returned result.
        match events.last().unwrap() {
            Event::CampaignFinished {
                trials,
                sdc,
                crash,
                hang,
                benign,
                ..
            } => {
                assert_eq!(
                    (*trials, *sdc, *crash, *hang, *benign),
                    (r.trials, r.sdc, r.crash, r.hang, r.benign)
                );
            }
            other => panic!("last event was {other:?}"),
        }
        assert_eq!(events[0].kind(), "campaign_started");
        assert_eq!(events[1].kind(), "golden_run");
    }

    #[test]
    fn observed_result_identical_across_thread_counts() {
        let m = module();
        let base = CampaignConfig {
            trials: 96,
            seed: 41,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let a =
            run_campaign_observed(&m, &[14.0, 0.75], ExecLimits::default(), base, &obs).unwrap();
        let b = run_campaign_observed(
            &m,
            &[14.0, 0.75],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
            &obs,
        )
        .unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (b.sdc, b.crash, b.hang, b.benign)
        );
        // And observation does not perturb the unobserved runner either.
        let c = run_campaign(&m, &[14.0, 0.75], ExecLimits::default(), base).unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (c.sdc, c.crash, c.hang, c.benign)
        );
    }

    #[test]
    fn metrics_outcome_counters_match_result() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 80,
            seed: 9,
            ..Default::default()
        };
        let reg = peppa_obs::MetricsRegistry::new();
        let r = run_campaign_observed(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &reg).unwrap();
        assert_eq!(reg.counter_value("campaign.outcome.sdc"), r.sdc as u64);
        assert_eq!(reg.counter_value("campaign.outcome.crash"), r.crash as u64);
        assert_eq!(reg.counter_value("campaign.outcome.hang"), r.hang as u64);
        assert_eq!(
            reg.counter_value("campaign.outcome.benign"),
            r.benign as u64
        );
        assert_eq!(
            reg.counter_value("campaign.trials.finished"),
            r.trials as u64
        );
    }

    #[test]
    fn journal_has_one_line_per_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 12,
            threads: 2,
            ..Default::default()
        };
        let path = std::env::temp_dir().join(format!(
            "peppa-campaign-journal-{}.jsonl",
            std::process::id()
        ));
        {
            let j = peppa_obs::JsonlJournal::create(&path).unwrap();
            run_campaign_observed(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &j).unwrap();
        }
        let events = peppa_obs::JsonlJournal::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let trial_lines = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(trial_lines, cfg.trials as usize);
    }

    #[test]
    fn pruned_campaign_with_empty_table_matches_full_exactly() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 120,
            seed: 21,
            threads: 2,
            ..Default::default()
        };
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        let none = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        let pruned =
            run_campaign_pruned(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &none).unwrap();
        assert_eq!(pruned.skipped, 0);
        assert_eq!(
            (full.sdc, full.crash, full.hang, full.benign),
            (
                pruned.campaign.sdc,
                pruned.campaign.crash,
                pruned.campaign.hang,
                pruned.campaign.benign
            )
        );
        assert_eq!(pruned.campaign.executions, full.executions);
    }

    #[test]
    fn fully_masked_table_skips_every_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 4,
            threads: 3,
            ..Default::default()
        };
        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r =
            run_campaign_pruned_observed(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &all, &obs)
                .unwrap();
        assert_eq!(r.skipped, 60);
        assert_eq!(r.skip_ratio(), 1.0);
        assert_eq!(r.campaign.benign, 60);
        // No faulty executions: only the golden run was paid for.
        assert_eq!(r.campaign.executions, 1);

        let events = obs.0.into_inner().unwrap();
        let skips = events.iter().filter(|e| e.kind() == "static_skip").count();
        let trials = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(skips, 60, "one StaticSkip per skipped trial");
        assert_eq!(trials, 60, "TrialFinished still fires for every trial");
    }

    #[test]
    fn prune_burst_mismatch_is_rejected() {
        let m = module();
        let table = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 1,
        };
        let e = run_campaign_pruned(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig::default(),
            &table,
        );
        assert!(matches!(
            e,
            Err(CampaignError::PruneBurstMismatch {
                table: 1,
                campaign: 0
            })
        ));
    }

    #[test]
    fn pruned_campaign_deterministic_across_thread_counts() {
        let m = module();
        // Mask a slice of cells so some trials skip and some run.
        let mut cells = vec![0u64; m.num_instrs];
        for (i, c) in cells.iter_mut().enumerate() {
            if i % 3 == 0 {
                *c = 0x00FF_FF00_0000_FF00;
            }
        }
        let table = StaticPrune { cells, burst: 0 };
        let base = CampaignConfig {
            trials: 90,
            seed: 17,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let a =
            run_campaign_pruned(&m, &[12.0, 0.25], ExecLimits::default(), base, &table).unwrap();
        let b = run_campaign_pruned(
            &m,
            &[12.0, 0.25],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
            &table,
        )
        .unwrap();
        assert_eq!(a.skipped, b.skipped);
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
    }

    #[test]
    fn snapshotted_campaign_bit_identical_to_full() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 150,
            seed: 33,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        for k in [0, 1, 8, 64] {
            for threads in [1, 4] {
                for converge_exit in [false, true] {
                    let r = run_campaign_snapshotted(
                        &m,
                        &[16.0, 0.5],
                        ExecLimits::default(),
                        CampaignConfig { threads, ..cfg },
                        SnapshotConfig {
                            snapshots: k,
                            converge_exit,
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        (full.sdc, full.crash, full.hang, full.benign),
                        (
                            r.campaign.sdc,
                            r.campaign.crash,
                            r.campaign.hang,
                            r.campaign.benign
                        ),
                        "k={k} threads={threads} converge_exit={converge_exit}"
                    );
                    assert_eq!(r.campaign.executions, full.executions);
                    assert_eq!(r.campaign.golden_dynamic, full.golden_dynamic);
                    assert_eq!(
                        r.stats.restores + r.stats.full_runs,
                        cfg.trials as u64,
                        "every trial either restores or runs from entry"
                    );
                    if k == 0 {
                        assert_eq!(r.stats.snapshots, 0);
                        assert_eq!(r.stats.full_runs, cfg.trials as u64);
                    } else {
                        assert!(r.stats.snapshots >= 1 && r.stats.snapshots <= k);
                        assert!(r.stats.bytes > 0);
                        assert!(r.stats.restores > 0, "k={k}: some trial must restore");
                        if k > 1 {
                            // With one fork point at the earliest sampled
                            // site the prefix can legitimately be empty
                            // (site 0 ⇒ snapshot at dynamic 0); with more
                            // points the later ones must save something.
                            assert!(r.stats.prefix_instrs_saved > 0, "k={k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snapshotted_campaign_emits_capture_and_stats_events() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 8,
            threads: 2,
            ..Default::default()
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r = run_campaign_snapshotted_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            SnapshotConfig::default(),
            &obs,
        )
        .unwrap();
        let events = obs.0.into_inner().unwrap();
        let captures = events
            .iter()
            .filter(|e| e.kind() == "snapshot_captured")
            .count();
        assert_eq!(captures as u32, r.stats.snapshots);
        // SnapshotStats is the penultimate event, right before
        // CampaignFinished, and its counts match the result.
        match &events[events.len() - 2] {
            Event::SnapshotStats {
                snapshots,
                restores,
                full_runs,
                prefix_instrs_saved,
                ..
            } => {
                assert_eq!(*snapshots, r.stats.snapshots);
                assert_eq!(*restores, r.stats.restores);
                assert_eq!(*full_runs, r.stats.full_runs);
                assert_eq!(*prefix_instrs_saved, r.stats.prefix_instrs_saved);
            }
            other => panic!("expected SnapshotStats before CampaignFinished, got {other:?}"),
        }
        assert_eq!(events.last().unwrap().kind(), "campaign_finished");
        let trial_events = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(trial_events, cfg.trials as usize);
    }

    #[test]
    fn predicted_skip_ratio_matches_table_extremes() {
        let m = module();
        let golden = golden_run(&m, &[16.0, 0.5], ExecLimits::default()).unwrap();
        let empty = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        assert_eq!(
            empty.predicted_skip_ratio(&golden.profile.exec_counts, golden.profile.value_dynamic),
            0.0
        );
        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        // Every value-producing cell masked predicts ≥ 100% skip (the
        // estimate also counts non-value instructions, so it can only
        // overshoot, never undershoot).
        assert!(
            all.predicted_skip_ratio(&golden.profile.exec_counts, golden.profile.value_dynamic)
                >= 1.0
        );
    }

    #[test]
    fn prune_gate_disengages_on_empty_table_and_engages_on_full() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 80,
            seed: 19,
            threads: 2,
            ..Default::default()
        };
        let empty = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        let g = run_campaign_pruned_gated(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &empty,
            PruneGate::default(),
        )
        .unwrap();
        assert!(!g.decision.applied);
        assert_eq!(g.decision.masked_cells, 0);
        assert_eq!(g.decision.predicted_skip_ratio, 0.0);
        assert_eq!(g.result.skipped, 0);
        // Disengaged gate still measures the same campaign.
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        assert_eq!(
            (full.sdc, full.crash, full.hang, full.benign),
            (
                g.result.campaign.sdc,
                g.result.campaign.crash,
                g.result.campaign.hang,
                g.result.campaign.benign
            )
        );

        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        let g = run_campaign_pruned_gated(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &all,
            PruneGate::default(),
        )
        .unwrap();
        assert!(g.decision.applied);
        assert!(g.decision.predicted_skip_ratio >= 1.0);
        assert_eq!(g.result.skipped, cfg.trials as u64);

        // An unreachable threshold disengages even a full table.
        let g = run_campaign_pruned_gated(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &all,
            PruneGate {
                min_skip_ratio: 1e9,
            },
        )
        .unwrap();
        assert!(!g.decision.applied);
        assert_eq!(g.result.skipped, 0);
    }

    #[test]
    fn prune_gate_rejects_burst_mismatch() {
        let m = module();
        let table = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 2,
        };
        let e = run_campaign_pruned_gated(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig::default(),
            &table,
            PruneGate::default(),
        );
        assert!(matches!(
            e,
            Err(CampaignError::PruneBurstMismatch {
                table: 2,
                campaign: 0
            })
        ));
    }

    #[test]
    fn campaign_outcomes_identical_across_engines() {
        let m = module();
        let base = CampaignConfig {
            trials: 150,
            seed: 2021,
            hang_factor: 8,
            threads: 2,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let interp = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), base).unwrap();
        let compiled = run_campaign(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig {
                engine: EngineKind::Compiled,
                ..base
            },
        )
        .unwrap();
        assert_eq!(
            (interp.sdc, interp.crash, interp.hang, interp.benign),
            (compiled.sdc, compiled.crash, compiled.hang, compiled.benign),
            "engines sampled identical faults but classified them differently"
        );
        assert_eq!(interp.golden_dynamic, compiled.golden_dynamic);

        // `--engine compiled` composes with `--snapshots K`: fork points
        // land on the same value-dynamic boundaries in both backends.
        for k in [0, 8] {
            let r = run_campaign_snapshotted(
                &m,
                &[16.0, 0.5],
                ExecLimits::default(),
                CampaignConfig {
                    engine: EngineKind::Compiled,
                    ..base
                },
                SnapshotConfig {
                    snapshots: k,
                    converge_exit: true,
                },
            )
            .unwrap();
            assert_eq!(
                (interp.sdc, interp.crash, interp.hang, interp.benign),
                (
                    r.campaign.sdc,
                    r.campaign.crash,
                    r.campaign.hang,
                    r.campaign.benign
                ),
                "compiled engine with --snapshots {k} diverged from interpreter"
            );
            if k > 0 {
                assert!(r.stats.restores > 0, "k={k}: some trial must restore");
            }
        }
    }

    #[test]
    fn campaign_started_event_carries_engine_tag() {
        let m = module();
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let cfg = CampaignConfig {
                trials: 20,
                seed: 6,
                threads: 1,
                engine,
                ..Default::default()
            };
            let obs = Collecting(std::sync::Mutex::new(Vec::new()));
            run_campaign_observed(&m, &[16.0, 0.5], ExecLimits::default(), cfg, &obs).unwrap();
            let events = obs.0.into_inner().unwrap();
            match &events[0] {
                Event::CampaignStarted { engine: e, .. } => assert_eq!(e, engine.as_str()),
                other => panic!("first event was {other:?}"),
            }
        }
    }

    #[test]
    fn sdc_probability_and_ci_consistent() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 300,
            seed: 5,
            ..Default::default()
        };
        let r = run_campaign(&m, &[20.0, 1.5], ExecLimits::default(), cfg).unwrap();
        let p = r.sdc_prob();
        assert!(r.sdc_ci.lo <= p && p <= r.sdc_ci.hi);
    }
}
