//! Output checks: every campaign and search a run makes is verified
//! after its timing, against the interpreter as the reference.
//!
//! * counts sum to the trial count and the 95% half-width is ≤ ε;
//! * one `TrialFinished` per trial, and every `StaticSkip`ped trial
//!   reported Benign;
//! * a seeded sample of trials (site and bit from `TrialFinished`) is
//!   re-run as a plain interpreter full run and classified; the outcome
//!   must match the campaign's. Sampled skipped trials must come out
//!   Benign, and snapshot-resumed trials (converged or not) must agree
//!   with their full runs;
//! * a search's input lies within its `ArgSpec` bounds and
//!   `fitness_of_input` reproduces its reported fitness.

use peppa_apps::Benchmark;
use peppa_core::{fitness_of_input, SdcScores, SearchCheckpoint};
use peppa_inject::{campaign::golden_run, classify, CampaignResult, FaultOutcome};
use peppa_obs::{Event, Observer, Outcome};
use peppa_stats::Pcg64;
use peppa_vm::{encode_inputs, ExecLimits, Injection, InjectionTarget, Vm};
use std::sync::Mutex;

/// Hang budget of the campaigns under test (`CampaignConfig::hang_factor`).
pub const HANG_FACTOR: u64 = 8;

/// Trials re-run per campaign, plus up to as many skipped trials.
const REPLAYS: usize = 24;

/// One trial as the campaign reported it.
#[derive(Debug, Clone, Copy)]
pub struct TrialRecord {
    pub trial: u32,
    pub outcome: Outcome,
    pub site: u64,
    pub bit: u32,
    pub latency_ns: u64,
}

/// What one campaign call reported through its event stream.
#[derive(Debug, Default)]
pub struct CampaignLog {
    pub trials: Vec<TrialRecord>,
    pub skipped: Vec<u32>,
    /// `(snapshot bytes, converged exits, prefix instrs saved)`.
    pub snapshots: Option<(u64, u64, u64)>,
    pub golden_dynamic: u64,
    /// The campaign's own wall time (`CampaignFinished`).
    pub wall_ns: u64,
}

/// Observer collecting a [`CampaignLog`] per campaign call.
#[derive(Default)]
pub struct CampaignRecorder(pub Mutex<CampaignLog>);

impl CampaignRecorder {
    pub fn take(&self) -> CampaignLog {
        std::mem::take(&mut *self.0.lock().expect("recorder lock poisoned"))
    }
}

impl Observer for CampaignRecorder {
    fn on_event(&self, event: &Event) {
        let mut log = self.0.lock().expect("recorder lock poisoned");
        match *event {
            Event::TrialFinished {
                trial,
                outcome,
                site,
                bit,
                latency_ns,
            } => log.trials.push(TrialRecord {
                trial,
                outcome,
                site,
                bit,
                latency_ns,
            }),
            Event::StaticSkip { trial, .. } => log.skipped.push(trial),
            Event::GoldenRun { dynamic, .. } => log.golden_dynamic = dynamic,
            Event::CampaignFinished { wall_ns, .. } => log.wall_ns = wall_ns,
            Event::SnapshotStats {
                bytes,
                converged_exits,
                prefix_instrs_saved,
                ..
            } => log.snapshots = Some((bytes, converged_exits, prefix_instrs_saved)),
            _ => {}
        }
    }
}

/// Operations checked and operations failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

fn to_obs(o: FaultOutcome) -> Outcome {
    match o {
        FaultOutcome::Sdc => Outcome::Sdc,
        FaultOutcome::Crash => Outcome::Crash,
        FaultOutcome::Hang => Outcome::Hang,
        FaultOutcome::Benign => Outcome::Benign,
    }
}

/// Checks one campaign result and its event log; `seed` picks the
/// replayed trials.
pub fn check_campaign(
    tally: &mut Tally,
    bench: &Benchmark,
    inputs: &[f64],
    result: &CampaignResult,
    log: &CampaignLog,
    eps: f64,
    seed: u64,
) {
    let name = bench.name;
    let n = result.trials;
    tally.check(
        result.sdc + result.crash + result.hang + result.benign == n,
        || format!("{name}: outcome counts do not sum to {n}"),
    );
    tally.check(result.sdc_ci.half_width <= eps, || {
        format!(
            "{name}: half-width {} exceeds eps {eps}",
            result.sdc_ci.half_width
        )
    });
    let mut seen = vec![false; n as usize];
    for t in &log.trials {
        if let Some(s) = seen.get_mut(t.trial as usize) {
            *s = true;
        }
    }
    tally.check(
        log.trials.len() == n as usize && seen.iter().all(|&s| s),
        || {
            format!(
                "{name}: {} TrialFinished events for {n} trials",
                log.trials.len()
            )
        },
    );
    let by_trial = |trial: u32| log.trials.iter().find(|t| t.trial == trial);
    tally.check(
        log.skipped
            .iter()
            .all(|&t| by_trial(t).is_some_and(|r| r.outcome == Outcome::Benign)),
        || format!("{name}: a skipped trial was not reported Benign"),
    );

    let golden = match golden_run(&bench.module, inputs, ExecLimits::default()) {
        Ok(g) => g,
        Err(e) => {
            tally.check(false, || {
                format!("{name}: reference golden run failed: {e}")
            });
            return;
        }
    };
    let faulty_limits = ExecLimits {
        max_dynamic: golden
            .profile
            .dynamic
            .saturating_mul(HANG_FACTOR)
            .saturating_add(10_000),
        ..ExecLimits::default()
    };
    let vm = Vm::new(&bench.module, faulty_limits);
    let bits = encode_inputs(bench.module.entry_func(), inputs);

    let mut rng = Pcg64::new(seed);
    let mut sample: Vec<TrialRecord> = (0..REPLAYS.min(log.trials.len()))
        .map(|_| log.trials[rng.gen_range_u64(log.trials.len() as u64) as usize])
        .collect();
    for _ in 0..REPLAYS.min(log.skipped.len()) {
        let t = log.skipped[rng.gen_range_u64(log.skipped.len() as u64) as usize];
        sample.extend(by_trial(t).copied());
    }
    for t in sample {
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(t.site),
            bit: t.bit,
            burst: 0,
        };
        let replayed = to_obs(classify(&golden, &vm.run(&bits, Some(inj))));
        tally.check(replayed == t.outcome, || {
            format!(
                "{name}: trial {} (site {}, bit {}) reported {} but replays {}",
                t.trial,
                t.site,
                t.bit,
                t.outcome.name(),
                replayed.name()
            )
        });
    }
}

/// Checks a search's reported SDC-bound input.
pub fn check_search_input(
    tally: &mut Tally,
    bench: &Benchmark,
    scores: &SdcScores,
    bound: &SearchCheckpoint,
) {
    let name = bench.name;
    let in_bounds = bound.input.len() == bench.args.len()
        && bound
            .input
            .iter()
            .zip(&bench.args)
            .all(|(&x, a)| x >= a.lo && x <= a.hi && (!a.integer || x.fract() == 0.0));
    tally.check(in_bounds, || {
        format!("{name}: search input {:?} outside its ArgSpec", bound.input)
    });
    let refit = fitness_of_input(bench, scores, &bound.input, ExecLimits::default());
    tally.check(refit.is_some_and(|(f, _)| f == bound.fitness), || {
        format!(
            "{name}: fitness {} does not reproduce ({refit:?})",
            bound.fitness
        )
    });
}
