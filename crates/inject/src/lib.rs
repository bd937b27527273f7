//! Statistical fault injection for PIR programs — the LLFI analogue.
//!
//! The paper's measurement methodology (§3.1.3–3.1.4):
//!
//! * single bit flips in a random dynamic instruction's **return value**
//!   (computing-component faults only; memory assumed ECC-protected);
//! * outcome classification into **SDC** (clean exit, wrong output),
//!   **crash** (trap), **hang** (budget exhaustion), or **benign**
//!   (identical output);
//! * SDC probability = SDCs / activated faults (return-value flips always
//!   activate, so the denominator is the trial count);
//! * 1,000 trials per program-level measurement, ~100 per instruction for
//!   per-instruction probabilities, 30 per representative in the pruned
//!   distribution analysis.
//!
//! Campaigns are embarrassingly parallel; every runner fans its trials
//! out through [`parallel::map_claimed`], whose workers claim trials by
//! index and whose results are stored by index, while each trial's RNG
//! stream depends only on `(seed, trial)` — so results are bit-for-bit
//! reproducible at any parallelism level.

pub mod campaign;
pub mod flags;
pub mod forkpoint;
pub mod outcome;
pub mod parallel;
pub mod per_instr;
pub mod propagation;
pub mod provenance;

pub use campaign::{
    run_campaign, run_campaign_observed, run_campaign_pruned, run_campaign_pruned_gated,
    run_campaign_pruned_gated_observed, run_campaign_pruned_observed, run_campaign_snapshotted,
    run_campaign_snapshotted_observed, CampaignConfig, CampaignResult, GatedPrunedCampaignResult,
    PruneDecision, PruneGate, PrunedCampaignResult, SnapshotConfig, SnapshotStats,
    SnapshottedCampaignResult, StaticPrune,
};
pub use flags::{validate_flags, FlagError, InjectMode};
pub use forkpoint::{fork_point_for, plan_fork_points};
pub use outcome::{classify, FaultOutcome};
pub use parallel::map_claimed;
pub use per_instr::{per_instruction_sdc, PerInstrConfig, PerInstrResult};
pub use propagation::{generate_corpus, trace_propagation, CorpusEntry, PropagationTrace};
pub use provenance::{
    run_campaign_snapshotted_traced, run_campaign_snapshotted_traced_observed, run_campaign_traced,
    run_campaign_traced_observed, TracedCampaignResult, TracedTrial,
};
