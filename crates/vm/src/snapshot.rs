//! VM state snapshots: capture a mid-run machine state once, resume it
//! many times.
//!
//! A fault-injection campaign re-executes the golden prefix of the
//! program once per trial just to reach the injection point. A
//! [`VmSnapshot`] freezes the complete interpreter state at an
//! inter-instruction boundary — the frame stack (per-frame register
//! files and program positions), the written prefix of memory, the
//! output stream, and the dynamic/value-dynamic instruction counters —
//! so [`crate::Vm::resume_from`] can restart execution mid-stream and
//! every trial only pays for the suffix after its fork point.
//!
//! Determinism contract: the interpreter is deterministic and snapshots
//! are taken at instruction boundaries, so a resumed run executes the
//! *bit-identical* instruction stream the full run would have executed
//! from that point: same dynamic indices (the counters are part of the
//! snapshot, so `InjectionTarget::DynamicIndex` sites land on the same
//! instruction), same trap/hang behaviour (the budget check uses the
//! restored `Profile::dynamic`), same outputs. Memory is stored as the
//! prefix up to the run's write high-water mark; everything beyond it
//! is provably still zero, so restoring `zeros ++ prefix` rebuilds the
//! exact image at a fraction of the cost.
//!
//! Snapshots are cheaply cloneable (`Arc`-shared) and `Send + Sync`, so
//! one capture run can feed every worker thread of a campaign.

use crate::exec::RunOutput;
use peppa_ir::FuncId;
use std::sync::Arc;

/// One frozen activation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameSnap {
    pub(crate) fid: FuncId,
    pub(crate) regs: Vec<u64>,
    /// Current block index within the function.
    pub(crate) block: u32,
    /// Next instruction index within the block.
    pub(crate) instr: u32,
    /// Stack pointer to restore when this frame returns.
    pub(crate) frame_sp: u64,
}

/// The full frozen machine state (shared, immutable).
#[derive(Debug)]
pub(crate) struct SnapData {
    pub(crate) frames: Vec<FrameSnap>,
    /// Memory up to the high-water mark; every word beyond it was
    /// never written and is still zero.
    pub(crate) mem: Vec<u64>,
    /// Full memory size the run was configured with (restore sanity
    /// check — a snapshot only resumes under the same memory limit).
    pub(crate) memory_words: usize,
    pub(crate) stack_ptr: u64,
    /// Output words emitted before the capture point.
    pub(crate) output: Vec<u64>,
    /// `Profile::dynamic` at capture.
    pub(crate) dynamic: u64,
    /// `Profile::value_dynamic` at capture — the fork-point coordinate.
    pub(crate) value_dynamic: u64,
    /// `Profile::exec_counts` at capture (keeps
    /// `InjectionTarget::StaticInstance` targeting exact across resume).
    pub(crate) exec_counts: Vec<u64>,
}

/// An immutable, cheaply cloneable snapshot of a point along a run.
///
/// Captured by [`crate::Vm::run_with_snapshots`], consumed by
/// [`crate::Vm::resume_from`] / [`crate::Vm::resume_trial`]. Clones
/// share the underlying state via [`Arc`].
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    data: Arc<SnapData>,
}

impl VmSnapshot {
    pub(crate) fn new(data: SnapData) -> VmSnapshot {
        VmSnapshot {
            data: Arc::new(data),
        }
    }

    pub(crate) fn data(&self) -> &SnapData {
        &self.data
    }

    /// The value-dynamic index of the capture point: the snapshot sits
    /// just before the `value_dynamic()`-th value-producing instruction
    /// executes, so it is a valid start for any injection site `k >=
    /// value_dynamic()`.
    pub fn value_dynamic(&self) -> u64 {
        self.data.value_dynamic
    }

    /// Dynamic (non-terminator) instructions executed before the
    /// capture point — the prefix a resumed trial does *not* re-run.
    pub fn dynamic(&self) -> u64 {
        self.data.dynamic
    }

    /// Call depth at the capture point.
    pub fn depth(&self) -> usize {
        self.data.frames.len()
    }

    /// Function ids of the live frames, outermost first (used to rebuild
    /// shadow-engine frame stacks on resume).
    pub fn frame_fids(&self) -> Vec<FuncId> {
        self.data.frames.iter().map(|f| f.fid).collect()
    }

    /// Approximate heap size of the captured state in bytes.
    pub fn bytes(&self) -> u64 {
        let d = &*self.data;
        let frame_words: usize = d.frames.iter().map(|f| f.regs.len() + 4).sum();
        ((d.mem.len() + d.output.len() + d.exec_counts.len() + frame_words) * 8 + 64) as u64
    }
}

/// Per-boundary live-register masks, consumed by
/// [`crate::Vm::resume_trial_amortized`] to widen convergence
/// detection: a register that is statically dead at a frame's current
/// position is never read before being overwritten on any path from
/// that point, so a corrupted value parked in it cannot influence the
/// continuation and must not block state convergence with the golden
/// run. Without masks, a benign fault that lands in a register whose
/// last use has already passed keeps the register file unequal for the
/// rest of the run and forces the trial to execute its entire suffix.
///
/// Indexing: `funcs[fid][block][boundary]` is a bitset (64 values per
/// word) over the function's value ids; `boundary` is the index of the
/// next instruction to execute (`n_instrs` = before the terminator) —
/// the same coordinates [`FrameSnap`] freezes. The VM only consumes
/// the masks; the liveness computation lives in the analysis layer
/// (`peppa_analysis::converge_masks`).
#[derive(Debug, Clone)]
pub struct ConvergeMasks {
    funcs: Vec<Vec<Vec<Vec<u64>>>>,
}

impl ConvergeMasks {
    /// Wraps raw per-function/block/boundary live-value bitset words.
    /// Soundness rests on the producer: a value missing from a mask is
    /// asserted to be dead (never read before redefinition) at that
    /// boundary.
    pub fn from_raw(funcs: Vec<Vec<Vec<Vec<u64>>>>) -> ConvergeMasks {
        ConvergeMasks { funcs }
    }

    pub(crate) fn mask(&self, fid: FuncId, block: u32, instr: u32) -> &[u64] {
        &self.funcs[fid.0 as usize][block as usize][instr as usize]
    }
}

pub(crate) fn mask_contains(words: &[u64], idx: usize) -> bool {
    words
        .get(idx / 64)
        .is_some_and(|w| w & (1 << (idx % 64)) != 0)
}

/// One memory access of a golden capture run, in execution order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AccessEv {
    Load(u32),
    Store(u32),
    /// A range zero-fill (alloca initialization, frame scrub on return):
    /// semantically a store of zero to every word in `[base, base+len)`.
    Zero {
        base: u32,
        len: u32,
    },
}

/// Memory-access trace of a golden capture run, with one mark per
/// captured snapshot recording how far the trace had progressed (and
/// the checkpoint's `value_dynamic` coordinate).
#[derive(Debug, Default)]
pub(crate) struct AccessLog {
    pub(crate) events: Vec<AccessEv>,
    /// `(events-index, value_dynamic)` per captured snapshot, in
    /// capture order.
    pub(crate) marks: Vec<(usize, u64)>,
}

/// Per-checkpoint *future read sets* of the golden run: for checkpoint
/// `j`, the sorted word addresses the golden continuation loads after
/// `j` **before overwriting them**. Computed by a single backward sweep
/// over the capture run's access trace.
///
/// Soundness (lockstep induction): suppose a faulty run reaches
/// checkpoint `j`'s `value_dynamic` with equal frame positions and
/// live registers, and its memory agrees with golden's on every
/// address in the read set. Both runs are then about to execute the
/// same instruction with the same operands. Each subsequent step
/// computes identical values (equal inputs), stores to identical
/// addresses (addresses are computed from equal registers, so any
/// word either run reads was either written identically by both since
/// `j`, or is in the read set and equal by assumption), transfers
/// control identically, and emits identical output. The faulty
/// continuation is therefore *behaviourally* identical to golden's —
/// same future outputs, same dynamic instruction count, no traps —
/// even though words outside the read set (dead memory) may differ
/// forever. This converts "a corrupted value is parked in memory that
/// is never read again" from a convergence blocker into a convergence.
///
/// It also makes the *failing* compare cheap: instead of scanning the
/// whole written image, a non-converged trial only scans the handful
/// of words the continuation actually depends on.
#[derive(Debug)]
pub struct ReadSets {
    /// `(value_dynamic, sorted word addresses)` per checkpoint.
    sets: Vec<(u64, Vec<u32>)>,
}

impl ReadSets {
    /// Backward-sweeps the access trace: walking from the end of the
    /// run towards each mark, a `Load` makes its address live and any
    /// store (including range zero-fills) kills it; the live set at a
    /// mark is exactly that checkpoint's future read set.
    pub(crate) fn from_log(log: &AccessLog, memory_words: usize) -> ReadSets {
        let mut live = vec![0u64; memory_words.div_ceil(64)];
        let mut sets: Vec<(u64, Vec<u32>)> = Vec::with_capacity(log.marks.len());
        let mut ev = log.events.len();
        for &(mark, value_dynamic) in log.marks.iter().rev() {
            while ev > mark {
                ev -= 1;
                match log.events[ev] {
                    AccessEv::Load(a) => live[a as usize / 64] |= 1 << (a % 64),
                    AccessEv::Store(a) => live[a as usize / 64] &= !(1 << (a % 64)),
                    AccessEv::Zero { base, len } => clear_range(&mut live, base, len),
                }
            }
            sets.push((value_dynamic, collect_bits(&live)));
        }
        sets.reverse();
        ReadSets { sets }
    }

    /// The read set of the checkpoint captured at `value_dynamic`, if
    /// one exists.
    pub(crate) fn set_at(&self, value_dynamic: u64) -> Option<&[u32]> {
        self.sets
            .binary_search_by_key(&value_dynamic, |(vd, _)| *vd)
            .ok()
            .map(|i| self.sets[i].1.as_slice())
    }

    /// Total words across all per-checkpoint sets (diagnostics).
    pub fn total_words(&self) -> usize {
        self.sets.iter().map(|(_, s)| s.len()).sum()
    }
}

fn clear_range(live: &mut [u64], base: u32, len: u32) {
    let (start, end) = (base as usize, base as usize + len as usize);
    let (first_w, last_w) = (start / 64, end / 64);
    if first_w == last_w {
        if len > 0 {
            live[first_w] &= !(((1u64 << (end - last_w * 64)) - 1) & !((1u64 << (start % 64)) - 1));
        }
        return;
    }
    live[first_w] &= (1u64 << (start % 64)) - 1;
    for w in &mut live[first_w + 1..last_w] {
        *w = 0;
    }
    let tail = end % 64;
    if tail != 0 {
        live[last_w] &= !((1u64 << tail) - 1);
    }
}

fn collect_bits(live: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    for (wi, &w) in live.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros();
            out.push((wi * 64) as u32 + b);
            w &= w - 1;
        }
    }
    out
}

/// Result of [`crate::Vm::resume_trial`]: either the resumed run
/// terminated normally, or its machine state became bit-identical to
/// the golden run's at a later checkpoint, which pins the rest of the
/// execution (the interpreter is deterministic, so identical state
/// implies an identical continuation) and lets the trial stop early.
#[derive(Debug)]
pub enum TrialResume {
    /// Ran to a normal end (clean exit, trap, or hang).
    Completed(RunOutput),
    /// Machine state converged with the golden checkpoint captured at
    /// `at_value_dynamic`. The continuation is exactly the golden
    /// continuation, so the final status is `Ok` unless the projected
    /// total instruction count overruns the budget, and the final
    /// output/return match golden iff the output emitted so far does.
    Converged {
        /// Fork-point coordinate of the checkpoint that matched.
        at_value_dynamic: u64,
        /// `Profile::dynamic` of the golden run at that checkpoint.
        checkpoint_dynamic: u64,
        /// `Profile::dynamic` of the resumed run when it matched (can
        /// exceed `checkpoint_dynamic` if the faulty path ran longer
        /// before converging).
        dynamic_at_exit: u64,
        /// Whether the output emitted so far equals the golden output
        /// at the checkpoint (decides benign vs SDC).
        output_matches: bool,
    },
}

impl TrialResume {
    /// The output of a run given no checkpoints, which cannot converge.
    pub(crate) fn completed(self) -> RunOutput {
        match self {
            TrialResume::Completed(out) => out,
            TrialResume::Converged { .. } => unreachable!("no checkpoints supplied"),
        }
    }
}
