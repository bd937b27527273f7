//! Engine differential harness: the compiled threaded-bytecode
//! backend must be observably bit-identical to the interpreter on all
//! seven benchmarks — golden runs, hooked runs (full `ExecHook` event
//! streams), injected runs, and snapshot-resumed runs with and
//! without convergence checkpoints (`--snapshots {0,8}` composition).
//!
//! The interpreter is the semantic reference; any mismatch is a
//! compiled-engine bug by definition (IRFuzzer's lesson: backend
//! lowering is where silent divergence hides).

use peppa_ir::{FuncId, Instr, InstrId, Operand, ValueId};
use peppa_vm::{
    encode_inputs, CompiledModule, CompiledVm, ExecHook, ExecLimits, Injection, InjectionTarget,
    RunOutput, RunStatus, TrialResume, Vm, VmSnapshot,
};

/// Full observable event stream of a run, for stream-equality checks.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Begin(u32),
    Def(u32, u64),
    Load(u32, u64, u64),
    Store(u32, u64, u64),
    Clear(u64, u64),
    Fault(u32, u64),
    Branch(Option<Operand>, Vec<ValueId>, Vec<Operand>),
    Call(u32, u32),
    Ret(bool),
}

#[derive(Default)]
struct Recorder {
    events: Vec<Ev>,
}

impl ExecHook for Recorder {
    const ENABLED: bool = true;

    fn begin_instr(&mut self, ins: &Instr) -> bool {
        self.events.push(Ev::Begin(ins.sid.0));
        false
    }

    fn def_value(&mut self, ins: &Instr, bits: u64) {
        self.events.push(Ev::Def(ins.sid.0, bits));
    }

    fn mem_load(&mut self, ins: &Instr, addr: u64, bits: u64) {
        self.events.push(Ev::Load(ins.sid.0, addr, bits));
    }

    fn mem_store(&mut self, ins: &Instr, addr: u64, bits: u64) {
        self.events.push(Ev::Store(ins.sid.0, addr, bits));
    }

    fn mem_clear(&mut self, base: u64, words: u64) {
        self.events.push(Ev::Clear(base, words));
    }

    fn fault_injected(&mut self, ins: &Instr, flip_mask: u64) {
        self.events.push(Ev::Fault(ins.sid.0, flip_mask));
    }

    fn branch_transfer(&mut self, cond: Option<&Operand>, params: &[ValueId], args: &[Operand]) {
        self.events
            .push(Ev::Branch(cond.cloned(), params.to_vec(), args.to_vec()));
    }

    fn call_enter(&mut self, ins: &Instr, callee: FuncId) {
        self.events.push(Ev::Call(ins.sid.0, callee.0));
    }

    fn func_ret(&mut self, value: Option<&Operand>) {
        self.events.push(Ev::Ret(value.is_some()));
    }
}

fn assert_runs_eq(name: &str, what: &str, a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.status, b.status, "{name}/{what}: status diverged");
    assert_eq!(a.output, b.output, "{name}/{what}: output diverged");
    assert_eq!(a.ret, b.ret, "{name}/{what}: return value diverged");
    assert_eq!(
        a.fault_activated, b.fault_activated,
        "{name}/{what}: fault activation diverged"
    );
    assert_eq!(
        a.profile.dynamic, b.profile.dynamic,
        "{name}/{what}: dynamic count diverged"
    );
    assert_eq!(
        a.profile.value_dynamic, b.profile.value_dynamic,
        "{name}/{what}: value-dynamic count diverged"
    );
    assert_eq!(
        a.profile.exec_counts, b.profile.exec_counts,
        "{name}/{what}: per-sid exec counts diverged"
    );
}

/// `k` injection sites spread across the golden fault-site population,
/// plus both ends.
fn sites(value_dynamic: u64, k: u64) -> Vec<u64> {
    let mut s: Vec<u64> = (0..k).map(|j| j * value_dynamic / k).collect();
    s.push(value_dynamic - 1);
    s.dedup();
    s
}

/// Stratified fork points, the same shape the campaign planner uses.
fn fork_points(value_dynamic: u64, k: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (1..=k).map(|j| j * value_dynamic / (k + 1)).collect();
    p.dedup();
    p.retain(|&x| x > 0);
    p
}

#[test]
fn golden_and_hooked_runs_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);

        let golden_i = vm.run(&bits, None);
        let golden_c = cvm.run(&bits, None);
        assert_eq!(
            golden_i.status,
            RunStatus::Ok,
            "{}: golden must pass",
            bench.name
        );
        assert_runs_eq(bench.name, "golden", &golden_i, &golden_c);

        let mut rec_i = Recorder::default();
        let mut rec_c = Recorder::default();
        let hooked_i = vm.run_with_hook(&bits, None, &mut rec_i);
        let hooked_c = cvm.run_with_hook(&bits, None, &mut rec_c);
        assert_runs_eq(bench.name, "hooked", &hooked_i, &hooked_c);
        assert_eq!(
            rec_i.events.len(),
            rec_c.events.len(),
            "{}: event stream length diverged",
            bench.name
        );
        if let Some(pos) = rec_i
            .events
            .iter()
            .zip(&rec_c.events)
            .position(|(a, b)| a != b)
        {
            panic!(
                "{}: event stream diverged at {pos}: interp {:?} vs compiled {:?}",
                bench.name, rec_i.events[pos], rec_c.events[pos]
            );
        }
    }
}

#[test]
fn injected_runs_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        for (i, site) in sites(vd, 5).into_iter().enumerate() {
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: (i as u32 * 13) % 64,
                burst: (i % 2) as u8,
            };
            let fi = vm.run(&bits, Some(inj));
            let fc = cvm.run(&bits, Some(inj));
            assert!(
                fi.fault_activated,
                "{}: site {site} unreachable",
                bench.name
            );
            assert_runs_eq(bench.name, &format!("inj@{site}"), &fi, &fc);

            // Hooked faulty runs must also agree event-for-event.
            if i == 2 {
                let mut rec_i = Recorder::default();
                let mut rec_c = Recorder::default();
                vm.run_with_hook(&bits, Some(inj), &mut rec_i);
                cvm.run_with_hook(&bits, Some(inj), &mut rec_c);
                assert_eq!(
                    rec_i.events, rec_c.events,
                    "{}: faulty event stream diverged at site {site}",
                    bench.name
                );
            }
        }

        // Static-instance targeting exercises the per-def sid check.
        let (sid, &count) = golden
            .profile
            .exec_counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("non-empty profile");
        let inj = Injection {
            target: InjectionTarget::StaticInstance {
                sid: InstrId(sid as u32),
                instance: count / 2,
            },
            bit: 17,
            burst: 0,
        };
        let fi = vm.run(&bits, Some(inj));
        let fc = cvm.run(&bits, Some(inj));
        assert_runs_eq(bench.name, "static-inj", &fi, &fc);
    }
}

#[test]
fn snapshot_resume_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        // Snapshots are engine-independent: captured once on the
        // interpreter, resumed on both engines.
        let points = fork_points(vd, 8);
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);
        assert!(!snaps.is_empty(), "{}: no snapshots captured", bench.name);

        for (i, site) in sites(vd, 4).into_iter().enumerate() {
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: (7 + i as u32 * 11) % 64,
                burst: 0,
            };
            // --snapshots 0 composition: full runs.
            let full_i = vm.run(&bits, Some(inj));
            let full_c = cvm.run(&bits, Some(inj));
            assert_runs_eq(bench.name, &format!("full@{site}"), &full_i, &full_c);

            // --snapshots 8 composition: resume from the last fork
            // point at or before the site.
            let fork = snaps
                .iter()
                .rev()
                .find(|s: &&VmSnapshot| s.value_dynamic() <= site);
            if let Some(snap) = fork {
                let res_i = vm.resume_from(snap, Some(inj));
                let res_c = cvm.resume_from(snap, Some(inj));
                assert_runs_eq(bench.name, &format!("resume@{site}"), &res_i, &res_c);
                assert_runs_eq(
                    bench.name,
                    &format!("resume-vs-full@{site}"),
                    &full_i,
                    &res_c,
                );
            }
        }
    }
}

#[test]
fn converged_trials_match_across_engines() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        let points = fork_points(vd, 8);
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);

        for (fi, snap) in snaps.iter().enumerate() {
            let site = snap.value_dynamic() + (vd - snap.value_dynamic()) / 7;
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: 62,
                burst: 0,
            };
            let later = &snaps[fi + 1..];
            let ti = vm.resume_trial_amortized(snap, Some(inj), later, None, None);
            let tc = cvm.resume_trial_amortized(snap, Some(inj), later, None, None);
            match (&ti, &tc) {
                (TrialResume::Completed(a), TrialResume::Completed(b)) => {
                    assert_runs_eq(bench.name, &format!("trial@{site}"), a, b);
                }
                (
                    TrialResume::Converged {
                        at_value_dynamic: a1,
                        checkpoint_dynamic: a2,
                        dynamic_at_exit: a3,
                        output_matches: a4,
                    },
                    TrialResume::Converged {
                        at_value_dynamic: b1,
                        checkpoint_dynamic: b2,
                        dynamic_at_exit: b3,
                        output_matches: b4,
                    },
                ) => {
                    assert_eq!((a1, a2, a3, a4), (b1, b2, b3, b4), "{}: convergence data diverged", bench.name);
                }
                _ => panic!(
                    "{}: trial disposition diverged at site {site}: interp converged={} compiled converged={}",
                    bench.name,
                    matches!(ti, TrialResume::Converged { .. }),
                    matches!(tc, TrialResume::Converged { .. })
                ),
            }
        }
    }
}

#[test]
fn hang_classification_identical() {
    let bench = peppa_apps::benchmark_by_name("pathfinder").unwrap();
    let m = &bench.module;
    let bits = encode_inputs(m.entry_func(), &bench.reference_input);
    let limits = ExecLimits {
        max_dynamic: 10_000,
        ..Default::default()
    };
    let code = CompiledModule::lower(m);
    let hi = Vm::new(m, limits).run(&bits, None);
    let hc = CompiledVm::new(m, &code, limits).run(&bits, None);
    assert_eq!(hi.status, RunStatus::Hang);
    assert_runs_eq("pathfinder", "hang", &hi, &hc);
}
