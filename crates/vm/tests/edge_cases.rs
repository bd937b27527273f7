//! Direct edge-case tests of interpreter semantics that the MiniC
//! differential tests cannot reach (built with the raw IR builder).

use peppa_ir::{BinOp, CastKind, IPred, InstrId, Module, ModuleBuilder, Op, Operand, Ty, UnOp};
use peppa_vm::{
    CompiledModule, CompiledVm, ExecLimits, Injection, InjectionTarget, RunOutput, RunStatus, Trap,
    TrialResume, Vm,
};

/// Builds `fn main() { output <expr built by f> }` and runs it.
fn eval(build: impl FnOnce(&mut peppa_ir::FunctionBuilder<'_>) -> Operand) -> u64 {
    let mut mb = ModuleBuilder::new("edge");
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    let v = build(&mut f);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    let vm = Vm::new(&m, ExecLimits::default());
    let out = vm.run_numeric(&[], None);
    assert_eq!(out.status, RunStatus::Ok);
    out.output[0]
}

#[test]
fn int_min_division_wraps() {
    // i64::MIN / -1 overflows; the VM wraps instead of trapping (LLVM
    // would be UB; determinism matters more than faithfulness here).
    let r = eval(|f| f.bin(BinOp::SDiv, Operand::i64(i64::MIN), Operand::i64(-1)));
    assert_eq!(r as i64, i64::MIN);
}

#[test]
fn srem_sign_follows_dividend() {
    let r = eval(|f| f.bin(BinOp::SRem, Operand::i64(-7), Operand::i64(3)));
    assert_eq!(r as i64, -1);
}

#[test]
fn shift_amounts_masked_to_width() {
    // Shift by 64+3 behaves as shift by 3 (masked), not UB.
    let r = eval(|f| f.bin(BinOp::Shl, Operand::i64(1), Operand::i64(67)));
    assert_eq!(r, 8);
    let r = eval(|f| f.bin(BinOp::AShr, Operand::i64(-16), Operand::i64(66)));
    assert_eq!(r as i64, -4);
}

#[test]
fn lshr_is_logical() {
    let r = eval(|f| f.bin(BinOp::LShr, Operand::i64(-1), Operand::i64(1)));
    assert_eq!(r, u64::MAX >> 1);
}

#[test]
fn i32_arithmetic_wraps_at_32_bits() {
    let r = eval(|f| {
        let v = f.bin(BinOp::Add, Operand::i32(i32::MAX), Operand::i32(1));
        f.cast(CastKind::SExt, v, Ty::I64)
    });
    assert_eq!(r as i64, i32::MIN as i64);
}

#[test]
fn zext_uses_unsigned_narrow_value() {
    let r = eval(|f| {
        let v = f.bin(BinOp::Add, Operand::i32(-1), Operand::i32(0));
        f.cast(CastKind::ZExt, v, Ty::I64)
    });
    assert_eq!(r, 0xffff_ffff);
}

#[test]
fn sext_of_true_is_all_ones() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Eq, Operand::i64(1), Operand::i64(1));
        f.cast(CastKind::SExt, c, Ty::I64)
    });
    assert_eq!(r, u64::MAX);
}

#[test]
fn fptosi_saturates_and_zeroes_nan() {
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(1e300), Ty::I64));
    assert_eq!(r as i64, i64::MAX);
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(f64::NAN), Ty::I64));
    assert_eq!(r as i64, 0);
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(-1e300), Ty::I64));
    assert_eq!(r as i64, i64::MIN);
}

#[test]
fn fcmp_ordered_predicates_false_on_nan() {
    for pred in [
        peppa_ir::FPred::Oeq,
        peppa_ir::FPred::One,
        peppa_ir::FPred::Olt,
        peppa_ir::FPred::Ole,
        peppa_ir::FPred::Ogt,
        peppa_ir::FPred::Oge,
    ] {
        let r = eval(move |f| {
            let c = f.fcmp(pred, Operand::f64(f64::NAN), Operand::f64(1.0));
            f.cast(CastKind::ZExt, c, Ty::I64)
        });
        assert_eq!(r, 0, "{pred:?} true on NaN");
    }
}

#[test]
fn ult_compares_unsigned() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Ult, Operand::i64(-1), Operand::i64(1));
        f.cast(CastKind::ZExt, c, Ty::I64)
    });
    assert_eq!(r, 0, "-1 as unsigned is u64::MAX, not < 1");
}

#[test]
fn float_div_by_zero_is_inf_not_trap() {
    let r = eval(|f| f.bin(BinOp::FDiv, Operand::f64(1.0), Operand::f64(0.0)));
    assert_eq!(f64::from_bits(r), f64::INFINITY);
}

#[test]
fn not_on_i1_is_logical_negation() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Eq, Operand::i64(1), Operand::i64(2)); // false
        let n = f.un(UnOp::Not, c);
        f.cast(CastKind::ZExt, n, Ty::I64)
    });
    assert_eq!(r, 1);
}

#[test]
fn bitcast_roundtrips_f64() {
    let r = eval(|f| {
        let bits = f.cast(CastKind::Bitcast, Operand::f64(-3.75), Ty::I64);
        f.cast(CastKind::Bitcast, bits, Ty::F64)
    });
    assert_eq!(f64::from_bits(r), -3.75);
}

fn trap_of(build: impl FnOnce(&mut peppa_ir::FunctionBuilder<'_>)) -> RunStatus {
    let mut mb = ModuleBuilder::new("trap");
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    build(&mut f);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    let vm = Vm::new(
        &m,
        ExecLimits {
            memory_words: 64,
            ..Default::default()
        },
    );
    vm.run_numeric(&[], None).status
}

#[test]
fn null_load_and_store_trap() {
    let s = trap_of(|f| {
        let p = f.cast(CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
        let _ = f.load(p, Ty::I64);
    });
    assert_eq!(s, RunStatus::Trap(Trap::OutOfBounds { addr: 0 }));
}

#[test]
fn negative_alloca_traps() {
    let s = trap_of(|f| {
        let _ = f.alloca(Operand::i64(-5));
    });
    assert_eq!(s, RunStatus::Trap(Trap::StackOverflow));
}

#[test]
fn alloca_larger_than_memory_traps() {
    let s = trap_of(|f| {
        let _ = f.alloca(Operand::i64(1_000_000));
    });
    assert_eq!(s, RunStatus::Trap(Trap::StackOverflow));
}

#[test]
fn memory_capture_present_even_on_trap() {
    let mut mb = ModuleBuilder::new("cap");
    let g = mb.global("g", 2);
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    f.store(g, Operand::i64(42));
    let bad = f.cast(CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
    f.store(bad, Operand::i64(1)); // traps after the first store landed
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m: Module = mb.finish();
    let vm = Vm::new(
        &m,
        ExecLimits {
            memory_words: 16,
            ..Default::default()
        },
    );
    let bits: Vec<u64> = vec![];
    let out = vm.run_capture(&bits, None);
    assert!(matches!(out.status, RunStatus::Trap(_)));
    let mem = out.memory.expect("capture requested");
    assert_eq!(mem[1], 42, "pre-trap store must be visible in the capture");
}

// ---- Sized memory image ---------------------------------------------
//
// A run stores only the memory prefix it has touched; the words past it
// read as zero and bounds are checked against `memory_words`. These
// tests pin the image's boundaries on both engines.

const WORDS: usize = 1 << 14;

fn sized_limits() -> ExecLimits {
    ExecLimits {
        memory_words: WORDS,
        ..Default::default()
    }
}

/// `fn main()` over an initialized 3-word global at word 1, so globals
/// occupy words `[0, 4)` and the stack starts at word 4.
fn main_only(build: impl FnOnce(&mut peppa_ir::FunctionBuilder<'_>)) -> Module {
    let mut mb = ModuleBuilder::new("sized");
    mb.global_init("g", 3, vec![7, 0, 9]);
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    build(&mut f);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    mb.finish()
}

fn ptr(f: &mut peppa_ir::FunctionBuilder<'_>, addr: usize) -> Operand {
    f.cast(CastKind::IntToPtr, Operand::i64(addr as i64), Ty::Ptr)
}

/// Runs `m` on both engines, asserts they agree, returns the
/// interpreter's run.
fn run_both(m: &Module) -> RunOutput {
    let code = CompiledModule::lower(m);
    let a = Vm::new(m, sized_limits()).run(&[], None);
    let b = CompiledVm::new(m, &code, sized_limits()).run(&[], None);
    assert_eq!(a.status, b.status, "engines disagree on status");
    assert_eq!(a.output, b.output, "engines disagree on output");
    assert_eq!(a.profile.dynamic, b.profile.dynamic);
    a
}

#[test]
fn unwritten_word_above_high_water_reads_zero() {
    let m = main_only(|f| {
        for addr in [100, WORDS - 1] {
            let p = ptr(f, addr);
            let v = f.load(p, Ty::I64);
            f.output(v);
        }
    });
    let out = run_both(&m);
    assert_eq!(out.status, RunStatus::Ok);
    assert_eq!(out.output, vec![0, 0]);
}

#[test]
fn access_at_memory_words_traps_with_its_address() {
    for store in [false, true] {
        let m = main_only(|f| {
            let p = ptr(f, WORDS);
            if store {
                f.store(p, Operand::i64(1));
            } else {
                let _ = f.load(p, Ty::I64);
            }
        });
        let want = Trap::OutOfBounds { addr: WORDS as u64 };
        assert_eq!(run_both(&m).status, RunStatus::Trap(want), "store={store}");
    }
    // The last word is addressable: a write there grows the image.
    let m = main_only(|f| {
        let p = ptr(f, WORDS - 1);
        f.store(p, Operand::i64(11));
        let v = f.load(p, Ty::I64);
        f.output(v);
    });
    assert_eq!(run_both(&m).output, vec![11]);
}

#[test]
fn alloca_past_memory_words_overflows() {
    let stack = WORDS as i64 - 4;
    let fits = main_only(|f| {
        let a = f.alloca(Operand::i64(stack));
        let last = f.gep(a, Operand::i64(stack - 1));
        f.store(last, Operand::i64(3));
        let v = f.load(last, Ty::I64);
        f.output(v);
    });
    assert_eq!(run_both(&fits).output, vec![3]);
    let over = main_only(|f| {
        let _ = f.alloca(Operand::i64(stack + 1));
    });
    assert_eq!(run_both(&over).status, RunStatus::Trap(Trap::StackOverflow));
}

#[test]
fn captured_image_spans_memory_words() {
    let m = main_only(|f| {
        let p = ptr(f, 5000);
        f.store(p, Operand::i64(-2));
        let a = f.alloca(Operand::i64(4));
        f.store(a, Operand::i64(8));
    });
    let vm = Vm::new(&m, sized_limits());
    let out = vm.run_capture(&[], None);
    // Globals as initialized, the far store, and main's frame scrubbed
    // on return.
    let mut want = vec![0u64; WORDS];
    want[1] = 7;
    want[3] = 9;
    want[5000] = -2i64 as u64;
    assert_eq!(out.memory.as_deref(), Some(&want[..]));
    let (_, snaps) = vm.run_with_snapshots(&[], &[1]);
    let resumed = vm.resume_capture(&snaps[0], None);
    assert_eq!(resumed.memory, out.memory);
}

/// `main` calls `work(8)` three times. `work` allocates `m = n + 0`
/// words, stores 6 at `a[idx]` with `idx = 0 + 0`, and outputs `n`;
/// the store lands in the frame, which `ret` scrubs.
fn frames_module() -> Module {
    let mut mb = ModuleBuilder::new("frames");
    let work = mb.declare("work", &[Ty::I64], None);
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(work);
    let n = f.param(0);
    let m = f.add(n, Operand::i64(0));
    let a = f.alloca(m);
    let idx = f.add(Operand::i64(0), Operand::i64(0));
    let p = f.gep(a, idx);
    f.store(p, Operand::i64(6));
    f.output(n);
    f.ret(None);
    f.finish();
    let mut f = mb.define(main);
    for _ in 0..3 {
        f.call(work, &[Operand::i64(8)]);
    }
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    mb.finish()
}

/// Sid of the `k`-th `add` in `work`.
fn nth_add(m: &Module, k: usize) -> InstrId {
    m.functions[0]
        .instrs()
        .filter(|ins| matches!(ins.op, Op::Bin { op: BinOp::Add, .. }))
        .nth(k)
        .expect("work has two adds")
        .sid
}

/// Resumes a faulty trial from the run's start with every later value
/// boundary as a checkpoint, on both engines; asserts they agree and
/// that the trial's outcome is the full faulty run's.
fn resumed_trial(m: &Module, inj: Injection) -> TrialResume {
    let code = CompiledModule::lower(m);
    let vm = Vm::new(m, sized_limits());
    let cvm = CompiledVm::new(m, &code, sized_limits());
    let golden = vm.run(&[], None);
    let points: Vec<u64> = (0..golden.profile.value_dynamic).collect();
    let (_, snaps) = vm.run_with_snapshots(&[], &points);
    let full = vm.run(&[], Some(inj));
    assert!(full.fault_activated);
    let ti = vm.resume_trial(&snaps[0], Some(inj), &snaps[1..]);
    let tc = cvm.resume_trial(&snaps[0], Some(inj), &snaps[1..]);
    match (&ti, &tc) {
        (TrialResume::Completed(a), TrialResume::Completed(b)) => {
            for r in [a, b] {
                assert_eq!((r.status, &r.output), (full.status, &full.output));
            }
        }
        (
            TrialResume::Converged {
                at_value_dynamic: a1,
                dynamic_at_exit: a2,
                output_matches: a3,
                ..
            },
            TrialResume::Converged {
                at_value_dynamic: b1,
                dynamic_at_exit: b2,
                output_matches: b3,
                ..
            },
        ) => {
            assert_eq!((a1, a2, a3), (b1, b2, b3), "engines converge differently");
            assert_eq!(full.status, RunStatus::Ok);
            assert_eq!(*a3, full.output == golden.output);
        }
        _ => panic!("engines disagree on convergence: {ti:?} vs {tc:?}"),
    }
    ti
}

#[test]
fn trial_growing_past_golden_high_water_still_converges() {
    // Bit 10 of `m` makes the first frame 1032 words: the zero fill and
    // the store reach past golden's high-water mark, but `ret` scrubs
    // them, so the next call's checkpoint matches.
    let m = frames_module();
    let inj = Injection {
        target: InjectionTarget::StaticInstance {
            sid: nth_add(&m, 0),
            instance: 0,
        },
        bit: 10,
        burst: 0,
    };
    let t = resumed_trial(&m, inj);
    assert!(
        matches!(
            t,
            TrialResume::Converged {
                output_matches: true,
                ..
            }
        ),
        "{t:?}"
    );
}

#[test]
fn trial_writing_past_golden_high_water_does_not_converge() {
    // Bit 12 of `idx` moves the store 4096 words out of the frame, past
    // golden's high-water mark, where no `ret` scrubs it: memory stays
    // unequal, so the trial runs to its (benign) end.
    let m = frames_module();
    let inj = Injection {
        target: InjectionTarget::StaticInstance {
            sid: nth_add(&m, 1),
            instance: 0,
        },
        bit: 12,
        burst: 0,
    };
    match resumed_trial(&m, inj) {
        TrialResume::Completed(out) => assert_eq!(out.status, RunStatus::Ok),
        t => panic!("expected a completed trial, got {t:?}"),
    }
}
