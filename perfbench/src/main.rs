//! Time-to-ε benchmark for PEPPA-X.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fi-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets the workload up, then makes passes over the benchmarks'
//! reference inputs, at least three and more while one more fits in
//! `--seconds`, each with seeds of its own, and reports per-benchmark
//! medians. Every campaign and search of a pass is checked right after
//! it, outside the measured time (see `check.rs`). Set-up is timed again
//! after every call of a pass, and the fastest round is reported
//! (README.md says why). `--trace 1` instead makes one untraced and one
//! traced pass and reports the per-layer breakdown; end-to-end numbers
//! come only from `--trace 0`.
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is non-zero when any check failed or the arguments are
//! bad. See README.md for the workloads and metrics.

mod check;
mod stats;
mod trace;

use check::{check_campaign, check_search_input, CampaignLog, CampaignRecorder, Tally};
use peppa_apps::{benchmark_by_name, Benchmark};
use peppa_core::{
    derive_sdc_scores, fuzz_small_input, PeppaConfig, PeppaX, SdcScores, SearchReport,
    SmallInputConfig,
};
use peppa_inject::{
    campaign::CampaignError, run_campaign_observed, run_campaign_pruned_gated_observed,
    run_campaign_snapshotted_observed, CampaignConfig, CampaignResult, PruneGate, SnapshotConfig,
    StaticPrune,
};
use peppa_obs::{Event, Observer, Span};
use peppa_vm::{CompiledModule, Engine, EngineKind, ExecLimits};
use stats::{geomean, idle_ratio, median, percentile, trials_for_eps};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Campaign worker threads: the 2-core reference machine, never "all".
const THREADS: usize = 2;
/// Snapshots per `fi-fast` campaign (`peppa inject --snapshots 64`).
const SNAPSHOTS: u32 = 64;
/// GA generations per search (`peppa search` default).
const GENERATIONS: u64 = 50;
/// Passes a run makes at least. Each pass makes the workload's calls
/// with seeds of its own, and a benchmark's time is the median of its
/// calls, so that neither a seed that makes unusually dear work nor a
/// few seconds of a slow machine sets the figure.
const MIN_PASSES: usize = 3;
/// Shortest timed set-up round. Set-ups of a few milliseconds are
/// repeated within a round, and the round reports their mean.
const SETUP_ROUND_S: f64 = 0.1;
const BENCHES: [&str; 7] = [
    "pathfinder",
    "needle",
    "particlefilter",
    "comd",
    "hpccg",
    "xsbench",
    "fft",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FiPaper,
    FiFast,
    FiPruned,
    Search,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FiPaper,
        Workload::FiFast,
        Workload::FiPruned,
        Workload::Search,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FiPaper => "fi-paper",
            Workload::FiFast => "fi-fast",
            Workload::FiPruned => "fi-pruned",
            Workload::Search => "search",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Target 95% half-width; on `search`, that of the final FI of the
    /// input found.
    fn eps(self) -> f64 {
        match self {
            Workload::FiPaper => 0.07,
            Workload::FiFast => 0.03,
            Workload::FiPruned => 0.04,
            Workload::Search => 0.07,
        }
    }

    fn engine(self) -> EngineKind {
        match self {
            Workload::FiPaper | Workload::Search => EngineKind::Interp,
            Workload::FiFast | Workload::FiPruned => EngineKind::Compiled,
        }
    }

    /// The benchmarks a pass covers. `search` leaves HPCCG out: its
    /// `prepare` alone takes about 8 s, as long as the other six
    /// together, and its search costs up to 6× more on some seeds, so
    /// the run budget would allow one pass, whose seed would then set the
    /// figure. HPCCG stays the heaviest benchmark of the FI workloads.
    fn benches(self) -> Vec<&'static str> {
        BENCHES
            .into_iter()
            .filter(|&b| self != Workload::Search || b != "hpccg")
            .collect()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!(
                    "unknown workload `{val}` (fi-paper, fi-fast, fi-pruned, search)"
                ))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// SplitMix64 of `seed` and a stream tag: every campaign, GA and check
/// seed derives from the workload seed.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of pass `k`, from which that pass's seeds derive.
fn pass_seed(seed: u64, k: usize) -> u64 {
    derive(seed, 1000 + k as u64)
}

fn campaign_seed(seed: u64, bench: usize) -> u64 {
    derive(seed, bench as u64)
}

/// Seeds of the prepare + search pipeline on benchmark `bench`.
fn peppa_config(seed: u64, bench: usize) -> PeppaConfig {
    PeppaConfig {
        seed: derive(seed, 100 + bench as u64),
        final_fi_trials: trials_for_eps(Workload::Search.eps()),
        threads: THREADS,
        small_input: SmallInputConfig {
            seed: derive(seed, 200 + bench as u64),
            ..SmallInputConfig::default()
        },
        ..PeppaConfig::default()
    }
}

/// The `fi-pruned` table: reach ∪ deviation cells for the input.
fn prune_table(bench: &Benchmark) -> StaticPrune {
    let fr = peppa_analysis::FaultReach::analyze(&bench.module);
    let cells = peppa_analysis::deviation::combined_skip_cells(
        &bench.module,
        &fr,
        &bench.reference_input,
        ExecLimits::default(),
        0,
    );
    StaticPrune { cells, burst: 0 }
}

/// The workload's campaign call on one benchmark.
fn campaign(
    w: Workload,
    bench: &Benchmark,
    prune: Option<&StaticPrune>,
    seed: u64,
    obs: &dyn Observer,
) -> Result<CampaignResult, CampaignError> {
    let cfg = CampaignConfig {
        trials: trials_for_eps(w.eps()),
        seed,
        hang_factor: check::HANG_FACTOR,
        burst: 0,
        threads: THREADS,
        engine: w.engine(),
    };
    let (m, input, limits) = (&bench.module, &bench.reference_input, ExecLimits::default());
    match w {
        Workload::FiPaper => run_campaign_observed(m, input, limits, cfg, obs),
        Workload::FiFast => {
            let snap = SnapshotConfig {
                snapshots: SNAPSHOTS,
                converge_exit: true,
            };
            run_campaign_snapshotted_observed(m, input, limits, cfg, snap, obs).map(|r| r.campaign)
        }
        Workload::FiPruned => {
            let prune = prune.expect("fi-pruned has a prune table");
            run_campaign_pruned_gated_observed(
                m,
                input,
                limits,
                cfg,
                prune,
                PruneGate::default(),
                obs,
            )
            .map(|r| r.result.campaign)
        }
        Workload::Search => unreachable!("search makes no plain campaign"),
    }
}

/// Fans events out to the check recorder and, when tracing, the tracer.
struct Fan<'a>(&'a CampaignRecorder, Option<&'a Tracer>);

impl Observer for Fan<'_> {
    fn on_event(&self, event: &Event) {
        self.0.on_event(event);
        if let Some(t) = self.1 {
            t.on_event(event);
        }
    }
}

/// What one call in a pass produced.
enum Answer {
    Campaign(CampaignResult),
    Search(SearchReport, SdcScores),
}

struct Call {
    /// Index into `Prepared::benches`.
    bench: usize,
    secs: f64,
    answer: Result<Answer, String>,
    log: CampaignLog,
}

/// The set-up products the passes run on, per benchmark.
struct Prepared {
    /// The workload's benchmarks: names as in `BENCHES`, and compiled.
    names: Vec<&'static str>,
    benches: Vec<Benchmark>,
    prune: Vec<Option<StaticPrune>>,
}

/// Set-up of one workload: MiniC compile, plus the prune tables on
/// `fi-pruned`. Spans label each layer call when a tracer is given.
fn set_up(w: Workload, tracer: Option<&Tracer>) -> Prepared {
    let span = |name: &'static str| tracer.map(|t| Span::enter(t, name));
    let names = w.benches();
    let benches: Vec<Benchmark> = names
        .iter()
        .map(|name| {
            let _s = span("lang.compile");
            benchmark_by_name(name).expect("bundled benchmark")
        })
        .collect();
    let prune = benches
        .iter()
        .map(|bench| {
            (w == Workload::FiPruned).then(|| {
                let _s = span("analysis.prune_table");
                prune_table(bench)
            })
        })
        .collect();
    Prepared {
        names,
        benches,
        prune,
    }
}

/// Times one set-up round: `set_up` repeated until the round lasts
/// [`SETUP_ROUND_S`]. Returns the mean wall time of one set-up and the
/// last set-up's products.
fn setup_round(w: Workload) -> (f64, Prepared) {
    let t0 = Instant::now();
    let mut made = Vec::new();
    let secs = loop {
        made.push(set_up(w, None));
        let s = t0.elapsed().as_secs_f64();
        if s >= SETUP_ROUND_S {
            break s;
        }
    };
    let per_setup = secs / made.len() as f64;
    (per_setup, made.pop().expect("at least one set-up"))
}

/// `PeppaX::prepare`; step by step with one span per layer when traced.
/// The traced steps repeat `prepare`'s own calls; `run_traced` checks
/// that they produce the scores `PeppaX::prepare` did for the same
/// config in the untraced pass.
fn prepare<'b>(
    bench: &'b Benchmark,
    cfg: PeppaConfig,
    tracer: Option<&Tracer>,
) -> Result<PeppaX<'b>, String> {
    let Some(t) = tracer else {
        return PeppaX::prepare(bench, cfg).map_err(|e| e.to_string());
    };
    let small = {
        let _s = Span::enter(t, "core.small_input");
        fuzz_small_input(bench, cfg.limits, cfg.small_input).map_err(|e| e.to_string())?
    };
    // Includes the FI-space grouping (`prune_fi_space`).
    let scores = {
        let _s = Span::enter(t, "core.distribution");
        derive_sdc_scores(
            bench,
            &small.input,
            cfg.limits,
            cfg.distribution_trials,
            cfg.seed ^ 0xd157,
            true,
            cfg.threads,
        )
        .map_err(|e| e.to_string())?
    };
    Ok(PeppaX {
        bench,
        cfg,
        small,
        scores,
    })
}

/// One pass: the workload's answer-producing call on every benchmark,
/// with seeds derived from `seed`. `after_call` runs after each call,
/// outside its timing.
fn pass(
    w: Workload,
    prep: &Prepared,
    seed: u64,
    tracer: Option<&Tracer>,
    mut after_call: impl FnMut(),
) -> Vec<Call> {
    let mut calls = Vec::new();
    for (i, bench) in prep.benches.iter().enumerate() {
        let rec = CampaignRecorder::default();
        let obs = Fan(&rec, tracer);
        let t0 = Instant::now();
        let answer = match w {
            Workload::Search => prepare(bench, peppa_config(seed, i), tracer).map(|px| {
                let _s = tracer.map(|t| Span::enter(t, "core.search"));
                let report = px.search_observed(&[GENERATIONS], &obs);
                Answer::Search(report, px.scores)
            }),
            _ => {
                let _s = tracer.map(|t| Span::enter(t, "inject.campaign"));
                campaign(
                    w,
                    bench,
                    prep.prune[i].as_ref(),
                    campaign_seed(seed, i),
                    &obs,
                )
                .map(Answer::Campaign)
                .map_err(|e| format!("{}: {e}", bench.name))
            }
        };
        calls.push(Call {
            bench: i,
            secs: t0.elapsed().as_secs_f64(),
            answer,
            log: rec.take(),
        });
        after_call();
    }
    calls
}

/// The SDC probability a call reported: its campaign's, or its search's
/// bound.
fn sdc_prob(call: &Call) -> Option<f64> {
    match call.answer.as_ref().ok()? {
        Answer::Campaign(r) => Some(r.sdc_prob()),
        Answer::Search(report, _) => Some(report.sdc_bound().sdc.sdc_prob()),
    }
}

/// Checks every call of a pass.
fn check_pass(w: Workload, prep: &Prepared, calls: &[Call], seed: u64, tally: &mut Tally) {
    for call in calls {
        let bench = &prep.benches[call.bench];
        let check_seed = derive(seed, 300 + call.bench as u64);
        let (input, result) = match &call.answer {
            Err(e) => {
                tally.check(false, || e.clone());
                continue;
            }
            Ok(Answer::Campaign(r)) => {
                tally.check(r.trials == trials_for_eps(w.eps()), || {
                    format!("{}: {} trials, expected n_eps", bench.name, r.trials)
                });
                (&bench.reference_input, r)
            }
            Ok(Answer::Search(report, scores)) => {
                let bound = report.sdc_bound();
                check_search_input(tally, bench, scores, bound);
                (&bound.input, &bound.sdc)
            }
        };
        check_campaign(tally, bench, input, result, &call.log, w.eps(), check_seed);
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(a: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let w = a.workload;
    let (first_setup_s, prep) = setup_round(w);
    let mut setup_s = vec![first_setup_s];

    // Measured time counts the calls only, not the set-up rounds between
    // them.
    let mut measured_s = 0.0;
    // Every call's time, per benchmark, over all passes.
    let mut per_bench: Vec<Vec<f64>> = vec![Vec::new(); prep.benches.len()];
    // The SDC probability of every call of every pass.
    let mut sdc = Vec::new();
    loop {
        let seed = pass_seed(a.seed, per_bench[0].len());
        let calls = pass(w, &prep, seed, None, || setup_s.push(setup_round(w).0));
        for c in &calls {
            per_bench[c.bench].push(c.secs);
            sdc.extend(sdc_prob(c));
        }
        let pass_s: f64 = calls.iter().map(|c| c.secs).sum();
        eprintln!(
            "[perfbench] pass {}: {pass_s:.3} s; per benchmark: {}",
            per_bench[0].len(),
            calls
                .iter()
                .map(|c| format!("{:.4}", c.secs))
                .collect::<Vec<_>>()
                .join(" ")
        );
        // Checked between passes, outside the measured time.
        check_pass(w, &prep, &calls, seed, tally);
        measured_s += pass_s;
        if per_bench[0].len() >= MIN_PASSES && measured_s + pass_s > a.seconds {
            break;
        }
    }
    let medians: Vec<f64> = per_bench.iter().map(|t| median(t)).collect();
    eprintln!(
        "[perfbench] {} set-up rounds, s per set-up: {}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "[perfbench] {} passes; median s per benchmark: {}",
        per_bench[0].len(),
        prep.names
            .iter()
            .zip(&medians)
            .map(|(b, s)| format!("{b} {s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut m = Metrics::new();
    m.insert("time_to_eps_s".into(), (medians.iter().sum(), "s"));
    m.insert("time_to_eps_geomean_s".into(), (geomean(&medians), "s"));
    // The fastest round: the machine's speed flips between two levels,
    // and a median of rounds would flip with it.
    let fastest_setup_s = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    m.insert("setup_s".into(), (fastest_setup_s, "s"));
    m.insert(
        "sdc_prob".into(),
        (sdc.iter().sum::<f64>() / sdc.len().max(1) as f64, "prob"),
    );
    Ok(m)
}

/// Times `f` into `acc`. The calls made again after the traced pass are
/// timed with this, not with spans, so that the spans and the layers'
/// self time cover the traced pass alone.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// `--trace 1`: the per-layer breakdown from one traced pass.
fn run_traced(a: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let w = a.workload;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let trace_path = dir.join(format!("trace-{}-seed{}.json", w.name(), a.seed));
    let tracer = Tracer::new(&trace_path);
    let t = &tracer;

    let prep = set_up(w, Some(t));

    // The same pass untraced, then traced, with the seeds of a plain
    // run's first pass: their ratio is the tracing overhead.
    let seed = pass_seed(a.seed, 0);
    let plain = pass(w, &prep, seed, None, || {});
    let traced = pass(w, &prep, seed, Some(t), || {});
    let plain_s: f64 = plain.iter().map(|c| c.secs).sum();
    let traced_s: f64 = traced.iter().map(|c| c.secs).sum();

    // The traced pass runs `prepare` step by step; it must reproduce what
    // `PeppaX::prepare` gave the untraced pass for the same config.
    for (p, q) in plain.iter().zip(&traced) {
        if let (Ok(Answer::Search(_, want)), Ok(Answer::Search(_, got))) = (&p.answer, &q.answer) {
            tally.check(format!("{want:?}") == format!("{got:?}"), || {
                format!(
                    "{}: traced prepare steps differ from PeppaX::prepare",
                    prep.names[q.bench]
                )
            });
        }
    }

    // Calls that run inside a campaign or `prepare` without a phase span
    // of their own, made again one by one.
    let limits = ExecLimits::default();
    let (mut lower_s, mut golden_s, mut masks_s, mut groups_s) = (0.0, 0.0, 0.0, 0.0);
    let mut golden_dynamic = 0u64;
    for call in &traced {
        let bench = &prep.benches[call.bench];
        let input = match &call.answer {
            Ok(Answer::Search(r, _)) => r.sdc_bound().input.clone(),
            _ => bench.reference_input.clone(),
        };
        let code = (w.engine() == EngineKind::Compiled)
            .then(|| timed(&mut lower_s, || CompiledModule::lower(&bench.module)));
        let golden = timed(&mut golden_s, || {
            Engine::new(&bench.module, limits, code.as_ref()).run_numeric(&input, None)
        });
        golden_dynamic += golden.profile.dynamic;
        if w == Workload::FiFast {
            timed(&mut masks_s, || {
                peppa_analysis::converge_masks(&bench.module)
            });
        }
        if w == Workload::Search {
            timed(&mut groups_s, || {
                peppa_analysis::prune_fi_space(&bench.module)
            });
        }
    }

    let peak_rss = peak_rss_mb();
    check_pass(w, &prep, &traced, seed, tally);
    let (spans, search) = tracer.finish();
    eprintln!("[perfbench] chrome trace: {}", trace_path.display());

    let self_by_name = spans.self_by_name();
    let span_self_s = |name: &str| self_by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let mut top: Vec<(&String, &u64)> = self_by_name.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    eprintln!("[perfbench] self time by span:");
    for (name, ns) in &top {
        eprintln!("  {:<26} {:>10.3} s", name, **ns as f64 / 1e9);
    }

    let mut m = Metrics::new();
    let ms = |s: f64| s * 1e3;
    m.insert(
        "lang.compile_ms".into(),
        (ms(span_self_s("lang.compile")), "ms"),
    );
    m.insert("proc.peak_rss_mb".into(), (peak_rss, "MB"));
    m.insert("vm.lower_ms".into(), (ms(lower_s), "ms"));
    m.insert("vm.golden_ms".into(), (ms(golden_s), "ms"));
    m.insert(
        "vm.golden_dynamic_instrs".into(),
        (golden_dynamic as f64, "count"),
    );
    m.insert(
        "vm.capture_ms".into(),
        (ms(span_self_s("vm.capture")), "ms"),
    );
    m.insert("analysis.converge_masks_ms".into(), (ms(masks_s), "ms"));
    m.insert(
        "analysis.prune_table_ms".into(),
        (ms(span_self_s("analysis.prune_table")), "ms"),
    );
    m.insert("analysis.fi_groups_ms".into(), (ms(groups_s), "ms"));
    m.insert(
        "core.small_input_ms".into(),
        (ms(span_self_s("core.small_input")), "ms"),
    );
    m.insert(
        "core.distribution_s".into(),
        (span_self_s("core.distribution"), "s"),
    );

    // Trial-level numbers from the traced pass's event streams.
    let mut lat_ms = Vec::new();
    let (mut trials, mut skipped, mut busy_ns, mut equiv_instrs) = (0u64, 0u64, 0u64, 0f64);
    let (mut converged, mut prefix_saved, mut prefix_total, mut snap_bytes) =
        (0u64, 0u64, 0f64, 0u64);
    let mut campaign_wall_ns = 0u64;
    let mut all_lat_ns = Vec::new();
    let mut campaign_s = vec![(0.0, 0u32); prep.benches.len()];
    for call in &traced {
        let log = &call.log;
        let skip: std::collections::HashSet<u32> = log.skipped.iter().copied().collect();
        let executed: Vec<u64> = log
            .trials
            .iter()
            .filter(|r| !skip.contains(&r.trial))
            .map(|r| r.latency_ns)
            .collect();
        trials += log.trials.len() as u64;
        skipped += skip.len() as u64;
        busy_ns += executed.iter().sum::<u64>();
        equiv_instrs += executed.len() as f64 * log.golden_dynamic as f64;
        lat_ms.extend(executed.iter().map(|&n| n as f64 / 1e6));
        all_lat_ns.extend(executed);
        if let Some((bytes, conv, saved)) = log.snapshots {
            converged += conv;
            prefix_saved += saved;
            snap_bytes = snap_bytes.max(bytes);
        }
        prefix_total += log.trials.len() as f64 * log.golden_dynamic as f64;
        let wall_s = match w {
            Workload::Search => log.wall_ns as f64 / 1e9,
            _ => call.secs,
        };
        campaign_wall_ns += (wall_s * 1e9) as u64;
        campaign_s[call.bench].0 += wall_s;
        campaign_s[call.bench].1 += 1;
    }
    for (name, (s, n)) in prep.names.iter().zip(campaign_s) {
        m.insert(format!("inject.campaign_s.{name}"), (s / n as f64, "s"));
    }
    // 0 for a benchmark the workload leaves out (HPCCG on `search`).
    for name in BENCHES {
        m.entry(format!("inject.campaign_s.{name}"))
            .or_insert((0.0, "s"));
    }
    lat_ms.sort_by(f64::total_cmp);
    // 0 where nothing was measured, as for layers that do no work.
    let pct = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    m.insert("vm.trial_ms.p50".into(), (pct(&lat_ms, 0.5), "ms"));
    m.insert("vm.trial_ms.p99".into(), (pct(&lat_ms, 0.99), "ms"));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert(
        "vm.minstr_per_s".into(),
        (ratio(equiv_instrs / 1e6, busy_ns as f64 / 1e9), "Minstr/s"),
    );
    m.insert(
        "vm.converged_ratio".into(),
        (ratio(converged as f64, trials as f64), "ratio"),
    );
    m.insert(
        "vm.prefix_saved_ratio".into(),
        (ratio(prefix_saved as f64, prefix_total), "ratio"),
    );
    m.insert(
        "vm.snapshot_mb".into(),
        (snap_bytes as f64 / (1 << 20) as f64, "MB"),
    );
    m.insert(
        "analysis.skip_ratio".into(),
        (ratio(skipped as f64, trials as f64), "ratio"),
    );
    m.insert(
        "inject.idle_ratio".into(),
        (idle_ratio(&all_lat_ns, THREADS, campaign_wall_ns), "ratio"),
    );

    let mut fitness_us: Vec<f64> = search.fitness_ns.iter().map(|n| n / 1e3).collect();
    fitness_us.sort_by(f64::total_cmp);
    let mut gen_ms: Vec<f64> = search
        .generation_ns
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    gen_ms.sort_by(f64::total_cmp);
    m.insert("core.fitness_us.p50".into(), (pct(&fitness_us, 0.5), "us"));
    m.insert(
        "core.memo_hit_ratio".into(),
        (
            ratio(search.cache_hits as f64, search.evaluations as f64),
            "ratio",
        ),
    );
    m.insert(
        "core.final_fi_s".into(),
        (search.final_fi_ns as f64 / 1e9, "s"),
    );
    m.insert("ga.generation_ms.p50".into(), (pct(&gen_ms, 0.5), "ms"));
    m.insert(
        "ga.evaluations".into(),
        (search.evaluations as f64, "count"),
    );
    m.insert(
        "obs.trace_overhead_ratio".into(),
        (traced_s / plain_s, "ratio"),
    );
    for (layer, ns) in spans.self_by_layer() {
        m.insert(format!("self_s.{layer}"), (ns as f64 / 1e9, "s"));
    }
    for layer in ["lang", "vm", "analysis", "inject", "core", "ga"] {
        m.entry(format!("self_s.{layer}")).or_insert((0.0, "s"));
    }
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fi-paper|fi-fast|fi-pruned|search> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[perfbench] workload {} (eps {}, n {}), seed {}, {} s, trace {}",
        args.workload.name(),
        args.workload.eps(),
        trials_for_eps(args.workload.eps()),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut tally = Tally::default();
    let result = if args.trace {
        run_traced(&args, &mut tally)
    } else {
        run_untraced(&args, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &tally.notes {
        eprintln!("[perfbench] CHECK FAILED: {note}");
    }
    for (name, (value, unit)) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
