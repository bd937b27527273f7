//! A PEPPA-X search must not depend on how many workers run it.
//!
//! Each GA generation's fitness runs go out as one parallel batch, and
//! the checkpoint FI campaigns fan out over the same workers. Whatever
//! the thread count, the report (checkpoint inputs, fitness bits, SDC
//! counts, evaluation counts) and the per-generation telemetry (memo
//! hits, evaluations) must be identical to the single-threaded search.

use peppa_apps::{comd, pathfinder, Benchmark};
use peppa_core::{PeppaConfig, PeppaX, SearchReport};
use peppa_obs::{Event, Observer};
use std::sync::Mutex;

/// Keeps every `GenerationFinished` event.
#[derive(Default)]
struct Generations(Mutex<Vec<Event>>);

impl Observer for Generations {
    fn on_event(&self, event: &Event) {
        if matches!(event, Event::GenerationFinished { .. }) {
            self.0.lock().expect("observer lock").push(event.clone());
        }
    }
}

/// One checkpoint as (generation, input bits, fitness bits, SDC/crash/
/// hang/benign counts, search cost).
type Checkpoint = (u64, Vec<u64>, u64, [u32; 4], u64);

/// Everything a search reports, with floats as bit patterns.
fn fingerprint(r: &SearchReport) -> Vec<Checkpoint> {
    r.checkpoints
        .iter()
        .map(|c| {
            (
                c.generation,
                c.input.iter().map(|x| x.to_bits()).collect(),
                c.fitness.to_bits(),
                [c.sdc.sdc, c.sdc.crash, c.sdc.hang, c.sdc.benign],
                c.search_cost_dynamic,
            )
        })
        .collect()
}

fn assert_thread_invariant(bench: &Benchmark, seed: u64) {
    let cfg = PeppaConfig {
        seed,
        population: 12,
        distribution_trials: 6,
        final_fi_trials: 40,
        threads: 1,
        ..Default::default()
    };
    let prepared = PeppaX::prepare(bench, cfg).expect("prepare");
    let run = |threads: usize| {
        let px = PeppaX {
            bench,
            cfg: PeppaConfig { threads, ..cfg },
            small: prepared.small.clone(),
            scores: prepared.scores.clone(),
        };
        let obs = Generations::default();
        let report = px.search_observed(&[3, 8], &obs);
        (report, obs.0.into_inner().expect("observer lock"))
    };

    let (base, base_gens) = run(1);
    assert_eq!(base_gens.len(), 8);
    for threads in [2, 4] {
        let (r, gens) = run(threads);
        let name = bench.name;
        assert_eq!(
            fingerprint(&r),
            fingerprint(&base),
            "{name} threads={threads}"
        );
        assert_eq!(
            r.ga_evaluations, base.ga_evaluations,
            "{name} threads={threads}"
        );
        assert_eq!(r.analysis_cost_dynamic, base.analysis_cost_dynamic);
        assert_eq!(gens, base_gens, "{name} threads={threads}");
    }
}

#[test]
fn comd_search_is_thread_count_invariant() {
    assert_thread_invariant(&comd::benchmark(), 21);
}

#[test]
fn pathfinder_search_is_thread_count_invariant() {
    assert_thread_invariant(&pathfinder::benchmark(), 5);
}
