//! The traced run's span recorder.
//!
//! [`Tracer`] is an [`Observer`] that keeps every span in memory, feeds
//! a [`ChromeTrace`] (written when the tracer is dropped), and turns the
//! milestone events a campaign or search already emits into phase spans
//! inside the benchmark's own `obs::Span`s around each layer call:
//!
//! | events                                   | span                  |
//! |------------------------------------------|-----------------------|
//! | `CampaignStarted` → `GoldenRun`          | `vm.lower_golden`     |
//! | `GoldenRun` → first `SnapshotCaptured`   | `vm.capture`          |
//! | then → `CampaignFinished`                | `vm.trials_<engine>`  |
//! | `SearchStarted` → `SearchFinished`       | `ga.generations`      |
//! | `SearchFinished` → final `CampaignFinished` | `core.final_fi`    |
//!
//! A span's self time is its duration minus the time of its direct
//! children; all spans live on the calling thread and nest strictly.

use peppa_obs::{monotonic_ns, ChromeTrace, Event, Observer};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Stack-based span bookkeeping: self time = duration − direct children.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Open spans: name, start, time covered by closed children.
    open: Vec<(String, u64, u64)>,
    pub closed: Vec<SpanRecord>,
}

impl SpanLog {
    pub fn begin(&mut self, name: &str, ts_ns: u64) {
        self.open.push((name.to_string(), ts_ns, 0));
    }

    pub fn end(&mut self, name: &str, ts_ns: u64) {
        let (open_name, start, child_ns) = self.open.pop().expect("span end without begin");
        assert_eq!(open_name, name, "spans must nest");
        let dur_ns = ts_ns.saturating_sub(start);
        if let Some(parent) = self.open.last_mut() {
            parent.2 += dur_ns;
        }
        self.closed.push(SpanRecord {
            name: open_name,
            dur_ns,
            self_ns: dur_ns.saturating_sub(child_ns),
        });
    }

    /// Total self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for s in &self.closed {
            *m.entry(s.name.clone()).or_insert(0) += s.self_ns;
        }
        m
    }

    /// Total self time per layer (the span name up to its first `.`).
    pub fn self_by_layer(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for (name, ns) in self.self_by_name() {
            let layer = name.split('.').next().unwrap_or(&name).to_string();
            *m.entry(layer).or_insert(0) += ns;
        }
        m
    }
}

/// Per-generation GA timings read from `GenerationFinished` events.
#[derive(Debug, Default)]
pub struct SearchStats {
    pub generation_ns: Vec<u64>,
    /// Per generation: wall time divided by fitness runs that missed the
    /// memo (generations served entirely from the memo are left out).
    pub fitness_ns: Vec<f64>,
    pub evaluations: u64,
    pub cache_hits: u64,
    pub final_fi_ns: u64,
}

#[derive(Default)]
struct State {
    spans: SpanLog,
    /// Derived phase spans currently open, innermost last.
    derived: Vec<String>,
    engine: String,
    /// When the current campaign's golden run (or GA generation) ended.
    last_ts: u64,
    /// Start of the search's final FI campaign, while it runs.
    final_fi_start: Option<u64>,
    last_evals: u64,
    last_hits: u64,
    search: SearchStats,
}

/// Span recorder plus Chrome-trace sink for the traced run.
pub struct Tracer {
    chrome: ChromeTrace,
    state: Mutex<State>,
}

impl Tracer {
    /// The Chrome trace is written to `path` when the tracer is dropped.
    pub fn new(path: &Path) -> Tracer {
        Tracer {
            chrome: ChromeTrace::create(path),
            state: Mutex::new(State::default()),
        }
    }

    fn open_at(&self, st: &mut State, name: String, ts_ns: u64) {
        st.spans.begin(&name, ts_ns);
        self.chrome.on_event(&Event::SpanBegin {
            name: name.clone(),
            ts_ns,
        });
        st.derived.push(name);
    }

    fn open(&self, st: &mut State, name: &str) {
        self.open_at(st, name.to_string(), monotonic_ns());
    }

    fn close(&self, st: &mut State) {
        if let Some(name) = st.derived.pop() {
            let ts_ns = monotonic_ns();
            st.spans.end(&name, ts_ns);
            self.chrome.on_event(&Event::SpanEnd { name, ts_ns });
        }
    }

    fn in_trials(st: &State) -> bool {
        st.derived
            .last()
            .is_some_and(|d| d.starts_with("vm.trials"))
    }

    /// Consumes the recorder, returning its spans and search timings
    /// (and writing the Chrome trace).
    pub fn finish(self) -> (SpanLog, SearchStats) {
        let st = self.state.into_inner().expect("tracer lock poisoned");
        assert!(st.spans.open.is_empty(), "unclosed spans at exit");
        (st.spans, st.search)
    }
}

impl Observer for Tracer {
    fn on_event(&self, event: &Event) {
        let mut st = self.state.lock().expect("tracer lock poisoned");
        match event {
            Event::SpanBegin { name, ts_ns } => st.spans.begin(name, *ts_ns),
            Event::SpanEnd { name, ts_ns } => st.spans.end(name, *ts_ns),
            Event::CampaignStarted { engine, .. } => {
                st.engine = engine.clone();
                self.open(&mut st, "vm.lower_golden");
            }
            Event::GoldenRun { .. } => {
                self.close(&mut st);
                // What follows names the next phase: a snapshot (capture,
                // then resumed trials) or a trial (plain trials).
                st.last_ts = monotonic_ns();
            }
            Event::SnapshotCaptured { index: 0, .. } => {
                // Snapshots are announced once all are captured.
                let start = st.last_ts;
                self.open_at(&mut st, "vm.capture".into(), start);
                self.close(&mut st);
                self.open(&mut st, "vm.trials_resume");
            }
            Event::TrialFinished { .. } | Event::StaticSkip { .. } if !Self::in_trials(&st) => {
                let name = format!("vm.trials_{}", st.engine);
                let start = st.last_ts;
                self.open_at(&mut st, name, start);
            }
            Event::CampaignFinished { .. } => {
                if Self::in_trials(&st) {
                    self.close(&mut st);
                }
                if let Some(start) = st.final_fi_start.take() {
                    st.search.final_fi_ns += monotonic_ns() - start;
                    self.close(&mut st);
                }
            }
            Event::SearchStarted { .. } => {
                st.last_ts = monotonic_ns();
                st.last_evals = 0;
                st.last_hits = 0;
                self.open(&mut st, "ga.generations");
            }
            Event::GenerationFinished {
                cache_hits,
                evaluations,
                ..
            } => {
                let now = monotonic_ns();
                let gen_ns = now - st.last_ts;
                let runs = (evaluations - st.last_evals).saturating_sub(cache_hits - st.last_hits);
                st.search.generation_ns.push(gen_ns);
                if runs > 0 {
                    st.search.fitness_ns.push(gen_ns as f64 / runs as f64);
                }
                st.last_ts = now;
                st.last_evals = *evaluations;
                st.last_hits = *cache_hits;
            }
            Event::SearchFinished { .. } => {
                st.search.evaluations += st.last_evals;
                st.search.cache_hits += st.last_hits;
                self.close(&mut st);
                self.open(&mut st, "core.final_fi");
                st.final_fi_start = Some(monotonic_ns());
            }
            _ => {}
        }
        // Explicit spans and trials go to the Chrome trace as they are.
        if matches!(
            event,
            Event::SpanBegin { .. } | Event::SpanEnd { .. } | Event::TrialFinished { .. }
        ) {
            self.chrome.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::default();
        log.begin("inject.campaign", 0);
        log.begin("vm.lower_golden", 10);
        log.end("vm.lower_golden", 30);
        log.begin("vm.trials_interp", 30);
        log.begin("vm.inner", 40);
        log.end("vm.inner", 45);
        log.end("vm.trials_interp", 90);
        log.end("inject.campaign", 100);
        let by_name = log.self_by_name();
        assert_eq!(by_name["inject.campaign"], 100 - 20 - 60);
        assert_eq!(by_name["vm.lower_golden"], 20);
        // The grandchild is subtracted from its parent only.
        assert_eq!(by_name["vm.trials_interp"], 60 - 5);
        assert_eq!(by_name["vm.inner"], 5);
        let by_layer = log.self_by_layer();
        assert_eq!(by_layer["inject"], 20);
        assert_eq!(by_layer["vm"], 80);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn campaign_events_become_nested_phase_spans() {
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.json", std::process::id()));
        let tracer = Tracer::new(&path);
        {
            let _call = peppa_obs::Span::enter(&tracer, "inject.campaign");
            tracer.on_event(&Event::CampaignStarted {
                benchmark: "b".into(),
                trials: 1,
                seed: 0,
                threads: 1,
                engine: "interp".into(),
            });
            tracer.on_event(&Event::GoldenRun {
                benchmark: "b".into(),
                dynamic: 1,
                value_dynamic: 1,
                coverage: 1.0,
            });
            tracer.on_event(&Event::TrialFinished {
                trial: 0,
                outcome: peppa_obs::Outcome::Benign,
                site: 0,
                bit: 0,
                latency_ns: 1,
            });
            tracer.on_event(&Event::CampaignFinished {
                trials: 1,
                sdc: 0,
                crash: 0,
                hang: 0,
                benign: 1,
                wall_ns: 1,
            });
        }
        let (spans, _) = tracer.finish();
        std::fs::remove_file(&path).ok();
        let names: Vec<&str> = spans.closed.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["vm.lower_golden", "vm.trials_interp", "inject.campaign"]
        );
        let total: u64 = spans.self_by_layer().values().sum();
        assert_eq!(total, spans.closed.last().unwrap().dur_ns);
    }
}
