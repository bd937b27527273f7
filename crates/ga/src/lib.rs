//! The genetic search engine of PEPPA-X (§2.4, §4.2.4).
//!
//! A candidate solution ("genome") is a program input: a vector of
//! numeric arguments. Following the paper:
//!
//! * **mutation rate 0.4** — mutation perturbs *one* argument by a value
//!   drawn uniformly from ±10% of its current magnitude;
//! * **crossover rate 0.05** — crossover picks a partner and swaps *one*
//!   argument between the two inputs;
//! * **roulette selection** — parents are drawn with probability
//!   proportional to fitness;
//! * survivors are selected from parents ∪ offspring by fitness, so poor
//!   members are "gradually eliminated".
//!
//! The engine is generic over the fitness function; PEPPA-X plugs in the
//! dynamic SDC-vulnerability potential (Eq. 2), the baseline would plug
//! in a statistical-FI measurement.

use peppa_stats::Pcg64;
use serde::{Deserialize, Serialize};

/// Valid range of one input argument.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArgBounds {
    pub lo: f64,
    pub hi: f64,
    /// Integer-valued argument: genomes are kept on whole numbers.
    pub integer: bool,
}

impl ArgBounds {
    pub fn float(lo: f64, hi: f64) -> ArgBounds {
        ArgBounds {
            lo,
            hi,
            integer: false,
        }
    }

    pub fn int(lo: i64, hi: i64) -> ArgBounds {
        ArgBounds {
            lo: lo as f64,
            hi: hi as f64,
            integer: true,
        }
    }

    /// Clamps (and rounds, for integer arguments) a raw value into range.
    pub fn clamp(&self, x: f64) -> f64 {
        let c = x.clamp(self.lo, self.hi);
        if self.integer {
            c.round().clamp(self.lo, self.hi)
        } else {
            c
        }
    }

    /// Uniform sample from the range.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        self.clamp(rng.gen_range_f64(self.lo, self.hi))
    }
}

/// Engine configuration. Defaults follow the paper's §4.2.4 rates.
#[derive(Debug, Clone)]
pub struct GaConfig {
    pub population: usize,
    pub mutation_rate: f64,
    pub crossover_rate: f64,
    pub seed: u64,
    pub bounds: Vec<ArgBounds>,
}

impl GaConfig {
    /// Paper defaults: mutation 0.4, crossover 0.05.
    pub fn paper_defaults(bounds: Vec<ArgBounds>, seed: u64) -> GaConfig {
        GaConfig {
            population: 20,
            mutation_rate: 0.4,
            crossover_rate: 0.05,
            seed,
            bounds,
        }
    }
}

/// Fitness oracle: higher is fitter. Implementations may fail an
/// evaluation (e.g. the input crashes the golden run); failed genomes get
/// fitness `f64::NEG_INFINITY` and die out.
pub trait Fitness {
    fn eval(&mut self, genome: &[f64]) -> Option<f64>;

    /// Evaluates a generation's genomes at once, `result[i]` for
    /// `genomes[i]`. The engine draws every genome of a generation before
    /// calling this, so an oracle may run the batch in parallel; it must
    /// answer exactly as `eval` called on each genome in order would.
    fn eval_batch(&mut self, genomes: &[Vec<f64>]) -> Vec<Option<f64>> {
        genomes.iter().map(|g| self.eval(g)).collect()
    }
}

impl<F: FnMut(&[f64]) -> Option<f64>> Fitness for F {
    fn eval(&mut self, genome: &[f64]) -> Option<f64> {
        self(genome)
    }
}

/// One member of the population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    pub genome: Vec<f64>,
    pub fitness: f64,
}

/// A generational genetic-algorithm engine.
#[derive(Debug, Clone)]
pub struct GeneticEngine {
    cfg: GaConfig,
    rng: Pcg64,
    population: Vec<Individual>,
    best: Option<Individual>,
    generation: u64,
    evaluations: u64,
}

impl GeneticEngine {
    /// Creates the engine and evaluates a random initial population.
    pub fn new(cfg: GaConfig, fit: &mut dyn Fitness) -> GeneticEngine {
        assert!(cfg.population >= 2, "population must be at least 2");
        assert!(
            !cfg.bounds.is_empty(),
            "genome must have at least one argument"
        );
        let mut rng = Pcg64::new(cfg.seed);
        let genomes: Vec<Vec<f64>> = (0..cfg.population)
            .map(|_| cfg.bounds.iter().map(|b| b.sample(&mut rng)).collect())
            .collect();
        let mut engine = GeneticEngine {
            population: Vec::with_capacity(cfg.population),
            best: None,
            generation: 0,
            evaluations: 0,
            rng,
            cfg,
        };
        engine.push_evaluated(genomes, fit);
        engine
    }

    /// Evaluates `genomes` as one batch and adds them to the population
    /// in order.
    fn push_evaluated(&mut self, genomes: Vec<Vec<f64>>, fit: &mut dyn Fitness) {
        let fitness = fit.eval_batch(&genomes);
        assert_eq!(
            fitness.len(),
            genomes.len(),
            "eval_batch must answer every genome"
        );
        self.evaluations += genomes.len() as u64;
        for (genome, f) in genomes.into_iter().zip(fitness) {
            let ind = Individual {
                genome,
                fitness: f.unwrap_or(f64::NEG_INFINITY),
            };
            if self
                .best
                .as_ref()
                .map(|b| ind.fitness > b.fitness)
                .unwrap_or(ind.fitness > f64::NEG_INFINITY)
            {
                self.best = Some(ind.clone());
            }
            self.population.push(ind);
        }
    }

    /// Roulette selection: probability proportional to fitness, shifted
    /// so the weakest member still has a small chance.
    fn roulette(&mut self) -> usize {
        let finite: Vec<(usize, f64)> = self
            .population
            .iter()
            .enumerate()
            .filter(|(_, i)| i.fitness.is_finite())
            .map(|(k, i)| (k, i.fitness))
            .collect();
        if finite.is_empty() {
            return self.rng.gen_index(self.population.len());
        }
        let min = finite.iter().map(|&(_, f)| f).fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = finite.iter().map(|&(_, f)| f - min + 1e-9).collect();
        let total: f64 = weights.iter().sum();
        let mut spin = self.rng.gen_f64() * total;
        for (k, w) in finite.iter().map(|&(k, _)| k).zip(&weights) {
            spin -= w;
            if spin <= 0.0 {
                return k;
            }
        }
        finite.last().map(|&(k, _)| k).unwrap()
    }

    /// Mutation (§4.2.4): one argument gets a delta uniform in ±10% of
    /// its current value; zero-valued arguments jitter within ±1% of
    /// their range so they can escape zero.
    fn mutate(&mut self, genome: &mut [f64]) {
        let i = self.rng.gen_index(genome.len());
        let b = self.cfg.bounds[i];
        let magnitude = genome[i].abs();
        let scale = if magnitude > 0.0 {
            0.1 * magnitude
        } else {
            0.01 * (b.hi - b.lo)
        };
        let delta = self.rng.gen_range_f64(-scale, scale);
        genome[i] = b.clamp(genome[i] + delta);
        if b.integer && genome[i] == (genome[i] + delta).clamp(b.lo, b.hi).round() {
            // Integer args may round back to the same value; force at
            // least a unit step half the time so mutation is not a no-op.
            if self.rng.gen_bool(0.5) {
                let step = if delta >= 0.0 { 1.0 } else { -1.0 };
                genome[i] = b.clamp(genome[i] + step);
            }
        }
    }

    /// Crossover (§4.2.4): swaps one argument between two genomes.
    fn crossover(a: &mut [f64], b: &mut [f64], idx: usize) {
        std::mem::swap(&mut a[idx], &mut b[idx]);
    }

    /// Advances one generation, returning the generation's best fitness.
    pub fn step(&mut self, fit: &mut dyn Fitness) -> f64 {
        let lambda = self.cfg.population;
        let mut offspring: Vec<Vec<f64>> = Vec::with_capacity(lambda);
        while offspring.len() < lambda {
            let p = self.roulette();
            let mut child = self.population[p].genome.clone();
            if self.rng.gen_bool(self.cfg.crossover_rate) {
                let q = self.roulette();
                let mut partner = self.population[q].genome.clone();
                let idx = self.rng.gen_index(child.len());
                Self::crossover(&mut child, &mut partner, idx);
                if offspring.len() + 1 < lambda {
                    offspring.push(partner);
                }
            }
            if self.rng.gen_bool(self.cfg.mutation_rate) {
                self.mutate(&mut child);
            }
            offspring.push(child);
        }

        self.push_evaluated(offspring, fit);

        // (μ+λ) truncation: keep the fittest `population` members.
        self.population.sort_by(|a, b| {
            b.fitness
                .partial_cmp(&a.fitness)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.population.truncate(self.cfg.population);
        self.generation += 1;
        self.population
            .first()
            .map(|i| i.fitness)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Runs `generations` steps.
    pub fn run(&mut self, fit: &mut dyn Fitness, generations: u64) -> Individual {
        for _ in 0..generations {
            self.step(fit);
        }
        self.best().clone()
    }

    /// Best individual seen so far (across all generations).
    pub fn best(&self) -> &Individual {
        self.best
            .as_ref()
            .expect("population initialized with at least one finite member")
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total fitness evaluations performed, the budget unit compared
    /// against the baseline's FI campaigns.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Current population, fittest first after a `step`.
    pub fn population(&self) -> &[Individual] {
        &self.population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_bounds(n: usize) -> Vec<ArgBounds> {
        (0..n).map(|_| ArgBounds::float(-10.0, 10.0)).collect()
    }

    /// Maximize -(x-3)^2 - (y+1)^2: optimum at (3, -1).
    fn sphere(genome: &[f64]) -> Option<f64> {
        Some(-((genome[0] - 3.0).powi(2) + (genome[1] + 1.0).powi(2)))
    }

    #[test]
    fn converges_to_known_optimum() {
        let cfg = GaConfig {
            population: 30,
            mutation_rate: 0.6,
            crossover_rate: 0.1,
            seed: 42,
            bounds: sphere_bounds(2),
        };
        let mut fit = sphere;
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        let best = ga.run(&mut fit, 150);
        assert!((best.genome[0] - 3.0).abs() < 0.5, "x = {}", best.genome[0]);
        assert!((best.genome[1] + 1.0).abs() < 0.5, "y = {}", best.genome[1]);
    }

    #[test]
    fn best_fitness_monotone_nondecreasing() {
        let cfg = GaConfig::paper_defaults(sphere_bounds(2), 7);
        let mut fit = sphere;
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        let mut last = ga.best().fitness;
        for _ in 0..50 {
            ga.step(&mut fit);
            let now = ga.best().fitness;
            assert!(now >= last, "best regressed: {now} < {last}");
            last = now;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cfg = GaConfig::paper_defaults(sphere_bounds(2), 99);
            let mut fit = sphere;
            let mut ga = GeneticEngine::new(cfg, &mut fit);
            ga.run(&mut fit, 40).genome
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bounds_always_respected() {
        let bounds = vec![ArgBounds::float(0.0, 1.0), ArgBounds::int(5, 10)];
        let cfg = GaConfig {
            population: 10,
            mutation_rate: 1.0,
            crossover_rate: 0.5,
            seed: 3,
            bounds,
        };
        let mut fit = |g: &[f64]| Some(g[0] + g[1]);
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        for _ in 0..30 {
            ga.step(&mut fit);
            for ind in ga.population() {
                assert!((0.0..=1.0).contains(&ind.genome[0]), "{:?}", ind.genome);
                assert!((5.0..=10.0).contains(&ind.genome[1]));
                assert_eq!(ind.genome[1].fract(), 0.0, "integer arg drifted off-grid");
            }
        }
    }

    #[test]
    fn failed_evaluations_die_out() {
        // Fitness fails for genome[0] < 0; survivors should all be >= 0.
        let bounds = vec![ArgBounds::float(-1.0, 1.0)];
        let cfg = GaConfig {
            population: 12,
            mutation_rate: 0.5,
            crossover_rate: 0.1,
            seed: 8,
            bounds,
        };
        let mut fit = |g: &[f64]| if g[0] < 0.0 { None } else { Some(g[0]) };
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        for _ in 0..20 {
            ga.step(&mut fit);
        }
        let finite = ga
            .population()
            .iter()
            .filter(|i| i.fitness.is_finite())
            .count();
        assert!(finite > 0);
        assert!(ga.best().fitness >= 0.0);
    }

    #[test]
    fn evaluation_budget_accounting() {
        let cfg = GaConfig {
            population: 10,
            ..GaConfig::paper_defaults(sphere_bounds(2), 1)
        };
        let mut fit = sphere;
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        assert_eq!(ga.evaluations(), 10);
        ga.step(&mut fit);
        // One generation adds `population` offspring (crossover may round
        // slightly over, never under).
        assert!(ga.evaluations() >= 20);
    }

    #[test]
    fn each_generation_is_one_batch_matching_serial_eval() {
        /// Records batch sizes; answers like `sphere`.
        struct Batching(Vec<usize>);
        impl Fitness for Batching {
            fn eval(&mut self, genome: &[f64]) -> Option<f64> {
                sphere(genome)
            }
            fn eval_batch(&mut self, genomes: &[Vec<f64>]) -> Vec<Option<f64>> {
                self.0.push(genomes.len());
                genomes.iter().map(|g| sphere(g)).collect()
            }
        }
        let cfg = GaConfig::paper_defaults(sphere_bounds(2), 5);
        let mut batching = Batching(Vec::new());
        let mut a = GeneticEngine::new(cfg.clone(), &mut batching);
        let mut fit = sphere;
        let mut b = GeneticEngine::new(cfg.clone(), &mut fit);
        for _ in 0..10 {
            a.step(&mut batching);
            b.step(&mut fit);
        }
        assert_eq!(batching.0, vec![cfg.population; 11]);
        assert_eq!(a.population(), b.population());
        assert_eq!(a.best(), b.best());
        assert_eq!(a.evaluations(), b.evaluations());
    }

    #[test]
    fn crossover_swaps_single_argument() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![9.0, 8.0, 7.0];
        GeneticEngine::crossover(&mut a, &mut b, 1);
        assert_eq!(a, vec![1.0, 8.0, 3.0]);
        assert_eq!(b, vec![9.0, 2.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn rejects_tiny_population() {
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::paper_defaults(sphere_bounds(1), 1)
        };
        let mut fit = |_: &[f64]| Some(0.0);
        GeneticEngine::new(cfg, &mut fit);
    }
}
