//! The `cpu_bound` and `rtt_bound` workloads: cold learns of the raw TCP
//! SUL and the google-profile QUIC SUL, one after another (a closed loop
//! with one client), over a fixed learn list in a seed-derived order.

use crate::layers::{CountingFactory, SulCounters, SulTotals, TracedOracle};
use crate::stats::{
    geometric_mean, median, percentile, relative_spread, seeded_order, tail_percentile,
};
use crate::trace::{layer_totals, write_csv, Recorder, SharedRecorder};
use crate::{cpu_seconds, peak_rss_mb, Args, Mode, RunResult};
use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::mealy::MealyMachine;
use prognosis_core::latency::LatencySulFactory;
use prognosis_core::parallel::{EngineShutdown, ParallelSulOracle};
use prognosis_core::pipeline::{
    learn_model, learn_model_parallel, LearnConfig, LearnError, SiftStrategy, SpeculationStats,
};
use prognosis_core::quic_adapter::{quic_data_alphabet, QuicSul, QuicSulFactory};
use prognosis_core::session::{EngineStats, SessionSulFactory, SimDuration, TimedSul};
use prognosis_core::sul::SulFactory;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use prognosis_learner::eq_oracles::RandomWordOracle;
use prognosis_learner::oracle::CacheOracle;
use prognosis_learner::stats::LearningStats;
use prognosis_learner::trie::PrefixTrie;
use prognosis_learner::{DTreeLearner, Learner};
use prognosis_quic_sim::profile::ImplementationProfile;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Equivalence tests per learn (the E24 configuration, scaled up so the
/// dataflow learner's staging cost shows).
const RANDOM_TESTS: usize = 16_000;
/// The QUIC simulator's own seed (as in E24).
const QUIC_SUL_SEED: u64 = 3;
/// `LearnConfig::seed`s every run learns, for each protocol.
const CPU_SEEDS: [u64; 4] = [1, 2, 3, 4];
const RTT_SEEDS: [u64; 2] = [1, 2];
/// Modelled round trip per step and per reset on `rtt_bound`.
const STEP_RTT_US: u64 = 50;
const RESET_RTT_US: u64 = 100;

/// Which of the two learn workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// No modelled RTT: 1 worker × 1 session, default sift.
    Cpu,
    /// 50 µs/100 µs virtual RTT: 1 worker × 64 sessions, dataflow sift.
    Rtt,
}

/// The SUL a learn targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Protocol {
    /// The in-process TCP stack over `tcp_alphabet()`.
    Tcp,
    /// The google-profile QUIC simulator over `quic_data_alphabet()`.
    Quic,
}

impl Protocol {
    fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Quic => "quic",
        }
    }
}

/// One entry of the learn list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Which SUL.
    pub protocol: Protocol,
    /// `LearnConfig::seed`.
    pub seed: u64,
}

/// The learn configuration of one item.
pub fn learn_config(shape: Shape, seed: u64) -> LearnConfig {
    let base = LearnConfig {
        seed,
        random_tests: RANDOM_TESTS,
        min_word_len: 2,
        max_word_len: 12,
        eq_batch_size: 512,
        ..LearnConfig::default()
    }
    .with_workers(1);
    match shape {
        Shape::Cpu => base,
        Shape::Rtt => base.with_max_inflight(64).with_sift(SiftStrategy::Dataflow),
    }
}

/// Everything a run prepares before its first timed learn.
pub struct Setup {
    items: Vec<Item>,
    configs: Vec<LearnConfig>,
    tcp: Alphabet,
    quic: Alphabet,
    tcp_factory: TcpSulFactory,
    quic_factory: QuicSulFactory,
}

/// Prepares a run: alphabets, factories, configurations, the learn order.
pub fn setup(shape: Shape, seed: u64) -> Setup {
    let seeds: &[u64] = match shape {
        Shape::Cpu => &CPU_SEEDS,
        Shape::Rtt => &RTT_SEEDS,
    };
    let pool: Vec<Item> = seeds
        .iter()
        .flat_map(|&s| [Protocol::Tcp, Protocol::Quic].map(|protocol| Item { protocol, seed: s }))
        .collect();
    let items: Vec<Item> = seeded_order(seed, pool.len())
        .into_iter()
        .map(|i| pool[i])
        .collect();
    let configs = items.iter().map(|i| learn_config(shape, i.seed)).collect();
    Setup {
        items,
        configs,
        tcp: tcp_alphabet(),
        quic: quic_data_alphabet(),
        tcp_factory: TcpSulFactory::default(),
        quic_factory: QuicSulFactory::new(ImplementationProfile::google(), QUIC_SUL_SEED),
    }
}

/// What one learn produced.
struct Learned {
    wall_s: f64,
    cpu_s: f64,
    model: MealyMachine,
    stats: LearningStats,
    speculation: SpeculationStats,
    symbols_sent: u64,
    engine: EngineStats,
    /// Traced learns only: SUL wrapper totals and cache counters.
    layers: Option<LayerCounts>,
}

struct LayerCounts {
    sul: SulTotals,
    cache_hits: u64,
    cache_misses: u64,
}

impl Learned {
    /// Figures the pipeline guarantees for a given item on every engine
    /// shape: the learner's query statistics.
    fn query_statistics(&self) -> [u64; 4] {
        [
            self.stats.membership_queries,
            self.stats.equivalence_tests,
            self.stats.learning_rounds,
            self.stats.fresh_symbols,
        ]
    }

    /// Figures that should repeat for a given item but depend on how the
    /// engine interleaves sessions: virtual time, SUL symbols sent
    /// (speculation included), clock advances and completed queries.
    fn schedule_figures(&self) -> [u64; 4] {
        [
            self.engine.virtual_elapsed_micros,
            self.symbols_sent,
            self.engine.clock_advances,
            self.engine.queries_completed,
        ]
    }
}

fn untraced<F>(
    factory: &F,
    alphabet: &Alphabet,
    config: &LearnConfig,
) -> Result<Learned, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let cpu = cpu_seconds();
    let start = Instant::now();
    let outcome = learn_model_parallel(factory, alphabet, config.clone())?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    Ok(Learned {
        wall_s,
        cpu_s,
        model: outcome.learned.model,
        stats: outcome.learned.stats,
        speculation: outcome.learned.speculation,
        symbols_sent: outcome.sul_stats.symbols_sent,
        engine: outcome.engine,
        layers: None,
    })
}

/// The same learn, assembled from the stack's public parts with a span
/// wrapper at the learner→cache and cache→engine boundaries.
fn traced<F>(
    factory: &F,
    counters: &SulCounters,
    alphabet: &Alphabet,
    config: &LearnConfig,
    recorder: &SharedRecorder,
) -> Result<Learned, LearnError>
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let cpu = cpu_seconds();
    let start = Instant::now();
    let root = recorder.borrow_mut().enter("learn", "learn");
    let parallel = Recorder::within(recorder, "engine", "spawn", || {
        ParallelSulOracle::spawn_with(factory, config.workers, config.max_inflight)
    });
    let engine = TracedOracle::new(parallel, "engine", recorder.clone());
    let cache = CacheOracle::with_trie(engine, PrefixTrie::new());
    let mut membership = TracedOracle::new(cache, "cache", recorder.clone());
    let mut learner = DTreeLearner::with_strategy(alphabet.clone(), config.sift);
    let mut equivalence = RandomWordOracle::new(
        config.seed,
        config.random_tests,
        config.min_word_len,
        config.max_word_len,
    )
    .with_batch_size(config.eq_batch_size);
    let result = Recorder::within(recorder, "learner", "learn", || {
        learner.learn(&mut membership, &mut equivalence)
    });
    let cache = membership.into_inner();
    let mut stats = result.stats;
    stats.fresh_symbols = cache.fresh_symbols();
    stats.equivalence_tests = equivalence.tests_executed();
    let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
    let (engine, _trie) = cache.into_parts();
    let parallel = engine.into_inner();
    let symbols_sent = parallel.stats().symbols_sent;
    let shutdown = Recorder::within(recorder, "engine", "shutdown", || parallel.shutdown());
    recorder.borrow_mut().exit(root);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let EngineShutdown { engine, .. } = shutdown?;
    Ok(Learned {
        wall_s,
        cpu_s,
        model: result.model,
        stats,
        speculation: learner.speculation(),
        symbols_sent,
        engine,
        layers: Some(LayerCounts {
            sul: counters.totals(),
            cache_hits,
            cache_misses,
        }),
    })
}

fn latency<F: SulFactory>(inner: F) -> LatencySulFactory<F> {
    LatencySulFactory::new(
        inner,
        SimDuration::from_micros(STEP_RTT_US),
        SimDuration::from_micros(RESET_RTT_US),
    )
}

/// Runs one learn of `inner`'s SUL, plain or latency-wrapped, untraced or
/// through the traced stack.
fn learn_with<F>(
    inner: F,
    shape: Shape,
    alphabet: &Alphabet,
    config: &LearnConfig,
    recorder: Option<&SharedRecorder>,
) -> Result<Learned, LearnError>
where
    F: SulFactory + SessionSulFactory,
    F::Sul: TimedSul + Send + 'static,
    F::Session: Send + 'static,
{
    match (shape, recorder) {
        (Shape::Cpu, None) => untraced(&inner, alphabet, config),
        (Shape::Rtt, None) => untraced(&latency(inner), alphabet, config),
        (Shape::Cpu, Some(rec)) => {
            let factory = CountingFactory::new(inner);
            let counters = factory.counters();
            traced(&factory, &counters, alphabet, config, rec)
        }
        (Shape::Rtt, Some(rec)) => {
            let factory = CountingFactory::new(inner);
            let counters = factory.counters();
            traced(&latency(factory), &counters, alphabet, config, rec)
        }
    }
}

fn learn_item(
    setup: &Setup,
    shape: Shape,
    index: usize,
    recorder: Option<&SharedRecorder>,
) -> Result<Learned, String> {
    let item = setup.items[index];
    let config = &setup.configs[index];
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match item.protocol {
        Protocol::Tcp => learn_with(
            setup.tcp_factory.clone(),
            shape,
            &setup.tcp,
            config,
            recorder,
        ),
        Protocol::Quic => learn_with(
            setup.quic_factory.clone(),
            shape,
            &setup.quic,
            config,
            recorder,
        ),
    }));
    match outcome {
        Ok(Ok(learned)) => Ok(learned),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("the learn panicked".into()),
    }
}

/// The sequential `learn_model` reference model of an item (the serial
/// sift, on a bare SUL: modelled latency never changes answers).
fn reference(shape: Shape, item: Item) -> MealyMachine {
    let config = learn_config(shape, item.seed).with_sift(SiftStrategy::Serial);
    match item.protocol {
        Protocol::Tcp => learn_model(&mut TcpSul::with_defaults(), &tcp_alphabet(), config).model,
        Protocol::Quic => {
            let mut sul = QuicSul::new(ImplementationProfile::google(), QUIC_SUL_SEED);
            learn_model(&mut sul, &quic_data_alphabet(), config).model
        }
    }
}

/// Wall and process CPU seconds of one pass over the learn list.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
}

/// Learns passes over the list until `budget_s` has elapsed (at least one
/// pass).  Returns `(item index, learn)` per learn, and the passes.
fn passes(
    setup: &Setup,
    shape: Shape,
    budget_s: f64,
    recorder: Option<&SharedRecorder>,
    run: &mut RunResult,
) -> (Vec<(usize, Learned)>, Vec<Pass>) {
    let start = Instant::now();
    let mut learns = Vec::new();
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let pass_cpu = cpu_seconds();
        let pass_start = Instant::now();
        for index in 0..setup.items.len() {
            if let Some(rec) = recorder {
                rec.borrow_mut().set_item(learns.len() as u32);
            }
            run.attempted += 1;
            match learn_item(setup, shape, index, recorder) {
                Ok(learned) => learns.push((index, learned)),
                Err(e) => {
                    run.failed += 1;
                    run.note(format!("learn {index} failed: {e}"));
                }
            }
        }
        done.push(Pass {
            wall_s: pass_start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - pass_cpu,
        });
    }
    (learns, done)
}

/// `f` of every learn, grouped by protocol.
fn by_protocol(
    setup: &Setup,
    learns: &[(usize, Learned)],
    f: impl Fn(&Learned) -> f64,
) -> BTreeMap<Protocol, Vec<f64>> {
    let mut grouped: BTreeMap<Protocol, Vec<f64>> = BTreeMap::new();
    for (index, learned) in learns {
        grouped
            .entry(setup.items[*index].protocol)
            .or_default()
            .push(f(learned));
    }
    grouped
}

/// Geometric mean over protocols of each protocol's median of `f`.
fn per_protocol(setup: &Setup, learns: &[(usize, Learned)], f: impl Fn(&Learned) -> f64) -> f64 {
    let medians: Vec<f64> = by_protocol(setup, learns, f)
        .values()
        .filter_map(|values| median(values))
        .collect();
    geometric_mean(&medians).unwrap_or(0.0)
}

/// Checks every learn against the reference models and against the first
/// learn of the same item (deterministic figures must repeat exactly).
fn check_learns(setup: &Setup, shape: Shape, learns: &[(usize, Learned)], run: &mut RunResult) {
    let references: Vec<MealyMachine> = setup
        .items
        .iter()
        .map(|&item| reference(shape, item))
        .collect();
    let mut first: BTreeMap<usize, ([u64; 4], [u64; 4])> = BTreeMap::new();
    for (index, learned) in learns {
        if learned.model != references[*index] {
            run.failed += 1;
            run.note(format!(
                "learn of item {index} differs from the sequential reference model"
            ));
        }
        let seen = (learned.query_statistics(), learned.schedule_figures());
        let (queries, schedule) = *first.entry(*index).or_insert(seen);
        run.check(seen.0 == queries, || {
            format!(
                "item {index}: query statistics (MQ, EQ tests, rounds, fresh symbols) \
                 changed between learns: {queries:?} vs {:?}",
                seen.0
            )
        });
        if seen.1 != schedule {
            run.finding(format!(
                "item {index}: (virtual us, symbols sent, clock advances, queries completed) \
                 changed between learns: {schedule:?} vs {:?}",
                seen.1
            ));
        }
    }
}

fn describe(setup: &Setup, learns: &[(usize, Learned)], run: &mut RunResult) {
    for (protocol, walls) in &by_protocol(setup, learns, |l| l.wall_s) {
        let tail = tail_percentile(walls.len())
            .and_then(|p| percentile(walls, p).map(|v| format!(", p{p} {v:.4} s")))
            .unwrap_or_default();
        let spread = relative_spread(walls)
            .map(|s| format!(", quartile spread {:.1}%", 100.0 * s))
            .unwrap_or_default();
        run.note(format!(
            "{} learn wall: median {:.4} s over {} learns{spread}{tail}",
            protocol.name(),
            median(walls).unwrap_or(0.0),
            walls.len()
        ));
    }
}

/// Runs `cpu_bound` or `rtt_bound`.
pub fn run(shape: Shape, args: &Args) -> RunResult {
    let mut run = RunResult::default();
    let setup = setup(shape, args.seed);
    let list: Vec<String> = setup
        .items
        .iter()
        .map(|i| format!("{}:{}", i.protocol.name(), i.seed))
        .collect();
    run.note(format!(
        "learn list (protocol:LearnConfig.seed): {}",
        list.join(" ")
    ));

    let (learns, done) = passes(&setup, shape, args.untraced_budget(), None, &mut run);
    let pass_walls: Vec<f64> = done.iter().map(|p| p.wall_s).collect();
    let learn_s = per_protocol(&setup, &learns, |l| l.wall_s);
    let virtual_s = per_protocol(&setup, &learns, |l| {
        l.engine.virtual_elapsed_micros as f64 * 1e-6
    });
    describe(&setup, &learns, &mut run);
    let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    run.note(format!("pass walls (s): {}", walls.join(" ")));
    run.note(format!(
        "{} passes of {} learns; virtual_s {virtual_s:.6} (median virtual seconds per learn, \
         geometric mean over protocols)",
        pass_walls.len(),
        setup.items.len()
    ));

    run.metric("wall.learn_s", learn_s);
    run.metric(
        "wall.models_per_min",
        60.0 * learns.len() as f64 / pass_walls.iter().sum::<f64>(),
    );
    run.metric("wall.campaign_s", median(&pass_walls).unwrap_or(0.0));

    match args.mode {
        Mode::Untraced => {
            let n = learns.len().max(1) as f64;
            run.metric("cpu_s", per_protocol(&setup, &learns, |l| l.cpu_s));
            let pass_cpus: Vec<f64> = done.iter().map(|p| p.cpu_s).collect();
            run.metric("batch_cpu_s", median(&pass_cpus).unwrap_or(0.0));
            run.metric(
                "symbols_per_learn",
                learns
                    .iter()
                    .map(|(_, l)| l.symbols_sent as f64)
                    .sum::<f64>()
                    / n,
            );
            run.metric("peak_rss_mb", peak_rss_mb());
            check_learns(&setup, shape, &learns, &mut run);
        }
        Mode::Traced => {
            let recorder = Recorder::shared();
            let (traced_learns, _) =
                passes(&setup, shape, args.seconds / 2.0, Some(&recorder), &mut run);
            let traced_learn_s = per_protocol(&setup, &traced_learns, |l| l.wall_s);
            layer_metrics(&traced_learns, &recorder, learn_s, traced_learn_s, &mut run);
            check_traced(&learns, &traced_learns, &mut run);
            let mut all = learns;
            all.extend(traced_learns);
            check_learns(&setup, shape, &all, &mut run);
            let path = args
                .out_dir
                .join(format!("spans-{}-seed{}.csv", args.name, args.seed));
            let written = write_csv(&path, recorder.borrow().spans());
            match written {
                Ok(()) => run.note(format!("spans written to {}", path.display())),
                Err(e) => run.note(format!("could not write spans: {e}")),
            }
        }
    }
    run
}

/// The traced stack must measure the same program: same models and query
/// statistics as the untraced learns, and a SUL wrapper that saw exactly
/// the symbols the engine reports.
fn check_traced(untraced: &[(usize, Learned)], traced: &[(usize, Learned)], run: &mut RunResult) {
    for (index, t) in traced {
        if let Some((_, u)) = untraced.iter().find(|(i, _)| i == index) {
            run.check(t.model == u.model, || {
                format!("item {index}: traced model differs from learn_model_parallel's")
            });
            let key = |l: &Learned| {
                (
                    l.stats.fresh_symbols,
                    l.stats.membership_queries,
                    l.stats.equivalence_tests,
                )
            };
            run.check(key(t) == key(u), || {
                format!(
                    "item {index}: traced (fresh, MQ, EQ tests) {:?} != untraced {:?}",
                    key(t),
                    key(u)
                )
            });
        }
        if let Some(layers) = &t.layers {
            run.check(layers.sul.steps == t.symbols_sent, || {
                format!(
                    "item {index}: SUL wrapper counted {} steps, engine reports {} symbols",
                    layers.sul.steps, t.symbols_sent
                )
            });
        }
    }
}

fn layer_metrics(
    learns: &[(usize, Learned)],
    recorder: &SharedRecorder,
    untraced_learn_s: f64,
    traced_learn_s: f64,
    run: &mut RunResult,
) {
    let recorder = recorder.borrow();
    let spans = recorder.spans();
    let totals = layer_totals(spans);
    let get = |layer: &str| totals.get(layer).copied().unwrap_or_default();
    let n = learns.len().max(1) as f64;
    let per_learn = |ns: u64| ns as f64 * 1e-9 / n;
    let sum = |f: &dyn Fn(&Learned) -> u64| learns.iter().map(|(_, l)| f(l)).sum::<u64>();
    let layer = |f: &dyn Fn(&LayerCounts) -> u64| {
        learns
            .iter()
            .filter_map(|(_, l)| l.layers.as_ref().map(f))
            .sum::<u64>()
    };
    let (lifecycle_ns, wait_ns) =
        spans
            .iter()
            .filter(|s| s.layer == "engine")
            .fold((0, 0), |(life, wait), s| match s.op {
                "spawn" | "shutdown" => (life + s.duration_ns(), wait),
                _ => (life, wait + s.duration_ns()),
            });
    let sul_ns = layer(&|c| c.sul.step_ns + c.sul.reset_ns);
    let steps = layer(&|c| c.sul.steps);
    let hits = layer(&|c| c.cache_hits);
    let misses = layer(&|c| c.cache_misses);
    let submitted = sum(&|l| l.speculation.words_submitted);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    run.metric("learner.self_s", per_learn(get("learner").self_ns));
    run.metric(
        "learner.membership_queries",
        sum(&|l| l.stats.membership_queries) as f64 / n,
    );
    run.metric(
        "learner.equivalence_tests",
        sum(&|l| l.stats.equivalence_tests) as f64 / n,
    );
    run.metric(
        "learner.rounds",
        sum(&|l| l.stats.learning_rounds) as f64 / n,
    );
    run.metric(
        "learner.spec_useful_ratio",
        ratio(sum(&|l| l.speculation.words_used), submitted),
    );
    run.metric("cache.self_s", per_learn(get("cache").self_ns));
    run.metric("cache.hit_ratio", ratio(hits, hits + misses));
    run.metric("engine.wait_s", per_learn(wait_ns));
    run.metric(
        "engine.overhead_s",
        (wait_ns as f64 - sul_ns as f64) * 1e-9 / n,
    );
    run.metric(
        "engine.answers_per_reply",
        ratio(
            sum(&|l| l.engine.queries_completed),
            sum(&|l| l.engine.reply_messages),
        ),
    );
    run.metric("engine.lifecycle_s", per_learn(lifecycle_ns));
    run.metric(
        "scheduler.clock_advances",
        sum(&|l| l.engine.clock_advances) as f64 / n,
    );
    run.metric(
        "scheduler.occupancy",
        learns
            .iter()
            .map(|(_, l)| l.engine.occupancy())
            .sum::<f64>()
            / n,
    );
    run.metric(
        "scheduler.peak_inflight",
        learns
            .iter()
            .map(|(_, l)| l.engine.peak_inflight)
            .max()
            .unwrap_or(0) as f64,
    );
    run.metric(
        "scheduler.virtual_s",
        sum(&|l| l.engine.virtual_elapsed_micros) as f64 * 1e-6 / n,
    );
    run.metric("sul.steps", steps as f64 / n);
    run.metric("sul.resets", layer(&|c| c.sul.resets) as f64 / n);
    run.metric("sul.busy_s", per_learn(sul_ns));
    run.metric("sul.ns_per_step", ratio(layer(&|c| c.sul.step_ns), steps));
    let root_ns = get("learn").total_ns;
    let covered = get("learner").self_ns + get("cache").self_ns + get("engine").total_ns;
    run.metric("trace.coverage", ratio(covered, root_ns));
    run.metric("trace.overhead", traced_learn_s / untraced_learn_s);
    run.note(format!(
        "traced: {} learns, {} spans; learn_s untraced {untraced_learn_s:.4} s, traced {traced_learn_s:.4} s",
        learns.len(),
        spans.len()
    ));
    let share = |ns: u64| 100.0 * ratio(ns, root_ns);
    run.note(format!(
        "share of traced learn wall: learner self {:.1}%, cache self {:.1}%, engine wait {:.1}% \
         (SUL busy {:.1}%), engine spawn+shutdown {:.1}%",
        share(get("learner").self_ns),
        share(get("cache").self_ns),
        share(wait_ns),
        share(sul_ns),
        share(lifecycle_ns)
    ));
}
