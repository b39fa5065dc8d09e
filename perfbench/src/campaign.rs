//! The `campaign` workload: the E21 differential campaign, run cold on an
//! empty journaled store and then warm against the store it just wrote,
//! with the full event feed streamed through a rotating `EventLog`.

use crate::layers::{ObservedSink, TaskSpan};
use crate::stats::{geometric_mean, median, splitmix64};
use crate::{cpu_seconds, peak_rss_mb, Args, Mode, RunResult};
use prognosis_analysis::properties::SafetyProperty;
use prognosis_campaign::{
    run_campaign, CampaignReport, CampaignSpec, CellSpec, Impairment, RunnerConfig,
};
use prognosis_core::pipeline::LearnConfig;
use prognosis_core::quic_adapter::quic_data_alphabet;
use prognosis_events::analyze::scan_log;
use prognosis_events::rotate::{EventLog, EventLogConfig};
use prognosis_events::EventSink;
use prognosis_learner::journal::JournalStore;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Equivalence tests per cell.
const RANDOM_TESTS: usize = 4_000;
/// `LearnConfig::seed` of every cell (E21's).
const LEARN_SEED: u64 = 7;
/// Cells whose packets cross an impaired netsim link.
const IMPAIRED_CELLS: [&str; 2] = ["learn:tcp-v1-loss", "learn:quiche-v1-loss"];

/// The E21 matrix: TCP clean and 2%-loss; google v1 and v2 (v2 primed
/// from v1); quiche clean and jittered; 3 diffs and 2 property checks.
fn e21_spec() -> CampaignSpec {
    let tcp = ["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)"];
    let data: Vec<String> = quic_data_alphabet()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    // google "v2" raises the initial flow-control window, so the server
    // never blocks and STREAM_DATA_BLOCKED disappears from its model.
    let google_v2 = ImplementationProfile {
        initial_peer_max_stream_data: 1_000_000,
        ..ImplementationProfile::google()
    };
    let learn = LearnConfig {
        seed: LEARN_SEED,
        random_tests: RANDOM_TESTS,
        min_word_len: 2,
        max_word_len: 12,
        eq_batch_size: 64,
        ..LearnConfig::default()
    }
    .with_workers(1);
    CampaignSpec::new("e21-matrix")
        .cell(CellSpec::tcp("tcp-v1", "v1").with_alphabet(tcp))
        .cell(
            CellSpec::tcp("tcp-v1-loss", "v1")
                .with_alphabet(tcp)
                .with_impairment(Impairment::latency(100).with_loss(0.02))
                .with_baseline("tcp-v1"),
        )
        .cell(
            CellSpec::quic("google-v1", "v1", ImplementationProfile::google(), 11)
                .with_alphabet(data.clone()),
        )
        .cell(
            CellSpec::quic("google-v2", "v2", google_v2, 11)
                .with_alphabet(data.clone())
                .with_baseline("google-v1"),
        )
        .cell(
            CellSpec::quic("quiche-v1", "v1", ImplementationProfile::quiche(), 3)
                .with_alphabet(data.clone()),
        )
        .cell(
            CellSpec::quic("quiche-v1-loss", "v1", ImplementationProfile::quiche(), 3)
                .with_alphabet(data)
                .with_impairment(Impairment::latency(150).with_jitter(50)),
        )
        .diff("tcp-v1", "tcp-v1-loss")
        .diff("google-v1", "google-v2")
        .diff("google-v1", "quiche-v1")
        .check(
            "google-v1",
            SafetyProperty::never_output("STREAM_DATA_BLOCKED"),
        )
        .check(
            "google-v2",
            SafetyProperty::never_output("STREAM_DATA_BLOCKED"),
        )
        .with_learn(learn)
}

/// Everything a run prepares before its first timed campaign.
pub struct Setup {
    spec: CampaignSpec,
    /// Task id → ids of the tasks it needs.
    needs: Vec<(String, Vec<String>)>,
    scratch: PathBuf,
    log_path: PathBuf,
    log: Arc<EventLog>,
    sink: Arc<ObservedSink>,
    runner: RunnerConfig,
}

/// This process's scratch directory under the output directory.
pub fn scratch_dir(args: &Args) -> PathBuf {
    args.out_dir.join(format!("scratch-{}", std::process::id()))
}

/// Prepares a run: scratch directory, event log, spec, task graph, runner.
pub fn setup(scratch: &Path, seed: u64, mode: Mode) -> std::io::Result<Setup> {
    std::fs::create_dir_all(scratch)?;
    let log_path = scratch.join("events.jsonl");
    remove_log(&log_path);
    // The default caps rotate at 16 MiB and keep 64 MiB.  A traced run
    // lifts the total cap so every event it forwarded can be read back.
    let mut log_config = EventLogConfig::new(&log_path);
    if mode == Mode::Traced {
        log_config = log_config.with_max_total_bytes(u64::MAX);
    }
    let log = Arc::new(EventLog::open(log_config)?);
    let sink = Arc::new(ObservedSink::new(
        Arc::clone(&log) as Arc<dyn EventSink>,
        false,
    ));
    let spec = e21_spec();
    let needs = spec
        .build_graph()
        .nodes()
        .iter()
        .map(|n| (n.id.clone(), n.needs.clone()))
        .collect();
    // Probe the store layer once, as the runner does on an empty path.
    let _ = JournalStore::open_or_empty(scratch.join("probe.pgnj"));
    let runner = RunnerConfig {
        engine_threads: 1,
        task_workers: 1,
        schedule_seed: splitmix64(seed),
        progress: false,
        events: Some(Arc::clone(&sink) as Arc<dyn EventSink>),
    };
    Ok(Setup {
        spec,
        needs,
        scratch: scratch.to_path_buf(),
        log_path,
        log,
        sink,
        runner,
    })
}

fn remove_log(path: &Path) {
    for index in prognosis_events::rotate::rotated_indices(path) {
        let _ = std::fs::remove_file(prognosis_events::rotate::rotated_path(path, index));
    }
    let _ = std::fs::remove_file(path);
}

/// One cold + warm iteration.
struct Iteration {
    cold_s: f64,
    warm_s: f64,
    /// Process CPU seconds of the cold run.
    cold_cpu_s: f64,
    /// Process CPU seconds of the cold and the warm run.
    cpu_s: f64,
    cold: Option<CampaignReport>,
    warm: Option<CampaignReport>,
    cold_tasks: Vec<TaskSpan>,
    /// Traced iterations: store size, frames and load time after the cold run.
    journal: Option<(u64, u64, f64)>,
}

fn iterate(setup: &Setup, index: usize, traced: bool) -> Iteration {
    let dir = setup.scratch.join(format!("iter-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store.pgnj");
    let _ = std::fs::create_dir_all(&dir);
    let spec = setup
        .spec
        .clone()
        .with_cache_path(store.to_string_lossy().into_owned());
    setup.sink.take_tasks();

    let cpu = cpu_seconds();
    let start = Instant::now();
    let cold = run_campaign(&spec, &setup.runner);
    let cold_s = start.elapsed().as_secs_f64();
    let cold_cpu_s = cpu_seconds() - cpu;
    let cold_tasks = setup.sink.take_tasks();

    let journal = traced.then(|| {
        let start = Instant::now();
        let opened = JournalStore::open(&store);
        let load_s = start.elapsed().as_secs_f64();
        opened.map_or((0, 0, load_s), |s| {
            let stats = s.stats();
            (stats.file_bytes, stats.record_frames as u64, load_s)
        })
    });

    let start = Instant::now();
    let warm = run_campaign(&spec, &setup.runner);
    let warm_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    setup.sink.take_tasks();
    let _ = std::fs::remove_dir_all(&dir);
    Iteration {
        cold_s,
        warm_s,
        cold_cpu_s,
        cpu_s,
        cold: cold.ok(),
        warm: warm.ok(),
        cold_tasks,
        journal,
    }
}

/// Iterates until `budget_s` has elapsed (at least once).
fn iterations(setup: &Setup, first: usize, budget_s: f64, traced: bool) -> Vec<Iteration> {
    let start = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        done.push(iterate(setup, first + done.len(), traced));
    }
    done
}

/// The reference reports: the same spec cold then warm on a store of its
/// own, on a differently shaped runner without an event sink.
fn references(setup: &Setup) -> Option<(String, String)> {
    let dir = setup.scratch.join("reference");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).ok()?;
    let spec = setup
        .spec
        .clone()
        .with_cache_path(dir.join("store.pgnj").to_string_lossy().into_owned());
    let runner = RunnerConfig {
        engine_threads: 2,
        task_workers: 2,
        schedule_seed: 0,
        progress: false,
        events: None,
    };
    let cold = run_campaign(&spec, &runner).ok()?.canonical_json();
    let warm = run_campaign(&spec, &runner).ok()?.canonical_json();
    let _ = std::fs::remove_dir_all(&dir);
    Some((cold, warm))
}

/// Whether a report keeps the E21 findings: google-v1 violates
/// `never_output(STREAM_DATA_BLOCKED)` and google-v2 holds it.
fn keeps_findings(report: &CampaignReport) -> bool {
    let holds = |cell: &str| {
        report
            .checks
            .iter()
            .find(|c| c.cell == cell)
            .map(|c| c.check.holds)
    };
    holds("google-v1") == Some(false) && holds("google-v2") == Some(true)
}

fn check_iterations(done: &[Iteration], reference: &Option<(String, String)>, run: &mut RunResult) {
    let Some((ref_cold, ref_warm)) = reference else {
        run.check(false, || "the reference campaign failed".into());
        return;
    };
    let first_virtual = done
        .iter()
        .find_map(|it| it.cold.as_ref().map(|r| r.max_virtual_elapsed_micros()));
    for (i, it) in done.iter().enumerate() {
        for (name, report, expected) in [("cold", &it.cold, ref_cold), ("warm", &it.warm, ref_warm)]
        {
            run.attempted += 1;
            let ok = report
                .as_ref()
                .is_some_and(|r| &r.canonical_json() == expected && keeps_findings(r));
            if !ok {
                run.failed += 1;
                run.note(format!(
                    "iteration {i} {name}: campaign failed or its report differs from the reference"
                ));
            }
        }
        if let Some(r) = &it.cold {
            if Some(r.max_virtual_elapsed_micros()) != first_virtual {
                run.finding(format!(
                    "iteration {i}: critical-cell virtual time {} us, first iteration {first_virtual:?}",
                    r.max_virtual_elapsed_micros()
                ));
            }
        }
    }
}

fn task_seconds(tasks: &[TaskSpan], prefix: &str) -> f64 {
    tasks
        .iter()
        .filter(|t| t.id.starts_with(prefix))
        .map(TaskSpan::seconds)
        .sum()
}

/// Longest chain of task durations through the campaign DAG.
fn critical_path_s(needs: &[(String, Vec<String>)], tasks: &[TaskSpan]) -> f64 {
    let duration: BTreeMap<&str, f64> =
        tasks.iter().map(|t| (t.id.as_str(), t.seconds())).collect();
    let mut finish: BTreeMap<&str, f64> = BTreeMap::new();
    // `build_graph` lists every task after the tasks it needs.
    for (id, deps) in needs {
        let ready = deps
            .iter()
            .filter_map(|d| finish.get(d.as_str()))
            .fold(0.0, |a: f64, &b| a.max(b));
        finish.insert(
            id,
            ready + duration.get(id.as_str()).copied().unwrap_or(0.0),
        );
    }
    finish.values().fold(0.0, |a: f64, &b| a.max(b))
}

/// Geometric mean over cells of each cell's median cold learn-task wall.
fn learn_s(done: &[Iteration]) -> f64 {
    let mut by_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for it in done {
        for t in it.cold_tasks.iter().filter(|t| t.id.starts_with("learn:")) {
            by_cell.entry(&t.id).or_default().push(t.seconds());
        }
    }
    let medians: Vec<f64> = by_cell.values().filter_map(|v| median(v)).collect();
    geometric_mean(&medians).unwrap_or(0.0)
}

/// Runs the `campaign` workload.
pub fn run(args: &Args) -> RunResult {
    let mut run = RunResult::default();
    let scratch = scratch_dir(args);
    let setup = match setup(&scratch, args.seed, args.mode) {
        Ok(setup) => setup,
        Err(e) => {
            run.check(false, || format!("set-up failed: {e}"));
            return run;
        }
    };
    let done = iterations(&setup, 0, args.untraced_budget(), false);
    let colds: Vec<f64> = done.iter().map(|it| it.cold_s).collect();
    let warms: Vec<f64> = done.iter().map(|it| it.warm_s).collect();
    let campaign_s = median(&colds).unwrap_or(0.0);
    let first = done.iter().find_map(|it| it.cold.as_ref());
    let cells = first.map_or(0, |r| r.cells.len());
    let virtual_s = first.map_or(0.0, |r| r.max_virtual_elapsed_micros() as f64 * 1e-6);
    run.note(format!(
        "{} iterations; cold median {campaign_s:.4} s, warm median {:.4} s (warm_campaign_s); \
         critical-cell virtual_s {virtual_s:.6}",
        done.len(),
        median(&warms).unwrap_or(0.0)
    ));
    let walls: Vec<String> = colds.iter().map(|w| format!("{w:.3}")).collect();
    run.note(format!("cold walls (s): {}", walls.join(" ")));
    if let Some(r) = first {
        for c in &r.cells {
            run.note(format!(
                "cell {}: {} states, {} MQs, {} EQ tests, {} fresh symbols, {} distinct, hit rate {:.3}",
                c.id, c.states, c.membership_queries, c.equivalence_tests, c.fresh_symbols,
                c.distinct_queries, c.cache_hit_rate
            ));
        }
    }

    run.metric("wall.learn_s", learn_s(&done));
    run.metric(
        "wall.models_per_min",
        60.0 * (cells * done.len()) as f64 / colds.iter().sum::<f64>(),
    );
    run.metric("wall.campaign_s", campaign_s);
    run.metric("wall.warm_campaign_s", median(&warms).unwrap_or(0.0));

    let mut traced = Vec::new();
    if args.mode == Mode::Untraced {
        let cpus: Vec<f64> = done.iter().map(|it| it.cpu_s).collect();
        run.metric("cpu_s", median(&cpus).unwrap_or(0.0));
        let cold_cpus: Vec<f64> = done.iter().map(|it| it.cold_cpu_s).collect();
        run.metric("batch_cpu_s", median(&cold_cpus).unwrap_or(0.0));
        let symbols: u64 = first.map_or(0, |r| r.cells.iter().map(|c| c.fresh_symbols).sum());
        run.metric("symbols_per_learn", symbols as f64 / cells.max(1) as f64);
        run.metric("peak_rss_mb", peak_rss_mb());
    } else {
        setup.sink.set_traced(true);
        let emitted_before = setup.sink.emitted();
        let emit_ns_before = setup.sink.emit_ns();
        traced = iterations(&setup, done.len(), args.seconds / 2.0, true);
        let n = traced.len() as f64;
        let emitted = setup.sink.emitted() - emitted_before;
        let emit_ns = setup.sink.emit_ns() - emit_ns_before;
        layer_metrics(&setup, &traced, campaign_s, &mut run);
        run.metric("events.emitted", emitted as f64 / n);
        run.metric("events.emit_s", emit_ns as f64 * 1e-9 / n);
        setup.log.flush();
        run.metric("events.io_errors", setup.log.io_errors() as f64);
        match scan_log(&setup.log_path) {
            Ok(scan) => {
                let total = setup.sink.emitted();
                run.check(scan.events.len() as u64 == total, || {
                    format!(
                        "event log holds {} events, the sink forwarded {total}",
                        scan.events.len()
                    )
                });
                run.metric(
                    "events.bytes_written",
                    scan.bytes as f64 / (done.len() + traced.len()) as f64,
                );
            }
            Err(e) => run.check(false, || format!("event log does not scan: {e:?}")),
        }
    }
    let reference = references(&setup);
    check_iterations(&done, &reference, &mut run);
    check_iterations(&traced, &reference, &mut run);
    drop(setup);
    let _ = std::fs::remove_dir_all(&scratch);
    run
}

fn layer_metrics(setup: &Setup, traced: &[Iteration], untraced_cold_s: f64, run: &mut RunResult) {
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let wire =
        |f: &dyn Fn(&TaskSpan) -> u64| med(&|it| it.cold_tasks.iter().map(f).sum::<u64>() as f64);
    run.metric("netsim.packets_sent", wire(&|t| t.packets_sent));
    run.metric("netsim.packets_dropped", wire(&|t| t.packets_dropped));
    run.metric("netsim.packets_duplicated", wire(&|t| t.packets_duplicated));
    run.metric("netsim.bytes_sent", wire(&|t| t.bytes_sent));
    if let Some(it) = traced.first() {
        for t in it.cold_tasks.iter().filter(|t| t.packets_sent > 0) {
            run.note(format!(
                "{}: {} packets sent ({} bytes), {} dropped, {} duplicated",
                t.id, t.packets_sent, t.bytes_sent, t.packets_dropped, t.packets_duplicated
            ));
        }
        if let Some(r) = &it.warm {
            for c in &r.cells {
                run.note(format!(
                    "warm cell {}: {} MQs, {} fresh symbols, {} distinct, hit rate {:.3}",
                    c.id,
                    c.membership_queries,
                    c.fresh_symbols,
                    c.distinct_queries,
                    c.cache_hit_rate
                ));
            }
        }
    }
    for it in traced {
        for cell in IMPAIRED_CELLS {
            let sent = it
                .cold_tasks
                .iter()
                .find(|t| t.id == cell)
                .map_or(0, |t| t.packets_sent);
            run.check(sent > 0, || format!("{cell}: no packet crossed netsim"));
        }
    }
    let journal =
        |f: &dyn Fn(&(u64, u64, f64)) -> f64| med(&|it| it.journal.as_ref().map_or(0.0, f));
    run.metric("journal.bytes", journal(&|j| j.0 as f64));
    run.metric("journal.frames", journal(&|j| j.1 as f64));
    run.metric("journal.load_s", journal(&|j| j.2));
    run.metric(
        "campaign.task_s.learn",
        med(&|it| task_seconds(&it.cold_tasks, "learn:")),
    );
    run.metric(
        "campaign.lease_wait_s",
        med(&|it| {
            it.cold_tasks
                .iter()
                .filter_map(|t| {
                    t.lease_ns
                        .map(|l| l.saturating_sub(t.start_ns) as f64 * 1e-9)
                })
                .sum()
        }),
    );
    run.metric(
        "campaign.critical_path_s",
        med(&|it| critical_path_s(&setup.needs, &it.cold_tasks)),
    );
    run.metric(
        "analysis.diff_s",
        med(&|it| task_seconds(&it.cold_tasks, "diff:")),
    );
    run.metric(
        "analysis.check_s",
        med(&|it| task_seconds(&it.cold_tasks, "check:")),
    );
    let cell_mean = |f: &dyn Fn(&prognosis_campaign::CellReport) -> u64| {
        med(&|it| {
            it.cold.as_ref().map_or(0.0, |r| {
                r.cells.iter().map(f).sum::<u64>() as f64 / r.cells.len().max(1) as f64
            })
        })
    };
    // Share of the cold run's SUL-answered queries the warm run answers
    // from the store it wrote.
    run.metric(
        "cache.hit_ratio",
        med(&|it| match (&it.cold, &it.warm) {
            (Some(cold), Some(warm)) => {
                let distinct = |r: &CampaignReport| {
                    r.cells.iter().map(|c| c.distinct_queries).sum::<u64>() as f64
                };
                1.0 - distinct(warm) / distinct(cold).max(1.0)
            }
            _ => 0.0,
        }),
    );
    run.metric(
        "learner.membership_queries",
        cell_mean(&|c| c.membership_queries),
    );
    run.metric(
        "learner.equivalence_tests",
        cell_mean(&|c| c.equivalence_tests),
    );
    run.metric(
        "scheduler.virtual_s",
        med(&|it| {
            it.cold
                .as_ref()
                .map_or(0.0, |r| r.max_virtual_elapsed_micros() as f64 * 1e-6)
        }),
    );
    let traced_cold_s = med(&|it| it.cold_s);
    run.metric(
        "trace.coverage",
        med(&|it| task_seconds(&it.cold_tasks, "") / it.cold_s),
    );
    run.metric("trace.overhead", traced_cold_s / untraced_cold_s);
}
