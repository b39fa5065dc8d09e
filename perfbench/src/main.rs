//! The repository benchmark: one command per workload.
//!
//! ```text
//! perfbench --workload <cpu_bound|rtt_bound|campaign> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>]
//! ```
//!
//! Prints the provenance, every metric by name with its unit and the
//! correctness verdict as readable lines, then one JSON object as the last
//! line of standard output.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same workload untraced and then through the
//! benchmark's layer wrappers, and reports the per-layer metrics.  The
//! workloads, metrics and layers are described in `perfbench/README.md`.

// `deny` rather than `forbid`: process CPU time is read through one
// audited `clock_gettime` call ([`cpu_seconds`]).
#![deny(unsafe_code)]

mod campaign;
mod layers;
mod learn;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups measured per run, each in a fresh process; `setup_s` is their
/// median.
pub const SETUP_SPAWNS: usize = 15;

/// Which metrics a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, measured untraced.
    Untraced,
    /// Per-layer metrics: an untraced half-run, then a traced half-run.
    Traced,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cpu_bound` or `rtt_bound`.
    Learn(learn::Shape),
    /// `campaign`.
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "cpu_bound" => Ok(Workload::Learn(learn::Shape::Cpu)),
            "rtt_bound" => Ok(Workload::Learn(learn::Shape::Rtt)),
            "campaign" => Ok(Workload::Campaign),
            other => Err(format!(
                "unknown workload {other} (cpu_bound, rtt_bound, campaign)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, as given.
    pub name: String,
    /// The workload it names.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// End-to-end or per-layer run.
    pub mode: Mode,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
    /// Only set the workload up, print `ready` and exit (the child process
    /// of a `setup_s` measurement).
    pub setup_only: bool,
}

impl Args {
    /// Seconds of untraced measurement: the whole run, or its first half
    /// when the second half is traced.
    pub fn untraced_budget(&self) -> f64 {
        match self.mode {
            Mode::Untraced => self.seconds,
            Mode::Traced => self.seconds / 2.0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some((Workload::parse(&value)?, value)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--trace is required")?,
        out_dir,
        setup_only,
    })
}

/// End-to-end metrics (`--trace 0`) with their units, in report order.
/// The gated times are process CPU time: on a shared host the wall clock
/// swings with the neighbours' load (see README), so wall-clock figures
/// are reported as `wall.*` lines and per-layer metrics instead.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cpu_s", "s"),
    ("batch_cpu_s", "s"),
    ("symbols_per_learn", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units, in report order.  A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("wall.learn_s", "s"),
    ("wall.models_per_min", "1/min"),
    ("wall.campaign_s", "s"),
    ("wall.warm_campaign_s", "s"),
    ("learner.self_s", "s"),
    ("learner.membership_queries", "count"),
    ("learner.equivalence_tests", "count"),
    ("learner.rounds", "count"),
    ("learner.spec_useful_ratio", "ratio"),
    ("cache.self_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("engine.wait_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.answers_per_reply", "ratio"),
    ("engine.lifecycle_s", "s"),
    ("scheduler.clock_advances", "count"),
    ("scheduler.occupancy", "ratio"),
    ("scheduler.peak_inflight", "count"),
    ("scheduler.virtual_s", "s"),
    ("sul.steps", "count"),
    ("sul.resets", "count"),
    ("sul.busy_s", "s"),
    ("sul.ns_per_step", "ns"),
    ("netsim.packets_sent", "count"),
    ("netsim.packets_dropped", "count"),
    ("netsim.packets_duplicated", "count"),
    ("netsim.bytes_sent", "bytes"),
    ("events.emitted", "count"),
    ("events.emit_s", "s"),
    ("events.bytes_written", "bytes"),
    ("events.io_errors", "count"),
    ("journal.bytes", "bytes"),
    ("journal.frames", "count"),
    ("journal.load_s", "s"),
    ("campaign.task_s.learn", "s"),
    ("campaign.lease_wait_s", "s"),
    ("campaign.critical_path_s", "s"),
    ("analysis.diff_s", "s"),
    ("analysis.check_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Items (learns or campaign runs) attempted.
    pub attempted: u64,
    /// Items that failed: an error, or output differing from the reference.
    pub failed: u64,
    /// Self-check violations (any makes the run incorrect).
    pub violations: Vec<String>,
    /// Figures that should repeat exactly but did not, where the program's
    /// outputs stayed correct (reported, not failed).
    pub findings: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Readable detail lines (extra figures, sample counts, percentiles).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a determinism finding.
    pub fn finding(&mut self, line: String) {
        self.findings.push(line);
    }

    /// Records a readable detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a self-check: a violation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Process CPU seconds (user + system, all threads) from
/// `CLOCK_PROCESS_CPUTIME_ID`.
#[allow(unsafe_code)]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s`: the median over [`SETUP_SPAWNS`] fresh processes of the
/// time from spawning this program with `--setup-only` to its `ready`
/// line — process start to the point where a run's first timed item
/// would begin.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut durations = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 0..SETUP_SPAWNS {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", &args.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.mode == Mode::Traced { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .arg("--setup-only")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let elapsed = start.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if !(status.success() && matches!(read, Some(Ok(_))) && line.trim() == "ready") {
            return Err(format!("set-up child failed: {status}, {line:?}"));
        }
        durations.push(elapsed);
    }
    stats::median(&durations).ok_or_else(|| "no set-up measured".into())
}

/// The `--setup-only` child: set the workload up, report `ready`, clean up.
fn setup_only(args: &Args) -> std::io::Result<()> {
    let ready = || {
        let mut out = std::io::stdout().lock();
        writeln!(out, "ready").and_then(|()| out.flush())
    };
    match args.workload {
        Workload::Learn(shape) => {
            let _setup = learn::setup(shape, args.seed);
            ready()
        }
        Workload::Campaign => {
            let scratch = campaign::scratch_dir(args);
            let outcome =
                campaign::setup(&scratch, args.seed, args.mode).and_then(|_setup| ready());
            let _ = std::fs::remove_dir_all(&scratch);
            outcome
        }
    }
}

/// Formats `value` for JSON: every digit Rust's shortest round-trip
/// rendering gives, and `null` for non-finite values.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    if args.setup_only {
        if let Err(e) = setup_only(&args) {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Set-up is measured first, in child processes, so the run's own
    // timed work is not disturbed by them.
    let setup_s = (args.mode == Mode::Untraced).then(|| measure_setup(&args));
    let mut result = match args.workload {
        Workload::Learn(shape) => learn::run(shape, &args),
        Workload::Campaign => campaign::run(&args),
    };

    match setup_s {
        Some(Ok(s)) => result.metric("setup_s", s),
        Some(Err(e)) => result.violations.push(e),
        None => {}
    }
    let listed: &[(&str, &str)] = match args.mode {
        Mode::Untraced => &END_TO_END,
        Mode::Traced => &PER_LAYER,
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        let value = match (result.values.get(name), args.mode) {
            (Some(&v), _) => v,
            (None, Mode::Traced) => 0.0,
            (None, Mode::Untraced) => {
                result.violations.push(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into());
    let traced = args.mode == Mode::Traced;
    let provenance = format!(
        "{{\"revision\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"traced\": {traced}}}",
        json_string(&revision),
        json_string(&args.name),
        args.seed,
        json_number(args.seconds),
    );
    println!("provenance {provenance}");
    for note in &result.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {:>16} {unit}", format!("{value:.6}"));
    }
    for (name, value) in &result.values {
        if !listed.iter().any(|(n, _)| n == name) {
            println!("  also measured: {name} {value:.6}");
        }
    }
    for f in &result.findings {
        println!("DETERMINISM FINDING: {f}");
    }
    for v in &result.violations {
        println!("SELF-CHECK FAILED: {v}");
    }
    let correct = result.failed == 0 && result.violations.is_empty();
    println!(
        "correct: {correct} ({} of {} items failed)",
        result.failed, result.attempted
    );
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.attempted, result.failed
    );
    let file = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.name,
        args.seed,
        u8::from(traced)
    ));
    let list = |lines: &[String]| {
        lines
            .iter()
            .map(|l| json_string(l))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let saved = format!(
        "{{\"provenance\": {provenance}, \"violations\": [{}], \"findings\": [{}], \
         \"notes\": [{}], \"result\": {record}}}\n",
        list(&result.violations),
        list(&result.findings),
        list(&result.notes)
    );
    if let Err(e) = std::fs::write(&file, saved) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{record}");
}
