//! Parallel, multiplexed membership-query execution across session workers.
//!
//! Learning wall-clock time is dominated by membership queries replayed
//! symbol-by-symbol against the SUL (§4.1).  Queries within a batch are
//! independent — each starts from a reset — so they can run concurrently on
//! *separate* SUL instances.  [`ParallelSulOracle`] owns `N` worker
//! threads, each running a [`SessionScheduler`] that multiplexes up to
//! `max_inflight` concurrent query sessions on a virtual clock; a batch is
//! published to a shared work queue and workers **pull** queries
//! dynamically as their sessions free up (replacing the old static
//! `index % N` sharding), so a slow query never idles the rest of the
//! fleet.  Answers are merged back in query order.  Because every session's
//! SUL is deterministic per query (§3.2 property 3) and answers are pure,
//! the merged answers — and therefore the learned model and all query-cost
//! statistics — are bit-identical to a sequential run, regardless of
//! `(workers, max_inflight)` or which worker happens to grab which query.

use crate::engine::EnginePool;
use crate::pipeline::{panic_message, LearnError};
use crate::session::{
    add_stats, phase_name, EngineStats, QueryPhase, SchedulerStats, SessionScheduler, SessionSul,
    SessionSulFactory, SimTime,
};
use crate::sul::SulStats;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_events::{Event, EventSink, ScopedSink};
use prognosis_learner::oracle::{AsyncAnswer, AsyncQuery, CancelOutcome, MembershipOracle};
use std::collections::{BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};

/// One queued query.  Blocking batch dispatches and asynchronous
/// continuation submissions share one id space: batch jobs carry ids at or
/// above [`BATCH_ID_BASE`], async tickets stay below it.
struct Job {
    id: u64,
    /// Shared handle to the input word: the learner's allocation travels
    /// through the queue to a session slot without a per-query deep clone.
    input: Arc<InputWord>,
    /// Learning phase the query belongs to; carried with the dispatch so
    /// virtual waits attribute correctly even when phases overlap.
    phase: QueryPhase,
}

/// Ids at or above this value are blocking-batch jobs (`id - BATCH_ID_BASE`
/// is the batch index); below it they are caller-assigned async tickets.
const BATCH_ID_BASE: u64 = 1 << 62;

enum Reply {
    /// One worker harvest: every query that completed in one drive cycle,
    /// plus the worker's cumulative counters as of that harvest.  Batching
    /// the returns means one channel send — and one snapshot publication —
    /// per drive cycle instead of per answer, and the dispatcher never
    /// locks a worker-side mutex to read stats.
    Answers {
        worker: usize,
        answers: Vec<(u64, OutputWord)>,
        snapshot: WorkerSnapshot,
    },
    /// A worker's session panicked; the message is the panic payload.
    Dead { worker: usize, message: String },
}

struct QueueState {
    /// Committed work: blocking batches and non-speculative continuations.
    jobs: VecDeque<Job>,
    /// Speculative work (equivalence words streamed ahead of their
    /// hypothesis).  Drained only after `jobs`, so speculation fills idle
    /// slots without ever queueing ahead of the construction critical path.
    speculative: VecDeque<Job>,
    /// Whether the learner thread is blocked waiting for an answer.  The
    /// quiescence gate: while the learner is *active* it may be about to
    /// submit more work, so a worker with free capacity must not advance
    /// its virtual clock — a late-arriving continuation has to join the
    /// current virtual instant, not one the pool already raced past.
    /// Workers clear this before publishing answers (the learner is about
    /// to react); the learner re-sets it before every blocking receive.
    learner_waiting: bool,
    shutdown: bool,
}

impl QueueState {
    fn is_empty(&self) -> bool {
        self.jobs.is_empty() && self.speculative.is_empty()
    }
}

impl Shared {
    /// Wakes enough workers for `jobs` newly queued queries.  Construction
    /// phases enqueue mostly single queries; waking the whole pool for one
    /// job costs `workers - 1` futile wake-ups per query (painful on small
    /// hosts, where every wake-up is a context switch off the one busy
    /// core), so the wake fans out no wider than the work.
    fn notify_work(&self, jobs: usize) {
        if jobs >= self.workers {
            self.available.notify_all();
        } else {
            for _ in 0..jobs {
                self.available.notify_one();
            }
        }
    }
}

/// Upper bound on the jobs a worker prefetches beyond its free session
/// capacity in one queue lock, and the flush threshold for answers banked
/// between queue visits.  The prefetched tail lands in a worker-local
/// backlog that feeds slots as they free up, so a chunk of queries costs
/// one lock acquisition and one learner wake-up instead of one of each per
/// query.  Fair-share bounded in [`Shared::next_jobs`] so a chunk never
/// starves peer workers of queued work.
const PULL_AHEAD: usize = 64;

/// The shared dispatcher ⇄ worker state: a work queue plus its condvar.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Worker count, fixed at spawn: the fair-share divisor for chunked
    /// pulls (see [`Shared::next_jobs`]).
    workers: usize,
}

impl Shared {
    /// What a worker should do next given its free capacity and whether it
    /// still has queries in flight.  An empty job list tells the worker to
    /// drive its virtual clock instead; that is only allowed once nothing
    /// more could join the current virtual instant — the pool is full, the
    /// learner is blocked waiting for answers, or the engine is shutting
    /// down.  Otherwise the worker sleeps on the queue (in real time; the
    /// virtual clock holds still) so late-arriving continuations and
    /// speculative words overlap the queries already in flight.  The
    /// returned `more` flag reports whether the queue still held work
    /// after the pull — the adaptive scheduler's growth signal.
    fn next_jobs(&self, capacity: usize, idle: bool) -> Option<WorkerCommand> {
        let mut q = self.queue.lock().expect("work queue poisoned");
        if capacity > 0 && !q.is_empty() {
            // Chunked pull: take the free-capacity fill plus a
            // fair-share prefetch for the worker-local backlog.  One
            // lock acquisition moves a whole chunk of queries; the
            // fair-share bound (an equal split of what is queued right
            // now) keeps one worker from walking off with work its
            // peers could be running.
            let queued = q.jobs.len() + q.speculative.len();
            let fair_share = queued.div_ceil(self.workers.max(1));
            let want = capacity + fair_share.min(PULL_AHEAD);
            let mut jobs: Vec<Job> = Vec::with_capacity(want.min(queued));
            while jobs.len() < want {
                if let Some(job) = q.jobs.pop_front() {
                    jobs.push(job);
                } else if let Some(job) = q.speculative.pop_front() {
                    jobs.push(job);
                } else {
                    break;
                }
            }
            return Some(WorkerCommand::Jobs {
                jobs,
                more: !q.is_empty(),
            });
        }
        if q.shutdown {
            if idle {
                return Some(WorkerCommand::Exit);
            }
            return Some(WorkerCommand::Jobs {
                jobs: Vec::new(),
                more: !q.is_empty(),
            });
        }
        if !idle && q.learner_waiting {
            // The learner has quiesced (blocked on an answer), so no
            // further work can join this virtual instant: advancing the
            // clock is the only way forward.  A full pool with work
            // still queued does NOT license an advance by itself — the
            // learner may be mid-computation, about to add this
            // instant's construction continuations behind the backlog.
            return Some(WorkerCommand::Jobs {
                jobs: Vec::new(),
                more: !q.is_empty(),
            });
        }
        None
    }

    /// Parks the worker on the queue condvar until something that could
    /// change [`Shared::next_jobs`]'s answer arrives.  Re-checks the
    /// predicate under the lock (the wake condition may have landed between
    /// an unlocked poll and this call), waits at most one condvar round,
    /// and lets the caller re-poll — spurious wake-ups are handled by the
    /// poll loop, not here.
    fn wait_for_work(&self, capacity: usize, idle: bool) {
        let q = self.queue.lock().expect("work queue poisoned");
        let ready = |q: &QueueState| {
            (capacity > 0 && !q.is_empty()) || q.shutdown || (!idle && q.learner_waiting)
        };
        if !ready(&q) {
            let _unused = self.available.wait(q).expect("work queue poisoned");
        }
    }
}

enum WorkerCommand {
    Jobs { jobs: Vec<Job>, more: bool },
    Exit,
}

/// Cumulative counters one worker ships with each answer harvest.
#[derive(Clone, Copy, Default)]
struct WorkerSnapshot {
    sul: SulStats,
    scheduler: SchedulerStats,
}

/// What a finished worker loop reports back: its sessions and final stats,
/// or the panic payload that killed it.
type WorkerResult<Sn> = std::thread::Result<(Vec<Sn>, SchedulerStats)>;

struct Worker<Sn> {
    result_rx: Receiver<WorkerResult<Sn>>,
}

/// A membership oracle that fans query batches out to worker threads, each
/// multiplexing `max_inflight` concurrent SUL sessions on virtual time.
///
/// The workers run on an [`EnginePool`]: either a private pool this oracle
/// constructed for itself ([`ParallelSulOracle::spawn_with`], the classic
/// one-oracle-per-pool shape) or a shared pool several concurrent learn
/// tasks lease slots from ([`ParallelSulOracle::spawn_on`], the campaign
/// shape).  Which pool hosts the workers never affects answers or
/// statistics — everything observable runs on virtual time.
pub struct ParallelSulOracle<Sn: SessionSul> {
    shared: Arc<Shared>,
    reply_rx: Receiver<Reply>,
    workers: Vec<Worker<Sn>>,
    /// Most recent counters shipped by each worker (with its last answer
    /// harvest).  Reading stats is a plain field access on the dispatcher
    /// thread — no cross-thread lock on any stats path.
    snapshots: Vec<WorkerSnapshot>,
    /// The private pool backing the workers; `None` when the workers
    /// are leased from a caller-owned shared pool.  Dropped (joining its
    /// threads) after the workers have been drained.
    _owned_pool: Option<EnginePool>,
    max_inflight: usize,
    queries: u64,
    batches: u64,
    /// Phase the learner last announced via
    /// [`MembershipOracle::note_phase`]; blocking dispatches are attributed
    /// to it (async submissions carry their own per-query tag instead).
    current_phase: QueryPhase,
    /// Dispatcher-side accumulators (batch-size histogram, occupancy
    /// timeline, per-phase stats) that [`ParallelSulOracle::engine_stats`]
    /// folds into the reported [`EngineStats`].
    telemetry: EngineStats,
    /// Async tickets submitted but not yet answered (or cancelled), with
    /// their speculative flag.
    outstanding: std::collections::HashMap<u64, bool>,
    /// Cancelled tickets whose query was already executing; their answers
    /// are dropped on arrival.
    discard: BTreeSet<u64>,
    /// Async answers received (e.g. while a blocking batch was draining)
    /// but not yet handed to the caller.
    async_ready: Vec<AsyncAnswer>,
    /// Answered non-speculative tickets not yet handed to the learner.
    /// Delivery is strictly in submission order
    /// ([`ParallelSulOracle::delivery_queue`]) and at most one
    /// non-speculative answer per poll — always, not just while a sink is
    /// attached — so the learner's continuation submissions (and with them
    /// the deterministic event stream) are independent of wall-clock
    /// completion order, and attaching a sink never perturbs the query
    /// schedule it observes.
    ready_answers: std::collections::HashMap<u64, OutputWord>,
    /// Non-speculative async tickets in submission order, awaiting their
    /// delivery turn.
    delivery_queue: VecDeque<u64>,
    /// (busy, virtual) totals at the previous telemetry sample — the delta
    /// basis for async timeline samples.
    last_busy_virtual: (u64, u64),
    /// Query scopes flushed to the event stream so far (batch commits plus
    /// frontier flushes) — the logical clock [`PhaseEnter`] stamps.  Issued
    /// counts would leak the engine shape through rolled-back speculation;
    /// flushed counts are a pure function of the stream itself.
    ///
    /// [`PhaseEnter`]: Event::PhaseEnter
    flushed_queries: u64,
    /// The staging event sink: workers stage each query's events under its
    /// job id, and this dispatcher thread commits scopes in learner order
    /// (batch-index order for blocking dispatch, submission order through
    /// the [`ParallelSulOracle::pump_scopes`] frontier for async tickets)
    /// — which is what makes the deterministic stream byte-identical
    /// across engine shapes.
    events: Option<Arc<ScopedSink>>,
    /// The deterministic-stream frontier: every deterministic emission —
    /// async query scopes, blocking-batch scopes, phase transitions,
    /// speculation-commit markers — queues here in learner order and
    /// reaches the inner sink strictly front-to-back (maintained only
    /// while an event sink is attached).
    scope_queue: VecDeque<FrontierItem>,
    /// Flush state per queued async ticket.
    scope_state: std::collections::HashMap<u64, ScopeState>,
    /// Next unused blocking-batch scope id offset; every dispatch claims a
    /// fresh id range so an earlier batch's scope can still sit unflushed
    /// in the frontier when the next batch starts staging.
    batch_cursor: u64,
}

/// One slot in the ordered deterministic-stream frontier.  Everything the
/// deterministic stream carries flows through this queue in learner
/// order, so the serialized log is a pure function of the learner's call
/// sequence — never of wall-clock completion order.
enum FrontierItem {
    /// An async ticket's staged scope; flushes per its [`ScopeState`].
    Scope(u64),
    /// A blocking-batch query scope; fully staged when enqueued (the
    /// dispatch that created it drained every answer first).
    Batch(u64),
    /// A phase-transition marker; emits [`Event::PhaseEnter`] stamped with
    /// the flushed-scope count at its queue position.
    Phase(QueryPhase),
    /// A speculation-commit marker, enqueued behind the scopes it commits.
    Commit(u64),
}

/// Where one async ticket's staged event scope stands in the ordered
/// flush.  A non-speculative ticket's answer is final the moment the
/// learner consumes it (the dataflow learner never rolls sift
/// continuations back), so its scope queues at submission and flushes on
/// arrival.  A speculative ticket's scope stays *out* of the frontier
/// until the learner's explicit `commit_queries`: how far speculation has
/// been submitted when construction work interleaves follows the engine
/// shape, so a submission-time slot would leak it — the commit is the
/// first point where the scope's place in the stream is learner-determined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScopeState {
    /// Non-speculative: queued at submission, flushes when its answer
    /// arrives.
    Auto,
    /// Speculative: not yet queued; waits for an explicit commit.
    Spec,
    /// Answered (non-speculative) or committed (speculative): flushes as
    /// soon as every earlier-queued slot has flushed or died.
    Ready,
    /// Cancelled; the scope was discarded and the slot pops silently.
    Dead,
}

/// The result of shutting the engine down: the session SULs (adapter-side
/// state flushed) plus the aggregated engine statistics.
pub struct EngineShutdown<S> {
    /// All session SULs, worker-major (worker 0's sessions first).  With
    /// `max_inflight` = 1 this is exactly one SUL per worker.
    pub suls: Vec<S>,
    /// Aggregated scheduler statistics across all workers.
    pub engine: EngineStats,
}

impl<Sn: SessionSul + Send + 'static> ParallelSulOracle<Sn> {
    /// Spawns `workers` threads, each multiplexing `max_inflight` sessions
    /// minted by `factory` over one shared virtual clock, on a private
    /// [`EnginePool`] sized to exactly these workers, with no event sink.
    ///
    /// # Panics
    /// Panics when `workers` or `max_inflight` is zero.
    pub fn spawn_with<F>(factory: &F, workers: usize, max_inflight: usize) -> Self
    where
        F: SessionSulFactory<Session = Sn>,
    {
        Self::spawn_on(None, factory, workers, max_inflight, None)
    }

    /// Spawns the oracle's `workers` worker loops, each multiplexing
    /// `max_inflight` sessions minted by `factory`.
    ///
    /// With `pool` set the loops run on slots leased from that shared pool,
    /// blocking until that many slots are free: this is how several
    /// concurrent learn tasks — possibly with different SUL types — share
    /// one engine.  Each oracle holds its lease for its lifetime and the
    /// slots return to the pool on shutdown (or drop).  With `pool` unset
    /// the oracle builds a private pool sized to exactly these workers.
    ///
    /// With `events` set to `(sink, diagnostics)` the engine's telemetry
    /// flows into `sink` ([`prognosis_events`]), with diagnostic events
    /// gated by `diagnostics`.
    ///
    /// # Panics
    /// Panics when `workers` or `max_inflight` is zero, or when `workers`
    /// exceeds the size of `pool`.
    pub fn spawn_on<F>(
        pool: Option<&EnginePool>,
        factory: &F,
        workers: usize,
        max_inflight: usize,
        events: Option<(Arc<dyn EventSink>, bool)>,
    ) -> Self
    where
        F: SessionSulFactory<Session = Sn>,
    {
        assert!(workers >= 1, "a parallel oracle needs at least one worker");
        assert!(max_inflight >= 1, "each worker needs at least one session");
        let events = events.map(|(sink, diagnostics)| ScopedSink::new(sink, diagnostics));
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                speculative: VecDeque::new(),
                learner_waiting: false,
                shutdown: false,
            }),
            available: Condvar::new(),
            workers,
        });
        let (reply_tx, reply_rx) = channel::<Reply>();
        let (owned_pool, mut lease) = match pool {
            Some(pool) => (None, pool.lease(workers)),
            None => {
                let pool = EnginePool::new(workers);
                let lease = pool.lease(workers);
                (Some(pool), lease)
            }
        };
        let num_workers = workers;
        let workers = (0..workers)
            .map(|worker_id| {
                // One session group (and, for networked transports, one
                // shared netsim network attached to this clock) per worker.
                let (sessions, clock) = factory.create_worker_sessions(max_inflight);
                let shared = Arc::clone(&shared);
                let reply_tx = reply_tx.clone();
                let worker_events = events.clone();
                let (result_tx, result_rx) = channel::<WorkerResult<Sn>>();
                lease.submit_worker_releasing(move |slot| {
                    // Adaptive pool: start with one active slot, grow while
                    // demand saturates the pool, shrink when a work window
                    // cannot fill it.  `max_inflight` is the cap.
                    let mut scheduler =
                        SessionScheduler::with_clock(sessions, clock).with_adaptive_inflight(1);
                    if let Some(sink) = worker_events {
                        scheduler = scheduler.with_event_sink(sink);
                    }
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(&shared, &mut scheduler, &reply_tx, worker_id);
                    }));
                    let result = match outcome {
                        Ok(()) => {
                            let stats = scheduler.stats();
                            Ok((scheduler.into_sessions(), stats))
                        }
                        Err(payload) => {
                            // Report the death both on the reply path (so a
                            // dispatcher blocked mid-batch wakes up) and as
                            // this worker's final result.  The panic is NOT
                            // re-raised: the hosting pool thread survives to
                            // serve later leases.
                            let _ = reply_tx.send(Reply::Dead {
                                worker: worker_id,
                                message: panic_message(payload.as_ref()),
                            });
                            Err(payload)
                        }
                    };
                    // Slot back first, report second: `shutdown()` returns
                    // only after receiving every report, so callers that
                    // joined a run observe its slots as already free.
                    drop(slot);
                    let _ = result_tx.send(result);
                });
                Worker { result_rx }
            })
            .collect();
        ParallelSulOracle {
            shared,
            reply_rx,
            workers,
            snapshots: vec![WorkerSnapshot::default(); num_workers],
            _owned_pool: owned_pool,
            max_inflight,
            queries: 0,
            batches: 0,
            current_phase: QueryPhase::default(),
            telemetry: EngineStats::default(),
            outstanding: std::collections::HashMap::new(),
            discard: BTreeSet::new(),
            async_ready: Vec::new(),
            ready_answers: std::collections::HashMap::new(),
            delivery_queue: VecDeque::new(),
            last_busy_virtual: (0, 0),
            flushed_queries: 0,
            events,
            scope_queue: VecDeque::new(),
            scope_state: std::collections::HashMap::new(),
            batch_cursor: 0,
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Session slots per worker.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Number of batches dispatched so far.
    pub fn batches_dispatched(&self) -> u64 {
        self.batches
    }

    /// Aggregated interaction counters across all worker sessions, as of
    /// the most recently answered batch.
    pub fn stats(&self) -> SulStats {
        self.snapshots
            .iter()
            .map(|s| s.sul)
            .fold(SulStats::default(), add_stats)
    }

    /// Aggregated engine statistics, as of the most recently answered
    /// batch (final numbers come from [`ParallelSulOracle::shutdown`]).
    pub fn engine_stats(&self) -> EngineStats {
        let mut engine = self.telemetry.clone();
        engine.workers = self.workers.len() as u64;
        engine.max_inflight = self.max_inflight as u64;
        for snapshot in &self.snapshots {
            engine.absorb(&snapshot.scheduler);
        }
        engine
    }

    /// Summed (busy session-µs, worker virtual-µs) across the workers'
    /// shipped snapshots — the delta basis for per-dispatch attribution.
    fn busy_virtual_snapshot(&self) -> (u64, u64) {
        self.snapshots
            .iter()
            .map(|s| {
                (
                    s.scheduler.busy_session_micros,
                    s.scheduler.virtual_elapsed_micros,
                )
            })
            .fold((0, 0), |(b, v), (sb, sv)| (b + sb, v + sv))
    }

    /// Shuts the workers down, flushes every session (a final reset pushes
    /// the last query into adapter-side state such as the Oracle Table) and
    /// returns the session SULs plus final engine statistics.  A worker
    /// that panicked surfaces as [`LearnError::WorkerPanicked`] instead of
    /// poisoning the caller.
    pub fn shutdown(mut self) -> Result<EngineShutdown<Sn::Sul>, LearnError> {
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        let mut engine = self.telemetry.clone();
        engine.workers = self.workers.len() as u64;
        engine.max_inflight = self.max_inflight as u64;
        let mut suls = Vec::with_capacity(self.workers.len() * self.max_inflight);
        for (worker_id, worker) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            let (sessions, stats) = worker
                .result_rx
                .recv()
                .map_err(|_| LearnError::EnginePanicked {
                    message: format!("session worker {worker_id} vanished without reporting"),
                })?
                .map_err(|payload| LearnError::WorkerPanicked {
                    worker: worker_id,
                    message: panic_message(payload.as_ref()),
                })?;
            engine.absorb(&stats);
            for mut session in sessions {
                session.start_reset(SimTime::ZERO);
                suls.push(session.into_sul());
            }
        }
        if let Some(events) = &self.events {
            // Never-committed scopes (uncommitted continuations, torn-off
            // speculation) die with the engine; flush what was committed.
            events.clear();
            events.flush();
        }
        Ok(EngineShutdown { suls, engine })
    }

    fn dispatch(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        self.batches += 1;
        self.queries += inputs.len() as u64;
        let (busy_before, virtual_before) = self.busy_virtual_snapshot();
        let phase = self.current_phase;
        // A fresh id range per dispatch: the previous batch's scopes may
        // still be queued behind an unanswered async scope in the frontier,
        // so their staging ids must not be reused.
        let base = BATCH_ID_BASE + self.batch_cursor;
        self.batch_cursor += inputs.len() as u64;
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            q.jobs
                .extend(inputs.iter().cloned().enumerate().map(|(i, input)| Job {
                    id: base + i as u64,
                    input,
                    phase,
                }));
        }
        self.shared.notify_work(inputs.len());
        let mut results: Vec<Option<OutputWord>> = vec![None; inputs.len()];
        let mut received = 0;
        while received < inputs.len() {
            match self.recv_reply() {
                Ok(Reply::Answers {
                    worker,
                    answers,
                    snapshot,
                }) => {
                    self.telemetry.reply_messages += 1;
                    self.snapshots[worker] = snapshot;
                    for (id, output) in answers {
                        if id >= BATCH_ID_BASE {
                            let index = (id - base) as usize;
                            debug_assert!(results[index].is_none(), "query answered twice");
                            results[index] = Some(output);
                            received += 1;
                        } else {
                            // An async continuation's answer landing
                            // mid-batch: buffer it for the next poll.
                            self.route_async_answer(id, output);
                        }
                    }
                }
                Ok(Reply::Dead { worker, message }) => {
                    // Relay the worker's death up through the learning loop;
                    // `Learn::run` converts it into a `LearnError`.
                    std::panic::panic_any(LearnError::WorkerPanicked { worker, message });
                }
                Err(_) => {
                    std::panic::panic_any(LearnError::EnginePanicked {
                        message: "all session workers exited mid-batch".to_string(),
                    });
                }
            }
        }
        if self.events.is_some() {
            // The whole batch has answered, so every scope is fully
            // staged — but earlier-submitted async scopes may still be
            // pending, so the batch queues behind them in the frontier
            // instead of jumping the stream.
            for i in 0..inputs.len() as u64 {
                self.scope_queue.push_back(FrontierItem::Batch(base + i));
            }
            self.pump_scopes();
        }
        let (busy_after, virtual_after) = self.busy_virtual_snapshot();
        self.last_busy_virtual = (busy_after, virtual_after);
        self.telemetry.record_dispatch(
            self.current_phase,
            inputs.len() as u64,
            busy_after.saturating_sub(busy_before),
            virtual_after.saturating_sub(virtual_before),
        );
        if let Some(events) = &self.events {
            events.diagnostic(Event::Occupancy {
                time: virtual_after,
                phase: phase_name(self.current_phase),
                batch: inputs.len() as u64,
                busy: busy_after.saturating_sub(busy_before),
                worker: virtual_after.saturating_sub(virtual_before),
            });
        }
        results
            .into_iter()
            .map(|out| out.expect("every query index answered"))
            .collect()
    }

    /// Blocks for the next worker reply, with the quiescence gate raised:
    /// the learner announces it is out of work to submit *before* parking,
    /// which is what licenses the workers to advance their virtual clocks.
    /// The flag is lowered again on wake (the worker also lowers it before
    /// sending, but this learner-side clear closes the race where the
    /// answer is consumed before the worker's clear lands).
    fn recv_reply(&mut self) -> Result<Reply, std::sync::mpsc::RecvError> {
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            q.learner_waiting = true;
        }
        self.shared.available.notify_all();
        let reply = self.reply_rx.recv();
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            q.learner_waiting = false;
        }
        reply
    }

    /// Buffers or discards one async answer.
    fn route_async_answer(&mut self, id: u64, output: OutputWord) {
        if self.discard.remove(&id) {
            // Cancelled while executing; the answer is waste, and so is
            // anything the in-flight query staged after the cancel-time
            // discard.
            if let Some(events) = &self.events {
                events.discard(id);
            }
            return;
        }
        match self.outstanding.remove(&id) {
            Some(false) => {
                // Non-speculative: held back for in-submission-order
                // delivery, and its event scope (if a sink is attached)
                // becomes flushable now.
                self.ready_answers.insert(id, output);
                if self.events.is_some() {
                    if let Some(state @ &mut ScopeState::Auto) = self.scope_state.get_mut(&id) {
                        *state = ScopeState::Ready;
                        self.pump_scopes();
                    }
                }
            }
            Some(true) => {
                // Speculative answers surface in arrival order: the
                // learner stores them by suite index, so delivery order
                // cannot reach the stream, and holding them back would
                // stall resolve walks behind unrelated construction work.
                self.async_ready.push(AsyncAnswer { ticket: id, output });
            }
            None => {}
        }
    }

    /// Flushes frontier slots whose turn has come: strictly front to back,
    /// stopping at the first scope still awaiting its answer or commit.
    /// The flush *order* is therefore learner-determined even though the
    /// flush *times* follow wall-clock completions, which is what keeps
    /// the deterministic stream byte-identical across engine shapes.
    fn pump_scopes(&mut self) {
        let Some(events) = &self.events else {
            return;
        };
        while let Some(front) = self.scope_queue.front() {
            match front {
                FrontierItem::Scope(id) => match self.scope_state.get(id) {
                    Some(ScopeState::Ready) => {
                        events.commit(*id);
                        self.flushed_queries += 1;
                        self.scope_state.remove(id);
                    }
                    Some(ScopeState::Dead) => {
                        self.scope_state.remove(id);
                    }
                    _ => break,
                },
                FrontierItem::Batch(id) => {
                    events.commit(*id);
                    self.flushed_queries += 1;
                }
                FrontierItem::Phase(phase) => {
                    // `seq` is the flushed-scope count at this queue
                    // position — a logical clock recomputable from the
                    // stream itself, immune to how far speculation
                    // happened to run ahead.
                    events.deterministic(Event::PhaseEnter {
                        phase: phase_name(*phase),
                        seq: self.flushed_queries,
                    });
                }
                FrontierItem::Commit(words) => {
                    events.deterministic(Event::SpeculationCommit { words: *words });
                }
            }
            self.scope_queue.pop_front();
        }
    }

    /// Drains every reply currently available; with `wait` set and no
    /// answer buffered yet, blocks for the first one (only while tickets
    /// are actually outstanding).
    fn drain_ready(&mut self, wait: bool) -> Vec<AsyncAnswer> {
        loop {
            loop {
                match self.reply_rx.try_recv() {
                    Ok(Reply::Answers {
                        worker,
                        answers,
                        snapshot,
                    }) => {
                        self.telemetry.reply_messages += 1;
                        self.snapshots[worker] = snapshot;
                        for (id, output) in answers {
                            debug_assert!(id < BATCH_ID_BASE, "batch reply outside dispatch");
                            self.route_async_answer(id, output);
                        }
                    }
                    Ok(Reply::Dead { worker, message }) => {
                        std::panic::panic_any(LearnError::WorkerPanicked { worker, message });
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        if self.outstanding.is_empty() {
                            break;
                        }
                        std::panic::panic_any(LearnError::EnginePanicked {
                            message: "all session workers exited with queries outstanding"
                                .to_string(),
                        });
                    }
                }
            }
            self.promote_ready();
            if !wait
                || !self.async_ready.is_empty()
                || (self.outstanding.is_empty() && self.ready_answers.is_empty())
            {
                break;
            }
            match self.recv_reply() {
                Ok(Reply::Answers {
                    worker,
                    answers,
                    snapshot,
                }) => {
                    self.telemetry.reply_messages += 1;
                    self.snapshots[worker] = snapshot;
                    for (id, output) in answers {
                        self.route_async_answer(id, output);
                    }
                }
                Ok(Reply::Dead { worker, message }) => {
                    std::panic::panic_any(LearnError::WorkerPanicked { worker, message });
                }
                Err(_) => {
                    std::panic::panic_any(LearnError::EnginePanicked {
                        message: "all session workers exited with queries outstanding".to_string(),
                    });
                }
            }
        }
        std::mem::take(&mut self.async_ready)
    }

    /// Moves at most one held-back non-speculative answer into the
    /// surfacing buffer — the one whose submission-order turn it is.
    /// Delivering one at a time keeps the learner's reaction windows (and
    /// so the batches it submits next, and the cache's prefix-subsumption
    /// groups inside them) identical across engine shapes.
    fn promote_ready(&mut self) {
        while let Some(&front) = self.delivery_queue.front() {
            if let Some(output) = self.ready_answers.remove(&front) {
                self.delivery_queue.pop_front();
                self.async_ready.push(AsyncAnswer {
                    ticket: front,
                    output,
                });
                break;
            }
            if self.outstanding.contains_key(&front) {
                break; // Still executing; later answers wait their turn.
            }
            self.delivery_queue.pop_front(); // Cancelled; slot pops silently.
        }
    }
}

impl<Sn: SessionSul> Drop for ParallelSulOracle<Sn> {
    fn drop(&mut self) {
        // A dropped oracle (e.g. during a panic unwind) must not leak
        // blocked — or still-running — worker loops: their leased slots
        // only return to the pool once the loops finish, so wait for each
        // worker's final report before releasing the lease (and, for owned
        // pools, before the pool's own Drop joins its threads).
        if self.workers.is_empty() {
            return;
        }
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
            q.jobs.clear();
            q.speculative.clear();
        }
        self.shared.available.notify_all();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.result_rx.recv();
        }
        if let Some(events) = &self.events {
            events.clear();
            events.flush();
        }
    }
}

/// Delivers every banked answer in one [`Reply::Answers`] message together
/// with the worker's current counters.  The learner is about to receive
/// them and react — from here on it counts as active again, so the
/// quiescence gate is cleared *before* the send (clearing after could race
/// a learner that already consumed an answer and re-entered its wait).
/// Returns `false` when the dispatcher is gone.
fn flush_answers<Sn: SessionSul>(
    shared: &Shared,
    scheduler: &SessionScheduler<Sn>,
    reply_tx: &Sender<Reply>,
    worker_id: usize,
    banked: &mut Vec<(u64, OutputWord)>,
) -> bool {
    {
        let mut q = shared.queue.lock().expect("work queue poisoned");
        q.learner_waiting = false;
    }
    let reply = Reply::Answers {
        worker: worker_id,
        answers: std::mem::take(banked),
        snapshot: WorkerSnapshot {
            sul: scheduler.sul_stats(),
            scheduler: scheduler.stats(),
        },
    };
    reply_tx.send(reply).is_ok()
}

fn worker_loop<Sn: SessionSul>(
    shared: &Shared,
    scheduler: &mut SessionScheduler<Sn>,
    reply_tx: &Sender<Reply>,
    worker_id: usize,
) {
    // Jobs pulled ahead of free session slots, and answers banked between
    // queue visits: both amortise the shared-queue lock and the learner
    // wake-up over whole chunks instead of paying one of each per query —
    // with `max_inflight = 1` that is the difference between a lock convoy
    // and a tight local loop.
    let mut backlog: VecDeque<Job> = VecDeque::new();
    let mut banked: Vec<(u64, OutputWord)> = Vec::new();
    loop {
        let was_idle = scheduler.is_idle();
        let pulled;
        if !backlog.is_empty() && scheduler.has_capacity() {
            // Hot path: feed free slots straight from the local backlog —
            // no shared-queue lock, and no advance license wanted (having
            // submittable work at this virtual instant means the clock
            // must hold still anyway).
            let mut submitted = 0;
            while scheduler.has_capacity() {
                let Some(job) = backlog.pop_front() else {
                    break;
                };
                scheduler.submit(job.id as usize, job.input, job.phase);
                submitted += 1;
            }
            pulled = submitted;
        } else {
            // Consult the shared queue without flushing eagerly: with a
            // chunk still in the backlog this path runs once per clock
            // advance, and flushing here would deliver every answer
            // individually — the exact per-query wake-up convoy the bank
            // exists to avoid.  Only an actual condvar park demands a
            // flush first (the learner must never sleep on answers a
            // sleeping worker is sitting on); `next_jobs` returning `None`
            // is that signal, and re-polling after the wait keeps the
            // wake-condition check under the queue lock.
            let command = loop {
                match shared.next_jobs(scheduler.capacity(), was_idle) {
                    Some(command) => break command,
                    None => {
                        if !banked.is_empty()
                            && !flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked)
                        {
                            return;
                        }
                        shared.wait_for_work(scheduler.capacity(), was_idle);
                    }
                }
            };
            match command {
                WorkerCommand::Exit => {
                    if !banked.is_empty() {
                        flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked);
                    }
                    return;
                }
                WorkerCommand::Jobs { jobs, more } => {
                    pulled = jobs.len();
                    backlog.extend(jobs);
                    let mut submitted = 0;
                    while scheduler.has_capacity() {
                        let Some(job) = backlog.pop_front() else {
                            break;
                        };
                        scheduler.submit(job.id as usize, job.input, job.phase);
                        submitted += 1;
                    }
                    // The local backlog counts as remaining demand: it
                    // should grow the adaptive limit exactly like work
                    // left on the shared queue.
                    let demand = more || !backlog.is_empty();
                    scheduler.note_pull(submitted, demand, was_idle);
                    if demand && scheduler.has_capacity() {
                        // The adaptive limit just grew (or peers refilled
                        // the queue): keep feeding at this virtual instant
                        // instead of advancing under a half-filled pool.
                        continue;
                    }
                }
            }
        }
        if scheduler.is_idle() {
            continue; // Woken without work; re-check the queue.
        }
        // Only an *empty* pull licenses a clock advance: `next_jobs`
        // returns no jobs exactly when advancing is the only way forward
        // (pool full with work queued, or the learner has quiesced).  A
        // non-empty pull means more continuations may still join this
        // virtual instant, so harvest instant progress and loop back to
        // the gate instead of stepping time under a part-filled pool.
        let completed = scheduler.drive_gated(pulled == 0);
        if completed.is_empty() {
            continue;
        }
        banked.extend(
            completed
                .into_iter()
                .map(|(index, output)| (index as u64, output)),
        );
        // Deliver once the local chunk is exhausted (the learner gets the
        // whole chunk in one wake-up); long backlogs also flush at the
        // chunk size so the learner is never starved behind a full
        // prefetch window.
        if (backlog.is_empty() || banked.len() >= PULL_AHEAD)
            && !flush_answers(shared, scheduler, reply_tx, worker_id, &mut banked)
        {
            return;
        }
    }
}

impl<Sn: SessionSul + Send + 'static> MembershipOracle for ParallelSulOracle<Sn> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.dispatch(&[Arc::new(input.clone())])
            .pop()
            .expect("single-query dispatch yields one answer")
    }

    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let shared: Vec<Arc<InputWord>> = inputs.iter().map(|w| Arc::new(w.clone())).collect();
        self.dispatch(&shared)
    }

    fn query_batch_shared(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        if inputs.is_empty() {
            return Vec::new();
        }
        self.dispatch(inputs)
    }

    fn queries_answered(&self) -> u64 {
        self.queries
    }

    fn note_phase(&mut self, phase: QueryPhase) {
        if phase != self.current_phase && self.events.is_some() {
            // Queued, not emitted: the marker takes the stream position of
            // this call relative to every scope submitted before it, even
            // when some of those scopes are still awaiting answers.
            self.scope_queue.push_back(FrontierItem::Phase(phase));
            self.pump_scopes();
        }
        self.current_phase = phase;
    }

    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        if queries.is_empty() {
            return self.drain_ready(false);
        }
        self.queries += queries.len() as u64;
        let enqueued = queries.len();
        // Telemetry: one sample per (phase, speculative-class) group; the
        // busy/virtual delta since the last sample goes to the first group
        // (the exact per-phase integrals come from the scheduler tags).
        let (busy_now, virtual_now) = self.busy_virtual_snapshot();
        let (busy_last, virtual_last) = self.last_busy_virtual;
        self.last_busy_virtual = (busy_now, virtual_now);
        let mut delta = (
            busy_now.saturating_sub(busy_last),
            virtual_now.saturating_sub(virtual_last),
        );
        for phase in crate::session::ALL_PHASES {
            let count = queries.iter().filter(|q| q.phase == phase).count() as u64;
            if count > 0 {
                self.batches += 1;
                self.telemetry
                    .record_dispatch(phase, count, delta.0, delta.1);
                delta = (0, 0);
            }
        }
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            for query in queries {
                assert!(
                    query.ticket < BATCH_ID_BASE,
                    "async tickets must stay below the batch id base"
                );
                debug_assert!(
                    !self.outstanding.contains_key(&query.ticket),
                    "ticket reused while outstanding"
                );
                self.outstanding.insert(query.ticket, query.speculative);
                if !query.speculative {
                    self.delivery_queue.push_back(query.ticket);
                }
                if self.events.is_some() {
                    if query.speculative {
                        // No frontier slot yet: where speculation has run
                        // ahead to when other work interleaves follows the
                        // engine shape, so the scope's stream position is
                        // only fixed at commit time.
                        self.scope_state.insert(query.ticket, ScopeState::Spec);
                    } else {
                        self.scope_state.insert(query.ticket, ScopeState::Auto);
                        self.scope_queue
                            .push_back(FrontierItem::Scope(query.ticket));
                    }
                }
                let job = Job {
                    id: query.ticket,
                    input: Arc::new(query.input),
                    phase: query.phase,
                };
                if query.speculative {
                    q.speculative.push_back(job);
                } else {
                    q.jobs.push_back(job);
                }
            }
        }
        self.shared.notify_work(enqueued);
        self.drain_ready(false)
    }

    fn poll_answers(&mut self, wait: bool) -> Vec<AsyncAnswer> {
        self.drain_ready(wait)
    }

    fn cancel_queries(&mut self, tickets: &[u64]) -> CancelOutcome {
        let mut outcome = CancelOutcome::default();
        let wanted: BTreeSet<u64> = tickets.iter().copied().collect();
        {
            let mut q = self.shared.queue.lock().expect("work queue poisoned");
            let q = &mut *q;
            for deque in [&mut q.jobs, &mut q.speculative] {
                deque.retain(|job| {
                    if wanted.contains(&job.id) {
                        outcome.unsent += 1;
                        self.outstanding.remove(&job.id);
                        false // delivery_queue slot (if any) pops lazily
                    } else {
                        true
                    }
                });
            }
        }
        // A ticket lives in at most one of `outstanding`, `ready_answers`
        // and `async_ready`, so one pass per container counts each once.
        for &ticket in tickets {
            if self.outstanding.remove(&ticket).is_some() {
                // Already pulled by a worker: let it finish, drop the answer.
                self.discard.insert(ticket);
                outcome.discarded += 1;
            } else if self.ready_answers.remove(&ticket).is_some() {
                outcome.discarded += 1;
            }
        }
        let buffered = self.async_ready.len();
        self.async_ready.retain(|a| !wanted.contains(&a.ticket));
        outcome.discarded += (buffered - self.async_ready.len()) as u64;
        if self.events.is_some() {
            for &ticket in tickets {
                if let Some(events) = &self.events {
                    events.discard(ticket);
                }
                match self.scope_state.get_mut(&ticket) {
                    // Never queued: a cancelled speculation leaves no
                    // frontier slot to pop.
                    Some(&mut ScopeState::Spec) => {
                        self.scope_state.remove(&ticket);
                    }
                    Some(state) => *state = ScopeState::Dead,
                    None => {}
                }
            }
            self.pump_scopes();
            if let Some(events) = &self.events {
                if !tickets.is_empty() {
                    // Diagnostic: how many tickets the rollback reaches
                    // depends on how far speculation ran ahead of the
                    // resolve frontier, which follows the engine shape.
                    events.diagnostic(Event::SpeculationRollback {
                        cancelled: tickets.len() as u64,
                    });
                }
            }
        }
        outcome
    }

    fn commit_queries(&mut self, tickets: &[u64]) {
        if self.events.is_some() {
            // The learner (or the cache layer on its behalf) commits
            // speculative tickets in suite order after consuming their
            // answers, so every scope is fully staged; the commit is where
            // they enter the frontier, followed by the commit marker.
            let mut committed = 0u64;
            for &ticket in tickets {
                if let Some(state @ &mut ScopeState::Spec) = self.scope_state.get_mut(&ticket) {
                    *state = ScopeState::Ready;
                    self.scope_queue.push_back(FrontierItem::Scope(ticket));
                    committed += 1;
                }
            }
            if committed > 0 {
                self.scope_queue.push_back(FrontierItem::Commit(committed));
            }
            self.pump_scopes();
        }
    }

    fn outstanding_queries(&self) -> u64 {
        (self.outstanding.len() + self.async_ready.len() + self.ready_answers.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::BlockingSessionFactory;
    use crate::sul::{Sul, SulFactory, SulMembershipOracle};
    use prognosis_automata::alphabet::Symbol;
    use prognosis_automata::known;
    use prognosis_automata::mealy::{MealyMachine, StateId};

    /// A factory-friendly SUL backed by a Mealy machine.
    #[derive(Clone)]
    struct MachineSul {
        machine: MealyMachine,
        state: StateId,
        stats: SulStats,
    }

    impl Sul for MachineSul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            self.stats.symbols_sent += 1;
            let (next, out) = self
                .machine
                .step(self.state, input)
                .expect("symbol in alphabet");
            self.state = next;
            out
        }

        fn reset(&mut self) {
            self.stats.resets += 1;
            self.state = self.machine.initial_state();
        }

        fn stats(&self) -> SulStats {
            self.stats
        }
    }

    struct MachineSulFactory(MealyMachine);

    impl SulFactory for MachineSulFactory {
        type Sul = MachineSul;

        fn create(&self) -> MachineSul {
            MachineSul {
                machine: self.0.clone(),
                state: self.0.initial_state(),
                stats: SulStats::default(),
            }
        }
    }

    fn session_factory(machine: MealyMachine) -> BlockingSessionFactory<MachineSulFactory> {
        BlockingSessionFactory(MachineSulFactory(machine))
    }

    fn words(machine: &MealyMachine, count: usize) -> Vec<InputWord> {
        let alphabet = machine.input_alphabet().clone();
        (0..count)
            .map(|i| {
                (0..=(i % 5))
                    .map(|j| alphabet.get((i + j) % alphabet.len()).unwrap().clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parallel_answers_match_sequential_for_any_worker_and_inflight_count() {
        let machine = known::counter(5);
        let factory = session_factory(machine.clone());
        let batch = words(&machine, 23);
        let mut sequential = SulMembershipOracle::new(MachineSulFactory(machine.clone()).create());
        let expected = sequential.query_batch(&batch);
        for (workers, inflight) in [(1, 1), (2, 1), (4, 3), (7, 1), (1, 8)] {
            let mut parallel = ParallelSulOracle::spawn_with(&factory, workers, inflight);
            assert_eq!(parallel.num_workers(), workers);
            assert_eq!(parallel.max_inflight(), inflight);
            let got = parallel.query_batch(&batch);
            assert_eq!(
                got, expected,
                "(workers, inflight) = ({workers}, {inflight}) changed batch answers"
            );
            assert_eq!(parallel.queries_answered(), batch.len() as u64);
        }
    }

    #[test]
    fn single_queries_and_stats_flow_through() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 1);
        let word = InputWord::from_symbols(["press", "press", "press"]);
        let out = parallel.query(&word);
        assert_eq!(out, known::toggle().run(&word).unwrap());
        assert_eq!(parallel.stats().symbols_sent, 3);
        assert_eq!(parallel.stats().resets, 1);
        assert_eq!(parallel.batches_dispatched(), 1);
        let suls = parallel.shutdown().expect("clean shutdown").suls;
        assert_eq!(suls.len(), 2);
        assert_eq!(suls.iter().map(|s| s.stats().symbols_sent).sum::<u64>(), 3);
    }

    #[test]
    fn empty_batches_are_answered_without_dispatch() {
        let factory = session_factory(known::toggle());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 3, 1);
        assert!(parallel.query_batch(&[]).is_empty());
        assert_eq!(parallel.batches_dispatched(), 0);
    }

    #[test]
    fn dispatches_are_attributed_to_the_announced_phase() {
        let machine = known::counter(4);
        let factory = session_factory(machine.clone());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 1, 4);
        let batch = words(&machine, 8);
        parallel.note_phase(QueryPhase::Construction);
        parallel.query_batch(&batch[..5]);
        parallel.note_phase(QueryPhase::Equivalence);
        parallel.query_batch(&batch[5..]);
        let engine = parallel.engine_stats();
        assert_eq!(engine.construction.batches, 1);
        assert_eq!(engine.construction.queries, 5);
        assert_eq!(engine.equivalence.batches, 1);
        assert_eq!(engine.equivalence.queries, 3);
        assert_eq!(engine.counterexample.batches, 0);
        // Bucket 2 holds sizes 4..=7, bucket 1 sizes 2..=3.
        assert_eq!(engine.batch_size_histogram[2], 1);
        assert_eq!(engine.batch_size_histogram[1], 1);
        assert_eq!(engine.occupancy_timeline.len(), 2);
        assert_eq!(engine.occupancy_timeline[0].phase, QueryPhase::Construction);
        assert_eq!(engine.occupancy_timeline[1].batch_size, 3);
        // The 5-word batch saturated the 1-slot initial pool, so the
        // adaptive limit grew toward the 4-session cap.
        assert!(
            engine.limit_grows >= 1,
            "a batch larger than the initial limit must grow the pool"
        );
        let shutdown = parallel.shutdown().expect("clean shutdown");
        assert_eq!(shutdown.engine.construction.queries, 5);
        assert_eq!(shutdown.engine.queries_completed, 8);
    }

    #[test]
    fn async_submissions_answer_out_of_band_and_match_sequential() {
        let machine = known::counter(5);
        let factory = session_factory(machine.clone());
        let batch = words(&machine, 17);
        let mut sequential = SulMembershipOracle::new(MachineSulFactory(machine.clone()).create());
        let expected = sequential.query_batch(&batch);
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 4);
        let queries: Vec<AsyncQuery> = batch
            .iter()
            .enumerate()
            .map(|(i, input)| AsyncQuery {
                ticket: i as u64,
                input: input.clone(),
                phase: QueryPhase::Construction,
                speculative: i % 3 == 0,
            })
            .collect();
        let mut answers = parallel.submit_queries(queries);
        while answers.len() < batch.len() {
            let more = parallel.poll_answers(true);
            assert!(!more.is_empty(), "waiting poll must make progress");
            answers.extend(more);
        }
        answers.sort_by_key(|a| a.ticket);
        let got: Vec<OutputWord> = answers.into_iter().map(|a| a.output).collect();
        assert_eq!(got, expected);
        assert_eq!(parallel.outstanding_queries(), 0);
        assert_eq!(parallel.queries_answered(), batch.len() as u64);
    }

    #[test]
    fn cancelled_speculation_never_surfaces_answers() {
        let machine = known::counter(5);
        let factory = session_factory(machine.clone());
        let batch = words(&machine, 40);
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 1, 2);
        let queries: Vec<AsyncQuery> = batch
            .iter()
            .enumerate()
            .map(|(i, input)| AsyncQuery {
                ticket: i as u64,
                input: input.clone(),
                phase: QueryPhase::Equivalence,
                speculative: true,
            })
            .collect();
        let delivered = parallel.submit_queries(queries);
        let tickets: Vec<u64> = (0..batch.len() as u64).collect();
        let outcome = parallel.cancel_queries(&tickets);
        assert_eq!(
            outcome.unsent + outcome.discarded + delivered.len() as u64,
            batch.len() as u64,
            "every ticket is delivered, unsent, or discarded exactly once"
        );
        assert_eq!(parallel.outstanding_queries(), 0);
        assert!(
            parallel.poll_answers(false).is_empty(),
            "cancelled tickets must never surface answers"
        );
        // The pool stays usable for blocking work after a rollback.
        let mut sequential = SulMembershipOracle::new(MachineSulFactory(machine).create());
        assert_eq!(
            parallel.query_batch(&batch[..5]),
            sequential.query_batch(&batch[..5])
        );
    }

    #[test]
    fn shutdown_reports_engine_statistics() {
        let machine = known::counter(4);
        let factory = session_factory(machine.clone());
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 3);
        parallel.query_batch(&words(&machine, 12));
        let shutdown = parallel.shutdown().expect("clean shutdown");
        assert_eq!(shutdown.suls.len(), 6, "2 workers × 3 sessions");
        assert_eq!(shutdown.engine.workers, 2);
        assert_eq!(shutdown.engine.max_inflight, 3);
        assert_eq!(shutdown.engine.queries_completed, 12);
    }

    /// A SUL that panics on a poisoned symbol, for the error-path test.
    struct PanickySul;

    impl Sul for PanickySul {
        fn step(&mut self, input: &Symbol) -> Symbol {
            assert!(input.as_str() != "poison", "poisoned symbol");
            Symbol::new("ok")
        }

        fn reset(&mut self) {}
    }

    struct PanickySulFactory;

    impl SulFactory for PanickySulFactory {
        type Sul = PanickySul;

        fn create(&self) -> PanickySul {
            PanickySul
        }
    }

    #[test]
    fn panicking_workers_surface_as_learn_errors_not_hangs() {
        let factory = BlockingSessionFactory(PanickySulFactory);
        let mut parallel = ParallelSulOracle::spawn_with(&factory, 2, 1);
        let poisoned = vec![InputWord::from_symbols(["poison"])];
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel.query_batch(&poisoned);
        }));
        let payload = outcome.expect_err("the dispatcher must observe the worker death");
        let error = payload
            .downcast_ref::<LearnError>()
            .expect("worker death is relayed as a LearnError");
        assert!(matches!(error, LearnError::WorkerPanicked { .. }));
        assert!(error.to_string().contains("poisoned symbol"));
        drop(parallel); // must not hang or double-panic
    }
}
