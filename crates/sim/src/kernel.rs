//! The simulation kernel: event loop, process table, and the [`SimCtx`]
//! service handle exposed to model code.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::event::{Event, EventId, EventKind, EventQueue};
use crate::process::{Pid, ProcCtx, ProcessExit, WakeKind, WakeSlot};
use crate::schedule::{Candidate, CandidateKind, Decision, SchedulePolicy, StepRecord};
use crate::table::ProcTable;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind, Tracer};

/// A process body compiled to a resumable state machine, owned by the kernel
/// and stepped inline from the drive loop.
type CoroFuture = Pin<Box<dyn Future<Output = ()>>>;
/// Deferred coroutine constructor: runs at the first Normal wake so the
/// process's local clock starts at its actual start time.
type EmbryoFn = Box<dyn FnOnce(ProcCtx) -> CoroFuture>;

/// Execution state of one simulated process.
enum ProcBody {
    /// Not yet started: the constructor runs at the first Normal wake (a
    /// first wake of Killed drops it unstarted).
    Embryo(EmbryoFn),
    /// Parked between wakes: the kernel deposits the next wake in `slot`
    /// and polls `fut` inline — a Resume event is a direct method call.
    Coro { fut: CoroFuture, slot: Rc<WakeSlot> },
    /// Checked out by the drive loop for a poll. The machine cannot stay in
    /// the table while polled: polling reenters the kernel state through
    /// `schedule_exec`, which borrows it.
    Running,
    /// Exited; nothing left to drive.
    Gone,
}

struct ProcEntry {
    name: Rc<str>,
    body: ProcBody,
    alive: bool,
    /// The event scheduled by the process's current `exec` call, if any.
    /// Cancelled when the process dies so a dead process's pending request
    /// neither mutates model state nor advances the clock.
    pending_exec: Option<EventId>,
}

pub(crate) struct KernelState {
    queue: EventQueue,
    now: SimTime,
    /// Dense pid-indexed table: pids are sequential and never reused, so
    /// the kernel hot path (resume/kill/exec) avoids hashing entirely.
    procs: ProcTable<ProcEntry>,
    next_pid: u64,
    stop_requested: bool,
    executed: u64,
    max_events: Option<u64>,
    max_time: Option<SimTime>,
    tracer: Tracer,
    /// Exit records in completion order.
    exits: Vec<(Pid, Rc<str>, ProcessExit)>,
    /// Exploration mode: a controller choosing among same-instant
    /// candidates ([`Sim::set_schedule_policy`]). `None` in ordinary runs —
    /// the pop path is then exactly the policy-free fast path.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// Multi-candidate instants recorded in exploration mode.
    decisions: Vec<Decision>,
    /// One record per executed event in exploration mode (effect windows
    /// into the trace).
    steps: Vec<StepRecord>,
}

/// Outcome of one exploration-mode pop attempt.
enum PolicyPop {
    /// The queue is empty (deadlock check decides success).
    Drained,
    /// The next instant lies past `max_time`; stop was requested.
    Horizon,
    /// Everything at the earliest instant was stale; look again.
    Retry,
    /// The policy's pick, removed from the queue and ready to dispatch.
    Run(Event),
}

impl KernelState {
    /// The exploration-mode pop: gather every live event at the earliest
    /// instant, offer the per-lane fronts (plus all laneless events) to the
    /// policy, execute its pick, and return the rest to the queue. Records
    /// a [`Decision`] for every real choice point and a [`StepRecord`] for
    /// every executed event.
    fn pop_with_policy(&mut self) -> PolicyPop {
        let Some(t) = self.queue.peek_time() else {
            return PolicyPop::Drained;
        };
        if self.max_time.map(|mt| t > mt).unwrap_or(false) {
            // Past the horizon: stop without consuming anything, same
            // outcome as the policy-free loop (the clock never advances
            // beyond max_time).
            self.stop_requested = true;
            return PolicyPop::Horizon;
        }
        let mut keys = self.queue.pop_ready_keys();
        // Resumes aimed at dead processes are stale: reclaim them before
        // building candidates, so the policy is never offered an event the
        // policy-free loop would silently drop.
        keys.retain(|&k| {
            let stale = matches!(
                self.queue.peek_kind(k),
                &EventKind::Resume(pid, _)
                    if !self.procs.get(pid).map(|e| e.alive).unwrap_or(false)
            );
            if stale {
                self.queue.discard_key(k);
            }
            !stale
        });
        if keys.is_empty() {
            return PolicyPop::Retry;
        }
        // Candidates: the front event of each tiebreak lane (later same-lane
        // events are blocked behind it — intra-lane order is model
        // semantics) plus every laneless event (freely permutable).
        let mut seen_lanes = std::collections::HashSet::new();
        let mut candidates = Vec::new();
        let mut candidate_keys = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let lane = self.queue.lane_of(k.seq);
            if let Some(l) = lane {
                if !seen_lanes.insert(l) {
                    continue;
                }
            }
            let kind = match self.queue.peek_kind(k) {
                EventKind::Call(_) => CandidateKind::Call,
                EventKind::Resume(pid, _) => CandidateKind::Resume(*pid),
                EventKind::LinkFault(_) => CandidateKind::LinkFault,
            };
            candidates.push(Candidate {
                seq: k.seq,
                lane,
                kind,
            });
            candidate_keys.push(i);
        }
        let chosen = if candidates.len() > 1 {
            let policy = self
                .policy
                .as_mut()
                .expect("pop_with_policy without policy");
            let c = policy.choose(t, &candidates).min(candidates.len() - 1);
            self.decisions.push(Decision {
                time: t,
                step: self.steps.len(),
                candidates,
                chosen: c,
            });
            c
        } else {
            0
        };
        let key = keys.swap_remove(candidate_keys[chosen]);
        let ev = self.queue.take_key(key);
        self.queue.unpop(keys);
        self.steps.push(StepRecord {
            seq: ev.seq,
            time: ev.time,
            trace_lo: self.tracer.len(),
        });
        PolicyPop::Run(ev)
    }

    /// The drained-queue outcome: success iff no process is still parked.
    fn drained(&self) -> Result<(), SimError> {
        let parked: Vec<String> = self
            .procs
            .values()
            .filter(|e| e.alive)
            .map(|e| e.name.to_string())
            .collect();
        if parked.is_empty() {
            return Ok(());
        }
        Err(SimError::Deadlock(DeadlockInfo {
            time: self.now,
            parked,
        }))
    }
}

/// Shared kernel handle. Internal; exposed types are [`Sim`] and [`SimCtx`].
pub struct Shared {
    pub(crate) state: RefCell<KernelState>,
    /// Mirror of the tracer's enabled flag, so the per-message trace calls
    /// on the hot path ([`SimCtx::trace`], [`SimCtx::kill`]) skip borrowing
    /// the state when tracing is off (the common case: only tests and
    /// debugging sessions enable it).
    trace_on: Cell<bool>,
}

impl Shared {
    /// Schedule a model closure. Used by both [`SimCtx`] and [`ProcCtx`].
    pub(crate) fn schedule_call(
        self: &Rc<Self>,
        at: SimTime,
        lane: Option<u64>,
        f: impl FnOnce(&SimCtx) + 'static,
    ) -> EventId {
        let mut st = self.state.borrow_mut();
        let now = st.now;
        debug_assert!(at >= now, "scheduling into the past: at={at:?} now={now:?}");
        st.queue
            .push(at.max(now), lane, EventKind::Call(Box::new(f)))
    }

    fn schedule_resume(&self, at: SimTime, pid: Pid, kind: WakeKind) -> EventId {
        let mut st = self.state.borrow_mut();
        let at = at.max(st.now);
        st.queue
            .push(at, Some(pid.lane()), EventKind::Resume(pid, kind))
    }

    /// Schedule the model closure of a [`ProcCtx::exec`] call, remembering it
    /// so it can be cancelled if the process is killed before it runs.
    pub(crate) fn schedule_exec(
        self: &Rc<Self>,
        pid: Pid,
        at: SimTime,
        f: impl FnOnce(&SimCtx) + 'static,
    ) {
        let mut st = self.state.borrow_mut();
        let at = at.max(st.now);
        // The wrapper clears the pending marker as soon as the call runs, so
        // `pending_exec` is `Some` exactly while the event is still queued
        // (keeping cancellation tombstones precise).
        let id = st.queue.push(
            at,
            Some(pid.lane()),
            EventKind::Call(Box::new(move |sc: &SimCtx| {
                if let Some(e) = sc.shared().state.borrow_mut().procs.get_mut(pid) {
                    e.pending_exec = None;
                }
                f(sc);
            })),
        );
        if let Some(entry) = st.procs.get_mut(pid) {
            entry.pending_exec = Some(id);
        }
    }
}

/// Why a run ended unsuccessfully.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while processes were still parked.
    Deadlock(DeadlockInfo),
    /// A simulated process panicked (model or application bug).
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Rendered panic message.
        message: String,
    },
    /// The configured event budget was exhausted (runaway model).
    EventBudgetExhausted {
        /// Number of events executed before giving up.
        executed: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(info) => {
                write!(
                    f,
                    "simulation deadlock at {}: {} parked process(es): {}",
                    info.time,
                    info.parked.len(),
                    info.parked.join(", ")
                )
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::EventBudgetExhausted { executed } => {
                write!(f, "event budget exhausted after {executed} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Details of a detected deadlock.
#[derive(Debug)]
pub struct DeadlockInfo {
    /// Virtual time at which the queue drained.
    pub time: SimTime,
    /// Names of the processes still parked.
    pub parked: Vec<String>,
}

/// Summary of a completed run.
#[derive(Debug)]
pub struct RunReport {
    /// Kernel clock when the run ended.
    pub final_time: SimTime,
    /// Number of events executed.
    pub events_executed: u64,
    /// Exit records `(pid, name, status)` in completion order.
    pub exits: Vec<(Pid, String, ProcessExit)>,
    /// Collected trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Whether the run ended because [`SimCtx::request_stop`] was called.
    pub stopped: bool,
    /// Exploration mode only: every instant at which more than one
    /// candidate was ready, with the policy's choice. Empty otherwise.
    pub decisions: Vec<Decision>,
    /// Exploration mode only: one record per executed event, in execution
    /// order; each step's trace effects are
    /// `trace[step.trace_lo..next_step.trace_lo]`. Empty otherwise.
    pub steps: Vec<StepRecord>,
}

/// Service handle available to model closures while they run on the kernel
/// loop. All methods are safe to call at any point inside an event handler.
pub struct SimCtx {
    shared: Rc<Shared>,
    now: SimTime,
}

impl SimCtx {
    pub(crate) fn shared(&self) -> &Rc<Shared> {
        &self.shared
    }

    /// The current event's virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the next pending event, if any. Event handlers use this
    /// to decide how far they may safely fast-forward: up to (but not
    /// including) the next event, nothing else can observe or perturb model
    /// state. The flow layer's chunk batching is built on exactly that
    /// window.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shared.state.borrow_mut().queue.peek_time()
    }

    /// The configured stop horizon ([`Sim::set_max_time`]), if any. Batched
    /// fast-forwarding must not cross it: the unbatched kernel would have
    /// stopped at the first event past the horizon.
    pub fn horizon(&self) -> Option<SimTime> {
        self.shared.state.borrow().max_time
    }

    /// Account for `n` events that a batching optimization proved
    /// equivalent to — and therefore did not schedule. Keeps
    /// [`RunReport::events_executed`] (which feeds calibration tables and
    /// cache fingerprints) identical between the batched and unbatched
    /// kernels.
    pub fn credit_virtual_events(&self, n: u64) {
        self.shared.state.borrow_mut().executed += n;
    }

    /// Schedule `f` at absolute time `at` (clamped to now if in the past).
    pub fn schedule(&self, at: SimTime, f: impl FnOnce(&SimCtx) + 'static) -> EventId {
        self.shared.schedule_call(at.max(self.now), None, f)
    }

    /// Schedule `f` at `at` in a tiebreak *lane*: same-time events in the
    /// same lane always run in scheduling order, even under a perturbation
    /// seed ([`Sim::set_tiebreak_seed`]). Model code keys an event by the
    /// entity whose state it mutates — e.g. message arrivals by the
    /// destination process's [`Pid::lane`] — so that the defined semantics
    /// of same-entity ordering (channel FIFO, op boundaries) survive
    /// perturbation while independent events still permute. `None` marks
    /// the event as freely permutable, same as [`SimCtx::schedule`].
    pub fn schedule_keyed(
        &self,
        at: SimTime,
        lane: Option<u64>,
        f: impl FnOnce(&SimCtx) + 'static,
    ) -> EventId {
        self.shared.schedule_call(at.max(self.now), lane, f)
    }

    /// Schedule `f` after a delay.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&SimCtx) + 'static) -> EventId {
        self.shared.schedule_call(self.now + d, None, f)
    }

    /// Cancel a previously scheduled event. Cancelling an already-executed
    /// event is a harmless no-op.
    pub fn cancel(&self, id: EventId) {
        self.shared.state.borrow_mut().queue.cancel(id);
    }

    /// Wake a parked process now (no-op if it has exited).
    pub fn resume(&self, pid: Pid) {
        self.shared.schedule_resume(self.now, pid, WakeKind::Normal);
    }

    /// Wake a parked process at a future time.
    pub fn resume_at(&self, pid: Pid, at: SimTime) {
        self.shared.schedule_resume(at, pid, WakeKind::Normal);
    }

    /// Kill a process: the kernel drops the process's state machine at the
    /// kill wake (a pure state transition that runs the machine's
    /// destructors). No-op for already-dead processes.
    pub fn kill(&self, pid: Pid) {
        // Pre-format the trace detail before borrowing the state; with
        // tracing off (the common case) the whole call is one borrow.
        let trace_detail = self.shared.trace_on.get().then(|| format!("kill {pid}"));
        let mut st = self.shared.state.borrow_mut();
        let Some(entry) = st.procs.get(pid) else {
            return;
        };
        if !entry.alive {
            return;
        }
        if let Some(detail) = trace_detail {
            st.tracer.record(TraceEvent {
                time: self.now,
                kind: TraceKind::Kill,
                pid: Some(pid),
                detail,
            });
        }
        let at = self.now.max(st.now);
        st.queue.push(
            at,
            Some(pid.lane()),
            EventKind::Resume(pid, WakeKind::Killed),
        );
    }

    /// Is the process still alive (spawned and not yet exited)?
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.shared
            .state
            .borrow()
            .procs
            .get(pid)
            .map(|e| e.alive)
            .unwrap_or(false)
    }

    /// Spawn a new simulated process that starts at time `at`. The body is
    /// an async function of the process's [`ProcCtx`]; its suspension points
    /// are the kernel interactions ([`ProcCtx::exec`] and the sleep
    /// helpers).
    pub fn spawn_at<F, Fut>(&self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, at.max(self.now), name.into(), f)
    }

    /// Spawn a new simulated process that starts immediately.
    pub fn spawn<F, Fut>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn_at(self.now, name, f)
    }

    /// Ask the kernel loop to stop after the current event.
    pub fn request_stop(&self) {
        self.shared.state.borrow_mut().stop_requested = true;
    }

    /// Record a model trace event. With tracing disabled (the common case)
    /// this is a single flag read — no borrow, no formatting.
    pub fn trace(&self, label: &'static str, pid: Option<Pid>, detail: impl FnOnce() -> String) {
        if !self.shared.trace_on.get() {
            return;
        }
        let ev = TraceEvent {
            time: self.now,
            kind: TraceKind::Model(label),
            pid,
            detail: detail(),
        };
        self.shared.state.borrow_mut().tracer.record(ev);
    }

    /// Record a typed protocol event (see [`crate::ProtoEvent`]). Same gate
    /// as [`SimCtx::trace`]: with tracing disabled this is a single flag
    /// read, so protocol hot paths (every message send/delivery) stay
    /// zero-cost in ordinary runs.
    pub fn trace_proto(&self, ev: crate::trace::ProtoEvent) {
        if !self.shared.trace_on.get() {
            return;
        }
        let rec = TraceEvent {
            time: self.now,
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        };
        self.shared.state.borrow_mut().tracer.record(rec);
    }
}

fn spawn_inner<F, Fut>(shared: &Rc<Shared>, start_at: SimTime, name: String, f: F) -> Pid
where
    F: FnOnce(ProcCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let name: Rc<str> = Rc::from(name.as_str());
    let mut st = shared.state.borrow_mut();
    let pid = Pid(st.next_pid);
    st.next_pid += 1;
    if st.tracer.enabled() {
        let detail = format!("spawn '{name}'");
        let now = st.now;
        st.tracer.record(TraceEvent {
            time: now,
            kind: TraceKind::Spawn,
            pid: Some(pid),
            detail,
        });
    }
    // The body is materialized as a kernel-owned state machine at its
    // first Normal wake.
    st.procs.insert(
        pid,
        ProcEntry {
            name,
            body: ProcBody::Embryo(Box::new(move |ctx| Box::pin(f(ctx)))),
            alive: true,
            pending_exec: None,
        },
    );
    let now = st.now;
    st.queue.push(
        start_at.max(now),
        Some(pid.lane()),
        EventKind::Resume(pid, WakeKind::Normal),
    );
    pid
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The simulation: owns the kernel state and drives the event loop.
pub struct Sim {
    shared: Rc<Shared>,
}

/// One unit of work popped while the state is borrowed and dispatched after
/// the borrow ends.
enum Dispatch {
    Call(Box<dyn FnOnce(&SimCtx)>, SimTime),
    /// Step the process's state machine inline.
    Poll(Pid, SimTime, WakeKind),
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Sim {
        Sim {
            shared: Rc::new(Shared {
                state: RefCell::new(KernelState {
                    queue: EventQueue::default(),
                    now: SimTime::ZERO,
                    procs: ProcTable::default(),
                    next_pid: 0,
                    stop_requested: false,
                    executed: 0,
                    max_events: None,
                    max_time: None,
                    tracer: Tracer::default(),
                    exits: Vec::new(),
                    policy: None,
                    decisions: Vec::new(),
                    steps: Vec::new(),
                }),
                trace_on: Cell::new(false),
            }),
        }
    }

    /// Cap the number of events (defence against runaway models).
    pub fn set_max_events(&mut self, n: u64) {
        self.shared.state.borrow_mut().max_events = Some(n);
    }

    /// Stop the run once the kernel clock passes `t` (remaining processes are
    /// killed during teardown).
    pub fn set_max_time(&mut self, t: SimTime) {
        self.shared.state.borrow_mut().max_time = Some(t);
    }

    /// Enable trace collection (returned in the [`RunReport`]).
    pub fn enable_trace(&mut self) {
        self.shared.state.borrow_mut().tracer.set_enabled(true);
        self.shared.trace_on.set(true);
    }

    /// Perturb same-time event tiebreaks with a seeded permutation.
    ///
    /// Every run remains fully deterministic for a given seed; what changes
    /// is the execution order of *independent* events scheduled for the
    /// same virtual instant (causal chains are unaffected: an event
    /// scheduled by another still runs after it). The `ftmpi-check` race
    /// detector re-runs configurations under several seeds and compares
    /// trace fingerprints — a difference means some model or protocol state
    /// depends on the arbitrary tie order. Call before the run starts.
    pub fn set_tiebreak_seed(&mut self, seed: u64) {
        self.shared.state.borrow_mut().queue.set_tiebreak_seed(seed);
    }

    /// Install a [`SchedulePolicy`] (exploration mode). Every pop with more
    /// than one ready candidate consults the policy; [`RunReport::decisions`]
    /// and [`RunReport::steps`] record the run's choice points and step
    /// effects. Call before scheduling
    /// anything (the queue starts recording lanes here).
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        let mut st = self.shared.state.borrow_mut();
        st.queue.record_lanes();
        st.policy = Some(policy);
    }

    /// Convenience constructor for a [`SharedFlag`].
    pub fn shared_flag(&self) -> crate::process::SharedFlag {
        crate::process::SharedFlag::new()
    }

    /// Spawn an initial process starting at time zero. See
    /// [`SimCtx::spawn_at`] for the async body contract.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, SimTime::ZERO, name.into(), f)
    }

    /// Spawn an initial process starting at `at`.
    pub fn spawn_at<F, Fut>(&mut self, at: SimTime, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_inner(&self.shared, at, name.into(), f)
    }

    /// Schedule a model closure before the run starts.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&SimCtx) + 'static) -> EventId {
        self.shared.schedule_call(at, None, f)
    }

    /// Schedule a network-fault transition (link down / degrade / restore,
    /// partition start / heal) before the run starts. Fault transitions race
    /// with every flow chunk and retry probe touching the same link, so a
    /// tiebreak `lane` is mandatory: same-lane same-time events keep their
    /// scheduling order under any perturbation seed.
    pub fn schedule_link_fault(
        &mut self,
        at: SimTime,
        lane: u64,
        f: impl FnOnce(&SimCtx) + 'static,
    ) -> EventId {
        let mut st = self.shared.state.borrow_mut();
        let at = at.max(st.now);
        st.queue
            .push(at, Some(lane), EventKind::LinkFault(Box::new(f)))
    }

    /// Drive the event loop to completion.
    ///
    /// Ends when the queue drains with no parked processes, when a stop is
    /// requested, or when a budget/deadline triggers. Processes still parked
    /// at the end are killed (their state machines dropped) before this
    /// returns.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let result = self.run_loop();
        // Always tear down remaining processes, even on error paths.
        self.teardown();
        let mut st = self.shared.state.borrow_mut();
        let report = RunReport {
            final_time: st.now,
            events_executed: st.executed,
            exits: st
                .exits
                .iter()
                .map(|(p, n, e)| (*p, n.to_string(), e.clone()))
                .collect(),
            trace: st.tracer.take(),
            stopped: st.stop_requested,
            decisions: std::mem::take(&mut st.decisions),
            steps: std::mem::take(&mut st.steps),
        };
        drop(st);
        result.map(|()| report)
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        loop {
            let dispatch = {
                let mut st = self.shared.state.borrow_mut();
                if st.stop_requested {
                    return Ok(());
                }
                if let Some(max) = st.max_events {
                    if st.executed >= max {
                        return Err(SimError::EventBudgetExhausted {
                            executed: st.executed,
                        });
                    }
                }
                let ev = if st.policy.is_some() {
                    match st.pop_with_policy() {
                        PolicyPop::Drained => return st.drained(),
                        PolicyPop::Horizon => return Ok(()),
                        PolicyPop::Retry => continue,
                        PolicyPop::Run(ev) => ev,
                    }
                } else {
                    let Some(ev) = st.queue.pop() else {
                        return st.drained();
                    };
                    // Resumes aimed at dead processes are stale: drop them
                    // without advancing the clock, so a killed process's
                    // pending wakes don't distort the final time.
                    if let EventKind::Resume(pid, _) = ev.kind {
                        let alive = st.procs.get(pid).map(|e| e.alive).unwrap_or(false);
                        if !alive {
                            continue;
                        }
                    }
                    // Past the horizon: stop without consuming the event
                    // (the clock must not advance beyond max_time).
                    if st.max_time.map(|mt| ev.time > mt).unwrap_or(false) {
                        st.stop_requested = true;
                        return Ok(());
                    }
                    ev
                };
                debug_assert!(ev.time >= st.now, "event queue went backwards");
                st.now = ev.time;
                match ev.kind {
                    EventKind::Call(f) | EventKind::LinkFault(f) => {
                        st.executed += 1;
                        Dispatch::Call(f, ev.time)
                    }
                    EventKind::Resume(pid, kind) => Dispatch::Poll(pid, ev.time, kind),
                }
            };
            match dispatch {
                Dispatch::Call(f, time) => {
                    let sc = SimCtx {
                        shared: Rc::clone(&self.shared),
                        now: time,
                    };
                    f(&sc);
                }
                Dispatch::Poll(pid, time, kind) => {
                    if let Some(err) = self.drive_coro(pid, kind, time) {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Step a process: deposit the wake and poll its state machine inline.
    /// The machine is taken out of the table and polled with the state
    /// unborrowed — polling reenters the kernel (`exec` schedules its Call
    /// event). A kill wake never reaches the machine: killing is a state
    /// transition in which the kernel drops the machine (running its Drop
    /// impls) and records the exit.
    fn drive_coro(&self, pid: Pid, kind: WakeKind, now: SimTime) -> Option<SimError> {
        enum Step {
            Drop(ProcBody),
            Start(EmbryoFn, Rc<WakeSlot>, ProcCtx),
            Poll(CoroFuture, Rc<WakeSlot>),
        }
        let step = {
            let mut st = self.shared.state.borrow_mut();
            // One executed event per delivered wake (a kill delivery also
            // counts 1).
            st.executed += 1;
            let e = st.procs.get_mut(pid)?;
            if !e.alive {
                return None;
            }
            match kind {
                WakeKind::Killed => {
                    let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                    Step::Drop(body)
                }
                WakeKind::Normal => match std::mem::replace(&mut e.body, ProcBody::Running) {
                    ProcBody::Embryo(factory) => {
                        let slot = WakeSlot::new();
                        let ctx = ProcCtx {
                            pid,
                            name: Rc::clone(&e.name),
                            wake: Rc::clone(&slot),
                            shared: Rc::clone(&self.shared),
                            local_time: now,
                        };
                        Step::Start(factory, slot, ctx)
                    }
                    ProcBody::Coro { fut, slot } => {
                        slot.put(now);
                        Step::Poll(fut, slot)
                    }
                    other => {
                        // A live coroutine is always parked between wakes.
                        e.body = other;
                        debug_assert!(false, "coroutine resumed in an undrivable state");
                        return None;
                    }
                },
            }
        };
        let (pending, slot) = match step {
            Step::Drop(body) => {
                // Drop after the borrow ends: the machine's Drop impls may run
                // arbitrary model-state destructors.
                drop(body);
                return self.record_exit(pid, now, ProcessExit::Killed);
            }
            Step::Start(factory, slot, ctx) => (CoroStep::New(factory, ctx), slot),
            Step::Poll(fut, slot) => (CoroStep::Existing(fut), slot),
        };
        enum CoroStep {
            New(EmbryoFn, ProcCtx),
            Existing(CoroFuture),
        }
        // Construct (first wake) and poll with panics contained: a panicking
        // body becomes a `ProcessExit::Panicked`, not a kernel unwind.
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fut = match pending {
                CoroStep::New(factory, ctx) => factory(ctx),
                CoroStep::Existing(fut) => fut,
            };
            let mut cx = Context::from_waker(Waker::noop());
            match fut.as_mut().poll(&mut cx) {
                Poll::Pending => Some(fut),
                Poll::Ready(()) => None,
            }
        }));
        match polled {
            Ok(Some(fut)) => {
                // Parked at a suspension point: store the machine back.
                let mut st = self.shared.state.borrow_mut();
                if let Some(e) = st.procs.get_mut(pid) {
                    e.body = ProcBody::Coro { fut, slot };
                }
                None
            }
            Ok(None) => self.record_exit(pid, now, ProcessExit::Normal),
            Err(payload) => {
                self.record_exit(pid, now, ProcessExit::Panicked(panic_message(&*payload)))
            }
        }
    }

    /// Exit bookkeeping: dead-mark, pending `exec` cancellation, exit trace
    /// and record, panic escalation.
    fn record_exit(&self, pid: Pid, now: SimTime, status: ProcessExit) -> Option<SimError> {
        let mut st = self.shared.state.borrow_mut();
        let name = if let Some(e) = st.procs.get_mut(pid) {
            e.alive = false;
            e.body = ProcBody::Gone;
            let pending = e.pending_exec.take();
            let name = Rc::clone(&e.name);
            if let Some(id) = pending {
                st.queue.cancel(id);
            }
            name
        } else {
            Rc::from("?")
        };
        if st.tracer.enabled() {
            let detail = format!("exit '{name}': {status:?}");
            st.tracer.record(TraceEvent {
                time: now,
                kind: TraceKind::Exit,
                pid: Some(pid),
                detail,
            });
        }
        st.exits.push((pid, Rc::clone(&name), status.clone()));
        if let ProcessExit::Panicked(message) = status {
            return Some(SimError::ProcessPanicked {
                name: name.to_string(),
                message,
            });
        }
        None
    }

    /// Kill every remaining process, lowest pid first, dropping each state
    /// machine after the borrow ends (its Drop impls may run arbitrary
    /// model-state destructors).
    fn teardown(&mut self) {
        loop {
            let body = {
                let mut st = self.shared.state.borrow_mut();
                let Some(pid) = st
                    .procs
                    .iter()
                    .filter(|(_, e)| e.alive)
                    .map(|(pid, _)| pid)
                    .min()
                else {
                    break;
                };
                let Some(e) = st.procs.get_mut(pid) else {
                    break;
                };
                let body = std::mem::replace(&mut e.body, ProcBody::Gone);
                e.alive = false;
                let name = Rc::clone(&e.name);
                st.exits.push((pid, name, ProcessExit::Killed));
                body
            };
            drop(body);
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.teardown();
    }
}
