//! Simulated processes: resumable state machines driven by the kernel.
//!
//! A simulated process is an `async` body compiled by rustc into an
//! enum-encoded state machine with one suspension point per kernel
//! interaction ([`ProcCtx::exec`] and the sleep helpers built on it). The
//! kernel owns the machine and steps it inline from the event loop: a
//! Resume event is a direct `poll` call on the scheduler's own thread.
//! Exactly one machine steps at a time, so model state never sees
//! concurrent access.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};

use parking_lot::Mutex;

use crate::kernel::SimCtx;
use crate::reply::Reply;
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated process. Never reused within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl Pid {
    /// Tiebreak lane for events targeting this process (see
    /// [`SimCtx::schedule_keyed`](crate::SimCtx::schedule_keyed)): same-time
    /// events aimed at one process always run in scheduling order, even
    /// under a perturbation seed, because their order is model semantics
    /// (channel FIFO, op boundaries) rather than an accident.
    pub fn lane(self) -> u64 {
        self.0
    }
}

/// How a process's life ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessExit {
    /// The process function returned.
    Normal,
    /// The process was killed by the failure injector / kernel teardown.
    Killed,
    /// The process function panicked (a bug in model or application code).
    Panicked(String),
}

/// Why a parked process is being resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeKind {
    Normal,
    Killed,
}

/// The wake mailbox of a process: the kernel drive loop deposits the
/// resume time here immediately before polling the process's state
/// machine, and the machine's pending suspension point consumes it. Only
/// Normal wakes arrive here — a kill drops the machine instead. Only the
/// kernel loop touches it; the mutex exists so the future stays `Send` for
/// storage in the shared kernel state.
pub(crate) struct WakeSlot(Mutex<Option<SimTime>>);

impl WakeSlot {
    pub fn new() -> Arc<WakeSlot> {
        Arc::new(WakeSlot(Mutex::new(None)))
    }

    /// Kernel side: deposit the wake the next poll will consume.
    pub fn put(&self, now: SimTime) {
        let prev = self.0.lock().replace(now);
        debug_assert!(
            prev.is_none(),
            "wake deposited while a previous wake was still unconsumed"
        );
    }

    /// Suspension side: consume the pending wake, if any.
    pub fn take(&self) -> Option<SimTime> {
        self.0.lock().take()
    }
}

/// One suspension point: resolves to the kernel time of the next wake.
struct Suspend<'a> {
    slot: &'a WakeSlot,
}

impl Future for Suspend<'_> {
    type Output = SimTime;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.slot.take() {
            Some(now) => Poll::Ready(now),
            None => Poll::Pending,
        }
    }
}

/// Per-process handle given to the process body.
///
/// Carries the *lazy local clock*: [`advance`](ProcCtx::advance) models
/// computation without kernel interaction, while [`exec`](ProcCtx::exec)
/// synchronizes with the kernel at the process's local time.
pub struct ProcCtx {
    pub(crate) pid: Pid,
    pub(crate) name: Arc<str>,
    pub(crate) wake: Arc<WakeSlot>,
    pub(crate) shared: Arc<crate::kernel::Shared>,
    pub(crate) local_time: SimTime,
}

impl ProcCtx {
    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The process name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process-local virtual clock. Always at or ahead of kernel time.
    pub fn now(&self) -> SimTime {
        self.local_time
    }

    /// Model `d` of local computation: advances only the local clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.local_time += d;
    }

    /// Schedule `f` on the kernel at this process's local time and suspend
    /// until the model completes the [`Reply`]. Returns the reply value; the
    /// local clock is advanced to the completion time.
    ///
    /// `f` must either call [`Reply::complete`] (or a variant) before
    /// returning, or stash the reply in model state so that a later event
    /// completes it. Waking a process without filling its reply is a model
    /// bug and panics.
    pub async fn exec<R, F>(&mut self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&SimCtx, Reply<R>) + Send + 'static,
    {
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let reply = Reply::new(self.pid, Arc::clone(&slot));
        self.shared
            .schedule_exec(self.pid, self.local_time, move |sc| f(sc, reply));
        // A kill never resolves this suspension: the kernel drops the
        // state machine instead, running every live local's destructor.
        let resume_time = Suspend { slot: &self.wake }.await;
        if resume_time > self.local_time {
            self.local_time = resume_time;
        }
        let value = slot
            .lock()
            .take()
            .expect("process woken without a completed reply (model bug)");
        value
    }

    /// Suspend until the kernel clock catches up with the local clock.
    ///
    /// Useful to make locally-accumulated compute time observable (e.g. at
    /// the end of a process, or before reading shared state).
    pub async fn sleep_until_local(&mut self) {
        self.exec::<(), _>(|sc, reply| reply.complete(sc, ())).await
    }

    /// Advance the local clock by `d` and synchronize with the kernel:
    /// a timed wait during which other processes run.
    pub async fn sleep(&mut self, d: SimDuration) {
        self.advance(d);
        self.sleep_until_local().await;
    }
}

/// A tiny thread-safe boolean used by tests and examples to observe
/// completion from outside the simulation.
#[derive(Debug, Clone, Default)]
pub struct SharedFlag(Arc<AtomicBool>);

impl SharedFlag {
    /// Create an unset flag.
    pub fn new() -> Self {
        Self::default()
    }
    /// Raise the flag.
    pub fn set(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
    /// Read the flag.
    pub fn get(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}
