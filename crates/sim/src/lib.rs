//! Deterministic process-oriented discrete-event simulation kernel.
//!
//! This crate is the substrate every other `ftmpi` crate runs on. It provides
//! a virtual clock, an event queue ordered by `(time, sequence)`, and
//! *simulated processes*: `async` Rust bodies compiled into resumable state
//! machines that the kernel owns and steps **inline** from its event loop —
//! no OS thread per process, so topologies with 10⁵⁺ processes fit in one
//! scheduler thread. Execution stays strictly sequential (one machine steps
//! at a time), so every run with the same inputs takes the same scheduling
//! decisions and produces bit-identical virtual timings.
//!
//! # Lazy local clocks
//!
//! Simulated computation is free: [`ProcCtx::advance`] only bumps the
//! process-local clock. The kernel is involved only when a process interacts
//! with shared model state through [`ProcCtx::exec`], which schedules a
//! closure *at the process's local time* and suspends the state machine until
//! the model wakes it through a [`Reply`]. This keeps event counts
//! proportional to communication operations, not compute phases.
//!
//! # Failure injection
//!
//! Processes can be killed at any virtual time ([`SimCtx::kill`]). The kernel
//! drops a killed process's state machine at the kill wake — a pure state
//! transition that runs the machine's destructors, mirroring the "task killed
//! by the operating system" failure model of the paper this workspace
//! reproduces.
//!
//! # Example
//!
//! ```
//! use ftmpi_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! let done = sim.shared_flag();
//! sim.spawn("worker", move |mut ctx| async move {
//!     ctx.advance(SimDuration::from_secs_f64(2.5)); // simulated compute
//!     ctx.sleep_until_local().await;                // sync with the kernel
//!     done.set();
//! });
//! let report = sim.run().unwrap();
//! assert!(report.final_time.as_secs_f64() >= 2.5);
//! ```

#![warn(missing_docs)]

mod arena;
mod event;
mod kernel;
mod ladder;
pub mod microbench;
mod process;
mod reply;
mod schedule;
mod table;
mod time;
mod trace;

pub use event::EventId;
pub use kernel::{DeadlockInfo, RunReport, Sim, SimCtx, SimError};
pub use process::{Pid, ProcCtx, ProcessExit, SharedFlag};
pub use reply::Reply;
pub use schedule::{
    Candidate, CandidateKind, Decision, PrescribedPolicy, SchedulePolicy, StepRecord,
};
pub use time::{SimDuration, SimTime};
pub use trace::{ProtoEvent, TraceEvent, TraceKind, Tracer};
