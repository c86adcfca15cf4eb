//! The fault-tolerance protocol hook interface.
//!
//! These hooks correspond to the integration points the paper describes:
//!
//! * [`Protocol::on_send_post`] — MPICH2-Pcl adds "a hook in the request
//!   posting function for verifying and delaying these posts if a checkpoint
//!   wave is currently active";
//! * [`Protocol::on_arrival`] — MPICH-Vcl's daemon stores in-transit
//!   messages per Chandy–Lamport; Nemesis-Pcl copies packets from blocked
//!   processes into a delayed receive queue;
//! * [`Protocol::on_runtime_entry`] — in the blocking protocol, markers are
//!   only handled when the process is inside the MPI library (the progress
//!   engine runs); the non-blocking protocol handles them asynchronously in
//!   its separate daemon process and ignores this hook.
//!
//! `Protocol: Any`: the world's type-erased engine upcasts to
//! `&mut dyn Any`, from which `ftmpi-core` recovers its concrete engine —
//! no per-engine conversion hook.

use std::any::Any;

use ftmpi_sim::SimCtx;

use crate::runtime::RuntimeCore;
use crate::types::{AppMsg, Rank};

/// Verdict of [`Protocol::on_send_post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Inject the message into the network now.
    Proceed,
    /// The protocol took ownership of the message and will inject it later
    /// (blocking protocol during a checkpoint wave).
    Hold,
}

/// Verdict of [`Protocol::on_arrival`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalAction {
    /// Hand the message to the matching engine now.
    Deliver,
    /// The protocol took ownership (delayed receive queue) and will deliver
    /// it later.
    Hold,
}

/// Fault-tolerance protocol engine plugged into the runtime.
///
/// Implementations live in `ftmpi-core`; [`DummyProtocol`] (the paper's
/// "Vdummy" / plain runs) is provided here as the no-op baseline.
pub trait Protocol: Any + Send {
    /// Short name used in reports ("dummy", "vcl", "pcl").
    fn name(&self) -> &'static str;

    /// A rank's application thread entered the runtime (any operation).
    /// Deferred control handling (blocking-protocol markers) happens here.
    fn on_runtime_entry(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank);

    /// A rank just parked inside a blocking operation: its progress engine
    /// is now polling, so deferred control traffic can be handled even
    /// though the application is not issuing operations.
    fn on_progress_poll(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        self.on_runtime_entry(rt, sc, rank);
    }

    /// An application send is about to be injected into the network.
    fn on_send_post(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> SendAction;

    /// An application message arrived at the destination's runtime.
    fn on_arrival(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, msg: &AppMsg) -> ArrivalAction;

    /// A rank's application code finished (rank reached `Mpi::finalize`).
    fn on_rank_finished(&mut self, rt: &mut RuntimeCore, sc: &SimCtx, rank: Rank) {
        let _ = (rt, sc, rank);
    }
}

/// No-fault-tolerance baseline: all hooks pass through.
///
/// Equivalent to the paper's Vdummy protocol / checkpoint-free executions.
#[derive(Debug, Default)]
pub struct DummyProtocol;

impl Protocol for DummyProtocol {
    fn name(&self) -> &'static str {
        "dummy"
    }

    fn on_runtime_entry(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _rank: Rank) {}

    fn on_send_post(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> SendAction {
        SendAction::Proceed
    }

    fn on_arrival(&mut self, _rt: &mut RuntimeCore, _sc: &SimCtx, _msg: &AppMsg) -> ArrivalAction {
        ArrivalAction::Deliver
    }
}
