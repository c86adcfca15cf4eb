//! Completion tokens connecting model event handlers to parked processes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::kernel::SimCtx;
use crate::process::Pid;
use crate::time::SimTime;

/// The write-half of a pending [`ProcCtx::exec`](crate::ProcCtx::exec) call.
///
/// Model code receives a `Reply<R>` together with the request. It must
/// eventually call [`complete`](Reply::complete) (immediately or from a later
/// event) to deliver the result and wake the process. Dropping a `Reply`
/// without completing it leaves the process parked forever — the kernel
/// reports this as a deadlock, which is the desired loud failure for a model
/// bug (or the correct silent behaviour for a process that is about to be
/// killed).
#[derive(Debug)]
pub struct Reply<R> {
    pid: Pid,
    slot: Rc<RefCell<Option<R>>>,
}

impl<R: 'static> Reply<R> {
    pub(crate) fn new(pid: Pid, slot: Rc<RefCell<Option<R>>>) -> Self {
        Reply { pid, slot }
    }

    /// The process waiting on this reply.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Deliver `value` and wake the process at the current event time.
    pub fn complete(self, sc: &SimCtx, value: R) {
        *self.slot.borrow_mut() = Some(value);
        sc.resume(self.pid);
    }

    /// Deliver `value` and wake the process at the (future) time `at`.
    pub fn complete_at(self, sc: &SimCtx, at: SimTime, value: R) {
        let Reply { pid, slot } = self;
        *slot.borrow_mut() = Some(value);
        sc.resume_at(pid, at);
    }
}
