//! Schedule-policy hook: controlled choice among commuting same-time events.
//!
//! The kernel's canonical order among same-instant events is `(tiekey, seq)`
//! — an accident of scheduling order that model semantics must not depend
//! on. PR 2's perturbation seeds *sample* alternative orders; a
//! [`SchedulePolicy`] lets a controller (the `ftmpi-check explore` DPOR
//! loop) *enumerate* them: at every instant with more than one ready
//! schedulable unit, the kernel presents the candidates and the policy
//! picks which one runs next.
//!
//! A *candidate* is either a laneless event (freely permutable by
//! definition) or the front event of a tiebreak lane — same-lane same-time
//! events keep their scheduling order under every policy, exactly as they
//! do under every perturbation seed, because intra-lane order is defined
//! model semantics (channel FIFO, per-process op order), not scheduler
//! freedom. The policy therefore explores precisely the space the
//! perturbation seeds sample, no more.
//!
//! With a policy installed the kernel also records a [`Decision`] per
//! multi-candidate instant and a [`StepRecord`] per executed event, so a
//! controller can replay prefixes deterministically (feed the chosen
//! indices back through [`PrescribedPolicy`]) and attribute trace effects
//! to steps. Without a policy none of this machinery runs: ordinary
//! simulations take the exact pop path they always took.

use crate::process::Pid;
use crate::time::SimTime;

/// What kind of schedulable unit a candidate is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// A model closure (`Call` event).
    Call,
    /// A wake (resume or kill) aimed at the given process.
    Resume(Pid),
    /// A scheduled network-fault transition.
    LinkFault,
}

/// One schedulable unit offered to a [`SchedulePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The event's kernel sequence number (unique within a run; replays of
    /// the same choice prefix reproduce identical sequence numbers).
    pub seq: u64,
    /// The event's tiebreak lane (`None`: laneless, freely permutable).
    pub lane: Option<u64>,
    /// Event category.
    pub kind: CandidateKind,
}

/// A recorded scheduling decision: the candidate set at one instant and
/// which candidate the policy chose.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Virtual time of the tied instant.
    pub time: SimTime,
    /// Index into [`crate::RunReport::steps`] of the step that executed
    /// the chosen candidate.
    pub step: usize,
    /// The candidates offered, in canonical pop order (so index 0 is the
    /// event the policy-free kernel would have run).
    pub candidates: Vec<Candidate>,
    /// Index of the chosen candidate.
    pub chosen: usize,
}

/// One executed event in a policy-driven run: which event ran and where
/// its observable effects start in the recorded trace.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Kernel sequence number of the executed event.
    pub seq: u64,
    /// Virtual time the event executed at.
    pub time: SimTime,
    /// Trace length when the event was popped: the step's effects are the
    /// trace records in `[trace_lo, next_step.trace_lo)`. (Valid because
    /// execution is cooperative — everything a step causes, including the
    /// trace records of a resumed process, is recorded before the kernel
    /// pops the next event.)
    pub trace_lo: usize,
}

/// A controller choosing among same-instant candidates.
///
/// `choose` is called only when more than one candidate is ready; the
/// return value is clamped to the candidate range. Implementations must be
/// deterministic functions of their own state and the presented candidates
/// — the kernel replays a run by replaying the policy.
pub trait SchedulePolicy: Send {
    /// Pick the index of the candidate to execute next.
    fn choose(&mut self, time: SimTime, candidates: &[Candidate]) -> usize;
}

/// Policy that follows a prescribed list of choice indices, then falls
/// back to 0 (the canonical pop order) once the prescription is spent.
///
/// This is the DPOR frontier's replay vehicle: a schedule is identified by
/// its decision prefix, and `PrescribedPolicy::new(prefix)` deterministically
/// re-executes it — the canonical tail makes every prescription a complete
/// schedule.
#[derive(Debug, Default, Clone)]
pub struct PrescribedPolicy {
    choices: Vec<usize>,
    cursor: usize,
}

impl PrescribedPolicy {
    /// A policy replaying `choices`, canonical beyond them.
    pub fn new(choices: Vec<usize>) -> PrescribedPolicy {
        PrescribedPolicy { choices, cursor: 0 }
    }
}

impl SchedulePolicy for PrescribedPolicy {
    fn choose(&mut self, _time: SimTime, candidates: &[Candidate]) -> usize {
        let pick = self.choices.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        pick.min(candidates.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(seq: u64) -> Candidate {
        Candidate {
            seq,
            lane: None,
            kind: CandidateKind::Call,
        }
    }

    #[test]
    fn prescribed_policy_replays_then_goes_canonical() {
        let mut p = PrescribedPolicy::new(vec![2, 1]);
        let cs = [cand(0), cand(1), cand(2)];
        assert_eq!(p.choose(SimTime::ZERO, &cs), 2);
        assert_eq!(p.choose(SimTime::ZERO, &cs), 1);
        assert_eq!(p.choose(SimTime::ZERO, &cs), 0, "past the prescription");
        // Out-of-range prescriptions clamp instead of panicking (a shorter
        // candidate list on replay means the abstraction drifted; the
        // explorer detects that via fingerprints, not via a crash).
        let mut q = PrescribedPolicy::new(vec![9]);
        assert_eq!(q.choose(SimTime::ZERO, &cs[..2]), 1);
    }
}
