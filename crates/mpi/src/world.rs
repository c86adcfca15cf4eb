//! The shared world: runtime core + protocol engine in one `RefCell`, plus
//! the application-operation entry points and rank process spawning.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use ftmpi_sim::{Reply, SimCtx, SimDuration};

use crate::handle::Mpi;
use crate::protocol::{ArrivalAction, Protocol, SendAction};
use crate::runtime::{RankStatus, RecvSink, RuntimeCore};
use crate::types::{AppMsg, Rank, RecvInfo, Tag};

/// Shared mutable simulation state: the runtime core and the protocol.
///
/// Kept as two fields so protocol hooks can borrow the core mutably while
/// the protocol itself is borrowed (`let World { rt, proto } = ...`).
pub struct World {
    /// Protocol-independent runtime state.
    pub rt: RuntimeCore,
    /// The fault-tolerance protocol engine.
    pub proto: Box<dyn Protocol>,
}

/// Shared handle to the world. The kernel is single-threaded: event
/// handlers borrow the world for the length of one handler and release it
/// before anything else runs.
pub type WorldRef = Rc<RefCell<World>>;

/// The future returned by one invocation of a rank's application function.
pub type AppFuture = std::pin::Pin<Box<dyn std::future::Future<Output = Mpi>>>;

/// A rank's application function (shared so restarts can respawn it).
/// It stays `Send + Sync` because job descriptions holding it cross the
/// sweep runner's worker threads; the futures it returns never leave the
/// thread that runs the simulation.
///
/// The function takes ownership of the rank's [`Mpi`] handle and returns it
/// when the application code completes; the rank trampoline then finalizes.
/// Build one with [`app_fn`], which boxes an ordinary `async` closure body:
///
/// ```ignore
/// let app = app_fn(move |mut mpi| async move {
///     mpi.barrier().await;
///     mpi
/// });
/// ```
// lint:allow(single-thread) — shared with the sweep runner's threads.
pub type AppFn = Arc<dyn Fn(Mpi) -> AppFuture + Send + Sync>;

/// Wrap an async application body as an [`AppFn`].
pub fn app_fn<F, Fut>(f: F) -> AppFn
where
    // lint:allow(single-thread) — becomes an `AppFn`.
    F: Fn(Mpi) -> Fut + Send + Sync + 'static,
    Fut: std::future::Future<Output = Mpi> + 'static,
{
    Arc::new(move |mpi| Box::pin(f(mpi)))
}

impl World {
    /// Build the world and wire the internal back-reference used to
    /// schedule arrival events.
    pub fn new_ref(mut rt: RuntimeCore, proto: Box<dyn Protocol>) -> WorldRef {
        rt.world = std::rc::Weak::new(); // placeholder; set below
        let world = Rc::new(RefCell::new(World { rt, proto }));
        world.borrow_mut().rt.world = Rc::downgrade(&world);
        world
    }

    /// Common prologue of every application operation: consume pending
    /// penalties (fork pauses) and run the protocol's runtime-entry hook.
    /// Returns the penalty to add to the op's completion time.
    fn op_entry(&mut self, sc: &SimCtx, rank: Rank) -> SimDuration {
        // Hook first: a checkpoint taken on entry adds its fork pause to the
        // pending penalty, which this op then absorbs.
        self.proto.on_runtime_entry(&mut self.rt, sc, rank);
        self.rt.take_penalty(rank) + self.rt.ranks[rank].op_drag
    }

    /// Public runtime-entry notification (used by trivially-completing ops
    /// like waits on already-complete requests).
    pub fn proto_entry(&mut self, sc: &SimCtx, rank: Rank) {
        let penalty = self.op_entry(sc, rank);
        if !penalty.is_zero() {
            // This op completes instantly; the pending pause carries over.
            self.rt.add_penalty(rank, penalty);
        }
        let r = &mut self.rt.ranks[rank];
        r.ops_completed += 1;
        r.last_entry = sc.now();
    }

    /// An application message arrived at its destination's runtime.
    pub fn handle_arrival(&mut self, sc: &SimCtx, msg: AppMsg) {
        if self.rt.ranks[msg.dst].status == RankStatus::Dead {
            return; // message raced with a failure; dropped with the socket
        }
        match self.proto.on_arrival(&mut self.rt, sc, &msg) {
            ArrivalAction::Deliver => self.rt.deliver_to_matching(sc, msg),
            ArrivalAction::Hold => {}
        }
    }

    /// Application blocking send (eager/buffered semantics: completes once
    /// the message is handed to the communication layer).
    pub fn post_send(
        &mut self,
        sc: &SimCtx,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        reply: Reply<()>,
    ) {
        let penalty = self.op_entry(sc, src);
        let o_send = self.rt.cfg.profile.send_overhead + penalty;
        let seq = self.rt.next_seq(src, dst);
        let msg = AppMsg {
            src,
            dst,
            tag,
            bytes,
            seq,
            epoch: self.rt.epoch,
            posted_at: sc.now(),
        };
        let complete_at = sc.now() + o_send;
        {
            let r = &mut self.rt.ranks[src];
            r.ops_completed += 1;
            r.last_entry = complete_at;
        }
        match self.proto.on_send_post(&mut self.rt, sc, &msg) {
            SendAction::Proceed => self.rt.launch_send(sc, msg),
            SendAction::Hold => {}
        }
        reply.complete_at(sc, complete_at, ());
    }

    /// Fused shift operation: send `bytes` to `to` and receive a message
    /// from `from` with the same tag, as a single runtime operation. This
    /// is the hot pattern of pipelined sweeps and ring collectives; fusing
    /// it keeps large simulations to one kernel interaction per stage.
    #[allow(clippy::too_many_arguments)]
    pub fn post_shift(
        &mut self,
        sc: &SimCtx,
        me: Rank,
        to: Rank,
        from: Rank,
        tag: Tag,
        bytes: u64,
        reply: Reply<RecvInfo>,
    ) {
        // A shift stands for two MPI calls (send + recv): it pays the
        // standing per-operation drag twice so fusing operations does not
        // dilute progress-engine sharing costs. The penalty lands on this
        // shift's own completion.
        let penalty = self.op_entry(sc, me) + self.rt.ranks[me].op_drag;
        let seq = self.rt.next_seq(me, to);
        let msg = AppMsg {
            src: me,
            dst: to,
            tag,
            bytes,
            seq,
            epoch: self.rt.epoch,
            posted_at: sc.now(),
        };
        match self.proto.on_send_post(&mut self.rt, sc, &msg) {
            SendAction::Proceed => self.rt.launch_send(sc, msg),
            SendAction::Hold => {}
        }
        // The send half completes here (eager), the receive half when the
        // message arrives — two countable operations (see `Mpi::shift`).
        {
            let r = &mut self.rt.ranks[me];
            r.ops_completed += 1;
            r.last_entry = sc.now() + self.rt.cfg.profile.send_overhead;
        }
        let done = self.rt.post_recv_sink(
            sc,
            me,
            Some(from),
            Some(tag),
            RecvSink::Blocking(reply),
            penalty,
        );
        if !done {
            let r = &mut self.rt.ranks[me];
            r.blocked_in_lib = true;
            r.last_post = sc.now();
            self.proto.on_progress_poll(&mut self.rt, sc, me);
        }
    }

    /// Application blocking receive.
    pub fn post_recv_blocking(
        &mut self,
        sc: &SimCtx,
        dst: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
        reply: Reply<RecvInfo>,
    ) {
        let penalty = self.op_entry(sc, dst);
        let done = self
            .rt
            .post_recv_sink(sc, dst, src, tag, RecvSink::Blocking(reply), penalty);
        if !done {
            let r = &mut self.rt.ranks[dst];
            r.blocked_in_lib = true;
            r.last_post = sc.now();
            // The rank is now inside the progress engine: deferred control
            // traffic (blocking-protocol markers) can be handled.
            self.proto.on_progress_poll(&mut self.rt, sc, dst);
        }
    }

    /// Application nonblocking receive: registers a request and returns its
    /// id immediately.
    pub fn post_irecv(
        &mut self,
        sc: &SimCtx,
        dst: Rank,
        src: Option<Rank>,
        tag: Option<Tag>,
        reply: Reply<u64>,
    ) {
        let penalty = self.op_entry(sc, dst);
        let req_id = {
            let r = &mut self.rt.ranks[dst];
            let id = r.next_req_id;
            r.next_req_id += 1;
            r.requests.insert(id, Default::default());
            id
        };
        self.rt.post_recv_sink(
            sc,
            dst,
            src,
            tag,
            RecvSink::Request(req_id),
            SimDuration::ZERO,
        );
        let complete_at = sc.now() + self.rt.cfg.profile.recv_overhead + penalty;
        {
            let r = &mut self.rt.ranks[dst];
            r.ops_completed += 1;
            r.last_entry = complete_at;
        }
        reply.complete_at(sc, complete_at, req_id);
    }

    /// Application wait on a nonblocking receive request.
    pub fn wait_request(&mut self, sc: &SimCtx, rank: Rank, req_id: u64, reply: Reply<RecvInfo>) {
        let penalty = self.op_entry(sc, rank);
        let r = &mut self.rt.ranks[rank];
        let req = r
            .requests
            .get_mut(&req_id)
            .expect("wait on unknown request (application bug)");
        if let Some(done) = &req.done {
            let (info, done_at) = (done.info, done.at);
            r.requests.remove(&req_id);
            let complete_at = done_at.max(sc.now()) + penalty;
            r.ops_completed += 1;
            r.last_entry = complete_at;
            reply.complete_at(sc, complete_at, info);
        } else {
            req.waiter = Some(reply);
            r.blocked_in_lib = true;
            r.last_post = sc.now();
            if !penalty.is_zero() {
                // The wait completes on message arrival; carry the pause over.
                self.rt.add_penalty(rank, penalty);
            }
            self.proto.on_progress_poll(&mut self.rt, sc, rank);
        }
    }

    /// Rank finished its application code.
    pub fn mark_finished(&mut self, sc: &SimCtx, rank: Rank, reply: Reply<()>) {
        self.op_entry(sc, rank);
        let r = &mut self.rt.ranks[rank];
        if r.status == RankStatus::Running {
            r.status = RankStatus::Finished;
            self.rt.stats.finished_ranks += 1;
            if self.rt.stats.finished_ranks == self.rt.size() {
                self.rt.stats.completion_time = Some(sc.now());
            }
        }
        self.proto.on_rank_finished(&mut self.rt, sc, rank);
        reply.complete(sc, ());
    }
}

/// Spawn the simulated process running rank `rank` of the application.
///
/// The image parameters (`skip_ops`, `time_credit`) are read from the rank
/// state at spawn time: zero for an initial launch, restored values after a
/// failure-restart.
pub fn spawn_rank(sc: &SimCtx, world: &WorldRef, rank: Rank, app: AppFn) {
    let (size, skip_ops, time_credit, start_at) = {
        let w = world.borrow();
        let r = &w.rt.ranks[rank];
        (w.rt.size(), r.skip_ops, r.time_credit, sc.now())
    };
    let world2 = Rc::clone(world);
    let pid = sc.spawn_at(start_at, format!("rank{rank}"), move |ctx| async move {
        let mpi = Mpi::new(ctx, world2, rank, size, skip_ops, time_credit);
        let mut mpi = app(mpi).await;
        mpi.finalize().await;
    });
    {
        let mut w = world.borrow_mut();
        let r = &mut w.rt.ranks[rank];
        r.pid = Some(pid);
        // The rank's activity clock starts now: a checkpoint captured
        // before its first operation must not credit pre-crash compute.
        r.last_entry = sc.now();
    }
}
