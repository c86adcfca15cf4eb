//! Fault-tolerance configuration.

use ftmpi_sim::SimDuration;

/// Parameters of the checkpointing machinery (both protocols).
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Time between checkpoint waves. Per the paper, the timer for the next
    /// wave starts once every process has transferred its image.
    pub period: SimDuration,
    /// Delay before the first wave of a run.
    pub first_wave_delay: SimDuration,
    /// Per-rank checkpoint image size (system-level image: ∝ memory
    /// footprint; set per workload/class).
    pub image_bytes: u64,
    /// Pause of the main process while `fork` duplicates the address space
    /// (copy-on-write setup).
    pub fork_cost: SimDuration,
    /// Chunk size of image/log streams: the granularity at which checkpoint
    /// traffic interleaves (fair-shares) with MPI messages on the NICs.
    pub chunk_bytes: u64,
    /// Also write the image to the local disk (the clone writes a file the
    /// daemon pipelines to the server); enables local-disk restart.
    pub write_local_disk: bool,
    /// Dispatcher respawn cost after a failure (process cleanup + parallel
    /// ssh relaunch + reconnection).
    pub restart_delay: SimDuration,
    /// Restart the *failed* rank from the checkpoint server (its local
    /// image is considered lost with the task); survivors restore from
    /// local disk when `write_local_disk` is set.
    pub fetch_failed_from_server: bool,
    /// Maximum number of processes the Vcl implementation supports — the
    /// paper's `select()`-based daemon cannot multiplex beyond ~300
    /// processes (1024 fd-set limit, ~3 sockets per process).
    pub vcl_process_limit: usize,
    /// Size of protocol control messages (markers, acks) on the wire.
    pub control_bytes: u64,
    /// Extra per-operation progress-engine delay a rank suffers while its
    /// checkpoint image is streaming to the server under the *blocking*
    /// implementation: MPICH2's single-threaded channel multiplexes image
    /// chunks with MPI requests, so MPI operations are delayed for the whole
    /// transfer window (longer with fewer servers — the bandwidth-contention
    /// effect of Fig. 5). The non-blocking implementation streams from the
    /// forked clone through the separate daemon process: "the whole
    /// computation is never interrupted during a checkpoint phase" (§4.1).
    pub blocking_stream_drag: SimDuration,
    /// Ablation: process blocking-protocol markers immediately on arrival
    /// instead of waiting for the process to enter the MPI library. Isolates
    /// how much of Pcl's overhead is progress-engine gating (the paper's
    /// explanation for the synchronization cost) versus channel flushing.
    pub pcl_async_markers: bool,
    /// Heartbeat-timeout lag between a task kill and the dispatcher
    /// noticing it (the engine's restart). The paper assumes immediate
    /// detection through the broken TCP connection — `ZERO` reproduces
    /// that exactly; with a positive lag the victim sits dead while the
    /// survivors keep computing work that the restart then discards.
    pub detection_delay: SimDuration,
    /// Number of checkpoint servers each rank's image is streamed to
    /// (1 = the paper's single copy). With 2, the restore path survives a
    /// server-node failure without falling back to an older wave.
    pub replicas: usize,
    /// Committed waves retained on the servers and in dispatcher memory
    /// (1 = the paper's immediate garbage collection). Retaining more
    /// lets a restore fall back to an older wave when a server failure
    /// made the newest one unavailable.
    pub retained_waves: usize,
    /// First retry delay after a checkpoint stream or restore fetch finds
    /// its peer unreachable (link down or partition). Doubles per attempt
    /// up to [`link_retry_cap`](FtConfig::link_retry_cap). Irrelevant
    /// while no network faults are scheduled: reachability never fails.
    pub link_retry_base: SimDuration,
    /// Ceiling on the exponential retry backoff.
    pub link_retry_cap: SimDuration,
    /// Consecutive failed probes of one destination before the caller
    /// gives up on it (image pushes fall back to the next replica server;
    /// restore fetches walk to the next image source; a rank with no
    /// sources left fails the job).
    pub link_retry_limit: u32,
    /// How long the dispatcher tolerates ranks being cut off by a
    /// partition before declaring them failed and rolling the survivors
    /// back. `None` (the default) models an operator-grade detector that
    /// always waits the partition out: flows pause and retry, and a heal
    /// causes *no* rollback. `Some(grace)` arms a watchdog per partition
    /// cut: if the cut outlives `grace` the cut-off ranks are treated as
    /// dead (same path as [`detection_delay`](FtConfig::detection_delay)
    /// kills); if it heals first, the watchdog finds the epoch unchanged
    /// and suppresses the false positive.
    pub partition_rollback_after: Option<SimDuration>,
    /// Period of the background scrub pass re-verifying every retained
    /// replica's digest and re-replicating damaged copies from a good one.
    /// `None` (the default) schedules no scrub ticks, keeping failure-free
    /// runs byte-identical to the pre-integrity code.
    pub scrub_interval: Option<SimDuration>,
    /// Quarantine a checkpoint server after this many digest-verification
    /// failures were attributed to it: the server stops receiving
    /// placements and reroutes (mirroring dead-server processing), though
    /// replicas already on it remain verified fetch candidates. `0` (the
    /// default) disables quarantine.
    pub quarantine_threshold: u64,
    /// Record torn (truncated) writes: when a tearing partition cuts an
    /// image push mid-stream, the target server keeps the received prefix
    /// as a replica whose digest can never verify, instead of the prefix
    /// silently vanishing. Off by default — existing fault schedules keep
    /// their exact behavior.
    pub torn_writes: bool,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            period: SimDuration::from_secs(30),
            first_wave_delay: SimDuration::from_secs(1),
            image_bytes: 50 << 20,
            fork_cost: SimDuration::from_millis(30),
            chunk_bytes: 256 << 10,
            write_local_disk: true,
            restart_delay: SimDuration::from_secs(3),
            fetch_failed_from_server: true,
            vcl_process_limit: 300,
            control_bytes: 64,
            blocking_stream_drag: SimDuration::from_millis(1),
            pcl_async_markers: false,
            detection_delay: SimDuration::ZERO,
            replicas: 1,
            retained_waves: 1,
            link_retry_base: SimDuration::from_millis(50),
            link_retry_cap: SimDuration::from_secs(2),
            link_retry_limit: 8,
            partition_rollback_after: None,
            scrub_interval: None,
            quarantine_threshold: 0,
            torn_writes: false,
        }
    }
}

impl FtConfig {
    /// Convenience: set the wave period in seconds.
    pub fn with_period_secs(mut self, s: f64) -> Self {
        self.period = SimDuration::from_secs_f64(s);
        self
    }

    /// Convenience: set the per-rank image size.
    pub fn with_image_bytes(mut self, b: u64) -> Self {
        self.image_bytes = b;
        self
    }

    /// Convenience: set the failure-detection lag in seconds.
    pub fn with_detection_delay_secs(mut self, s: f64) -> Self {
        self.detection_delay = SimDuration::from_secs_f64(s);
        self
    }

    /// Convenience: set the image replication factor.
    pub fn with_replicas(mut self, r: usize) -> Self {
        self.replicas = r;
        self
    }

    /// Convenience: set the number of retained committed waves.
    pub fn with_retained_waves(mut self, n: usize) -> Self {
        self.retained_waves = n;
        self
    }

    /// Convenience: set the link-retry backoff schedule (first delay,
    /// cap, and per-destination attempt budget).
    pub fn with_link_retry(mut self, base: SimDuration, cap: SimDuration, limit: u32) -> Self {
        self.link_retry_base = base;
        self.link_retry_cap = cap;
        self.link_retry_limit = limit;
        self
    }

    /// Convenience: arm the partition watchdog with a grace period in
    /// seconds (cuts outliving it roll the survivors back).
    pub fn with_partition_rollback_after_secs(mut self, s: f64) -> Self {
        self.partition_rollback_after = Some(SimDuration::from_secs_f64(s));
        self
    }

    /// Convenience: arm the background scrub pass with a period in
    /// seconds.
    pub fn with_scrub_interval_secs(mut self, s: f64) -> Self {
        self.scrub_interval = Some(SimDuration::from_secs_f64(s));
        self
    }

    /// Convenience: set the per-server corruption-detection count that
    /// triggers quarantine (0 disables).
    pub fn with_quarantine_threshold(mut self, n: u64) -> Self {
        self.quarantine_threshold = n;
        self
    }

    /// Convenience: record torn writes when a tearing partition cuts an
    /// image push mid-stream.
    pub fn with_torn_writes(mut self) -> Self {
        self.torn_writes = true;
        self
    }

    /// The retry delay before attempt `attempt` (0-based): `base · 2^attempt`,
    /// capped. Saturates instead of overflowing for absurd attempt counts.
    pub fn link_retry_delay(&self, attempt: u32) -> SimDuration {
        let base = self.link_retry_base.max(SimDuration::from_nanos(1));
        let mult = 1u64 << attempt.min(32);
        (base * mult).min(self.link_retry_cap.max(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_fields() {
        let cfg = FtConfig::default()
            .with_period_secs(12.5)
            .with_image_bytes(123);
        assert_eq!(cfg.period, SimDuration::from_secs_f64(12.5));
        assert_eq!(cfg.image_bytes, 123);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.control_bytes, 64);
        assert!(!cfg.pcl_async_markers);
        // The robustness knobs default to the paper's assumptions:
        // immediate detection, single copy, immediate garbage collection.
        assert!(cfg.detection_delay.is_zero());
        assert_eq!(cfg.replicas, 1);
        assert_eq!(cfg.retained_waves, 1);
    }

    #[test]
    fn robustness_builders_override_fields() {
        let cfg = FtConfig::default()
            .with_detection_delay_secs(0.5)
            .with_replicas(2)
            .with_retained_waves(3);
        assert_eq!(cfg.detection_delay, SimDuration::from_secs_f64(0.5));
        assert_eq!(cfg.replicas, 2);
        assert_eq!(cfg.retained_waves, 3);
    }

    #[test]
    fn network_fault_knobs_default_off_and_build() {
        let cfg = FtConfig::default();
        // Defaults: retries exist but never trigger without scheduled
        // faults, and the partition watchdog is disarmed.
        assert_eq!(cfg.link_retry_base, SimDuration::from_millis(50));
        assert_eq!(cfg.link_retry_cap, SimDuration::from_secs(2));
        assert_eq!(cfg.link_retry_limit, 8);
        assert!(cfg.partition_rollback_after.is_none());
        let cfg = cfg
            .with_link_retry(
                SimDuration::from_millis(10),
                SimDuration::from_millis(80),
                3,
            )
            .with_partition_rollback_after_secs(5.0);
        assert_eq!(cfg.link_retry_limit, 3);
        assert_eq!(
            cfg.partition_rollback_after,
            Some(SimDuration::from_secs(5))
        );
    }

    #[test]
    fn integrity_knobs_default_off_and_build() {
        let cfg = FtConfig::default();
        // Defaults: no scrub ticks, no quarantine, no torn-write
        // recording — the integrity layer is observation-only, so every
        // pre-existing schedule stays byte-identical.
        assert!(cfg.scrub_interval.is_none());
        assert_eq!(cfg.quarantine_threshold, 0);
        assert!(!cfg.torn_writes);
        let cfg = cfg
            .with_scrub_interval_secs(2.5)
            .with_quarantine_threshold(3)
            .with_torn_writes();
        assert_eq!(cfg.scrub_interval, Some(SimDuration::from_secs_f64(2.5)));
        assert_eq!(cfg.quarantine_threshold, 3);
        assert!(cfg.torn_writes);
    }

    #[test]
    fn link_retry_delay_doubles_and_caps() {
        let cfg = FtConfig::default().with_link_retry(
            SimDuration::from_millis(50),
            SimDuration::from_secs(2),
            8,
        );
        assert_eq!(cfg.link_retry_delay(0), SimDuration::from_millis(50));
        assert_eq!(cfg.link_retry_delay(1), SimDuration::from_millis(100));
        assert_eq!(cfg.link_retry_delay(5), SimDuration::from_millis(1600));
        // 50ms · 2^6 = 3.2s caps at 2s, and stays capped forever after.
        assert_eq!(cfg.link_retry_delay(6), SimDuration::from_secs(2));
        assert_eq!(cfg.link_retry_delay(63), SimDuration::from_secs(2));
        // Degenerate inputs stay sane: a zero base becomes 1 ns, a cap
        // below the base is lifted to the base.
        let z = FtConfig::default().with_link_retry(SimDuration::ZERO, SimDuration::ZERO, 1);
        assert_eq!(z.link_retry_delay(0), SimDuration::from_nanos(1));
        assert_eq!(z.link_retry_delay(40), SimDuration::from_nanos(1));
    }
}
