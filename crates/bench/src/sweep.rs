//! Parallel experiment engine.
//!
//! Every figure/table binary reproduces a paper sweep by running dozens of
//! independent jobs — each with its own [`Sim`](ftmpi_sim::Sim), `World`
//! and network model. [`SweepRunner`] executes them on a bounded worker
//! pool and returns results **in input order**, so tables and JSON records
//! are byte-identical to a sequential run regardless of `--jobs`.
//!
//! Each job is one single-threaded simulation: its ranks are coroutines
//! stepped inline by the job's own kernel loop, so a job occupies exactly
//! one worker thread however many ranks it simulates, and jobs need no
//! admission control beyond the worker count.
//!
//! A [`MemoCache`] keyed by a deterministic spec fingerprint lets callers
//! skip re-simulating configurations shared across figures (`all_figures`
//! runs every harness in one process against one cache). With
//! [`MemoCache::persistent`] the cache gains a disk tier (one file per
//! fingerprint, written atomically) shared across processes: a warm rerun
//! of a figure performs zero simulations.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ftmpi_core::{run_job, JobError, JobResult, JobSpec, Platform};

/// Deterministic fingerprint of everything that decides a job's result.
///
/// `workload_tag` must uniquely identify the application closure *and its
/// calibration* — the figure harness passes `Workload::name` because its
/// machine rates are fixed per benchmark ([`crate::bt_machine`] /
/// [`crate::cg_machine`]); callers with varying calibrations must fold the
/// machine rate into the tag. Jobs whose app closures have side effects
/// (e.g. NetPIPE sample collectors) must not be memoized at all: a cache
/// hit skips the run that would fill the side channel.
pub fn spec_fingerprint(workload_tag: &str, spec: &JobSpec) -> String {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(256);
    let _ = write!(
        key,
        "wl={workload_tag};n={};proto={:?};stack={:?};servers={};single={};",
        spec.nranks, spec.protocol, spec.stack, spec.servers, spec.single_threshold
    );
    match &spec.platform {
        Platform::Cluster(link) => {
            let _ = write!(
                key,
                "plat=cluster(bw={:?},lat={},disk={:?},lo={:?},lolat={});",
                link.nic_bw,
                link.latency.as_nanos(),
                link.disk_bw,
                link.loopback_bw,
                link.loopback_latency.as_nanos()
            );
        }
        Platform::Grid => key.push_str("plat=grid;"),
    }
    let ft = &spec.ft;
    let _ = write!(
        key,
        "ft=({},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:?},{:?},{},{});",
        ft.period.as_nanos(),
        ft.first_wave_delay.as_nanos(),
        ft.image_bytes,
        ft.fork_cost.as_nanos(),
        ft.chunk_bytes,
        ft.write_local_disk,
        ft.restart_delay.as_nanos(),
        ft.fetch_failed_from_server,
        ft.vcl_process_limit,
        ft.control_bytes,
        ft.blocking_stream_drag.as_nanos(),
        ft.pcl_async_markers,
        ft.detection_delay.as_nanos(),
        ft.replicas,
        ft.retained_waves,
        ft.link_retry_base.as_nanos(),
        ft.link_retry_cap.as_nanos(),
        ft.link_retry_limit,
        ft.partition_rollback_after.map(|d| d.as_nanos()),
        ft.scrub_interval.map(|d| d.as_nanos()),
        ft.quarantine_threshold,
        ft.torn_writes
    );
    let _ = write!(
        key,
        "maxt={:?};",
        spec.max_virtual_time.map(|t| t.as_nanos())
    );
    if let Some(nodes) = &spec.placement_override {
        let _ = write!(
            key,
            "place={:?};",
            nodes.iter().map(|n| n.0).collect::<Vec<_>>()
        );
    }
    if !spec.wave_triggers.is_empty() {
        let _ = write!(
            key,
            "trig={:?};",
            spec.wave_triggers
                .iter()
                .map(|t| t.as_nanos())
                .collect::<Vec<_>>()
        );
    }
    if !spec.failures.kills.is_empty() {
        let _ = write!(
            key,
            "kills={:?};",
            spec.failures
                .kills
                .iter()
                .map(|(t, v)| (t.as_nanos(), *v))
                .collect::<Vec<_>>()
        );
    }
    if !spec.failures.server_kills.is_empty() {
        let _ = write!(
            key,
            "skills={:?};",
            spec.failures
                .server_kills
                .iter()
                .map(|(t, s)| (t.as_nanos(), *s))
                .collect::<Vec<_>>()
        );
    }
    if !spec.failures.node_kills.is_empty() {
        let _ = write!(
            key,
            "nkills={:?};",
            spec.failures
                .node_kills
                .iter()
                .map(|(t, node)| (t.as_nanos(), *node))
                .collect::<Vec<_>>()
        );
    }
    if !spec.failures.corruptions.is_empty() {
        let _ = write!(
            key,
            "corrupt={:?};",
            spec.failures
                .corruptions
                .iter()
                .map(|e| (e.at.as_nanos(), e.server, e.rank))
                .collect::<Vec<_>>()
        );
    }
    if !spec.failures.silent_corruption.is_empty() {
        let _ = write!(
            key,
            "rot={:?};",
            spec.failures
                .silent_corruption
                .iter()
                .map(|s| {
                    (
                        s.server,
                        s.mtbc.as_nanos(),
                        s.start.as_nanos(),
                        s.end.as_nanos(),
                        s.ranks,
                        s.seed,
                    )
                })
                .collect::<Vec<_>>()
        );
    }
    if !spec.net_faults.is_empty() {
        // Degrade factors are folded in via their exact bit pattern: two
        // schedules differing only in a factor's last mantissa bit must not
        // share a cache entry.
        let _ = write!(
            key,
            "netf=(ev={:?},parts={:?});",
            spec.net_faults
                .link_events
                .iter()
                .map(|e| {
                    let kind = match e.kind {
                        ftmpi_net::LinkFaultKind::Down => (0u8, 0u64),
                        ftmpi_net::LinkFaultKind::Degrade(f) => (1, f.to_bits()),
                        ftmpi_net::LinkFaultKind::Restore => (2, 0),
                    };
                    (e.at.as_nanos(), e.from.0, e.to.0, kind)
                })
                .collect::<Vec<_>>(),
            spec.net_faults
                .partitions
                .iter()
                .map(|p| {
                    (
                        p.name.as_str(),
                        p.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
                        format!("{}", p.direction),
                        p.start.as_nanos(),
                        p.heal.map(|t| t.as_nanos()),
                        p.tear,
                    )
                })
                .collect::<Vec<_>>()
        );
        // Flaps and server-group partitions fold in separately; both lists
        // are empty for every pre-existing plan, so the extra terms leave
        // old fingerprints untouched.
        if !spec.net_faults.flaps.is_empty() {
            let _ = write!(
                key,
                "flaps={:?};",
                spec.net_faults
                    .flaps
                    .iter()
                    .map(|fl| {
                        (
                            fl.from.0,
                            fl.to.0,
                            fl.start.as_nanos(),
                            fl.end.as_nanos(),
                            fl.mttf.as_nanos(),
                            fl.mttr.as_nanos(),
                            fl.seed,
                        )
                    })
                    .collect::<Vec<_>>()
            );
        }
        if !spec.net_faults.server_partitions.is_empty() {
            let _ = write!(
                key,
                "sparts={:?};",
                spec.net_faults
                    .server_partitions
                    .iter()
                    .map(|p| {
                        (
                            p.name.as_str(),
                            p.servers.clone(),
                            format!("{}", p.direction),
                            p.start.as_nanos(),
                            p.heal.map(|t| t.as_nanos()),
                            p.tear,
                        )
                    })
                    .collect::<Vec<_>>()
            );
        }
    }
    key
}

/// On-disk entry header; bumped whenever [`JobResult::encode`] or the entry
/// layout changes, so stale caches self-invalidate instead of decoding
/// garbage.
const CACHE_VERSION: &str = "ftmpi-cache v5";

/// FNV-1a over `s` starting from `h` (two different bases give the two
/// halves of the 128-bit cache filename, making accidental collisions
/// between distinct fingerprints implausible).
fn fnv1a(s: &str, mut h: u64) -> u64 {
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn key_hash(key: &str) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a(key, 0xcbf2_9ce4_8422_2325),
        fnv1a(key, 0x8422_2325_cbf2_9ce4)
    )
}

/// Validate one cache-entry file body: version header, namespace kind, full
/// fingerprint (hash collisions are detected, not trusted), and payload
/// length must all match. Shared by the writable disk tier and the
/// read-only seed tier; the caller decides what a failure means (delete
/// vs. ignore).
fn validate_entry(text: &str, kind: &str, key: &str) -> Option<String> {
    let rest = text.strip_prefix(CACHE_VERSION)?.strip_prefix('\n')?;
    let rest = rest.strip_prefix("kind=")?.strip_prefix(kind)?;
    let rest = rest.strip_prefix("\nkey=")?.strip_prefix(key)?;
    let rest = rest.strip_prefix("\nlen=")?;
    let (len_line, payload) = rest.split_once('\n')?;
    let len: usize = len_line.parse().ok()?;
    (payload.len() == len).then(|| payload.to_string())
}

/// Cross-sweep memoization of successful job results.
///
/// Only `Ok` results are cached: errors are either instant to recompute
/// (the Vcl process-limit refusal) or indicate model bugs worth re-hitting.
///
/// Created with [`MemoCache::persistent`], the cache also maintains a disk
/// tier: one file per fingerprint under the given directory, containing a
/// version header, the full fingerprint (hash collisions are detected, not
/// trusted), a payload length, and the integer-encoded result. Files are
/// written atomically (unique temp file + rename) so concurrent processes
/// sharing the directory can only ever observe complete entries; anything
/// that fails validation — truncated, bit-flipped, version-mismatched —
/// is deleted and recomputed, never an error.
///
/// A second namespace of free-form *blobs* ([`MemoCache::get_blob`] /
/// [`MemoCache::put_blob`]) serves sweeps whose product is not a
/// [`JobResult`] — e.g. the NetPIPE harness caches its sample series, which
/// a plain result memo could not capture (the samples live in a side
/// channel filled during the run).
#[derive(Default)]
pub struct MemoCache {
    map: Mutex<HashMap<String, JobResult>>,
    blobs: Mutex<HashMap<String, String>>,
    disk: Option<PathBuf>,
    /// Read-only fallback tier: entries committed to the repository (the
    /// calibration tables), consulted after a disk miss. Never written,
    /// never invalidated on corruption — a stale or damaged seed entry
    /// simply fails validation and the result is recomputed.
    seed: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

/// Repository-committed seed entries (see [`MemoCache::persistent`]): the
/// calibration-table results, so a cold checkout prices its first
/// `calibrate` run at decode cost instead of minutes of simulation.
const SEED_CACHE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/calibration-cache");

impl MemoCache {
    /// A fresh, shareable, memory-only cache.
    pub fn new() -> Arc<MemoCache> {
        Arc::new(MemoCache::default())
    }

    /// A cache backed by `dir` (created on first write), falling back to
    /// the repository's committed calibration seeds on disk misses. Setting
    /// `FTMPI_NO_CACHE` disables both disk tiers, yielding a memory-only
    /// cache — the escape hatch for timing measurements and CI baselines.
    pub fn persistent(dir: impl Into<PathBuf>) -> Arc<MemoCache> {
        MemoCache::persistent_with_seed(dir, PathBuf::from(SEED_CACHE_DIR))
    }

    /// [`MemoCache::persistent`] with an explicit seed directory (tests).
    pub fn persistent_with_seed(
        dir: impl Into<PathBuf>,
        seed: impl Into<PathBuf>,
    ) -> Arc<MemoCache> {
        if std::env::var_os("FTMPI_NO_CACHE").is_some() {
            return MemoCache::new();
        }
        Arc::new(MemoCache {
            disk: Some(dir.into()),
            seed: Some(seed.into()),
            ..MemoCache::default()
        })
    }

    /// The disk tier's directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&std::path::Path> {
        self.disk.as_deref()
    }

    /// Look up a fingerprint, counting the hit/miss. Memory first, then the
    /// disk tier (a disk hit is promoted into memory).
    pub fn get(&self, key: &str) -> Option<JobResult> {
        if let Some(r) = self.map.lock().unwrap().get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(r);
        }
        if let Some(payload) = self.load_disk("r", key) {
            match JobResult::decode(&payload) {
                Some(result) => {
                    self.map
                        .lock()
                        .unwrap()
                        .insert(key.to_string(), result.clone());
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(result);
                }
                None => self.discard_disk("r", key),
            }
        }
        if let Some(payload) = self.load_seed("r", key) {
            if let Some(result) = JobResult::decode(&payload) {
                // Promote into memory and write through to the local disk
                // tier so later processes against the same out dir hit it
                // without touching the seeds.
                self.store_disk("r", key, &payload);
                self.map
                    .lock()
                    .unwrap()
                    .insert(key.to_string(), result.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some(result);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a successful result under its fingerprint (and on disk, for
    /// persistent caches).
    pub fn put(&self, key: String, result: JobResult) {
        self.store_disk("r", &key, &result.encode());
        self.map.lock().unwrap().insert(key, result);
    }

    /// Look up a free-form blob (see the type docs), counting the hit/miss.
    pub fn get_blob(&self, key: &str) -> Option<String> {
        if let Some(b) = self.blobs.lock().unwrap().get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(b);
        }
        if let Some(payload) = self
            .load_disk("b", key)
            .or_else(|| self.load_seed("b", key))
        {
            self.blobs
                .lock()
                .unwrap()
                .insert(key.to_string(), payload.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(payload);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a free-form blob under a fingerprint-style key.
    pub fn put_blob(&self, key: String, payload: String) {
        self.store_disk("b", &key, &payload);
        self.blobs.lock().unwrap().insert(key, payload);
    }

    fn cache_path(&self, kind: &str, key: &str) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|dir| dir.join(format!("{kind}-{}", key_hash(key))))
    }

    /// Read and validate one disk entry; corrupt entries are deleted.
    fn load_disk(&self, kind: &str, key: &str) -> Option<String> {
        let path = self.cache_path(kind, key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let parsed = validate_entry(&text, kind, key);
        if parsed.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        parsed
    }

    /// Read and validate one committed seed entry. Strictly read-only: a
    /// corrupt, truncated, or version-mismatched seed (e.g. one committed
    /// before an encoding bump) fails validation and is *ignored* — the
    /// result is recomputed — never deleted.
    fn load_seed(&self, kind: &str, key: &str) -> Option<String> {
        let dir = self.seed.as_ref()?;
        let text = std::fs::read_to_string(dir.join(format!("{kind}-{}", key_hash(key)))).ok()?;
        validate_entry(&text, kind, key)
    }

    fn discard_disk(&self, kind: &str, key: &str) {
        if let Some(path) = self.cache_path(kind, key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Best-effort atomic write: failures (full disk, bad permissions) just
    /// mean the entry stays memory-only.
    fn store_disk(&self, kind: &str, key: &str, payload: &str) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let Some(path) = self.cache_path(kind, key) else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let entry = format!(
            "{CACHE_VERSION}\nkind={kind}\nkey={key}\nlen={}\n{payload}",
            payload.len()
        );
        if std::fs::write(&tmp, entry).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// `(hits, misses)` counters since creation (blob lookups included;
    /// disk hits count as hits).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Hits served from the disk tier.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of cached configurations in memory (blobs not counted).
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().unwrap().is_empty()
    }

    /// One-line human summary, printed by the bench binaries (and grepped
    /// by the CI cache round-trip check).
    pub fn summary(&self) -> String {
        let (hits, misses) = self.stats();
        format!(
            "memo cache: {} configurations, {hits} hits ({} from disk) / {misses} misses",
            self.len(),
            self.disk_hits()
        )
    }
}

/// What one [`prune_cache`] pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PruneReport {
    /// Files examined (cache entries, temp leftovers, strangers).
    pub scanned: usize,
    /// Valid entries still present afterwards.
    pub kept: usize,
    /// Files deleted (invalid, stale-versioned, orphaned temps, or evicted
    /// for the byte budget).
    pub removed: usize,
    /// Total size of the scanned files.
    pub bytes_before: u64,
    /// Total size of the kept entries.
    pub bytes_after: u64,
}

/// Prune a persistent cache directory: delete leftover temp files and every
/// entry that fails validation (wrong version header, filename not matching
/// its own `key=` hash, truncated payload), then — if `max_bytes` is given —
/// evict oldest-modified valid entries until the directory fits the budget.
///
/// Files not recognizably ours (no `r-`/`b-`/` .tmp-` prefix) are counted
/// in `scanned` but never touched. A missing directory is an empty, already
/// pruned cache, not an error.
pub fn prune_cache(dir: &std::path::Path, max_bytes: Option<u64>) -> std::io::Result<PruneReport> {
    let mut report = PruneReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(it) => it,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    // (mtime, path, size) of valid entries, for oldest-first eviction.
    let mut valid: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        report.scanned += 1;
        report.bytes_before += meta.len();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(".tmp-") {
            // A crashed writer's leftover: atomic renames never leave these.
            if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
            }
            continue;
        }
        let Some(kind) = name
            .starts_with("r-")
            .then_some("r")
            .or_else(|| name.starts_with("b-").then_some("b"))
        else {
            continue; // not ours; leave it alone (but it was scanned)
        };
        let ok = std::fs::read_to_string(&path).ok().is_some_and(|text| {
            (|| {
                let rest = text.strip_prefix(CACHE_VERSION)?.strip_prefix('\n')?;
                let rest = rest.strip_prefix("kind=")?.strip_prefix(kind)?;
                let rest = rest.strip_prefix("\nkey=")?;
                let (key, rest) = rest.split_once("\nlen=")?;
                let (len_line, payload) = rest.split_once('\n')?;
                let len: usize = len_line.parse().ok()?;
                (payload.len() == len && name == format!("{kind}-{}", key_hash(key))).then_some(())
            })()
            .is_some()
        });
        if ok {
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            valid.push((mtime, path, meta.len()));
        } else if std::fs::remove_file(&path).is_ok() {
            report.removed += 1;
        }
    }
    // Budget eviction: oldest first; ties broken by path for determinism.
    valid.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut total: u64 = valid.iter().map(|(_, _, s)| s).sum();
    if let Some(budget) = max_bytes {
        while total > budget {
            let Some((_, path, size)) = valid.first().cloned() else {
                break;
            };
            valid.remove(0);
            if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
            }
            total -= size;
        }
    }
    report.kept = valid.len();
    report.bytes_after = total;
    Ok(report)
}

/// One planned job: a display label, an optional memoization key, and the
/// spec-producing closure (built lazily, on the worker that runs it).
struct PlannedJob {
    label: String,
    key: Option<String>,
    build: Box<dyn FnOnce() -> JobSpec + Send>,
}

/// Everything the runner knows about one finished job.
pub struct JobOutcome {
    /// The label given at [`SweepRunner::add`] time.
    pub label: String,
    /// The job's result (or why it could not run).
    pub result: Result<JobResult, JobError>,
    /// Wall-clock the job took on its worker (≈0 for cache hits).
    pub wall: Duration,
    /// Whether the result came from the [`MemoCache`].
    pub cached: bool,
}

/// Parallel sweep executor. See the module docs for the guarantees.
pub struct SweepRunner {
    workers: usize,
    cache: Option<Arc<MemoCache>>,
    jobs: Vec<PlannedJob>,
}

impl SweepRunner {
    /// A runner executing on `workers` worker threads (1 = sequential).
    pub fn new(workers: usize) -> SweepRunner {
        SweepRunner {
            workers: workers.max(1),
            cache: None,
            jobs: Vec::new(),
        }
    }

    /// Attach a memo cache consulted for every keyed job.
    pub fn with_cache(mut self, cache: Arc<MemoCache>) -> SweepRunner {
        self.cache = Some(cache);
        self
    }

    /// Queue a job. Returns its index into the results of [`run`].
    ///
    /// [`run`]: SweepRunner::run
    pub fn add(
        &mut self,
        label: impl Into<String>,
        build: impl FnOnce() -> JobSpec + Send + 'static,
    ) -> usize {
        self.jobs.push(PlannedJob {
            label: label.into(),
            key: None,
            build: Box::new(build),
        });
        self.jobs.len() - 1
    }

    /// Queue an already-built spec under its [`spec_fingerprint`] — the
    /// common case for the figure harnesses, whose specs are cheap to
    /// construct up front (the app closure is shared via `Arc`).
    pub fn add_spec(
        &mut self,
        label: impl Into<String>,
        workload_tag: &str,
        spec: JobSpec,
    ) -> usize {
        let key = spec_fingerprint(workload_tag, &spec);
        self.add_keyed(label, key, move || spec)
    }

    /// Queue a memoizable job: `workload_tag` + the built spec fingerprint
    /// identify the configuration across sweeps (see [`spec_fingerprint`]
    /// for the caller's obligations).
    pub fn add_keyed(
        &mut self,
        label: impl Into<String>,
        key: String,
        build: impl FnOnce() -> JobSpec + Send + 'static,
    ) -> usize {
        self.jobs.push(PlannedJob {
            label: label.into(),
            key: Some(key),
            build: Box::new(build),
        });
        self.jobs.len() - 1
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Execute every queued job; results in input order.
    pub fn run(self) -> Vec<Result<JobResult, JobError>> {
        self.run_detailed().into_iter().map(|o| o.result).collect()
    }

    /// Execute every queued job; outcomes (result + wall + cache flag) in
    /// input order.
    pub fn run_detailed(self) -> Vec<JobOutcome> {
        let n = self.jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let cache = self.cache;
        if workers <= 1 {
            return self
                .jobs
                .into_iter()
                .map(|j| execute(j, cache.as_deref()))
                .collect();
        }
        let slots: Vec<Mutex<Option<PlannedJob>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let outcomes: Vec<Mutex<Option<JobOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let job = slots[i].lock().unwrap().take().expect("job claimed twice");
                    let outcome = execute(job, cache.as_deref());
                    *outcomes[i].lock().unwrap() = Some(outcome);
                });
            }
        });
        outcomes
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("worker pool exited with a job unfinished")
            })
            .collect()
    }
}

fn execute(job: PlannedJob, cache: Option<&MemoCache>) -> JobOutcome {
    let start = Instant::now();
    let spec = (job.build)();
    if let (Some(cache), Some(key)) = (cache, job.key.as_deref()) {
        if let Some(hit) = cache.get(key) {
            return JobOutcome {
                label: job.label,
                result: Ok(hit),
                wall: start.elapsed(),
                cached: true,
            };
        }
    }
    let result = run_job(spec);
    if let (Some(cache), Some(key), Ok(res)) = (cache, job.key, result.as_ref()) {
        cache.put(key, res.clone());
    }
    JobOutcome {
        label: job.label,
        result,
        wall: start.elapsed(),
        cached: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_core::ProtocolChoice;
    use ftmpi_nas::synth;
    use ftmpi_sim::SimDuration;

    /// Tiny deterministic job: a 4-rank token ring, `laps * 4` messages.
    fn ring_spec(laps: usize) -> JobSpec {
        JobSpec::new(4, ProtocolChoice::Dummy, synth::token_ring(laps, 256))
    }

    /// Everything that must be bit-identical between runs of the same spec.
    fn digest(r: &JobResult) -> (u64, u64, u64, u64) {
        (r.completion.as_nanos(), r.events, r.rt.msgs_sent, r.waves())
    }

    #[test]
    fn results_are_returned_in_input_order() {
        // Mixed-duration jobs on several workers: completion order differs
        // from input order, result order must not.
        let laps = [40usize, 1, 25, 3, 10, 2];
        let mut runner = SweepRunner::new(4);
        for l in laps {
            runner.add(format!("laps{l}"), move || ring_spec(l));
        }
        let outcomes = runner.run_detailed();
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            ["laps40", "laps1", "laps25", "laps3", "laps10", "laps2"]
        );
        for (o, l) in outcomes.iter().zip(laps) {
            assert_eq!(o.result.as_ref().unwrap().rt.msgs_sent, (l * 4) as u64);
            assert!(!o.cached);
        }
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let run_with = |workers: usize| {
            let mut runner = SweepRunner::new(workers);
            for laps in 1..=8usize {
                runner.add(format!("j{laps}"), move || ring_spec(laps * 5));
            }
            runner
                .run()
                .into_iter()
                .map(|r| digest(&r.unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_with(1), run_with(8));
    }

    #[test]
    fn memo_cache_returns_identical_metrics_without_resimulating() {
        let cache = MemoCache::new();
        let run = || {
            let mut r = SweepRunner::new(2).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap()
        };
        let first = run();
        assert!(!first.cached);
        let second = run();
        assert!(second.cached, "identical spec should hit the cache");
        assert_eq!(
            digest(first.result.as_ref().unwrap()),
            digest(second.result.as_ref().unwrap())
        );
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprint_distinguishes_every_varied_dimension() {
        let base = ring_spec(12);
        let key = |s: &JobSpec| spec_fingerprint("ring12", s);
        assert_eq!(key(&base), key(&ring_spec(12)), "fingerprint is stable");
        assert_ne!(key(&base), spec_fingerprint("ring13", &base));

        let mut other = ring_spec(12);
        other.ft.period = SimDuration::from_millis(123);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.servers = 7;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.platform = Platform::Grid;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures = ftmpi_core::FailurePlan::kill_at(ftmpi_sim::SimTime::from_nanos(5), 1);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures =
            ftmpi_core::FailurePlan::server_kill_at(ftmpi_sim::SimTime::from_nanos(5), 0);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.detection_delay = SimDuration::from_millis(200);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.replicas = 2;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.retained_waves = 3;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft.link_retry_limit = 3;
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.ft = other.ft.with_partition_rollback_after_secs(4.0);
        assert_ne!(key(&base), key(&other));

        let mut other = ring_spec(12);
        other.failures =
            ftmpi_core::FailurePlan::node_kill_at(ftmpi_sim::SimTime::from_nanos(5), 2);
        assert_ne!(key(&base), key(&other));

        use ftmpi_net::{NetFaultPlan, NodeId};
        use ftmpi_sim::SimTime;
        let mut other = ring_spec(12);
        other.net_faults =
            NetFaultPlan::none().with_link_down(SimTime::from_nanos(5), NodeId(0), NodeId(1));
        assert_ne!(key(&base), key(&other));

        let mut degraded = ring_spec(12);
        degraded.net_faults = NetFaultPlan::none().with_link_degrade(
            SimTime::from_nanos(5),
            NodeId(0),
            NodeId(1),
            2.0,
        );
        assert_ne!(key(&base), key(&degraded));
        let mut degraded_other = ring_spec(12);
        degraded_other.net_faults = NetFaultPlan::none().with_link_degrade(
            SimTime::from_nanos(5),
            NodeId(0),
            NodeId(1),
            f64::from_bits(2.0f64.to_bits() + 1),
        );
        // A one-ulp factor difference is a different configuration.
        assert_ne!(key(&degraded), key(&degraded_other));

        let mut other = ring_spec(12);
        other.net_faults =
            NetFaultPlan::none().with_partition("p", vec![NodeId(0)], SimTime::from_nanos(5), None);
        assert_ne!(key(&base), key(&other));
        let mut healed = ring_spec(12);
        healed.net_faults = NetFaultPlan::none().with_partition(
            "p",
            vec![NodeId(0)],
            SimTime::from_nanos(5),
            Some(SimTime::from_nanos(9)),
        );
        assert_ne!(key(&other), key(&healed));
    }

    #[test]
    fn wide_jobs_run_in_parallel_without_admission_control() {
        // Each job simulates thousands of ranks, yet its ranks are
        // coroutines on the job's own kernel loop: every job occupies one
        // worker, so overlapping wide jobs need no admission gate.
        let results = {
            let mut runner = SweepRunner::new(2);
            for laps in [1usize, 2, 3, 4] {
                runner.add(format!("laps{laps}"), move || {
                    JobSpec::new(2_048, ProtocolChoice::Dummy, synth::token_ring(laps, 256))
                });
            }
            runner.run()
        };
        for (r, laps) in results.iter().zip([1u64, 2, 3, 4]) {
            assert_eq!(r.as_ref().unwrap().rt.msgs_sent, laps * 2_048);
        }
    }

    /// A unique scratch dir for one test (no wallclock involved).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            let dir =
                std::env::temp_dir().join(format!("ftmpi-sweep-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn persistent_cache_survives_process_boundaries() {
        let scratch = ScratchDir::new("persist");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        // "Process one": simulate and store.
        let first = {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            let out = r.run_detailed().pop().unwrap();
            assert!(!out.cached);
            assert_eq!(cache.disk_hits(), 0);
            out.result.unwrap()
        };
        // "Process two": a fresh cache instance over the same directory must
        // serve the result from disk, bit-for-bit, without simulating.
        let cache = MemoCache::persistent(&scratch.0);
        assert!(cache.is_empty(), "fresh instance starts with empty memory");
        let warm = cache.get(&key).expect("disk tier should hit");
        assert_eq!(cache.disk_hits(), 1);
        assert_eq!(digest(&warm), digest(&first));
        assert_eq!(warm.encode(), first.encode());
    }

    #[test]
    fn blob_tier_roundtrips_across_instances() {
        let scratch = ScratchDir::new("blob");
        let payload = "1,2,3\n4,5,6\n".to_string();
        MemoCache::persistent(&scratch.0).put_blob("np/k".into(), payload.clone());
        let cache = MemoCache::persistent(&scratch.0);
        assert_eq!(cache.get_blob("np/k").as_deref(), Some(payload.as_str()));
        assert_eq!(cache.disk_hits(), 1);
    }

    #[test]
    fn prune_removes_garbage_and_keeps_valid_entries() {
        let scratch = ScratchDir::new("prune");
        // Two valid entries: one result, one blob.
        {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap().result.unwrap();
            cache.put_blob("np/k".into(), "1,2,3\n".into());
        }
        // Garbage: an orphaned temp file, a corrupt entry, a stranger file.
        std::fs::write(scratch.0.join(".tmp-999-0"), "half-written").unwrap();
        std::fs::write(
            scratch.0.join(format!("r-{}", key_hash("bogus"))),
            "not a cache entry",
        )
        .unwrap();
        std::fs::write(scratch.0.join("README"), "hands off").unwrap();

        let report = prune_cache(&scratch.0, None).unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.removed, 2, "temp + corrupt go, stranger stays");
        assert_eq!(report.kept, 2);
        assert!(scratch.0.join("README").exists());
        // The surviving entries still decode.
        let cache = MemoCache::persistent(&scratch.0);
        let key = spec_fingerprint("ring12", &ring_spec(12));
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.get_blob("np/k").as_deref(), Some("1,2,3\n"));
    }

    #[test]
    fn prune_budget_evicts_down_to_max_bytes() {
        let scratch = ScratchDir::new("prune-budget");
        let cache = MemoCache::persistent(&scratch.0);
        for i in 0..4u64 {
            cache.put_blob(format!("blob/{i}"), "x".repeat(64));
        }
        let full = prune_cache(&scratch.0, None).unwrap();
        assert_eq!(full.kept, 4);
        let budget = full.bytes_after / 2;
        let report = prune_cache(&scratch.0, Some(budget)).unwrap();
        assert!(report.bytes_after <= budget);
        assert!(report.kept < 4 && report.removed > 0);
        // A zero budget empties the cache; a missing dir is fine.
        let report = prune_cache(&scratch.0, Some(0)).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.bytes_after, 0);
        let report = prune_cache(&scratch.0.join("nonexistent"), Some(0)).unwrap();
        assert_eq!(report, PruneReport::default());
    }

    #[test]
    fn corrupt_cache_entries_are_discarded_and_recomputed() {
        let scratch = ScratchDir::new("corrupt");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        {
            let cache = MemoCache::persistent(&scratch.0);
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap().result.unwrap();
        }
        let entry = std::fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("r-"))
            .expect("cache entry written")
            .path();
        let pristine = std::fs::read(&entry).unwrap();
        // Every single-byte bit-flip (and a truncation, and a version swap)
        // must read as a miss — recomputed, never a panic or a wrong result.
        let corruptions: Vec<Vec<u8>> = (0..pristine.len().min(64))
            .map(|i| {
                let mut c = pristine.clone();
                c[i] ^= 0x10;
                c
            })
            .chain([
                pristine[..pristine.len() / 2].to_vec(),
                [b"ftmpi-cache v0\n".to_vec(), pristine.clone()].concat(),
            ])
            .collect();
        for corrupt in corruptions {
            std::fs::write(&entry, &corrupt).unwrap();
            let cache = MemoCache::persistent(&scratch.0);
            assert!(
                cache.get(&key).is_none(),
                "corrupt entry must miss, not decode"
            );
            assert!(!entry.exists(), "corrupt entry must be deleted");
            // And the sweep transparently recomputes + rewrites it.
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            let out = r.run_detailed().pop().unwrap();
            assert!(!out.cached);
            out.result.unwrap();
            assert!(entry.exists(), "entry rewritten after recompute");
        }
    }

    #[test]
    fn seed_tier_serves_committed_entries_and_promotes_them() {
        let seed = ScratchDir::new("seed-src");
        let local = ScratchDir::new("seed-local");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        // Author a seed entry the way the repo does: run once with the
        // seed directory as the writable tier, then treat it read-only.
        let baseline = {
            let cache = MemoCache::persistent_with_seed(&seed.0, seed.0.join("unused"));
            let mut r = SweepRunner::new(1).with_cache(Arc::clone(&cache));
            r.add_spec("job", "ring12", ring_spec(12));
            r.run_detailed().pop().unwrap().result.unwrap()
        };
        // A cold cache over an empty local dir must fall back to the seed…
        let cache = MemoCache::persistent_with_seed(local.0.join("cache"), &seed.0);
        let got = cache.get(&key).expect("seed tier should hit");
        assert_eq!(digest(&got), digest(&baseline));
        assert_eq!(cache.stats(), (1, 0), "a seed hit is a hit, not a miss");
        assert_eq!(cache.disk_hits(), 1, "a seed hit counts as a disk hit");
        // …and write the entry through to the local tier, so the next
        // fresh instance hits it even with the seed dir gone.
        let cache = MemoCache::persistent_with_seed(local.0.join("cache"), seed.0.join("gone"));
        let promoted = cache.get(&key).expect("promoted entry should hit");
        assert_eq!(promoted.encode(), baseline.encode());
    }

    #[test]
    fn corrupt_seed_entries_are_ignored_never_deleted() {
        let seed = ScratchDir::new("seed-corrupt");
        let local = ScratchDir::new("seed-corrupt-local");
        let key = spec_fingerprint("ring12", &ring_spec(12));
        std::fs::create_dir_all(&seed.0).unwrap();
        let path = seed.0.join(format!("r-{}", key_hash(&key)));
        std::fs::write(&path, "not a cache entry").unwrap();
        let cache = MemoCache::persistent_with_seed(local.0.join("cache"), &seed.0);
        assert!(
            cache.get(&key).is_none(),
            "corrupt seed must read as a miss"
        );
        assert!(path.exists(), "seed entries are read-only, never deleted");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not a cache entry");
    }
}
