//! The daemon: bounded accept queue, worker pool, per-request supervision,
//! disconnect watchdog, and graceful drain (DESIGN.md §13.2, §13.5).
//!
//! Request lifecycle:
//!
//! ```text
//! accept ── queue full? ──► 429 + retry-after          (shed, never queued)
//!    │
//!    ▼ queued (deadline clock already running)
//! worker: parse ─► 400 | resolve graph ─► 400 | deadline gone ─► 408
//!    │      (a packed snapshot already open and unchanged is reused)
//!    │
//!    ▼ cache lookup ──► 200 cache:hit                  (no budget needed)
//!    │
//!    ▼ shared-budget admission ──► 413 never-fits | 429 busy + retry-after
//!    │
//!    ▼ run (own RunBudget: deadline slice, disconnect cancel flag)
//!    │     warm checkpoint? resume ─► 200 cache:warm
//!    │     else supervised ladder  ─► 200 cache:cold (rung: full…trivial)
//!    │     client vanished         ─► 499 (work checkpointed for resume)
//!    ▼
//! respond (413 when the 200's frame would exceed proto::MAX_FRAME),
//! release reservation, record service time, write run report
//! ```
//!
//! Draining: the first SIGINT/SIGTERM (or [`Server::request_drain`]) stops
//! the accept loop; queued-but-unstarted requests are answered `503`;
//! in-flight runs get [`ServerConfig::drain_grace`] to finish, then their
//! cancel flags fire — the post-BFS checkpoint already on disk makes the
//! interrupted work resumable by the next daemon. A second signal
//! force-exits 130 (see [`parhde_util::supervisor::install_two_stage_handlers`]).

use crate::budget::{AdmitError, Hold, ServiceClock, SharedSoftBudget};
use crate::cache::{cache_key, LayoutCache};
use crate::proto::{self, Op, Request, Response};
use parhde::config::ParHdeConfig;
use parhde::stats::render_report;
use parhde::{
    try_par_hde_nd_supervised, Checkpoint, HdeError, SuperviseOptions,
};
use parhde_graph::gen;
use parhde_graph::io::{parse_edge_list, parse_matrix_market};
use parhde_graph::prep::largest_component;
use parhde_graph::store::GraphStore;
use parhde_graph::{CompressedCsr, CsrGraph};
use parhde_linalg::dense::ColMajorMatrix;
use parhde_trace::registry::{self, Counter, Gauge, Histogram, Registry};
use parhde_trace::{Record, RunReport, Totals};
use parhde_util::shortest;
use parhde_util::supervisor::{self, cancel_flag, CancelFlag};
use parhde_util::threads::run_with_threads;
use parhde_util::RunBudget;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

/// Knobs of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Layout worker threads.
    pub workers: usize,
    /// Bounded queue capacity; a connection arriving past it is shed with
    /// an immediate 429 — the queue never grows without bound.
    pub queue_capacity: usize,
    /// Total shared soft memory budget across concurrent requests.
    pub mem_budget_bytes: u64,
    /// Result-cache directory; `None` disables caching and warm resume.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget over the result cache's entry files; oldest entries
    /// (and their warm-start checkpoints) are evicted past it. `None`
    /// leaves the cache unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Per-request run-report directory (`req-<trace-id>.json`); `None`
    /// disables.
    pub report_dir: Option<PathBuf>,
    /// Deadline applied when the client does not send `deadline-ms`.
    pub default_deadline: Duration,
    /// Upper clamp for client-requested deadlines.
    pub max_deadline: Duration,
    /// How long in-flight runs may keep working after drain starts before
    /// their cancel flags fire.
    pub drain_grace: Duration,
    /// Emit one NDJSON event line per answered request on stderr (trace
    /// ID, op, status, duration). Off by default so in-process test
    /// servers stay quiet; the binary turns it on.
    pub log_requests: bool,
    /// How long a fresh connection may sit silent before its *first*
    /// frame starts (replaces the old flat 2 s read timeout).
    pub header_timeout: Duration,
    /// Wall-clock budget for one whole frame counted from its first
    /// byte. Unlike a per-read timeout it never resets on progress, so a
    /// byte-dripping client is bounded by this, not by patience.
    pub frame_budget: Duration,
    /// How long a keep-alive connection may idle between frames before
    /// the server closes it.
    pub keepalive_idle: Duration,
    /// Requests served per connection before the server closes it
    /// (`connection: close` on the last response). Bounds how long one
    /// client can monopolize a worker; min 1.
    pub max_requests_per_conn: usize,
    /// Directory of packed `.phdegrf` snapshots servable via
    /// `graph: packed:<name>` (opened mmap-backed, so the graph may exceed
    /// RAM). `None` rejects `packed:` specs.
    pub graph_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 8,
            mem_budget_bytes: 2 << 30,
            cache_dir: None,
            cache_max_bytes: None,
            report_dir: None,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            drain_grace: Duration::from_secs(2),
            log_requests: false,
            header_timeout: Duration::from_secs(2),
            frame_budget: Duration::from_secs(2),
            keepalive_idle: Duration::from_secs(5),
            max_requests_per_conn: 64,
            graph_dir: None,
        }
    }
}

/// Per-server handles into this daemon's metrics [`Registry`]. Counters
/// and histograms are maintained inline on the request path (lock-free
/// relaxed atomics); point-in-time gauges are sampled at scrape.
///
/// The layout lifecycle invariant every scrape must satisfy once traffic
/// quiesces: `requests_started_total` equals the sum of the eight
/// `layout_*_total` terminal counters — every layout request that enters
/// the pipeline leaves through exactly one exit.
struct Metrics {
    /// This server's own registry (NOT the process-global one: tests run
    /// several servers per process and each scrape must count only its
    /// own traffic; the global registry is merged in at scrape time).
    registry: Registry,
    // Connection-level events (before a request is even parsed).
    connections_accepted: Arc<Counter>,
    connections_shed_queue: Arc<Counter>,
    connections_unreadable: Arc<Counter>,
    requests_unparseable: Arc<Counter>,
    panics: Arc<Counter>,
    // Keep-alive connection lifecycle (DESIGN.md §16.2).
    keepalive_requests: Arc<Counter>,
    connections_closed_idle: Arc<Counter>,
    connections_closed_cap: Arc<Counter>,
    connections_closed_fair: Arc<Counter>,
    frame_timeouts: Arc<Counter>,
    pipeline_cancelled: Arc<Counter>,
    // Layout lifecycle: one start, exactly one terminal.
    layout_started: Arc<Counter>,
    layout_completed: Arc<Counter>,
    layout_rejected: Arc<Counter>,
    layout_timeout: Arc<Counter>,
    layout_too_large: Arc<Counter>,
    layout_busy: Arc<Counter>,
    layout_cancelled: Arc<Counter>,
    layout_failed: Arc<Counter>,
    layout_drained: Arc<Counter>,
    // Result-cache traffic and bounding.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_warm: Arc<Counter>,
    cache_cold: Arc<Counter>,
    // Sampled at scrape time.
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    budget_reserved_bytes: Arc<Gauge>,
    budget_total_bytes: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    snapshots_open: Arc<Gauge>,
    snapshots_bytes_resident: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    /// 1 when the active linalg backend is the SIMD one, 0 for scalar.
    backend_simd_active: Arc<Gauge>,
    /// 1 when the CPU supports the SIMD backend (AVX2+FMA), regardless of
    /// which backend is active — together the pair makes a silent scalar
    /// fallback (supported=1, active=0 under auto) visible in a scrape.
    cpu_simd_supported: Arc<Gauge>,
    // Latency distributions (log₂ buckets, lossless cross-thread merge).
    queue_wait_ms: Arc<Histogram>,
    request_duration_ms: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        let c = |n: &str| registry.counter(n);
        let g = |n: &str| registry.gauge(n);
        Metrics {
            connections_accepted: c("parhde_connections_accepted_total"),
            connections_shed_queue: c("parhde_connections_shed_queue_total"),
            connections_unreadable: c("parhde_connections_unreadable_total"),
            requests_unparseable: c("parhde_requests_unparseable_total"),
            panics: c("parhde_panics_total"),
            keepalive_requests: c("parhde_keepalive_requests_total"),
            connections_closed_idle: c("parhde_connections_closed_idle_total"),
            connections_closed_cap: c("parhde_connections_closed_cap_total"),
            connections_closed_fair: c("parhde_connections_closed_fair_total"),
            frame_timeouts: c("parhde_frame_timeouts_total"),
            pipeline_cancelled: c("parhde_pipeline_cancelled_total"),
            layout_started: c("parhde_requests_started_total"),
            layout_completed: c("parhde_layout_completed_total"),
            layout_rejected: c("parhde_layout_rejected_total"),
            layout_timeout: c("parhde_layout_timeout_total"),
            layout_too_large: c("parhde_layout_too_large_total"),
            layout_busy: c("parhde_layout_busy_total"),
            layout_cancelled: c("parhde_layout_cancelled_total"),
            layout_failed: c("parhde_layout_failed_total"),
            layout_drained: c("parhde_layout_drained_total"),
            cache_hits: c("parhde_cache_hits_total"),
            cache_misses: c("parhde_cache_misses_total"),
            cache_evictions: c("parhde_cache_evictions_total"),
            cache_warm: c("parhde_cache_warm_total"),
            cache_cold: c("parhde_cache_cold_total"),
            queue_depth: g("parhde_queue_depth"),
            inflight: g("parhde_inflight"),
            budget_reserved_bytes: g("parhde_budget_reserved_bytes"),
            budget_total_bytes: g("parhde_budget_total_bytes"),
            cache_entries: g("parhde_cache_entries"),
            cache_bytes: g("parhde_cache_bytes"),
            snapshots_open: g("parhde_snapshots_open"),
            snapshots_bytes_resident: g("parhde_snapshots_bytes_resident"),
            uptime_seconds: g("parhde_uptime_seconds"),
            backend_simd_active: g("parhde_backend_simd_active"),
            cpu_simd_supported: g("parhde_cpu_simd_supported"),
            queue_wait_ms: registry.histogram("parhde_queue_wait_ms"),
            request_duration_ms: registry.histogram("parhde_request_duration_ms"),
            registry,
        }
    }

    /// The terminal counter a failed run maps to, keyed by wire status.
    fn terminal_for_error(&self, code: u16) -> &Arc<Counter> {
        match code {
            proto::CANCELLED => &self.layout_cancelled,
            proto::TIMEOUT => &self.layout_timeout,
            proto::TOO_LARGE => &self.layout_too_large,
            _ => &self.layout_failed,
        }
    }
}

/// A connection accepted but not yet picked up by a worker. The deadline
/// clock starts at `accepted`: queue wait burns the request's own time.
struct Pending {
    stream: TcpStream,
    accepted: Instant,
}

/// One in-flight request's entry in the disconnect watchdog's registry.
struct WatchEntry {
    id: u64,
    stream: TcpStream,
    flag: CancelFlag,
}

struct Shared {
    cfg: ServerConfig,
    budget: Arc<SharedSoftBudget>,
    cache: Option<LayoutCache>,
    snapshots: Snapshots,
    clock: ServiceClock,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    drain: AtomicBool,
    stop_watchdog: AtomicBool,
    metrics: Metrics,
    watch: Mutex<Vec<WatchEntry>>,
    req_seq: AtomicU64,
    watch_seq: AtomicU64,
    inflight: AtomicU64,
    /// Threads draining shed connections (at most [`SHED_DRAINS_MAX`]
    /// running); [`Server::drain`] joins them.
    shed_drains: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// When this daemon started (uptime gauge, PING header).
    started: Instant,
    /// Boot-unique half of every trace ID, derived from wall clock and
    /// PID at startup so IDs from different daemon incarnations don't
    /// collide in shared log streams.
    boot: u32,
}

impl Shared {
    /// Drain is the union of the in-process flag and the process-global
    /// signal-driven one.
    fn draining(&self) -> bool {
        self.drain.load(Ordering::Relaxed) || supervisor::drain_requested()
    }

    fn work_ahead(&self) -> usize {
        let queued = self.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
        queued + self.inflight.load(Ordering::Relaxed) as usize
    }

    /// Issues the next request trace ID: `<boot>-<seq>`, both fixed-width
    /// hex. The boot half joins log lines to a daemon incarnation; the
    /// sequence half is unique within it.
    fn next_trace_id(&self) -> String {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed) as u32;
        format!("{:08x}-{seq:08x}", self.boot)
    }
}

/// A running daemon. Dropping it without calling [`Server::drain`] detaches
/// the threads (they exit with the process); tests should drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    watchdog_handle: Option<std::thread::JoinHandle<()>>,
}

/// Starts a daemon from `cfg`.
///
/// # Errors
/// [`std::io::Error`] if the listener cannot bind or the cache directory
/// cannot be created.
pub fn serve(cfg: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let cache = match &cfg.cache_dir {
        Some(dir) => Some(LayoutCache::open_bounded(dir, cfg.cache_max_bytes)?),
        None => None,
    };
    if let Some(dir) = &cfg.report_dir {
        std::fs::create_dir_all(dir)?;
    }
    let workers = cfg.workers.max(1);
    let budget = SharedSoftBudget::new(cfg.mem_budget_bytes);
    let metrics = Metrics::new();
    if let Some(cache) = &cache {
        // Entries trimmed while re-indexing a pre-existing directory.
        metrics.cache_evictions.add(cache.usage().evictions);
    }
    let boot = {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        (secs as u32).wrapping_mul(0x9e37_79b9) ^ std::process::id()
    };
    let shared = Arc::new(Shared {
        cfg,
        budget,
        cache,
        snapshots: Snapshots::default(),
        clock: ServiceClock::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        drain: AtomicBool::new(false),
        stop_watchdog: AtomicBool::new(false),
        metrics,
        watch: Mutex::new(Vec::new()),
        req_seq: AtomicU64::new(0),
        watch_seq: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        shed_drains: Mutex::new(Vec::new()),
        started: Instant::now(),
        boot,
    });

    let accept_shared = Arc::clone(&shared);
    let accept_handle = std::thread::Builder::new()
        .name("parhde-accept".into())
        .spawn(move || accept_loop(listener, &accept_shared))?;

    // The workers split the process width, so side-by-side layouts never
    // run more compute threads than it allows.
    let width = (parhde_util::par::current_num_threads() / workers).max(1);
    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let worker_shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("parhde-worker-{i}"))
                .spawn(move || run_with_threads(width, || worker_loop(&worker_shared)))?,
        );
    }

    let watchdog_shared = Arc::clone(&shared);
    let watchdog_handle = std::thread::Builder::new()
        .name("parhde-watchdog".into())
        .spawn(move || watchdog_loop(&watchdog_shared))?;

    Ok(Server {
        addr,
        shared,
        accept_handle: Some(accept_handle),
        worker_handles,
        watchdog_handle: Some(watchdog_handle),
    })
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts draining without blocking: stop accepting, let workers wind
    /// down. Equivalent to the first SIGTERM.
    pub fn request_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Leftover `.tmp` files under the cache directory (chaos probe).
    pub fn stray_tmp_files(&self) -> Vec<PathBuf> {
        self.shared.cache.as_ref().map(|c| c.stray_tmp_files()).unwrap_or_default()
    }

    /// Drains and joins: stops accepting, answers queued requests with
    /// 503, gives in-flight runs [`ServerConfig::drain_grace`] to finish,
    /// then fires their cancel flags (checkpoints make the interrupted
    /// work resumable) and joins every thread.
    pub fn drain(mut self) {
        self.request_drain();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.shared.shed_drains.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
            let _ = h.join();
        }
        // Grace period for in-flight work.
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        while Instant::now() < deadline && self.shared.work_ahead() > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Past grace: cancel whatever is still running.
        for entry in self.shared.watch.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            entry.flag.store(true, Ordering::SeqCst);
        }
        self.shared.queue_cv.notify_all();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        self.shared.stop_watchdog.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog_handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connections_accepted.inc();
                let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if queue.len() >= shared.cfg.queue_capacity {
                    drop(queue);
                    shed_overloaded(shared, stream);
                } else {
                    queue.push_back(Pending { stream, accepted: Instant::now() });
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Bytes a shed connection's drain reads and discards before it closes.
const SHED_DRAIN_BYTES: usize = 64 * 1024;
/// How long a shed connection's drain waits for the client's EOF.
const SHED_DRAIN_TIME: Duration = Duration::from_millis(300);
/// Shed connections drained at once; past the cap one closes at once.
const SHED_DRAINS_MAX: usize = 32;

/// Sheds one connection with 429 + retry-after, without parsing a byte of
/// its request — overload handling must not depend on the client's input.
///
/// Closing a socket whose request bytes are still unread makes the kernel
/// answer with a reset, which can discard the 429 before the client reads
/// it. So the accept loop half-closes after the frame and hands the stream
/// to a drain thread, which discards the request until the client's EOF
/// (within [`SHED_DRAIN_BYTES`] and [`SHED_DRAIN_TIME`]) before closing.
fn shed_overloaded(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.metrics.connections_shed_queue.inc();
    let trace_id = shared.next_trace_id();
    let hint = shared.clock.retry_after_ms(shared.work_ahead());
    let resp = Response::new(proto::OVERLOADED, "queue full")
        .with("retry-after-ms", hint)
        .with("trace-id", &trace_id);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if let Ok(frame) = resp.encode_frame() {
        let _ = std::io::Write::write_all(&mut stream, &frame);
    }
    if shared.cfg.log_requests {
        log_request_event(&trace_id, "SHED", proto::OVERLOADED, "queue full", 0.0);
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut drains = shared.shed_drains.lock().unwrap_or_else(|e| e.into_inner());
    drains.retain(|h| !h.is_finished());
    if drains.len() < SHED_DRAINS_MAX {
        let spawned = std::thread::Builder::new()
            .name("parhde-shed-drain".into())
            .spawn(move || drain_unread(stream));
        drains.extend(spawned.ok());
    }
}

/// Reads and discards until EOF, [`SHED_DRAIN_BYTES`] or
/// [`SHED_DRAIN_TIME`], whichever comes first; the stream closes on drop.
fn drain_unread(mut stream: TcpStream) {
    let deadline = Instant::now() + SHED_DRAIN_TIME;
    let mut buf = [0u8; 4096];
    let mut left = SHED_DRAIN_BYTES;
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() || stream.set_read_timeout(Some(wait)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(k) => left = left.saturating_sub(k),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let pending = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(p) = queue.pop_front() {
                    break Some(p);
                }
                if shared.draining() {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
            }
        };
        let Some(pending) = pending else { break };
        handle_connection(shared, pending);
    }
}

/// Why the per-connection loop decided to stop serving frames.
enum CloseCause {
    /// Clean EOF, idle timeout after ≥ 1 request, drain while idle, or a
    /// voluntary fairness close — nothing is owed to the peer.
    Quiet,
    /// The first frame never arrived or was unreadable (counts
    /// `connections_unreadable`, matching the pre-keep-alive daemon).
    Unreadable,
}

/// The per-connection protocol state machine (DESIGN.md §16.2). One
/// worker owns the connection and loops: staged frame read → dispatch →
/// ordered response write → next frame. Pipelined frames the client sent
/// ahead simply wait in the socket buffer and become the next iteration;
/// responses go back strictly in request order because the loop is
/// serial. The connection closes on: quiet EOF, idle timeout, the
/// per-connection request cap, drain, fairness (another connection is
/// queued while this one idles), a hostile frame, or a failed write — a
/// failed write also counts the pipelined successors already buffered as
/// cancelled, because they were received but will never be answered.
fn handle_connection(shared: &Arc<Shared>, pending: Pending) {
    let Pending { mut stream, accepted } = pending;
    shared
        .metrics
        .queue_wait_ms
        .record(accepted.elapsed().as_secs_f64() * 1e3);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Keep-alive responses must not queue behind Nagle: a pipelining peer
    // may not ACK promptly, and a delayed-ACK stall per response would
    // dominate sub-millisecond cache hits.
    let _ = stream.set_nodelay(true);
    let mut served: usize = 0;
    let cap = shared.cfg.max_requests_per_conn.max(1);
    let cause = loop {
        let is_first = served == 0;
        let budget = proto::ReadBudget {
            idle: if is_first {
                shared.cfg.header_timeout
            } else {
                shared.cfg.keepalive_idle
            },
            frame: shared.cfg.frame_budget,
        };
        // Fairness: an idle keep-alive connection yields its worker when
        // other connections are waiting in the queue (checked only after
        // an empty poll slice — buffered frames always win). The first
        // request is exempt: it was queued and popped fairly already.
        let abort = || {
            shared.draining()
                || (!is_first
                    && !shared.queue.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
        };
        if let Some(fired) = parhde_util::failpoint::check("serve.read_frame") {
            if matches!(
                fired,
                parhde_util::failpoint::Fired::Err | parhde_util::failpoint::Fired::Partial
            ) {
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet };
            }
        }
        let (payload, frame_start) = match proto::read_frame_staged(&stream, &budget, abort)
        {
            Ok(frame) => frame,
            Err(proto::FrameError::Eof) => {
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet }
            }
            Err(proto::FrameError::Idle) => {
                if !is_first {
                    shared.metrics.connections_closed_idle.inc();
                }
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet };
            }
            Err(proto::FrameError::Aborted) => {
                if !is_first && !shared.draining() {
                    shared.metrics.connections_closed_fair.inc();
                }
                break if is_first && !shared.draining() {
                    CloseCause::Unreadable
                } else {
                    CloseCause::Quiet
                };
            }
            Err(proto::FrameError::Timeout) => {
                // The peer started a frame and stalled: answer 408 (it
                // may still be listening) and close — the stream is no
                // longer frame-synchronized.
                shared.metrics.frame_timeouts.inc();
                let resp = Response::new(proto::TIMEOUT, "frame timeout")
                    .with("error", "whole-frame read budget exhausted")
                    .with("connection", "close")
                    .with("trace-id", shared.next_trace_id());
                let _ = write_response_frame(&mut stream, &resp);
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet };
            }
            Err(proto::FrameError::TooLarge(len)) => {
                // A hostile or desynchronized length prefix: best-effort
                // typed rejection, then close (the payload bytes were
                // never read, so the stream cannot be re-synchronized).
                let resp = Response::new(proto::BAD_REQUEST, "frame too large")
                    .with("error", format!("frame length {len} exceeds cap"))
                    .with("connection", "close")
                    .with("trace-id", shared.next_trace_id());
                let _ = write_response_frame(&mut stream, &resp);
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet };
            }
            Err(proto::FrameError::TruncatedEof | proto::FrameError::Io(_)) => {
                break if is_first { CloseCause::Unreadable } else { CloseCause::Quiet }
            }
        };
        // Pipelined deadlines are per-request: request k's clock starts
        // at its own first byte, not at connection accept — otherwise a
        // burst of pipelined frames would all age while their
        // predecessors run.
        let req_accepted = if is_first { accepted } else { frame_start };
        if !is_first {
            shared.metrics.keepalive_requests.inc();
        }
        let trace_id = shared.next_trace_id();
        let mut op_name = "INVALID";
        // Panic boundary: a panic anywhere in request handling must cost
        // the *request* (typed 500), never the worker thread — a daemon
        // that silently loses workers to hostile inputs eventually serves
        // nobody. (Layout requests carry their own inner boundary so
        // panics still land in a lifecycle terminal counter; this one
        // covers the rest.)
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match Request::parse(&payload) {
                Err(msg) => {
                    shared.metrics.requests_unparseable.inc();
                    Response::new(proto::BAD_REQUEST, "bad request").with("error", msg)
                }
                Ok(req) => {
                    op_name = match req.op {
                        Op::Ping => "PING",
                        Op::Stats => "STATS",
                        Op::Layout => "LAYOUT",
                    };
                    match req.op {
                        Op::Ping => ping_response(shared),
                        Op::Stats => stats_response(shared, &req),
                        Op::Layout => {
                            handle_layout(shared, &req, &stream, req_accepted, &trace_id)
                        }
                    }
                }
            }
        }))
        .unwrap_or_else(|panic| {
            shared.metrics.panics.inc();
            Response::new(proto::INTERNAL, "internal error (bug)")
                .with("error", panic_message(&panic))
        });
        served += 1;
        let close = shared.draining() || served >= cap;
        let response = response
            .with("trace-id", &trace_id)
            .with("connection", if close { "close" } else { "keep-alive" });
        let write = write_response_frame(&mut stream, &response);
        let elapsed_ms = req_accepted.elapsed().as_secs_f64() * 1e3;
        if op_name == "LAYOUT" && response.code == proto::OK {
            // Full server-side latency of a successful layout: queue wait
            // through response write — the population `parhde-loadgen
            // --scrape` cross-checks against client-observed latencies.
            shared.metrics.request_duration_ms.record(elapsed_ms);
        }
        if shared.cfg.log_requests {
            log_request_event(&trace_id, op_name, response.code, &response.reason, elapsed_ms);
        }
        if let Err(e) = write {
            // The connection died with this response unsent. Pipelined
            // successors already buffered were *received* but will never
            // be answered: account them as cancelled so the pipeline's
            // books balance.
            let orphans = count_buffered_frames(&stream);
            if orphans > 0 {
                shared.metrics.pipeline_cancelled.add(orphans);
            }
            if shared.cfg.log_requests {
                log_warn_event("response-write-failed", &trace_id, &e.to_string());
            }
            break CloseCause::Quiet;
        }
        if close {
            if served >= cap && !shared.draining() {
                shared.metrics.connections_closed_cap.inc();
            }
            break CloseCause::Quiet;
        }
    };
    if matches!(cause, CloseCause::Unreadable) {
        shared.metrics.connections_unreadable.inc();
    }
}

/// Encodes and writes one response frame, honoring the
/// `serve.write_response` failpoint: `err` fails before any byte (the peer
/// sees a clean close or reset), `partial` writes the length prefix plus
/// half the payload then fails (the peer sees a torn frame and must treat
/// it as a transport error, never a response).
///
/// Prefix and payload go out in ONE write: two small writes on a reused
/// keep-alive connection trip Nagle + delayed-ACK (the prefix segment
/// sits unacknowledged, so the payload waits out the peer's ~40 ms
/// delayed ACK — invisible on fresh connections, where Linux starts in
/// quickack mode, which is why the one-request-per-connection server
/// never saw it).
fn write_response_frame(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    use parhde_util::failpoint;
    use std::io::Write;
    let frame = response.encode_frame().map_err(|len| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("reply of {len} B exceeds the frame cap"),
        )
    })?;
    match failpoint::check("serve.write_response") {
        Some(failpoint::Fired::Err) => {
            return Err(failpoint::injected_io_error("serve.write_response"))
        }
        Some(failpoint::Fired::Partial) => {
            stream.write_all(&frame[..4 + (frame.len() - 4) / 2])?;
            let _ = stream.flush();
            return Err(failpoint::injected_io_error("serve.write_response"));
        }
        _ => {}
    }
    stream.write_all(&frame)?;
    stream.flush()
}

/// Counts complete frames already sitting in the connection's receive
/// buffer (best-effort, via a non-blocking `peek`): the pipelined
/// successors a dead connection strands.
fn count_buffered_frames(stream: &TcpStream) -> u64 {
    let mut buf = [0u8; 64 * 1024];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let n = match stream.peek(&mut buf) {
        Ok(n) => n,
        Err(_) => return 0,
    };
    let mut frames = 0u64;
    let mut at = 0usize;
    while at + 4 <= n {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap_or_default());
        let Some(end) = at.checked_add(4).and_then(|s| s.checked_add(len as usize)) else {
            break;
        };
        if len > proto::MAX_FRAME || end > n {
            break;
        }
        frames += 1;
        at = end;
    }
    frames
}

/// Best-effort human text out of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic")
}

/// One NDJSON event line on stderr: the daemon's request log. One line
/// per answered request, machine-splittable, replacing free-form prints.
fn log_request_event(trace_id: &str, op: &str, code: u16, reason: &str, ms: f64) {
    eprintln!(
        "{{\"event\":\"request\",\"trace_id\":\"{}\",\"op\":\"{}\",\"code\":{},\
         \"reason\":\"{}\",\"ms\":{}}}",
        parhde_trace::json::escape(trace_id),
        parhde_trace::json::escape(op),
        code,
        parhde_trace::json::escape(reason),
        parhde_trace::json::number(ms),
    );
}

/// A warning event in the same NDJSON stream (always emitted — these
/// replace the daemon's former ad-hoc `eprintln!` diagnostics).
fn log_warn_event(what: &str, trace_id: &str, detail: &str) {
    eprintln!(
        "{{\"event\":\"warn\",\"what\":\"{}\",\"trace_id\":\"{}\",\"detail\":\"{}\"}}",
        parhde_trace::json::escape(what),
        parhde_trace::json::escape(trace_id),
        parhde_trace::json::escape(detail),
    );
}

fn ping_response(shared: &Arc<Shared>) -> Response {
    let m = &shared.metrics;
    Response::new(proto::OK, "pong")
        .with("version", env!("CARGO_PKG_VERSION"))
        .with("uptime-s", shared.started.elapsed().as_secs())
        .with("draining", u8::from(shared.draining()))
        .with("queued", shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len())
        .with("inflight", shared.inflight.load(Ordering::Relaxed))
        .with("budget-total", shared.budget.total())
        .with("budget-reserved", shared.budget.reserved())
        .with("accepted", m.connections_accepted.get())
        .with("completed", m.layout_completed.get())
        .with("shed-queue", m.connections_shed_queue.get())
        .with("shed-busy", m.layout_busy.get())
        .with("rejected", m.layout_rejected.get())
        .with("cache-hit", m.cache_hits.get())
        .with("cache-warm", m.cache_warm.get())
        .with("cache-cold", m.cache_cold.get())
        .with("cancelled", m.layout_cancelled.get())
        .with("failed", m.layout_failed.get())
}

/// Answers a `STATS` scrape: refresh the point-in-time gauges, snapshot
/// this server's registry, fold in the process-global registry (the
/// supervisor's install and trip counters), and encode. Takes no lock a
/// layout holds, so a scrape costs microseconds once a worker reads it;
/// on a new connection it still waits in the connection queue for a free
/// worker (DESIGN.md §14.2).
fn stats_response(shared: &Arc<Shared>, req: &Request) -> Response {
    let m = &shared.metrics;
    m.queue_depth
        .set(shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as f64);
    m.inflight.set(shared.inflight.load(Ordering::Relaxed) as f64);
    m.budget_reserved_bytes.set(shared.budget.reserved() as f64);
    m.budget_total_bytes.set(shared.budget.total() as f64);
    m.uptime_seconds.set(shared.started.elapsed().as_secs_f64());
    m.backend_simd_active.set(f64::from(
        parhde_linalg::backend::active_name() == "simd",
    ));
    m.cpu_simd_supported
        .set(f64::from(parhde_linalg::backend::simd_supported()));
    if let Some(cache) = &shared.cache {
        let usage = cache.usage();
        m.cache_entries.set(usage.entries as f64);
        m.cache_bytes.set(usage.bytes as f64);
    }
    let (open, resident) = shared.snapshots.usage();
    m.snapshots_open.set(open as f64);
    m.snapshots_bytes_resident.set(resident as f64);
    let mut snap = m.registry.snapshot();
    snap.merge_from(&registry::global().snapshot());
    let (format, body) = match req.header("format") {
        None | Some("prometheus") => ("prometheus", snap.to_prometheus()),
        Some("ndjson") => ("ndjson", snap.to_ndjson()),
        Some(other) => {
            return Response::new(proto::BAD_REQUEST, "bad request")
                .with("error", format!("unknown stats format {other:?}"));
        }
    };
    let mut resp = Response::new(proto::OK, "stats").with("format", format);
    resp.body = body;
    resp
}

/// Cap on the `hold-ms` chaos knob, so it cannot park a worker forever.
const MAX_HOLD_MS: u64 = 10_000;

/// Sleeps in short slices so the disconnect watchdog and the deadline
/// still interrupt a held request exactly like a running one.
fn cooperative_hold(
    ms: u64,
    flag: &CancelFlag,
    hard_deadline: Instant,
) -> Result<(), HdeError> {
    let until = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < until {
        if flag.load(Ordering::Relaxed) {
            return Err(HdeError::Cancelled { phase: "hold" });
        }
        if Instant::now() >= hard_deadline {
            return Err(HdeError::DeadlineExceeded { phase: "hold" });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Caps on `gen:` pseudo-inputs, so a hostile request cannot ask the
/// server to generate an astronomically large graph.
const MAX_GEN_KRON_SCALE: u32 = 20;
const MAX_GEN_GRID_SIDE: usize = 4096;
const MAX_GEN_PREF_N: usize = 2_000_000;

/// A resolved request graph: parsed/generated plain CSR, or a packed
/// snapshot from the server's `graph_dir`, mmap-backed and shared through
/// the daemon's [`Snapshots`] table.
enum ResolvedGraph {
    Plain(CsrGraph),
    Packed(Arc<OpenSnapshot>),
}

/// The packed snapshots this daemon has opened, by file name. An entry is
/// reused while its file keeps the identity it had when it was opened, so
/// every request reads bytes [`CompressedCsr::open_mmap`] validated and
/// shares the snapshot's memoized digest; a republish by rename gives the
/// file a new identity and the next request opens it afresh (DESIGN.md
/// §17.3).
#[derive(Default)]
struct Snapshots(Mutex<HashMap<String, Arc<OpenSnapshot>>>);

/// A validated snapshot, the identity its file had when it was stat'ed
/// (`None` if it could not be, and then never reused), and its hold on
/// the shared budget: the resident bytes stay reserved while the table
/// or a request still uses the snapshot, counted once however many
/// requests share it (DESIGN.md §17.4).
struct OpenSnapshot {
    graph: CompressedCsr,
    identity: Option<FileIdentity>,
    hold: Hold,
}

/// What tells one published file from its replacement: a rename brings a
/// new inode, a rewrite a new length or modification time.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FileIdentity {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: Option<SystemTime>,
}

impl FileIdentity {
    fn of(meta: &std::fs::Metadata) -> FileIdentity {
        #[cfg(unix)]
        let (dev, ino) = {
            use std::os::unix::fs::MetadataExt;
            (meta.dev(), meta.ino())
        };
        #[cfg(not(unix))]
        let (dev, ino) = (0, 0);
        FileIdentity {
            dev,
            ino,
            len: meta.len(),
            mtime: meta.modified().ok(),
        }
    }
}

impl Snapshots {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<OpenSnapshot>>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The validated snapshot behind `path`, opened once per file identity
    /// and held on `budget`. A file that cannot be stat'ed loses its entry
    /// and fails to open with `open_mmap`'s own error. The file is stat'ed
    /// before it is opened, so a recorded identity is never newer than the
    /// bytes mapped under it: a file replaced in between costs the next
    /// request a reopen, never a stale reply.
    fn open(
        &self,
        name: &str,
        path: &Path,
        budget: &Arc<SharedSoftBudget>,
    ) -> Result<Arc<OpenSnapshot>, String> {
        let identity = std::fs::metadata(path).ok().map(|m| FileIdentity::of(&m));
        {
            let mut table = self.lock();
            match table.get(name) {
                Some(e) if identity.is_some() && e.identity == identity => {
                    return Ok(Arc::clone(e))
                }
                _ => table.remove(name),
            };
        }
        // Validation runs outside the lock: hits on other snapshots do not
        // wait for it.
        let graph = CompressedCsr::open_mmap(path).map_err(|e| e.to_string())?;
        let hold = budget.hold(graph.resident_bytes() as u64);
        let snapshot = Arc::new(OpenSnapshot { graph, identity, hold });
        self.lock().insert(name.to_string(), Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Drops the entries no request is using, which releases their holds;
    /// whether any went.
    fn evict_idle(&self) -> bool {
        let mut table = self.lock();
        let before = table.len();
        table.retain(|_, e| Arc::strong_count(e) > 1);
        table.len() < before
    }

    /// `(entries, held bytes)` of the open snapshots.
    fn usage(&self) -> (usize, u64) {
        let table = self.lock();
        (table.len(), table.values().map(|e| e.hold.bytes).sum())
    }
}

/// Resolves the request's graph: `gen:` specs, `packed:<name>` snapshots
/// (when `--graph-dir` is configured), or the inline body.
fn resolve_graph(shared: &Arc<Shared>, req: &Request) -> Result<ResolvedGraph, String> {
    let spec = req.header("graph").unwrap_or("inline");
    let parts: Vec<&str> = spec.split(':').collect();
    if let ["packed", name] = parts.as_slice() {
        let Some(dir) = &shared.cfg.graph_dir else {
            return Err("packed graphs not enabled (start with --graph-dir)".into());
        };
        // The name is a single path component chosen by the client; keep it
        // to a conservative charset and never let it traverse.
        let ok = !name.is_empty()
            && !name.starts_with('.')
            && !name.contains("..")
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if !ok {
            return Err(format!("bad packed graph name {name:?}"));
        }
        let file = if name.ends_with(".phdegrf") {
            name.to_string()
        } else {
            format!("{name}.phdegrf")
        };
        let g = shared.snapshots.open(&file, &dir.join(&file), &shared.budget)?;
        return Ok(ResolvedGraph::Packed(g));
    }
    let parsed = match parts.as_slice() {
        ["inline"] => {
            if req.body.trim_start().starts_with("%%MatrixMarket") {
                parse_matrix_market(&req.body).map_err(|e| e.to_string())?
            } else {
                parse_edge_list(&req.body, 0).map_err(|e| e.to_string())?
            }
        }
        ["gen", "grid", r, c] => {
            let (r, c) = (dim(r)?, dim(c)?);
            if r == 0 || c == 0 || r > MAX_GEN_GRID_SIDE || c > MAX_GEN_GRID_SIDE {
                return Err(format!("grid {r}x{c} out of range"));
            }
            gen::grid2d(r, c)
        }
        ["gen", "kron", scale, ef, seed] => {
            let scale: u32 = scale.parse().map_err(|_| "bad kron scale")?;
            if scale > MAX_GEN_KRON_SCALE {
                return Err(format!("kron scale {scale} over cap {MAX_GEN_KRON_SCALE}"));
            }
            gen::kron(scale, dim(ef)?, seed.parse().map_err(|_| "bad seed")?)
        }
        ["gen", "pref", n, k, seed] => {
            let n = dim(n)?;
            if !(2..=MAX_GEN_PREF_N).contains(&n) {
                return Err(format!("pref n {n} out of range"));
            }
            gen::pref_attach(n, dim(k)?, seed.parse().map_err(|_| "bad seed")?)
        }
        _ => return Err(format!("unknown graph spec {spec:?}")),
    };
    Ok(ResolvedGraph::Plain(parsed))
}

fn dim(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad dimension {s:?}"))
}

fn parse_u64(req: &Request, key: &str) -> Result<Option<u64>, String> {
    match req.header(key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("bad {key} {v:?}")),
    }
}

/// The layout entry point: counts the start, then guarantees exactly one
/// lifecycle terminal counter fires no matter how the request leaves —
/// including by panicking. Without the inner panic boundary a panic would
/// unwind past every terminal and break the scrape invariant
/// `requests_started == Σ layout_*_total`.
fn handle_layout(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    accepted: Instant,
    trace_id: &str,
) -> Response {
    shared.metrics.layout_started.inc();
    let inner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_layout_inner(shared, req, stream, accepted, trace_id)
    }));
    inner.unwrap_or_else(|panic| {
        shared.metrics.layout_failed.inc();
        shared.metrics.panics.inc();
        Response::new(proto::INTERNAL, "internal error (bug)")
            .with("error", panic_message(&panic))
    })
}

fn handle_layout_inner(
    shared: &Arc<Shared>,
    req: &Request,
    stream: &TcpStream,
    accepted: Instant,
    trace_id: &str,
) -> Response {
    if shared.draining() {
        shared.metrics.layout_drained.inc();
        return Response::new(proto::DRAINING, "draining");
    }

    // ---- Parse knobs -----------------------------------------------------
    let parsed = (|| -> Result<_, String> {
        let p = parse_u64(req, "dim")?.unwrap_or(2) as usize;
        if !(1..=16).contains(&p) {
            return Err(format!("dim {p} out of range 1..=16"));
        }
        let deadline_ms = parse_u64(req, "deadline-ms")?;
        let subspace = parse_u64(req, "subspace")?.map(|s| s as usize);
        let seed = parse_u64(req, "seed")?;
        let no_cache = req.header("no-cache") == Some("1");
        // Chaos/testing knob: hold the worker (cooperatively — cancel and
        // deadline still fire) before running, to make races reproducible.
        let hold_ms = parse_u64(req, "hold-ms")?.unwrap_or(0).min(MAX_HOLD_MS);
        Ok((p, deadline_ms, subspace, seed, no_cache, hold_ms))
    })();
    let (p, deadline_ms, subspace, seed, no_cache, hold_ms) = match parsed {
        Ok(v) => v,
        Err(msg) => {
            shared.metrics.layout_rejected.inc();
            return Response::new(proto::BAD_REQUEST, "bad request").with("error", msg);
        }
    };
    let deadline = deadline_ms
        .map(|ms| Duration::from_millis(ms).min(shared.cfg.max_deadline))
        .unwrap_or(shared.cfg.default_deadline);

    // ---- Deadline spent waiting for a worker? ----------------------------
    // Checked before the graph is generated or parsed, which can take
    // longer than the deadline itself.
    if Instant::now() >= accepted + deadline {
        return timeout(shared, "deadline exhausted in queue", deadline);
    }

    // ---- Resolve the graph ----------------------------------------------
    let resolved = match resolve_graph(shared, req) {
        Ok(g) => g,
        Err(msg) => {
            shared.metrics.layout_rejected.inc();
            return Response::new(proto::BAD_REQUEST, "bad graph").with("error", msg);
        }
    };
    match resolved {
        ResolvedGraph::Plain(g) => {
            // Same preprocessing as the CLI: lay out the largest component.
            // An empty parse (e.g. an empty body) must reject here —
            // `largest_component` requires at least one vertex.
            if g.num_vertices() == 0 {
                shared.metrics.layout_rejected.inc();
                return Response::new(proto::BAD_REQUEST, "bad graph")
                    .with("error", "graph has no vertices");
            }
            let g = largest_component(&g).graph;
            if g.num_vertices() < 2 {
                shared.metrics.layout_rejected.inc();
                return Response::new(proto::BAD_REQUEST, "bad graph").with(
                    "error",
                    format!(
                        "largest component has {} vertices; need >= 2",
                        g.num_vertices()
                    ),
                );
            }
            layout_resolved(
                shared, &g, 0, stream, accepted, trace_id, p, deadline, subspace, seed, no_cache,
                hold_ms,
            )
        }
        ResolvedGraph::Packed(snapshot) => {
            let g = &snapshot.graph;
            // parhde-pack already extracted the largest component (the
            // compressed pipeline cannot re-extract one); a disconnected
            // snapshot surfaces as a typed Disconnected error from the run.
            if g.num_vertices() < 2 {
                shared.metrics.layout_rejected.inc();
                return Response::new(proto::BAD_REQUEST, "bad graph")
                    .with("error", "packed graph has < 2 vertices");
            }
            shared
                .metrics
                .registry
                .gauge("parhde_graph_compression_ratio")
                .set(g.compression_ratio());
            let resp = layout_resolved(
                shared,
                g,
                snapshot.hold.bytes,
                stream,
                accepted,
                trace_id,
                p,
                deadline,
                subspace,
                seed,
                no_cache,
                hold_ms,
            );
            // Decode-buffer telemetry: how much varint decoding was done on
            // this snapshot since the last request on it took the counts.
            // Taking them counts every decode once, whichever request of
            // several sharing the store did it.
            let (calls, arcs) = g.take_decode_stats();
            shared.metrics.registry.counter("parhde_graph_decode_calls_total").add(calls);
            shared.metrics.registry.counter("parhde_graph_decoded_arcs_total").add(arcs);
            resp
        }
    }
}

/// The storage-generic tail of a layout request: config clamp, cache
/// lookup, shared-budget admission, and the supervised run. `held` is what
/// of `g`'s resident bytes the budget already holds for an open snapshot.
/// The deadline runs from `accepted`, and had not run out when the worker
/// began resolving the graph.
#[allow(clippy::too_many_arguments)]
fn layout_resolved<G: GraphStore>(
    shared: &Arc<Shared>,
    g: &G,
    held: u64,
    stream: &TcpStream,
    accepted: Instant,
    trace_id: &str,
    p: usize,
    deadline: Duration,
    subspace: Option<usize>,
    seed: Option<u64>,
    no_cache: bool,
    hold_ms: u64,
) -> Response {
    let n = g.num_vertices();
    let m = g.num_edges();
    // Residency gauges: what the graph itself costs this process in RAM
    // versus what rides behind a file mapping the kernel pages on demand.
    shared
        .metrics
        .registry
        .gauge("parhde_graph_bytes_resident")
        .set(g.resident_bytes() as f64);
    shared
        .metrics
        .registry
        .gauge("parhde_graph_bytes_mapped")
        .set(g.mapped_bytes() as f64);

    // Post-clamp config, exactly as an uninterrupted CLI run would see it.
    let mut cfg = ParHdeConfig::for_graph(n);
    // The daemon pins the process-wide compute backend at startup (from
    // $PARHDE_BACKEND, or auto-detection on first touch); a request must
    // not flip it, so mirror the pin into the request config — the
    // pipeline's own install() then re-asserts the same backend.
    cfg.backend = match parhde_linalg::backend::active_name() {
        "simd" => parhde::config::LinalgBackend::Simd,
        _ => parhde::config::LinalgBackend::Scalar,
    };
    if let Some(s) = subspace {
        cfg.subspace = s.clamp(1, n.saturating_sub(1)).max(p.min(n - 1));
    }
    if let Some(seed) = seed {
        cfg.seed = seed;
    }

    // ---- Deadline spent resolving the graph? -----------------------------
    let hard_deadline = accepted + deadline;
    if Instant::now() >= hard_deadline {
        return timeout(shared, "deadline exhausted resolving the graph", deadline);
    }

    // ---- Cache lookup ----------------------------------------------------
    let key = cache_key(g, &cfg, p);
    if !no_cache && shared.cache.is_some() {
        if let Some(hit) = shared.cache.as_ref().and_then(|c| c.load(key)) {
            shared.metrics.cache_hits.inc();
            let elapsed = accepted.elapsed();
            shared.clock.record_ms(elapsed.as_secs_f64() * 1e3);
            let reply = ok_response(&hit.coords, n, m, &hit.rung, "hit", elapsed, &[]);
            return completed(shared, trace_id, reply);
        }
        shared.metrics.cache_misses.inc();
    }

    // ---- Shared-budget admission ----------------------------------------
    // Snapshots no request is using give their held bytes back when a
    // request does not fit beside them.
    let mut admitted = shared.budget.admit_stored(g, &cfg, p, held);
    if matches!(admitted, Err(AdmitError::Busy { .. })) && shared.snapshots.evict_idle() {
        admitted = shared.budget.admit_stored(g, &cfg, p, held);
    }
    let reservation = match admitted {
        Ok(r) => r,
        Err(AdmitError::NeverFits { min_bytes, total }) => {
            shared.metrics.layout_too_large.inc();
            return Response::new(proto::TOO_LARGE, "exceeds memory budget")
                .with("estimated-bytes", min_bytes)
                .with("budget-bytes", total);
        }
        Err(AdmitError::Busy { min_bytes, free }) => {
            shared.metrics.layout_busy.inc();
            let hint = shared.clock.retry_after_ms(shared.work_ahead());
            return Response::new(proto::OVERLOADED, "memory budget busy")
                .with("estimated-bytes", min_bytes)
                .with("free-bytes", free)
                .with("retry-after-ms", hint);
        }
    };
    let mut admission_note: Vec<String> = Vec::new();
    if reservation.downscaled {
        admission_note.push(format!(
            "admission downscaled subspace {} -> {} (shared budget)",
            cfg.subspace, reservation.subspace
        ));
        cfg.subspace = reservation.subspace;
    }

    // ---- Run -------------------------------------------------------------
    let flag = cancel_flag();
    // RAII: even a panicking run (caught at the layout boundary) must
    // unregister its watchdog entry and decrement the in-flight count.
    let watch_id = shared.watch_seq.fetch_add(1, Ordering::Relaxed);
    let _inflight = InflightGuard::enter(shared, watch_id, stream, &flag);
    let result = run_layout(
        shared, trace_id, g, &cfg, p, hard_deadline, &flag, key, no_cache, hold_ms,
    );
    drop(_inflight);
    drop(reservation);

    let elapsed = accepted.elapsed();
    shared.clock.record_ms(elapsed.as_secs_f64() * 1e3);
    match result {
        Ok(done) => {
            match done.cache_tag {
                "warm" => shared.metrics.cache_warm.inc(),
                _ => shared.metrics.cache_cold.inc(),
            };
            let mut notes = admission_note;
            notes.extend(done.warnings);
            let reply =
                ok_response(&done.coords, n, m, done.rung, done.cache_tag, elapsed, &notes);
            completed(shared, trace_id, reply)
        }
        Err(e) => {
            let (code, reason) = classify_error(&e);
            shared.metrics.terminal_for_error(code).inc();
            Response::new(code, reason)
                .with("error", e.to_string())
                .with("hde-exit-code", e.exit_code())
        }
    }
}

/// Maps a typed pipeline error to a wire status.
fn classify_error(e: &HdeError) -> (u16, &'static str) {
    match e {
        HdeError::Cancelled { .. } => (proto::CANCELLED, "cancelled"),
        HdeError::DeadlineExceeded { .. } => (proto::TIMEOUT, "deadline exceeded"),
        HdeError::MemoryBudgetExceeded { .. } => (proto::TOO_LARGE, "memory budget"),
        HdeError::Internal(_) => (proto::INTERNAL, "internal error"),
        // Disk trouble (checkpoint write, cache I/O) is the server's
        // fault, not the request's.
        HdeError::Io(_) => (proto::INTERNAL, "io error"),
        // Parse/config/degenerate/non-finite: the *request* was bad.
        _ => (proto::BAD_REQUEST, "layout failed"),
    }
}

struct Done {
    coords: ColMajorMatrix,
    rung: &'static str,
    cache_tag: &'static str,
    /// The request record's warnings, in the order they happened.
    warnings: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn run_layout<G: GraphStore>(
    shared: &Arc<Shared>,
    trace_id: &str,
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    hard_deadline: Instant,
    flag: &CancelFlag,
    key: u64,
    no_cache: bool,
    hold_ms: u64,
) -> Result<Done, HdeError> {
    // Layouts run concurrently, one per worker thread: the run's budget and
    // run record belong to this thread (DESIGN.md §11), and the shared
    // budget admitted the run's memory. The cache key is marked running so
    // an eviction meanwhile leaves the checkpoint directory this run
    // publishes into alone.
    let _running = shared.cache.as_ref().map(|c| c.mark_running(key));
    cooperative_hold(hold_ms, flag, hard_deadline)?;

    // The request's record holds every attempt it made — a warm resume
    // that fell back to a cold run, every abandoned rung — and the STATS
    // phase histograms, the reply's warnings and the run report all
    // render from it.
    let record = Record::open();
    let started = Instant::now();
    let outcome =
        run_layout_inner(shared, trace_id, g, cfg, p, hard_deadline, flag, key, no_cache);
    let totals = record.close();
    for (name, dur) in totals.phases.iter() {
        let hist = format!("parhde_phase_{}_seconds", registry::sanitize_name(name));
        shared.metrics.registry.histogram(&hist).record(dur.as_secs_f64());
    }
    let outcome = outcome.map(|(coords, rung, cache_tag)| {
        let warnings = totals.warnings.iter().map(|w| w.message().to_string()).collect();
        Done { coords, rung, cache_tag, warnings }
    });
    write_report(shared, trace_id, g, cfg, p, &totals, started.elapsed(), &outcome);
    outcome
}

/// The actual layout: warm-resume from a cached checkpoint when possible,
/// else the full supervised ladder. Returns the coordinates, the rung and
/// the cache tag.
#[allow(clippy::too_many_arguments)]
fn run_layout_inner<G: GraphStore>(
    shared: &Arc<Shared>,
    trace_id: &str,
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    hard_deadline: Instant,
    flag: &CancelFlag,
    key: u64,
    no_cache: bool,
) -> Result<(ColMajorMatrix, &'static str, &'static str), HdeError> {
    let ckpt_spec = shared.cache.as_ref().map(|c| c.checkpoint_spec(key));

    // ---- Warm start: resume a post-BFS checkpoint an earlier identical
    // request left behind (cancelled, degraded, or drained mid-run).
    if !no_cache {
        if let Some(spec) = &ckpt_spec {
            let path = spec.file_path();
            if path.exists() {
                if let Ok(ckpt) = Checkpoint::read(&path) {
                    let budget = RunBudget::unbounded().with_external_cancel(Arc::clone(flag));
                    budget.arm_deadline_at(hard_deadline);
                    let installed = supervisor::install(&budget);
                    let resumed = parhde::try_par_hde_resume(g, cfg, p, &ckpt);
                    drop(installed);
                    match resumed {
                        Ok((coords, _)) => {
                            parhde_trace::counter!("serve.cache.warm_resume", 1);
                            store_result(shared, trace_id, key, &coords, "full", no_cache);
                            return Ok((coords, "full", "warm"));
                        }
                        // Cancellation aborts the request; anything else
                        // (mismatch, corrupt, deadline) falls back to cold.
                        Err(e @ HdeError::Cancelled { .. }) => return Err(e),
                        Err(_) => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                } else {
                    // Unreadable/corrupt checkpoint: evict, run cold.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }

    // ---- Cold: the full supervised ladder under this request's budget.
    let remaining = hard_deadline.saturating_duration_since(Instant::now());
    let opts = SuperviseOptions {
        deadline: Some(remaining.max(Duration::from_millis(1))),
        mem_budget_bytes: None, // admission already happened, shared
        checkpoint: ckpt_spec,
        honor_global_cancel: false, // drain handles signals; see DESIGN §13.5
        cancel_flag: Some(Arc::clone(flag)),
    };
    let sup = try_par_hde_nd_supervised(g, cfg, p, &opts)?;
    // Only full-quality layouts are cached: a degraded rung's output is an
    // artifact of *this* request's budget, not of the (graph, config) key.
    if sup.rung == "full" {
        store_result(shared, trace_id, key, &sup.coords, sup.rung, no_cache);
    }
    Ok((sup.coords, sup.rung, "cold"))
}

fn store_result(
    shared: &Arc<Shared>,
    trace_id: &str,
    key: u64,
    coords: &ColMajorMatrix,
    rung: &str,
    no_cache: bool,
) {
    if no_cache {
        return;
    }
    if let Some(cache) = &shared.cache {
        match cache.store(key, coords, rung) {
            Ok(evicted) => shared.metrics.cache_evictions.add(evicted),
            // Cache failures degrade to "no cache", never to request failure.
            Err(e) => {
                log_warn_event("cache-store-failed", trace_id, &e.to_string());
            }
        }
    }
}

/// A 408 for a deadline spent before the run, naming the step that spent
/// it.
fn timeout(shared: &Shared, reason: &str, deadline: Duration) -> Response {
    shared.metrics.layout_timeout.inc();
    Response::new(proto::TIMEOUT, reason).with("deadline-ms", deadline.as_millis())
}

fn ok_response(
    coords: &ColMajorMatrix,
    n: usize,
    m: usize,
    rung: &str,
    cache_tag: &str,
    elapsed: Duration,
    notes: &[String],
) -> Response {
    let mut resp = Response::new(proto::OK, "ok")
        .with("n", n)
        .with("m", m)
        .with("dim", coords.cols())
        .with("rung", rung)
        .with("cache", cache_tag)
        .with("elapsed-ms", elapsed.as_millis());
    if !notes.is_empty() {
        resp = resp.with("warnings", notes.len());
        for note in notes {
            resp = resp.with("warning", note);
        }
    }
    resp.body = coords_csv(coords);
    resp
}

/// Counts a layout answered by `reply`, or answers 413 in its place when
/// its frame would exceed [`proto::MAX_FRAME`] once the connection loop
/// adds its `trace-id` and `connection` headers (DESIGN.md §13.1).
fn completed(shared: &Shared, trace_id: &str, reply: Response) -> Response {
    let bytes = reply.payload_len()
        + "trace-id: \n".len()
        + trace_id.len()
        + "connection: keep-alive\n".len();
    if bytes > proto::MAX_FRAME as usize {
        shared.metrics.layout_too_large.inc();
        return Response::new(proto::TOO_LARGE, "reply too large")
            .with("reply-bytes", bytes)
            .with("frame-cap", proto::MAX_FRAME);
    }
    shared.metrics.layout_completed.inc();
    reply
}

/// Body bytes reserved per coordinate: a layout coordinate of magnitude
/// about 1e-3 prints as `-0.00` and 17 digits, then its separator.
const CSV_BYTES_PER_VALUE: usize = 24;

/// The coordinate CSV body: one row per vertex, shortest-roundtrip float
/// formatting — bit-identical coordinates produce byte-identical bodies,
/// which the cache-consistency tests rely on.
fn coords_csv(coords: &ColMajorMatrix) -> String {
    let (n, p) = (coords.rows(), coords.cols());
    let mut out = Vec::with_capacity(n * p * CSV_BYTES_PER_VALUE);
    for r in 0..n {
        for c in 0..p {
            if c > 0 {
                out.push(b',');
            }
            shortest::push(&mut out, coords.col(c)[r]);
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the float printer writes ASCII")
}

/// Scopes one request's in-flight accounting and watchdog registration;
/// the drop path runs even when the request panics.
struct InflightGuard<'a> {
    shared: &'a Arc<Shared>,
    id: u64,
}

impl<'a> InflightGuard<'a> {
    fn enter(
        shared: &'a Arc<Shared>,
        id: u64,
        stream: &TcpStream,
        flag: &CancelFlag,
    ) -> Self {
        register_watch(shared, id, stream, flag);
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { shared, id }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
        unregister_watch(self.shared, self.id);
    }
}

fn register_watch(shared: &Arc<Shared>, id: u64, stream: &TcpStream, flag: &CancelFlag) {
    let Ok(clone) = stream.try_clone() else { return };
    // Short peek timeout: the watchdog must never stall on one socket.
    let _ = clone.set_read_timeout(Some(Duration::from_millis(1)));
    shared.watch.lock().unwrap_or_else(|e| e.into_inner()).push(WatchEntry {
        id,
        stream: clone,
        flag: Arc::clone(flag),
    });
}

fn unregister_watch(shared: &Arc<Shared>, id: u64) {
    shared
        .watch
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|e| e.id != id);
}

/// Polls every in-flight request's socket; a clean EOF or a hard error
/// means the client is gone → fire that request's cancel flag. `peek`
/// never consumes bytes, so a pipelined frame the client sent ahead
/// stays buffered and becomes the connection loop's next request once
/// the current one answers. Runs until the server fully drains.
///
/// The watchdog's 1 ms probe timeout is set on a `try_clone` of the
/// connection, which shares the underlying file description — the staged
/// frame reader therefore re-asserts its own timeout before every read
/// rather than trusting a previously set one.
fn watchdog_loop(shared: &Arc<Shared>) {
    let mut buf = [0u8; 1];
    while !shared.stop_watchdog.load(Ordering::Relaxed) {
        {
            let watch = shared.watch.lock().unwrap_or_else(|e| e.into_inner());
            for entry in watch.iter() {
                match entry.stream.peek(&mut buf) {
                    Ok(0) => entry.flag.store(true, Ordering::SeqCst),
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => entry.flag.store(true, Ordering::SeqCst),
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Writes the request's run report (`req-<trace-id>.json`) when the
/// daemon keeps them, rendered from the request's record.
#[allow(clippy::too_many_arguments)]
fn write_report<G: GraphStore>(
    shared: &Arc<Shared>,
    trace_id: &str,
    g: &G,
    cfg: &ParHdeConfig,
    p: usize,
    totals: &Totals,
    total: Duration,
    outcome: &Result<Done, HdeError>,
) {
    let Some(dir) = &shared.cfg.report_dir else { return };
    let (exit_code, error, rung, cache_tag) = match outcome {
        Ok(done) => (0, None, done.rung, done.cache_tag),
        Err(e) => (e.exit_code(), Some(e.to_string()), "none", "cold"),
    };
    let head = RunReport {
        binary: "parhde-serve".into(),
        algo: "parhde".into(),
        graph_n: g.num_vertices() as u64,
        graph_m: g.num_edges() as u64,
        config: vec![
            ("request_id".into(), trace_id.to_string()),
            ("trace_id".into(), trace_id.to_string()),
            ("subspace".into(), cfg.subspace.to_string()),
            ("dim".into(), p.to_string()),
            ("seed".into(), cfg.seed.to_string()),
            ("rung".into(), rung.into()),
            ("cache".into(), cache_tag.into()),
            ("backend".into(), cfg.backend.label().into()),
            (
                "backend_executed".into(),
                parhde_linalg::backend::active_name().into(),
            ),
        ],
        exit_code,
        error,
        total_seconds: total.as_secs_f64(),
        ..RunReport::default()
    };
    // The trace ID in the filename joins the on-disk artifact to the
    // response header and the NDJSON request log.
    let path = dir.join(format!("req-{trace_id}.json"));
    if let Err(e) = std::fs::write(&path, render_report(head, totals).to_json()) {
        log_warn_event("report-write-failed", trace_id, &e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parhde_util::Xoshiro256StarStar;

    #[test]
    fn coords_csv_matches_per_value_format() {
        // DESIGN.md §13.4: bit-identical coordinates give byte-identical
        // bodies, so the encoder must print every value exactly as `{}`.
        let mut values = vec![
            -0.0,
            0.0,
            1.0,
            5e-324,
            f64::MIN_POSITIVE,
            1e-7,
            0.1 + 0.2,
            1e21,
            f64::MAX,
            -f64::MAX,
        ];
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        values.extend((0..1000).map(|i| match i % 2 {
            0 => f64::from_bits(rng.next_u64()),
            _ => (rng.next_f64() - 0.5) * 1e3,
        }));
        let (rows, cols) = (202, 5);
        let coords = ColMajorMatrix::from_data(rows, cols, values.clone());
        let expected: String = (0..rows)
            .map(|r| {
                let row: Vec<String> = (0..cols)
                    .map(|c| format!("{}", values[c * rows + r]))
                    .collect();
                row.join(",") + "\n"
            })
            .collect();
        assert_eq!(coords_csv(&coords), expected);
    }
}
