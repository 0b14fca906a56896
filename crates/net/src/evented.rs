//! The server ([`Server`]): epoll event loops with `SO_REUSEPORT`
//! sharded accept.
//!
//! Architecture (one box per [`EventedConfig::loops`]):
//!
//! ```text
//!   kernel ──SO_REUSEPORT──▶ listener ┐
//!                                     │ per-loop epoll
//!   eventfd waker ────────────────────┤   ├─ conn state machines
//!                                     │   ├─ incremental HTTP codec
//!   timer wheel (idle timeouts) ──────┘   ├─ non-blocking routes: handle + write, inline
//!                    │                    └─ write buffers (remainders only)
//!                    │ blocking requests          ▲ what one write did not take
//!                    ▼                            │ (completion queue + eventfd)
//!        bounded handler pool ── service.handle() ┤
//!                                                 └─▶ socket: one write, then
//!                                                     re-arm reads (epoll_ctl)
//! ```
//!
//! Each loop owns its own `SO_REUSEPORT` listener, so the kernel load-
//! balances incoming connections across loops with no shared accept
//! lock. A connection lives on one loop for its whole life: the loop
//! reads readiness-driven byte fragments into the connection's
//! [`RequestDecoder`] and asks the service whether the complete request
//! may wait ([`Service::blocking`]).
//!
//! **A reply leaves on the thread that made it.**
//!
//! * A *non-blocking* request (a route the service declared CPU-only) is
//!   handled on the loop thread and its reply written at once: no other
//!   thread wakes and epoll interest is never touched.
//! * A *blocking* request pauses the connection's reads and goes to the
//!   bounded handler pool, where the service code that waits — journal
//!   commits, ledger syncs, cross-server calls — runs unchanged. The
//!   handler thread serialises the reply and writes it to the
//!   connection's socket itself with one non-blocking `write`, then marks
//!   the connection released and re-arms its read interest
//!   (`epoll_ctl` is thread-safe): the loop is not woken to relay it.
//! * Only what that cannot finish goes back through the loop's completion
//!   queue + `eventfd`, as the **unwritten remainder**: a short write (the
//!   loop arms `EPOLLOUT` and drains it), a `Connection: close` (the loop
//!   owns closing), or bytes already pipelined behind the request when it
//!   was dispatched (the loop owns the decoder).
//!
//! What keeps that safe:
//!
//! * *One writer per connection at a time.* While a request is in the
//!   pool the connection is `busy`: the loop neither decodes nor writes
//!   on it, and the handler writes exactly once before handing it back.
//! * *A reply only reaches the socket its request was read from.* The
//!   stream is `Arc`-shared between the loop's `Conn` and the job, so the
//!   fd cannot be closed — and its number reused by a later accept — while
//!   a reply is in flight; for the same reason the loop deregisters with
//!   `Poller::delete` at close instead of relying on the fd closing. A
//!   handler's late re-arm of a closed connection names a deregistered fd
//!   (`ENOENT`, ignored); a late completion carries the slot's old
//!   generation and is dropped.
//! * *Replies leave in request order*: one request per connection is in
//!   flight, pipelined ones wait in the decoder.
//!
//! Resource discipline, because millions of trickle-rate contributors
//! are the point (ROADMAP north star):
//!
//! * memory per idle connection is one decoder (empty between requests)
//!   plus the fixed `Conn` bookkeeping and its shared stream handle — no
//!   thread, no stack, no write buffer;
//! * idle connections are closed after [`EventedConfig::idle_timeout`]
//!   by a per-loop timer wheel, whichever thread wrote their last reply;
//! * accepts beyond [`EventedConfig::max_connections_per_loop`] and
//!   requests beyond the handler queue are **shed** with
//!   `503` + `Connection: close` rather than queued unboundedly,
//!   counted by `sensorsafe_net_overload_shed_total`;
//! * a reply the peer is slow to read costs its remainder in memory and
//!   no thread: the handler is free after its one write;
//! * an inline handler that is slow stalls its loop's other connections,
//!   so a route is declared non-blocking only if it never waits on disk,
//!   the network, a sleep or a lock held across one.

use crate::codec::{Decoded, RequestDecoder};
use crate::http::{write_response, Request, Response, Status};
use crate::poll::{Event, Poller, Waker, READABLE, WRITABLE};
use crate::server::{NetMetrics, ReplyPath};
use crate::Service;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the evented server. The defaults suit a store serving
/// thousands of keep-alive device connections on a small host.
#[derive(Debug, Clone)]
pub struct EventedConfig {
    /// Event loops, each with its own `SO_REUSEPORT` listener and epoll
    /// instance. `0` means one per available core.
    pub loops: usize,
    /// Threads in the bounded handler pool that runs `service.handle`
    /// (the blocking datastore/broker code). `0` means `4 × loops`.
    pub handler_threads: usize,
    /// Connection cap per loop; accepts beyond it are answered `503` +
    /// `Connection: close` and counted as shed.
    pub max_connections_per_loop: usize,
    /// Complete requests waiting for a handler thread, across all loops;
    /// overflow is shed like the connection cap.
    pub handler_queue_depth: usize,
    /// Idle keep-alive connections are closed after this long without a
    /// request.
    pub idle_timeout: Duration,
}

impl Default for EventedConfig {
    fn default() -> EventedConfig {
        EventedConfig {
            loops: 0,
            handler_threads: 0,
            max_connections_per_loop: 16 * 1024,
            handler_queue_depth: 1024,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl EventedConfig {
    fn resolved_loops(&self) -> usize {
        if self.loops > 0 {
            return self.loops;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    fn resolved_handlers(&self) -> usize {
        if self.handler_threads > 0 {
            return self.handler_threads;
        }
        4 * self.resolved_loops()
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Read chunk size; also the flood guard granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Stop reading from a connection once this much is buffered ahead of
/// the state machine (pipelining flood guard); TCP backpressure takes
/// over until the buffered requests drain.
const MAX_BUFFERED_AHEAD: usize = 256 * 1024;

/// What a handler thread could not finish on its own, addressed back to
/// the connection that asked (generation-checked: the slot may have been
/// reused by a new connection by the time it lands): the reply's bytes
/// with how many of them the handler's one write already put on the
/// socket, and whether the connection closes once the rest is out.
struct Completion {
    slot: usize,
    generation: u64,
    wire: Vec<u8>,
    written: usize,
    close: bool,
}

/// The loop-side state handler threads can reach.
struct LoopShared {
    /// The loop's epoll instance: a handler re-arms read interest on it.
    poller: Poller,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// The part of a connection the handler answering it can reach. Shared
/// by `Arc`, so the fd stays open (its number unavailable to a later
/// accept) until both the loop and any job in flight have let go.
struct ConnShared {
    stream: TcpStream,
    opened: Instant,
    /// Set by the handler that wrote the whole reply itself, just before
    /// it re-arms read interest: when it finished, in nanoseconds after
    /// `opened` (never 0). The loop takes it ([`Conn::settle`]) to learn
    /// the connection is no longer busy. Stored *before* the `epoll_ctl`:
    /// the event that re-arm produces must find the connection released,
    /// or the loop would have to ignore it and — level-triggered — spin
    /// on it until the handler ran again. `Release` here pairs with the
    /// `Acquire` load there.
    released_at: AtomicU64,
}

/// A unit of work for the handler pool.
struct Job {
    request: Request,
    slot: usize,
    generation: u64,
    conn: Arc<ConnShared>,
    shared: Arc<LoopShared>,
    /// More bytes were already buffered behind this request when it was
    /// dispatched; only the loop can decode them, so the reply's end goes
    /// back through it.
    pipelined: bool,
    decoded_at: Instant,
}

/// The bounded hand-off from the event loops to the handler pool: a
/// non-blocking `try_send` (overflow is the caller's to shed), a blocking
/// `recv`, and `close`, after which `recv` drains what is queued and then
/// reports the end.
struct JobQueue {
    state: std::sync::Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    /// `sensorsafe_net_handler_queue_depth`, moved under the queue lock so
    /// a scrape never reads a pick-up ahead of its hand-off.
    depth: Arc<sensorsafe_obsv::Gauge>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize, depth: Arc<sensorsafe_obsv::Gauge>) -> JobQueue {
        JobQueue {
            state: std::sync::Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // Nothing under this lock can panic half-way through an update.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queues `job`; false (and the job dropped) when the queue is full
    /// or closed.
    fn try_send(&self, job: Job) -> bool {
        let mut state = self.lock();
        if state.closed || state.jobs.len() >= self.capacity {
            return false;
        }
        state.jobs.push_back(job);
        self.depth.add(1);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// The next job; `None` once the queue is closed and empty.
    fn recv(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.add(-1);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Why a connection was closed; becomes the `reason` label on
/// `sensorsafe_net_connections_closed_total`.
#[derive(Clone, Copy, PartialEq)]
enum CloseReason {
    PeerClose,
    IdleTimeout,
    Error,
    ProtocolError,
    ServerClose,
    Shutdown,
}

impl CloseReason {
    fn label(self) -> &'static str {
        match self {
            CloseReason::PeerClose => "peer_close",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::Error => "error",
            CloseReason::ProtocolError => "protocol_error",
            CloseReason::ServerClose => "server_close",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

fn count_shed(reason: &'static str) {
    sensorsafe_obsv::global()
        .counter(
            "sensorsafe_net_overload_shed_total",
            "Connections/requests answered 503 + close because a capacity \
             bound (connection cap, handler queue) was reached.",
            &[("reason", reason)],
        )
        .inc();
}

fn open_conns_gauge() -> Arc<sensorsafe_obsv::Gauge> {
    sensorsafe_obsv::global().gauge(
        "sensorsafe_net_open_connections",
        "Currently open server-side connections across all servers in \
         this process.",
        &[],
    )
}

fn count_closed(reason: CloseReason, opened: Instant) {
    let registry = sensorsafe_obsv::global();
    registry
        .counter(
            "sensorsafe_net_connections_closed_total",
            "Server-side connection closes, by reason.",
            &[("reason", reason.label())],
        )
        .inc();
    registry
        .histogram(
            "sensorsafe_net_connection_duration_seconds",
            "Lifetime of server-side connections, accept to close.",
            &[],
            None,
        )
        .observe(opened.elapsed());
    open_conns_gauge().add(-1);
}

/// The `503` + `Connection: close` of a capacity bound, on the wire.
fn overloaded_wire() -> Vec<u8> {
    let mut resp = Response::error(Status::ServiceUnavailable, "server overloaded");
    resp.headers.insert("connection".into(), "close".into());
    serialize(&resp)
}

fn serialize(response: &Response) -> Vec<u8> {
    let mut wire = Vec::with_capacity(256 + response.body.len());
    write_response(&mut wire, response).expect("writing into a Vec cannot fail");
    wire
}

/// Runs one request through the service on the calling thread — a pool
/// handler or, for a non-blocking route, the event loop — and returns the
/// reply's bytes plus whether the client asked to close after it.
fn run_request(service: &dyn Service, request: &Request, metrics: &NetMetrics) -> (Vec<u8>, bool) {
    // Attribute handler time (including the service's own nested spans)
    // to this thread's kind in the profiling plane: `net-handler;
    // request-handler;…` in the pool, `net-loop;request-handler;…` inline.
    let frame = sensorsafe_obsv::prof_frame!("request-handler");
    let response =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(request)))
            .unwrap_or_else(|_| Response::error(Status::InternalError, "handler panicked"));
    metrics.record_request(frame.close(), response.status);
    let close = request
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    (serialize(&response), close)
}

/// One connection's state on its loop.
struct Conn {
    shared: Arc<ConnShared>,
    generation: u64,
    decoder: RequestDecoder,
    /// Encoded response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// A request is in the handler pool: reads are paused, and until the
    /// handler hands the connection back only it may write to the stream.
    busy: bool,
    close_after_write: bool,
    /// Reason to record when `close_after_write` completes.
    close_reason: CloseReason,
    /// Interest bits currently armed in epoll.
    interest: u32,
    last_activity: Instant,
}

impl Conn {
    /// Catches up with a handler that finished this connection's reply
    /// on its own: the connection is idle again and its reads are armed —
    /// or about to be: the handler's `epoll_ctl` follows its store. The
    /// loop therefore settles only where it cannot go on to read without a
    /// fresh event (an event's arrival, the timer sweep), never half-way
    /// through a read: a request dispatched before that re-arm landed
    /// would have its paused reads switched back on under it.
    fn settle(&mut self) {
        if !self.busy {
            return;
        }
        let at = self.shared.released_at.load(Ordering::Acquire);
        if at != 0 {
            // The next store comes from the next job, which this thread
            // has yet to queue.
            self.shared.released_at.store(0, Ordering::Relaxed);
            self.busy = false;
            self.interest = READABLE;
            self.last_activity = self.shared.opened + Duration::from_nanos(at);
        }
    }
}

/// A hashed timer wheel over connection slots. Entries are lazy: a slot
/// firing only *checks* the connection's `last_activity` and re-inserts
/// if it saw traffic since — so activity never touches the wheel on the
/// hot path.
struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    last_advance: Instant,
}

impl TimerWheel {
    fn new(idle_timeout: Duration) -> TimerWheel {
        let tick = (idle_timeout / 8).clamp(Duration::from_millis(25), Duration::from_secs(1));
        let needed = (idle_timeout.as_nanos() / tick.as_nanos().max(1)) as usize + 2;
        TimerWheel {
            slots: vec![Vec::new(); needed],
            tick,
            cursor: 0,
            last_advance: Instant::now(),
        }
    }

    fn insert_at(&mut self, deadline: Instant, now: Instant, entry: (usize, u64)) {
        let ticks_ahead = if deadline <= now {
            1
        } else {
            ((deadline - now).as_nanos() / self.tick.as_nanos().max(1)) as usize + 1
        };
        let idx = (self.cursor + ticks_ahead.min(self.slots.len() - 1)) % self.slots.len();
        self.slots[idx].push(entry);
    }

    /// Time until the next slot fires (the poll timeout when
    /// connections are live).
    fn next_tick_in(&self, now: Instant) -> Duration {
        let next = self.last_advance + self.tick;
        if next <= now {
            Duration::from_millis(1)
        } else {
            next - now
        }
    }

    /// Pops every entry whose slot has come due.
    fn due(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let mut fired = Vec::new();
        while self.last_advance + self.tick <= now {
            self.last_advance += self.tick;
            self.cursor = (self.cursor + 1) % self.slots.len();
            fired.append(&mut self.slots[self.cursor]);
        }
        fired
    }
}

/// Binds a non-blocking listener with `SO_REUSEPORT` (+`SO_REUSEADDR`)
/// set before `bind`, which `std` cannot express — hence the raw
/// syscalls from the vendored shim.
fn bind_reuseport(addr: SocketAddr) -> std::io::Result<TcpListener> {
    fn check(ret: libc::c_int, fd: Option<RawFd>) -> std::io::Result<libc::c_int> {
        if ret < 0 {
            let e = std::io::Error::last_os_error();
            if let Some(fd) = fd {
                unsafe { libc::close(fd) };
            }
            Err(e)
        } else {
            Ok(ret)
        }
    }
    unsafe {
        let domain = if addr.is_ipv4() {
            libc::AF_INET
        } else {
            libc::AF_INET6
        };
        let fd = check(
            libc::socket(
                domain,
                libc::SOCK_STREAM | libc::SOCK_CLOEXEC | libc::SOCK_NONBLOCK,
                0,
            ),
            None,
        )?;
        let on: libc::c_int = 1;
        for opt in [libc::SO_REUSEADDR, libc::SO_REUSEPORT] {
            check(
                libc::setsockopt(
                    fd,
                    libc::SOL_SOCKET,
                    opt,
                    (&on as *const libc::c_int).cast(),
                    4,
                ),
                Some(fd),
            )?;
        }
        match addr {
            SocketAddr::V4(v4) => {
                let sa = libc::sockaddr_in {
                    sin_family: libc::AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                    sin_zero: [0; 8],
                };
                check(
                    libc::bind(
                        fd,
                        (&sa as *const libc::sockaddr_in).cast(),
                        std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
                    ),
                    Some(fd),
                )?;
            }
            SocketAddr::V6(v6) => {
                let sa = libc::sockaddr_in6 {
                    sin6_family: libc::AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: 0,
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                check(
                    libc::bind(
                        fd,
                        (&sa as *const libc::sockaddr_in6).cast(),
                        std::mem::size_of::<libc::sockaddr_in6>() as libc::socklen_t,
                    ),
                    Some(fd),
                )?;
            }
        }
        check(libc::listen(fd, 1024), Some(fd))?;
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// A running HTTP server. See the module docs for the architecture.
/// Dropping it (or calling [`Server::shutdown`]) stops accepting and
/// joins all threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<JoinHandle<()>>,
    loop_shared: Vec<Arc<LoopShared>>,
    handlers: Vec<JoinHandle<()>>,
    queue: Arc<JobQueue>,
}

impl Server {
    /// Binds `service` on `addr` (use port 0 for an ephemeral port) with
    /// `workers` handler threads and one event loop per core.
    pub fn bind(addr: &str, workers: usize, service: Arc<dyn Service>) -> std::io::Result<Server> {
        let config = EventedConfig {
            handler_threads: workers,
            ..EventedConfig::default()
        };
        Server::bind_evented(addr, config, service)
    }

    /// Binds with full [`EventedConfig`] control.
    pub fn bind_evented(
        addr: &str,
        config: EventedConfig,
        service: Arc<dyn Service>,
    ) -> std::io::Result<Server> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
        let n_loops = config.resolved_loops();
        let n_handlers = config.resolved_handlers();

        // The first listener may bind port 0; the rest join the learned
        // concrete port so the kernel shards accepts across all of them.
        let first = bind_reuseport(sockaddr)?;
        let local = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..n_loops {
            listeners.push(bind_reuseport(local)?);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(NetMetrics::resolve());
        let queue = Arc::new(JobQueue::new(
            config.handler_queue_depth,
            metrics.queue_depth.clone(),
        ));

        let mut loop_shared = Vec::with_capacity(n_loops);
        let mut loops = Vec::with_capacity(n_loops);
        for (i, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::new(LoopShared {
                poller: Poller::new()?,
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            });
            loop_shared.push(shared.clone());
            let event_loop = EventLoop::new(
                listener,
                shared,
                stop.clone(),
                queue.clone(),
                service.clone(),
                metrics.clone(),
                config.clone(),
            );
            loops.push(
                std::thread::Builder::new()
                    .name(format!("net-loop-{i}"))
                    .spawn(move || event_loop.run())?,
            );
        }

        let mut handlers = Vec::with_capacity(n_handlers);
        for i in 0..n_handlers {
            let queue = queue.clone();
            let service = service.clone();
            let metrics = metrics.clone();
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("net-handler-{i}"))
                    .spawn(move || handler_main(&queue, &*service, &metrics))?,
            );
        }

        Ok(Server {
            addr: local,
            stop,
            loops,
            loop_shared,
            handlers,
            queue,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address as a `host:port` string.
    pub fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// Stops the loops (closing every connection), drains the handler
    /// pool, and joins all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for shared in &self.loop_shared {
            shared.waker.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        // Loops are gone; closing the queue lets handlers finish any
        // in-flight requests (their replies meet sockets the loops shut
        // down, their completions go nowhere) and exit.
        self.queue.close();
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handler_main(queue: &JobQueue, service: &dyn Service, metrics: &NetMetrics) {
    // Between jobs the thread samples as `net-handler;(idle)`.
    while let Some(job) = queue.recv() {
        metrics.dispatch_wait.observe(job.decoded_at.elapsed());
        let (wire, close) = run_request(service, &job.request, metrics);
        // The reply leaves on the thread that made it: one non-blocking
        // write. `WouldBlock`, `Interrupted` or a dead socket count as
        // nothing written — the loop retries, and meets a real error
        // itself, where closing the connection is its call.
        let written = (&job.conn.stream).write(&wire).unwrap_or(0);
        if written == wire.len() && !close && !job.pipelined {
            metrics.count_reply(ReplyPath::Direct);
            let at = job.conn.opened.elapsed().as_nanos().max(1) as u64;
            job.conn.released_at.store(at, Ordering::Release);
            // ENOENT: the loop closed the connection while we worked.
            let _ = job.shared.poller.modify(
                job.conn.stream.as_raw_fd(),
                TOKEN_BASE + job.slot as u64,
                READABLE,
            );
        } else {
            metrics.count_reply(ReplyPath::Loop);
            job.shared.completions.lock().push(Completion {
                slot: job.slot,
                generation: job.generation,
                wire,
                written,
                close,
            });
            job.shared.waker.wake();
        }
    }
}

/// The live connection in `slot`. Over the table rather than the loop so
/// the borrow leaves the loop's other fields free.
fn live(conns: &mut [Option<Conn>], slot: usize) -> Option<&mut Conn> {
    conns.get_mut(slot)?.as_mut()
}

struct EventLoop {
    listener: TcpListener,
    shared: Arc<LoopShared>,
    stop: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    service: Arc<dyn Service>,
    metrics: Arc<NetMetrics>,
    config: EventedConfig,
    conns: Vec<Option<Conn>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    live: usize,
    wheel: TimerWheel,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        shared: Arc<LoopShared>,
        stop: Arc<AtomicBool>,
        queue: Arc<JobQueue>,
        service: Arc<dyn Service>,
        metrics: Arc<NetMetrics>,
        config: EventedConfig,
    ) -> EventLoop {
        let wheel = TimerWheel::new(config.idle_timeout);
        EventLoop {
            listener,
            shared,
            stop,
            queue,
            service,
            metrics,
            config,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            wheel,
        }
    }

    fn run(mut self) {
        let shared = self.shared.clone();
        let poller = &shared.poller;
        poller
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, READABLE)
            .expect("register listener");
        poller
            .add(self.shared.waker.fd(), TOKEN_WAKER, READABLE)
            .expect("register waker");
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            let timeout = if self.live > 0 {
                // Wake for the next timer-wheel tick.
                Some(self.wheel.next_tick_in(now).min(Duration::from_millis(500)))
            } else {
                None // fully idle: zero CPU until an accept or the waker
            };
            events.clear();
            let wait_result = {
                // Attributes the loop's blocked time in sampled profiles
                // (`net-loop;epoll-wait`) instead of leaving it unlabeled.
                let _frame = sensorsafe_obsv::prof_frame!("epoll-wait");
                poller.wait(&mut events, timeout)
            };
            if wait_result.is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => self.conn_event(token, ev),
                }
            }
            self.drain_completions();
            self.sweep_timers();
        }
        // Shutdown: close every live connection and the listener.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot, CloseReason::Shutdown);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    sensorsafe_obsv::global()
                        .counter(
                            "sensorsafe_net_connections_total",
                            "TCP connections accepted across all servers in this process.",
                            &[],
                        )
                        .inc();
                    if self.live >= self.config.max_connections_per_loop {
                        shed_connection(stream, "conn_cap");
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, aborted handshake):
                // leave remaining backlog for the next readiness event.
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        let generation = self.generations[slot];
        let now = Instant::now();
        let conn = Conn {
            shared: Arc::new(ConnShared {
                stream,
                opened: now,
                released_at: AtomicU64::new(0),
            }),
            generation,
            decoder: RequestDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            close_after_write: false,
            close_reason: CloseReason::ServerClose,
            interest: READABLE,
            last_activity: now,
        };
        if self
            .shared
            .poller
            .add(fd, TOKEN_BASE + slot as u64, READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.live += 1;
        open_conns_gauge().add(1);
        self.wheel
            .insert_at(now + self.config.idle_timeout, now, (slot, generation));
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        let slot = (token - TOKEN_BASE) as usize;
        let Some(conn) = live(&mut self.conns, slot) else {
            return; // already closed this iteration
        };
        conn.settle();
        if ev.error {
            self.close(slot, CloseReason::Error);
            return;
        }
        if ev.writable && !conn.out.is_empty() && self.flush(slot) {
            // Pipelined requests may already be buffered.
            self.advance(slot);
        }
        // The flush may have closed or transitioned the connection.
        let Some(conn) = live(&mut self.conns, slot) else {
            return;
        };
        if ev.readable && conn.interest & READABLE != 0 {
            self.read_ready(slot);
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = live(&mut self.conns, slot) else {
                return;
            };
            match (&conn.shared.stream).read(&mut buf) {
                Ok(0) => {
                    let reason = if conn.decoder.at_boundary() && !conn.busy && conn.out.is_empty()
                    {
                        CloseReason::PeerClose
                    } else {
                        CloseReason::Error // mid-message truncation
                    };
                    self.close(slot, reason);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&buf[..n]);
                    self.advance(slot);
                    // Flood guard: if the peer is pipelining faster than
                    // we answer, stop reading until the queue drains.
                    let Some(conn) = live(&mut self.conns, slot) else {
                        return;
                    };
                    if conn.interest & READABLE == 0 || conn.decoder.buffered() > MAX_BUFFERED_AHEAD
                    {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, CloseReason::Error);
                    return;
                }
            }
        }
    }

    /// Drives the connection's state machine while it is free: decode the
    /// next request, then answer it inline (and go round again for a
    /// pipelined one), dispatch it to the pool, or queue a protocol error.
    fn advance(&mut self, slot: usize) {
        loop {
            let Some(conn) = live(&mut self.conns, slot) else {
                return;
            };
            if conn.busy || !conn.out.is_empty() {
                return; // a response is in flight; pipelined bytes wait
            }
            match conn.decoder.poll() {
                Decoded::NeedMore => {
                    self.set_interest(slot, READABLE);
                    return;
                }
                Decoded::Item(request) if self.service.blocking(&request) => {
                    self.dispatch(slot, request);
                    return;
                }
                Decoded::Item(request) => {
                    self.metrics.dispatch_wait.observe(Duration::ZERO);
                    let (wire, close) = run_request(&*self.service, &request, &self.metrics);
                    self.metrics.count_reply(ReplyPath::Inline);
                    if !self.start_reply(slot, wire, 0, close) {
                        return;
                    }
                }
                Decoded::Failed(err) => {
                    conn.close_reason = CloseReason::ProtocolError;
                    let mut resp = Response::error(err.status, &err.message);
                    resp.headers.insert("connection".into(), "close".into());
                    self.start_reply(slot, serialize(&resp), 0, true);
                    return;
                }
            }
        }
    }

    /// Hands a blocking request to the pool, or sheds it when the pool's
    /// queue is full.
    fn dispatch(&mut self, slot: usize, request: Request) {
        let Some(conn) = live(&mut self.conns, slot) else {
            return;
        };
        conn.busy = true;
        let job = Job {
            request,
            slot,
            generation: conn.generation,
            conn: conn.shared.clone(),
            shared: self.shared.clone(),
            pipelined: conn.decoder.buffered() > 0,
            decoded_at: Instant::now(),
        };
        // Reads pause while the handler works (bounded memory); whoever
        // finishes the reply re-arms them.
        self.set_interest(slot, 0);
        if !self.queue.try_send(job) {
            count_shed("handler_queue");
            let Some(conn) = live(&mut self.conns, slot) else {
                return;
            };
            conn.busy = false;
            self.start_reply(slot, overloaded_wire(), 0, true);
        }
    }

    /// Takes over a reply — `wire`, of which `written` bytes are already
    /// on the socket — and flushes it. True when it is all out and the
    /// connection stays open, i.e. the next request may start.
    fn start_reply(&mut self, slot: usize, wire: Vec<u8>, written: usize, close: bool) -> bool {
        let Some(conn) = live(&mut self.conns, slot) else {
            return false;
        };
        conn.close_after_write |= close;
        conn.out = wire;
        conn.out_pos = written;
        conn.last_activity = Instant::now();
        self.flush(slot)
    }

    /// Writes as much of the out-buffer as the socket accepts; arms
    /// `EPOLLOUT` on a short write. Once drained, closes a connection
    /// marked for it, else re-arms reads and returns true.
    fn flush(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = live(&mut self.conns, slot) else {
                return false;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match (&conn.shared.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(slot, CloseReason::Error);
                    return false;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, WRITABLE);
                    return false;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot, CloseReason::Error);
                    return false;
                }
            }
        }
        let Some(conn) = live(&mut self.conns, slot) else {
            return false;
        };
        conn.out = Vec::new();
        conn.out_pos = 0;
        if conn.close_after_write {
            let reason = conn.close_reason;
            self.close(slot, reason);
            return false;
        }
        self.set_interest(slot, READABLE);
        live(&mut self.conns, slot).is_some()
    }

    fn drain_completions(&mut self) {
        let completions = std::mem::take(&mut *self.shared.completions.lock());
        for completion in completions {
            let Some(conn) = live(&mut self.conns, completion.slot) else {
                continue;
            };
            if conn.generation != completion.generation || !conn.busy {
                continue; // a stale reply for a recycled slot
            }
            conn.busy = false;
            if self.start_reply(
                completion.slot,
                completion.wire,
                completion.written,
                completion.close,
            ) {
                self.advance(completion.slot);
            }
        }
    }

    fn sweep_timers(&mut self) {
        let now = Instant::now();
        for (slot, generation) in self.wheel.due(now) {
            let Some(conn) = live(&mut self.conns, slot) else {
                continue;
            };
            if conn.generation != generation {
                continue;
            }
            conn.settle();
            let idle_for = now.saturating_duration_since(conn.last_activity);
            if !conn.busy && conn.out.is_empty() && idle_for >= self.config.idle_timeout {
                self.close(slot, CloseReason::IdleTimeout);
            } else {
                // Saw traffic (or is working): re-arm for the remainder.
                let deadline = conn.last_activity + self.config.idle_timeout;
                self.wheel
                    .insert_at(deadline.max(now), now, (slot, generation));
            }
        }
    }

    fn set_interest(&mut self, slot: usize, interest: u32) {
        let Some(conn) = live(&mut self.conns, slot) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        let fd = conn.shared.stream.as_raw_fd();
        if self
            .shared
            .poller
            .modify(fd, TOKEN_BASE + slot as u64, interest)
            .is_err()
        {
            self.close(slot, CloseReason::Error);
        }
    }

    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        // Counted before the peer can observe the close, so a client that
        // has read EOF always finds its close in the counter.
        count_closed(reason, conn.shared.opened);
        // A job in flight may hold the stream too, so dropping ours need
        // not close the fd: deregister it by hand, and shut the socket
        // down so the peer sees the close now and that job's write fails.
        let _ = self.shared.poller.delete(conn.shared.stream.as_raw_fd());
        let _ = conn.shared.stream.shutdown(std::net::Shutdown::Both);
        self.generations[slot] += 1;
        self.free.push(slot);
        self.live -= 1;
    }
}

/// Best-effort `503` + `Connection: close` for an accept beyond the
/// connection cap: one non-blocking write, then drop. Never blocks the
/// loop.
fn shed_connection(mut stream: TcpStream, reason: &'static str) {
    count_shed(reason);
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&overloaded_wire());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request, Method};
    use crate::transport::HttpClient;
    use crate::Router;
    use sensorsafe_json::json;
    use std::io::BufReader;

    fn echo_service() -> Arc<dyn Service> {
        let mut router = Router::new();
        router.get("/ping", |_, _| Response::json(&json!("pong")));
        router.post("/echo", |req: &Request, _: &crate::Params| {
            let mut resp = Response::status(Status::Ok);
            resp.body = req.body.clone();
            resp
        });
        Arc::new(router)
    }

    fn small_config() -> EventedConfig {
        EventedConfig {
            loops: 2,
            handler_threads: 2,
            ..EventedConfig::default()
        }
    }

    #[test]
    fn serves_requests_over_tcp() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let client = HttpClient::new(server.addr().to_string());
        let resp = client.send(&Request::get("/ping")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap(), json!("pong"));
    }

    #[test]
    fn keep_alive_many_requests_one_connection() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..20 {
            let body = json!({ "i": i });
            write_request(&mut stream, &Request::post_json("/echo", &body)).unwrap();
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.json_body().unwrap(), body);
        }
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Three requests in one burst, no reads in between.
        let mut wire = Vec::new();
        for i in 0..3 {
            write_request(&mut wire, &Request::post_json("/echo", &json!({ "i": i }))).unwrap();
        }
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..3 {
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.json_body().unwrap(), json!({ "i": i }), "response {i}");
        }
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"BOGUS REQUEST LINE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn oversized_headers_get_431() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /ping HTTP/1.1\r\n").unwrap();
        let filler = format!("x-filler: {}\r\n", "y".repeat(4000));
        // Stream far past the head cap without ever finishing.
        for _ in 0..12 {
            if stream.write_all(filler.as_bytes()).is_err() {
                break; // server already closed on us — also acceptable
            }
        }
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 431"), "{text}");
    }

    #[test]
    fn connection_cap_sheds_with_503() {
        let config = EventedConfig {
            loops: 1,
            handler_threads: 1,
            max_connections_per_loop: 4,
            ..EventedConfig::default()
        };
        let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
        // Fill the cap with idle keep-alive connections.
        let mut held = Vec::new();
        for _ in 0..4 {
            let client = HttpClient::new(server.addr().to_string());
            assert_eq!(
                client.send(&Request::get("/ping")).unwrap().status,
                Status::Ok
            );
            held.push(client);
        }
        // The next connection must be answered 503 + close, not queued.
        let mut shed = None;
        for _ in 0..20 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            // The server may have shed + closed already, making this
            // write fail with EPIPE; the 503 may still be readable.
            let _ = write_request(&mut stream, &Request::get("/ping"));
            let mut reader = BufReader::new(stream);
            match read_response(&mut reader) {
                Ok(resp) if resp.status == Status::ServiceUnavailable => {
                    assert_eq!(
                        resp.headers.get("connection").map(String::as_str),
                        Some("close")
                    );
                    shed = Some(resp);
                    break;
                }
                // A raced close (shed write lost to the reset) or a
                // serve from a just-freed slot: try again.
                _ => continue,
            }
        }
        assert!(shed.is_some(), "cap overflow was never answered 503");
    }

    #[test]
    fn idle_connections_are_closed() {
        let config = EventedConfig {
            loops: 1,
            handler_threads: 1,
            idle_timeout: Duration::from_millis(200),
            ..EventedConfig::default()
        };
        let server = Server::bind_evented("127.0.0.1:0", config, echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_request(&mut stream, &Request::get("/ping")).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_response(&mut reader).unwrap().status, Status::Ok);
        // Go idle; the server must close us within a few timeouts.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        let n = stream.read(&mut byte).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF from idle-timeout close");
    }

    #[test]
    fn connection_close_header_honored() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut req = Request::get("/ping");
        req.headers.insert("connection".into(), "close".into());
        write_request(&mut stream, &req).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap(); // EOF must arrive
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let mut server =
            Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(addr.to_string());
        assert!(client.send(&Request::get("/ping")).is_ok());
        let started = Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn concurrent_clients_across_loops() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                for j in 0..10 {
                    let body = json!({"worker": i, "iter": j});
                    let resp = client.send(&Request::post_json("/echo", &body)).unwrap();
                    assert_eq!(resp.json_body().unwrap(), body);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A latch pooled handlers park on, so a test decides when the pool
    /// is saturated and when it drains.
    #[derive(Default)]
    struct Gate {
        state: std::sync::Mutex<(bool, usize)>, // (open, handlers parked)
        changed: Condvar,
    }

    impl Gate {
        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.changed.notify_all();
            while !state.0 {
                state = self.changed.wait(state).unwrap();
            }
            state.1 -= 1;
        }

        fn wait_parked(&self, n: usize) {
            let mut state = self.state.lock().unwrap();
            while state.1 < n {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().0 = true;
            self.changed.notify_all();
        }
    }

    const BIG_BODY: usize = 8 * 1024 * 1024;

    fn big_body() -> Vec<u8> {
        (0..BIG_BODY).map(|i| (i % 251) as u8).collect()
    }

    /// `/echo` and `/gated` (echo once the gate opens) take the pool,
    /// `/inline` is declared non-blocking, `/big` answers 8 MiB.
    fn front_door_service(gate: Arc<Gate>) -> Arc<dyn Service> {
        two_gate_service(gate, Arc::default())
    }

    /// [`front_door_service`] plus `/gated-late` behind a gate of its own.
    fn two_gate_service(gate: Arc<Gate>, late: Arc<Gate>) -> Arc<dyn Service> {
        fn echo(req: &Request) -> Response {
            let mut resp = Response::status(Status::Ok);
            resp.body = req.body.clone();
            resp
        }
        let mut router = Router::new();
        router.post("/echo", |req, _| echo(req));
        router.post("/gated", move |req, _| {
            gate.pass();
            echo(req)
        });
        router.post("/gated-late", move |req, _| {
            late.pass();
            echo(req)
        });
        router
            .get("/inline", |_, _| Response::text("inline"))
            .non_blocking();
        router.get("/big", |_, _| {
            let mut resp = Response::status(Status::Ok);
            resp.body = big_body();
            resp
        });
        Arc::new(router)
    }

    fn replies(path: &str) -> u64 {
        sensorsafe_obsv::global()
            .counter("sensorsafe_net_replies_total", "", &[("path", path)])
            .get()
    }

    fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// Closes `stream` with a reset (`SO_LINGER` 0) rather than a FIN: a
    /// server that paused reads for a request in flight is told of an RST
    /// at once (`EPOLLERR`), of a FIN only when it reads again.
    fn hang_up(stream: TcpStream) {
        const SO_LINGER: libc::c_int = 13;
        #[repr(C)]
        struct Linger {
            l_onoff: libc::c_int,
            l_linger: libc::c_int,
        }
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: `stream` owns a live socket fd for the duration of the
        // call, and `linger` is the `struct linger` SO_LINGER expects,
        // passed with its own size.
        let ret = unsafe {
            libc::setsockopt(
                stream.as_raw_fd(),
                libc::SOL_SOCKET,
                SO_LINGER,
                (&linger as *const Linger).cast(),
                std::mem::size_of::<Linger>() as libc::socklen_t,
            )
        };
        assert_eq!(ret, 0, "SO_LINGER");
        drop(stream);
    }

    #[test]
    fn a_reply_only_reaches_the_socket_its_request_was_read_from() {
        // 64 clients post their nonce to a pooled route a gate holds shut;
        // half reset their connection before any reply, and newcomers take
        // over the slots those freed while the orphaned jobs are still in
        // the pool. The orphans then finish while each newcomer's own
        // request is in flight (a second gate): the moment a reply routed
        // by slot alone would land on the wrong socket. Every reply that
        // arrives must carry the nonce of the connection it arrives on,
        // exactly once.
        let (gate, late) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
        let config = EventedConfig {
            loops: 1, // one slot table, so freed slots are the ones reused
            handler_threads: 4,
            ..EventedConfig::default()
        };
        let service = two_gate_service(gate.clone(), late.clone());
        let server = Server::bind_evented("127.0.0.1:0", config, service).unwrap();
        let reset_closes = sensorsafe_obsv::global().counter(
            "sensorsafe_net_connections_closed_total",
            "",
            &[("reason", "error")],
        );
        let closes_before = reset_closes.get();
        let post = |stream: &mut TcpStream, path: &str, nonce: usize| {
            let body = json!({ "nonce": nonce });
            write_request(stream, &Request::post_json(path, &body)).unwrap();
        };
        let expect_own_reply = |nonce: usize, reader: &mut BufReader<TcpStream>| {
            let resp = read_response(reader).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(
                resp.json_body().unwrap(),
                json!({ "nonce": nonce }),
                "connection {nonce} was sent another connection's reply"
            );
        };
        let mut clients: Vec<_> = (0..64)
            .map(|nonce| {
                let (mut stream, reader) = connect(&server);
                post(&mut stream, "/gated", nonce);
                (nonce, stream, reader)
            })
            .collect();
        gate.wait_parked(4); // the pool is full, 60 jobs wait behind it
        let mut survivors = Vec::new();
        for (nonce, stream, reader) in clients.drain(..) {
            if nonce % 2 == 1 {
                drop(reader);
                hang_up(stream);
            } else {
                survivors.push((nonce, stream, reader));
            }
        }
        // The loop has closed the 32 reset connections (their slots are
        // free) before the newcomers arrive.
        let deadline = Instant::now() + Duration::from_secs(10);
        while reset_closes.get() < closes_before + 32 {
            assert!(Instant::now() < deadline, "resets never observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut newcomers: Vec<_> = (1000..1032)
            .map(|nonce| {
                let (mut stream, reader) = connect(&server);
                post(&mut stream, "/gated-late", nonce);
                (nonce, stream, reader)
            })
            .collect();
        gate.open();
        for (nonce, _, reader) in &mut survivors {
            expect_own_reply(*nonce, reader);
        }
        // The queue is first-in first-out, so handlers parked on the late
        // gate mean every orphaned job has run and pushed what it could
        // not deliver; two round trips through the loop mean it has since
        // looked at all of that — with the newcomers still in flight.
        late.wait_parked(4);
        let (mut probe, mut probe_reader) = connect(&server);
        for _ in 0..2 {
            write_request(&mut probe, &Request::get("/inline")).unwrap();
            assert_eq!(read_response(&mut probe_reader).unwrap().body, b"inline");
        }
        late.open();
        for (nonce, _, reader) in &mut newcomers {
            expect_own_reply(*nonce, reader);
        }
        // Exactly one each: nothing more may arrive on any of them. (A
        // pooled round trip per handler thread first, so whatever the
        // pool still had to say has been said.)
        for _ in 0..4 {
            post(&mut probe, "/echo", 0);
            read_response(&mut probe_reader).unwrap();
        }
        for (nonce, stream, reader) in survivors.iter_mut().chain(&mut newcomers) {
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let mut byte = [0u8; 1];
            let extra = reader.read(&mut byte);
            assert!(
                matches!(&extra, Err(e) if matches!(e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
                "connection {nonce} got a second reply or was closed: {extra:?}"
            );
        }
    }

    #[test]
    fn slow_reader_costs_the_pool_nothing_and_gets_every_byte() {
        let config = EventedConfig {
            loops: 1,
            handler_threads: 1,
            ..EventedConfig::default()
        };
        let server =
            Server::bind_evented("127.0.0.1:0", config, front_door_service(Arc::default()))
                .unwrap();
        let via_loop = replies("loop");
        let (mut slow, mut slow_reader) = connect(&server);
        write_request(&mut slow, &Request::get("/big")).unwrap();
        // The first bytes being there means the only handler thread has
        // made its one write; the client reads nothing yet.
        let mut first = [0u8; 1];
        assert_eq!(slow.peek(&mut first).unwrap(), 1);
        // That thread is free again at once: it serves a second
        // connection while 8 MiB less one socket buffer wait on the first.
        let (mut other, mut other_reader) = connect(&server);
        write_request(&mut other, &Request::post_json("/echo", &json!("hi"))).unwrap();
        assert_eq!(
            read_response(&mut other_reader)
                .unwrap()
                .json_body()
                .unwrap(),
            json!("hi")
        );
        assert!(
            replies("loop") > via_loop,
            "the remainder did not go through the loop"
        );
        std::thread::sleep(Duration::from_millis(200));
        let resp = read_response(&mut slow_reader).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body == big_body(), "8 MiB reply arrived damaged");
        // And the connection is still good for the next request.
        write_request(&mut slow, &Request::get("/inline")).unwrap();
        assert_eq!(read_response(&mut slow_reader).unwrap().body, b"inline");
    }

    #[test]
    fn pipelined_pooled_and_inline_requests_are_answered_in_request_order() {
        let server = Server::bind_evented(
            "127.0.0.1:0",
            small_config(),
            front_door_service(Arc::default()),
        )
        .unwrap();
        let (inline, via_loop) = (replies("inline"), replies("loop"));
        let (mut stream, mut reader) = connect(&server);
        // One burst, no reads in between. Bodies big enough that two
        // threads writing at once would shred them.
        let pooled = |i: usize| -> Vec<u8> { vec![b'a' + i as u8; 24 * 1024] };
        let plan = [true, false, true, false, false, true, true, false];
        let mut wire = Vec::new();
        for (i, is_pooled) in plan.into_iter().enumerate() {
            let request = if is_pooled {
                let mut request = Request::get("/echo");
                request.method = crate::http::Method::Post;
                request.body = pooled(i);
                request
            } else {
                Request::get("/inline")
            };
            write_request(&mut wire, &request).unwrap();
        }
        stream.write_all(&wire).unwrap();
        for (i, is_pooled) in plan.into_iter().enumerate() {
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok, "response {i}");
            let expected = if is_pooled {
                pooled(i)
            } else {
                b"inline".to_vec()
            };
            assert!(resp.body == expected, "response {i} out of order or torn");
        }
        assert!(replies("inline") >= inline + 4);
        // A pooled request with bytes waiting behind it hands its
        // connection back through the loop, which owns the decoder.
        assert!(replies("loop") > via_loop);
    }

    #[test]
    fn saturated_pool_sheds_its_overflow_and_inline_routes_still_answer() {
        let gate = Arc::new(Gate::default());
        let config = EventedConfig {
            loops: 1,
            handler_threads: 1,
            handler_queue_depth: 1,
            ..EventedConfig::default()
        };
        let server =
            Server::bind_evented("127.0.0.1:0", config, front_door_service(gate.clone())).unwrap();
        let shed = sensorsafe_obsv::global().counter(
            "sensorsafe_net_overload_shed_total",
            "",
            &[("reason", "handler_queue")],
        );
        let shed_before = shed.get();
        let gated = |stream: &mut TcpStream, nonce: usize| {
            let body = json!({ "nonce": nonce });
            write_request(stream, &Request::post_json("/gated", &body)).unwrap();
        };
        let (mut held, mut held_reader) = connect(&server);
        gated(&mut held, 0);
        gate.wait_parked(1); // the only handler thread is taken

        // Three more: one fits the queue, two overflow — whichever order
        // the loop meets them in.
        let mut waiting: Vec<_> = (1..=3)
            .map(|nonce| {
                let (mut stream, reader) = connect(&server);
                gated(&mut stream, nonce);
                (nonce, reader)
            })
            .collect();
        // The loop itself is not saturated.
        let (mut probe, mut probe_reader) = connect(&server);
        for _ in 0..3 {
            write_request(&mut probe, &Request::get("/inline")).unwrap();
            assert_eq!(read_response(&mut probe_reader).unwrap().body, b"inline");
        }
        let mut answered = 0;
        let mut refused = 0;
        // The refusals arrive while the gate is still shut …
        waiting.retain_mut(|(_, reader)| {
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            match read_response(reader) {
                Ok(resp) => {
                    assert_eq!(resp.status, Status::ServiceUnavailable);
                    assert_eq!(
                        resp.headers.get("connection").map(String::as_str),
                        Some("close")
                    );
                    refused += 1;
                    false
                }
                Err(_) => true, // the queued one: no reply yet
            }
        });
        assert_eq!(refused, 2, "queue depth 1 behind a busy handler");
        assert!(shed.get() >= shed_before + 2, "shed counter did not move");
        // … and the queued request is served once it opens.
        gate.open();
        assert_eq!(
            read_response(&mut held_reader)
                .unwrap()
                .json_body()
                .unwrap(),
            json!({ "nonce": 0 })
        );
        for (nonce, reader) in &mut waiting {
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let resp = read_response(reader).unwrap();
            assert_eq!(resp.json_body().unwrap(), json!({ "nonce": (*nonce) }));
            answered += 1;
        }
        assert_eq!(answered, 1);
    }

    #[test]
    fn method_not_allowed_statuses_pass_through() {
        let server = Server::bind_evented("127.0.0.1:0", small_config(), echo_service()).unwrap();
        let client = HttpClient::new(server.addr().to_string());
        let req = Request {
            method: Method::Delete,
            ..Request::get("/ping")
        };
        assert_eq!(client.send(&req).unwrap().status, Status::MethodNotAllowed);
        assert_eq!(
            client.send(&Request::get("/nope")).unwrap().status,
            Status::NotFound
        );
    }
}
