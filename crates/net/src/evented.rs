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
//!   timer wheel (idle timeouts) ──────┘   └─ write buffers
//!                    │ complete requests         ▲ responses
//!                    ▼                           │
//!              bounded handler pool  ── service.handle() ──┘
//! ```
//!
//! Each loop owns its own `SO_REUSEPORT` listener, so the kernel load-
//! balances incoming connections across loops with no shared accept
//! lock. A connection lives on one loop for its whole life: the loop
//! reads readiness-driven byte fragments into the connection's
//! [`RequestDecoder`], dispatches each
//! complete request to a bounded handler pool (where the blocking
//! service code — journal commits, policy evaluation — runs unchanged), and
//! writes the response back with non-blocking writes, re-arming
//! `EPOLLOUT` on short writes. Handler threads return responses through
//! a per-loop completion queue plus an `eventfd` wakeup.
//!
//! Resource discipline, because millions of trickle-rate contributors
//! are the point (ROADMAP north star):
//!
//! * memory per idle connection is one decoder (empty between requests)
//!   plus the fixed `Conn` bookkeeping — no thread, no stack;
//! * idle connections are closed after [`EventedConfig::idle_timeout`]
//!   by a per-loop timer wheel;
//! * accepts beyond [`EventedConfig::max_connections_per_loop`] and
//!   requests beyond the handler queue are **shed** with
//!   `503` + `Connection: close` rather than queued unboundedly,
//!   counted by `sensorsafe_net_overload_shed_total`.

use crate::codec::{Decoded, RequestDecoder};
use crate::http::{write_response, Request, Response, Status};
use crate::poll::{Event, Poller, Waker, READABLE, WRITABLE};
use crate::server::record_request;
use crate::Service;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A response produced by a handler thread, addressed back to the
/// connection that asked (generation-checked: the slot may have been
/// reused by a new connection by the time the response lands).
struct Completion {
    slot: usize,
    generation: u64,
    response: Response,
    close: bool,
}

/// The loop-side state handler threads can reach.
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// A unit of work for the handler pool.
struct Job {
    request: Request,
    slot: usize,
    generation: u64,
    shared: Arc<LoopShared>,
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

fn handler_queue_gauge() -> Arc<sensorsafe_obsv::Gauge> {
    sensorsafe_obsv::global().gauge(
        "sensorsafe_net_handler_queue_depth",
        "Requests dispatched to the evented servers' handler pool and not \
         yet picked up by a handler thread.",
        &[],
    )
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

/// One connection's state on its loop.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    generation: u64,
    decoder: RequestDecoder,
    /// Encoded response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// A request is in the handler pool; reads are paused.
    busy: bool,
    close_after_write: bool,
    /// Reason to record when `close_after_write` completes.
    close_reason: CloseReason,
    /// Interest bits currently armed in epoll.
    interest: u32,
    last_activity: Instant,
    opened: Instant,
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
    job_tx: Option<Sender<Job>>,
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
        let (job_tx, job_rx) = bounded::<Job>(config.handler_queue_depth.max(1));

        let mut loop_shared = Vec::with_capacity(n_loops);
        let mut loops = Vec::with_capacity(n_loops);
        for (i, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::new(LoopShared {
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            });
            loop_shared.push(shared.clone());
            let stop = stop.clone();
            let tx = job_tx.clone();
            let config = config.clone();
            loops.push(
                std::thread::Builder::new()
                    .name(format!("net-loop-{i}"))
                    .spawn(move || {
                        EventLoop::new(listener, shared, stop, tx, config).run();
                    })?,
            );
        }

        let mut handlers = Vec::with_capacity(n_handlers);
        for i in 0..n_handlers {
            let rx: Receiver<Job> = job_rx.clone();
            let service = service.clone();
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("net-handler-{i}"))
                    .spawn(move || handler_main(rx, service))?,
            );
        }

        Ok(Server {
            addr: local,
            stop,
            loops,
            loop_shared,
            handlers,
            job_tx: Some(job_tx),
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
        // Loops are gone; closing the channel lets handlers finish any
        // in-flight requests (their completions go nowhere) and exit.
        self.job_tx.take();
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

fn handler_main(rx: Receiver<Job>, service: Arc<dyn Service>) {
    while let Ok(job) = rx.recv() {
        handler_queue_gauge().add(-1);
        // Attribute handler time (including the service's own nested
        // spans) to this pool in the profiling plane; between jobs the
        // thread samples as `net-handler;(idle)`.
        let _frame = sensorsafe_obsv::prof_frame!("request-handler");
        let started = Instant::now();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.handle(&job.request)
        }))
        .unwrap_or_else(|_| Response::error(Status::InternalError, "handler panicked"));
        record_request(started.elapsed(), response.status);
        let close = job
            .request
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        job.shared.completions.lock().push(Completion {
            slot: job.slot,
            generation: job.generation,
            response,
            close,
        });
        job.shared.waker.wake();
    }
}

struct EventLoop {
    listener: TcpListener,
    shared: Arc<LoopShared>,
    stop: Arc<AtomicBool>,
    job_tx: Sender<Job>,
    config: EventedConfig,
    poller: Poller,
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
        job_tx: Sender<Job>,
        config: EventedConfig,
    ) -> EventLoop {
        let wheel = TimerWheel::new(config.idle_timeout);
        EventLoop {
            listener,
            shared,
            stop,
            job_tx,
            config,
            poller: Poller::new().expect("epoll_create1"),
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            wheel,
        }
    }

    fn run(mut self) {
        use std::os::unix::io::AsRawFd;
        self.poller
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, READABLE)
            .expect("register listener");
        self.poller
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
                self.poller.wait(&mut events, timeout)
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
        use std::os::unix::io::AsRawFd;
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
            stream,
            fd,
            generation,
            decoder: RequestDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            close_after_write: false,
            close_reason: CloseReason::ServerClose,
            interest: READABLE,
            last_activity: now,
            opened: now,
        };
        if self
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
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // already closed this iteration
        };
        if ev.error {
            self.close(slot, CloseReason::Error);
            return;
        }
        if ev.writable && !conn.out.is_empty() {
            self.flush(slot);
        }
        // `flush` may have closed or transitioned the connection.
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.readable && conn.interest & READABLE != 0 {
            self.read_ready(slot);
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            match conn.stream.read(&mut buf) {
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
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        return;
                    };
                    if conn.busy || conn.decoder.buffered() > MAX_BUFFERED_AHEAD {
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

    /// Drives the connection's state machine: decode the next request if
    /// the connection is free, dispatch it, or queue a protocol error.
    fn advance(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.busy || !conn.out.is_empty() {
            return; // a response is in flight; pipelined bytes wait
        }
        match conn.decoder.poll() {
            Decoded::NeedMore => {
                self.set_interest(slot, READABLE);
            }
            Decoded::Item(request) => {
                conn.busy = true;
                let generation = conn.generation;
                // Reads pause while the handler works (bounded memory);
                // the completion path re-arms them.
                self.set_interest(slot, 0);
                let job = Job {
                    request,
                    slot,
                    generation,
                    shared: self.shared.clone(),
                };
                // Count the job before sending it: a handler thread can
                // pick it up (and decrement) the instant try_send
                // returns, and increment-after-send would let a
                // concurrent scrape read the gauge below zero.
                handler_queue_gauge().add(1);
                match self.job_tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                        handler_queue_gauge().add(-1);
                        count_shed("handler_queue");
                        drop(job);
                        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                            return;
                        };
                        conn.busy = false;
                        let mut resp =
                            Response::error(Status::ServiceUnavailable, "server overloaded");
                        resp.headers.insert("connection".into(), "close".into());
                        self.queue_response(slot, resp, true);
                    }
                }
            }
            Decoded::Failed(err) => {
                conn.close_reason = CloseReason::ProtocolError;
                let mut resp = Response::error(err.status, &err.message);
                resp.headers.insert("connection".into(), "close".into());
                self.queue_response(slot, resp, true);
            }
        }
    }

    /// Serializes a response into the connection's write buffer and
    /// starts flushing it.
    fn queue_response(&mut self, slot: usize, response: Response, close: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.close_after_write |= close;
        let mut wire = Vec::with_capacity(256 + response.body.len());
        if write_response(&mut wire, &response).is_err() {
            self.close(slot, CloseReason::Error);
            return;
        }
        conn.out = wire;
        conn.out_pos = 0;
        conn.last_activity = Instant::now();
        self.flush(slot);
    }

    /// Writes as much of the out-buffer as the socket accepts; arms
    /// `EPOLLOUT` on a short write, re-arms reads when fully drained.
    fn flush(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(slot, CloseReason::Error);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, WRITABLE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot, CloseReason::Error);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write {
            let reason = conn.close_reason;
            self.close(slot, reason);
            return;
        }
        self.set_interest(slot, READABLE);
        // Pipelined requests may already be buffered.
        self.advance(slot);
    }

    fn drain_completions(&mut self) {
        let completions = std::mem::take(&mut *self.shared.completions.lock());
        for completion in completions {
            let Some(conn) = self.conns.get_mut(completion.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != completion.generation || !conn.busy {
                continue; // a stale response for a recycled slot
            }
            conn.busy = false;
            self.queue_response(completion.slot, completion.response, completion.close);
        }
    }

    fn sweep_timers(&mut self) {
        let now = Instant::now();
        for (slot, generation) in self.wheel.due(now) {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != generation {
                continue;
            }
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
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        let fd = conn.fd;
        if self
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
        count_closed(reason, conn.opened);
        // Dropping the stream closes the fd, which deregisters it from
        // epoll (this loop holds the only handle).
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        drop(conn.stream);
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
    let mut resp = Response::error(Status::ServiceUnavailable, "server overloaded");
    resp.headers.insert("connection".into(), "close".into());
    let mut wire = Vec::new();
    if write_response(&mut wire, &resp).is_ok() {
        let _ = stream.write(&wire);
    }
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
