//! A thin, safe wrapper over raw `epoll` plus an `eventfd` waker.
//!
//! This is the readiness core under [`crate::evented`]: one [`Poller`]
//! per event loop, registered file descriptors identified by a
//! caller-chosen `u64` token, and a [`Waker`] other threads ring to pull
//! a loop out of [`Poller::wait`].
//!
//! The syscall surface comes from the vendored `libc` shim
//! (`vendor/libc`), consistent with the workspace's no-external-crates
//! rule; no async runtime or I/O crate is involved.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Interest in readability (`EPOLLIN`).
pub const READABLE: u32 = libc::EPOLLIN;
/// Interest in writability (`EPOLLOUT`).
pub const WRITABLE: u32 = libc::EPOLLOUT;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or a peer hang-up that a read will observe as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition (`EPOLLERR`/`EPOLLHUP`) — always
    /// delivered by the kernel, even at interest 0.
    pub error: bool,
}

fn check(ret: libc::c_int) -> io::Result<libc::c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An `epoll` instance. Level-triggered on purpose: the event loop's
/// state machines re-arm interest explicitly, and level triggering makes
/// a missed edge impossible (at worst a spurious wakeup).
///
/// Every method takes `&self`: a handler thread re-arms a connection's
/// read interest ([`Poller::modify`]) while the owning loop sits in
/// [`Poller::wait`] — `epoll_ctl` against a concurrent `epoll_wait` is
/// defined by the kernel, and the instance is shared by `Arc` so the
/// epoll fd outlives every thread that may still name it.
pub struct Poller {
    epfd: RawFd,
}

/// Events taken from the kernel per [`Poller::wait`]; with level
/// triggering whatever did not fit is reported again by the next wait.
const WAIT_BATCH: usize = 256;

/// `epoll_wait`'s timeout argument: `-1` blocks, otherwise whole
/// milliseconds rounded **up** (and at least 1), so a loop waiting for a
/// timer-wheel tick 1.9 ms away does not wake 0.9 ms early and poll again
/// for nothing, and a 100 µs timeout does not spin at 0 ms.
fn timeout_ms(timeout: Option<Duration>) -> libc::c_int {
    match timeout {
        None => -1,
        Some(t) => t.as_nanos().div_ceil(1_000_000).clamp(1, i32::MAX as u128) as libc::c_int,
    }
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = check(unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: interest,
            u64: token,
        };
        check(unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` under `token` with the given interest bits.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest bits for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. (Closing the last handle to the open file
    /// deregisters implicitly; this is for fds that outlive their
    /// registration — a connection's stream is shared with the handler
    /// thread answering it, so the loop cannot count on its own drop being
    /// the last.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, appending into `out`. `None` blocks until an
    /// event arrives (or the waker rings). A signal-interrupted wait
    /// returns cleanly with no events.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let mut events = [libc::epoll_event { events: 0, u64: 0 }; WAIT_BATCH];
        let n = unsafe {
            libc::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                WAIT_BATCH as libc::c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &events[..n as usize] {
            // Copy packed fields out before touching them (x86_64 packs
            // `epoll_event`, and references into packed structs are UB).
            let bits = ev.events;
            let token = ev.u64;
            out.push(Event {
                token,
                readable: bits & libc::EPOLLIN != 0,
                writable: bits & libc::EPOLLOUT != 0,
                error: bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { libc::close(self.epfd) };
    }
}

/// An `eventfd`-backed wakeup handle. Cheap to ring from any thread;
/// the owning loop registers [`Waker::fd`] with its poller and
/// [`drain`](Waker::drain)s it on wakeup.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A fresh non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        let fd = check(unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register for [`READABLE`] interest.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the waker. Safe from any thread; coalesces with pending
    /// rings (eventfd is a counter, not a queue).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { libc::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Resets the counter so the level-triggered poller stops reporting
    /// it readable.
    pub fn drain(&self) {
        let mut val: u64 = 0;
        unsafe { libc::read(self.fd, (&mut val as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

// The loop thread polls while handler threads ring the waker: both ends
// are plain fd syscalls, safe concurrently.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_unblocks_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, READABLE).unwrap();
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        // Drained: an immediate wait times out with no events.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1100))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1900))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_millis(500))), 500);
        assert_eq!(timeout_ms(Some(Duration::MAX)), i32::MAX);
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(server_side.as_raw_fd(), 42, READABLE | WRITABLE)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 42).expect("event");
        assert!(ev.readable, "payload pending");
        assert!(ev.writable, "fresh socket has send-buffer space");
        let mut buf = [0u8; 8];
        let n = server_side.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }
}
