//! The calibration op: the yardstick the timed metrics are read against.
//!
//! The VM this benchmark runs on changes speed by tens of percent from
//! one minute to the next, and it does so in the things a request is
//! made of — waking an idle thread, a synced disk write, compute on a
//! cache somebody else just used — while a hot single-threaded loop
//! keeps its pace (README, "Noise rule 6"). Raw wall-clock metrics of
//! the same code therefore spread by 15-60 % between runs.
//!
//! So every client interleaves its real ops with a *calibration op*: a
//! fixed, request-shaped unit of work that owes nothing to the program
//! under test. The end-to-end timing metrics are the raw statistics
//! scaled by `NOMINAL_US / (median calibration op time of the run)`,
//! that is, expressed at the speed of a machine on which the
//! calibration op takes exactly one millisecond. A change to the
//! program moves the numerator only; a change of the machine's mood
//! moves both.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The calibration op time the normalised metrics are expressed at.
pub const NOMINAL_US: f64 = 1000.0;
/// A client performs one calibration op this often.
pub const EVERY: Duration = Duration::from_millis(25);

/// Words in the scattered-access buffer (4 MiB: larger than L2).
const BUF_WORDS: usize = 1 << 19;
const PINGS: usize = 4;
const SPIN_ROUNDS: usize = 100_000;
const SCATTER_ROUNDS: usize = 2_000;

/// One client's calibration rig: an echo thread behind a loopback
/// connection, an append-only file, a buffer.
pub struct Calibrator {
    stream: TcpStream,
    file: std::fs::File,
    path: PathBuf,
    buf: Vec<u64>,
    state: u64,
    echo: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// The rig's file lives in `dir` (the run directory, so the disk is
    /// the one the journal and the ledger sync to).
    pub fn new(dir: &Path, client: usize) -> Calibrator {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("local addr");
        let echo = std::thread::Builder::new()
            .name(format!("calib-echo-{client}"))
            .spawn(move || {
                let Ok((mut peer, _)) = listener.accept() else {
                    return;
                };
                let _ = peer.set_nodelay(true);
                let mut byte = [0u8; 256];
                while let Ok(n @ 1..) = peer.read(&mut byte) {
                    if peer.write_all(&byte[..n]).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn echo thread");
        let stream = TcpStream::connect(addr).expect("connect to echo thread");
        stream.set_nodelay(true).expect("nodelay");
        let path = dir.join(format!("calib-{client}.tmp"));
        let file = std::fs::File::create(&path).expect("calibration file");
        Calibrator {
            stream,
            file,
            path,
            buf: vec![1; BUF_WORDS],
            state: 88_172_645_463_325_252,
            echo: Some(echo),
        }
    }

    /// Performs one calibration op and returns how long it took, in µs:
    /// four 256-byte ping-pongs with the echo thread (eight idle-thread
    /// wake-ups and the loopback syscalls, about what one request costs
    /// on its way client -> event loop -> handler -> journal thread and
    /// back), a 4 KiB append + `sync_data` (what a journal or ledger
    /// commit waits for), a register-only xorshift loop (compute the
    /// host's mood does not touch) and a scattered read-modify-write
    /// walk over 4 MiB (cache and memory). About 1.1 ms on the VM this
    /// was built on, split roughly 25 : 35 : 15 : 25; README, "Noise
    /// rule 6" has the measurements behind the mix.
    pub fn op(&mut self) -> f64 {
        let started = Instant::now();
        let mut packet = [7u8; 256];
        for _ in 0..PINGS {
            self.stream.write_all(&packet).expect("calibration ping");
            self.stream
                .read_exact(&mut packet)
                .expect("calibration pong");
        }
        self.file
            .write_all(&[0x5a; 4096])
            .expect("calibration write");
        self.file.sync_data().expect("calibration fsync");
        let mut x = self.state;
        for _ in 0..SPIN_ROUNDS {
            x = xorshift(x);
        }
        let words = self.buf.len() as u64;
        for _ in 0..SCATTER_ROUNDS {
            x = xorshift(x);
            let slot = &mut self.buf[(x % words) as usize];
            *slot = slot.wrapping_add(x);
            x ^= *slot;
        }
        self.state = std::hint::black_box(x);
        started.elapsed().as_secs_f64() * 1e6
    }
}

/// Interleaves calibration ops with a stretch of sequential work: the
/// worker calls [`Pacer::tick`] between its own ops and one calibration
/// op runs whenever [`EVERY`] has passed since the last.
pub struct Pacer {
    rig: Calibrator,
    due: Instant,
    /// When each calibration op finished and how long it took, in µs.
    pub ops: Vec<(Instant, f64)>,
}

impl Pacer {
    pub fn new(dir: &Path, client: usize) -> Pacer {
        Pacer {
            rig: Calibrator::new(dir, client),
            due: Instant::now(),
            ops: Vec::new(),
        }
    }

    pub fn tick(&mut self) {
        if Instant::now() >= self.due {
            let took_us = self.rig.op();
            let now = Instant::now();
            self.ops.push((now, took_us));
            self.due = now + EVERY;
        }
    }

    /// Seconds spent inside calibration ops so far.
    pub fn calibrating_s(&self) -> f64 {
        self.ops.iter().map(|op| op.1).sum::<f64>() / 1e6
    }

    /// `wall_s` of work this pacer was interleaved with, less the time
    /// its own ops took, expressed at the nominal machine speed; `None`
    /// before the first calibration op.
    pub fn at_nominal_speed(&self, wall_s: f64) -> Option<f64> {
        let took: Vec<f64> = self.ops.iter().map(|op| op.1).collect();
        let median_us = crate::stats::median(&took).ok()?;
        Some((wall_s - self.calibrating_s()) * NOMINAL_US / median_us)
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // The echo thread ends when its peer closes; wait for it.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_takes_time_and_the_rig_cleans_up() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("calib-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut rig = Calibrator::new(&dir, 0);
        let path = rig.path.clone();
        assert!(rig.op() > 0.0 && rig.op() > 0.0);
        assert_eq!(std::fs::metadata(&path).expect("file").len(), 2 * 4096);
        drop(rig);
        assert!(!path.exists(), "the rig removes its file");

        let mut pacer = Pacer::new(&dir, 1);
        assert_eq!(pacer.at_nominal_speed(1.0), None);
        pacer.tick();
        pacer.tick();
        assert_eq!(pacer.ops.len(), 1, "the second tick is not due yet");
        // One op of `t` µs inside `t` µs + 2 s of wall time: 2 s of
        // work on a machine whose calibration op takes `t` µs.
        let t = pacer.ops[0].1;
        let nominal = pacer.at_nominal_speed(2.0 + t / 1e6).expect("calibrated");
        assert!((nominal - 2.0 * NOMINAL_US / t).abs() < 1e-9);
        drop(pacer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
