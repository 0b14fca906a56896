//! Environment probes: what the machine was doing around a run, so
//! drift is visible in the record instead of being read as a change.

use crate::stats::median;
use sensorsafe_core::auth::sha256;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// User + system CPU seconds this process has used (`/proc/self/stat`,
/// fields 14 and 15, at the kernel's fixed 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// Median latency of a 4 KiB append + `sync_data` in `dir`, in µs.
pub fn fsync_us(dir: &Path) -> f64 {
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).expect("probe file");
    let block = [0x5au8; 4096];
    let samples: Vec<f64> = (0..32)
        .map(|_| {
            let started = Instant::now();
            file.write_all(&block).expect("probe write");
            file.sync_data().expect("probe fsync");
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&samples).expect("32 samples")
}

/// A fixed single-threaded CPU loop (SHA-256 over 64 MiB in 64 KiB
/// blocks), in ms. Compare before/after a workload and across records.
pub fn cpu_ref_ms() -> f64 {
    let mut block = vec![0u8; 64 * 1024];
    let started = Instant::now();
    for round in 0..1024u32 {
        block[..4].copy_from_slice(&round.to_le_bytes());
        let digest = sha256(std::hint::black_box(&block));
        block[4] = digest[0];
    }
    std::hint::black_box(&block);
    started.elapsed().as_secs_f64() * 1e3
}

/// Median one-byte ping-pong over a loopback TCP connection, in µs.
pub fn loopback_rtt_us() -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("local addr");
    const PINGS: usize = 400;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (mut peer, _) = listener.accept().expect("accept");
            peer.set_nodelay(true).expect("nodelay");
            let mut byte = [0u8; 1];
            for _ in 0..PINGS {
                peer.read_exact(&mut byte).expect("echo read");
                peer.write_all(&byte).expect("echo write");
            }
        });
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut byte = [7u8; 1];
        let samples: Vec<f64> = (0..PINGS)
            .map(|_| {
                let started = Instant::now();
                stream.write_all(&byte).expect("ping");
                stream.read_exact(&mut byte).expect("pong");
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples).expect("samples")
    })
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
