//! The fsync probe behind the journal's zero extent: the cost of one
//! `fdatasync` after writing one journal-sized record (523 bytes, the
//! journal's bytes per `ingest_1hz` upload) three ways.
//!
//! - `append`: `O_APPEND` write, so every flush also commits a larger
//!   file size (the journal before the zero extent);
//! - `overwrite`: positional write over blocks already written with
//!   zeros and synced, so the flush carries data only;
//! - `extent`: what the journal does now, a positional write that, when
//!   it runs past the zeros, writes zeros up to the next 1 MiB boundary
//!   before the same flush.
//!
//! Build and run with no dependencies:
//!
//! ```sh
//! rustc -O docs/perf/pr45_fsync_probe.rs -o fsync_probe
//! ./fsync_probe <dir on the disk under test> [records per round] [rounds]
//! ```
//!
//! Rounds alternate the three ways; each prints p50 / p90 / p99 / max of
//! the write + flush time in microseconds.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

const RECORD: usize = 523;
const STEP: u64 = 1024 * 1024;
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

fn write_zeros(file: &File, mut from: u64, to: u64) {
    while from < to {
        let n = (to - from).min(ZEROS.len() as u64);
        file.write_all_at(&ZEROS[..n as usize], from).unwrap();
        from += n;
    }
}

fn summary(name: &str, mut us: Vec<f64>) {
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    println!(
        "{name:9} n {:5}  p50 {:7.1}  p90 {:7.1}  p99 {:7.1}  max {:8.1} us",
        us.len(),
        at(0.5),
        at(0.9),
        at(0.99),
        us[us.len() - 1]
    );
}

fn round(dir: &Path, way: &str, records: usize) -> Vec<f64> {
    let path = dir.join(format!("fsync-probe-{way}"));
    let _ = std::fs::remove_file(&path);
    let record = [0x5au8; RECORD];
    let mut out = Vec::with_capacity(records);
    match way {
        "append" => {
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap();
            for _ in 0..records {
                let t = Instant::now();
                file.write_all(&record).unwrap();
                file.sync_data().unwrap();
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        "overwrite" => {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .unwrap();
            let need = (records * RECORD) as u64;
            write_zeros(&file, 0, (need / STEP + 1) * STEP);
            file.sync_data().unwrap();
            for i in 0..records {
                let t = Instant::now();
                file.write_all_at(&record, (i * RECORD) as u64).unwrap();
                file.sync_data().unwrap();
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        _ => {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .unwrap();
            let mut zeroed = 0u64;
            for i in 0..records {
                let t = Instant::now();
                let at = (i * RECORD) as u64;
                file.write_all_at(&record, at).unwrap();
                let end = at + RECORD as u64;
                if end > zeroed {
                    zeroed = (end / STEP + 1) * STEP;
                    write_zeros(&file, end, zeroed);
                }
                file.sync_data().unwrap();
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dir = Path::new(args.get(1).map(String::as_str).unwrap_or("."));
    let records: usize = args.get(2).map_or(4000, |s| s.parse().unwrap());
    let rounds: usize = args.get(3).map_or(3, |s| s.parse().unwrap());
    println!("{records} records of {RECORD} B per round, {rounds} rounds, dir {}", dir.display());
    for r in 1..=rounds {
        println!("round {r}");
        for way in ["append", "overwrite", "extent"] {
            summary(way, round(dir, way, records));
        }
    }
}
