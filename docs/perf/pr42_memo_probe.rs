//! The search memo's cost and worst-case memory, in-process on the policy
//! crate alone (no HTTP); the numbers are in `pr42_memo_probe.txt`.
//!
//! Every contributor allows everyone, so every search hits everybody and
//! every reply is as long as the scan column's text. To run it, copy this
//! file to `crates/policy/examples/memoprobe.rs` and
//!
//!     cargo run --release --offline -p sensorsafe-policy --example memoprobe
//!     for n in 1000 10000 100000; do
//!         target/release/examples/memoprobe mem $n
//!     done
use sensorsafe_policy::{Action, Conditions, ConsumerCtx, PrivacyRule, RuleIndex, SearchQuery};
use sensorsafe_types::{ChannelId, ContributorId};
use std::time::Instant;

fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .unwrap()
        .trim()
        .trim_end_matches(" kB")
        .trim()
        .parse()
        .unwrap()
}

fn query(consumer: &str) -> SearchQuery {
    SearchQuery {
        consumer: ConsumerCtx::user(consumer),
        raw_channels: vec![ChannelId::new("ecg")],
        ..Default::default()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn push_item(out: &mut Vec<u8>, items: &str) {
    if !matches!(out.last(), None | Some(b'[')) {
        out.push(b',');
    }
    out.extend_from_slice(items.as_bytes());
}

fn main() {
    let allow = vec![PrivacyRule {
        conditions: Conditions::default(),
        action: Action::Allow,
    }];
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("mem") {
        // One fresh process per population: RSS before and after the memo
        // keeps 16 all-hit replies (each query asked twice).
        let n: usize = args[2].parse().unwrap();
        let mut index = RuleIndex::new();
        for i in 0..n {
            index.sync(ContributorId::new(format!("m{i:06}")), 1, allow.clone());
        }
        let mut out = Vec::new();
        index.search_each(&query("warm"), |run| push_item(&mut out, run.json()));
        let reply = out.len();
        drop(out);
        let before = rss_kb();
        for i in 0..16 {
            for _ in 0..2 {
                index.search_into(&query(&format!("fill-{i}")), &mut Vec::new());
            }
        }
        let after = rss_kb();
        println!(
            "mem n={n} reply_bytes={reply} rss_before_kb={before} rss_after_kb={after} memo16_rss_kb={} memo16_payload_kb={:.1}",
            after - before,
            16.0 * reply as f64 / 1024.0
        );
        return;
    }
    for n in [1_000usize, 10_000, 100_000] {
        let mut index = RuleIndex::new();
        for i in 0..n {
            index.sync(ContributorId::new(format!("m{i:06}")), 1, allow.clone());
        }
        // Build the column once, outside the timings.
        let mut out = Vec::new();
        index.search_each(&query("warm"), |run| push_item(&mut out, run.json()));
        let reply = out.len();
        let reps = (2_000_000 / n).max(50);
        // 17 distinct consumers in a cycle: every search_into misses (FIFO of 16).
        let cycle: Vec<SearchQuery> = (0..17).map(|i| query(&format!("consumer-{i}"))).collect();
        let (mut walk, mut miss, mut second, mut hit) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for r in 0..reps {
            let q = &cycle[r % cycle.len()];
            // The walk the handler did before the memo.
            let t = Instant::now();
            let mut body = b"{\"contributors\":[".to_vec();
            index.search_each(q, |run| push_item(&mut body, run.json()));
            walk.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&body);
            // A first asking: the same walk, plus the memo's key bookkeeping.
            let t = Instant::now();
            let mut body = b"{\"contributors\":[".to_vec();
            let e = index.search_into(q, &mut body);
            miss.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(e > 0, "cycle of 17 must miss");
            std::hint::black_box(&body);
            // A second asking: the walk, plus the exact-size copy kept.
            let once = query(&format!("once-{r}"));
            index.search_into(&once, &mut Vec::new());
            let t = Instant::now();
            let mut body = b"{\"contributors\":[".to_vec();
            let e = index.search_into(&once, &mut body);
            second.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(e > 0);
            std::hint::black_box(&body);
        }
        let fixed = query("consumer-fixed");
        index.search_into(&fixed, &mut Vec::new());
        index.search_into(&fixed, &mut Vec::new());
        for _ in 0..reps {
            let t = Instant::now();
            let mut body = b"{\"contributors\":[".to_vec();
            let e = index.search_into(&fixed, &mut body);
            hit.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(e, 0);
            std::hint::black_box(&body);
        }
        // Worst-case memory: a fresh clone (empty memo), then 16 distinct
        // all-hit replies memoized.
        let clone = index.clone();
        let mut out = Vec::new();
        clone.search_each(&query("warm"), |run| push_item(&mut out, run.json()));
        drop(index);
        let before = rss_kb();
        for i in 0..16 {
            for _ in 0..2 {
                clone.search_into(&query(&format!("fill-{i}")), &mut Vec::new());
            }
        }
        let after = rss_kb();
        let (walk, miss, second, hit) =
            (median(walk), median(miss), median(second), median(hit));
        println!(
            "n={n} reply_bytes={reply} reps={reps} walk_us={walk:.1} first_us={miss:.1} ({:+.1}%) second_us={second:.1} ({:+.1}%) hit_us={hit:.1} memo16_rss_kb={} memo16_payload_kb={:.1}",
            (miss / walk - 1.0) * 100.0,
            (second / walk - 1.0) * 100.0,
            after as i64 - before as i64,
            16.0 * reply as f64 / 1024.0,
        );
    }
}
