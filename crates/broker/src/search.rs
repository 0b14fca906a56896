//! Contributor search (§5.2): `POST /api/search` over the broker's rule
//! mirror, and the mirror's aggregate metric families.
//!
//! The handler parses the consumer's query and, under the mirror's read
//! lock, takes the reply's contributors array from the mirror's search
//! memo or its walk, and walks once more while a store is Unreachable, to
//! tell hits apart by where they live; see
//! [`sensorsafe_policy::RuleIndex::search_into`] and
//! [`sensorsafe_policy::RuleIndex::search_each`] for what each costs.

use crate::service::{not_registered, Inner};
use sensorsafe_auth::Principal;
use sensorsafe_json::Value;
use sensorsafe_net::{Reply, Response};
use sensorsafe_obsv::{Counter, Gauge, Histogram, Registry};
use sensorsafe_policy::{ConsumerCtx, RuleIndex, SearchQuery};
use sensorsafe_types::{
    ChannelId, ConsumerId, ContextKind, RepeatTime, TimeOfDay, TimeRange, Timestamp, Weekday,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The rule mirror's metric families, resolved once at construction so
/// neither `/api/sync` (under the index write lock) nor `/api/search`
/// looks a handle up by name. All of them are aggregates: the number of
/// series does not grow with the mirrored population.
pub(crate) struct MirrorMetrics {
    pub(crate) syncs_accepted: Arc<Counter>,
    pub(crate) syncs_stale: Arc<Counter>,
    pub(crate) contributors: Arc<Gauge>,
    /// Against `contributors`, how much of a search evaluating each
    /// distinct list once saves: equal means no two contributors share a
    /// rule list.
    pub(crate) distinct_lists: Arc<Gauge>,
    pub(crate) epoch_max: Arc<Gauge>,
    lists_evaluated: Arc<Histogram>,
    scan_builds: Arc<Counter>,
    /// The index's own build count as far as `scan_builds` has it.
    scan_builds_reported: AtomicU64,
}

impl MirrorMetrics {
    /// Records one finished search over `index` by the rule lists it
    /// evaluated (0 for a reply the search memo held), and any scan-column
    /// build not yet counted. Searches on several event loops may see the
    /// same build; `fetch_max` hands each increment to exactly one of them.
    pub(crate) fn observe_search(&self, index: &RuleIndex, lists_evaluated: usize) {
        self.lists_evaluated.observe_secs(lists_evaluated as f64);
        let built = index.scan_builds();
        let reported = &self.scan_builds_reported;
        // Steady state is a load of a line nobody writes.
        if built > reported.load(Ordering::Relaxed) {
            let reported = reported.fetch_max(built, Ordering::Relaxed);
            self.scan_builds.add(built.saturating_sub(reported));
        }
    }

    pub(crate) fn resolve(registry: &Registry) -> MirrorMetrics {
        let syncs = |result| {
            registry.counter(
                "sensorsafe_broker_rule_syncs_total",
                "Rule-sync messages from data stores, by outcome.",
                &[("result", result)],
            )
        };
        MirrorMetrics {
            syncs_accepted: syncs("accepted"),
            syncs_stale: syncs("stale"),
            contributors: registry.gauge(
                "sensorsafe_broker_mirrored_contributors",
                "Contributors whose privacy rules the broker mirrors.",
                &[],
            ),
            distinct_lists: registry.gauge(
                "sensorsafe_broker_distinct_rule_lists",
                "Distinct rule lists among the mirrored contributors.",
                &[],
            ),
            epoch_max: registry.gauge(
                "sensorsafe_broker_rule_epoch_max",
                "Highest rule epoch mirrored for any contributor.",
                &[],
            ),
            lists_evaluated: registry.histogram(
                "sensorsafe_broker_search_lists_evaluated",
                "Rule lists evaluated per contributor search (0: answered from the search memo).",
                &[],
                Some(&[
                    0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
                ]),
            ),
            scan_builds: registry.counter(
                "sensorsafe_broker_mirror_scan_builds_total",
                "Times a search rebuilt the rule mirror's scan column.",
                &[],
            ),
            scan_builds_reported: AtomicU64::new(0),
        }
    }
}

/// Appends `items`, rendered JSON values separated by commas, as the next
/// items of the array being written at the end of `out` (empty, or
/// ending in `[`, before the first item).
fn push_item(out: &mut Vec<u8>, items: &str) {
    if !matches!(out.last(), None | Some(b'[')) {
        out.push(b',');
    }
    out.extend_from_slice(items.as_bytes());
}

impl Inner {
    pub(crate) fn parse_search_query(
        body: &Value,
        consumer: ConsumerCtx,
    ) -> Result<SearchQuery, String> {
        let q = body.get("query").unwrap_or(&Value::Null);
        let mut query = SearchQuery {
            consumer,
            ..Default::default()
        };
        if let Some(channels) = q.get("channels").and_then(Value::as_string_list) {
            query.raw_channels = channels
                .into_iter()
                .map(|c| ChannelId::try_new(c).ok_or("bad channel name"))
                .collect::<Result<_, _>>()?;
        }
        if let Some(labels) = q.get("label_contexts").and_then(Value::as_string_list) {
            query.label_contexts = labels
                .iter()
                .map(|l| ContextKind::parse(l).ok_or(format!("unknown context '{l}'")))
                .collect::<Result<_, _>>()?;
        }
        if let Some(locations) = q.get("location_labels").and_then(Value::as_string_list) {
            query.location_labels = locations;
        }
        if let Some(active) = q.get("active_contexts").and_then(Value::as_string_list) {
            query.active_contexts = active
                .iter()
                .map(|l| ContextKind::parse(l).ok_or(format!("unknown context '{l}'")))
                .collect::<Result<_, _>>()?;
        }
        if let Some(repeat) = q.get("repeat") {
            let days = match repeat.get("days").and_then(Value::as_string_list) {
                None => Vec::new(),
                Some(names) => names
                    .iter()
                    .map(|d| Weekday::parse(d).ok_or(format!("unknown weekday '{d}'")))
                    .collect::<Result<_, _>>()?,
            };
            let from = repeat
                .get("from")
                .and_then(Value::as_str)
                .and_then(TimeOfDay::parse)
                .ok_or("repeat missing 'from'")?;
            let to = repeat
                .get("to")
                .and_then(Value::as_str)
                .and_then(TimeOfDay::parse)
                .ok_or("repeat missing 'to'")?;
            query.repeat = Some(RepeatTime::new(days, from, to));
        }
        if let Some(range) = q.get("range") {
            let start = range
                .get("start")
                .and_then(Value::as_i64)
                .ok_or("range missing 'start'")?;
            let end = range
                .get("end")
                .and_then(Value::as_i64)
                .ok_or("range missing 'end'")?;
            if end < start {
                return Err("range end before start".into());
            }
            query.range = Some(TimeRange::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(end),
            ));
        }
        Ok(query)
    }

    pub(crate) fn consumer_ctx(&self, name: &str) -> Option<ConsumerCtx> {
        let record = self.registry.consumer(&ConsumerId::new(name))?;
        Some(ConsumerCtx {
            id: Some(ConsumerId::new(name)),
            groups: record.groups,
            studies: record.studies,
        })
    }

    pub(crate) fn handle_search(&self, principal: Principal, body: &Value) -> Reply {
        let ctx = self
            .consumer_ctx(&principal.name)
            .ok_or_else(not_registered)?;
        let query = Self::parse_search_query(body, ctx).map_err(|e| Response::bad_request(&e))?;
        let _frame = sensorsafe_obsv::prof_frame!("broker-search");
        // Hits whose hosting store the fleet plane currently holds
        // Unreachable are listed a second time under `unreachable`: their
        // data exists but cannot be fetched right now. The plane is read
        // once; while every store is reachable no hit touches the registry.
        let down = self.fleet.unreachable_stores();
        // The body holds the bytes the tree `json!({"contributors": [..],
        // "unreachable": [..]})` serialized to. The mirror already rendered
        // every name with its separator: the contributors array is the
        // mirror's memoized reply to this query, or its walk written
        // straight into the body, a run of consecutive hits copied as one
        // slice. While a store is down, a second walk checks the hits one
        // by one against the dead stores. The index read lock covers the
        // memo and the walks (an evaluation per distinct rule list, a
        // verdict lookup per contributor); the registry's contributor map
        // is taken inside it, as a leaf.
        let mut body = b"{\"contributors\":[".to_vec();
        let mut unreachable = Vec::new();
        let index = self.rules.read();
        let mut evaluated = index.search_into(&query, &mut body);
        if !down.is_empty() {
            evaluated += index.search_each(&query, |run| {
                for hit in run.hits() {
                    if self
                        .registry
                        .store_addr_of(&hit.name())
                        .is_some_and(|addr| down.iter().any(|d| d == addr.as_str()))
                    {
                        push_item(&mut unreachable, hit.json());
                    }
                }
            });
        }
        self.mirror_metrics.observe_search(&index, evaluated);
        drop(index);
        body.extend_from_slice(b"],\"unreachable\":[");
        body.extend_from_slice(&unreachable);
        body.extend_from_slice(b"]}");
        Ok(Response::json_bytes(body))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::service::tests::{
        flaky_rig, register_consumer, register_contributor, rig, sync_rules, sync_rules_at, Rig,
    };
    use crate::service::Inner;
    use sensorsafe_json::{json, Value};
    use sensorsafe_net::{Request, Service, Status};

    #[test]
    fn search_over_mirrored_rules() {
        let rig = rig();
        register_contributor(&rig, "alice");
        register_contributor(&rig, "carol");
        let bob = register_consumer(&rig, "bob");
        // Alice denies stress sources while driving; Carol shares all.
        sync_rules(
            &rig,
            "alice",
            1,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Sensor": ["ecg", "respiration"], "Action": "Deny"},
            ]),
        );
        sync_rules(&rig, "carol", 1, json!([{"Action": "Allow"}]));
        // Bob's §6 search: stress data while driving.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({
                "key": bob,
                "query": {
                    "channels": ["ecg", "respiration"],
                    "active_contexts": ["Drive"],
                },
            }),
        ));
        let hits = resp.json_body().unwrap();
        let names: Vec<&str> = hits["contributors"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(names, ["carol"]);
    }

    /// What `/api/search` answered before it streamed: the `json!` tree,
    /// serialized.
    pub(crate) fn tree_body(contributors: &[&str], unreachable: &[&str]) -> Vec<u8> {
        let names = |names: &[&str]| Value::Array(names.iter().map(|n| Value::from(*n)).collect());
        sensorsafe_json::to_vec(&json!({
            "contributors": (names(contributors)),
            "unreachable": (names(unreachable)),
        }))
    }

    pub(crate) fn search_body(rig: &Rig, consumer_key: &str) -> Vec<u8> {
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({"key": consumer_key, "query": {"channels": ["ecg"]}}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.headers["content-type"], "application/json");
        resp.body
    }

    #[test]
    fn streamed_search_body_is_the_tree_byte_for_byte() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        // Nothing mirrored, then nothing matching.
        assert_eq!(search_body(&rig, &bob), tree_body(&[], &[]));
        sync_rules(&rig, "nobody", 1, json!([]));
        assert_eq!(search_body(&rig, &bob), tree_body(&[], &[]));
        // One hit (no separator), then names the writer has to escape:
        // quote, backslash, controls, and multi-byte UTF-8 passed through.
        sync_rules(&rig, "alice", 1, json!([{"Action": "Allow"}]));
        assert_eq!(search_body(&rig, &bob), tree_body(&["alice"], &[]));
        let awkward = [
            "bell\u{7}",
            "back\\slash",
            "line\nbreak",
            "quo\"te",
            "tab\there",
            "zoë-日本",
        ];
        for name in awkward {
            sync_rules(&rig, name, 1, json!([{"Action": "Allow"}]));
        }
        let mut names = vec!["alice"];
        names.extend(awkward);
        names.sort_unstable();
        let body = search_body(&rig, &bob);
        assert_eq!(body, tree_body(&names, &[]));
        assert_eq!(
            sensorsafe_json::parse(std::str::from_utf8(&body).unwrap()).unwrap()["contributors"]
                .as_string_list()
                .unwrap(),
            names
        );
        // The mirror copies a run of consecutive hits as one slice, so
        // which rows hit decides where each copy starts and ends: every
        // population below puts a run boundary somewhere else. Row index →
        // whether that contributor is a hit, over 12 rows.
        type HitsAt = fn(usize) -> bool;
        let names: Vec<String> = (0..12).map(|i| format!("c{i:02}")).collect();
        let populations: [(&str, HitsAt); 7] = [
            ("nobody", |_| false),
            ("everybody", |_| true),
            ("alternating", |i| i % 2 == 0),
            ("alternating from the second", |i| i % 2 == 1),
            ("three in four", |i| i % 4 != 3),
            ("only the first", |i| i == 0),
            ("only the last", |i| i == 11),
        ];
        let fresh = crate::service::tests::rig;
        for (population, hits) in populations {
            let rig = fresh();
            let bob = register_consumer(&rig, "bob");
            let mut expected = Vec::new();
            for (i, name) in names.iter().enumerate() {
                let rules = if hits(i) {
                    expected.push(name.as_str());
                    json!([{"Action": "Allow"}])
                } else {
                    json!([])
                };
                sync_rules(&rig, name, 1, rules);
            }
            assert_eq!(
                search_body(&rig, &bob),
                tree_body(&expected, &[]),
                "{population}"
            );
        }
        // Runs across names that need every escape `write_str` knows —
        // quote, backslash, the named controls, `\u00XX` controls — and
        // multi-byte UTF-8, between two rows that do not hit; a vertical
        // tab (escaped, not a hit) cuts them in two.
        let rig = fresh();
        let bob = register_consumer(&rig, "bob");
        let run = [
            "b\u{8}",
            "b\t",
            "b\n",
            "b\u{c}",
            "b\r",
            "b\u{1f}",
            "b\"",
            "b\\",
            "bé日本",
        ];
        for name in run {
            sync_rules(&rig, name, 1, json!([{"Action": "Allow"}]));
        }
        for name in ["a", "b\u{b}", "c"] {
            sync_rules(&rig, name, 1, json!([]));
        }
        let mut expected = run.to_vec();
        expected.sort_unstable();
        assert_eq!(search_body(&rig, &bob), tree_body(&expected, &[]));
    }

    #[test]
    fn streamed_search_body_lists_unreachable_hits_like_the_tree() {
        // Two stores, of which `store-1` can be taken down.
        let (rig, down) = flaky_rig();
        let resp = rig.broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (rig.broker_admin.clone()),
                "addr": "store-2",
                "register_key": (rig.store_admin.clone()),
            }),
        ));
        assert_eq!(resp.status, Status::Created);
        let bob = register_consumer(&rig, "bob");
        // Every kind of name the mirror renders ahead of time — quote,
        // backslash, a control, 3-byte UTF-8 — on the store that dies, so
        // each is copied into both arrays.
        for (name, addr, rules) in [
            ("alice", "store-2", json!([{"Action": "Allow"}])),
            ("b\\ob", "store-1", json!([{"Action": "Allow"}])),
            ("carol", "store-1", json!([{"Action": "Allow"}])),
            ("d\"ave", "store-2", json!([{"Action": "Allow"}])),
            // On the dead store, but shares nothing: not a hit.
            ("erin", "store-1", json!([{"Action": "Deny"}])),
            ("f\"ay", "store-1", json!([{"Action": "Allow"}])),
            ("new\nline", "store-1", json!([{"Action": "Allow"}])),
            ("zoë", "store-2", json!([{"Action": "Allow"}])),
            ("日本", "store-1", json!([{"Action": "Allow"}])),
        ] {
            sync_rules_at(&rig, name, addr, 1, rules);
        }
        let hits = [
            "alice",
            "b\\ob",
            "carol",
            "d\"ave",
            "f\"ay",
            "new\nline",
            "zoë",
            "日本",
        ];
        // Erin cuts the hits into two runs, each straddling both stores:
        // the first starts and ends on the live one, the second on the one
        // that dies. The Unreachable list is picked out of a run hit by hit.
        let query = Inner::parse_search_query(
            &json!({"query": {"channels": ["ecg"]}}),
            rig.broker.inner.consumer_ctx("bob").unwrap(),
        )
        .unwrap();
        let mut runs = Vec::new();
        rig.broker.inner.rules.read().search_each(&query, |run| {
            runs.push(
                run.hits()
                    .map(|hit| hit.name().into_owned())
                    .collect::<Vec<_>>(),
            )
        });
        assert_eq!(runs, [&hits[..4], &hits[4..]]);
        rig.broker.fleet_sweep_now();
        // All up: asked twice, the reply is memoized, and then served.
        for _ in 0..3 {
            assert_eq!(search_body(&rig, &bob), tree_body(&hits, &[]));
        }
        assert_eq!(lists_evaluated(&rig), (3, 4));
        // unreachable_after = 2.
        down.store(true, std::sync::atomic::Ordering::SeqCst);
        rig.broker.fleet_sweep_now();
        rig.broker.fleet_sweep_now();
        // A store down: the memo still answers the contributors array,
        // and a second walk names the hits whose store is dead.
        let dead_hits = ["b\\ob", "carol", "f\"ay", "new\nline", "日本"];
        for _ in 0..2 {
            let body = search_body(&rig, &bob);
            assert_eq!(body, tree_body(&hits, &dead_hits));
            assert_eq!(
                sensorsafe_json::parse(std::str::from_utf8(&body).unwrap()).unwrap()["unreachable"]
                    .as_string_list()
                    .unwrap(),
                dead_hits
            );
        }
        assert_eq!(lists_evaluated(&rig), (5, 8));
        // Carol stops sharing while her store is down (the sync reaches
        // the broker from wherever her rules are edited): gone from both
        // arrays at once.
        sync_rules_at(&rig, "carol", "store-1", 2, json!([]));
        let hits = [
            "alice",
            "b\\ob",
            "d\"ave",
            "f\"ay",
            "new\nline",
            "zoë",
            "日本",
        ];
        let dead_hits = ["b\\ob", "f\"ay", "new\nline", "日本"];
        assert_eq!(search_body(&rig, &bob), tree_body(&hits, &dead_hits));
        // Her sync cleared the memo: that search walked twice, once for
        // the array and once for the dead store's hits.
        assert_eq!(lists_evaluated(&rig), (6, 14));
        // Recovered: no hit is listed Unreachable any more, and the reply
        // memoized before the outage, which still named carol, is never
        // served: the search walks, is kept, and is then answered.
        down.store(false, std::sync::atomic::Ordering::SeqCst);
        rig.broker.fleet_sweep_now();
        assert_eq!(search_body(&rig, &bob), tree_body(&hits, &[]));
        assert_eq!(search_body(&rig, &bob), tree_body(&hits, &[]));
        assert_eq!(lists_evaluated(&rig), (8, 17));
    }

    /// `(count, sum)` of `sensorsafe_broker_search_lists_evaluated`: a
    /// search the memo answered adds 1 to the count and nothing to the sum.
    pub(crate) fn lists_evaluated(rig: &Rig) -> (u64, u64) {
        let text = rig.broker.registry().encode();
        let read = |suffix: &str| {
            let series = format!("sensorsafe_broker_search_lists_evaluated{suffix} ");
            text.lines()
                .find_map(|line| line.strip_prefix(series.as_str()))
                .map_or(0, |value| value.parse().unwrap())
        };
        (read("_count"), read("_sum"))
    }

    #[test]
    fn memoized_search_drops_a_contributor_who_revokes() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        sync_rules(&rig, "alice", 1, json!([{"Action": "Allow"}]));
        sync_rules(
            &rig,
            "carol",
            1,
            json!([{"Sensor": ["ecg"], "Action": "Allow"}]),
        );
        assert_eq!(search_body(&rig, &bob), tree_body(&["alice", "carol"], &[]));
        assert_eq!(lists_evaluated(&rig), (1, 2));
        // Asked again: walked once more, and the reply kept. After a
        // store's same-list re-sync the memo answers: no list evaluated.
        assert_eq!(search_body(&rig, &bob), tree_body(&["alice", "carol"], &[]));
        sync_rules(&rig, "alice", 2, json!([{"Action": "Allow"}]));
        assert_eq!(search_body(&rig, &bob), tree_body(&["alice", "carol"], &[]));
        assert_eq!(lists_evaluated(&rig), (3, 4));
        // Alice re-syncs to a list that denies bob: his next identical
        // search, a memo hit a moment ago, drops her.
        sync_rules(
            &rig,
            "alice",
            3,
            json!([{"Action": "Allow"}, {"Consumer": ["bob"], "Action": "Deny"}]),
        );
        assert_eq!(search_body(&rig, &bob), tree_body(&["carol"], &[]));
        assert_eq!(lists_evaluated(&rig), (4, 6));
        assert_eq!(search_body(&rig, &bob), tree_body(&["carol"], &[]));
        assert_eq!(lists_evaluated(&rig), (5, 8));
        // A stale push of her old list changes nothing, memo included.
        sync_rules(&rig, "alice", 2, json!([{"Action": "Allow"}]));
        assert_eq!(search_body(&rig, &bob), tree_body(&["carol"], &[]));
        assert_eq!(lists_evaluated(&rig), (6, 8));
        // Carol leaves the mirror (account deletion; no route removes a
        // contributor yet, so the test takes the write lock itself).
        assert!(rig
            .broker
            .inner
            .rules
            .write()
            .remove(&sensorsafe_types::ContributorId::new("carol")));
        assert_eq!(search_body(&rig, &bob), tree_body(&[], &[]));
        assert_eq!(lists_evaluated(&rig), (7, 9));
    }

    #[test]
    fn mirror_telemetry_is_aggregate_not_per_contributor() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        let mirror = |population: usize, epoch: u64| {
            for i in 0..population {
                // Three lists over the whole population.
                let rules = match i % 3 {
                    0 => json!([{"Action": "Allow"}]),
                    1 => json!([{"Action": "Allow"}, {"Sensor": ["ecg"], "Action": "Deny"}]),
                    _ => json!([]),
                };
                sync_rules(&rig, &format!("c{i:03}"), epoch, rules);
            }
        };
        mirror(9, 4);
        search_body(&rig, &bob);
        let small = rig.broker.registry().encode();
        for line in [
            "sensorsafe_broker_mirrored_contributors 9",
            "sensorsafe_broker_distinct_rule_lists 3",
            "sensorsafe_broker_rule_epoch_max 4",
            "sensorsafe_broker_rule_syncs_total{result=\"accepted\"} 9",
            "sensorsafe_broker_rule_syncs_total{result=\"stale\"} 0",
            "sensorsafe_broker_search_lists_evaluated_count 1",
            "sensorsafe_broker_search_lists_evaluated_sum 3",
            "sensorsafe_broker_mirror_scan_builds_total 1",
        ] {
            assert!(small.lines().any(|l| l == line), "{line}: {small}");
        }
        // Thirty times the population, one stale push: same series. The
        // new contributors cost the next search one rebuild of the scan
        // column and one walk (3 lists); the second asking walks again
        // and is kept, and the third is answered from the search memo,
        // recording 0 lists evaluated.
        mirror(270, 7);
        sync_rules(&rig, "c000", 2, json!([]));
        search_body(&rig, &bob);
        search_body(&rig, &bob);
        search_body(&rig, &bob);
        let large = rig.broker.registry().encode();
        assert_eq!(small.lines().count(), large.lines().count(), "{large}");
        assert!(!large.contains("contributor="), "{large}");
        for line in [
            "sensorsafe_broker_mirrored_contributors 270",
            "sensorsafe_broker_distinct_rule_lists 3",
            "sensorsafe_broker_rule_epoch_max 7",
            "sensorsafe_broker_rule_syncs_total{result=\"stale\"} 1",
            "sensorsafe_broker_search_lists_evaluated_count 4",
            "sensorsafe_broker_search_lists_evaluated_sum 9",
            "sensorsafe_broker_search_lists_evaluated_bucket{le=\"0\"} 1",
            "sensorsafe_broker_search_lists_evaluated_bucket{le=\"1\"} 1",
            "sensorsafe_broker_mirror_scan_builds_total 2",
        ] {
            assert!(large.lines().any(|l| l == line), "{line}: {large}");
        }
    }

    #[test]
    fn malformed_search_queries_rejected() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        for bad in [
            json!({"key": (bob.clone()), "query": {"label_contexts": ["Flying"]}}),
            json!({"key": (bob.clone()), "query": {"repeat": {"from": "9am"}}}),
            json!({"key": (bob.clone()), "query": {"range": {"start": 10, "end": 5}}}),
        ] {
            let resp = rig.broker.handle(&Request::post_json("/api/search", &bad));
            assert_eq!(resp.status, Status::BadRequest, "{bad}");
        }
    }
}
