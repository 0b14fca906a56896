//! Search-side non-interference (ROADMAP 1a-iii; PEPSI's requirement that
//! the matching service reveal nothing beyond the match, restated for a
//! rule mirror): what consumer A learns from `/api/search` depends only on
//! the rules that can apply to A.
//!
//! Over random mirrored populations — lists drawn from a small pool so
//! contributors share interned slots, or made unique per contributor — and
//! every [`ConsumerSelector`] kind:
//!
//! * A's reply **bytes** are unchanged by any `/api/sync` that edits only
//!   rules naming consumer B (added, removed, rewritten, reordered around
//!   the rest), for a random subset of the population — so two
//!   contributors on one interned list part ways correctly when only one
//!   of them is edited;
//! * a contributor whose list denies A never appears in A's reply;
//! * A's and B's hits are the per-contributor reference walk
//!   ([`SearchQuery::matches`]) over the lists as last synced.

use proptest::prelude::*;
use sensorsafe_broker::{BrokerConfig, BrokerService};
use sensorsafe_json::{json, Value};
use sensorsafe_net::{Request, Service, Status};
use sensorsafe_policy::{
    AbstractionSpec, Action, BinaryAbs, Conditions, ConsumerCtx, ConsumerSelector, DependencyGraph,
    LocationCondition, PrivacyRule, SearchQuery, TimeCondition,
};
use sensorsafe_types::{
    ChannelId, ConsumerId, ContextKind, GroupId, RepeatTime, StudyId, TimeOfDay, Weekday,
};

const CHANNELS: [&str; 3] = ["ecg", "respiration", "accel_mag"];
const LABELS: [&str; 2] = ["work", "home"];

/// The selectors that pick consumer A (`anna`) and consumer B (`ben`),
/// one of each kind.
fn selectors_of(user: &str, group: &str, study: &str) -> Vec<ConsumerSelector> {
    vec![
        ConsumerSelector::User(ConsumerId::new(user)),
        ConsumerSelector::Group(GroupId::new(group)),
        ConsumerSelector::Study(StudyId::new(study)),
    ]
}

fn a_selectors() -> Vec<ConsumerSelector> {
    selectors_of("anna", "researchers", "stress-study")
}

fn b_selectors() -> Vec<ConsumerSelector> {
    selectors_of("ben", "insurers", "sleep-study")
}

fn ctx_of(selectors: &[ConsumerSelector]) -> ConsumerCtx {
    let mut ctx = ConsumerCtx::default();
    for selector in selectors {
        match selector {
            ConsumerSelector::User(id) => ctx.id = Some(id.clone()),
            ConsumerSelector::Group(g) => ctx.groups.push(g.clone()),
            ConsumerSelector::Study(s) => ctx.studies.push(s.clone()),
        }
    }
    ctx
}

fn arb_subset<T: Clone + std::fmt::Debug + 'static>(
    of: &[T],
    sizes: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Vec<T>> {
    prop::collection::vec(prop::sample::select(of.to_vec()), sizes)
}

fn arb_repeat() -> impl Strategy<Value = RepeatTime> {
    (arb_subset(&Weekday::ALL, 0..=3), 0u8..24, 0u8..24).prop_map(|(days, from, to)| {
        RepeatTime::new(days, TimeOfDay::new(from, 0), TimeOfDay::new(to, 30))
    })
}

fn arb_action() -> impl Strategy<Value = Action> {
    let level = || prop::sample::select(vec![BinaryAbs::Label, BinaryAbs::NotShared]);
    prop_oneof![
        Just(Action::Allow),
        Just(Action::Allow),
        Just(Action::Deny),
        (level(), level()).prop_map(|(stress, conversation)| {
            Action::Abstraction(AbstractionSpec {
                stress: Some(stress),
                conversation: Some(conversation),
                ..Default::default()
            })
        }),
    ]
}

/// A rule whose consumer condition holds `consumers` of `selectors`.
fn arb_rule(
    selectors: Vec<ConsumerSelector>,
    consumers: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = PrivacyRule> {
    (
        arb_subset(&selectors, consumers),
        arb_subset(&LABELS.map(String::from), 0..=1),
        prop::collection::vec(arb_repeat(), 0..=1),
        arb_subset(&CHANNELS.map(ChannelId::new), 0..=2),
        arb_subset(&ContextKind::ALL, 0..=1),
        arb_action(),
    )
        .prop_map(
            |(consumers, labels, repeats, sensors, contexts, action)| PrivacyRule {
                conditions: Conditions {
                    consumers,
                    location: (!labels.is_empty()).then_some(LocationCondition {
                        labels,
                        regions: Vec::new(),
                    }),
                    time: (!repeats.is_empty()).then_some(TimeCondition {
                        ranges: Vec::new(),
                        repeats,
                    }),
                    sensors,
                    contexts,
                },
                action,
            },
        )
}

/// Rules that may apply to anyone: all consumers, A's selectors, B's, or a mix.
fn arb_open_rules() -> impl Strategy<Value = Vec<PrivacyRule>> {
    let everyone = [a_selectors(), b_selectors()].concat();
    prop::collection::vec(arb_rule(everyone, 0..=2), 0..4)
}

/// Rules naming consumer B and nobody else.
fn arb_b_only_rules() -> impl Strategy<Value = Vec<PrivacyRule>> {
    prop::collection::vec(arb_rule(b_selectors(), 1..=2), 0..3)
}

/// A query that asks for something (at least one raw channel), so a
/// contributor who shares nothing with the asker cannot match vacuously.
fn arb_query() -> impl Strategy<Value = SearchQuery> {
    (
        arb_subset(&CHANNELS.map(ChannelId::new), 1..=2),
        arb_subset(&ContextKind::ALL, 0..=1),
        arb_subset(&ContextKind::ALL, 0..=1),
        arb_subset(&LABELS.map(String::from), 0..=1),
        prop::option::of(arb_repeat()),
    )
        .prop_map(
            |(raw_channels, label_contexts, active_contexts, location_labels, repeat)| {
                SearchQuery {
                    raw_channels,
                    label_contexts,
                    active_contexts,
                    location_labels,
                    repeat,
                    ..Default::default()
                }
            },
        )
}

fn names<T>(items: &[T], name: impl Fn(&T) -> &str) -> Value {
    Value::Array(items.iter().map(|item| Value::from(name(item))).collect())
}

/// The `/api/search` wire form of `query` (the consumer is the key's).
fn query_json(query: &SearchQuery) -> Value {
    let mut q = json!({
        "channels": (names(&query.raw_channels, |c| c.as_str())),
        "label_contexts": (names(&query.label_contexts, |k| k.as_str())),
        "active_contexts": (names(&query.active_contexts, |k| k.as_str())),
        "location_labels": (names(&query.location_labels, |l| l.as_str())),
    });
    if let Some(repeat) = &query.repeat {
        q.as_object_mut().unwrap().insert(
            "repeat".into(),
            json!({
                "days": (names(&repeat.days, |d| d.as_str())),
                "from": (repeat.from.to_wire()),
                "to": (repeat.to.to_wire()),
            }),
        );
    }
    q
}

/// One mirrored contributor: the rules anyone may be subject to, and the
/// B-only rules woven between them before and after the edit.
#[derive(Debug, Clone)]
struct Contributor {
    open: usize,
    unique: bool,
    denies_a: Option<usize>,
    b_before: Vec<PrivacyRule>,
    /// `None`: this contributor is not re-synced.
    b_after: Option<Vec<PrivacyRule>>,
    weave: usize,
}

fn arb_contributor() -> impl Strategy<Value = Contributor> {
    (
        0usize..8,
        prop::option::of(0usize..4),
        arb_b_only_rules(),
        prop::option::of(arb_b_only_rules()),
        0usize..16,
    )
        .prop_map(|(open, denies_a, b_before, b_after, weave)| Contributor {
            open,
            unique: false,
            denies_a,
            b_before,
            b_after,
            weave,
        })
}

impl Contributor {
    /// The rules that can apply to A (and to anyone else): the pool list,
    /// an unconditional Deny naming A when this contributor denies A, and
    /// a rule for a consumer nobody is when lists must not be shared.
    fn open_rules(&self, n: usize, pool: &[Vec<PrivacyRule>]) -> Vec<PrivacyRule> {
        let scoped = |consumers, action| PrivacyRule {
            conditions: Conditions {
                consumers,
                ..Default::default()
            },
            action,
        };
        let mut rules = pool[self.open % pool.len()].clone();
        if let Some(how) = self.denies_a {
            // By user, by group, by study, or by denying everyone.
            let consumers = a_selectors().into_iter().skip(how).take(1).collect();
            rules.insert(0, scoped(consumers, Action::Deny));
        }
        if self.unique {
            let nobody = ConsumerSelector::User(ConsumerId::new(format!("only-{n}")));
            rules.push(scoped(vec![nobody], Action::Allow));
        }
        rules
    }

    /// `open` with `b_only` woven in at positions `weave` picks; the open
    /// rules keep their relative order, as an edit of B's rules leaves them.
    fn list(&self, open: &[PrivacyRule], b_only: &[PrivacyRule]) -> Vec<PrivacyRule> {
        let mut rules = open.to_vec();
        for (k, rule) in b_only.iter().enumerate() {
            rules.insert((self.weave + 5 * k) % (rules.len() + 1), rule.clone());
        }
        rules
    }
}

struct Mirror {
    broker: BrokerService,
    store_key: String,
}

impl Mirror {
    fn post(&self, path: &str, body: &Value) -> sensorsafe_net::Response {
        self.broker.handle(&Request::post_json(path, body))
    }

    fn new() -> (Mirror, String, String) {
        let (broker, admin) = BrokerService::new(BrokerConfig::default());
        let mut mirror = Mirror {
            broker,
            store_key: String::new(),
        };
        let admin = admin.to_hex();
        let resp = mirror.post(
            "/api/stores/register",
            &json!({"key": (admin.clone()), "addr": "store-x", "register_key": "k"}),
        );
        mirror.store_key = resp.json_body().unwrap()["store_key"]
            .as_str()
            .unwrap()
            .to_string();
        let register = |name: &str, group: &str, study: &str| {
            let resp = mirror.post(
                "/api/register",
                &json!({
                    "key": (admin.clone()), "name": name, "role": "consumer",
                    "groups": (names(&[group], |g| g)),
                    "studies": (names(&[study], |s| s)),
                }),
            );
            assert_eq!(resp.status, Status::Created);
            resp.json_body().unwrap()["api_key"]
                .as_str()
                .unwrap()
                .to_string()
        };
        let anna = register("anna", "researchers", "stress-study");
        let ben = register("ben", "insurers", "sleep-study");
        (mirror, anna, ben)
    }

    fn sync(&self, contributor: &str, epoch: u64, rules: &[PrivacyRule]) {
        let resp = self.post(
            "/api/sync",
            &json!({
                "key": (self.store_key.clone()),
                "contributor": contributor,
                "store_addr": "store-x",
                "epoch": epoch,
                "rules": (PrivacyRule::rules_to_json(rules)),
            }),
        );
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        assert_eq!(resp.json_body().unwrap()["accepted"].as_bool(), Some(true));
    }

    /// The reply body of one search, and the hits it lists.
    fn search(&self, key: &str, query: &SearchQuery) -> (Vec<u8>, Vec<String>) {
        let resp = self.post(
            "/api/search",
            &json!({"key": key, "query": (query_json(query))}),
        );
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        let hits = resp.json_body().unwrap()["contributors"]
            .as_string_list()
            .unwrap();
        (resp.body, hits)
    }
}

fn reference_hits(
    lists: &[(String, Vec<PrivacyRule>)],
    query: &SearchQuery,
    consumer: &ConsumerCtx,
) -> Vec<String> {
    let graph = DependencyGraph::paper();
    let query = SearchQuery {
        consumer: consumer.clone(),
        ..query.clone()
    };
    let mut hits: Vec<String> = lists
        .iter()
        .filter(|(_, rules)| query.matches(rules, &graph))
        .map(|(name, _)| name.clone())
        .collect();
    hits.sort();
    hits
}

proptest! {
    #[test]
    fn a_search_reply_depends_only_on_rules_that_can_apply_to_the_asker(
        pool in prop::collection::vec(arb_open_rules(), 1..4),
        population in prop::collection::vec(arb_contributor(), 1..8),
        queries in prop::collection::vec(arb_query(), 1..4),
        shared in any::<bool>(),
    ) {
        let (mirror, anna, ben) = Mirror::new();
        let (anna_ctx, ben_ctx) = (ctx_of(&a_selectors()), ctx_of(&b_selectors()));
        let population: Vec<(String, Contributor, Vec<PrivacyRule>)> = population
            .into_iter()
            .enumerate()
            .map(|(n, c)| {
                let c = Contributor { unique: !shared, ..c };
                let open = c.open_rules(n, &pool);
                (format!("c{n}"), c, open)
            })
            .collect();

        let mut lists = Vec::new();
        for (name, c, open) in &population {
            let rules = c.list(open, &c.b_before);
            mirror.sync(name, 1, &rules);
            lists.push((name.clone(), rules));
        }
        let before: Vec<(Vec<u8>, Vec<String>)> =
            queries.iter().map(|q| mirror.search(&anna, q)).collect();
        for (query, (_, hits)) in queries.iter().zip(&before) {
            prop_assert_eq!(hits, &reference_hits(&lists, query, &anna_ctx));
        }

        // The edit: some contributors re-sync with other rules for B.
        for ((name, c, open), (_, rules)) in population.iter().zip(&mut lists) {
            if let Some(b_after) = &c.b_after {
                *rules = c.list(open, b_after);
                mirror.sync(name, 2, rules);
            }
        }
        for (query, (bytes_before, _)) in queries.iter().zip(&before) {
            let (bytes, hits) = mirror.search(&anna, query);
            prop_assert_eq!(
                String::from_utf8_lossy(&bytes),
                String::from_utf8_lossy(bytes_before),
                "A's reply moved with B's rules: {:?}", query
            );
            for (name, c, _) in &population {
                prop_assert!(
                    c.denies_a.is_none() || !hits.contains(name),
                    "{name} denies A and was listed for {query:?}"
                );
            }
            // B, whose rules did change, sees the lists as they are now.
            prop_assert_eq!(
                mirror.search(&ben, query).1,
                reference_hits(&lists, query, &ben_ctx)
            );
        }
    }
}
