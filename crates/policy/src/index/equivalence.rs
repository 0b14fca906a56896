//! The interned, memoised search against the walk it replaced.
//!
//! [`reference_search`] is the per-contributor walk `RuleIndex::search`
//! was before lists were interned — probe windows rebuilt for every
//! contributor, [`evaluate`] per probe — over a plain model of the mirror.
//! The proptest drives an index and that model through the same random
//! syncs and removals and requires the same hits in the same order after
//! every step, over populations that share lists and populations that do
//! not, plus the slab's bookkeeping invariants.
//!
//! The same steps pin the scan column a search reads: the names are ones
//! JSON has to escape, every hit's literal must be `write_str` of the
//! reference's hit and give the name back, every run's `json()` must be
//! those literals comma-joined, runs must be consecutive in name order
//! and maximal (no two adjoin), and a second index that is searched only
//! now and then takes the same steps, so the column is checked both
//! patched in place and rebuilt after a run of changes.
//!
//! They pin the search memo too. Every check asks each query of
//! [`RuleIndex::search_into`] three times, cold (whatever the step left
//! in the memo), again (which keeps the reply) and warm (certainly from
//! the memo), and every reply must be the reference's hits rendered and
//! comma-joined. The steps include
//! same-list re-syncs beside list changes and removals, and after each
//! step the memo must be empty if the step moved a contributor's slot
//! (joined, left, changed list) and exactly as it was otherwise.

use super::*;
use crate::rule::{
    AbstractionSpec, Conditions, ConsumerSelector, LocationCondition, TimeCondition,
};
use crate::{LocationAbs, TimeAbs};
use proptest::prelude::*;
use sensorsafe_types::{ConsumerId, GeoPoint, GroupId, Region, StudyId, TimeOfDay};

/// The mirror as a store would describe it: name → (epoch, rules).
type Model = BTreeMap<ContributorId, (u64, Vec<PrivacyRule>)>;

fn reference_matches(query: &SearchQuery, rules: &[PrivacyRule], graph: &DependencyGraph) -> bool {
    let channels: Vec<ChannelId> = query.raw_channels.clone();
    query.probe_instants().iter().all(|instant| {
        let window = WindowCtx {
            time: *instant,
            location: None,
            location_labels: query.location_labels.clone(),
            contexts: query
                .active_contexts
                .iter()
                .map(|k| ContextState::on(*k))
                .collect(),
        };
        let decision = evaluate(rules, &query.consumer, &window, &channels, graph);
        let raw_ok = query
            .raw_channels
            .iter()
            .all(|c| decision.raw_channels().any(|r| r == c));
        raw_ok && query.context_level_ok(&decision)
    })
}

fn reference_search(model: &Model, query: &SearchQuery) -> Vec<ContributorId> {
    let graph = DependencyGraph::paper();
    model
        .iter()
        .filter(|(_, (_, rules))| reference_matches(query, rules, &graph))
        .map(|(id, _)| id.clone())
        .collect()
}

/// Everything the slab must keep true, checked against the model.
fn check_invariants(index: &RuleIndex, model: &Model) {
    assert_eq!(index.len(), model.len());
    assert_eq!(index.is_empty(), model.is_empty());
    let live: Vec<(usize, &RuleList)> = index
        .lists
        .iter()
        .enumerate()
        .filter(|(_, list)| list.members > 0)
        .collect();
    assert_eq!(live.len(), index.distinct_rule_sets());
    assert_eq!(live.len() + index.free.len(), index.lists.len());
    assert!(index.distinct_rule_sets() <= index.len());
    assert_eq!(
        live.iter().map(|(_, list)| list.members).sum::<usize>(),
        index.len(),
        "every contributor is a member of exactly one list"
    );
    for slot in &index.free {
        assert_eq!(index.lists[*slot as usize].members, 0);
        assert!(index.lists[*slot as usize].rules.is_empty());
    }
    let buckets: BTreeSet<(u64, u32)> = live
        .iter()
        .map(|(slot, list)| (bucket_of(&list.rules), *slot as u32))
        .collect();
    assert_eq!(buckets, index.by_bucket);
    // Interning is exact: as many live lists as the model has distinct
    // ones, and every member count is the model's.
    let mut distinct: Vec<(&Vec<PrivacyRule>, usize)> = Vec::new();
    for (_, rules) in model.values() {
        match distinct.iter_mut().find(|(seen, _)| *seen == rules) {
            Some((_, members)) => *members += 1,
            None => distinct.push((rules, 1)),
        }
    }
    assert_eq!(distinct.len(), live.len());
    for (rules, members) in distinct {
        let (_, list) = live
            .iter()
            .find(|(_, list)| &list.rules == rules)
            .expect("every mirrored list is interned");
        assert_eq!(list.members, members);
    }
    for (id, (epoch, rules)) in model {
        assert_eq!(index.rules_of(id), Some((*epoch, rules.as_slice())));
    }
    assert!(index
        .epochs()
        .map(|(id, epoch)| (id.clone(), epoch))
        .eq(model.iter().map(|(id, (epoch, _))| (id.clone(), *epoch))));
}

/// `name` as the reply body carries it.
fn literal_of(name: &str) -> String {
    let mut out = Vec::new();
    sensorsafe_json::write_str(&mut out, name);
    String::from_utf8(out).unwrap()
}

fn check_searches(index: &RuleIndex, model: &Model, queries: &[SearchQuery]) {
    // Where each mirrored name sits in name order.
    let position: BTreeMap<&ContributorId, usize> =
        model.keys().enumerate().map(|(at, id)| (id, at)).collect();
    for query in queries {
        let expected = reference_search(model, query);
        let rendered: Vec<String> = expected.iter().map(|id| literal_of(id.as_str())).collect();
        let mut literals = Vec::new();
        let mut names = Vec::new();
        // Each run as the range of `expected` it covers.
        let mut runs = Vec::new();
        let evaluated = index.search_each(query, |run| {
            let first = names.len();
            for hit in run.hits() {
                literals.push(hit.json().to_string());
                names.push(ContributorId::new(hit.name()));
            }
            assert!(names.len() > first, "a run holds at least one hit");
            runs.push((first..names.len(), run.json().to_string()));
        });
        assert_eq!(names, expected, "{query:?}");
        assert_eq!(literals, rendered, "{query:?}");
        for (at, (covers, json)) in runs.iter().enumerate() {
            assert_eq!(*json, rendered[covers.clone()].join(","), "{query:?}");
            // Consecutive in name order, and maximal: the row just
            // before the next run is not a hit.
            let positions: Vec<usize> = expected[covers.clone()]
                .iter()
                .map(|id| position[id])
                .collect();
            assert!(positions.windows(2).all(|w| w[1] == w[0] + 1), "{query:?}");
            if let Some((next, _)) = runs.get(at + 1) {
                let last = positions[positions.len() - 1];
                assert!(position[&expected[next.start]] > last + 1, "{query:?}");
            }
        }
        assert!(evaluated <= index.distinct_rule_sets());
        let items = rendered.join(",");
        let (cold, _) = joined(index, query);
        assert_eq!(cold, items, "cold: {query:?}");
        let (again, _) = joined(index, query);
        assert_eq!(again, items, "asked again: {query:?}");
        let (warm, evaluated) = joined(index, query);
        assert_eq!(warm, items, "warm: {query:?}");
        assert_eq!(evaluated, 0, "the third asking is a memo hit");
        assert_eq!(index.search(query), expected);
        assert_eq!(index.snapshot().search(query), expected);
    }
}

/// Ten contributors whose names share prefixes and need every kind of
/// escape `write_str` knows — quote, backslash, the named controls, a
/// `\u00XX` control — or none (multi-byte UTF-8 passes through). Byte
/// order of the raw names is not the order of their literals.
const NAMES: [&str; 10] = [
    "c",
    "c0",
    "c\"0",
    "c\\0",
    "c\n0",
    "c\u{7}",
    "c\t\"\\",
    "cé",
    "c日本",
    "d\u{1f}\u{8}\u{c}\r",
];

// Small vocabularies, so that rules, queries and each other's lists meet.
const CHANNELS: [&str; 4] = ["ecg", "respiration", "accel_mag", "audio_energy"];
const LABELS: [&str; 3] = ["work", "home", "UCLA"];
const WEEK_MS: i64 = 7 * 86_400_000;

fn week_start() -> i64 {
    reference_week_start().millis()
}

fn arb_subset<T: Clone + std::fmt::Debug + 'static>(
    of: &[T],
    at_most: usize,
) -> impl Strategy<Value = Vec<T>> {
    prop::collection::vec(prop::sample::select(of.to_vec()), 0..=at_most)
}

fn arb_time_of_day() -> impl Strategy<Value = TimeOfDay> {
    (0u8..24, prop::sample::select(vec![0u8, 30])).prop_map(|(h, m)| TimeOfDay::new(h, m))
}

fn arb_repeat() -> impl Strategy<Value = RepeatTime> {
    (
        arb_subset(&Weekday::ALL, 4),
        arb_time_of_day(),
        arb_time_of_day(),
    )
        .prop_map(|(days, from, to)| RepeatTime::new(days, from, to))
}

/// Ranges around the reference week the probes fall in, a few weeks
/// either side, an hour to three weeks long.
fn arb_range() -> impl Strategy<Value = TimeRange> {
    (-3 * WEEK_MS..3 * WEEK_MS, 3_600_000..3 * WEEK_MS).prop_map(|(offset, length)| {
        let start = week_start() + offset;
        TimeRange::new(
            Timestamp::from_millis(start),
            Timestamp::from_millis(start + length),
        )
    })
}

fn arb_action() -> impl Strategy<Value = Action> {
    let binary = || {
        prop::option::of(prop::sample::select(vec![
            BinaryAbs::Raw,
            BinaryAbs::Label,
            BinaryAbs::NotShared,
        ]))
    };
    let abstraction = (
        prop::option::of(prop::sample::select(vec![
            LocationAbs::Coordinates,
            LocationAbs::City,
            LocationAbs::NotShared,
        ])),
        prop::option::of(prop::sample::select(vec![
            TimeAbs::Hour,
            TimeAbs::NotShared,
        ])),
        prop::option::of(prop::sample::select(vec![
            ActivityAbs::Raw,
            ActivityAbs::TransportMode,
            ActivityAbs::MoveNotMove,
            ActivityAbs::NotShared,
        ])),
        binary(),
        binary(),
        binary(),
    )
        .prop_filter_map(
            "abstraction must set a level",
            |(location, time, activity, stress, smoking, conversation)| {
                let spec = AbstractionSpec {
                    location,
                    time,
                    activity,
                    stress,
                    smoking,
                    conversation,
                };
                (!spec.is_empty()).then_some(Action::Abstraction(spec))
            },
        );
    // Allow twice: a list with no matching Allow shares nothing, and
    // hit lists that are always empty would prove little.
    prop_oneof![
        Just(Action::Allow),
        Just(Action::Allow),
        Just(Action::Deny),
        abstraction
    ]
}

fn arb_conditions() -> impl Strategy<Value = Conditions> {
    let consumers = arb_subset(
        &[
            ConsumerSelector::User(ConsumerId::new("bob")),
            ConsumerSelector::User(ConsumerId::new("eve")),
            ConsumerSelector::Group(GroupId::new("researchers")),
            ConsumerSelector::Study(StudyId::new("stress-study")),
        ],
        2,
    );
    let location = (
        arb_subset(&LABELS.map(String::from), 2),
        arb_subset(
            &[
                Region::around(GeoPoint::ucla(), 0.05),
                Region::around(GeoPoint::new(40.7, -74.0), 0.1),
            ],
            1,
        ),
    )
        .prop_map(|(labels, regions)| LocationCondition { labels, regions });
    let time = (
        prop::collection::vec(arb_range(), 0..2),
        prop::collection::vec(arb_repeat(), 0..2),
    )
        .prop_map(|(ranges, repeats)| TimeCondition { ranges, repeats });
    (
        consumers,
        // A quarter of the rules carry each condition kind, as JSON
        // decoding would leave them: never `Some(empty)`.
        (0u8..4, location),
        (0u8..4, time),
        arb_subset(&CHANNELS.map(ChannelId::new), 2),
        arb_subset(&ContextKind::ALL, 1),
    )
        .prop_map(
            |(consumers, (has_location, location), (has_time, time), sensors, contexts)| {
                Conditions {
                    consumers,
                    location: (has_location == 0 && !location.is_empty()).then_some(location),
                    time: (has_time == 0 && !time.is_empty()).then_some(time),
                    sensors,
                    contexts,
                }
            },
        )
}

fn arb_rules() -> impl Strategy<Value = Vec<PrivacyRule>> {
    prop::collection::vec(
        (arb_conditions(), arb_action())
            .prop_map(|(conditions, action)| PrivacyRule { conditions, action }),
        0..5,
    )
}

/// Every query shape: repeat / range / both / neither, with and without
/// active and label contexts, a plain consumer and one with memberships.
fn arb_query() -> impl Strategy<Value = SearchQuery> {
    let consumer = prop_oneof![
        Just(ConsumerCtx::user("bob")),
        Just(ConsumerCtx {
            id: Some(ConsumerId::new("eve")),
            groups: vec![GroupId::new("researchers")],
            studies: vec![StudyId::new("stress-study")],
        }),
    ];
    (
        consumer,
        arb_subset(&CHANNELS.map(ChannelId::new), 2),
        (
            arb_subset(&ContextKind::ALL, 2),
            arb_subset(&ContextKind::ALL, 2),
        ),
        arb_subset(&LABELS.map(String::from), 2),
        prop::option::of(arb_repeat()),
        prop::option::of(arb_range()),
    )
        .prop_map(
            |(
                consumer,
                raw_channels,
                (label_contexts, active_contexts),
                location_labels,
                repeat,
                range,
            )| {
                SearchQuery {
                    consumer,
                    raw_channels,
                    label_contexts,
                    location_labels,
                    repeat,
                    range,
                    active_contexts,
                }
            },
        )
}

/// One step on the mirror.
#[derive(Debug, Clone)]
enum Step {
    /// Sync contributor `who` with list `list` of the pool, at its
    /// mirrored epoch plus `bump` — 0 is a stale push, and a fresh
    /// contributor, a same-list re-sync and a list change all occur.
    Sync {
        who: usize,
        list: usize,
        bump: u64,
    },
    /// Re-sync contributor `who`, if mirrored, with the list they already
    /// mirror, at their epoch plus `bump`: a store's periodic re-sync.
    Resync {
        who: usize,
        bump: u64,
    },
    Remove {
        who: usize,
    },
}

impl Step {
    fn who(&self) -> ContributorId {
        let (Step::Sync { who, .. } | Step::Resync { who, .. } | Step::Remove { who }) = self;
        ContributorId::new(NAMES[*who])
    }
}

/// [`RuleIndex::search_into`] written into an empty buffer: the reply's
/// array items and the rule lists evaluated.
fn joined(index: &RuleIndex, query: &SearchQuery) -> (String, usize) {
    let mut out = Vec::new();
    let evaluated = index.search_into(query, &mut out);
    (String::from_utf8(out).unwrap(), evaluated)
}

/// The queries the memo holds, oldest first.
fn memoized(index: &RuleIndex) -> Vec<SearchQuery> {
    index
        .memo()
        .iter()
        .map(|(query, _)| query.clone())
        .collect()
}

/// How many replies the memo holds (queries asked at least twice).
fn replies(index: &RuleIndex) -> usize {
    index
        .memo()
        .iter()
        .filter(|(_, items)| items.is_some())
        .count()
}

/// The slot of `id`'s list, if mirrored.
fn slot_of(index: &RuleIndex, id: &ContributorId) -> Option<u32> {
    index.entries.get(id).map(|entry| entry.slot)
}

/// A step cleared the memo exactly when it moved a contributor's slot.
fn check_memo_kept(
    index: &RuleIndex,
    before: Vec<SearchQuery>,
    slot_before: Option<u32>,
    id: &ContributorId,
) {
    if slot_of(index, id) == slot_before {
        assert_eq!(
            memoized(index),
            before,
            "a step that moved no slot kept the memo"
        );
    } else {
        assert!(
            memoized(index).is_empty(),
            "a step that moved a slot cleared the memo"
        );
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..10, 0usize..64, 0u64..3).prop_map(|(who, list, bump)| Step::Sync {
            who,
            list,
            bump
        }),
        (0usize..10, 0usize..64, 1u64..3).prop_map(|(who, list, bump)| Step::Sync {
            who,
            list,
            bump
        }),
        (0usize..10, 0u64..3).prop_map(|(who, bump)| Step::Resync { who, bump }),
        (0usize..10).prop_map(|who| Step::Remove { who }),
    ]
}

proptest! {
    /// `search` == the per-contributor reference walk, in order, after
    /// every step, and the slab's books balance. With `shared` the
    /// population draws its lists from a small pool with repetition;
    /// without, one consumer-scoped rule per sync makes every list unique.
    #[test]
    fn interned_search_equals_the_per_contributor_walk(
        pool in prop::collection::vec(arb_rules(), 1..5),
        steps in prop::collection::vec((arb_step(), any::<bool>()), 1..40),
        queries in prop::collection::vec(arb_query(), 1..4),
        shared in any::<bool>(),
    ) {
        // `index` is searched after every step, so its scan column is
        // there for every re-sync to patch; `seldom` only where `probe`
        // says, so its column is rebuilt after runs of changes.
        let mut index = RuleIndex::new();
        let mut seldom = RuleIndex::new();
        let mut model = Model::new();
        for (n, (step, probe)) in steps.iter().enumerate() {
            let id = step.who();
            let before = [&index, &seldom].map(|index| (memoized(index), slot_of(index, &id)));
            match step {
                Step::Sync { list, bump, .. } => {
                    let mut rules = pool[list % pool.len()].clone();
                    if !shared {
                        rules.push(PrivacyRule {
                            conditions: Conditions {
                                consumers: vec![ConsumerSelector::User(ConsumerId::new(
                                    format!("only-{n}"),
                                ))],
                                ..Default::default()
                            },
                            action: Action::Allow,
                        });
                    }
                    let mirrored = model.get(&id).map_or(0, |(epoch, _)| *epoch);
                    let epoch = mirrored + bump;
                    let accepted = index.sync(id.clone(), epoch, rules.clone());
                    prop_assert_eq!(accepted, epoch > mirrored || !model.contains_key(&id));
                    prop_assert_eq!(seldom.sync(id.clone(), epoch, rules.clone()), accepted);
                    if accepted {
                        model.insert(id.clone(), (epoch, rules));
                    }
                }
                Step::Resync { bump, .. } => {
                    if let Some((mirrored, rules)) = model.get_mut(&id) {
                        let epoch = *mirrored + bump;
                        let accepted = index.sync(id.clone(), epoch, rules.clone());
                        prop_assert_eq!(accepted, *bump > 0);
                        prop_assert_eq!(seldom.sync(id.clone(), epoch, rules.clone()), accepted);
                        *mirrored = epoch;
                    }
                }
                Step::Remove { .. } => {
                    let held = model.remove(&id).is_some();
                    prop_assert_eq!(index.remove(&id), held);
                    prop_assert_eq!(seldom.remove(&id), held);
                }
            }
            let [(index_memo, index_slot), (seldom_memo, seldom_slot)] = before;
            check_memo_kept(&index, index_memo, index_slot, &id);
            check_memo_kept(&seldom, seldom_memo, seldom_slot, &id);
            check_invariants(&index, &model);
            if !shared {
                prop_assert_eq!(index.distinct_rule_sets(), index.len());
            }
            check_searches(&index, &model, &queries);
            if *probe {
                check_invariants(&seldom, &model);
                check_searches(&seldom, &model, &queries);
            }
        }
        // Only a change of membership ever cost `index` a build.
        prop_assert!(index.scan_builds() <= steps.len() as u64);
        prop_assert!(seldom.scan_builds() <= index.scan_builds());
    }
}

fn allow_for(consumer: &str) -> Vec<PrivacyRule> {
    vec![PrivacyRule {
        conditions: Conditions {
            consumers: vec![ConsumerSelector::User(ConsumerId::new(consumer))],
            ..Default::default()
        },
        action: Action::Allow,
    }]
}

fn ecg_query(consumer: &str) -> SearchQuery {
    SearchQuery {
        consumer: ConsumerCtx::user(consumer),
        raw_channels: vec![ChannelId::new("ecg")],
        ..Default::default()
    }
}

/// The work a search does, as a count: however many contributors mirror
/// them, four lists are four evaluations.
#[test]
fn a_search_evaluates_each_distinct_list_once() {
    let lists = [
        vec![PrivacyRule::allow_all()],
        allow_for("bob"),
        allow_for("eve"),
        vec![],
    ];
    let mut index = RuleIndex::new();
    for i in 0..1_000 {
        index.sync(
            ContributorId::new(format!("c{i:04}")),
            1,
            lists[i % 4].clone(),
        );
    }
    assert_eq!(index.distinct_rule_sets(), 4);
    let mut hits = 0;
    assert_eq!(
        index.search_each(&ecg_query("bob"), |run| hits += run.hits().len()),
        4
    );
    assert_eq!(hits, 500);
    // Re-syncing everyone to one list leaves one list to evaluate, and
    // a mirror nobody is in evaluates nothing.
    for i in 0..1_000 {
        index.sync(ContributorId::new(format!("c{i:04}")), 2, allow_for("eve"));
    }
    assert_eq!(index.distinct_rule_sets(), 1);
    assert_eq!(
        index.search_each(&ecg_query("bob"), |run| hits += run.hits().len()),
        1
    );
    assert_eq!(hits, 500);
    assert_eq!(RuleIndex::new().search_each(&ecg_query("bob"), |_| ()), 0);
}

/// What costs a scan-column build, as a count: membership changes that a
/// search follows, and nothing else.
#[test]
fn the_scan_column_is_built_once_per_membership_change() {
    let names = |index: &RuleIndex, consumer: &str| -> Vec<String> {
        let mut names = Vec::new();
        index.search_each(&ecg_query(consumer), |run| {
            names.extend(run.hits().map(|hit| hit.name().into_owned()))
        });
        names
    };
    let mut index = RuleIndex::new();
    for name in ["alice", "b\"ob", "carol"] {
        index.sync(ContributorId::new(name), 1, allow_for("bob"));
    }
    assert_eq!(index.scan_builds(), 0, "no search yet, nothing derived");
    for _ in 0..5 {
        assert_eq!(names(&index, "bob"), ["alice", "b\"ob", "carol"]);
    }
    assert_eq!(index.scan_builds(), 1);
    // A store's periodic re-sync: same list, newer epoch.
    assert!(index.sync(ContributorId::new("b\"ob"), 2, allow_for("bob")));
    assert_eq!(names(&index, "bob"), ["alice", "b\"ob", "carol"]);
    // A rule edit moves the contributor to another list: patched in
    // place, and the very next search sees it.
    assert!(index.sync(ContributorId::new("b\"ob"), 3, allow_for("eve")));
    assert_eq!(names(&index, "bob"), ["alice", "carol"]);
    assert_eq!(names(&index, "eve"), ["b\"ob"]);
    // A stale push and the removal of a stranger change nothing.
    assert!(!index.sync(ContributorId::new("alice"), 1, allow_for("eve")));
    assert!(!index.remove(&ContributorId::new("nobody")));
    assert_eq!(names(&index, "bob"), ["alice", "carol"]);
    assert_eq!(index.scan_builds(), 1);
    // A burst of registrations is one rebuild, at the next search.
    for name in ["dave", "erin", "frank"] {
        index.sync(ContributorId::new(name), 1, allow_for("bob"));
    }
    assert_eq!(index.scan_builds(), 1);
    assert_eq!(
        names(&index, "bob"),
        ["alice", "carol", "dave", "erin", "frank"]
    );
    assert_eq!(names(&index, "eve"), ["b\"ob"]);
    assert_eq!(index.scan_builds(), 2);
    // So is a removal.
    assert!(index.remove(&ContributorId::new("carol")));
    assert_eq!(names(&index, "bob"), ["alice", "dave", "erin", "frank"]);
    assert_eq!(index.scan_builds(), 3);
    // A clone derives its own column, and only if it is searched; the
    // original keeps the one it has.
    let clone = index.clone();
    assert_eq!(clone.scan_builds(), 0);
    index.sync(ContributorId::new("alice"), 2, allow_for("eve"));
    assert_eq!(names(&clone, "bob"), ["alice", "dave", "erin", "frank"]);
    assert_eq!(names(&clone, "bob"), ["alice", "dave", "erin", "frank"]);
    assert_eq!(clone.scan_builds(), 1);
    assert_eq!(names(&index, "bob"), ["dave", "erin", "frank"]);
    assert_eq!(index.scan_builds(), 3);
}

/// What the memo holds and what it costs, as counts: a query's first
/// asking leaves only the query, its second keeps the reply, later ones
/// evaluate nothing until a step moves a slot; the memo remembers
/// `SEARCH_MEMO_ENTRIES` queries and forgets the oldest, and a clone
/// starts with none.
#[test]
fn the_memo_answers_a_query_again_until_a_slot_moves() {
    let mut index = RuleIndex::new();
    for name in ["alice", "b\"ob", "carol"] {
        index.sync(ContributorId::new(name), 1, allow_for("bob"));
    }
    index.sync(ContributorId::new("dave"), 1, allow_for("eve"));
    let bob = ecg_query("bob");
    let bob_hits = String::from(r#""alice","b\"ob","carol""#);
    assert_eq!(joined(&index, &bob), (bob_hits.clone(), 2));
    assert_eq!(replies(&index), 0, "asked once: no copy kept");
    assert_eq!(joined(&index, &bob), (bob_hits.clone(), 2));
    assert_eq!(replies(&index), 1);
    assert_eq!(joined(&index, &bob), (bob_hits, 0));
    // The consumer is part of the key.
    let eve = ecg_query("eve");
    assert_eq!(joined(&index, &eve), (String::from(r#""dave""#), 2));
    assert_eq!(joined(&index, &eve), (String::from(r#""dave""#), 2));
    // A periodic re-sync and a stale push keep both replies.
    assert!(index.sync(ContributorId::new("carol"), 2, allow_for("bob")));
    assert!(!index.sync(ContributorId::new("carol"), 2, allow_for("eve")));
    assert_eq!(replies(&index), 2);
    assert_eq!(joined(&index, &bob).1, 0);
    // A rule edit clears it; the next askings walk and see the edit.
    assert!(index.sync(ContributorId::new("carol"), 3, allow_for("eve")));
    assert!(memoized(&index).is_empty());
    for evaluated in [2, 2, 0] {
        assert_eq!(
            joined(&index, &bob),
            (String::from(r#""alice","b\"ob""#), evaluated)
        );
    }
    // Nobody matching is an empty reply, memoized like any other.
    let nobody = ecg_query("mallory");
    for evaluated in [2, 2, 0] {
        assert_eq!(joined(&index, &nobody), (String::new(), evaluated));
    }
    // A clone memoizes its own replies.
    assert!(memoized(&index.clone()).is_empty());
    // One query more than the memo remembers forgets the first one asked.
    let queries: Vec<SearchQuery> = (0..=SEARCH_MEMO_ENTRIES)
        .map(|i| ecg_query(&format!("consumer-{i}")))
        .collect();
    assert!(index.remove(&ContributorId::new("dave")));
    assert!(memoized(&index).is_empty());
    for query in &queries {
        assert_eq!(joined(&index, query).1, 2);
    }
    assert_eq!(memoized(&index), queries[1..]);
    assert_eq!(replies(&index), 0);
    let last = &queries[SEARCH_MEMO_ENTRIES];
    assert_eq!(joined(&index, last).1, 2);
    assert_eq!(joined(&index, last).1, 0);
    assert_eq!(joined(&index, &queries[0]).1, 2);
}

/// A freed slot is handed to the next new list, and the verdict its old
/// tenant earned does not come with it.
#[test]
fn a_reused_slot_carries_no_verdict_over() {
    let mut index = RuleIndex::new();
    let (alice, carol) = (ContributorId::new("alice"), ContributorId::new("carol"));
    index.sync(alice.clone(), 1, allow_for("bob"));
    assert_eq!(index.search(&ecg_query("bob")), vec![alice.clone()]);
    assert!(index.remove(&alice));
    assert_eq!((index.distinct_rule_sets(), index.free.len()), (0, 1));
    index.sync(carol.clone(), 1, allow_for("eve"));
    assert_eq!(
        (index.lists.len(), index.free.len()),
        (1, 0),
        "the slot was reused"
    );
    assert!(index.search(&ecg_query("bob")).is_empty());
    assert_eq!(index.search(&ecg_query("eve")), vec![carol.clone()]);
    // The same through a list change: carol's old list loses its last
    // member in the sync that interns her new one.
    index.sync(carol.clone(), 2, allow_for("bob"));
    assert_eq!(index.distinct_rule_sets(), 1);
    assert_eq!(index.search(&ecg_query("bob")), vec![carol]);
    assert!(index.search(&ecg_query("eve")).is_empty());
}

/// Lists that differ only where the bucket hash does not look — or that
/// collide outright — are still told apart: equality decides.
#[test]
fn equality_not_the_bucket_decides_identity() {
    let at = |south: f64| {
        vec![PrivacyRule {
            conditions: Conditions {
                location: Some(LocationCondition {
                    labels: vec![],
                    regions: vec![Region::new(south, 10.0, 0.0, 1.0)],
                }),
                ..Default::default()
            },
            action: Action::Allow,
        }]
    };
    // `0.0 == -0.0`, so these are one list and must share a bucket.
    assert_eq!(at(0.0), at(-0.0));
    assert_eq!(bucket_of(&at(0.0)), bucket_of(&at(-0.0)));
    // A collision, forced: a different list filed under that bucket.
    let mut index = RuleIndex::new();
    let bucket = bucket_of(&at(0.0));
    index.lists.push(RuleList {
        rules: allow_for("bob"),
        members: 1,
    });
    index.by_bucket.insert((bucket, 0));
    let dave = ContributorId::new("dave");
    index
        .entries
        .insert(dave.clone(), Entry { epoch: 1, slot: 0 });
    index.sync(ContributorId::new("a"), 1, at(0.0));
    index.sync(ContributorId::new("b"), 1, at(-0.0));
    index.sync(ContributorId::new("c"), 1, at(0.5));
    assert_eq!(index.distinct_rule_sets(), 3);
    assert_eq!(index.rules_of(&ContributorId::new("a")).unwrap().1, at(0.0));
    assert_eq!(index.rules_of(&ContributorId::new("b")).unwrap().1, at(0.0));
    assert_eq!(index.rules_of(&dave).unwrap().1, allow_for("bob"));
}
