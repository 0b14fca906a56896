//! Broker-side rule mirror and contributor search (§5.2).
//!
//! "The broker locally stores all privacy rules of every user on remote
//! data stores to search through them. Whenever data contributors change
//! their privacy rules, remote data stores automatically communicate with
//! the broker to synchronize the privacy rules."
//!
//! [`RuleIndex`] is that mirror: per-contributor rule lists with a
//! monotonically increasing *epoch* (stale sync messages are rejected),
//! plus [`RuleIndex::search`] implementing the paper's example query —
//! "finding data contributors who share ECG and respiration sensor data
//! at the location labeled 'work' from 9am to 6pm on weekdays".
//!
//! # What a search evaluates
//!
//! A rule list is evaluated against *representative probe windows* drawn
//! from the query (one per requested weekday, at the midpoint of the
//! daily window, with the required contexts active). It matches when
//! every probe window yields a decision that shares every required
//! channel raw and meets every required context level. The probe windows
//! are the query's **plan**: built once per search, not once per
//! contributor.
//!
//! # What a search costs
//!
//! Whether a contributor matches depends only on the query and on their
//! rule list, and contributors whose lists come from the same template (a
//! study's participants, an organisation's default) mirror *identical*
//! lists. So the mirror **interns** lists: a contributor's entry is an
//! epoch and a slot in a slab of distinct lists, each with a member
//! count, and a search evaluates every distinct list once per query —
//! through the same reference [`evaluate`] enforcement is tested
//! against — into a per-slot verdict table, then makes one name-ordered
//! walk that reads it. A search therefore costs `distinct lists × probes`
//! evaluations plus one table lookup per contributor; when no two
//! contributors share a list the table saves nothing and the cost is the
//! per-list evaluation the plan already made cheaper. List identity is
//! `==` on the parsed rules; a hash only picks where to look.
//!
//! What the walk reads is not the map of entries but a **scan column**
//! derived from it: one 8-byte row `(slot, end)` per contributor, in name
//! order, over a single text that holds every name already rendered as
//! its JSON string literal and followed by its `,` separator. Per
//! contributor a search reads one row and one verdict. What it hands
//! the visitor is a **run**, not a hit: rows `a..b` that all match are one
//! slice of that text, so [`Run::json`] is a whole stretch of a reply's
//! array, copied with one `extend_from_slice` however many hits it holds.
//! The escape scan ran once, when the column was built, not once per hit
//! per search. A search whose hits are isolated copies once per hit, as
//! before; one that everybody matches copies once. [`Run::hits`] gives
//! the run's [`Hit`]s one by one, for work that needs names. The map
//! stays the point-lookup structure (`sync`, `rules_of`, `epochs`);
//! nothing iterates it to answer a search.
//!
//! A query asked again need not be walked again: [`RuleIndex::search_into`]
//! answers from a **search memo**. It remembers the last
//! `SEARCH_MEMO_ENTRIES` (16) distinct [`SearchQuery`]s asked (the
//! consumer's context included), forgetting the oldest first, and keeps
//! a query's reply — the exact-size text of its array, every run's
//! `json()` comma-joined — once the query has been asked a second time.
//! A query asked only once costs its walk and a remembered key, and no
//! copy of the reply, so searches that never repeat pay a lookup among
//! at most 16 keys and nothing more. A kept reply is never longer than
//! the column's text, so the memo holds at most 16 copies of it.
//! Searches fill it through an interior `Mutex` under `&self`, so under
//! the caller's read lock: a reply walked before a sync cannot be stored
//! after it, because the sync needs `&mut self`. A memo hit evaluates no
//! list and reads no row; its cost is a comparison per remembered query
//! and one copy of the reply.
//!
//! The column and the memo are kept true by three rules:
//!
//! * a sync of a contributor the mirror did not hold, and a `remove`,
//!   **drop** the column and **clear** the memo; the next search rebuilds
//!   the column, once, under `&self` (`OnceLock`: any number of searches
//!   may hold the caller's read lock);
//! * a re-sync that moves a held contributor to another list slot
//!   **patches** their row in place (binary search by name, one store)
//!   and **clears** the memo: a verdict may have changed;
//! * a re-sync whose list interns to the slot already held — a store's
//!   periodic re-sync — leaves both **untouched**: no verdict changed.
//!
//! A clone starts without a column and with an empty memo. So a burst of
//! k registrations costs one O(n) rebuild at the next search (about one
//! walk of the map, as every search used to pay), a rule edit costs
//! O(log n) and the next two walks of each query, a same-list re-sync
//! nothing.
//! The worst case is registrations and searches strictly alternating:
//! every search rebuilds, about twice what a search cost before the
//! column existed. [`RuleIndex::scan_builds`] counts the rebuilds so that
//! churn is visible. The column costs one row and one literal with its
//! separator (name + 3 bytes + escapes) per contributor and is dropped,
//! never grown, by membership changes.

use crate::abstraction::{ActivityAbs, BinaryAbs};
use crate::deps::DependencyGraph;
use crate::eval::{evaluate, ConsumerCtx, Decision, WindowCtx};
use crate::rule::{Action, PrivacyRule};
use sensorsafe_types::{
    ChannelId, ContextKind, ContextState, ContributorId, RepeatTime, TimeRange, Timestamp, Weekday,
};
use std::borrow::Cow;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// How many distinct queries the search memo remembers, and so at most
/// how many replies it holds (module docs, "What a search costs"). The
/// number is not drawn from traffic, which no deployment records yet: it
/// caps the memo at 16 copies of the scan column's text, and the broker's
/// `sensorsafe_broker_search_lists_evaluated{le="0"}` bucket shows the
/// share of searches it answers.
pub(crate) const SEARCH_MEMO_ENTRIES: usize = 16;

/// A query the search memo has seen since it was last cleared, with its
/// reply's array items once the query has been asked a second time.
type MemoEntry = (SearchQuery, Option<Arc<[u8]>>);

/// A contributor-search query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchQuery {
    /// The searching consumer (rules are consumer-specific).
    pub consumer: ConsumerCtx,
    /// Channels that must be shared **raw**.
    pub raw_channels: Vec<ChannelId>,
    /// Contexts for which at least label-level information must be
    /// shared (e.g. a stress study needs Stress at `Label` or better).
    pub label_contexts: Vec<ContextKind>,
    /// Location labels the data must cover (probe windows carry them).
    pub location_labels: Vec<String>,
    /// Daily window the data must cover.
    pub repeat: Option<RepeatTime>,
    /// Continuous range the data must cover.
    pub range: Option<TimeRange>,
    /// Contexts assumed active in the probe windows (e.g. `Drive` for
    /// Bob's driving-stress study) — restriction rules conditioned on
    /// these will fire during search exactly as they would at query time.
    pub active_contexts: Vec<ContextKind>,
}

/// Deterministic reference week for probe instants: Monday 2011-07-04
/// 00:00 UTC (the paper's publication summer).
fn reference_week_start() -> Timestamp {
    let t = Timestamp::from_civil(2011, 7, 4);
    debug_assert_eq!(t.weekday(), Weekday::Mon);
    t
}

impl SearchQuery {
    /// The probe instants search evaluates at (documented above).
    pub fn probe_instants(&self) -> Vec<Timestamp> {
        let mut probes = Vec::new();
        match (&self.repeat, &self.range) {
            (Some(rep), _) => {
                let days = if rep.days.is_empty() {
                    Weekday::ALL.to_vec()
                } else {
                    rep.days.clone()
                };
                let mid_minutes = (rep.from.minutes() as i64 + rep.to.minutes() as i64) / 2;
                let week = reference_week_start();
                for day in days {
                    let day_idx = Weekday::ALL.iter().position(|d| *d == day).unwrap() as i64;
                    probes.push(week.plus_millis(day_idx * 86_400_000 + mid_minutes * 60_000));
                }
            }
            (None, Some(range)) => {
                // Probe the midpoint and both ends (just inside).
                let mid = Timestamp::from_millis((range.start.millis() + range.end.millis()) / 2);
                probes.push(range.start);
                probes.push(mid);
                probes.push(Timestamp::from_millis(range.end.millis() - 1));
            }
            (None, None) => probes.push(reference_week_start().plus_millis(12 * 3_600_000)),
        }
        // Range additionally constrains repeat-derived probes: shift the
        // reference week into the range when possible.
        if let (Some(_), Some(range)) = (&self.repeat, &self.range) {
            let week_ms = 7 * 86_400_000i64;
            let shift =
                ((range.start.millis() - reference_week_start().millis()).div_euclid(week_ms) + 1)
                    * week_ms;
            for p in &mut probes {
                let moved = p.plus_millis(shift);
                if range.contains(moved) {
                    *p = moved;
                }
            }
        }
        probes
    }

    /// Everything about the query that does not depend on the rule list
    /// under evaluation, built once per search.
    fn plan(&self) -> SearchPlan<'_> {
        let contexts: Vec<ContextState> = self
            .active_contexts
            .iter()
            .map(|k| ContextState::on(*k))
            .collect();
        SearchPlan {
            query: self,
            windows: self
                .probe_instants()
                .into_iter()
                .map(|time| WindowCtx {
                    time,
                    location: None,
                    location_labels: self.location_labels.clone(),
                    contexts: contexts.clone(),
                })
                .collect(),
        }
    }

    fn context_level_ok(&self, decision: &Decision) -> bool {
        self.label_contexts.iter().all(|k| match k {
            ContextKind::Stress => decision.stress != BinaryAbs::NotShared,
            ContextKind::Smoking => decision.smoking != BinaryAbs::NotShared,
            ContextKind::Conversation => decision.conversation != BinaryAbs::NotShared,
            ContextKind::Moving => decision.activity != ActivityAbs::NotShared,
            mode if mode.is_transport_mode() => {
                decision.activity == ActivityAbs::Raw
                    || decision.activity == ActivityAbs::TransportMode
            }
            _ => true,
        })
    }

    /// Whether one rule list satisfies the query.
    pub fn matches(&self, rules: &[PrivacyRule], graph: &DependencyGraph) -> bool {
        self.plan().matches(rules, graph)
    }
}

/// A query's probe windows (see [`SearchQuery::plan`]).
struct SearchPlan<'q> {
    query: &'q SearchQuery,
    windows: Vec<WindowCtx>,
}

impl SearchPlan<'_> {
    fn matches(&self, rules: &[PrivacyRule], graph: &DependencyGraph) -> bool {
        let query = self.query;
        // Only the required raw channels are decided: the sources of
        // required contexts may be suppressed (labels survive).
        self.windows.iter().all(|window| {
            let decision = evaluate(rules, &query.consumer, window, &query.raw_channels, graph);
            let raw_ok = query
                .raw_channels
                .iter()
                .all(|c| decision.allowed.contains(c) && !decision.suppressed.contains(c));
            raw_ok && query.context_level_ok(&decision)
        })
    }
}

/// One mirrored contributor: the epoch of their last accepted sync and
/// the slot of their rule list in [`RuleIndex::lists`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    epoch: u64,
    slot: u32,
}

/// One distinct rule list and the number of contributors mirroring it.
/// `members == 0` marks a free slot (its rules are dropped).
#[derive(Debug, Clone)]
struct RuleList {
    rules: Vec<PrivacyRule>,
    members: usize,
}

/// Where to look for a list equal to `rules`. Equal lists hash equally
/// (every hashed field is one `PartialEq` compares, and `-0.0 == 0.0` is
/// folded); unequal lists may collide, which [`RuleIndex::intern`]
/// settles by comparing the rules themselves.
fn bucket_of(rules: &[PrivacyRule]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rules.len().hash(&mut h);
    for rule in rules {
        let c = &rule.conditions;
        c.consumers.hash(&mut h);
        c.sensors.hash(&mut h);
        c.contexts.hash(&mut h);
        if let Some(location) = &c.location {
            location.labels.hash(&mut h);
            location.regions.len().hash(&mut h);
            for r in &location.regions {
                for edge in [r.south, r.north, r.west, r.east] {
                    (edge + 0.0).to_bits().hash(&mut h);
                }
            }
        }
        if let Some(time) = &c.time {
            time.ranges.hash(&mut h);
            time.repeats.len().hash(&mut h);
            for repeat in &time.repeats {
                repeat.days.hash(&mut h);
                repeat.from.hash(&mut h);
                repeat.to.hash(&mut h);
            }
        }
        match &rule.action {
            Action::Allow => 0u8.hash(&mut h),
            Action::Deny => 1u8.hash(&mut h),
            Action::Abstraction(spec) => {
                2u8.hash(&mut h);
                spec.location.hash(&mut h);
                spec.time.hash(&mut h);
                spec.activity.hash(&mut h);
                spec.stress.hash(&mut h);
                spec.smoking.hash(&mut h);
                spec.conversation.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// One contributor in the [`ScanColumn`]: the slot of their rule list and
/// where their literal and its separator end in the column's text (they
/// start where the previous row's end).
#[derive(Debug, Clone, Copy)]
struct Row {
    slot: u32,
    end: u32,
}

/// The mirror as a search reads it (module docs, "What a search costs"):
/// every mirrored contributor, in name order.
#[derive(Debug)]
struct ScanColumn {
    rows: Vec<Row>,
    /// Every name as `sensorsafe_json::write_str` renders it, each
    /// followed by a `,`, end to end: rows `a..b` are one slice of it.
    text: String,
}

impl ScanColumn {
    fn build(entries: &BTreeMap<ContributorId, Entry>) -> ScanColumn {
        let mut rows = Vec::with_capacity(entries.len());
        // Sized for names that need no escape — nearly all — so the text
        // is allocated once instead of leaving a trail of outgrown halves.
        let unescaped = entries.keys().map(|name| name.as_str().len() + 3).sum();
        let mut text = Vec::with_capacity(unescaped);
        for (name, entry) in entries {
            sensorsafe_json::write_str(&mut text, name.as_str());
            text.push(b',');
            rows.push(Row {
                slot: entry.slot,
                end: u32::try_from(text.len()).expect("fewer than 4 GiB of mirrored names"),
            });
        }
        ScanColumn {
            rows,
            text: String::from_utf8(text).expect("write_str of a str is UTF-8"),
        }
    }

    /// Where row `at` starts in the text.
    #[inline]
    fn start_of(&self, at: usize) -> usize {
        at.checked_sub(1)
            .map_or(0, |prev| self.rows[prev].end as usize)
    }

    /// Row `at` as the hit it would be: its literal, without the separator.
    fn hit(&self, at: usize) -> Hit<'_> {
        Hit {
            literal: &self.text[self.start_of(at)..self.rows[at].end as usize - 1],
        }
    }

    /// Moves `name`, which the column holds, to rule list `slot`.
    fn set_slot(&mut self, name: &str, slot: u32) {
        let (mut below, mut above) = (0, self.rows.len());
        while below < above {
            let at = below + (above - below) / 2;
            match self.hit(at).name().as_ref().cmp(name) {
                std::cmp::Ordering::Less => below = at + 1,
                std::cmp::Ordering::Greater => above = at,
                std::cmp::Ordering::Equal => {
                    self.rows[at].slot = slot;
                    return;
                }
            }
        }
        unreachable!("the scan column holds every mirrored name");
    }
}

/// Consecutive contributors, in name order, that a search matched: rows
/// the scan column holds back to back, so their literals are one slice.
#[derive(Clone)]
pub struct Run<'a> {
    scan: &'a ScanColumn,
    rows: Range<usize>,
}

/// The rows and the names, not the whole column they are a slice of.
impl std::fmt::Debug for Run<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("rows", &self.rows)
            .field("json", &self.json())
            .finish()
    }
}

impl<'a> Run<'a> {
    /// The run's names as the items of a JSON array, comma-separated,
    /// with no comma before the first or after the last: the bytes of
    /// [`Hit::json`] over [`Run::hits`] joined by `,`.
    // Inlined, like `hits` and `start_of`: the broker calls it once per
    // run from another crate, and a call per run costs what a copy does
    // when runs are short.
    #[inline]
    pub fn json(&self) -> &'a str {
        let end = self.scan.rows[self.rows.end - 1].end as usize;
        &self.scan.text[self.scan.start_of(self.rows.start)..end - 1]
    }

    /// The run's contributors one by one, in name order.
    #[inline]
    pub fn hits(&self) -> impl ExactSizeIterator<Item = Hit<'a>> + 'a {
        let text = self.scan.text.as_str();
        // Each literal starts where the one before it, and its separator,
        // ended.
        let mut start = self.scan.start_of(self.rows.start);
        self.scan.rows[self.rows.clone()].iter().map(move |row| {
            let end = row.end as usize;
            let literal = &text[start..end - 1];
            start = end;
            Hit { literal }
        })
    }
}

/// One contributor a search matched, as the scan column holds them.
#[derive(Debug, Clone, Copy)]
pub struct Hit<'a> {
    literal: &'a str,
}

impl<'a> Hit<'a> {
    /// The contributor's name as a JSON string literal, quotes included:
    /// the bytes `sensorsafe_json::write_str` gives for [`Hit::name`].
    pub fn json(&self) -> &'a str {
        self.literal
    }

    /// The contributor's name. Borrowed from inside the literal's quotes
    /// unless rendering had to escape something in it (`"`, `\` or a
    /// control byte).
    pub fn name(&self) -> Cow<'a, str> {
        let quoted = self.literal;
        if !quoted.contains('\\') {
            return Cow::Borrowed(&quoted[1..quoted.len() - 1]);
        }
        match sensorsafe_json::parse(quoted) {
            Ok(sensorsafe_json::Value::String(name)) => Cow::Owned(name),
            other => unreachable!("{quoted} is a string literal, parsed as {other:?}"),
        }
    }
}

/// The broker's mirror of every contributor's privacy rules, with rule
/// lists interned (module docs, "What a search costs").
#[derive(Debug, Default)]
pub struct RuleIndex {
    entries: BTreeMap<ContributorId, Entry>,
    /// Slab of distinct lists; `Entry::slot` indexes it.
    lists: Vec<RuleList>,
    /// Free slots of `lists`, reused before the slab grows.
    free: Vec<u32>,
    /// `(bucket_of(list), slot)` of every live list.
    by_bucket: BTreeSet<(u64, u32)>,
    graph: Arc<DependencyGraph>,
    /// Derived from `entries` by the first search that finds it unset;
    /// `sync` and `remove` keep it true or drop it.
    scan: OnceLock<ScanColumn>,
    scan_builds: AtomicU64,
    /// The queries searched, oldest first, at most
    /// [`SEARCH_MEMO_ENTRIES`], each with its reply's array text once asked
    /// twice; filled by searches under `&self`, cleared by `sync` and
    /// `remove` under `&mut self`.
    memo: Mutex<VecDeque<MemoEntry>>,
}

/// A copy mirrors what the original does, derives its own scan column if
/// it is ever searched, and memoizes its own replies.
impl Clone for RuleIndex {
    fn clone(&self) -> RuleIndex {
        RuleIndex {
            entries: self.entries.clone(),
            lists: self.lists.clone(),
            free: self.free.clone(),
            by_bucket: self.by_bucket.clone(),
            graph: self.graph.clone(),
            scan: OnceLock::new(),
            scan_builds: AtomicU64::new(0),
            memo: Mutex::default(),
        }
    }
}

impl RuleIndex {
    /// An empty index using the paper's dependency graph.
    pub fn new() -> RuleIndex {
        RuleIndex {
            graph: Arc::new(DependencyGraph::paper()),
            ..RuleIndex::default()
        }
    }

    /// The slot of the list equal to `rules`, with one more member;
    /// allocated if no contributor mirrors such a list yet.
    fn intern(&mut self, rules: Vec<PrivacyRule>) -> u32 {
        let bucket = bucket_of(&rules);
        let same_bucket = self.by_bucket.range((bucket, 0)..=(bucket, u32::MAX));
        for &(_, slot) in same_bucket {
            let list = &mut self.lists[slot as usize];
            if list.rules == rules {
                list.members += 1;
                return slot;
            }
        }
        let list = RuleList { rules, members: 1 };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.lists[slot as usize] = list;
                slot
            }
            None => {
                let slot = u32::try_from(self.lists.len()).expect("fewer than 2^32 rule lists");
                self.lists.push(list);
                slot
            }
        };
        self.by_bucket.insert((bucket, slot));
        slot
    }

    /// Drops one member of `slot`, freeing the list with its last one.
    fn release(&mut self, slot: u32) {
        let list = &mut self.lists[slot as usize];
        list.members -= 1;
        if list.members == 0 {
            let rules = std::mem::take(&mut list.rules);
            self.by_bucket.remove(&(bucket_of(&rules), slot));
            self.free.push(slot);
        }
    }

    /// Applies a rule-sync message from a data store. Returns `false`
    /// (and ignores the message) when `epoch` is not newer than the
    /// mirrored one — out-of-order syncs cannot roll rules back.
    pub fn sync(
        &mut self,
        contributor: ContributorId,
        epoch: u64,
        rules: Vec<PrivacyRule>,
    ) -> bool {
        if matches!(self.entries.get(&contributor), Some(current) if current.epoch >= epoch) {
            return false;
        }
        // Intern before releasing, so re-syncing an unchanged list never
        // frees and re-allocates it.
        let slot = self.intern(rules);
        let new = Entry { epoch, slot };
        match self.entries.entry(contributor) {
            MapEntry::Vacant(unheld) => {
                unheld.insert(new);
                self.scan.take();
                self.clear_memo();
            }
            MapEntry::Occupied(mut held) => {
                let old = std::mem::replace(held.get_mut(), new);
                if old.slot != slot {
                    if let Some(scan) = self.scan.get_mut() {
                        scan.set_slot(held.key().as_str(), slot);
                    }
                    self.clear_memo();
                }
                self.release(old.slot);
            }
        }
        true
    }

    /// Forgets every memoized reply (module docs: the three rules).
    fn clear_memo(&mut self) {
        self.memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// The memo, which a search that panicked while holding it left
    /// whole: every change to it is one `VecDeque` call.
    fn memo(&self) -> MutexGuard<'_, VecDeque<MemoEntry>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes a contributor (account deletion).
    pub fn remove(&mut self, contributor: &ContributorId) -> bool {
        match self.entries.remove(contributor) {
            Some(entry) => {
                self.release(entry.slot);
                self.scan.take();
                self.clear_memo();
                true
            }
            None => false,
        }
    }

    /// The mirrored rules of one contributor.
    pub fn rules_of(&self, contributor: &ContributorId) -> Option<(u64, &[PrivacyRule])> {
        self.entries
            .get(contributor)
            .map(|e| (e.epoch, self.lists[e.slot as usize].rules.as_slice()))
    }

    /// Mirrored `(contributor, epoch)` pairs, in name order.
    pub fn epochs(&self) -> impl Iterator<Item = (&ContributorId, u64)> {
        self.entries.iter().map(|(c, e)| (c, e.epoch))
    }

    /// Number of mirrored contributors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no contributor is mirrored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct rule lists mirrored — the most a search
    /// evaluates; `len()` when no two contributors share a list.
    pub fn distinct_rule_sets(&self) -> usize {
        self.lists.len() - self.free.len()
    }

    /// A detached copy of the mirror as of this instant (O(contributors);
    /// searches need none — they walk the index itself).
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot(self.clone())
    }

    /// The scan column, built now if no search has read the mirror since
    /// its set of contributors last changed.
    fn scan(&self) -> &ScanColumn {
        self.scan.get_or_init(|| {
            self.scan_builds.fetch_add(1, Ordering::Relaxed);
            ScanColumn::build(&self.entries)
        })
    }

    /// How many times a search had to build the scan column over this
    /// index's life: once per run of membership changes (new contributors,
    /// removals) that a search followed. A rate near the search rate
    /// means the two are interleaving and every search pays a rebuild.
    pub fn scan_builds(&self) -> u64 {
        self.scan_builds.load(Ordering::Relaxed)
    }

    /// Hands every contributor whose rule list satisfies `query` to
    /// `visit`, in name order, as maximal [`Run`]s of consecutive hits
    /// (no two runs adjoin), and returns how many rule lists it had to
    /// evaluate: each distinct list once, and only lists some contributor
    /// mirrors.
    pub fn search_each(&self, query: &SearchQuery, mut visit: impl FnMut(Run<'_>)) -> usize {
        let plan = query.plan();
        let scan = self.scan();
        // Verdict per slot, local to the query, so a slot freed and reused
        // between queries is judged afresh. Every live list has a member
        // in the column, so the walk would reach each one anyway: judging
        // them first leaves the walk one table lookup per row.
        let mut evaluated = 0;
        let verdict: Vec<bool> = self
            .lists
            .iter()
            .map(|list| {
                list.members > 0 && {
                    evaluated += 1;
                    plan.matches(&list.rules, &self.graph)
                }
            })
            .collect();
        let matched = |row: &Row| verdict[row.slot as usize];
        // A run opens at the next row that matches and closes before the
        // next one that does not, and the next run is looked for after
        // that one: every row's verdict is read once.
        let rows = &scan.rows;
        let mut at = 0;
        while let Some(skip) = rows
            .get(at..)
            .and_then(|rest| rest.iter().position(matched))
        {
            let first = at + skip;
            let end = rows[first + 1..]
                .iter()
                .position(|row| !matched(row))
                .map_or(rows.len(), |len| first + 1 + len);
            visit(Run {
                scan,
                rows: first..end,
            });
            at = end + 1;
        }
        evaluated
    }

    /// Appends to `out` the items of a JSON array of every contributor
    /// whose rule list satisfies `query`, in name order: every
    /// [`Run::json`] that [`RuleIndex::search_each`] hands out, joined by
    /// `,` (nothing when nobody matches). Returns how many rule lists it
    /// evaluated: 0 when the search memo already held the reply.
    ///
    /// The first asking of a query walks and leaves only the query in the
    /// memo; the second walks and keeps an exact-size copy of what it
    /// wrote; every later one is a hit, one copy of the held reply into
    /// `out`, made after the memo's lock is released.
    pub fn search_into(&self, query: &SearchQuery, out: &mut Vec<u8>) -> usize {
        let held = self
            .memo()
            .iter()
            .find(|(held, _)| held == query)
            .and_then(|(_, items)| items.clone());
        if let Some(items) = held {
            // One allocation, with room for a caller to close the array
            // and its document without growing `out` again.
            out.reserve(items.len() + 64);
            out.extend_from_slice(&items);
            return 0;
        }
        let start = out.len();
        let evaluated = self.search_each(query, |run| {
            if out.len() > start {
                out.push(b',');
            }
            out.extend_from_slice(run.json().as_bytes());
        });
        let mut memo = self.memo();
        match memo.iter_mut().find(|(held, _)| held == query) {
            // Asked before (by this search's caller or another): keep it.
            Some((_, items)) => {
                items.get_or_insert_with(|| Arc::from(&out[start..]));
            }
            // Asked for the first time: remembered, not yet copied.
            None => {
                if memo.len() == SEARCH_MEMO_ENTRIES {
                    memo.pop_front();
                }
                memo.push_back((query.clone(), None));
            }
        }
        evaluated
    }

    /// All contributors whose rule lists satisfy `query`, in name order.
    pub fn search(&self, query: &SearchQuery) -> Vec<ContributorId> {
        let mut hits = Vec::new();
        self.search_each(query, |run| {
            hits.extend(run.hits().map(|hit| ContributorId::new(hit.name())))
        });
        hits
    }
}

/// A point-in-time copy of the rule mirror, detached from the index's
/// lock. Produced by [`RuleIndex::snapshot`]; searches it as the index
/// searches itself.
#[derive(Debug, Clone)]
pub struct RuleSnapshot(RuleIndex);

impl RuleSnapshot {
    /// Number of mirrored contributors in the snapshot.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the snapshot mirrors no contributors.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// All contributors whose rule lists satisfy `query`, in name order.
    pub fn search(&self, query: &SearchQuery) -> Vec<ContributorId> {
        self.0.search(query)
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Action, Conditions, ConsumerSelector, LocationCondition};
    use sensorsafe_types::{ConsumerId, TimeOfDay};

    fn bob_query() -> SearchQuery {
        // The paper's §5.2 example: ECG + respiration at "work",
        // 9am-6pm weekdays.
        SearchQuery {
            consumer: ConsumerCtx::user("Bob"),
            raw_channels: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
            location_labels: vec!["work".into()],
            repeat: Some(RepeatTime::weekdays_nine_to_six()),
            ..Default::default()
        }
    }

    fn sharing_rules() -> Vec<PrivacyRule> {
        vec![PrivacyRule::allow_all()]
    }

    fn denying_rules() -> Vec<PrivacyRule> {
        // Shares everything except at "work".
        vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions {
                    location: Some(LocationCondition {
                        labels: vec!["work".into()],
                        regions: vec![],
                    }),
                    ..Default::default()
                },
                action: Action::Deny,
            },
        ]
    }

    #[test]
    fn probe_instants_cover_each_weekday() {
        let q = bob_query();
        let probes = q.probe_instants();
        assert_eq!(probes.len(), 5);
        for p in &probes {
            assert!(Weekday::WORKDAYS.contains(&p.weekday()));
            // Midpoint of 9:00–18:00 is 13:30.
            assert_eq!(p.time_of_day(), TimeOfDay::new(13, 30));
        }
    }

    #[test]
    fn search_separates_sharers_from_deniers() {
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("alice"), 1, denying_rules());
        index.sync(ContributorId::new("carol"), 1, sharing_rules());
        let hits = index.search(&bob_query());
        assert_eq!(hits, vec![ContributorId::new("carol")]);
    }

    #[test]
    fn search_respects_consumer_condition() {
        let only_for_eve = vec![PrivacyRule {
            conditions: Conditions {
                consumers: vec![ConsumerSelector::User(ConsumerId::new("Eve"))],
                ..Default::default()
            },
            action: Action::Allow,
        }];
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("dave"), 1, only_for_eve);
        assert!(index.search(&bob_query()).is_empty());
        let mut eve_query = bob_query();
        eve_query.consumer = ConsumerCtx::user("Eve");
        assert_eq!(index.search(&eve_query).len(), 1);
    }

    #[test]
    fn search_with_active_context_restriction() {
        // Bob studies stress *while driving*; Alice denies stress data
        // while driving (§6). Alice must not match.
        let alice_rules = vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions {
                    contexts: vec![ContextKind::Drive],
                    sensors: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
                    ..Default::default()
                },
                action: Action::Deny,
            },
        ];
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("alice"), 1, alice_rules);
        index.sync(ContributorId::new("carol"), 1, sharing_rules());
        let query = SearchQuery {
            consumer: ConsumerCtx::user("Bob"),
            raw_channels: vec![ChannelId::new("ecg"), ChannelId::new("respiration")],
            active_contexts: vec![ContextKind::Drive],
            ..Default::default()
        };
        let hits = index.search(&query);
        assert_eq!(hits, vec![ContributorId::new("carol")]);
    }

    #[test]
    fn label_context_requirement() {
        use crate::rule::AbstractionSpec;
        // Contributor shares stress only as a label.
        let label_only = vec![
            PrivacyRule::allow_all(),
            PrivacyRule {
                conditions: Conditions::default(),
                action: Action::Abstraction(AbstractionSpec {
                    stress: Some(BinaryAbs::Label),
                    ..Default::default()
                }),
            },
        ];
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("erin"), 1, label_only);
        // A query needing stress labels matches...
        let label_query = SearchQuery {
            consumer: ConsumerCtx::user("Bob"),
            label_contexts: vec![ContextKind::Stress],
            ..Default::default()
        };
        assert_eq!(index.search(&label_query).len(), 1);
        // ...but a query needing raw ECG does not (dependency closure
        // suppresses it).
        let raw_query = SearchQuery {
            consumer: ConsumerCtx::user("Bob"),
            raw_channels: vec![ChannelId::new("ecg")],
            ..Default::default()
        };
        assert!(index.search(&raw_query).is_empty());
    }

    #[test]
    fn sync_epochs_are_monotonic() {
        let mut index = RuleIndex::new();
        let alice = ContributorId::new("alice");
        assert!(index.sync(alice.clone(), 2, sharing_rules()));
        // Stale epoch rejected.
        assert!(!index.sync(alice.clone(), 1, denying_rules()));
        assert!(!index.sync(alice.clone(), 2, denying_rules()));
        let (epoch, rules) = index.rules_of(&alice).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(rules.len(), 1);
        // Newer epoch accepted.
        assert!(index.sync(alice.clone(), 3, denying_rules()));
        assert_eq!(index.rules_of(&alice).unwrap().0, 3);
    }

    #[test]
    fn remove_contributor() {
        let mut index = RuleIndex::new();
        let alice = ContributorId::new("alice");
        index.sync(alice.clone(), 1, sharing_rules());
        assert_eq!(index.len(), 1);
        assert!(index.remove(&alice));
        assert!(!index.remove(&alice));
        assert!(index.is_empty());
    }

    #[test]
    fn snapshot_is_detached_from_later_syncs() {
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("alice"), 1, sharing_rules());
        index.sync(ContributorId::new("carol"), 1, sharing_rules());
        let snapshot = index.snapshot();
        assert_eq!(snapshot.len(), 2);
        // Alice stops sharing after the snapshot was taken.
        index.sync(ContributorId::new("alice"), 2, denying_rules());
        index.remove(&ContributorId::new("carol"));
        // The snapshot still sees both as of its instant...
        let hits = snapshot.search(&bob_query());
        assert_eq!(
            hits,
            vec![ContributorId::new("alice"), ContributorId::new("carol")]
        );
        // ...while a fresh snapshot sees the new state.
        assert!(index.snapshot().search(&bob_query()).is_empty());
    }

    #[test]
    fn snapshot_and_index_search_agree() {
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("alice"), 1, denying_rules());
        index.sync(ContributorId::new("carol"), 1, sharing_rules());
        assert_eq!(
            index.search(&bob_query()),
            index.snapshot().search(&bob_query())
        );
        assert!(!index.snapshot().is_empty());
    }

    #[test]
    fn range_only_query_probes_endpoints() {
        let q = SearchQuery {
            consumer: ConsumerCtx::user("Bob"),
            range: Some(TimeRange::new(
                Timestamp::from_millis(1_000_000),
                Timestamp::from_millis(2_000_000),
            )),
            ..Default::default()
        };
        let probes = q.probe_instants();
        assert_eq!(probes.len(), 3);
        assert!(probes.iter().all(|p| q.range.unwrap().contains(*p)));
    }

    #[test]
    fn time_scoped_sharing_must_cover_probes() {
        use crate::rule::TimeCondition;
        // Contributor only shares on Mondays 9-6; Bob needs all weekdays.
        let monday_only = vec![PrivacyRule {
            conditions: Conditions {
                time: Some(TimeCondition {
                    ranges: vec![],
                    repeats: vec![RepeatTime::new(
                        vec![Weekday::Mon],
                        TimeOfDay::new(9, 0),
                        TimeOfDay::new(18, 0),
                    )],
                }),
                ..Default::default()
            },
            action: Action::Allow,
        }];
        let mut index = RuleIndex::new();
        index.sync(ContributorId::new("frank"), 1, monday_only);
        assert!(index.search(&bob_query()).is_empty());
        // A Monday-only query matches.
        let monday_query = SearchQuery {
            repeat: Some(RepeatTime::new(
                vec![Weekday::Mon],
                TimeOfDay::new(10, 0),
                TimeOfDay::new(11, 0),
            )),
            ..bob_query()
        };
        assert_eq!(index.search(&monday_query).len(), 1);
    }
}
