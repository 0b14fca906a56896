//! Server-side state: contributor and consumer accounts.
//!
//! # Sharding and lock order
//!
//! Mutable state is sharded per contributor: a *directory* maps
//! contributor ids to `Arc<RwLock<ContributorAccount>>`, so uploads to one
//! contributor never contend with queries against another. The directory
//! is written only at registration and read for one map lookup and an
//! `Arc` clone, so it is a single `RwLock` like the consumer map beside
//! it. The lock hierarchy (the whole order, journal and ledger included,
//! is in docs/ARCHITECTURE.md "Lock order") is:
//!
//! 1. **Directory lock** (`RwLock` over the id → account map) — held
//!    only long enough to clone the account `Arc`, never while an account
//!    lock is held.
//! 2. **Account lock** (`RwLock<ContributorAccount>`) — held for the
//!    duration of one request's work on that contributor. At most one
//!    account lock per thread.
//! 3. **Compiled-rule cache** (`Mutex` inside the account) — leaf lock,
//!    held only to read or replace the cached `Arc<CompiledRules>`.
//!
//! Debug builds assert this order (`mod lock_order`): touching the
//! directory while holding an account lock, or taking a second account
//! lock, panics.
//!
//! Journal group commit (DESIGN.md §8) deliberately sits *outside* this
//! hierarchy: durable uploads stage log records while holding the
//! account write lock, but wait for the batch fsync only after every
//! lock above has been released, so disk latency never extends an
//! account-lock hold.

use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, RwLock};
use sensorsafe_policy::{CompiledRules, PrivacyRule};
use sensorsafe_store::{MergePolicy, SegmentStore, StoreJournal};
use sensorsafe_types::{ConsumerId, ContributorId, GeoPoint, GroupId, Region, StudyId};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// One contributor hosted on this data store.
pub struct ContributorAccount {
    /// The contributor's unique name.
    pub id: ContributorId,
    /// Their sensor data.
    pub store: SegmentStore,
    /// Their privacy rules (order is irrelevant: evaluation is
    /// most-restrictive-wins).
    pub rules: Vec<PrivacyRule>,
    /// Monotonic rule version, bumped on every change and carried in
    /// broker sync messages.
    pub rule_epoch: u64,
    /// Labeled places ("home", "UCLA") drawn on the map UI; a window's
    /// location labels are the labels whose region contains its point.
    pub places: Vec<(String, Region)>,
    /// Lazily compiled rules, keyed by the epoch they were compiled at.
    /// An epoch bump invalidates the entry; the next enforcement pass
    /// recompiles once and every request after that shares the `Arc`.
    compiled: Mutex<Option<(u64, Arc<CompiledRules>)>>,
}

impl ContributorAccount {
    /// A fresh account with an in-memory store and no rules (deny-by-
    /// default shares nothing until the contributor writes rules).
    pub fn new(id: ContributorId, merge: MergePolicy) -> ContributorAccount {
        ContributorAccount {
            id,
            store: SegmentStore::in_memory(merge),
            rules: Vec::new(),
            rule_epoch: 0,
            places: Vec::new(),
            compiled: Mutex::new(None),
        }
    }

    /// A durable account: records stage into the data store's shared
    /// [`StoreJournal`] under this account's write lock and ride its
    /// single commit thread's batched fsyncs; the upload path waits for
    /// the commit *after* releasing the lock (DESIGN.md §8). Any state the
    /// journal recovered for this account at open (checkpoint +
    /// tail-segment replay) is claimed here — `take_account` hands it
    /// over exactly once, so a second registration of the same name
    /// starts from the live directory entry, not a stale replay.
    pub fn open_journal(
        id: ContributorId,
        journal: Arc<StoreJournal>,
        merge: MergePolicy,
    ) -> ContributorAccount {
        let name = id.as_str().to_string();
        let recovered = journal.take_account(&name);
        let (records, rule_epoch) = match recovered {
            Some(r) => (r.records, r.rule_epoch),
            None => (Vec::new(), 0),
        };
        ContributorAccount {
            id,
            store: SegmentStore::open_journal(journal, name, merge, records),
            rules: Vec::new(),
            rule_epoch,
            places: Vec::new(),
            compiled: Mutex::new(None),
        }
    }

    /// Labels active at `point`.
    pub fn labels_at(&self, point: &GeoPoint) -> Vec<String> {
        self.places
            .iter()
            .filter(|(_, region)| region.contains(point))
            .map(|(label, _)| label.clone())
            .collect()
    }

    /// Replaces the rule set, bumping the epoch. Returns the new epoch.
    pub fn set_rules(&mut self, rules: Vec<PrivacyRule>) -> u64 {
        self.rules = rules;
        self.rule_epoch += 1;
        self.rule_epoch
    }

    /// The current rules in compiled form, recompiled at most once per
    /// epoch. Callers hold the account lock (shared is enough), so the
    /// `(rules, rule_epoch)` pair is coherent; the inner mutex only
    /// guards the cache slot itself.
    pub fn compiled_rules(&self) -> Arc<CompiledRules> {
        let mut cache = self.compiled.lock();
        if let Some((epoch, compiled)) = cache.as_ref() {
            if *epoch == self.rule_epoch {
                return Arc::clone(compiled);
            }
        }
        let compiled = Arc::new(CompiledRules::compile(&self.rules));
        *cache = Some((self.rule_epoch, Arc::clone(&compiled)));
        compiled
    }
}

/// A consumer registered on this data store (auto-registered by the
/// broker, §5.4), with membership info used by group/study rule
/// conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerAccount {
    /// The consumer's unique name.
    pub id: ConsumerId,
    /// Group memberships.
    pub groups: Vec<GroupId>,
    /// Study enrollments.
    pub studies: Vec<StudyId>,
}

impl ConsumerAccount {
    /// The evaluation-context form.
    pub fn to_ctx(&self) -> sensorsafe_policy::ConsumerCtx {
        sensorsafe_policy::ConsumerCtx {
            id: Some(self.id.clone()),
            groups: self.groups.clone(),
            studies: self.studies.clone(),
        }
    }
}

/// Debug-build lock-order assertions (see the module docs for the
/// hierarchy). Zero code in release builds.
#[cfg(debug_assertions)]
mod lock_order {
    use std::cell::Cell;

    thread_local! {
        static ACCOUNT_LOCKS_HELD: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn acquire_account() {
        ACCOUNT_LOCKS_HELD.with(|held| {
            assert_eq!(
                held.get(),
                0,
                "lock-order violation: acquiring a second contributor account \
                 lock on this thread (deadlock risk — account locks never nest)"
            );
            held.set(held.get() + 1);
        });
    }

    pub(super) fn release_account() {
        ACCOUNT_LOCKS_HELD.with(|held| held.set(held.get().saturating_sub(1)));
    }

    pub(super) fn assert_no_account_lock() {
        ACCOUNT_LOCKS_HELD.with(|held| {
            assert_eq!(
                held.get(),
                0,
                "lock-order violation: touching the contributor directory while \
                 holding an account lock (directory locks come first)"
            );
        });
    }
}

#[cfg(not(debug_assertions))]
mod lock_order {
    pub(super) fn acquire_account() {}
    pub(super) fn release_account() {}
    pub(super) fn assert_no_account_lock() {}
}

/// Shared (read) access to one contributor, held until dropped.
///
/// Returned by [`DataStoreState::read_contributor`]. The guard owns an
/// `Arc` to the account's lock, so it stays valid even if the directory
/// changes concurrently.
pub struct ContributorReadGuard {
    // The owned guard keeps the account's lock allocation alive itself
    // (it holds an `Arc` of the lock), so the directory may rehash or the
    // entry be replaced while this guard is out.
    guard: ArcRwLockReadGuard<ContributorAccount>,
}

impl Deref for ContributorReadGuard {
    type Target = ContributorAccount;
    fn deref(&self) -> &ContributorAccount {
        &self.guard
    }
}

impl Drop for ContributorReadGuard {
    fn drop(&mut self) {
        lock_order::release_account();
    }
}

/// Exclusive (write) access to one contributor, held until dropped.
///
/// Returned by [`DataStoreState::write_contributor`].
pub struct ContributorWriteGuard {
    // Owned guard, as in `ContributorReadGuard`.
    guard: ArcRwLockWriteGuard<ContributorAccount>,
}

impl Deref for ContributorWriteGuard {
    type Target = ContributorAccount;
    fn deref(&self) -> &ContributorAccount {
        &self.guard
    }
}

impl DerefMut for ContributorWriteGuard {
    fn deref_mut(&mut self) -> &mut ContributorAccount {
        &mut self.guard
    }
}

impl Drop for ContributorWriteGuard {
    fn drop(&mut self) {
        lock_order::release_account();
    }
}

/// All mutable server state, sharded per contributor (module docs).
#[derive(Default)]
pub struct DataStoreState {
    contributors: RwLock<BTreeMap<ContributorId, Arc<RwLock<ContributorAccount>>>>,
    consumers: RwLock<BTreeMap<ConsumerId, Arc<ConsumerAccount>>>,
}

fn lock_wait_histogram(mode: &str) -> Arc<sensorsafe_obsv::Histogram> {
    sensorsafe_obsv::global().histogram(
        "sensorsafe_datastore_lock_wait_seconds",
        "Time spent waiting to acquire a contributor account lock.",
        &[("mode", mode)],
        None,
    )
}

impl DataStoreState {
    /// Empty state.
    pub fn new() -> DataStoreState {
        DataStoreState::default()
    }

    fn update_account_gauge(&self) {
        sensorsafe_obsv::global()
            .gauge(
                "sensorsafe_datastore_contributor_accounts",
                "Contributor accounts hosted on this data store.",
                &[],
            )
            .set(self.contributor_count() as i64);
    }

    /// Adds a contributor account; returns `false` if the name is taken.
    pub fn add_contributor(&self, account: ContributorAccount) -> bool {
        lock_order::assert_no_account_lock();
        let added = {
            let mut contributors = self.contributors.write();
            if contributors.contains_key(&account.id) {
                false
            } else {
                contributors.insert(account.id.clone(), Arc::new(RwLock::new(account)));
                true
            }
        };
        if added {
            self.update_account_gauge();
        }
        added
    }

    /// Adds a consumer account; returns `false` if the name is taken.
    pub fn add_consumer(&self, account: ConsumerAccount) -> bool {
        let mut consumers = self.consumers.write();
        if consumers.contains_key(&account.id) {
            return false;
        }
        consumers.insert(account.id.clone(), Arc::new(account));
        true
    }

    /// Clones the account `Arc` out of the directory (brief read lock).
    fn lookup(&self, id: &ContributorId) -> Option<Arc<RwLock<ContributorAccount>>> {
        lock_order::assert_no_account_lock();
        self.contributors.read().get(id).cloned()
    }

    /// Acquires shared access to a contributor's account. Concurrent
    /// readers of the same account proceed in parallel; readers of
    /// *different* accounts never contend at all.
    pub fn read_contributor(&self, id: &ContributorId) -> Option<ContributorReadGuard> {
        // The frame covers the acquisition only, so sampled stacks separate
        // lock-wait time from time spent holding the lock.
        let wait = sensorsafe_obsv::prof_frame!("account-lock-wait");
        let account = self.lookup(id)?;
        lock_order::acquire_account();
        let guard = RwLock::read_arc(&account);
        // Close it before the histogram is looked up: the wait ends here.
        let elapsed = wait.close();
        lock_wait_histogram("read").observe(elapsed);
        Some(ContributorReadGuard { guard })
    }

    /// Acquires exclusive access to a contributor's account. Only writers
    /// and readers of the *same* account are serialized.
    pub fn write_contributor(&self, id: &ContributorId) -> Option<ContributorWriteGuard> {
        let wait = sensorsafe_obsv::prof_frame!("account-lock-wait");
        let account = self.lookup(id)?;
        lock_order::acquire_account();
        let guard = RwLock::write_arc(&account);
        let elapsed = wait.close();
        lock_wait_histogram("write").observe(elapsed);
        Some(ContributorWriteGuard { guard })
    }

    /// Runs `f` with shared access to a contributor (convenience wrapper
    /// over [`DataStoreState::read_contributor`]).
    pub fn with_contributor<R>(
        &self,
        id: &ContributorId,
        f: impl FnOnce(&ContributorAccount) -> R,
    ) -> Option<R> {
        self.read_contributor(id).map(|guard| f(&guard))
    }

    /// Runs `f` with exclusive access to a contributor (convenience
    /// wrapper over [`DataStoreState::write_contributor`]).
    pub fn with_contributor_mut<R>(
        &self,
        id: &ContributorId,
        f: impl FnOnce(&mut ContributorAccount) -> R,
    ) -> Option<R> {
        self.write_contributor(id).map(|mut guard| f(&mut guard))
    }

    /// Looks up a consumer account (cheap: shared `Arc`, no deep clone).
    pub fn consumer(&self, id: &ConsumerId) -> Option<Arc<ConsumerAccount>> {
        self.consumers.read().get(id).cloned()
    }

    /// Contributor names hosted here, in name order.
    pub fn contributor_ids(&self) -> Vec<ContributorId> {
        lock_order::assert_no_account_lock();
        self.contributors.read().keys().cloned().collect()
    }

    /// Number of hosted contributors.
    pub fn contributor_count(&self) -> usize {
        lock_order::assert_no_account_lock();
        self.contributors.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_types::Region;

    #[test]
    fn contributor_lifecycle() {
        let state = DataStoreState::new();
        let alice = ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
        assert!(state.add_contributor(alice));
        let dup = ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
        assert!(!state.add_contributor(dup));
        assert_eq!(state.contributor_count(), 1);
        assert_eq!(state.contributor_ids(), vec![ContributorId::new("alice")]);
    }

    #[test]
    fn rule_epoch_bumps() {
        let state = DataStoreState::new();
        state.add_contributor(ContributorAccount::new(
            ContributorId::new("alice"),
            MergePolicy::default(),
        ));
        let id = ContributorId::new("alice");
        let e1 = state
            .with_contributor_mut(&id, |a| a.set_rules(vec![PrivacyRule::allow_all()]))
            .unwrap();
        let e2 = state
            .with_contributor_mut(&id, |a| a.set_rules(vec![]))
            .unwrap();
        assert_eq!(e1, 1);
        assert_eq!(e2, 2);
        assert_eq!(state.with_contributor(&id, |a| a.rules.len()).unwrap(), 0);
    }

    #[test]
    fn labels_at_point() {
        let mut account =
            ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
        account.places = vec![
            ("UCLA".to_string(), Region::around(GeoPoint::ucla(), 0.01)),
            ("LA".to_string(), Region::new(33.5, 34.5, -119.0, -117.5)),
        ];
        let labels = account.labels_at(&GeoPoint::ucla());
        assert_eq!(labels, vec!["UCLA".to_string(), "LA".to_string()]);
        let downtown = GeoPoint::new(34.05, -118.25);
        assert_eq!(account.labels_at(&downtown), vec!["LA".to_string()]);
        let nyc = GeoPoint::new(40.7, -74.0);
        assert!(account.labels_at(&nyc).is_empty());
    }

    #[test]
    fn consumer_accounts() {
        let state = DataStoreState::new();
        let bob = ConsumerAccount {
            id: ConsumerId::new("bob"),
            groups: vec![GroupId::new("researchers")],
            studies: vec![StudyId::new("stress-study")],
        };
        assert!(state.add_consumer(bob.clone()));
        assert!(!state.add_consumer(bob.clone()));
        let fetched = state.consumer(&ConsumerId::new("bob")).unwrap();
        assert_eq!(*fetched, bob);
        let ctx = fetched.to_ctx();
        assert_eq!(ctx.id, Some(ConsumerId::new("bob")));
        assert_eq!(ctx.groups.len(), 1);
        assert!(state.consumer(&ConsumerId::new("eve")).is_none());
    }

    #[test]
    fn guards_give_direct_access() {
        let state = DataStoreState::new();
        let id = ContributorId::new("alice");
        state.add_contributor(ContributorAccount::new(id.clone(), MergePolicy::default()));
        {
            let mut guard = state.write_contributor(&id).unwrap();
            guard.set_rules(vec![PrivacyRule::allow_all()]);
        }
        let guard = state.read_contributor(&id).unwrap();
        assert_eq!(guard.rule_epoch, 1);
        assert_eq!(guard.rules.len(), 1);
        drop(guard);
        assert!(state
            .read_contributor(&ContributorId::new("ghost"))
            .is_none());
    }

    #[test]
    fn guard_outlives_concurrent_directory_growth() {
        // A held guard stays valid while another thread mutates the
        // directory around it (registration).
        let state = Arc::new(DataStoreState::new());
        let id = ContributorId::new("alice");
        state.add_contributor(ContributorAccount::new(id.clone(), MergePolicy::default()));
        let guard = state.read_contributor(&id).unwrap();
        let registrar = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                for i in 0..32 {
                    state.add_contributor(ContributorAccount::new(
                        ContributorId::new(format!("other-{i}")),
                        MergePolicy::default(),
                    ));
                }
            })
        };
        registrar.join().unwrap();
        assert_eq!(guard.id, id);
        drop(guard);
        assert_eq!(state.contributor_count(), 33);
    }

    #[test]
    fn compiled_rules_cache_invalidated_by_epoch_bump() {
        let mut account =
            ContributorAccount::new(ContributorId::new("alice"), MergePolicy::default());
        let empty = account.compiled_rules();
        assert!(empty.is_empty());
        // Same epoch: the same compiled object is shared.
        assert!(Arc::ptr_eq(&empty, &account.compiled_rules()));
        account.set_rules(vec![PrivacyRule::allow_all()]);
        let compiled = account.compiled_rules();
        assert_eq!(compiled.len(), 1);
        assert!(!Arc::ptr_eq(&empty, &compiled));
        assert!(Arc::ptr_eq(&compiled, &account.compiled_rules()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn directory_access_under_account_lock_panics() {
        let state = DataStoreState::new();
        let id = ContributorId::new("alice");
        state.add_contributor(ContributorAccount::new(id.clone(), MergePolicy::default()));
        let _guard = state.read_contributor(&id).unwrap();
        // Touching the directory while holding an account lock violates
        // the documented order.
        let _ = state.contributor_count();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn nested_account_locks_panic() {
        let state = DataStoreState::new();
        for name in ["alice", "bob"] {
            state.add_contributor(ContributorAccount::new(
                ContributorId::new(name),
                MergePolicy::default(),
            ));
        }
        let _first = state
            .read_contributor(&ContributorId::new("alice"))
            .unwrap();
        let _second = state.read_contributor(&ContributorId::new("bob"));
    }
}
