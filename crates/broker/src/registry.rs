//! Broker-side registries: stores, contributors, consumers, escrowed
//! keys.
//!
//! [`BrokerRegistry`] owns one [`RwLock`] **per map** (stores,
//! contributors, consumers) instead of callers wrapping the whole
//! struct in a single lock. Contributor registration, store pairing,
//! and consumer bookkeeping touch disjoint maps, so a rule sync
//! upserting a contributor no longer serializes against a consumer
//! fetching their escrowed keys. Methods take `&self` and never hold
//! more than one map lock at a time (see docs/ARCHITECTURE.md "Lock
//! order" for the broker-side lock order).

use parking_lot::RwLock;
use sensorsafe_types::{ConsumerId, ContributorId, GroupId, StoreAddr, StudyId};
use std::collections::BTreeMap;

/// A paired remote data store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Where consumers (and the broker) reach it.
    pub addr: StoreAddr,
    /// A `Role::Server` key on that store, used by the broker to
    /// auto-register consumers there (§5.4 "the registration process is
    /// automatically handled by the broker").
    pub register_key: String,
}

/// Which store is a contributor's current primary, and at which
/// assignment epoch. The epoch extends the `(epoch, rules)` discipline
/// to store addresses: it only moves forward, and it only moves through
/// [`BrokerRegistry::promote`]'s compare-and-swap — so two failover
/// controllers racing on the same observation cannot double-promote,
/// and a deposed primary can be fenced by epoch comparison alone.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreAssignment {
    /// The contributor's current primary store.
    pub addr: StoreAddr,
    /// Monotonic assignment epoch (starts at 1; bumped on promotion).
    pub epoch: u64,
}

/// Outcome of a [`BrokerRegistry::promote`] compare-and-swap.
#[derive(Debug, Clone, PartialEq)]
pub enum PromoteOutcome {
    /// The CAS won: the assignment now points at the new address at the
    /// returned (bumped) epoch.
    Promoted(u64),
    /// The assignment already points at the new address (a concurrent
    /// promotion won the race); returns the current epoch. Idempotent
    /// success — the caller may re-send fence/promote notifications.
    AlreadyPromoted(u64),
    /// The expected epoch was stale; nothing changed. Returns the
    /// current epoch so the caller can re-observe and retry.
    Stale(u64),
    /// No assignment exists for the contributor.
    Unknown,
}

/// A consumer's escrowed access to one contributor's store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreAccess {
    /// The contributor whose data this unlocks.
    pub contributor: ContributorId,
    /// The contributor's store address.
    pub addr: StoreAddr,
    /// The consumer's API key **on that store** (escrowed at the broker;
    /// "the list of API keys are stored on the broker").
    pub api_key: String,
}

/// A consumer account at the broker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConsumerRecord {
    /// Group memberships (forwarded to stores at auto-registration).
    pub groups: Vec<GroupId>,
    /// Study enrollments.
    pub studies: Vec<StudyId>,
    /// Saved contributor list ("saves the list in his account", §6).
    pub contributor_list: Vec<ContributorId>,
    /// Escrowed per-store keys, by contributor.
    pub access: BTreeMap<ContributorId, StoreAccess>,
}

/// All broker registries, each behind its own lock.
#[derive(Debug, Default)]
pub struct BrokerRegistry {
    /// Paired stores by address.
    stores: RwLock<BTreeMap<String, StoreRecord>>,
    /// Which store hosts each contributor, with its assignment epoch.
    contributors: RwLock<BTreeMap<ContributorId, StoreAssignment>>,
    /// Replica pairings: primary address → replica address. The failover
    /// controller promotes a primary's replica when the primary trips
    /// the unreachable threshold.
    replicas: RwLock<BTreeMap<String, StoreAddr>>,
    /// Consumer accounts.
    consumers: RwLock<BTreeMap<ConsumerId, ConsumerRecord>>,
}

impl BrokerRegistry {
    /// Empty registry.
    pub fn new() -> BrokerRegistry {
        BrokerRegistry::default()
    }

    /// Records (or re-records) a paired store.
    pub fn upsert_store(&self, record: StoreRecord) {
        self.stores
            .write()
            .insert(record.addr.as_str().to_string(), record);
    }

    /// Number of paired stores.
    pub fn store_count(&self) -> usize {
        self.stores.read().len()
    }

    /// Addresses of every paired store, sorted. The fleet prober walks
    /// this list each sweep.
    pub fn store_addrs(&self) -> Vec<String> {
        self.stores.read().keys().cloned().collect()
    }

    /// The store address hosting `contributor`, if registered. Cheaper
    /// than [`BrokerRegistry::store_of`] when the registration key is not
    /// needed (e.g. annotating search results with store health).
    pub fn store_addr_of(&self, contributor: &str) -> Option<StoreAddr> {
        self.contributors
            .read()
            .get(contributor)
            .map(|a| a.addr.clone())
    }

    /// A contributor's full assignment (address + epoch).
    pub fn assignment_of(&self, contributor: &ContributorId) -> Option<StoreAssignment> {
        self.contributors.read().get(contributor).cloned()
    }

    /// Records which store hosts a contributor. First registration
    /// creates the assignment at epoch 1; after that the call is a
    /// no-op — the address only moves through the
    /// [`BrokerRegistry::promote`] CAS, so a deposed primary re-syncing
    /// rules cannot silently undo a failover.
    pub fn upsert_contributor(&self, contributor: ContributorId, addr: StoreAddr) {
        self.contributors
            .write()
            .entry(contributor)
            .or_insert(StoreAssignment { addr, epoch: 1 });
    }

    /// Compare-and-swap promotion: move `contributor`'s assignment to
    /// `new_addr`, but only if the caller observed the current epoch.
    /// The winning swap bumps the epoch; see [`PromoteOutcome`] for the
    /// race outcomes.
    pub fn promote(
        &self,
        contributor: &ContributorId,
        expected_epoch: u64,
        new_addr: StoreAddr,
    ) -> PromoteOutcome {
        let mut contributors = self.contributors.write();
        let Some(assignment) = contributors.get_mut(contributor) else {
            return PromoteOutcome::Unknown;
        };
        if assignment.addr == new_addr {
            return PromoteOutcome::AlreadyPromoted(assignment.epoch);
        }
        if assignment.epoch != expected_epoch {
            return PromoteOutcome::Stale(assignment.epoch);
        }
        assignment.epoch += 1;
        assignment.addr = new_addr;
        PromoteOutcome::Promoted(assignment.epoch)
    }

    /// Pairs a replica with a primary (overwrites a previous pairing).
    pub fn set_replica(&self, primary: &str, replica: StoreAddr) {
        self.replicas.write().insert(primary.to_string(), replica);
    }

    /// The replica paired with `primary`, if any.
    pub fn replica_of(&self, primary: &str) -> Option<StoreAddr> {
        self.replicas.read().get(primary).cloned()
    }

    /// The store hosting a contributor, with its registration key.
    /// Returns a clone so no lock outlives the call.
    pub fn store_of(&self, contributor: &ContributorId) -> Option<StoreRecord> {
        let addr = self
            .contributors
            .read()
            .get(contributor)
            .map(|a| a.addr.clone())?;
        self.stores.read().get(addr.as_str()).cloned()
    }

    /// The record of a paired store by address.
    pub fn store_by_addr(&self, addr: &str) -> Option<StoreRecord> {
        self.stores.read().get(addr).cloned()
    }

    /// Number of registered contributors.
    pub fn contributor_count(&self) -> usize {
        self.contributors.read().len()
    }

    /// All registered contributor ids, sorted.
    pub fn contributor_ids(&self) -> Vec<ContributorId> {
        self.contributors.read().keys().cloned().collect()
    }

    /// Creates a consumer account. Returns `false` (and leaves the
    /// existing record untouched) when the id is already taken.
    pub fn insert_consumer(&self, id: ConsumerId, record: ConsumerRecord) -> bool {
        let mut consumers = self.consumers.write();
        if consumers.contains_key(&id) {
            return false;
        }
        consumers.insert(id, record);
        true
    }

    /// A consumer's record, cloned out from under the lock.
    pub fn consumer(&self, id: &ConsumerId) -> Option<ConsumerRecord> {
        self.consumers.read().get(id).cloned()
    }

    /// Number of consumer accounts.
    pub fn consumer_count(&self) -> usize {
        self.consumers.read().len()
    }

    /// Escrows `access` for `consumer`, appending the contributor to the
    /// saved list on first grant. Returns `false` for unknown consumers.
    pub fn grant_access(&self, consumer: &ConsumerId, access: StoreAccess) -> bool {
        let mut consumers = self.consumers.write();
        let Some(record) = consumers.get_mut(consumer) else {
            return false;
        };
        let contributor = access.contributor.clone();
        record.access.insert(contributor.clone(), access);
        if !record.contributor_list.contains(&contributor) {
            record.contributor_list.push(contributor);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_contributor_registry() {
        let reg = BrokerRegistry::new();
        reg.upsert_store(StoreRecord {
            addr: StoreAddr::new("10.0.0.1:7001"),
            register_key: "k1".into(),
        });
        reg.upsert_contributor(ContributorId::new("alice"), StoreAddr::new("10.0.0.1:7001"));
        let store = reg.store_of(&ContributorId::new("alice")).unwrap();
        assert_eq!(store.register_key, "k1");
        assert_eq!(reg.contributor_count(), 1);
        // Contributor on an unpaired store: no record.
        reg.upsert_contributor(ContributorId::new("bob"), StoreAddr::new("10.0.0.9:7001"));
        assert!(reg.store_of(&ContributorId::new("bob")).is_none());
    }

    #[test]
    fn upsert_store_replaces() {
        let reg = BrokerRegistry::new();
        reg.upsert_store(StoreRecord {
            addr: StoreAddr::new("a:1"),
            register_key: "old".into(),
        });
        reg.upsert_store(StoreRecord {
            addr: StoreAddr::new("a:1"),
            register_key: "new".into(),
        });
        assert_eq!(reg.store_count(), 1);
        reg.upsert_contributor(ContributorId::new("c"), StoreAddr::new("a:1"));
        let store = reg.store_of(&ContributorId::new("c")).unwrap();
        assert_eq!(store.register_key, "new");
    }

    #[test]
    fn assignments_start_at_epoch_one_and_resist_overwrite() {
        let reg = BrokerRegistry::new();
        let alice = ContributorId::new("alice");
        reg.upsert_contributor(alice.clone(), StoreAddr::new("a:1"));
        assert_eq!(
            reg.assignment_of(&alice),
            Some(StoreAssignment {
                addr: StoreAddr::new("a:1"),
                epoch: 1,
            })
        );
        // A later upsert (e.g. a deposed primary re-syncing rules) does
        // not move the address or reset the epoch.
        reg.upsert_contributor(alice.clone(), StoreAddr::new("b:1"));
        assert_eq!(reg.store_addr_of("alice"), Some(StoreAddr::new("a:1")));
    }

    #[test]
    fn promote_cas_rejects_stale_epoch() {
        let reg = BrokerRegistry::new();
        let alice = ContributorId::new("alice");
        reg.upsert_contributor(alice.clone(), StoreAddr::new("a:1"));
        // CAS at the observed epoch wins and bumps it.
        assert_eq!(
            reg.promote(&alice, 1, StoreAddr::new("b:1")),
            PromoteOutcome::Promoted(2)
        );
        assert_eq!(reg.store_addr_of("alice"), Some(StoreAddr::new("b:1")));
        // A writer still holding the pre-promotion observation loses:
        // the stale epoch is rejected and the assignment is untouched.
        assert_eq!(
            reg.promote(&alice, 1, StoreAddr::new("c:1")),
            PromoteOutcome::Stale(2)
        );
        assert_eq!(reg.store_addr_of("alice"), Some(StoreAddr::new("b:1")));
        // Unknown contributors cannot be promoted into existence.
        assert_eq!(
            reg.promote(&ContributorId::new("ghost"), 1, StoreAddr::new("b:1")),
            PromoteOutcome::Unknown
        );
    }

    #[test]
    fn concurrent_promote_is_idempotent() {
        let reg = std::sync::Arc::new(BrokerRegistry::new());
        let alice = ContributorId::new("alice");
        reg.upsert_contributor(alice.clone(), StoreAddr::new("a:1"));
        // Two controllers race the same observation (epoch 1 → b:1).
        let outcomes: Vec<PromoteOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let reg = std::sync::Arc::clone(&reg);
                    let alice = alice.clone();
                    s.spawn(move || reg.promote(&alice, 1, StoreAddr::new("b:1")))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one CAS wins; the loser sees AlreadyPromoted at the
        // same epoch. Either way the epoch bumped exactly once.
        assert!(outcomes.contains(&PromoteOutcome::Promoted(2)));
        assert!(
            outcomes.iter().all(|o| matches!(
                o,
                PromoteOutcome::Promoted(2) | PromoteOutcome::AlreadyPromoted(2)
            )),
            "{outcomes:?}"
        );
        assert_eq!(
            reg.assignment_of(&alice),
            Some(StoreAssignment {
                addr: StoreAddr::new("b:1"),
                epoch: 2,
            })
        );
    }

    #[test]
    fn replica_pairings() {
        let reg = BrokerRegistry::new();
        assert_eq!(reg.replica_of("a:1"), None);
        reg.set_replica("a:1", StoreAddr::new("b:1"));
        assert_eq!(reg.replica_of("a:1"), Some(StoreAddr::new("b:1")));
        reg.set_replica("a:1", StoreAddr::new("c:1"));
        assert_eq!(reg.replica_of("a:1"), Some(StoreAddr::new("c:1")));
    }

    #[test]
    fn consumer_record_defaults() {
        let rec = ConsumerRecord::default();
        assert!(rec.groups.is_empty());
        assert!(rec.access.is_empty());
        assert!(rec.contributor_list.is_empty());
    }

    #[test]
    fn insert_consumer_rejects_duplicates() {
        let reg = BrokerRegistry::new();
        let id = ConsumerId::new("bob");
        assert!(reg.insert_consumer(id.clone(), ConsumerRecord::default()));
        let taken = ConsumerRecord {
            groups: vec![GroupId::new("late")],
            ..Default::default()
        };
        assert!(!reg.insert_consumer(id.clone(), taken));
        // The original (empty) record survives.
        assert!(reg.consumer(&id).unwrap().groups.is_empty());
        assert_eq!(reg.consumer_count(), 1);
    }

    #[test]
    fn grant_access_appends_contributor_list_once() {
        let reg = BrokerRegistry::new();
        let bob = ConsumerId::new("bob");
        reg.insert_consumer(bob.clone(), ConsumerRecord::default());
        let access = StoreAccess {
            contributor: ContributorId::new("alice"),
            addr: StoreAddr::new("a:1"),
            api_key: "k".into(),
        };
        assert!(reg.grant_access(&bob, access.clone()));
        assert!(reg.grant_access(&bob, access));
        let record = reg.consumer(&bob).unwrap();
        assert_eq!(record.contributor_list.len(), 1);
        assert_eq!(record.access.len(), 1);
        // Unknown consumer: no-op, reported.
        assert!(!reg.grant_access(
            &ConsumerId::new("ghost"),
            StoreAccess {
                contributor: ContributorId::new("alice"),
                addr: StoreAddr::new("a:1"),
                api_key: "k".into(),
            }
        ));
    }
}
