//! Primary-side replication: the replica link and the `repl-shipper`
//! background thread.
//!
//! A data store becomes a replicated **primary** when a
//! [`ReplicaLink`] is attached ([`crate::DataStoreService::attach_replica`]):
//! every hosted account's [`SegmentStore`](sensorsafe_store::SegmentStore)
//! turns on its shipping buffer, and the shipper thread drains sealed
//! batches to the replica over the ordinary HTTP surface (`POST
//! /repl/segment`). Registrations and rule changes are mirrored too
//! (`POST /repl/register`, `POST /repl/rules`) so a promoted replica can
//! authenticate the same clients and enforce the same privacy rules.
//!
//! The shipper follows the crate's lock discipline: each pass takes one
//! account write lock briefly — seal the open batch, clone the unacked
//! tail, read the assignment epoch — then releases it before any network
//! round trip. Acks re-take the lock for the duration of one
//! [`repl_ack`](sensorsafe_store::SegmentStore::repl_ack) call. A fenced
//! account (this store lost a failover CAS) is skipped entirely: a
//! deposed primary must not keep writing at the new one.
//!
//! Pairing a primary with a replica and shipping one account's data
//! (production deployments spawn
//! [`DataStoreService::spawn_repl_shipper`](crate::DataStoreService::spawn_repl_shipper)
//! instead of shipping by hand):
//!
//! ```
//! use sensorsafe_datastore::{DataStoreService, ReplicaLink};
//! use sensorsafe_json::json;
//! use sensorsafe_net::{LocalTransport, Request, Service, Transport};
//! use sensorsafe_types::{ChannelSpec, SegmentMeta, Timestamp, Timing, WaveSegment};
//! use std::sync::Arc;
//!
//! let (primary, admin) = DataStoreService::new(Default::default());
//! let (replica, replica_admin) = DataStoreService::new(Default::default());
//!
//! // The link carries a transport to the replica plus a Role::Server
//! // key minted *on the replica* that authorizes /repl/* calls there.
//! primary.attach_replica(ReplicaLink {
//!     addr: "replica-1".into(),
//!     transport: Arc::new(LocalTransport::new(Arc::new(replica.clone()))),
//!     repl_key: replica_admin.to_hex(),
//! });
//!
//! // Registrations are mirrored (same API key on both sides), uploads
//! // buffer sealed batches, and a shipping pass drains them across.
//! let resp = primary.handle(&Request::post_json(
//!     "/api/register",
//!     &json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
//! ));
//! let alice_key = resp.json_body().unwrap()["api_key"].as_str().unwrap().to_string();
//! let segment = WaveSegment::from_rows(
//!     SegmentMeta {
//!         timing: Timing::Uniform { start: Timestamp::from_millis(0), interval_secs: 1.0 },
//!         location: None,
//!         format: vec![ChannelSpec::f32("ecg")],
//!     },
//!     &[vec![0.5], vec![0.7]],
//! ).unwrap();
//! let resp = primary.handle(&Request::post_json(
//!     "/api/upload",
//!     &json!({"key": (alice_key.clone()), "segments": [(segment.to_json())]}),
//! ));
//! assert!(resp.status.is_success());
//! let shipped = primary.repl_ship_now();
//! assert!(shipped > 0, "the sealed upload batch ships to the replica");
//!
//! // The replica now authenticates the same contributor key.
//! let resp = replica.handle(&Request::post_json(
//!     "/api/rules/get",
//!     &json!({"key": (alice_key)}),
//! ));
//! assert!(resp.status.is_success());
//! ```

use crate::service::Inner;
use sensorsafe_json::{json, Value};
use sensorsafe_net::{Request, Transport};
use sensorsafe_store::repl;
use sensorsafe_types::ContributorId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Batches shipped per contributor per shipper pass — bounds how long
/// one pass can monopolize the wire while a replica catches up.
const MAX_BATCHES_PER_PASS: usize = 32;

/// Connection details of this store's replica.
pub struct ReplicaLink {
    /// Address the replica is reachable at (registry/bookkeeping form).
    pub addr: String,
    /// Transport to the replica.
    pub transport: Arc<dyn Transport>,
    /// A `Role::Server` key **on the replica** authorizing `/repl/*`
    /// calls.
    pub repl_key: String,
}

impl Inner {
    /// One shipping pass over every hosted contributor: seal the open
    /// batch, push unacked batches in sequence order, ack what the
    /// replica durably applied. Returns batches shipped. Runs on the
    /// shipper thread, but callable directly for deterministic tests.
    pub(crate) fn repl_ship_now(&self) -> usize {
        let link = {
            let guard = self.replica.lock();
            match guard.as_ref() {
                Some(l) => (Arc::clone(&l.transport), l.repl_key.clone()),
                None => return 0,
            }
        };
        let (transport, repl_key) = link;
        let mut shipped = 0usize;
        let mut pending = 0usize;
        for id in self.state.contributor_ids() {
            shipped += self.repl_ship_account(&id, transport.as_ref(), &repl_key);
            pending += self
                .state
                .with_contributor(&id, |a| a.store.repl_pending())
                .unwrap_or(0);
        }
        sensorsafe_obsv::global()
            .gauge(
                "sensorsafe_datastore_repl_pending_batches",
                "Replication lag: sealed batches not yet acked by the replica, summed over hosted contributors.",
                &[],
            )
            .set(pending as i64);
        // Fresh acks may have unblocked journal segment GC: checkpointed
        // segments are only deleted once every account's shipped batches
        // are acked (the journal's GC gate reads `repl_acked_seq`), so a
        // shipping pass is the natural moment to retry.
        if shipped > 0 {
            if let Ok(Some(journal)) = &self.journal {
                journal.maybe_gc();
            }
        }
        shipped
    }

    /// Ships one contributor's unacked batches in sequence order (at
    /// most [`MAX_BATCHES_PER_PASS`]) and returns how many the replica
    /// acked.
    fn repl_ship_account(
        &self,
        id: &ContributorId,
        transport: &dyn Transport,
        repl_key: &str,
    ) -> usize {
        let registry = sensorsafe_obsv::global();
        // Handshake before trusting acks: the replica persists its
        // applied high-water, but this shipper's sequence numbering is
        // in-memory. After a primary restart (or replica swap) the two
        // can disagree — a replica ahead of us would silently ack
        // batches it never applied. Compare high-waters once per
        // attachment; on mismatch, wipe the replica (epoch-guarded)
        // and re-snapshot so shipping restarts from seq 1.
        if !self.repl_synced.lock().contains(id) {
            if !self.repl_handshake(id, transport, repl_key) {
                registry
                    .counter(
                        "sensorsafe_datastore_repl_ship_failures_total",
                        "Replication batch pushes that failed or were rejected.",
                        &[],
                    )
                    .inc();
                return 0;
            }
            self.repl_synced.lock().insert(id.clone());
        }
        let Some((batches, epoch)) = self
            .state
            .with_contributor_mut(id, |account| {
                if !account.store.repl_enabled() || account.store.fenced() {
                    return None;
                }
                account.store.repl_seal();
                Some((
                    account.store.repl_peek(MAX_BATCHES_PER_PASS),
                    account.store.assignment_epoch(),
                ))
            })
            .flatten()
        else {
            return 0;
        };
        let mut shipped = 0usize;
        for batch in batches {
            let seq = batch.seq;
            let frame = repl::encode_batch(id.as_str(), epoch, &batch);
            let payload = json!({
                "key": (repl_key),
                "batch": (repl::to_hex(&frame)),
            });
            let outcome = transport.round_trip(&Request::post_json("/repl/segment", &payload));
            match outcome {
                Ok(resp) if resp.status.is_success() => {
                    self.state
                        .with_contributor_mut(id, |a| a.store.repl_ack(seq));
                    shipped += 1;
                    registry
                        .counter(
                            "sensorsafe_datastore_repl_shipped_batches_total",
                            "Replication batches acked by the replica.",
                            &[],
                        )
                        .inc();
                }
                _ => {
                    // Transport error or rejection (including a fence
                    // response): stop this account for the pass and
                    // retry on the next one. The replica may have
                    // restarted mid-run, so force a fresh handshake
                    // before trusting its next ack. (A fence also
                    // flips the durable fence flag via /repl/fence,
                    // which skips the account entirely from then on.)
                    self.repl_synced.lock().remove(id);
                    registry
                        .counter(
                            "sensorsafe_datastore_repl_ship_failures_total",
                            "Replication batch pushes that failed or were rejected.",
                            &[],
                        )
                        .inc();
                    break;
                }
            }
        }
        shipped
    }

    /// Compares this primary's acked sequence against the replica's
    /// durable applied high-water for one contributor. On agreement the
    /// account is safe to ship to; on disagreement the replica's copy is
    /// wiped (`/repl/reset`, guarded by our assignment epoch so a stale
    /// deposed primary can never wipe a promoted replica) and the local
    /// buffer re-snapshots the full store so shipping restarts from
    /// seq 1. Returns whether shipping may proceed this pass.
    fn repl_handshake(
        &self,
        id: &ContributorId,
        transport: &dyn Transport,
        repl_key: &str,
    ) -> bool {
        let Some((acked, epoch, enabled)) = self.state.with_contributor(id, |account| {
            (
                account.store.repl_acked_seq(),
                account.store.assignment_epoch(),
                account.store.repl_enabled(),
            )
        }) else {
            return false;
        };
        if !enabled {
            // Nothing buffered for this account yet; nothing to reconcile.
            return true;
        }
        let status = json!({
            "key": (repl_key.to_string()),
            "contributor": (id.as_str()),
        });
        let applied = match transport.round_trip(&Request::post_json("/repl/status", &status)) {
            Ok(resp) if resp.status.is_success() => match resp
                .json_body()
                .ok()
                .as_ref()
                .and_then(|b| b.get("applied"))
                .and_then(Value::as_u64)
            {
                Some(applied) => applied,
                None => return false,
            },
            _ => return false,
        };
        if applied == acked {
            return true;
        }
        // Divergence (typically: primary restarted, so its in-memory
        // numbering reset while the replica's high-water persisted).
        // Wipe and restart from a fresh snapshot.
        let reset = json!({
            "key": (repl_key.to_string()),
            "contributor": (id.as_str()),
            "epoch": epoch,
        });
        match transport.round_trip(&Request::post_json("/repl/reset", &reset)) {
            Ok(resp) if resp.status.is_success() => {}
            _ => return false,
        }
        let resnapshotted = self
            .state
            .with_contributor_mut(id, |account| {
                if account.store.repl_enabled() {
                    account.store.repl_resnapshot();
                }
            })
            .is_some();
        if resnapshotted {
            sensorsafe_obsv::global()
                .counter(
                    "sensorsafe_datastore_repl_resyncs_total",
                    "Full replica resyncs triggered by a high-water mismatch.",
                    &[],
                )
                .inc();
        }
        resnapshotted
    }

    /// Mirrors a freshly minted registration to the replica (best
    /// effort): the replica creates the same account and adopts the same
    /// API key, so clients keep authenticating after a failover.
    pub(crate) fn mirror_registration_to_replica(
        &self,
        name: &str,
        role: &str,
        key_hex: &str,
        groups: &Value,
        studies: &Value,
    ) {
        let guard = self.replica.lock();
        let Some(link) = guard.as_ref() else {
            return;
        };
        let payload = json!({
            "key": (link.repl_key.clone()),
            "name": name,
            "role": role,
            "mirrored_key": key_hex,
            "groups": (groups.clone()),
            "studies": (studies.clone()),
        });
        let _ = link
            .transport
            .round_trip(&Request::post_json("/repl/register", &payload));
    }

    /// Mirrors a rule change to the replica (best effort), carrying the
    /// rule epoch so stale mirrors never regress the replica's copy.
    pub(crate) fn mirror_rules_to_replica(&self, contributor: &str, epoch: u64, rules: &Value) {
        let guard = self.replica.lock();
        let Some(link) = guard.as_ref() else {
            return;
        };
        let payload = json!({
            "key": (link.repl_key.clone()),
            "contributor": contributor,
            "epoch": epoch,
            "rules": (rules.clone()),
        });
        let _ = link
            .transport
            .round_trip(&Request::post_json("/repl/rules", &payload));
    }
}

/// Handle to the `repl-shipper` background thread. Dropping it (or
/// calling [`ReplShipper::stop`]) stops the thread and joins it — the
/// same clean-shutdown contract as the broker's fleet prober.
pub struct ReplShipper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplShipper {
    pub(crate) fn spawn(inner: Arc<Inner>, interval: Duration) -> ReplShipper {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("repl-shipper".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    {
                        let _frame = sensorsafe_obsv::prof_frame!("repl-ship");
                        inner.repl_ship_now();
                    }
                    // Sleep in short slices so stop() returns promptly.
                    let mut remaining = interval;
                    while remaining > Duration::ZERO && !thread_stop.load(Ordering::Acquire) {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn repl-shipper thread");
        ReplShipper {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the shipper to stop and joins the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplShipper {
    fn drop(&mut self) {
        self.stop();
    }
}
