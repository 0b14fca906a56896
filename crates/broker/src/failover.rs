//! Broker-coordinated failover: promote a replica when its primary
//! trips the fleet plane's Unreachable threshold.
//!
//! The controller runs at the tail of every fleet sweep, after the
//! health machines advance. For each store currently held Unreachable
//! that has a paired replica ([`crate::registry::BrokerRegistry::set_replica`]),
//! it moves every contributor assigned there to the replica through the
//! registry's epoch compare-and-swap
//! ([`crate::registry::BrokerRegistry::promote`]) — the same monotonic
//! `(epoch, …)` discipline the rule mirror uses, extended to store
//! addresses. Winning the CAS makes this controller the sole notifier:
//!
//! 1. `POST /repl/promote` on the replica (authorized by the replica's
//!    registration key) hands it the new epoch and unfences writes.
//! 2. `POST /repl/fence` on the deposed primary stamps the same epoch
//!    with the fenced flag, so contributor writes there bounce with
//!    `{"error":"fenced"}` and the client re-resolves. The primary is
//!    usually unreachable at this moment, so fencing is retried on every
//!    subsequent sweep until it lands — closing the split-brain window
//!    when the old primary comes back.
//!
//! Losing the CAS (`AlreadyPromoted` / `Stale`) means a concurrent sweep
//! won and owns the notifications; the loser does nothing. Promotions
//! are recorded in a bounded event log, counted in
//! `sensorsafe_broker_failovers_total`, and surfaced in `GET /fleet` and
//! `/ui/fleet` by stores and epoch only: the contributor who moved stays
//! in the log, for the fence retries, and out of every keyless surface.

use crate::registry::PromoteOutcome;
use crate::service::Inner;
use sensorsafe_json::{json, Value};
use sensorsafe_net::Request;
use sensorsafe_types::ContributorId;

/// Completed promotions retained for `GET /fleet` (oldest dropped).
pub(crate) const FAILOVER_LOG_CAP: usize = 64;

/// One completed failover promotion.
#[derive(Debug, Clone)]
pub struct FailoverEvent {
    /// The contributor whose assignment moved.
    pub contributor: String,
    /// The deposed primary's address.
    pub from: String,
    /// The promoted replica's address.
    pub to: String,
    /// The new assignment epoch (stale-epoch writes are fenced).
    pub epoch: u64,
    /// Wall-clock time of the promotion.
    pub unix_ms: u64,
    /// Whether the deposed primary has acknowledged its fence yet.
    /// Retried every sweep until true.
    pub fenced: bool,
}

impl FailoverEvent {
    /// The entry `GET /fleet` serves. It needs no key, so it names the
    /// stores and the epoch, not the contributor who moved.
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "from": (self.from.clone()),
            "to": (self.to.clone()),
            "epoch": (self.epoch),
            "unix_ms": (self.unix_ms),
            "fenced": (self.fenced),
        })
    }
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Inner {
    /// One failover pass. Runs at the end of every fleet sweep, after
    /// health evaluation, so it acts on the freshest probe verdicts.
    pub(crate) fn failover_sweep(&self) {
        self.retry_pending_fences();
        for primary in self.registry.store_addrs() {
            if self.fleet.health_of(&primary) != Some(crate::fleet::StoreHealth::Unreachable) {
                continue;
            }
            let Some(replica) = self.registry.replica_of(&primary) else {
                continue;
            };
            // Never promote onto a store that is itself unreachable.
            if self.fleet.health_of(replica.as_str())
                == Some(crate::fleet::StoreHealth::Unreachable)
            {
                continue;
            }
            let Some(replica_record) = self.registry.store_by_addr(replica.as_str()) else {
                continue;
            };
            for contributor in self.registry.contributor_ids() {
                let Some(assignment) = self.registry.assignment_of(&contributor) else {
                    continue;
                };
                if assignment.addr.as_str() != primary {
                    continue;
                }
                match self
                    .registry
                    .promote(&contributor, assignment.epoch, replica.clone())
                {
                    PromoteOutcome::Promoted(epoch) => {
                        self.complete_promotion(&contributor, &primary, &replica_record, epoch);
                    }
                    // A concurrent sweep won the CAS (or the assignment
                    // already moved): the winner owns the notifications.
                    PromoteOutcome::AlreadyPromoted(_)
                    | PromoteOutcome::Stale(_)
                    | PromoteOutcome::Unknown => {}
                }
            }
        }
    }

    /// Post-CAS notifications and bookkeeping for one won promotion.
    fn complete_promotion(
        &self,
        contributor: &ContributorId,
        primary: &str,
        replica_record: &crate::registry::StoreRecord,
        epoch: u64,
    ) {
        // Hand the replica its new epoch and unfence writes. Best
        // effort: replica accounts accept writes by default, so a lost
        // notification does not block the failover.
        let transport = (self.config.transports)(replica_record.addr.as_str());
        let payload = json!({
            "key": (replica_record.register_key.clone()),
            "contributor": (contributor.as_str()),
            "epoch": epoch,
        });
        let _ = transport.round_trip(&Request::post_json("/repl/promote", &payload));
        let fenced = self.try_fence(primary, contributor.as_str(), epoch);
        {
            let mut log = self.failovers.lock();
            log.push_back(FailoverEvent {
                contributor: contributor.as_str().to_string(),
                from: primary.to_string(),
                to: replica_record.addr.as_str().to_string(),
                epoch,
                unix_ms: unix_ms_now(),
                fenced,
            });
            while log.len() > FAILOVER_LOG_CAP {
                log.pop_front();
            }
        }
        self.metrics
            .counter(
                "sensorsafe_broker_failovers_total",
                "Contributor assignments moved to a replica by the failover controller.",
                &[],
            )
            .inc();
    }

    /// Stamps the fence epoch on a deposed primary. Returns whether the
    /// store acknowledged (it is usually unreachable right after the
    /// failover, so this is retried until it lands).
    fn try_fence(&self, primary: &str, contributor: &str, epoch: u64) -> bool {
        let Some(record) = self.registry.store_by_addr(primary) else {
            return false;
        };
        let transport = (self.config.transports)(primary);
        let payload = json!({
            "key": (record.register_key.clone()),
            "contributor": contributor,
            "epoch": epoch,
        });
        transport
            .round_trip(&Request::post_json("/repl/fence", &payload))
            .map(|resp| resp.status.is_success())
            .unwrap_or(false)
    }

    /// Re-attempts the fence for every logged promotion whose deposed
    /// primary has not acknowledged yet.
    fn retry_pending_fences(&self) {
        let pending: Vec<(String, String, u64)> = {
            self.failovers
                .lock()
                .iter()
                .filter(|e| !e.fenced)
                .map(|e| (e.from.clone(), e.contributor.clone(), e.epoch))
                .collect()
        };
        for (primary, contributor, epoch) in pending {
            if self.try_fence(&primary, &contributor, epoch) {
                let mut log = self.failovers.lock();
                for event in log.iter_mut() {
                    if event.from == primary && event.contributor == contributor {
                        event.fenced = true;
                    }
                }
            }
        }
    }
}
