//! Privacy-audit counters and the bridge into the durable ledger.
//!
//! SensorSafe's accountability story needs more than logs: contributors
//! should be able to see, per consumer, how many requests were served as-is,
//! served abstracted, or denied, and how often the dependency-closure rule
//! suppressed extra channels beyond what the consumer asked for. Those
//! decisions are made in `policy::enforce`, which has no idea which
//! consumer triggered it, whose data it is deciding over, or where the
//! record of the decision belongs — the datastore request handler knows.
//! The bridge is one thread-local: the handler installs a [`DecisionScope`]
//! around enforcement, and [`record_decision`] reads it (requests are
//! served start-to-finish on one worker thread, so this is sound).
//!
//! A decision has one destination: the scope's [`AuditLedger`], which
//! records it with the exact consumer name, the matched rule indices and
//! the request's trace id. The ledger folds what it has made durable into
//! its awareness plane ([`AuditLedger::awareness`]), so nothing here
//! feeds the aggregates. Dropping the installed scope waits for the
//! ledger's sync (requested earlier with [`InstalledScope::begin_sync`]
//! when there is a reply to render meanwhile) so the response never
//! outruns its audit trail.
//!
//! The counter families carry no principal names: `/metrics` needs no
//! key, so a consumer label would tell any scraper who reads whose data.
//! The ledger keeps exact names, and the owner reads them per consumer
//! behind a key (`/api/audit`, `/api/privacy/summary`).

use crate::awareness::{FAMILY_BASELINE, FAMILY_RULE_HITS};
use crate::global;
use crate::ledger::{AuditLedger, DecisionRecord};
use crate::trace;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    static DECISION_SCOPES: RefCell<Vec<DecisionScope>> = const { RefCell::new(Vec::new()) };
}

/// The outcome of a single policy enforcement decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Data released at full fidelity.
    Allowed,
    /// Data released, but behavior-abstracted (inference label instead of
    /// raw samples).
    Abstracted,
    /// Request refused outright.
    Denied,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Allowed => "allowed",
            Outcome::Abstracted => "abstracted",
            Outcome::Denied => "denied",
        }
    }
}

/// Everything [`record_decision`] needs to know about the request a
/// decision belongs to.
#[derive(Clone)]
pub struct DecisionScope {
    /// The consumer on whose behalf enforcement runs.
    pub consumer: String,
    /// The contributor whose data is being decided over.
    pub contributor: String,
    /// The contributor's rule epoch live for this request (read under the
    /// same account guard enforcement uses), so rule hits attribute to the
    /// exact rule set that produced them.
    pub rule_epoch: u64,
    /// Where the decision records are appended.
    pub ledger: Arc<dyn AuditLedger>,
}

impl DecisionScope {
    /// Routes the decisions recorded on this thread through this scope
    /// until the returned guard drops. Scopes nest; the innermost wins.
    pub fn install(self) -> InstalledScope {
        let ledger = self.ledger.clone();
        DECISION_SCOPES.with(|stack| stack.borrow_mut().push(self));
        InstalledScope { ledger }
    }
}

/// RAII guard of an installed [`DecisionScope`]; its drop waits in
/// [`AuditLedger::sync`], so the enclosed decisions are durable before
/// the response leaves. A handler that still has the reply to render
/// calls [`InstalledScope::begin_sync`] after its last decision and drops
/// the guard once the body exists: the disk works meanwhile.
pub struct InstalledScope {
    ledger: Arc<dyn AuditLedger>,
}

impl InstalledScope {
    /// Requests the sync the drop will wait for, without waiting.
    pub fn begin_sync(&self) {
        self.ledger.sync_begin();
    }
}

impl Drop for InstalledScope {
    fn drop(&mut self) {
        DECISION_SCOPES.with(|stack| stack.borrow_mut().pop());
        self.ledger.sync();
    }
}

/// Records one enforcement decision with its rule provenance: bumps every
/// per-decision counter (labelled by outcome alone, or not at all) and,
/// inside a [`DecisionScope`], appends one [`DecisionRecord`] to its
/// ledger.
pub fn record_decision(outcome: Outcome, suppressed_channels: u64, matched_rules: &[u32]) {
    global()
        .counter(
            "sensorsafe_policy_decisions_total",
            "Policy enforcement decisions by outcome.",
            &[("decision", outcome.as_str())],
        )
        .inc();
    if matched_rules.is_empty() {
        global()
            .counter(
                FAMILY_BASELINE,
                "Enforcement decisions that matched no rule (outcome from the default baseline).",
                &[],
            )
            .inc();
    } else {
        global()
            .counter(
                FAMILY_RULE_HITS,
                "Rule hits across enforcement decisions (one per matched rule).",
                &[],
            )
            .add(matched_rules.len() as u64);
    }
    if suppressed_channels > 0 {
        global()
            .counter(
                "sensorsafe_policy_closure_suppressions_total",
                "Enforcement decisions in which the dependency-closure rule suppressed at least one channel.",
                &[],
            )
            .inc();
        global()
            .counter(
                "sensorsafe_policy_closure_suppressed_channels_total",
                "Channels withheld by the dependency-closure rule.",
                &[],
            )
            .add(suppressed_channels);
    }
    let scope = DECISION_SCOPES.with(|stack| stack.borrow().last().cloned());
    let Some(scope) = scope else {
        return;
    };
    let record = DecisionRecord {
        seq: 0, // assigned by the ledger
        unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        trace_id: trace::current_context().map(|c| c.trace_id).unwrap_or(0),
        rule_epoch: scope.rule_epoch,
        contributor: scope.contributor,
        consumer: scope.consumer,
        matched_rules: matched_rules.to_vec(),
        outcome,
        suppressed_channels,
    };
    scope.ledger.append(record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MemoryLedger;

    fn scope(consumer: &str, ledger: &Arc<MemoryLedger>) -> DecisionScope {
        DecisionScope {
            consumer: consumer.to_string(),
            contributor: "alice".to_string(),
            rule_epoch: 7,
            ledger: ledger.clone(),
        }
    }

    fn newest_consumer(ledger: &MemoryLedger) -> String {
        ledger.recent(1)[0].consumer.clone()
    }

    #[test]
    fn scope_nests_and_restores() {
        let ledger = Arc::new(MemoryLedger::new());
        {
            let _outer = scope("alice-doctor", &ledger).install();
            record_decision(Outcome::Allowed, 0, &[]);
            assert_eq!(newest_consumer(&ledger), "alice-doctor");
            {
                let _inner = scope("bob-insurer", &ledger).install();
                record_decision(Outcome::Allowed, 0, &[]);
                assert_eq!(newest_consumer(&ledger), "bob-insurer");
            }
            record_decision(Outcome::Allowed, 0, &[]);
            assert_eq!(newest_consumer(&ledger), "alice-doctor");
        }
        // Outside any scope, decisions are counted but reach no ledger.
        record_decision(Outcome::Allowed, 0, &[]);
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn record_decision_counts_by_decision() {
        // The families are process-wide and other tests decide too, so
        // compare before and after rather than absolute values.
        let get = |decision: &str| {
            global()
                .counter(
                    "sensorsafe_policy_decisions_total",
                    "Policy enforcement decisions by outcome.",
                    &[("decision", decision)],
                )
                .get()
        };
        let suppressed = || {
            global()
                .counter(
                    "sensorsafe_policy_closure_suppressed_channels_total",
                    "Channels withheld by the dependency-closure rule.",
                    &[],
                )
                .get()
        };
        let unlabelled = |family: &str| {
            let help = if family == FAMILY_BASELINE {
                "Enforcement decisions that matched no rule (outcome from the default baseline)."
            } else {
                "Rule hits across enforcement decisions (one per matched rule)."
            };
            global().counter(family, help, &[]).get()
        };
        let before = (
            get("allowed"),
            get("abstracted"),
            get("denied"),
            suppressed(),
            unlabelled(FAMILY_BASELINE),
            unlabelled(FAMILY_RULE_HITS),
        );
        let ledger = Arc::new(MemoryLedger::new());
        let _scope = scope("audit-test-consumer", &ledger).install();
        record_decision(Outcome::Allowed, 0, &[]);
        record_decision(Outcome::Allowed, 0, &[]);
        record_decision(Outcome::Abstracted, 0, &[1, 2]);
        record_decision(Outcome::Denied, 3, &[]);
        assert!(get("allowed") >= before.0 + 2);
        assert!(get("abstracted") > before.1);
        assert!(get("denied") > before.2);
        assert!(suppressed() >= before.3 + 3);
        assert!(unlabelled(FAMILY_BASELINE) >= before.4 + 3);
        assert!(unlabelled(FAMILY_RULE_HITS) >= before.5 + 2);
        // No family names the consumer.
        assert!(!global().encode().contains("audit-test-consumer"));
    }

    #[test]
    fn outcome_strings() {
        assert_eq!(Outcome::Allowed.as_str(), "allowed");
        assert_eq!(Outcome::Abstracted.as_str(), "abstracted");
        assert_eq!(Outcome::Denied.as_str(), "denied");
    }

    #[test]
    fn decisions_reach_the_ledger_and_its_plane_with_exact_names() {
        let ledger = Arc::new(MemoryLedger::new());
        let scope = scope("ledger-test-consumer", &ledger);
        let plane = ledger.awareness();
        {
            let _installed = scope.install();
            record_decision(Outcome::Abstracted, 2, &[1, 4]);
            record_decision(Outcome::Denied, 0, &[2]);
        }
        let records = ledger.recent(10);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].contributor, "alice");
        assert_eq!(records[0].consumer, "ledger-test-consumer");
        assert_eq!(records[0].rule_epoch, 7);
        assert_eq!(records[0].matched_rules, vec![1, 4]);
        assert_eq!(records[0].outcome, Outcome::Abstracted);
        assert_eq!(records[0].suppressed_channels, 2);
        assert_eq!(records[1].matched_rules, vec![2]);
        assert_eq!(records[1].outcome, Outcome::Denied);
        assert_eq!(records[1].seq, 1);
        // The ledger's plane folded the records the chain holds.
        let rebuilt = crate::awareness::AwarenessAggregates::rebuild(records.iter());
        assert_eq!(plane.aggregates(), rebuilt);
        // Outside the scope, decisions no longer reach the ledger.
        record_decision(Outcome::Allowed, 0, &[]);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn ledger_records_carry_the_ambient_trace_id() {
        let ledger = Arc::new(MemoryLedger::new());
        let ctx = trace::TraceContext::root();
        {
            let _trace = trace::context_scope(ctx);
            let _installed = scope("bob", &ledger).install();
            record_decision(Outcome::Allowed, 0, &[0]);
        }
        assert_eq!(ledger.recent(1)[0].trace_id, ctx.trace_id);
    }
}
