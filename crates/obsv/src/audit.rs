//! Privacy-audit counters and the bridge into the durable ledger.
//!
//! SensorSafe's accountability story needs more than logs: contributors
//! should be able to see, per consumer, how many requests were served as-is,
//! served abstracted, or denied, and how often the dependency-closure rule
//! suppressed extra channels beyond what the consumer asked for. Those
//! counts are emitted from `policy::enforce`, which has no idea which
//! consumer triggered it — the datastore request handler knows. The bridge
//! is a thread-local consumer scope: the handler wraps enforcement in
//! [`consumer_scope`], and [`record_decision`] picks the name up from
//! thread-local storage (requests are served start-to-finish on one worker
//! thread, so this is sound).
//!
//! The same bridge carries the durable record: when the handler also
//! installs a [`ledger_scope`], every decision is appended to that
//! contributor's [`AuditLedger`] with the consumer, matched rule indices,
//! and the request's trace id; the scope's drop waits for the ledger's
//! sync (requested earlier with [`LedgerScope::begin_sync`] when there is
//! a reply to render meanwhile) so the response never outruns its audit
//! trail.
//!
//! Consumer names are attacker-influenced label values (anyone the broker
//! registers), so the counter families cap distinct consumer labels at
//! [`MAX_CONSUMER_LABELS`] and fold the overflow into `"__other__"` —
//! the ledger keeps exact names, the metrics keep bounded cardinality.

use crate::global;
use crate::ledger::{AuditLedger, DecisionRecord};
use crate::trace;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    static CURRENT_CONSUMER: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static CURRENT_LEDGER: RefCell<Vec<(Arc<dyn AuditLedger>, String)>> =
        RefCell::new(Vec::new());
}

/// Most distinct `consumer` label values any one metric family will emit;
/// consumers beyond this are folded into `consumer="__other__"`.
pub const MAX_CONSUMER_LABELS: usize = 64;

/// The fold label for consumers past the cardinality cap.
pub const OTHER_CONSUMER_LABEL: &str = "__other__";

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

/// RAII guard restoring the previous consumer scope on drop.
pub struct ConsumerScope {
    _private: (),
}

impl Drop for ConsumerScope {
    fn drop(&mut self) {
        CURRENT_CONSUMER.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Tags this thread with the consumer on whose behalf the enclosed work
/// runs. Scopes nest; the innermost wins.
pub fn consumer_scope(consumer: impl Into<String>) -> ConsumerScope {
    CURRENT_CONSUMER.with(|stack| stack.borrow_mut().push(consumer.into()));
    ConsumerScope { _private: () }
}

/// The consumer the current thread is serving, or `"unknown"` when
/// enforcement runs outside a request scope (tests, offline tools).
pub fn current_consumer() -> String {
    CURRENT_CONSUMER.with(|stack| {
        stack
            .borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// RAII guard detaching the ledger scope; its drop waits in
/// [`AuditLedger::sync`], so the enclosed decisions are durable before
/// the response leaves. A handler that still has the reply to render
/// calls [`LedgerScope::begin_sync`] after its last decision and drops
/// the guard once the body exists: the disk works meanwhile.
pub struct LedgerScope {
    ledger: Arc<dyn AuditLedger>,
}

impl LedgerScope {
    /// Requests the sync the drop will wait for, without waiting.
    pub fn begin_sync(&self) {
        self.ledger.sync_begin();
    }
}

impl Drop for LedgerScope {
    fn drop(&mut self) {
        CURRENT_LEDGER.with(|stack| stack.borrow_mut().pop());
        self.ledger.sync();
    }
}

/// Routes decisions recorded on this thread into `ledger`, attributed to
/// `contributor` (whose data is being decided over). Scopes nest; the
/// innermost wins.
pub fn ledger_scope(ledger: Arc<dyn AuditLedger>, contributor: impl Into<String>) -> LedgerScope {
    CURRENT_LEDGER.with(|stack| {
        stack
            .borrow_mut()
            .push((ledger.clone(), contributor.into()))
    });
    LedgerScope { ledger }
}

/// The bounded consumer label for `family`: the consumer's own name while
/// the family has seen fewer than [`MAX_CONSUMER_LABELS`] distinct
/// consumers (or this one already has a slot), else
/// [`OTHER_CONSUMER_LABEL`]. Used by every counter family keyed on
/// consumer so an open-registration deployment cannot blow up scrape
/// cardinality.
pub fn consumer_label(family: &str, consumer: &str) -> String {
    static SEEN: OnceLock<Mutex<BTreeMap<String, BTreeSet<String>>>> = OnceLock::new();
    let mut seen = SEEN.get_or_init(|| Mutex::new(BTreeMap::new())).lock();
    let consumers = seen.entry(family.to_string()).or_default();
    if consumers.contains(consumer) {
        return consumer.to_string();
    }
    if consumers.len() < MAX_CONSUMER_LABELS {
        consumers.insert(consumer.to_string());
        return consumer.to_string();
    }
    OTHER_CONSUMER_LABEL.to_string()
}

/// Records one enforcement decision in the global registry:
/// `sensorsafe_policy_decisions_total{consumer, decision}` plus, when the
/// dependency-closure rule suppressed channels, the suppression counters.
/// Decision metadata-free variant of [`record_decision`], kept for callers
/// with no rule provenance.
pub fn record_enforcement(outcome: Outcome, suppressed_channels: u64) {
    record_decision(outcome, suppressed_channels, &[]);
}

/// Records one enforcement decision with its rule provenance: bumps the
/// per-consumer counters (bounded labels) and, when a [`ledger_scope`] is
/// active, appends a [`DecisionRecord`] — exact consumer name, matched
/// rule indices, current trace id — to the contributor's audit ledger.
pub fn record_decision(outcome: Outcome, suppressed_channels: u64, matched_rules: &[u32]) {
    let consumer = current_consumer();
    let label = consumer_label("sensorsafe_policy_decisions_total", &consumer);
    global()
        .counter(
            "sensorsafe_policy_decisions_total",
            "Policy enforcement decisions by consumer and decision.",
            &[("consumer", &label), ("decision", outcome.as_str())],
        )
        .inc();
    if suppressed_channels > 0 {
        let label = consumer_label("sensorsafe_policy_closure_suppressions_total", &consumer);
        global()
            .counter(
                "sensorsafe_policy_closure_suppressions_total",
                "Enforcement decisions in which the dependency-closure rule suppressed at least one channel.",
                &[("consumer", &label)],
            )
            .inc();
        global()
            .counter(
                "sensorsafe_policy_closure_suppressed_channels_total",
                "Channels withheld by the dependency-closure rule.",
                &[("consumer", &label)],
            )
            .add(suppressed_channels);
    }
    let scope = CURRENT_LEDGER.with(|stack| stack.borrow().last().cloned());
    let aware = crate::awareness::current_scope();
    if scope.is_none() && aware.is_none() {
        return;
    }
    // One record serves both sinks: the ledger append and the awareness
    // observation must carry identical fields (timestamp included) so a
    // replay of the chain reproduces the live aggregates byte for byte.
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let contributor = scope
        .as_ref()
        .map(|(_, c)| c.clone())
        .or_else(|| aware.as_ref().map(|(_, c, _)| c.clone()))
        .unwrap_or_default();
    let record = DecisionRecord {
        seq: 0, // assigned by the ledger
        unix_ms,
        trace_id: trace::current_context().map(|c| c.trace_id).unwrap_or(0),
        rule_epoch: aware.as_ref().map(|(_, _, e)| *e).unwrap_or(0),
        contributor,
        consumer,
        matched_rules: matched_rules.to_vec(),
        outcome,
        suppressed_channels,
    };
    if let Some((plane, _, _)) = aware {
        plane.observe(&record);
    }
    if let Some((ledger, _)) = scope {
        ledger.append(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MemoryLedger;

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_consumer(), "unknown");
        {
            let _outer = consumer_scope("alice-doctor");
            assert_eq!(current_consumer(), "alice-doctor");
            {
                let _inner = consumer_scope("bob-insurer");
                assert_eq!(current_consumer(), "bob-insurer");
            }
            assert_eq!(current_consumer(), "alice-doctor");
        }
        assert_eq!(current_consumer(), "unknown");
    }

    #[test]
    fn record_enforcement_counts_by_consumer_and_decision() {
        let _scope = consumer_scope("audit-test-consumer");
        record_enforcement(Outcome::Allowed, 0);
        record_enforcement(Outcome::Allowed, 0);
        record_enforcement(Outcome::Abstracted, 0);
        record_enforcement(Outcome::Denied, 3);

        let get = |decision: &str| {
            global()
                .counter(
                    "sensorsafe_policy_decisions_total",
                    "Policy enforcement decisions by consumer and decision.",
                    &[("consumer", "audit-test-consumer"), ("decision", decision)],
                )
                .get()
        };
        assert_eq!(get("allowed"), 2);
        assert_eq!(get("abstracted"), 1);
        assert_eq!(get("denied"), 1);
        let suppressed = global()
            .counter(
                "sensorsafe_policy_closure_suppressed_channels_total",
                "Channels withheld by the dependency-closure rule.",
                &[("consumer", "audit-test-consumer")],
            )
            .get();
        assert_eq!(suppressed, 3);
    }

    #[test]
    fn outcome_strings() {
        assert_eq!(Outcome::Allowed.as_str(), "allowed");
        assert_eq!(Outcome::Abstracted.as_str(), "abstracted");
        assert_eq!(Outcome::Denied.as_str(), "denied");
    }

    #[test]
    fn consumer_labels_fold_into_other_past_the_cap() {
        // A synthetic family, so this flood cannot steal label slots from
        // the real families other tests (and processes) assert on.
        let family = "sensorsafe_test_cardinality_family";
        for i in 0..MAX_CONSUMER_LABELS {
            assert_eq!(consumer_label(family, &format!("c{i}")), format!("c{i}"));
        }
        // Known consumers keep their slots forever...
        assert_eq!(consumer_label(family, "c0"), "c0");
        assert_eq!(
            consumer_label(family, &format!("c{}", MAX_CONSUMER_LABELS - 1)),
            format!("c{}", MAX_CONSUMER_LABELS - 1)
        );
        // ...newcomers beyond the cap all fold into one label.
        for i in MAX_CONSUMER_LABELS..MAX_CONSUMER_LABELS + 10 {
            assert_eq!(
                consumer_label(family, &format!("c{i}")),
                OTHER_CONSUMER_LABEL
            );
        }
        // Folding is per family: a fresh family still hands out real labels.
        assert_eq!(
            consumer_label("sensorsafe_test_cardinality_family_2", "c9999"),
            "c9999"
        );
    }

    #[test]
    fn decisions_reach_the_scoped_ledger_with_exact_names() {
        let ledger = Arc::new(MemoryLedger::new());
        {
            let _ledger = ledger_scope(ledger.clone() as Arc<dyn AuditLedger>, "alice");
            let _consumer = consumer_scope("ledger-test-consumer");
            record_decision(Outcome::Abstracted, 2, &[1, 4]);
            record_decision(Outcome::Denied, 0, &[2]);
        }
        let records = ledger.recent(10);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].contributor, "alice");
        assert_eq!(records[0].consumer, "ledger-test-consumer");
        assert_eq!(records[0].matched_rules, vec![1, 4]);
        assert_eq!(records[0].outcome, Outcome::Abstracted);
        assert_eq!(records[0].suppressed_channels, 2);
        assert_eq!(records[1].matched_rules, vec![2]);
        assert_eq!(records[1].outcome, Outcome::Denied);
        assert_eq!(records[1].seq, 1);
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
            let _ledger = ledger_scope(ledger.clone() as Arc<dyn AuditLedger>, "alice");
            record_decision(Outcome::Allowed, 0, &[0]);
        }
        assert_eq!(ledger.recent(1)[0].trace_id, ctx.trace_id);
    }
}
