//! The remote data store's HTTP API surface.
//!
//! Every endpoint follows the paper's §5.4 convention: the caller's API
//! key travels in the body of a POST request (never in the URL, where it
//! would land in logs). The service implements [`sensorsafe_net::Service`]
//! so it can be served over TCP ([`sensorsafe_net::Server`]) or called
//! in-process by the benches.
//!
//! | Endpoint | Who | Purpose |
//! |---|---|---|
//! | `GET /health` | anyone | liveness + stats |
//! | `POST /api/register` | admin key | create contributor/consumer accounts (consumer registration is how the broker escrows keys) |
//! | `POST /api/upload` | contributor | upload wave segments + annotations |
//! | `POST /api/query` | consumer or owner | query a contributor's data through the privacy pipeline |
//! | `POST /api/rules/set` | contributor | replace privacy rules (pushes a sync to the broker) |
//! | `POST /api/rules/get` | contributor | read own rules |
//! | `POST /api/places/set` | contributor | define labeled places |
//! | `GET /ui/*`, `POST /ui/*` | browser | web user interface (see [`crate::web`]) |

use crate::pipeline::{shared_view, write_shared_view_json};
use crate::state::{ConsumerAccount, ContributorAccount, ContributorWriteGuard, DataStoreState};
use crate::upload::Upload;
use parking_lot::Mutex;
use sensorsafe_auth::{ApiKey, KeyRing, PasswordStore, Principal, Role, SessionManager};
use sensorsafe_json::{json, Value};
use sensorsafe_net::{
    str_field, u64_field, Edge, Reply, Request, RequestFamilies, Response, Router, Service, Status,
    Transport,
};
use sensorsafe_obsv::{
    audit, event_line, trace, AuditLedger, MemoryLedger, Registry, TraceRecorder,
};
use sensorsafe_policy::{DependencyGraph, PrivacyRule};
use sensorsafe_store::{repl, MergePolicy, Query, ReplConfig};
use sensorsafe_types::{
    ConsumerId, ContextAnnotation, ContributorId, GroupId, Region, StudyId, WaveSegment,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct DataStoreConfig {
    /// Human-readable server name (shown in the web UI).
    pub name: String,
    /// Merge policy for hosted contributors' stores.
    pub merge: MergePolicy,
    /// Directory for durable storage. `None` keeps all data in memory
    /// (tests, benches); with a directory set, every hosted account
    /// shares one store-wide [`sensorsafe_store::StoreJournal`]
    /// (`<dir>/journal.seg-N` + `<dir>/journal.ckpt`) and contributor
    /// data is recovered from it on registration, so a restarted server
    /// recovers its data. See `docs/OPERATIONS.md` ("Storage engine").
    pub data_dir: Option<std::path::PathBuf>,
    /// Journal segment rotation thresholds (ignored when `data_dir` is
    /// `None`); commits are cut by demand and have no knobs. See
    /// [`sensorsafe_store::JournalConfig`] and `docs/OPERATIONS.md`.
    pub journal: sensorsafe_store::JournalConfig,
}

impl Default for DataStoreConfig {
    fn default() -> Self {
        DataStoreConfig {
            name: "sensorsafe-datastore".to_string(),
            merge: MergePolicy::default(),
            data_dir: None,
            journal: sensorsafe_store::JournalConfig::default(),
        }
    }
}

/// Link to the broker for rule synchronization (§5.2).
pub struct BrokerLink {
    /// Transport to the broker.
    pub transport: Arc<dyn Transport>,
    /// This store's API key on the broker (`Role::Server` there).
    pub store_key: String,
    /// Address consumers should use to reach this store.
    pub store_addr: String,
}

pub(crate) struct Inner {
    pub(crate) config: DataStoreConfig,
    /// The store-wide journal every hosted account stages on:
    /// `Ok(None)` without a `data_dir` (memory-only), `Err` with the
    /// reason when the journal would not open. A store in that state
    /// still starts, so `/healthz` can say why it is degraded, but hosts
    /// no contributor account: acking an upload it cannot make durable
    /// would be a lie, and so would quietly keeping it in memory.
    pub(crate) journal: Result<Option<Arc<sensorsafe_store::StoreJournal>>, String>,
    /// `*.wal` files found in `data_dir` at open: per-account logs of
    /// the retired storage engine, which nothing reads any more.
    /// `/healthz` reports them, since starting empty over them looks
    /// exactly like data loss.
    pub(crate) legacy_wal_files: usize,
    pub(crate) state: DataStoreState,
    pub(crate) keys: KeyRing,
    pub(crate) graph: DependencyGraph,
    pub(crate) broker: Mutex<Option<BrokerLink>>,
    pub(crate) replica: Mutex<Option<crate::repl::ReplicaLink>>,
    /// Contributors whose shipping stream has been handshaken against
    /// the replica's durable high-water this attachment (see
    /// `repl_ship_now`). Cleared on re-attach and on any ship failure,
    /// so a replica restart forces a fresh `/repl/status` check.
    pub(crate) repl_synced: Mutex<BTreeSet<ContributorId>>,
    pub(crate) passwords: PasswordStore,
    pub(crate) sessions: SessionManager,
    pub(crate) registry: Arc<Registry>,
    pub(crate) traces: Arc<TraceRecorder>,
    pub(crate) ledger: Arc<dyn AuditLedger>,
    /// True when the configured file ledger failed verification and
    /// decisions are going to an in-memory fallback; `/healthz` reports
    /// the component as degraded so the condition is visible fleet-wide.
    pub(crate) ledger_fallback: bool,
    pub(crate) started: std::time::Instant,
}

/// The data store service. Cheap to clone (shared state).
#[derive(Clone)]
pub struct DataStoreService {
    inner: Arc<Inner>,
    edge: Arc<Edge>,
}

impl Inner {
    /// Authenticates the `key` field of a request body (§5.4), given as
    /// the string it holds: the caller behind it, or the 401; with
    /// `required`, the 403 it carries unless the caller holds that role.
    /// Every API route passes through here before its handler runs (the
    /// route table in [`DataStoreService::new`] names each route's
    /// requirement).
    fn authenticate(
        &self,
        key: Option<&str>,
        required: Option<(Role, &str)>,
    ) -> Result<Principal, Response> {
        let principal = key
            .and_then(|key| self.keys.authenticate(key))
            .ok_or_else(Response::unauthorized)?;
        match required {
            Some((role, denied)) if principal.role != role => {
                Err(Response::error(Status::Forbidden, denied))
            }
            _ => Ok(principal),
        }
    }

    fn handle_register(&self, _: Principal, body: &Value) -> Reply {
        let name = str_field(body, "name")?;
        if name.is_empty() {
            return Err(Response::bad_request("empty 'name'"));
        }
        let role = role_field(body)?;
        let created = match role {
            Role::Contributor => {
                let mut account = self.open_contributor_account(name)?;
                // A replicated primary ships every account from birth.
                if self.replica.lock().is_some() {
                    account.store.enable_replication(ReplConfig::default());
                }
                // Journal recovery may have restored a non-zero rule set;
                // seed the awareness plane with whatever epoch is live.
                let rule_meta = (account.rule_epoch, account.rules.len());
                let created = self.state.add_contributor(account);
                if created {
                    self.ledger
                        .awareness()
                        .note_rule_set(name, rule_meta.0, rule_meta.1);
                }
                created
            }
            Role::Consumer => self.state.add_consumer(consumer_account(name, body)),
            Role::Server => false,
        };
        if !created {
            return Err(Response::error(Status::Conflict, "account already exists"));
        }
        let key = self.keys.register(Principal {
            name: name.to_string(),
            role,
        });
        // Mirror the account (and its exact key) to the replica so a
        // promoted replica authenticates the same clients. The key is
        // only recoverable here, at mint time — the ring keeps digests.
        let empty = Value::Array(Vec::new());
        self.mirror_registration_to_replica(
            name,
            role.as_str(),
            &key.to_hex(),
            body.get("groups").unwrap_or(&empty),
            body.get("studies").unwrap_or(&empty),
        );
        Ok(Response::json_with_status(
            Status::Created,
            &json!({ "api_key": (key.to_hex()) }),
        ))
    }

    /// Opens (or creates) the hosted account for `name`: in memory
    /// without a data directory, otherwise on the shared journal, where
    /// recovered state (if any) is claimed exactly once inside
    /// [`ContributorAccount::open_journal`]. A store whose journal would
    /// not open hosts nobody: the error is the 500 to answer with.
    fn open_contributor_account(&self, name: &str) -> Result<ContributorAccount, Response> {
        let id = ContributorId::new(name);
        match &self.journal {
            Ok(None) => Ok(ContributorAccount::new(id, self.config.merge)),
            Ok(Some(journal)) => Ok(ContributorAccount::open_journal(
                id,
                journal.clone(),
                self.config.merge,
            )),
            Err(e) => Err(Response::error(
                Status::InternalError,
                &format!("failed to open contributor store: {e}"),
            )),
        }
    }

    /// Creates an empty contributor account if `name` has none yet (the
    /// replica side of replication: accounts materialize on first
    /// mirrored registration or shipped batch). Durable when the store
    /// has a data directory; fails only when its journal would not open.
    fn ensure_contributor_account(&self, name: &str) -> Result<(), Response> {
        let id = ContributorId::new(name);
        if self.state.with_contributor(&id, |_| ()).is_none() {
            // A concurrent insert losing the race is fine: the account exists.
            self.state
                .add_contributor(self.open_contributor_account(name)?);
        }
        Ok(())
    }

    /// `POST /repl/segment` — a primary pushes one sealed replication
    /// batch. Idempotent by `(contributor, seq)`: the replica records the
    /// highest applied sequence in its journal (crash-safe) and skips
    /// anything at or below it, so the primary can re-send after a lost
    /// ack. The batch is applied **atomically** (one journal frame carries
    /// the records and the high-water advance together), so a crash can
    /// never leave a half-applied batch for a re-send to duplicate.
    /// Frames carrying an epoch older than the account's assignment
    /// epoch are rejected — a deposed primary cannot overwrite a promoted
    /// replica.
    fn handle_repl_segment(&self, _: Principal, body: &Value) -> Reply {
        let bytes = repl::from_hex(str_field(body, "batch")?)
            .map_err(|e| Response::bad_request(&format!("bad batch hex: {e}")))?;
        let frame = repl::decode_batch(&bytes)
            .map_err(|e| Response::bad_request(&format!("bad replication frame: {e}")))?;
        self.ensure_contributor_account(&frame.contributor)?;
        let id = ContributorId::new(frame.contributor.as_str());
        let seq = frame.seq;
        let (applied, ticket) = {
            let mut account = self.state.write_contributor(&id).ok_or_else(vanished)?;
            if frame.epoch < account.store.assignment_epoch() {
                return Err(epoch_conflict(
                    "stale_epoch",
                    account.store.assignment_epoch(),
                ));
            }
            match account.store.apply_repl_batch(seq, frame.records) {
                Ok(false) => (false, None),
                Ok(true) => (true, account.store.commit_ticket()),
                Err(e) => return Err(internal("replica apply failed", e)),
            }
        };
        // Same durability contract as /api/upload: the ack promises the
        // batch survives a replica crash, so the fsync must land first.
        wait_durable(ticket, "durable commit failed")?;
        if applied {
            sensorsafe_obsv::global()
                .counter(
                    "sensorsafe_datastore_repl_applied_batches_total",
                    "Replication batches durably applied by this replica.",
                    &[],
                )
                .inc();
        }
        Ok(Response::json(&json!({ "applied": applied, "seq": seq })))
    }

    /// `POST /repl/status` — the shipping primary's handshake. Reports
    /// this replica's durable apply high-water and assignment epoch so a
    /// restarted primary (whose in-memory shipping sequence restarted
    /// from scratch) can detect divergence and trigger a full resync
    /// instead of shipping batches the replica will silently skip.
    fn handle_repl_status(&self, _: Principal, body: &Value) -> Reply {
        let contributor = str_field(body, "contributor")?;
        self.ensure_contributor_account(contributor)?;
        let id = ContributorId::new(contributor);
        let account = self.state.read_contributor(&id).ok_or_else(vanished)?;
        Ok(Response::json(&json!({
            "applied": (account.store.repl_applied()),
            "epoch": (account.store.assignment_epoch()),
            "fenced": (account.store.fenced()),
        })))
    }

    /// `POST /repl/reset` — wipes this replica's copy of one
    /// contributor's data ahead of a full re-snapshot (the primary calls
    /// this when the status handshake shows the streams diverged). The
    /// wipe is durable (a reset marker is journaled) and epoch-guarded: a
    /// deposed primary carrying a stale epoch cannot wipe a promoted
    /// replica, and the assignment epoch/fence survive the reset.
    fn handle_repl_reset(&self, _: Principal, body: &Value) -> Reply {
        let contributor = str_field(body, "contributor")?;
        let epoch = u64_field(body, "epoch")?;
        self.ensure_contributor_account(contributor)?;
        let id = ContributorId::new(contributor);
        let mut account = self.state.write_contributor(&id).ok_or_else(vanished)?;
        let current = account.store.assignment_epoch();
        if epoch < current {
            return Err(epoch_conflict("stale_epoch", current));
        }
        account
            .store
            .repl_reset()
            .map_err(|e| internal("replica reset failed", e))?;
        Ok(Response::json(&json!({ "ok": true })))
    }

    /// `POST /repl/register` — a primary mirrors a freshly minted
    /// account. The replica adopts the *same* API key, so clients keep
    /// authenticating after failover without re-registering.
    fn handle_repl_register(&self, _: Principal, body: &Value) -> Reply {
        let name = str_field(body, "name")?;
        let role = role_field(body)?;
        let key = body
            .get("mirrored_key")
            .and_then(Value::as_str)
            .and_then(ApiKey::parse)
            .ok_or_else(|| Response::bad_request("missing or invalid 'mirrored_key'"))?;
        match role {
            Role::Contributor => self.ensure_contributor_account(name)?,
            Role::Consumer => {
                self.state.add_consumer(consumer_account(name, body));
            }
            Role::Server => return Err(Response::bad_request("server keys are never mirrored")),
        }
        self.keys.register_key(
            &key,
            Principal {
                name: name.to_string(),
                role,
            },
        );
        Ok(Response::json(&json!({ "ok": true })))
    }

    /// `POST /repl/rules` — a primary mirrors a rule change so a promoted
    /// replica enforces the same privacy rules. Epoch-guarded: a stale
    /// mirror never regresses the replica's copy.
    fn handle_repl_rules(&self, _: Principal, body: &Value) -> Reply {
        let contributor = str_field(body, "contributor")?;
        let epoch = u64_field(body, "epoch")?;
        let rules = rules_field(body)?;
        self.ensure_contributor_account(contributor)?;
        let id = ContributorId::new(contributor);
        let current = self
            .state
            .with_contributor_mut(&id, |account| {
                if epoch > account.rule_epoch {
                    account.rules = rules.clone();
                    account.rule_epoch = epoch;
                }
                account.rule_epoch
            })
            .unwrap_or(0);
        if current == epoch {
            // Adopted: the mirrored set is now live on this replica too.
            self.ledger
                .awareness()
                .note_rule_set(contributor, epoch, rules.len());
        }
        Ok(Response::json(&json!({ "epoch": current })))
    }

    /// Shared body of `/repl/fence` and `/repl/promote`: both CAS the
    /// account's assignment epoch forward and set the fenced flag. An
    /// epoch older than the current one is rejected as stale, making both
    /// operations idempotent and safe to retry. The transition is staged
    /// on the journal and the 200 waits for the commit — the broker
    /// stops retrying a fence once acknowledged, so the ack must mean
    /// the fence survives a restart.
    fn repl_set_epoch(&self, body: &Value, fenced: bool) -> Reply {
        let contributor = str_field(body, "contributor")?;
        let epoch = u64_field(body, "epoch")?;
        self.ensure_contributor_account(contributor)?;
        let id = ContributorId::new(contributor);
        let ticket = {
            let mut account = self.state.write_contributor(&id).ok_or_else(vanished)?;
            let current = account.store.assignment_epoch();
            if epoch < current {
                return Err(epoch_conflict("stale_epoch", current));
            }
            account
                .store
                .note_assignment(epoch, fenced)
                .map_err(|e| internal("fence persist failed", e))?;
            account.store.commit_ticket()
        };
        wait_durable(ticket, "fence persist failed")?;
        Ok(Response::json(&json!({ "ok": true, "epoch": epoch })))
    }

    /// `POST /repl/fence` — the broker fences a deposed primary: the
    /// account stops accepting contributor writes and the shipper stops
    /// pushing its batches.
    fn handle_repl_fence(&self, _: Principal, body: &Value) -> Reply {
        self.repl_set_epoch(body, true)
    }

    /// `POST /repl/promote` — the broker promotes this store to primary
    /// for the contributor at the given epoch; writes are (re-)enabled.
    fn handle_repl_promote(&self, _: Principal, body: &Value) -> Reply {
        self.repl_set_epoch(body, false)
    }

    /// Answers a read upload body: authenticated like every API route,
    /// by a contributor's key, then stored.
    pub(crate) fn upload(&self, body: Upload) -> Response {
        let required = Some((Role::Contributor, "only contributors upload data"));
        self.authenticate(body.key.as_deref(), required)
            .and_then(|principal| self.handle_upload(principal, body))
            .unwrap_or_else(|early| early)
    }

    fn handle_upload(&self, principal: Principal, upload: Upload) -> Reply {
        let id = ContributorId::new(principal.name);
        let segments = upload
            .segments
            .map_err(|e| Response::bad_request(&format!("bad segment: {e}")))?;
        let annotations = upload
            .annotations
            .as_ref()
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .map(annotation_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Response::bad_request(&format!("bad annotation: {e}")))?;
        // Optional idempotency token: a client that retries an upload
        // whose response was lost sends the same token again, and the
        // duplicate is answered from the store's token ledger instead of
        // being stored twice.
        let token = upload
            .upload_token
            .map(|v| {
                v.as_str()
                    .and_then(|hex| repl::from_hex(hex).ok())
                    .filter(|token| !token.is_empty())
                    .ok_or_else(|| Response::bad_request("bad 'upload_token': expected hex string"))
            })
            .transpose()?;
        // Stage-then-wait: the account write lock covers only the
        // in-memory mutation and journal *staging*; the fsync wait happens
        // after the lock is released, so concurrent uploads (to this or
        // other accounts) group-commit instead of serializing on disk
        // latency (DESIGN.md §8).
        let (stored, annotated, ticket) = {
            let mut account = self.write_unfenced(&id)?;
            if let Some(token) = token.as_deref() {
                if let Some((stored, annotated)) = account.store.check_upload_token(token) {
                    sensorsafe_obsv::global()
                        .counter(
                            "sensorsafe_datastore_duplicate_uploads_total",
                            "Upload retries answered from the idempotency-token ledger.",
                            &[],
                        )
                        .inc();
                    return Ok(Response::json(&json!({
                        "stored_segments": (stored as usize),
                        "stored_annotations": (annotated as usize),
                        "duplicate": true,
                    })));
                }
            }
            let mut stored = 0usize;
            for seg in segments {
                if account.store.insert_segment(seg).is_ok() {
                    stored += 1;
                }
            }
            let mut annotated = 0usize;
            for ann in annotations {
                if account.store.insert_annotation(ann).is_ok() {
                    annotated += 1;
                }
            }
            if let Some(token) = token {
                account
                    .store
                    .note_upload_token(token, stored as u32, annotated as u32)
                    .map_err(|e| internal("durable commit failed", e))?;
            }
            (stored, annotated, account.store.commit_ticket())
        };
        // Durable mode: make the batch crash-safe before acking. The ack
        // is a durability promise, so a failed commit must be a 500.
        let durable = ticket.is_some();
        wait_durable(ticket, "durable commit failed")?;
        if durable {
            // Process-wide (like the journal fsync counter it pairs with):
            // fsyncs_total / durable_uploads_total is the group-commit
            // coalescing ratio (perf row `store.journal_fsyncs_per_upload`).
            sensorsafe_obsv::global()
                .counter(
                    "sensorsafe_datastore_durable_uploads_total",
                    "Upload requests acked after a durable WAL commit.",
                    &[],
                )
                .inc();
        }
        Ok(Response::json(&json!({
            "stored_segments": stored,
            "stored_annotations": annotated,
        })))
    }

    fn handle_query(&self, principal: Principal, body: &Value) -> Reply {
        trace::phase("auth");
        let contributor = ContributorId::new(str_field(body, "contributor")?);
        let query = match body.get("query") {
            None => Query::all(),
            Some(q) => Query::from_json(q)
                .map_err(|e| Response::bad_request(&format!("bad query: {e}")))?,
        };
        let no_such_contributor = || Response::error(Status::NotFound, "no such contributor");
        // Owners see their own data raw ("view their own data using the
        // web-based interface"); everyone else goes through enforcement.
        let owner = principal.role == Role::Contributor && principal.name == contributor.as_str();
        if owner {
            let segments = self
                .state
                .with_contributor(&contributor, |account| account.store.query(&query))
                .ok_or_else(no_such_contributor)?;
            trace::phase("store_query");
            let mut body = Vec::with_capacity(
                16 + segments
                    .iter()
                    .map(WaveSegment::json_size_hint)
                    .sum::<usize>(),
            );
            body.extend_from_slice(b"{\"segments\":");
            sensorsafe_json::write_array(&mut body, &segments, |body, segment| {
                segment.write_json(body)
            });
            body.push(b'}');
            trace::phase("serialize");
            return Ok(Response::json_bytes(body));
        }
        if principal.role != Role::Consumer {
            return Err(Response::error(Status::Forbidden, "consumers only"));
        }
        let consumer = self
            .state
            .consumer(&ConsumerId::new(principal.name.clone()))
            .ok_or_else(|| Response::error(Status::Forbidden, "consumer not registered here"))?;
        sensorsafe_obsv::global()
            .counter(
                "sensorsafe_audit_requests_total",
                "Consumer data queries entering the enforcement pipeline.",
                &[],
            )
            .inc();
        let ctx = consumer.to_ctx();
        let account = self
            .state
            .read_contributor(&contributor)
            .ok_or_else(no_such_contributor)?;
        // Everything `policy::enforce`, deep in the pipeline, needs to
        // attribute a decision: the consumer (named in the ledger record),
        // the contributor and the rule epoch live for this request (read
        // under the same account guard enforcement uses, so rule hits
        // attribute to the exact rule set that produced them), and the
        // tamper-evident ledger, which feeds the awareness plane.
        let decisions = audit::DecisionScope {
            consumer: principal.name,
            contributor: contributor.as_str().to_string(),
            rule_epoch: account.rule_epoch,
            ledger: self.ledger.clone(),
        }
        .install();
        let view = shared_view(&account, &ctx, &query, &self.graph);
        // The view shares the store's blobs by reference count, so the
        // account guard is not needed while its text is written.
        drop(account);
        // Every decision of this request is appended: the ledger's sync
        // thread makes them durable while the reply is rendered (stage
        // under the lock, wait after release — DESIGN.md §8).
        decisions.begin_sync();
        let mut body = Vec::new();
        write_shared_view_json(&view, &mut body);
        // Stamped once the body bytes exist: rendering the numbers is the
        // largest single cost of a query and belongs to this phase.
        trace::phase("serialize");
        // The reply is not released before both of the round's syncs have
        // returned (or the ledger has failed, which `/healthz` reports):
        // this is the wait left over after rendering.
        drop(decisions);
        trace::phase("audit_sync");
        Ok(Response::json_bytes(body))
    }

    fn handle_rules_set(&self, principal: Principal, body: &Value) -> Reply {
        let rules = rules_field(body)?;
        let id = ContributorId::new(principal.name);
        let (epoch, synced) = self.replace_rules(&id, |_| rules)?;
        Ok(Response::json(
            &json!({ "epoch": epoch, "broker_synced": synced }),
        ))
    }

    /// Replaces a contributor's rule set with `edit(current rules)` and
    /// tells everyone who keeps a copy: the awareness plane (dead-rule
    /// findings are per epoch), the broker's mirror and the replica. The
    /// API and the web form both change rules through here. Returns the
    /// new epoch and whether the broker acknowledged.
    pub(crate) fn replace_rules(
        &self,
        id: &ContributorId,
        edit: impl FnOnce(&[PrivacyRule]) -> Vec<PrivacyRule>,
    ) -> Result<(u64, bool), Response> {
        let (epoch, rules) = {
            let mut account = self.write_unfenced(id)?;
            let rules = edit(&account.rules);
            (account.set_rules(rules.clone()), rules)
        };
        self.ledger
            .awareness()
            .note_rule_set(id.as_str(), epoch, rules.len());
        let synced = self.push_rules_to_broker(id, epoch, &rules);
        self.mirror_rules_to_replica(id.as_str(), epoch, &PrivacyRule::rules_to_json(&rules));
        Ok((epoch, synced))
    }

    /// Exclusive access to a hosted account that still takes its
    /// contributor's writes, or the 404 / the fence's 409. After a
    /// failover this store is no longer the contributor's primary:
    /// rejecting with the new epoch lets the client re-resolve the
    /// assignment at the broker and retry.
    fn write_unfenced(&self, id: &ContributorId) -> Result<ContributorWriteGuard, Response> {
        let account = self.state.write_contributor(id).ok_or_else(no_account)?;
        if account.store.fenced() {
            return Err(epoch_conflict("fenced", account.store.assignment_epoch()));
        }
        Ok(account)
    }

    /// Pushes one contributor's rules to the broker. Returns whether the
    /// broker acknowledged ("remote data stores automatically communicate
    /// with the broker to synchronize the privacy rules", §5.2).
    fn push_rules_to_broker(
        &self,
        contributor: &ContributorId,
        epoch: u64,
        rules: &[PrivacyRule],
    ) -> bool {
        let guard = self.broker.lock();
        let Some(link) = guard.as_ref() else {
            return false;
        };
        let payload = json!({
            "key": (link.store_key.clone()),
            "contributor": (contributor.as_str()),
            "store_addr": (link.store_addr.clone()),
            "epoch": epoch,
            "rules": (PrivacyRule::rules_to_json(rules)),
        });
        link.transport
            .round_trip(&Request::post_json("/api/sync", &payload))
            .map(|resp| resp.status.is_success())
            .unwrap_or(false)
    }

    fn handle_rules_get(&self, principal: Principal, _: &Value) -> Reply {
        let id = ContributorId::new(principal.name);
        let account = self.state.read_contributor(&id).ok_or_else(no_account)?;
        Ok(Response::json(&json!({
            "rules": (PrivacyRule::rules_to_json(&account.rules)),
            "epoch": (account.rule_epoch),
        })))
    }

    fn handle_places_set(&self, principal: Principal, body: &Value) -> Reply {
        let items = body
            .get("places")
            .and_then(Value::as_array)
            .ok_or_else(|| Response::bad_request("missing 'places'"))?;
        let mut places = Vec::with_capacity(items.len());
        for item in items {
            let Some(label) = item.get("label").and_then(Value::as_str) else {
                return Err(Response::bad_request("place missing 'label'"));
            };
            let get = |k: &str| item.path(&format!("region.{k}")).and_then(Value::as_f64);
            let (Some(south), Some(north), Some(west), Some(east)) =
                (get("south"), get("north"), get("west"), get("east"))
            else {
                return Err(Response::bad_request("place missing region bounds"));
            };
            if south > north {
                return Err(Response::bad_request("place region south above north"));
            }
            places.push((label.to_string(), Region::new(south, north, west, east)));
        }
        let id = ContributorId::new(principal.name);
        self.state
            .with_contributor_mut(&id, |account| account.places = places)
            .ok_or_else(no_account)?;
        Ok(Response::json(&json!({ "ok": true })))
    }

    /// `POST /api/audit` — the contributor-facing audit query (§3's
    /// oversight requirement: owners can see exactly which consumers got
    /// what). The key travels in the body per §5.4. Contributors see
    /// their own enforcement history; the admin key may pass an explicit
    /// `contributor` filter (or none, for the whole ledger).
    fn handle_audit(&self, principal: Principal, body: &Value) -> Reply {
        let contributor_filter = match principal.role {
            Role::Contributor => Some(principal.name.clone()),
            Role::Server => body
                .get("contributor")
                .and_then(Value::as_str)
                .map(str::to_string),
            Role::Consumer => {
                return Err(Response::error(
                    Status::Forbidden,
                    "the audit ledger is owner- and operator-facing",
                ))
            }
        };
        // Filtering is pushed down into the ledger backend: one backward
        // scan, only the page's rows are cloned (never the whole ledger).
        let page = self.ledger.page(&sensorsafe_obsv::AuditFilter {
            contributor: contributor_filter,
            consumer: body
                .get("consumer")
                .and_then(Value::as_str)
                .map(str::to_string),
            from_ms: body.get("from_ms").and_then(Value::as_u64),
            to_ms: body.get("to_ms").and_then(Value::as_u64),
            before: body.get("before").and_then(Value::as_u64),
            limit: body
                .get("limit")
                .and_then(Value::as_u64)
                .unwrap_or(100)
                .min(1_000) as usize,
        });
        let decisions: Vec<Value> = page
            .records
            .iter()
            .map(|r| {
                json!({
                    "seq": (r.seq),
                    "unix_ms": (r.unix_ms),
                    "trace_id": (format!("{:016x}", r.trace_id)),
                    "rule_epoch": (r.rule_epoch),
                    "contributor": (r.contributor.clone()),
                    "consumer": (r.consumer.clone()),
                    "outcome": (r.outcome.as_str()),
                    "matched_rules": (Value::Array(
                        r.matched_rules.iter().map(|&i| Value::from(i as u64)).collect(),
                    )),
                    "suppressed_channels": (r.suppressed_channels),
                })
            })
            .collect();
        Ok(Response::json(&json!({
            "decisions": (Value::Array(decisions)),
            "matched": (page.matched),
            "ledger_len": (self.ledger.len()),
        })))
    }

    /// `POST /api/privacy/summary` — the sharing-awareness plane's JSON
    /// face (§6's posture-inspection walkthroughs, made queryable). The
    /// key travels in the body per §5.4. Contributors see their own
    /// summary; the admin key passes an explicit `contributor`; consumers
    /// are refused — this surface is about them, not for them.
    fn handle_privacy_summary(&self, principal: Principal, body: &Value) -> Reply {
        let contributor = match principal.role {
            Role::Contributor => principal.name,
            Role::Server => str_field(body, "contributor")?.to_string(),
            Role::Consumer => {
                return Err(Response::error(
                    Status::Forbidden,
                    "the privacy summary is owner- and operator-facing",
                ))
            }
        };
        let summary = self.ledger.awareness().contributor_summary(&contributor);
        Ok(Response::json(&privacy_summary_json(
            &contributor,
            &summary,
        )))
    }

    fn handle_health(&self) -> Response {
        Response::json(&json!({
            "ok": true,
            "server": (self.config.name.clone()),
            "contributors": (self.state.contributor_count()),
        }))
    }

    /// The newest rule epoch across hosted contributors — the epoch the
    /// broker's mirror should have caught up to.
    fn latest_rule_epoch(&self) -> u64 {
        self.state
            .contributor_ids()
            .into_iter()
            .filter_map(|id| self.state.with_contributor(&id, |a| a.rule_epoch))
            .max()
            .unwrap_or(0)
    }

    /// Liveness plus component health. Always HTTP 200 — liveness probes
    /// must keep passing while the process can answer at all — but the
    /// body's `status` drops to `degraded` when a component is impaired
    /// (a journal that would not open or whose commit failed, legacy
    /// `*.wal` files nothing reads, the audit ledger running on its
    /// in-memory fallback, or a ledger that can no longer sync to disk),
    /// which the broker's fleet health plane reads.
    fn handle_healthz(&self) -> Response {
        let journal_error = match &self.journal {
            Err(e) => Some(e.clone()),
            Ok(journal) => journal.as_ref().and_then(|j| j.sticky_error()),
        };
        let wal_status = match journal_error {
            Some(err) => format!("error: {err}"),
            None if self.legacy_wal_files > 0 => format!(
                "ignoring {} legacy *.wal files in the data directory",
                self.legacy_wal_files
            ),
            None => "ok".to_string(),
        };
        let ledger_status = if self.ledger_fallback {
            "fallback_memory"
        } else if self.ledger.sync_error().is_some() {
            "failed"
        } else {
            "ok"
        };
        let degraded = wal_status != "ok" || ledger_status != "ok";
        Response::json(&json!({
            "status": (if degraded { "degraded" } else { "ok" }),
            "version": (env!("CARGO_PKG_VERSION")),
            "uptime_secs": (self.started.elapsed().as_secs()),
            "rule_sync_epoch": (self.latest_rule_epoch()),
            "components": {
                "wal": (wal_status),
                "audit_ledger": (ledger_status),
            },
        }))
    }
}

/// How many `*.wal` files `dir` holds (0 when it cannot be listed).
fn count_wal_files(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "wal"))
        .count()
}

/// The 409 of a store that is not (or no longer) the contributor's
/// primary at the caller's epoch: `error` says why, `epoch` is the
/// assignment epoch to re-resolve against.
fn epoch_conflict(error: &str, epoch: u64) -> Response {
    Response::json_with_status(Status::Conflict, &json!({ "error": error, "epoch": epoch }))
}

fn no_account() -> Response {
    Response::error(Status::NotFound, "no such contributor account")
}

fn internal(what: &str, e: impl std::fmt::Display) -> Response {
    Response::error(Status::InternalError, &format!("{what}: {e}"))
}

/// A replica-side account that [`Inner::ensure_contributor_account`] just
/// made sure of is gone again.
fn vanished() -> Response {
    Response::error(Status::InternalError, "replica account vanished")
}

/// Waits for a staged commit, if the store is durable. The 200 after it
/// is a durability promise, so a failed commit is the 500 `what` names.
fn wait_durable(
    ticket: Option<sensorsafe_store::JournalTicket>,
    what: &str,
) -> Result<(), Response> {
    ticket.map_or(Ok(()), |ticket| {
        ticket.wait().map_err(|e| internal(what, e))
    })
}

fn role_field(body: &Value) -> Result<Role, Response> {
    body.get("role")
        .and_then(Value::as_str)
        .and_then(Role::parse)
        .ok_or_else(|| Response::bad_request("missing or invalid 'role'"))
}

/// The body's `rules`: a rule array, or one rule.
fn rules_field(body: &Value) -> Result<Vec<PrivacyRule>, Response> {
    let rules = body
        .get("rules")
        .ok_or_else(|| Response::bad_request("missing 'rules'"))?;
    PrivacyRule::rules_from_json(rules).map_err(|e| Response::bad_request(&e.to_string()))
}

/// The consumer account a registration body describes.
fn consumer_account(name: &str, body: &Value) -> ConsumerAccount {
    let list = |field| {
        body.get(field)
            .and_then(Value::as_string_list)
            .unwrap_or_default()
    };
    ConsumerAccount {
        id: ConsumerId::new(name),
        groups: list("groups").into_iter().map(GroupId::new).collect(),
        studies: list("studies").into_iter().map(StudyId::new).collect(),
    }
}

fn annotation_from_json(value: &Value) -> Result<ContextAnnotation, String> {
    let start = value
        .path("window.start")
        .and_then(Value::as_i64)
        .ok_or("annotation missing window.start")?;
    let end = value
        .path("window.end")
        .and_then(Value::as_i64)
        .ok_or("annotation missing window.end")?;
    if end < start {
        return Err("annotation window end before start".into());
    }
    let states_json = value
        .get("states")
        .and_then(Value::as_array)
        .ok_or("annotation missing states")?;
    let mut states = Vec::with_capacity(states_json.len());
    for s in states_json {
        let kind = s
            .get("kind")
            .and_then(Value::as_str)
            .and_then(sensorsafe_types::ContextKind::parse)
            .ok_or("bad state kind")?;
        let active = s
            .get("active")
            .and_then(Value::as_bool)
            .ok_or("bad state active flag")?;
        states.push(sensorsafe_types::ContextState { kind, active });
    }
    Ok(ContextAnnotation::new(
        sensorsafe_types::TimeRange::new(
            sensorsafe_types::Timestamp::from_millis(start),
            sensorsafe_types::Timestamp::from_millis(end),
        ),
        states,
    ))
}

/// Serializes an annotation to the upload wire form (client side).
pub fn annotation_to_json(ann: &ContextAnnotation) -> Value {
    json!({
        "window": {
            "start": (ann.window.start.millis()),
            "end": (ann.window.end.millis()),
        },
        "states": (Value::Array(
            ann.states
                .iter()
                .map(|s| json!({"kind": (s.kind.as_str()), "active": (s.active)}))
                .collect(),
        )),
    })
}

/// Serializes a [`sensorsafe_obsv::ContributorSummary`] into the
/// `/api/privacy/summary` response shape (shared with `/ui/privacy`).
fn privacy_summary_json(contributor: &str, summary: &sensorsafe_obsv::ContributorSummary) -> Value {
    let consumers: Vec<Value> = summary
        .consumers
        .iter()
        .map(|f| {
            json!({
                "consumer": (f.consumer.clone()),
                "allowed": (f.counts.allowed),
                "abstracted": (f.counts.abstracted),
                "denied": (f.counts.denied),
                "baseline": (f.counts.baseline),
                "total": (f.counts.total()),
                "baseline_only": (f.baseline_only),
            })
        })
        .collect();
    let rule_hits: Vec<Value> = summary
        .rule_hits
        .iter()
        .map(|r| {
            json!({
                "epoch": (r.epoch),
                "rule": (r.rule as u64),
                "hits": (r.hits),
                "last_unix_ms": (r.last_unix_ms),
                "current": (r.current),
            })
        })
        .collect();
    let trend: Vec<Value> = summary
        .trend
        .iter()
        .map(|p| {
            json!({
                "bucket_unix_secs": (p.bucket_unix_secs),
                "allowed": (p.allowed),
                "abstracted": (p.abstracted),
                "denied": (p.denied),
            })
        })
        .collect();
    let dead_rules: Vec<Value> = summary
        .dead_rules
        .iter()
        .map(|&r| Value::from(r as u64))
        .collect();
    let baseline_only: Vec<Value> = summary
        .baseline_only_consumers
        .iter()
        .map(|c| Value::from(c.clone()))
        .collect();
    json!({
        "contributor": (contributor.to_string()),
        "rule_epoch": (summary.rule_epoch),
        "rule_count": (summary.rule_count as u64),
        "decisions": (json!({
            "allowed": (summary.counts.allowed),
            "abstracted": (summary.counts.abstracted),
            "denied": (summary.counts.denied),
            "baseline": (summary.counts.baseline),
            "total": (summary.counts.total()),
        })),
        "suppressed_channels": (summary.suppressed_channels),
        "last_unix_ms": (summary.last_unix_ms),
        "consumers": (Value::Array(consumers)),
        "rule_hits": (Value::Array(rule_hits)),
        "dead_rules": (Value::Array(dead_rules)),
        "baseline_only_consumers": (Value::Array(baseline_only)),
        "trend": (Value::Array(trend)),
        "aggregates_digest": (summary.digest.clone()),
        "ledger_len": (summary.ledger_len),
    })
}

impl DataStoreService {
    /// Builds a service. Returns the service plus the **admin key** (a
    /// `Role::Server` credential the operator uses to create accounts
    /// and that the broker uses for escrowed consumer registration).
    pub fn new(config: DataStoreConfig) -> (DataStoreService, ApiKey) {
        let state = DataStoreState::new();
        // The audit ledger is durable alongside the journal when a data
        // directory is configured. A ledger that fails verification is
        // never silently adopted: the file is left untouched for offline
        // forensics (docs/OPERATIONS.md) and decisions go to a fresh
        // in-memory ledger so enforcement keeps being recorded.
        let mut ledger_fallback = false;
        let ledger: Arc<dyn AuditLedger> = match &config.data_dir {
            None => Arc::new(MemoryLedger::new()),
            Some(dir) => match sensorsafe_store::FileLedger::open(dir.join("audit.ledger")) {
                Ok(ledger) => Arc::new(ledger),
                Err(e) => {
                    eprintln!(
                        "{}",
                        event_line(
                            "audit_ledger_rejected",
                            &[("server", &config.name), ("error", &e.to_string())],
                        )
                    );
                    ledger_fallback = true;
                    Arc::new(MemoryLedger::new())
                }
            },
        };
        // One shared journal for every hosted account. An open failure
        // (corrupt checkpoint, unwritable directory) is remembered, not
        // worked around: the server starts so /healthz can report it, and
        // refuses to host accounts it could not make durable.
        let journal = match &config.data_dir {
            None => Ok(None),
            Some(dir) => match sensorsafe_store::StoreJournal::open(dir, config.journal) {
                Ok(journal) => Ok(Some(Arc::new(journal))),
                Err(e) => {
                    eprintln!(
                        "{}",
                        event_line(
                            "journal_open_failed",
                            &[("server", &config.name), ("error", &e.to_string())],
                        )
                    );
                    Err(format!("journal open failed: {e}"))
                }
            },
        };
        let legacy_wal_files = config.data_dir.as_deref().map_or(0, count_wal_files);
        if legacy_wal_files > 0 {
            eprintln!(
                "{}",
                event_line(
                    "legacy_wal_files_ignored",
                    &[
                        ("server", &config.name),
                        ("count", &legacy_wal_files.to_string()),
                    ],
                )
            );
        }
        let traces = TraceRecorder::new(256);
        traces.set_slow_threshold(sensorsafe_obsv::trace::slow_threshold_from_env());
        let inner = Arc::new(Inner {
            config,
            journal,
            legacy_wal_files,
            state,
            keys: KeyRing::new(),
            graph: DependencyGraph::paper(),
            broker: Mutex::new(None),
            replica: Mutex::new(None),
            repl_synced: Mutex::new(BTreeSet::new()),
            passwords: PasswordStore::new(),
            sessions: SessionManager::new(),
            registry: Arc::new(Registry::new()),
            traces,
            ledger,
            ledger_fallback,
            started: std::time::Instant::now(),
        });
        let admin_key = inner.keys.register(Principal {
            name: "admin".to_string(),
            role: Role::Server,
        });
        if let Ok(Some(journal)) = &inner.journal {
            // Checkpoint source: snapshot every hosted account under its
            // write lock. `high_seq` MUST be read under that same lock
            // (atomically with the record snapshot) or records staged in
            // between would be lost or duplicated on replay. Accounts the
            // journal recovered but nobody re-registered yet are carried
            // forward by the journal itself. Weak references keep the
            // journal's background threads from leaking the whole server.
            let weak = Arc::downgrade(&inner);
            let source_journal = Arc::downgrade(journal);
            journal.register_checkpoint_source(Box::new(move || {
                let (Some(inner), Some(journal)) = (weak.upgrade(), source_journal.upgrade())
                else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for id in inner.state.contributor_ids() {
                    let entry = inner.state.with_contributor_mut(&id, |a| {
                        sensorsafe_store::CheckpointAccount {
                            name: id.as_str().to_string(),
                            high_seq: journal.account_seq(id.as_str()),
                            records: a.store.snapshot_records(),
                            rule_epoch: a.rule_epoch,
                            repl_head: a.store.repl_seal_head(),
                        }
                    });
                    out.extend(entry);
                }
                out
            }));
            // GC gate: a checkpointed segment may only be deleted once
            // the replica has acked everything the checkpoint says was
            // sealed for shipping (PR 6's `repl_acked_seq`). `None` for
            // an account without replication enabled — safe, because
            // enabling replication always starts from a full snapshot.
            let weak = Arc::downgrade(&inner);
            journal.register_gc_gate(Box::new(move |name: &str| {
                let inner = weak.upgrade()?;
                let id = ContributorId::new(name);
                inner
                    .state
                    .with_contributor(&id, |a| {
                        a.store.repl_enabled().then(|| a.store.repl_acked_seq())
                    })
                    .flatten()
            }));
        }
        // No route here is declared non-blocking (`sensorsafe_net::Service::
        // blocking`), so the handler pool runs them all: every upload and
        // query waits on a journal or ledger sync, and `/healthz` reads each
        // hosted account under its lock, where it queues behind the
        // checkpoint thread re-serialising that account — milliseconds an
        // event loop must not spend. `tests/evented_core.rs` pins the
        // (empty) set.
        let mut router = Router::new();
        {
            let inner = inner.clone();
            router.get("/health", move |_, _| inner.handle_health());
        }
        {
            let inner = inner.clone();
            router.get("/healthz", move |_, _| inner.handle_healthz());
        }
        {
            // The upload body is read from its text, not parsed to a tree
            // (`crate::upload`), and authenticates in `Inner::upload`; a
            // body that is no JSON document gets the 400 every JSON route
            // gives it.
            let inner = inner.clone();
            router.post("/api/upload", move |request, _| {
                match Upload::read(&request.body) {
                    Ok(body) => inner.upload(body),
                    Err(e) => Response::bad_request(&format!("invalid JSON body: {e}")),
                }
            });
        }
        // Every other API route: who may call it (the role its key must
        // hold and the 403 otherwise; `None` = the handler decides by role)
        // and the handler the authenticated caller is passed to.
        type Handler = fn(&Inner, Principal, &Value) -> Reply;
        type Required = Option<(Role, &'static str)>;
        let contributor = |denied| Some((Role::Contributor, denied));
        let edit_rules = contributor("only contributors edit their rules");
        let read_rules = contributor("only contributors read their rules");
        let edit_places = contributor("only contributors edit their places");
        let admin = "registration requires the admin or broker key";
        let admin = Some((Role::Server, admin));
        let repl = Some((Role::Server, "replication requires a server key"));
        let fence = Some((Role::Server, "fencing requires a server key"));
        let api: [(&str, Required, Handler); 14] = [
            ("/api/register", admin, Inner::handle_register),
            ("/api/query", None, Inner::handle_query),
            ("/api/rules/set", edit_rules, Inner::handle_rules_set),
            ("/api/rules/get", read_rules, Inner::handle_rules_get),
            ("/api/places/set", edit_places, Inner::handle_places_set),
            ("/api/audit", None, Inner::handle_audit),
            ("/api/privacy/summary", None, Inner::handle_privacy_summary),
            ("/repl/segment", repl, Inner::handle_repl_segment),
            ("/repl/register", repl, Inner::handle_repl_register),
            ("/repl/rules", repl, Inner::handle_repl_rules),
            ("/repl/fence", fence, Inner::handle_repl_fence),
            ("/repl/promote", fence, Inner::handle_repl_promote),
            ("/repl/status", repl, Inner::handle_repl_status),
            ("/repl/reset", repl, Inner::handle_repl_reset),
        ];
        for (path, required, handler) in api {
            let inner = inner.clone();
            router.post_json(path, move |body| {
                let key = body.get("key").and_then(Value::as_str);
                handler(&inner, inner.authenticate(key, required)?, body)
            });
        }
        crate::web::mount(&mut router, &inner);
        let edge = Edge::new(
            router,
            RequestFamilies {
                seconds: (
                    "sensorsafe_datastore_request_seconds",
                    "Data store request latency by endpoint.",
                ),
                total: (
                    "sensorsafe_datastore_requests_total",
                    "Data store requests by endpoint and status code.",
                ),
            },
            inner.registry.clone(),
            inner.traces.clone(),
        );
        (
            DataStoreService {
                inner,
                edge: Arc::new(edge),
            },
            admin_key,
        )
    }

    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Inner {
        &self.inner
    }

    /// Attaches the broker link used for automatic rule sync.
    pub fn attach_broker(&self, link: BrokerLink) {
        *self.inner.broker.lock() = Some(link);
    }

    /// Attaches a replica link, turning this store into a replicated
    /// primary: every hosted account starts buffering sealed batches for
    /// the shipper (existing data is snapshotted into the first batches),
    /// and new registrations/rule changes are mirrored as they happen.
    /// Pair the replica **before** registering contributors if you need
    /// their keys mirrored — keys are only recoverable at mint time.
    pub fn attach_replica(&self, link: crate::repl::ReplicaLink) {
        *self.inner.replica.lock() = Some(link);
        // Force a fresh /repl/status handshake per contributor: the new
        // replica may hold anything from nothing to a full copy, and the
        // shipper must compare high-waters before trusting its acks.
        self.inner.repl_synced.lock().clear();
        for id in self.inner.state.contributor_ids() {
            self.inner
                .state
                .with_contributor_mut(&id, |a| a.store.enable_replication(ReplConfig::default()));
        }
    }

    /// The attached replica's address, if any.
    pub fn replica_addr(&self) -> Option<String> {
        self.inner.replica.lock().as_ref().map(|l| l.addr.clone())
    }

    /// Runs one synchronous shipping pass (deterministic tests; the
    /// production path is [`DataStoreService::spawn_repl_shipper`]).
    /// Returns the number of batches the replica acked.
    pub fn repl_ship_now(&self) -> usize {
        self.inner.repl_ship_now()
    }

    /// Spawns the `repl-shipper` background thread, which runs a shipping
    /// pass every `interval`. The returned handle stops and joins the
    /// thread on drop.
    pub fn spawn_repl_shipper(&self, interval: std::time::Duration) -> crate::repl::ReplShipper {
        crate::repl::ReplShipper::spawn(self.inner.clone(), interval)
    }

    /// Direct access to server state (in-process composition and tests).
    pub fn state(&self) -> &DataStoreState {
        &self.inner.state
    }

    /// The server's dependency graph.
    pub fn graph(&self) -> &DependencyGraph {
        &self.inner.graph
    }

    /// Creates a web-UI login (operator provisioning).
    pub fn create_web_user(&self, username: &str, password: &str) -> bool {
        self.inner.passwords.create_user(username, password)
    }

    /// This instance's metrics registry (scraped via `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Recent request traces, oldest first.
    pub fn recent_traces(&self) -> Vec<sensorsafe_obsv::Trace> {
        self.inner.traces.recent_traces()
    }

    /// The routes a server may run inline on its event loops, as
    /// `"<METHOD> <pattern>"` — none (the route table in
    /// [`DataStoreService::new`] says why).
    pub fn non_blocking_routes(&self) -> Vec<String> {
        self.edge.non_blocking_routes()
    }

    /// The enforcement-decision audit ledger (file-backed when the store
    /// has a data directory, in-memory otherwise).
    pub fn audit_ledger(&self) -> Arc<dyn AuditLedger> {
        self.inner.ledger.clone()
    }

    /// The sharing-awareness plane: the audit ledger's fold of its
    /// durable decisions. Tests compare its aggregates against a ledger
    /// replay.
    pub fn awareness(&self) -> &sensorsafe_obsv::AwarenessPlane {
        self.inner.ledger.awareness()
    }

    /// A snapshot of the shared journal's segment/checkpoint bookkeeping,
    /// or `None` when this store runs in-memory (or its journal would not
    /// open). Operators get the same numbers as metrics; benches and
    /// tests use this to assert rotation and GC actually happened.
    pub fn journal_stats(&self) -> Option<sensorsafe_store::JournalStats> {
        let journal = self.inner.journal.as_ref().ok()?.as_ref()?;
        Some(journal.stats())
    }
}

impl Service for DataStoreService {
    fn handle(&self, request: &Request) -> Response {
        self.edge.handle(request)
    }

    fn blocking(&self, request: &Request) -> bool {
        self.edge.blocking(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_sim::Scenario;
    use sensorsafe_types::Timestamp;

    fn service() -> (DataStoreService, String) {
        let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
        (svc, admin.to_hex())
    }

    fn register(svc: &DataStoreService, admin: &str, name: &str, role: &str) -> String {
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": admin, "name": name, "role": role}),
        ));
        assert_eq!(resp.status, Status::Created, "{:?}", resp.json_body());
        resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string()
    }

    fn upload_alice_day(svc: &DataStoreService, alice_key: &str) -> usize {
        let scenario = Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 9, 1);
        let rendered = scenario.render();
        let segments: Vec<Value> = rendered
            .all_segments()
            .iter()
            .map(WaveSegment::to_json)
            .collect();
        let annotations: Vec<Value> = rendered
            .annotations
            .iter()
            .map(annotation_to_json)
            .collect();
        let count = segments.len();
        let resp = svc.handle(&Request::post_json(
            "/api/upload",
            &json!({
                "key": alice_key,
                "segments": (Value::Array(segments)),
                "annotations": (Value::Array(annotations)),
            }),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        assert_eq!(
            resp.json_body().unwrap()["stored_segments"].as_u64(),
            Some(count as u64)
        );
        count
    }

    #[test]
    fn metrics_name_no_principal() {
        // `/metrics` needs no key, so a principal name on it would tell
        // any scraper who reads whose data. Distinctive names make a
        // leak through any family (or a label fold) visible as a
        // substring.
        const CONTRIBUTOR: &str = "alice-7f3a9";
        const CONSUMER: &str = "bob-7f3a9";
        let (primary, admin) = service();
        let (replica, replica_admin) = DataStoreService::new(DataStoreConfig {
            name: "replica".to_string(),
            ..DataStoreConfig::default()
        });
        primary.attach_replica(crate::repl::ReplicaLink {
            addr: "replica:0".to_string(),
            transport: Arc::new(sensorsafe_net::LocalTransport::new(Arc::new(
                replica.clone(),
            ))),
            repl_key: replica_admin.to_hex(),
        });
        let alice = register(&primary, &admin, CONTRIBUTOR, "contributor");
        let bob = register(&primary, &admin, CONSUMER, "consumer");
        upload_alice_day(&primary, &alice);
        let query = |rules: Value| {
            let resp = primary.handle(&Request::post_json(
                "/api/rules/set",
                &json!({"key": (alice.clone()), "rules": (rules)}),
            ));
            assert_eq!(resp.status, Status::Ok);
            let resp = primary.handle(&Request::post_json(
                "/api/query",
                &json!({"key": (bob.clone()), "contributor": CONTRIBUTOR}),
            ));
            assert_eq!(resp.status, Status::Ok);
        };
        // Allowed, then a raw channel withheld (a closure suppression),
        // then everything denied.
        query(json!([{"Action": "Allow"}]));
        query(json!([{"Action": "Allow"}, {"Sensor": ["ecg"], "Action": "Deny"}]));
        query(json!([]));
        assert!(primary.repl_ship_now() >= 1);
        // Every surface that answers without a key: the scrape, the trace
        // ring, the span table, the profile and the health probe.
        for (server, svc) in [("primary", &primary), ("replica", &replica)] {
            for path in [
                "/metrics",
                "/traces",
                "/debug/spans",
                "/debug/profile",
                "/healthz",
            ] {
                // `seconds` is read by `/debug/profile` alone: a zero window.
                let resp = svc.handle(&Request::get(path).with_query("seconds", "0"));
                assert_eq!(resp.status, Status::Ok, "{server} {path}");
                let text = String::from_utf8(resp.body).unwrap();
                for name in [CONTRIBUTOR, CONSUMER] {
                    assert!(!text.contains(name), "{server} {path} names {name}: {text}");
                }
                assert!(!text.contains("consumer=\""), "{server} {path}: {text}");
                assert!(!text.contains("contributor=\""), "{server} {path}: {text}");
                if matches!(path, "/traces" | "/debug/spans") {
                    // Not vacuous: the requests above are on it.
                    assert!(
                        text.contains("\"name\":\"POST /"),
                        "{server} {path}: {text}"
                    );
                }
            }
        }
        // The decisions are still counted, by outcome alone.
        let text = String::from_utf8(primary.handle(&Request::get("/metrics")).body).unwrap();
        assert!(
            text.contains("sensorsafe_policy_decisions_total{decision=\"allowed\"}"),
            "{text}"
        );
    }

    #[test]
    fn replication_ships_applies_and_fences() {
        let (primary, admin) = service();
        let (replica, replica_admin) = DataStoreService::new(DataStoreConfig {
            name: "replica".to_string(),
            ..DataStoreConfig::default()
        });
        let replica_admin = replica_admin.to_hex();
        primary.attach_replica(crate::repl::ReplicaLink {
            addr: "replica:0".to_string(),
            transport: Arc::new(sensorsafe_net::LocalTransport::new(Arc::new(
                replica.clone(),
            ))),
            repl_key: replica_admin.clone(),
        });
        let alice = register(&primary, &admin, "alice", "contributor");
        upload_alice_day(&primary, &alice);
        assert!(primary.repl_ship_now() >= 1);
        // The replica applied the data AND adopted alice's mirrored key:
        // the same credential queries her data there.
        let resp = replica.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (alice.clone()), "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        let body = resp.json_body().unwrap();
        assert!(!body["segments"].as_array().unwrap().is_empty());
        // Fully acked: a second pass ships nothing.
        assert_eq!(primary.repl_ship_now(), 0);
        // Fence the primary at epoch 2: contributor writes bounce with
        // the new epoch so the client can re-resolve at the broker.
        let resp = primary.handle(&Request::post_json(
            "/repl/fence",
            &json!({"key": (admin.clone()), "contributor": "alice", "epoch": 2}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let resp = primary.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": (alice.clone()), "segments": []}),
        ));
        assert_eq!(resp.status, Status::Conflict);
        let body = resp.json_body().unwrap();
        assert_eq!(body["error"].as_str(), Some("fenced"));
        assert_eq!(body["epoch"].as_u64(), Some(2));
        // Promote the replica at epoch 2: it now takes contributor writes.
        let resp = replica.handle(&Request::post_json(
            "/repl/promote",
            &json!({"key": (replica_admin.clone()), "contributor": "alice", "epoch": 2}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let resp = replica.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": (alice.clone()), "segments": []}),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        // A frame from the deposed primary (stale epoch 0) is rejected.
        let stale = sensorsafe_store::SealedBatch {
            seq: 999,
            records: Vec::new(),
        };
        let stale_hex = repl::to_hex(&repl::encode_batch("alice", 0, &stale));
        let resp = replica.handle(&Request::post_json(
            "/repl/segment",
            &json!({"key": (replica_admin.clone()), "batch": (stale_hex)}),
        ));
        assert_eq!(resp.status, Status::Conflict);
        assert_eq!(
            resp.json_body().unwrap()["error"].as_str(),
            Some("stale_epoch")
        );
        // Idempotency: the same (contributor, seq) applies exactly once.
        let dup = sensorsafe_store::SealedBatch {
            seq: 1000,
            records: Vec::new(),
        };
        let dup_hex = repl::to_hex(&repl::encode_batch("alice", 2, &dup));
        for expected_applied in [true, false] {
            let resp = replica.handle(&Request::post_json(
                "/repl/segment",
                &json!({"key": (replica_admin.clone()), "batch": (dup_hex.clone())}),
            ));
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(
                resp.json_body().unwrap()["applied"].as_bool(),
                Some(expected_applied)
            );
        }
    }

    #[test]
    fn front_door_labels_requests_by_route_pattern_never_by_path() {
        let (svc, _) = service();
        // A served route under a path that is not its pattern (trailing and
        // doubled slashes), a path nothing serves, and a served path under
        // the wrong method.
        assert_eq!(svc.handle(&Request::get("//healthz/")).status, Status::Ok);
        let missing = svc.handle(&Request::get("/api/data/alice-secret"));
        assert_eq!(missing.status, Status::NotFound);
        let wrong_method = svc.handle(&Request::get("/api/register"));
        assert_eq!(wrong_method.status, Status::MethodNotAllowed);

        let scrape = svc.handle(&Request::get("/metrics"));
        let text = String::from_utf8(scrape.body).unwrap();
        for line in [
            "sensorsafe_datastore_request_seconds_count{endpoint=\"/healthz\"} 1",
            "sensorsafe_datastore_request_seconds_count{endpoint=\"unmatched\"} 2",
            "sensorsafe_datastore_requests_total{code=\"200\",endpoint=\"/healthz\"} 1",
            "sensorsafe_datastore_requests_total{code=\"404\",endpoint=\"unmatched\"} 1",
            "sensorsafe_datastore_requests_total{code=\"405\",endpoint=\"unmatched\"} 1",
        ] {
            assert!(text.contains(line), "missing {line} in:\n{text}");
        }
        let traces = svc.handle(&Request::get("/traces")).json_body().unwrap();
        let names: Vec<&str> = traces["traces"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "GET /healthz",
                "GET unmatched",
                "GET unmatched",
                "GET /metrics"
            ]
        );
        // The concrete paths appear nowhere in the telemetry.
        for leaked in ["alice-secret", "healthz/", "//"] {
            assert!(!text.contains(leaked), "{leaked} in:\n{text}");
            assert!(!traces.to_string().contains(leaked), "{leaked} in {traces}");
        }
    }

    #[test]
    fn health_endpoint() {
        let (svc, _) = service();
        let resp = svc.handle(&Request::get("/health"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap()["contributors"].as_i64(), Some(0));
    }

    #[test]
    fn registration_requires_admin_key() {
        let (svc, admin) = service();
        // Random key: rejected.
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": ("0".repeat(64)), "name": "x", "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Unauthorized);
        // Contributor key can't register others.
        let alice = register(&svc, &admin, "alice", "contributor");
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": alice, "name": "mallory", "role": "consumer"}),
        ));
        assert_eq!(resp.status, Status::Forbidden);
        // Duplicate name conflicts.
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.clone()), "name": "alice", "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Conflict);
    }

    #[test]
    fn upload_and_owner_query() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        upload_alice_day(&svc, &alice);
        // Owner sees raw data.
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (alice.clone()), "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let segments = resp.json_body().unwrap();
        assert!(!segments["segments"].as_array().unwrap().is_empty());
    }

    #[test]
    fn an_f32_cell_beyond_the_f32_range_is_refused_and_nothing_is_stored() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        let segment = |data: &str| {
            format!(
                r#"{{"start_time":0,"sampling_interval":1.0,"format":[{{"channel":"x","kind":"f32"}}],"data":{data}}}"#
            )
        };
        let body = format!(
            r#"{{"key":"{alice}","segments":[{},{}]}}"#,
            segment("[[0.5]]"),
            segment("[[1.5],[1e39],[2.5]]")
        );
        let resp = svc.handle(&Request::post_json_bytes("/api/upload", body.into_bytes()));
        assert_eq!(resp.status, Status::BadRequest);
        let error = resp.json_body().unwrap()["error"]
            .as_str()
            .unwrap()
            .to_string();
        assert!(error.starts_with("bad segment: "), "{error}");
        assert!(error.contains("f32"), "{error}");
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (alice.clone()), "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, br#"{"segments":[]}"#);
    }

    #[test]
    fn consumer_query_is_enforced() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        let bob = register(&svc, &admin, "bob", "consumer");
        upload_alice_day(&svc, &alice);
        // No rules yet: Bob gets nothing (deny-by-default).
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (bob.clone()), "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.json_body().unwrap()["windows"]
            .as_array()
            .unwrap()
            .is_empty());
        // Alice allows everything: Bob sees data.
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()), "rules": [{"Action": "Allow"}]}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.json_body().unwrap()["epoch"].as_i64(), Some(1));
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": bob, "contributor": "alice"}),
        ));
        assert!(!resp.json_body().unwrap()["windows"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_span_attributes_the_reply_text_to_serialize() {
        // A whole simulated day under allow-all is close to a megabyte of
        // reply: writing its numbers is the bulk of the request, and the
        // span must say so — `serialize` is stamped once the body bytes
        // exist, and little of the request falls outside every phase.
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        let bob = register(&svc, &admin, "bob", "consumer");
        upload_alice_day(&svc, &alice);
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()), "rules": [{"Action": "Allow"}]}),
        ));
        assert_eq!(resp.status, Status::Ok);
        // The consumer's reply additionally waits for its audit records
        // (nothing to wait for on this in-memory ledger); the owner's
        // raw view records none.
        for (key, last_phase) in [(bob, "audit_sync"), (alice, "serialize")] {
            let resp = svc.handle(&Request::post_json(
                "/api/query",
                &json!({"key": key, "contributor": "alice"}),
            ));
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.body.len() > 500_000, "{} bytes", resp.body.len());
            let trace = svc
                .recent_traces()
                .into_iter()
                .rfind(|t| t.name == "POST /api/query")
                .expect("query span recorded");
            let of = |name: &str| -> std::time::Duration {
                trace
                    .phases
                    .iter()
                    .filter(|p| p.name == name)
                    .map(|p| p.elapsed)
                    .sum()
            };
            let attributed: std::time::Duration = trace.phases.iter().map(|p| p.elapsed).sum();
            let serialize = of("serialize");
            assert_eq!(trace.phases.last().unwrap().name, last_phase);
            assert!(
                serialize >= attributed - serialize,
                "serialize {serialize:?} of {attributed:?} attributed: {:?}",
                trace.phases
            );
            let unattributed = trace.total - attributed;
            assert!(
                unattributed * 5 < trace.total,
                "unattributed {unattributed:?} of {:?}",
                trace.total
            );
        }
    }

    #[test]
    fn cross_account_upload_forbidden() {
        let (svc, admin) = service();
        let _alice = register(&svc, &admin, "alice", "contributor");
        let bob = register(&svc, &admin, "bob", "consumer");
        let resp = svc.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": bob, "segments": []}),
        ));
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn rules_roundtrip_and_validation() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        // Invalid rules rejected.
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()), "rules": [{"Action": "Shrug"}]}),
        ));
        assert_eq!(resp.status, Status::BadRequest);
        // Valid rules stored and readable.
        let rules = json!([
            {"Consumer": ["bob"], "Action": "Allow"},
            {"Context": ["Drive"], "Action": "Deny"},
        ]);
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()), "rules": (rules.clone())}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let resp = svc.handle(&Request::post_json(
            "/api/rules/get",
            &json!({"key": alice}),
        ));
        let body = resp.json_body().unwrap();
        assert_eq!(body["epoch"].as_i64(), Some(1));
        assert_eq!(body["rules"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn places_set_validation() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        let resp = svc.handle(&Request::post_json(
            "/api/places/set",
            &json!({"key": (alice.clone()), "places": [
                {"label": "UCLA", "region": {"south": 34.06, "north": 34.08, "west": (-118.46), "east": (-118.43)}}
            ]}),
        ));
        assert_eq!(resp.status, Status::Ok);
        // Missing bounds rejected.
        let resp = svc.handle(&Request::post_json(
            "/api/places/set",
            &json!({"key": alice, "places": [{"label": "x", "region": {"south": 1.0}}]}),
        ));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn group_membership_flows_into_enforcement() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        upload_alice_day(&svc, &alice);
        // Carol is in the "researchers" group.
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.clone()), "name": "carol", "role": "consumer",
                    "groups": ["researchers"]}),
        ));
        let carol = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        // Alice shares with the group only.
        svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()),
                    "rules": [{"Group": ["researchers"], "Action": "Allow"}]}),
        ));
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": carol, "contributor": "alice"}),
        ));
        assert!(!resp.json_body().unwrap()["windows"]
            .as_array()
            .unwrap()
            .is_empty());
        // A consumer outside the group gets nothing.
        let dave = register(&svc, &admin, "dave", "consumer");
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": dave, "contributor": "alice"}),
        ));
        assert!(resp.json_body().unwrap()["windows"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn malformed_bodies_rejected() {
        let (svc, _) = service();
        let mut req = Request::post_json("/api/query", &json!({}));
        req.body = b"not json".to_vec();
        assert_eq!(svc.handle(&req).status, Status::BadRequest);
        // Missing key field.
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"contributor": "a"}),
        ));
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn audit_endpoint_shows_owner_their_enforcement_history() {
        let (svc, admin) = service();
        let alice = register(&svc, &admin, "alice", "contributor");
        let bob = register(&svc, &admin, "bob", "consumer");
        upload_alice_day(&svc, &alice);
        // Two queries: one denied (no rules), one allowed.
        svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (bob.clone()), "contributor": "alice"}),
        ));
        svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (alice.clone()), "rules": [{"Action": "Allow"}]}),
        ));
        svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": (bob.clone()), "contributor": "alice"}),
        ));
        // The owner reads their ledger: the enforcement pipeline decides
        // per query window, so the denied pass and the allowed pass each
        // left a run of records — denied first, allowed last, in order.
        let resp = svc.handle(&Request::post_json(
            "/api/audit",
            &json!({"key": (alice.clone()), "limit": 1000}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let body = resp.json_body().unwrap();
        let decisions = body["decisions"].as_array().unwrap();
        assert!(decisions.len() >= 2, "{body:?}");
        let first = &decisions[0];
        let last = &decisions[decisions.len() - 1];
        assert_eq!(first["outcome"].as_str(), Some("denied"));
        assert_eq!(last["outcome"].as_str(), Some("allowed"));
        assert_eq!(last["consumer"].as_str(), Some("bob"));
        assert_eq!(last["contributor"].as_str(), Some("alice"));
        // The allowed decision records which rule matched (index 0).
        assert_eq!(last["matched_rules"].as_array().unwrap().len(), 1);
        // Every decision of one request shares that request's trace id.
        assert_eq!(
            first["trace_id"].as_str(),
            decisions[1]["trace_id"].as_str()
        );
        assert_ne!(first["trace_id"].as_str(), last["trace_id"].as_str());
        // Filters: a consumer name that never queried matches nothing.
        let resp = svc.handle(&Request::post_json(
            "/api/audit",
            &json!({"key": (alice.clone()), "consumer": "carol"}),
        ));
        assert_eq!(resp.json_body().unwrap()["matched"].as_u64(), Some(0));
        // Consumers cannot read the ledger.
        let resp = svc.handle(&Request::post_json("/api/audit", &json!({"key": bob})));
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn traces_endpoint_serves_request_spans() {
        let (svc, _) = service();
        svc.handle(&Request::get("/health"));
        let resp = svc.handle(&Request::get("/traces"));
        assert_eq!(resp.status, Status::Ok);
        let body = resp.json_body().unwrap();
        let traces = body["traces"].as_array().unwrap();
        assert!(traces
            .iter()
            .any(|t| t["name"].as_str() == Some("GET /health")));
    }

    #[test]
    fn query_unknown_contributor_404s() {
        let (svc, admin) = service();
        let bob = register(&svc, &admin, "bob", "consumer");
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": bob, "contributor": "ghost"}),
        ));
        assert_eq!(resp.status, Status::NotFound);
    }
}

#[cfg(test)]
mod durability_tests {
    use super::*;
    use sensorsafe_json::json;

    /// A server name is operator-chosen and an error message quotes
    /// paths: neither may break a stderr event line or add fields to it.
    #[test]
    fn stderr_event_lines_are_json_for_any_value() {
        let hostile = "a\"b\\c\nd";
        for (event, fields) in [
            ("audit_ledger_rejected", ["server", "error"]),
            ("journal_open_failed", ["server", "error"]),
            ("legacy_wal_files_ignored", ["server", "count"]),
        ] {
            let pairs: Vec<(&str, &str)> = fields.iter().map(|k| (*k, hostile)).collect();
            let line = event_line(event, &pairs);
            let parsed = sensorsafe_json::parse(&line)
                .unwrap_or_else(|e| panic!("{event}: {line} is not JSON: {e}"));
            assert_eq!(parsed["event"].as_str(), Some(event));
            for key in fields {
                assert_eq!(parsed[key].as_str(), Some(hostile), "{event}.{key}");
            }
            assert_eq!(parsed.as_object().unwrap().len(), 3, "no injected fields");
        }
    }

    #[test]
    fn durable_store_survives_restart() {
        let dir = std::env::temp_dir().join(format!("sensorsafe-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = DataStoreConfig {
            name: "durable".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        };
        let uploaded;
        {
            let (svc, admin) = DataStoreService::new(config.clone());
            let resp = svc.handle(&Request::post_json(
                "/api/register",
                &json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
            ));
            let key = resp.json_body().unwrap()["api_key"]
                .as_str()
                .unwrap()
                .to_string();
            let scenario = sensorsafe_sim::Scenario::alice_day(
                sensorsafe_types::Timestamp::from_millis(0),
                6,
                1,
            );
            let rendered = scenario.render();
            let segments: Vec<Value> = rendered
                .chest_segments
                .iter()
                .take(32)
                .map(WaveSegment::to_json)
                .collect();
            let resp = svc.handle(&Request::post_json(
                "/api/upload",
                &json!({"key": key, "segments": (Value::Array(segments))}),
            ));
            assert_eq!(resp.status, Status::Ok);
            uploaded = 32 * 64;
        }
        // "Restart": a fresh service over the same data directory.
        // Re-registration claims what the journal recovered for the account.
        let (svc, admin) = DataStoreService::new(config);
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created);
        let id = ContributorId::new("alice");
        let stats = svc
            .state()
            .with_contributor(&id, |a| a.store.stats())
            .unwrap();
        assert_eq!(stats.samples, uploaded, "journal replay recovered the data");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn health(svc: &DataStoreService) -> Value {
        svc.handle(&Request::get("/healthz")).json_body().unwrap()
    }

    /// Uploads `take` chest packets of Alice's day starting at packet
    /// `skip`; returns the response status and the samples sent.
    fn upload_packets(
        svc: &DataStoreService,
        key: &str,
        skip: usize,
        take: usize,
    ) -> (Status, usize) {
        let rendered =
            sensorsafe_sim::Scenario::alice_day(sensorsafe_types::Timestamp::from_millis(0), 6, 1)
                .render();
        let packets = &rendered.chest_segments[skip..skip + take];
        let segments: Vec<Value> = packets.iter().map(WaveSegment::to_json).collect();
        let resp = svc.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": key, "segments": (Value::Array(segments))}),
        ));
        (resp.status, packets.iter().map(WaveSegment::len).sum())
    }

    fn stored_samples(svc: &DataStoreService, name: &str) -> Option<usize> {
        svc.state()
            .with_contributor(&ContributorId::new(name), |a| a.store.stats().samples)
    }

    /// A journal that will not open (here: a checkpoint failing its
    /// checksum) must not be worked around. The old per-account-WAL
    /// fallback acked uploads into `<name>.wal` files that a later start
    /// with a healthy journal never read: acked, then gone.
    #[test]
    fn store_that_cannot_open_its_journal_acks_nothing() {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-journal-shut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.ckpt"), b"not a checkpoint").unwrap();
        let config = DataStoreConfig {
            name: "journal-shut".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        };
        {
            let (svc, admin) = DataStoreService::new(config.clone());
            // Every way an account comes to exist answers 5xx, so no
            // upload path has an account to store into.
            for (path, body) in [
                (
                    "/api/register",
                    json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
                ),
                (
                    "/repl/status",
                    json!({"key": (admin.to_hex()), "contributor": "alice"}),
                ),
            ] {
                let resp = svc.handle(&Request::post_json(path, &body));
                assert_eq!(resp.status, Status::InternalError, "{path}");
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                assert!(text.contains("journal open failed"), "{path}: {text}");
            }
            assert_eq!(stored_samples(&svc, "alice"), None);
            let body = health(&svc);
            assert_eq!(body["status"].as_str(), Some("degraded"));
            let wal = body["components"]["wal"].as_str().unwrap();
            assert!(wal.starts_with("error: journal open failed"), "{wal}");
        }
        assert_eq!(count_wal_files(&dir), 0, "a second log format appeared");

        // Repaired (the operator moved the bad checkpoint aside): the
        // store serves again and keeps what it acks across a restart.
        std::fs::remove_file(dir.join("journal.ckpt")).unwrap();
        let acked = {
            let (svc, admin) = DataStoreService::new(config.clone());
            assert_eq!(health(&svc)["status"].as_str(), Some("ok"));
            let key = register_alice(&svc, &admin);
            let (status, samples) = upload_packets(&svc, &key, 0, 32);
            assert_eq!(status, Status::Ok);
            samples
        };
        let (svc, admin) = DataStoreService::new(config);
        register_alice(&svc, &admin);
        assert_eq!(stored_samples(&svc, "alice"), Some(acked));
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Directories written by the retired per-account engine (or by its
    /// fallback) hold `*.wal` files nothing reads any more; starting
    /// empty over them must at least be visible.
    #[test]
    fn legacy_wal_files_degrade_healthz() {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-legacy-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("alice.wal"), b"").unwrap();
        let (svc, admin) = DataStoreService::new(DataStoreConfig {
            name: "legacy-wal".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        });
        let body = health(&svc);
        assert_eq!(body["status"].as_str(), Some("degraded"));
        let wal = body["components"]["wal"].as_str().unwrap();
        assert!(wal.contains("1 legacy *.wal files"), "{wal}");
        // A check, not a refusal: the journal itself is fine.
        register_alice(&svc, &admin);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal whose write fails (the segment it rotates into is a
    /// device that refuses every write) stops acking: the failed upload
    /// is a 500, `/healthz` degrades, and a restart finds exactly what
    /// was acked before.
    #[test]
    fn failed_journal_commit_is_not_acked_and_degrades_healthz() {
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-journal-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = DataStoreConfig {
            name: "journal-full".into(),
            data_dir: Some(dir.clone()),
            journal: sensorsafe_store::JournalConfig {
                rotate_bytes: 1, // rotate after the first batch
                ..sensorsafe_store::JournalConfig::default()
            },
            ..DataStoreConfig::default()
        };
        let acked = {
            let (svc, admin) = DataStoreService::new(config.clone());
            // Only once the journal is open: replaying /dev/full never ends.
            std::os::unix::fs::symlink("/dev/full", dir.join("journal.seg-2")).unwrap();
            let key = register_alice(&svc, &admin);
            let (status, acked) = upload_packets(&svc, &key, 0, 4);
            assert_eq!(status, Status::Ok);
            // Let the rotation and its checkpoint land first, so the
            // checkpoint cannot snapshot the upload that is about to fail.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while svc.journal_stats().unwrap().checkpointed_through < 1 {
                assert!(std::time::Instant::now() < deadline, "never checkpointed");
                std::thread::yield_now();
            }
            assert_eq!(health(&svc)["status"].as_str(), Some("ok"));

            let (status, _) = upload_packets(&svc, &key, 4, 4);
            assert_eq!(status, Status::InternalError, "acked after a failed write");
            let (status, _) = upload_packets(&svc, &key, 8, 4);
            assert_eq!(status, Status::InternalError, "the failure is sticky");
            let body = health(&svc);
            assert_eq!(body["status"].as_str(), Some("degraded"));
            let wal = body["components"]["wal"].as_str().unwrap();
            assert!(wal.starts_with("error: "), "{wal}");
            acked
        };
        // The operator replaces the disk.
        std::fs::remove_file(dir.join("journal.seg-2")).unwrap();
        let (svc, admin) = DataStoreService::new(config);
        register_alice(&svc, &admin);
        assert_eq!(stored_samples(&svc, "alice"), Some(acked));
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Only a wait commits staged records, so a route that stages and
    /// replies without waiting would ack records that may not survive a
    /// crash. After every 2xx of every staging route, the journal holds
    /// nothing staged that is not durable.
    #[test]
    fn no_staging_route_replies_before_its_records_are_durable() {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-staged-is-durable-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (svc, admin) = DataStoreService::new(DataStoreConfig {
            name: "staged-is-durable".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        });
        let key = register_alice(&svc, &admin);
        let admin = admin.to_hex();
        let packets =
            sensorsafe_sim::Scenario::alice_day(sensorsafe_types::Timestamp::from_millis(0), 6, 1)
                .render()
                .chest_segments;
        let batch = repl::to_hex(&repl::encode_batch(
            "alice",
            0,
            &sensorsafe_store::SealedBatch {
                seq: 1,
                records: vec![sensorsafe_store::WalRecord::Segment(packets[2].clone())],
            },
        ));
        let steps = [
            (
                "/api/upload",
                json!({"key": (key.clone()), "segments": [(packets[0].to_json())]}),
            ),
            (
                "/api/upload",
                json!({
                    "key": (key.clone()),
                    "segments": [(packets[1].to_json())],
                    "upload_token": "0a0b",
                }),
            ),
            (
                "/repl/segment",
                json!({"key": (admin.clone()), "batch": (batch)}),
            ),
            (
                "/repl/fence",
                json!({"key": (admin.clone()), "contributor": "alice", "epoch": 2}),
            ),
            (
                "/repl/promote",
                json!({"key": (admin.clone()), "contributor": "alice", "epoch": 3}),
            ),
            (
                "/repl/reset",
                json!({"key": (admin.clone()), "contributor": "alice", "epoch": 3}),
            ),
        ];
        let mut staged = svc.journal_stats().unwrap().staged_seq;
        for (path, body) in steps {
            let resp = svc.handle(&Request::post_json(path, &body));
            assert!(resp.status.is_success(), "{path}: {:?}", resp.json_body());
            let stats = svc.journal_stats().unwrap();
            assert!(stats.staged_seq > staged, "{path} staged nothing");
            assert_eq!(
                stats.durable_seq, stats.staged_seq,
                "{path} replied with records staged but not durable"
            );
            staged = stats.staged_seq;
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query's decision records could not be made durable (here: the
    /// head sidecar's name is taken by a directory). The reply still
    /// goes out — enforcement does not fail over a bad audit disk — but
    /// the store says so: `/healthz` degrades and the failure is counted.
    #[test]
    fn healthz_reports_an_audit_ledger_that_cannot_sync() {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-ledger-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (svc, admin) = DataStoreService::new(DataStoreConfig {
            name: "ledger-failed".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        });
        let alice = register_alice(&svc, &admin);
        let bob = register(&svc, &admin, "bob", "consumer");
        let rendered =
            sensorsafe_sim::Scenario::alice_day(sensorsafe_types::Timestamp::from_millis(0), 6, 1)
                .render();
        let segments: Vec<Value> = rendered
            .chest_segments
            .iter()
            .take(4)
            .map(WaveSegment::to_json)
            .collect();
        let resp = svc.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": alice, "segments": (Value::Array(segments))}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            health(&svc)["components"]["audit_ledger"].as_str(),
            Some("ok")
        );

        std::fs::create_dir(dir.join("audit.ledger.head")).unwrap();
        let failures = sensorsafe_obsv::global().counter(
            "sensorsafe_audit_ledger_sync_failures_total",
            "File-backed audit ledgers that stopped persisting after an I/O failure.",
            &[],
        );
        let before = failures.get();
        let resp = svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": bob, "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert!(
            !svc.audit_ledger().is_empty(),
            "the query recorded no decision"
        );
        assert_eq!(failures.get() - before, 1);
        let body = health(&svc);
        assert_eq!(body["status"].as_str(), Some("degraded"));
        assert_eq!(body["components"]["audit_ledger"].as_str(), Some("failed"));
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn allow_all(svc: &DataStoreService, contributor_key: &str) {
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": contributor_key, "rules": [{"Action": "Allow"}]}),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
    }

    fn consumer_query(svc: &DataStoreService, key: &str, contributor: &str) -> Response {
        svc.handle(&Request::post_json(
            "/api/query",
            &json!({"key": key, "contributor": contributor}),
        ))
    }

    /// The durable twin of `query_span_attributes_the_reply_text_to_serialize`:
    /// with a ledger that really syncs, the wait left after rendering is
    /// a named phase of the span, not its unattributed remainder.
    #[test]
    fn durable_query_span_names_the_audit_sync() {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-audit-span-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (svc, admin) = DataStoreService::new(DataStoreConfig {
            name: "audit-span".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        });
        let alice = register_alice(&svc, &admin);
        let bob = register(&svc, &admin, "bob", "consumer");
        assert_eq!(upload_packets(&svc, &alice, 0, 32).0, Status::Ok);
        allow_all(&svc, &alice);
        let resp = consumer_query(&svc, &bob, "alice");
        assert_eq!(resp.status, Status::Ok);
        let trace = svc
            .recent_traces()
            .into_iter()
            .rfind(|t| t.name == "POST /api/query")
            .expect("query span recorded");
        let names: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
        assert_eq!(names.first(), Some(&"auth"), "{names:?}");
        assert_eq!(
            names[names.len() - 2..],
            ["serialize", "audit_sync"],
            "{names:?}"
        );
        let audit_sync = trace.phases.last().unwrap().elapsed;
        assert!(audit_sync > std::time::Duration::ZERO);
        let attributed: std::time::Duration = trace.phases.iter().map(|p| p.elapsed).sum();
        let unattributed = trace.total - attributed;
        assert!(
            unattributed * 5 < trace.total,
            "unattributed {unattributed:?} of {:?}: {:?}",
            trace.total,
            trace.phases
        );
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The contract the overlap must not loosen: the instant `handle`
    /// returns a consumer's reply — no extra `sync()` — the ledger file
    /// *and its head* on disk hold that request's decisions. (With the
    /// head path blocked the reply still leaves and `/healthz` degrades:
    /// `healthz_reports_an_audit_ledger_that_cannot_sync`.)
    #[test]
    fn consumer_reply_never_leaves_before_its_audit_records_are_durable() {
        let dir =
            std::env::temp_dir().join(format!("sensorsafe-audit-contract-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (svc, admin) = DataStoreService::new(DataStoreConfig {
            name: "audit-contract".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        });
        let ledger_file = dir.join("audit.ledger");

        // Four contributors with different data, one consumer each.
        let names = ["c0", "c1", "c2", "c3"];
        let mut consumers = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let key = register(&svc, &admin, name, "contributor");
            assert_eq!(upload_packets(&svc, &key, 8 * i, 8).0, Status::Ok);
            allow_all(&svc, &key);
            consumers.push(register(&svc, &admin, &format!("k{i}"), "consumer"));
        }

        // One reader: after every reply the chain on disk, verified
        // against the head on disk, is the chain in memory.
        let mut replies = Vec::new();
        let mut decisions_per_query = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let before = svc.audit_ledger().len();
            let resp = consumer_query(&svc, &consumers[i], name);
            assert_eq!(resp.status, Status::Ok);
            let on_disk = sensorsafe_store::verify_ledger_file(&ledger_file).unwrap();
            assert_eq!(on_disk, svc.audit_ledger().recent(usize::MAX));
            let mine = &on_disk[before as usize..];
            assert!(!mine.is_empty(), "the query recorded no decision");
            assert!(mine
                .iter()
                .all(|r| r.contributor == *name && r.consumer == format!("k{i}")));
            decisions_per_query.push(mine.len() as u64);
            replies.push(resp.body);
        }

        // Four readers at once share sync rounds; nobody's reply or
        // audit trail changes for it.
        const ROUNDS: u64 = 8;
        let start = std::sync::Barrier::new(names.len());
        std::thread::scope(|scope| {
            for (i, name) in names.iter().enumerate() {
                let (svc, start, key, expected) = (&svc, &start, &consumers[i], &replies[i]);
                let ledger_file = &ledger_file;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let resp = consumer_query(svc, key, name);
                        assert_eq!(resp.status, Status::Ok);
                        assert_eq!(&resp.body, expected, "reply changed under concurrency");
                        // Other readers may be mid-append, so only this
                        // thread's own records are asserted on: every one
                        // appended before its reply is attested on disk.
                        let mine = svc.audit_ledger().page(&sensorsafe_obsv::AuditFilter {
                            consumer: Some(format!("k{i}")),
                            limit: 1,
                            ..Default::default()
                        });
                        let newest = mine.records.last().expect("own decisions").seq;
                        let head = std::fs::read(sensorsafe_store::ledger::head_path(ledger_file))
                            .unwrap();
                        let attested = sensorsafe_obsv::ledger::ChainHead::decode(&head).unwrap();
                        assert!(
                            newest < attested.count,
                            "reply left ahead of the head on disk"
                        );
                    }
                });
            }
        });
        let total: u64 = decisions_per_query.iter().sum::<u64>() * (1 + ROUNDS);
        assert_eq!(svc.audit_ledger().len(), total);
        let replayed = sensorsafe_store::verify_ledger_file(&ledger_file).unwrap();
        assert_eq!(replayed.len() as u64, total);
        let rebuilt = sensorsafe_obsv::AwarenessAggregates::rebuild(replayed.iter());
        assert_eq!(svc.awareness().digest(), rebuilt.digest());
        assert!(svc.audit_ledger().sync_error().is_none());
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn register_alice(svc: &DataStoreService, admin: &sensorsafe_auth::ApiKey) -> String {
        register(svc, admin, "alice", "contributor")
    }

    fn register(
        svc: &DataStoreService,
        admin: &sensorsafe_auth::ApiKey,
        name: &str,
        role: &str,
    ) -> String {
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.to_hex()), "name": name, "role": role}),
        ));
        assert_eq!(resp.status, Status::Created, "{:?}", resp.json_body());
        resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string()
    }

    /// The REVIEW scenario: a durable primary restarts, its in-memory
    /// shipping sequence resets to 1, and the still-running replica has a
    /// higher persisted high-water — so without the status handshake every
    /// post-restart batch would be acked as an already-applied duplicate
    /// and silently dropped. The handshake must detect the divergence,
    /// wipe the replica, and re-ship a full snapshot.
    #[test]
    fn primary_restart_resyncs_replica_instead_of_dropping_writes() {
        let dir = std::env::temp_dir().join(format!("sensorsafe-resync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = DataStoreConfig {
            name: "primary".into(),
            data_dir: Some(dir.clone()),
            ..DataStoreConfig::default()
        };
        let (replica, replica_admin) = DataStoreService::new(DataStoreConfig {
            name: "replica".to_string(),
            ..DataStoreConfig::default()
        });
        let replica_admin = replica_admin.to_hex();
        let link = || crate::repl::ReplicaLink {
            addr: "replica:0".to_string(),
            transport: Arc::new(sensorsafe_net::LocalTransport::new(Arc::new(
                replica.clone(),
            ))),
            repl_key: replica_admin.clone(),
        };
        let scenario =
            sensorsafe_sim::Scenario::alice_day(sensorsafe_types::Timestamp::from_millis(0), 6, 1);
        let rendered = scenario.render();
        let upload = |svc: &DataStoreService, key: &str, skip: usize| {
            let segments: Vec<Value> = rendered
                .chest_segments
                .iter()
                .skip(skip)
                .take(8)
                .map(WaveSegment::to_json)
                .collect();
            let resp = svc.handle(&Request::post_json(
                "/api/upload",
                &json!({"key": key, "segments": (Value::Array(segments))}),
            ));
            assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        };
        // First incarnation: upload, ship, drain.
        {
            let (svc, admin) = DataStoreService::new(config.clone());
            let key = register_alice(&svc, &admin);
            svc.attach_replica(link());
            upload(&svc, &key, 0);
            while svc.repl_ship_now() > 0 {}
        }
        // "Restart": fresh service over the same directory. Its shipper
        // numbering restarts at seq 1 while the replica's applied
        // high-water persisted — the divergence under test.
        let (svc, admin) = DataStoreService::new(config);
        let key = register_alice(&svc, &admin);
        svc.attach_replica(link());
        upload(&svc, &key, 8);
        while svc.repl_ship_now() > 0 {}
        let id = ContributorId::new("alice");
        let primary_stats = svc
            .state()
            .with_contributor(&id, |a| a.store.stats())
            .unwrap();
        let replica_stats = replica
            .state()
            .with_contributor(&id, |a| a.store.stats())
            .unwrap();
        assert_eq!(primary_stats.samples, 16 * rendered.chest_segments[0].len());
        assert_eq!(
            replica_stats.samples, primary_stats.samples,
            "replica resynced to the full post-restart copy"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
