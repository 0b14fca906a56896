//! The broker's HTTP API.
//!
//! | Endpoint | Who | Purpose |
//! |---|---|---|
//! | `GET /health` | anyone | liveness + registry stats |
//! | `POST /api/register` | admin key | create consumer accounts (returns the consumer's broker key) |
//! | `POST /api/stores/register` | admin key | pair a data store: record its address + registration key, mint its sync key |
//! | `POST /api/contributors/register` | store key | record a contributor hosted at a store; mints the contributor's resolve key |
//! | `POST /api/contributors/resolve` | store / own contributor / granted consumer | current store assignment + epoch (404 otherwise, indistinguishable from an unknown name) |
//! | `POST /api/sync` | store key | mirror a contributor's privacy rules (§5.2) |
//! | `POST /api/search` | consumer | contributor search over mirrored rules |
//! | `POST /api/consumers/add` | consumer | auto-register at contributors' stores; escrow the keys |
//! | `POST /api/consumers/access` | consumer | fetch the saved list with store addresses + escrowed keys |

use crate::registry::{BrokerRegistry, ConsumerRecord, StoreAccess, StoreRecord};
use crate::search::MirrorMetrics;
use parking_lot::RwLock;
use sensorsafe_auth::{ApiKey, KeyRing, PasswordStore, Principal, Role, SessionManager};
use sensorsafe_json::{json, Value};
use sensorsafe_net::{
    str_field, u64_field, Edge, Reply, Request, RequestFamilies, Response, Router, Service, Status,
    TcpTransport, Transport,
};
use sensorsafe_obsv::{Registry, TraceRecorder};
use sensorsafe_policy::{PrivacyRule, RuleIndex};
use sensorsafe_types::{ConsumerId, ContributorId, GroupId, StoreAddr, StudyId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resolves a store address to a transport. Tests and in-process benches
/// plug in local transports; production uses [`TcpTransport`].
pub type TransportFactory = Arc<dyn Fn(&str) -> Arc<dyn Transport> + Send + Sync>;

/// Construction-time configuration.
#[derive(Clone)]
pub struct BrokerConfig {
    /// Human-readable name (web UI).
    pub name: String,
    /// How to reach data stores.
    pub transports: TransportFactory,
    /// Fleet health plane: probe cadence and health-machine thresholds.
    /// See docs/OPERATIONS.md ("Fleet monitoring").
    pub fleet: crate::fleet::FleetConfig,
}

impl Default for BrokerConfig {
    /// TCP transports.
    fn default() -> Self {
        BrokerConfig {
            name: "sensorsafe-broker".to_string(),
            transports: Arc::new(|addr: &str| {
                Arc::new(TcpTransport::new(addr)) as Arc<dyn Transport>
            }),
            fleet: crate::fleet::FleetConfig::default(),
        }
    }
}

pub(crate) struct Inner {
    pub(crate) config: BrokerConfig,
    pub(crate) registry: BrokerRegistry,
    pub(crate) rules: RwLock<RuleIndex>,
    pub(crate) keys: KeyRing,
    pub(crate) passwords: PasswordStore,
    pub(crate) sessions: SessionManager,
    pub(crate) metrics: Arc<Registry>,
    pub(crate) mirror_metrics: MirrorMetrics,
    pub(crate) traces: Arc<TraceRecorder>,
    pub(crate) fleet: crate::fleet::FleetPlane,
    /// Completed failover promotions, oldest first (bounded ring; see
    /// [`crate::failover`]).
    pub(crate) failovers:
        parking_lot::Mutex<std::collections::VecDeque<crate::failover::FailoverEvent>>,
    pub(crate) started: std::time::Instant,
}

/// The broker service. Cheap to clone (shared state).
#[derive(Clone)]
pub struct BrokerService {
    pub(crate) inner: Arc<Inner>,
    edge: Arc<Edge>,
}

/// The 403 of a consumer key whose account the registry does not hold.
pub(crate) fn not_registered() -> Response {
    Response::error(Status::Forbidden, "consumer not registered")
}

impl Inner {
    /// Authenticates the `key` field of a request body (§5.4): the caller
    /// behind it, or the 401; with `required`, the 403 it carries unless
    /// the caller holds that role. Every API route passes through here
    /// before its handler runs (the route table in [`BrokerService::new`]
    /// names each route's requirement).
    fn authenticate(
        &self,
        body: &Value,
        required: Option<(Role, &str)>,
    ) -> Result<Principal, Response> {
        let principal = body
            .get("key")
            .and_then(Value::as_str)
            .and_then(|key| self.keys.authenticate(key))
            .ok_or_else(Response::unauthorized)?;
        match required {
            Some((role, denied)) if principal.role != role => {
                Err(Response::error(Status::Forbidden, denied))
            }
            _ => Ok(principal),
        }
    }

    fn handle_health(&self) -> Response {
        Response::json(&json!({
            "ok": true,
            "server": (self.config.name.clone()),
            "stores": (self.registry.store_count()),
            "contributors": (self.registry.contributor_count()),
            "consumers": (self.registry.consumer_count()),
        }))
    }

    fn handle_register(&self, _: Principal, body: &Value) -> Reply {
        let name = str_field(body, "name")?;
        if name.is_empty() {
            return Err(Response::bad_request("empty 'name'"));
        }
        let list = |field| {
            body.get(field)
                .and_then(Value::as_string_list)
                .unwrap_or_default()
        };
        let record = ConsumerRecord {
            groups: list("groups").into_iter().map(GroupId::new).collect(),
            studies: list("studies").into_iter().map(StudyId::new).collect(),
            ..Default::default()
        };
        if !self.registry.insert_consumer(ConsumerId::new(name), record) {
            return Err(Response::error(Status::Conflict, "consumer already exists"));
        }
        let key = self.keys.register(Principal {
            name: name.to_string(),
            role: Role::Consumer,
        });
        Ok(Response::json_with_status(
            Status::Created,
            &json!({ "api_key": (key.to_hex()) }),
        ))
    }

    fn handle_store_register(&self, _: Principal, body: &Value) -> Reply {
        let (Some(addr), Some(register_key)) = (
            body.get("addr").and_then(Value::as_str),
            body.get("register_key").and_then(Value::as_str),
        ) else {
            return Err(Response::bad_request("missing 'addr' or 'register_key'"));
        };
        if addr.is_empty() {
            return Err(Response::bad_request("empty 'addr'"));
        }
        self.registry.upsert_store(StoreRecord {
            addr: StoreAddr::new(addr),
            register_key: register_key.to_string(),
        });
        // Mint the key the store will use for /api/sync and
        // /api/contributors/register.
        let store_key = self.keys.register(Principal {
            name: format!("store:{addr}"),
            role: Role::Server,
        });
        Ok(Response::json_with_status(
            Status::Created,
            &json!({ "store_key": (store_key.to_hex()) }),
        ))
    }

    /// `POST /api/stores/replica` — pairs a replica with a primary so
    /// the failover controller knows where to promote. Both stores must
    /// already be paired via `/api/stores/register` (the fleet plane
    /// probes them, and promotion needs the replica's registration key).
    fn handle_stores_replica(&self, _: Principal, body: &Value) -> Reply {
        let (Some(primary), Some(replica)) = (
            body.get("primary").and_then(Value::as_str),
            body.get("replica").and_then(Value::as_str),
        ) else {
            return Err(Response::bad_request("missing 'primary' or 'replica'"));
        };
        if self.registry.store_by_addr(primary).is_none()
            || self.registry.store_by_addr(replica).is_none()
        {
            return Err(Response::bad_request(
                "both stores must be registered before replica pairing",
            ));
        }
        self.registry.set_replica(primary, StoreAddr::new(replica));
        Ok(Response::json(&json!({ "ok": true })))
    }

    /// `POST /api/contributors/resolve` — the current store assignment
    /// for a contributor. Clients call this after a fence rejection (or
    /// a dead primary) to learn the promoted store and retry.
    ///
    /// Requires a key: store keys see any assignment, a contributor sees
    /// their own (via the resolve key minted at auto-registration), and a
    /// consumer sees contributors whose stores escrowed access for them.
    /// Anything else is answered exactly like a nonexistent contributor,
    /// so the endpoint cannot be used to probe which names exist.
    fn handle_contributor_resolve(&self, principal: Principal, body: &Value) -> Reply {
        let name = str_field(body, "name")?;
        let unknown = || Response::error(Status::NotFound, "unknown contributor");
        let allowed = match principal.role {
            Role::Server => true,
            Role::Contributor => principal.name == name,
            Role::Consumer => self
                .registry
                .consumer(&ConsumerId::new(principal.name.clone()))
                .map(|record| record.access.contains_key(&ContributorId::new(name)))
                .unwrap_or(false),
        };
        if !allowed {
            return Err(unknown());
        }
        let assignment = self
            .registry
            .assignment_of(&ContributorId::new(name))
            .ok_or_else(unknown)?;
        Ok(Response::json(&json!({
            "store_addr": (assignment.addr.as_str()),
            "epoch": (assignment.epoch),
        })))
    }

    fn handle_contributor_register(&self, _: Principal, body: &Value) -> Reply {
        let (Some(contributor), Some(addr)) = (
            body.get("contributor").and_then(Value::as_str),
            body.get("store_addr").and_then(Value::as_str),
        ) else {
            return Err(Response::bad_request(
                "missing 'contributor' or 'store_addr'",
            ));
        };
        self.registry
            .upsert_contributor(ContributorId::new(contributor), StoreAddr::new(addr));
        // Mint the contributor's broker-side resolve key so their client
        // can authenticate /api/contributors/resolve after a failover.
        let resolve_key = self.keys.register(Principal {
            name: contributor.to_string(),
            role: Role::Contributor,
        });
        Ok(Response::json(
            &json!({ "ok": true, "resolve_key": (resolve_key.to_hex()) }),
        ))
    }

    fn handle_sync(&self, _: Principal, body: &Value) -> Reply {
        let contributor = str_field(body, "contributor")?;
        let epoch = u64_field(body, "epoch")?;
        let rules = body
            .get("rules")
            .ok_or_else(|| Response::bad_request("missing 'rules'"))?;
        let rules = PrivacyRule::rules_from_json(rules)
            .map_err(|e| Response::bad_request(&e.to_string()))?;
        // Rule syncs double as contributor-registration upserts, so a
        // store paired after its contributors registered still converges.
        if let Some(addr) = body.get("store_addr").and_then(Value::as_str) {
            self.registry
                .upsert_contributor(ContributorId::new(contributor), StoreAddr::new(addr));
        }
        let metrics = &self.mirror_metrics;
        let accepted = {
            let mut index = self.rules.write();
            let accepted = index.sync(ContributorId::new(contributor), epoch, rules);
            if accepted {
                // Set under the write lock, so the gauges never describe
                // a mirror that was not.
                metrics.contributors.set(index.len() as i64);
                metrics
                    .distinct_lists
                    .set(index.distinct_rule_sets() as i64);
                metrics
                    .epoch_max
                    .set(metrics.epoch_max.get().max(epoch as i64));
            }
            accepted
        };
        let outcome = if accepted {
            &metrics.syncs_accepted
        } else {
            &metrics.syncs_stale
        };
        outcome.inc();
        Ok(Response::json(&json!({ "accepted": accepted })))
    }

    fn handle_healthz(&self) -> Response {
        // The gauge `handle_sync` keeps under the write lock: a probe
        // takes no lock and walks nothing, whatever the mirror's size.
        Response::json(&json!({
            "status": "ok",
            "version": (env!("CARGO_PKG_VERSION")),
            "uptime_secs": (self.started.elapsed().as_secs()),
            "rule_sync_epoch": (self.mirror_metrics.epoch_max.get()),
        }))
    }

    /// Auto-registers `consumer` at `contributor`'s store and escrows the
    /// returned key.
    fn escrow_registration(
        &self,
        consumer: &str,
        record: &ConsumerRecord,
        contributor: &ContributorId,
    ) -> Result<StoreAccess, String> {
        let store = self
            .registry
            .store_of(contributor)
            .ok_or_else(|| format!("unknown contributor '{contributor}'"))?;
        let transport = (self.config.transports)(store.addr.as_str());
        let payload = json!({
            "key": (store.register_key.clone()),
            "name": consumer,
            "role": "consumer",
            "groups": (Value::Array(
                record.groups.iter().map(|g| Value::from(g.as_str())).collect()
            )),
            "studies": (Value::Array(
                record.studies.iter().map(|s| Value::from(s.as_str())).collect()
            )),
        });
        let resp = transport
            .round_trip(&Request::post_json("/api/register", &payload))
            .map_err(|e| format!("store unreachable: {e}"))?;
        let key = match resp.status {
            Status::Created => resp
                .json_body()
                .ok()
                .and_then(|b| b["api_key"].as_str().map(str::to_string))
                .ok_or("store returned no key")?,
            // Already registered there (e.g. via another contributor on
            // the same store): the escrowed key we hold stays valid; the
            // caller handles reuse.
            Status::Conflict => String::new(),
            other => return Err(format!("store refused registration: {}", other.code())),
        };
        Ok(StoreAccess {
            contributor: contributor.clone(),
            addr: store.addr,
            api_key: key,
        })
    }

    fn handle_consumers_add(&self, principal: Principal, body: &Value) -> Reply {
        let names = body
            .get("contributors")
            .and_then(Value::as_string_list)
            .ok_or_else(|| Response::bad_request("missing 'contributors'"))?;
        let consumer_id = ConsumerId::new(&principal.name);
        let record = self
            .registry
            .consumer(&consumer_id)
            .ok_or_else(not_registered)?;
        let mut added = Vec::new();
        let mut errors = Vec::new();
        // Reuse one escrowed key per store when the consumer is already
        // registered there.
        let mut key_by_store: BTreeMap<String, String> = record
            .access
            .values()
            .map(|a| (a.addr.as_str().to_string(), a.api_key.clone()))
            .collect();
        for name in names {
            let contributor = ContributorId::new(&name);
            if record.access.contains_key(&contributor) {
                added.push(name);
                continue;
            }
            match self.escrow_registration(&principal.name, &record, &contributor) {
                Ok(mut access) => {
                    if access.api_key.is_empty() {
                        match key_by_store.get(access.addr.as_str()) {
                            Some(existing) => access.api_key = existing.clone(),
                            None => {
                                errors.push(format!(
                                    "{name}: already registered at store but no escrowed key"
                                ));
                                continue;
                            }
                        }
                    } else {
                        key_by_store
                            .insert(access.addr.as_str().to_string(), access.api_key.clone());
                    }
                    self.registry.grant_access(&consumer_id, access);
                    added.push(name);
                }
                Err(e) => errors.push(format!("{name}: {e}")),
            }
        }
        Ok(Response::json(&json!({
            "added": (Value::Array(added.iter().map(Value::from).collect())),
            "errors": (Value::Array(errors.iter().map(Value::from).collect())),
        })))
    }

    fn handle_consumers_access(&self, principal: Principal, _: &Value) -> Reply {
        let record = self
            .registry
            .consumer(&ConsumerId::new(&principal.name))
            .ok_or_else(not_registered)?;
        let access: Vec<Value> = record
            .contributor_list
            .iter()
            .filter_map(|c| record.access.get(c))
            .map(|a| {
                // Serve the *current* registry assignment, not the
                // address escrowed at grant time: after a failover the
                // consumer must be redirected to the promoted replica
                // (which adopted the same escrowed key).
                let addr = self
                    .registry
                    .store_addr_of(a.contributor.as_str())
                    .map(|addr| addr.as_str().to_string())
                    .unwrap_or_else(|| a.addr.as_str().to_string());
                json!({
                    "contributor": (a.contributor.as_str()),
                    "store_addr": addr,
                    "api_key": (a.api_key.clone()),
                })
            })
            .collect();
        Ok(Response::json(&json!({ "access": (Value::Array(access)) })))
    }
}

impl BrokerService {
    /// Builds a broker. Returns the service plus its admin key.
    pub fn new(config: BrokerConfig) -> (BrokerService, ApiKey) {
        let traces = TraceRecorder::new(256);
        traces.set_slow_threshold(sensorsafe_obsv::trace::slow_threshold_from_env());
        let fleet = crate::fleet::FleetPlane::new(config.fleet.clone());
        let metrics = Arc::new(Registry::new());
        let inner = Arc::new(Inner {
            config,
            fleet,
            registry: BrokerRegistry::new(),
            rules: RwLock::new(RuleIndex::new()),
            keys: KeyRing::new(),
            passwords: PasswordStore::new(),
            sessions: SessionManager::new(),
            mirror_metrics: MirrorMetrics::resolve(&metrics),
            metrics,
            traces,
            failovers: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            started: std::time::Instant::now(),
        });
        let admin_key = inner.keys.register(Principal {
            name: "admin".to_string(),
            role: Role::Server,
        });
        let mut router = Router::new();
        // Where the server may run a route (`sensorsafe_net::Service::
        // blocking`). INLINE — on the event loop that decoded the request —
        // is only for a handler that never waits on disk, the network, a
        // sleep or a lock held across one: all four routes so marked read
        // and write memory under short locks. Everything else takes the
        // POOL (`/fleet` renders every store's entry and the failover log,
        // `/api/consumers/add` and the registrations call out to stores).
        // `tests/evented_core.rs` pins the set.
        const INLINE: bool = true;
        const POOL: bool = false;
        type Page = fn(&Inner) -> Response;
        let pages: [(&str, bool, Page); 3] = [
            ("/health", INLINE, Inner::handle_health),
            ("/healthz", INLINE, Inner::handle_healthz),
            ("/fleet", POOL, Inner::handle_fleet),
        ];
        for (path, inline, handler) in pages {
            let inner = inner.clone();
            let route = router.get(path, move |_, _| handler(&inner));
            if inline {
                route.non_blocking();
            }
        }
        // Every API route: who may call it (the role its key must hold and
        // the 403 otherwise; `None` = the handler decides by role), where
        // it runs, and the handler the authenticated caller is passed to.
        type Handler = fn(&Inner, Principal, &Value) -> Reply;
        type Required = Option<(Role, &'static str)>;
        let admin = Some((Role::Server, "registration requires the admin key"));
        let pairing = Some((Role::Server, "pairing requires the admin key"));
        let store = Some((Role::Server, "store key required"));
        let consumer = Some((Role::Consumer, "consumers only"));
        let api: [(&str, Required, bool, Handler); 9] = [
            ("/api/register", admin, POOL, Inner::handle_register),
            (
                "/api/stores/register",
                pairing,
                POOL,
                Inner::handle_store_register,
            ),
            (
                "/api/stores/replica",
                pairing,
                POOL,
                Inner::handle_stores_replica,
            ),
            (
                "/api/contributors/register",
                store,
                POOL,
                Inner::handle_contributor_register,
            ),
            (
                "/api/contributors/resolve",
                None,
                POOL,
                Inner::handle_contributor_resolve,
            ),
            ("/api/sync", store, INLINE, Inner::handle_sync),
            ("/api/search", consumer, INLINE, Inner::handle_search),
            (
                "/api/consumers/add",
                consumer,
                POOL,
                Inner::handle_consumers_add,
            ),
            (
                "/api/consumers/access",
                consumer,
                POOL,
                Inner::handle_consumers_access,
            ),
        ];
        for (path, required, inline, handler) in api {
            let inner = inner.clone();
            let route = router.post_json(path, move |body| {
                handler(&inner, inner.authenticate(body, required)?, body)
            });
            if inline {
                route.non_blocking();
            }
        }
        crate::web::mount(&mut router, &inner);
        let edge = Edge::new(
            router,
            RequestFamilies {
                seconds: (
                    "sensorsafe_broker_request_seconds",
                    "Broker request latency by endpoint.",
                ),
                total: (
                    "sensorsafe_broker_requests_total",
                    "Broker requests by endpoint and status code.",
                ),
            },
            inner.metrics.clone(),
            inner.traces.clone(),
        );
        (
            BrokerService {
                inner,
                edge: Arc::new(edge),
            },
            admin_key,
        )
    }

    /// Creates a web-UI login.
    pub fn create_web_user(&self, username: &str, password: &str) -> bool {
        self.inner.passwords.create_user(username, password)
    }

    /// Registered contributor count (tests/benches).
    pub fn contributor_count(&self) -> usize {
        self.inner.registry.contributor_count()
    }

    /// This instance's metrics registry (scraped via `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Recent request traces, oldest first.
    pub fn recent_traces(&self) -> Vec<sensorsafe_obsv::Trace> {
        self.inner.traces.recent_traces()
    }

    /// The routes a server may run inline on its event loops, as
    /// `"<METHOD> <pattern>"` (the route table in [`BrokerService::new`]).
    pub fn non_blocking_routes(&self) -> Vec<String> {
        self.edge.non_blocking_routes()
    }

    /// Runs one synchronous fleet sweep on the calling thread. Tests and
    /// in-process deployments use this for deterministic scheduling; TCP
    /// deployments run [`BrokerService::spawn_fleet_scraper`] instead.
    pub fn fleet_sweep_now(&self) {
        self.inner.fleet_sweep();
    }

    /// Starts the background fleet prober. The returned handle stops
    /// and joins the thread when dropped.
    pub fn spawn_fleet_scraper(&self) -> crate::fleet::FleetScraper {
        crate::fleet::FleetScraper::spawn(self.inner.clone())
    }
}

impl Service for BrokerService {
    fn handle(&self, request: &Request) -> Response {
        self.edge.handle(request)
    }

    fn blocking(&self, request: &Request) -> bool {
        self.edge.blocking(request)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::search::tests::{search_body, tree_body};
    use sensorsafe_datastore::{DataStoreConfig, DataStoreService};
    use sensorsafe_net::LocalTransport;

    /// A broker wired to one in-process data store.
    pub(crate) struct Rig {
        pub(crate) broker: BrokerService,
        pub(crate) broker_admin: String,
        pub(crate) store: DataStoreService,
        pub(crate) store_admin: String,
        pub(crate) store_key: String,
    }

    pub(crate) fn rig() -> Rig {
        let (store, store_admin) = DataStoreService::new(DataStoreConfig::default());
        let store_for_factory = store.clone();
        let transports: TransportFactory = Arc::new(move |_addr: &str| {
            Arc::new(LocalTransport::new(Arc::new(store_for_factory.clone()))) as Arc<dyn Transport>
        });
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "test-broker".into(),
            transports,
            ..BrokerConfig::default()
        });
        // Pair the store.
        let resp = broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (broker_admin.to_hex()),
                "addr": "store-1",
                "register_key": (store_admin.to_hex()),
            }),
        ));
        assert_eq!(resp.status, Status::Created);
        let store_key = resp.json_body().unwrap()["store_key"]
            .as_str()
            .unwrap()
            .to_string();
        Rig {
            broker,
            broker_admin: broker_admin.to_hex(),
            store,
            store_admin: store_admin.to_hex(),
            store_key,
        }
    }

    pub(crate) fn register_contributor(rig: &Rig, name: &str) -> String {
        // On the store...
        let resp = rig.store.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (rig.store_admin.clone()), "name": name, "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created);
        let key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        // ...and on the broker (the store would push this automatically;
        // here the rig does it explicitly).
        let resp = rig.broker.handle(&Request::post_json(
            "/api/contributors/register",
            &json!({"key": (rig.store_key.clone()), "contributor": name, "store_addr": "store-1"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        key
    }

    pub(crate) fn register_consumer(rig: &Rig, name: &str) -> String {
        let resp = rig.broker.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (rig.broker_admin.clone()), "name": name, "role": "consumer"}),
        ));
        assert_eq!(resp.status, Status::Created);
        resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string()
    }

    pub(crate) fn sync_rules(rig: &Rig, contributor: &str, epoch: u64, rules: Value) {
        sync_rules_at(rig, contributor, "store-1", epoch, rules);
    }

    pub(crate) fn sync_rules_at(
        rig: &Rig,
        contributor: &str,
        store_addr: &str,
        epoch: u64,
        rules: Value,
    ) {
        let resp = rig.broker.handle(&Request::post_json(
            "/api/sync",
            &json!({
                "key": (rig.store_key.clone()),
                "contributor": contributor,
                "store_addr": store_addr,
                "epoch": epoch,
                "rules": (rules),
            }),
        ));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn resolve_requires_key_and_hides_existence() {
        let rig = rig();
        register_contributor(&rig, "carol");
        // Register alice by hand to capture her minted resolve key.
        let resp = rig.store.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (rig.store_admin.clone()), "name": "alice", "role": "contributor"}),
        ));
        assert_eq!(resp.status, Status::Created);
        let resp = rig.broker.handle(&Request::post_json(
            "/api/contributors/register",
            &json!({"key": (rig.store_key.clone()), "contributor": "alice", "store_addr": "store-1"}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let alice_resolve = resp.json_body().unwrap()["resolve_key"]
            .as_str()
            .expect("registration mints a resolve key")
            .to_string();
        let resolve = |key: Option<&str>, name: &str| {
            let mut body = json!({ "name": name });
            if let Some(key) = key {
                body = json!({ "key": key, "name": name });
            }
            rig.broker
                .handle(&Request::post_json("/api/contributors/resolve", &body))
        };
        // No key / bad key: 401, regardless of whether the name exists.
        assert_eq!(resolve(None, "alice").status, Status::Unauthorized);
        assert_eq!(
            resolve(Some(&"0".repeat(64)), "alice").status,
            Status::Unauthorized
        );
        // A store key resolves anyone.
        let resp = resolve(Some(&rig.store_key), "alice");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            resp.json_body().unwrap()["store_addr"].as_str(),
            Some("store-1")
        );
        // A contributor resolves only themself; a real-but-foreign name
        // answers exactly like a nonexistent one.
        assert_eq!(resolve(Some(&alice_resolve), "alice").status, Status::Ok);
        let foreign = resolve(Some(&alice_resolve), "carol");
        let ghost = resolve(Some(&alice_resolve), "ghost");
        assert_eq!(foreign.status, Status::NotFound);
        assert_eq!(foreign.status, ghost.status);
        assert_eq!(foreign.body, ghost.body, "existence must not leak");
        // A consumer resolves only contributors whose stores escrowed
        // access for them.
        let bob = register_consumer(&rig, "bob");
        assert_eq!(resolve(Some(&bob), "alice").status, Status::NotFound);
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/add",
            &json!({"key": (bob.clone()), "contributors": ["alice"]}),
        ));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.json_body());
        assert_eq!(resolve(Some(&bob), "alice").status, Status::Ok);
        assert_eq!(resolve(Some(&bob), "carol").status, Status::NotFound);
    }

    #[test]
    fn front_door_labels_requests_by_route_pattern_never_by_path() {
        let (svc, _) = BrokerService::new(BrokerConfig::default());
        // A served route under a path that is not its pattern (trailing and
        // doubled slashes), a path nothing serves, and a served path under
        // the wrong method.
        assert_eq!(svc.handle(&Request::get("//healthz/")).status, Status::Ok);
        let missing = svc.handle(&Request::get("/api/contributors/alice-secret"));
        assert_eq!(missing.status, Status::NotFound);
        let wrong_method = svc.handle(&Request::get("/api/register"));
        assert_eq!(wrong_method.status, Status::MethodNotAllowed);

        let scrape = svc.handle(&Request::get("/metrics"));
        let text = String::from_utf8(scrape.body).unwrap();
        for line in [
            "sensorsafe_broker_request_seconds_count{endpoint=\"/healthz\"} 1",
            "sensorsafe_broker_request_seconds_count{endpoint=\"unmatched\"} 2",
            "sensorsafe_broker_requests_total{code=\"200\",endpoint=\"/healthz\"} 1",
            "sensorsafe_broker_requests_total{code=\"404\",endpoint=\"unmatched\"} 1",
            "sensorsafe_broker_requests_total{code=\"405\",endpoint=\"unmatched\"} 1",
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
    fn health_reports_registry() {
        let rig = rig();
        register_contributor(&rig, "alice");
        let resp = rig.broker.handle(&Request::get("/health"));
        let body = resp.json_body().unwrap();
        assert_eq!(body["stores"].as_i64(), Some(1));
        assert_eq!(body["contributors"].as_i64(), Some(1));
    }

    #[test]
    fn stale_sync_rejected() {
        let rig = rig();
        register_contributor(&rig, "alice");
        sync_rules(&rig, "alice", 2, json!([{"Action": "Allow"}]));
        // Stale epoch: accepted=false, rules unchanged.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/sync",
            &json!({
                "key": (rig.store_key.clone()),
                "contributor": "alice",
                "epoch": 1,
                "rules": [],
            }),
        ));
        assert_eq!(resp.json_body().unwrap()["accepted"].as_bool(), Some(false));
        let bob = register_consumer(&rig, "bob");
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({"key": bob, "query": {"channels": ["ecg"]}}),
        ));
        assert_eq!(
            resp.json_body().unwrap()["contributors"]
                .as_array()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn consumer_add_escrows_store_keys() {
        let rig = rig();
        let alice_key = register_contributor(&rig, "alice");
        let bob = register_consumer(&rig, "bob");
        sync_rules(&rig, "alice", 1, json!([{"Action": "Allow"}]));
        // Bob adds Alice: the broker registers him at her store.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/add",
            &json!({"key": (bob.clone()), "contributors": ["alice"]}),
        ));
        let body = resp.json_body().unwrap();
        assert_eq!(body["added"].as_array().unwrap().len(), 1, "{body}");
        assert!(body["errors"].as_array().unwrap().is_empty());
        // Fetch access and use the escrowed key directly at the store.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/access",
            &json!({"key": bob}),
        ));
        let access = resp.json_body().unwrap();
        let entry = &access["access"][0];
        assert_eq!(entry["contributor"].as_str(), Some("alice"));
        let store_api_key = entry["api_key"].as_str().unwrap().to_string();
        assert_eq!(store_api_key.len(), 64);
        // Upload something as Alice, then query as Bob with the escrowed
        // key.
        let scenario =
            sensorsafe_sim::Scenario::alice_day(sensorsafe_types::Timestamp::from_millis(0), 3, 1);
        let rendered = scenario.render();
        let segments: Vec<Value> = rendered
            .chest_segments
            .iter()
            .take(10)
            .map(sensorsafe_types::WaveSegment::to_json)
            .collect();
        rig.store.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": alice_key, "segments": (Value::Array(segments))}),
        ));
        rig.store.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": "ignored", "rules": []}),
        ));
        // Set allow-all via the store as Alice would.
        // (rules/set requires Alice's key; reuse registration key above.)
        let resp = rig.store.handle(&Request::post_json(
            "/api/query",
            &json!({"key": store_api_key, "contributor": "alice"}),
        ));
        assert_eq!(resp.status, Status::Ok);
    }

    /// The broker's twin of the data store's `metrics_name_no_principal`:
    /// what answers without a key tells nobody who shares with whom, and
    /// a memoized search reply is no exception. A failover is covered by
    /// `tests/failover.rs`, which checks `/fleet` and `/metrics` after
    /// one.
    #[test]
    fn unauthenticated_surfaces_name_no_principal() {
        const CONTRIBUTOR: &str = "alice-m42c";
        const CONSUMER: &str = "bob-m42c";
        let rig = rig();
        register_contributor(&rig, CONTRIBUTOR);
        let bob = register_consumer(&rig, CONSUMER);
        sync_rules(&rig, CONTRIBUTOR, 1, json!([{"Action": "Allow"}]));
        sync_rules(&rig, CONTRIBUTOR, 2, json!([{"Action": "Allow"}]));
        // Searched twice, then answered from the memo.
        for _ in 0..3 {
            assert_eq!(search_body(&rig, &bob), tree_body(&[CONTRIBUTOR], &[]));
        }
        assert_eq!(crate::search::tests::lists_evaluated(&rig), (3, 2));
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/add",
            &json!({"key": (bob.clone()), "contributors": [CONTRIBUTOR]}),
        ));
        assert_eq!(resp.status, Status::Ok);
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/access",
            &json!({"key": bob}),
        ));
        assert_eq!(resp.status, Status::Ok);
        rig.broker.fleet_sweep_now();
        for path in [
            "/metrics",
            "/traces",
            "/debug/spans",
            "/debug/profile",
            "/health",
            "/healthz",
            "/fleet",
        ] {
            // `seconds` is read by `/debug/profile` alone: a zero window.
            let resp = rig
                .broker
                .handle(&Request::get(path).with_query("seconds", "0"));
            assert_eq!(resp.status, Status::Ok, "{path}");
            let text = String::from_utf8(resp.body).unwrap();
            for name in [CONTRIBUTOR, CONSUMER] {
                assert!(!text.contains(name), "{path} names {name}: {text}");
            }
            assert!(!text.contains("consumer=\""), "{path}: {text}");
            assert!(!text.contains("contributor=\""), "{path}: {text}");
            if matches!(path, "/traces" | "/debug/spans") {
                // Not vacuous: the requests above are on it.
                assert!(text.contains("POST /api/search"), "{path}: {text}");
            }
        }
    }

    #[test]
    fn add_unknown_contributor_reports_error() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/add",
            &json!({"key": bob, "contributors": ["ghost"]}),
        ));
        let body = resp.json_body().unwrap();
        assert!(body["added"].as_array().unwrap().is_empty());
        assert_eq!(body["errors"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn adding_same_contributor_twice_is_idempotent() {
        let rig = rig();
        register_contributor(&rig, "alice");
        let bob = register_consumer(&rig, "bob");
        for _ in 0..2 {
            let resp = rig.broker.handle(&Request::post_json(
                "/api/consumers/add",
                &json!({"key": (bob.clone()), "contributors": ["alice"]}),
            ));
            assert_eq!(
                resp.json_body().unwrap()["added"].as_array().unwrap().len(),
                1
            );
        }
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/access",
            &json!({"key": bob}),
        ));
        assert_eq!(
            resp.json_body().unwrap()["access"]
                .as_array()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn two_contributors_same_store_reuse_escrowed_key() {
        let rig = rig();
        register_contributor(&rig, "alice");
        register_contributor(&rig, "carol");
        let bob = register_consumer(&rig, "bob");
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/add",
            &json!({"key": (bob.clone()), "contributors": ["alice", "carol"]}),
        ));
        let body = resp.json_body().unwrap();
        assert_eq!(body["added"].as_array().unwrap().len(), 2, "{body}");
        let resp = rig.broker.handle(&Request::post_json(
            "/api/consumers/access",
            &json!({"key": bob}),
        ));
        let access = resp.json_body().unwrap();
        let entries = access["access"].as_array().unwrap();
        assert_eq!(entries.len(), 2);
        // Same store → same escrowed key.
        assert_eq!(
            entries[0]["api_key"].as_str(),
            entries[1]["api_key"].as_str()
        );
    }

    #[test]
    fn role_separation() {
        let rig = rig();
        let bob = register_consumer(&rig, "bob");
        // A consumer key cannot sync rules or register contributors.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/sync",
            &json!({"key": (bob.clone()), "contributor": "x", "epoch": 1, "rules": []}),
        ));
        assert_eq!(resp.status, Status::Forbidden);
        // A store key cannot search.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({"key": (rig.store_key.clone()), "query": {}}),
        ));
        assert_eq!(resp.status, Status::Forbidden);
    }

    /// Wraps a [`LocalTransport`] behind a kill switch so tests can make
    /// a store unreachable without real sockets.
    struct FlakyTransport {
        inner: LocalTransport,
        down: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Transport for FlakyTransport {
        fn round_trip(
            &self,
            request: &Request,
        ) -> Result<Response, sensorsafe_net::TransportError> {
            if self.down.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(sensorsafe_net::TransportError::Io(std::io::Error::other(
                    "store down",
                )));
            }
            self.inner.round_trip(request)
        }
    }

    /// A rig whose store (`store-1`) can be taken down, with fast fleet
    /// thresholds. A store paired under any other address stays up.
    pub(crate) fn flaky_rig() -> (Rig, Arc<std::sync::atomic::AtomicBool>) {
        let (store, store_admin) = DataStoreService::new(DataStoreConfig::default());
        let down = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let store_for_factory = store.clone();
        let down_for_factory = down.clone();
        let transports: TransportFactory = Arc::new(move |addr: &str| {
            Arc::new(FlakyTransport {
                inner: LocalTransport::new(Arc::new(store_for_factory.clone())),
                down: if addr == "store-1" {
                    down_for_factory.clone()
                } else {
                    Default::default()
                },
            }) as Arc<dyn Transport>
        });
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "flaky-broker".into(),
            transports,
            fleet: crate::fleet::FleetConfig {
                unreachable_after: 2,
                healthy_after: 1,
                ..Default::default()
            },
        });
        let resp = broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (broker_admin.to_hex()),
                "addr": "store-1",
                "register_key": (store_admin.to_hex()),
            }),
        ));
        let store_key = resp.json_body().unwrap()["store_key"]
            .as_str()
            .unwrap()
            .to_string();
        (
            Rig {
                broker,
                broker_admin: broker_admin.to_hex(),
                store,
                store_admin: store_admin.to_hex(),
                store_key,
            },
            down,
        )
    }

    #[test]
    fn fleet_sweep_tracks_local_store() {
        let rig = rig();
        // Default hysteresis: two clean probes to reach Healthy.
        rig.broker.fleet_sweep_now();
        rig.broker.fleet_sweep_now();
        let resp = rig.broker.handle(&Request::get("/fleet"));
        let body = resp.json_body().unwrap();
        assert_eq!(body["sweeps"].as_u64(), Some(2));
        let stores = body["stores"].as_array().unwrap();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0]["addr"].as_str(), Some("store-1"));
        assert_eq!(stores[0]["health"].as_str(), Some("healthy"));
        assert_eq!(stores[0]["healthz_status"].as_str(), Some("ok"));
        assert_eq!(stores[0]["probes"].as_u64(), Some(2));
        assert_eq!(stores[0]["failures"].as_u64(), Some(0));
        // Fleet gauges are re-exported under the broker's own /metrics.
        let metrics = rig.broker.handle(&Request::get("/metrics"));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("sensorsafe_broker_fleet_store_health{store=\"store-1\"} 0"));
        assert!(text.contains("sensorsafe_broker_fleet_store_up{store=\"store-1\"} 1"));
        assert!(text.contains("sensorsafe_broker_fleet_stores{state=\"healthy\"} 1"));
        assert!(text.contains("sensorsafe_broker_fleet_scrape_seconds_count"));
    }

    #[test]
    fn fleet_marks_dead_store_unreachable_and_annotates_search() {
        let (rig, down) = flaky_rig();
        register_contributor(&rig, "alice");
        sync_rules(&rig, "alice", 1, json!([{"Action": "Allow"}]));
        let bob = register_consumer(&rig, "bob");
        rig.broker.fleet_sweep_now();
        assert_eq!(
            rig.broker
                .handle(&Request::get("/fleet"))
                .json_body()
                .unwrap()["stores"][0]["health"]
                .as_str(),
            Some("healthy")
        );

        // Kill the store: one failed probe degrades, the second
        // (unreachable_after = 2) declares it Unreachable.
        down.store(true, std::sync::atomic::Ordering::SeqCst);
        rig.broker.fleet_sweep_now();
        let body = rig
            .broker
            .handle(&Request::get("/fleet"))
            .json_body()
            .unwrap();
        assert_eq!(body["stores"][0]["health"].as_str(), Some("degraded"));
        rig.broker.fleet_sweep_now();
        let body = rig
            .broker
            .handle(&Request::get("/fleet"))
            .json_body()
            .unwrap();
        assert_eq!(body["stores"][0]["health"].as_str(), Some("unreachable"));
        assert!(body["stores"][0]["last_error"].as_str().is_some());

        // Search still returns the hit, but annotates it unreachable.
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({"key": (bob.clone()), "query": {"channels": ["ecg"]}}),
        ));
        let hits = resp.json_body().unwrap();
        assert_eq!(hits["contributors"].as_array().unwrap().len(), 1);
        assert_eq!(
            hits["unreachable"].as_array().unwrap()[0].as_str(),
            Some("alice")
        );

        // Store comes back: healthy_after = 1, one clean probe recovers.
        down.store(false, std::sync::atomic::Ordering::SeqCst);
        rig.broker.fleet_sweep_now();
        let body = rig
            .broker
            .handle(&Request::get("/fleet"))
            .json_body()
            .unwrap();
        assert_eq!(body["stores"][0]["health"].as_str(), Some("healthy"));
        let resp = rig.broker.handle(&Request::post_json(
            "/api/search",
            &json!({"key": bob, "query": {"channels": ["ecg"]}}),
        ));
        assert!(resp.json_body().unwrap()["unreachable"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fleet_reports_degraded_stores_distinctly() {
        // A store whose healthz says "degraded" is reachable but never
        // Healthy.
        let (store, _store_admin) = DataStoreService::new(DataStoreConfig::default());
        struct DegradedHealthz {
            inner: LocalTransport,
        }
        impl Transport for DegradedHealthz {
            fn round_trip(
                &self,
                request: &Request,
            ) -> Result<Response, sensorsafe_net::TransportError> {
                if request.path == "/healthz" {
                    return Ok(Response::json(&json!({"status": "degraded"})));
                }
                self.inner.round_trip(request)
            }
        }
        let store_for_factory = store.clone();
        let transports: TransportFactory = Arc::new(move |_addr: &str| {
            Arc::new(DegradedHealthz {
                inner: LocalTransport::new(Arc::new(store_for_factory.clone())),
            }) as Arc<dyn Transport>
        });
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "degraded-broker".into(),
            transports,
            ..BrokerConfig::default()
        });
        broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (broker_admin.to_hex()),
                "addr": "store-1",
                "register_key": "unused",
            }),
        ));
        for _ in 0..3 {
            broker.fleet_sweep_now();
        }
        let body = broker.handle(&Request::get("/fleet")).json_body().unwrap();
        assert_eq!(body["stores"][0]["health"].as_str(), Some("degraded"));
        assert_eq!(
            body["stores"][0]["healthz_status"].as_str(),
            Some("degraded")
        );
        assert_eq!(body["stores"][0]["failures"].as_u64(), Some(0));
    }

    #[test]
    fn sync_takes_an_array_or_one_rule_and_rejects_the_rest() {
        let rig = rig();
        let sync = |rules: Value| {
            rig.broker.handle(&Request::post_json(
                "/api/sync",
                &json!({
                    "key": (rig.store_key.clone()),
                    "contributor": "alice",
                    "store_addr": "store-1",
                    "epoch": 1,
                    "rules": rules,
                }),
            ))
        };
        for (bad, why) in [
            (
                json!([{"Action": "Allow"}, 7]),
                "rule must be a JSON object",
            ),
            (
                json!("[{'Action': 'Allow'}]"),
                "rule document must be an object or array",
            ),
            (json!(7), "rule document must be an object or array"),
            (
                json!([{"Action": "Allow", "Sensr": ["ecg"]}]),
                "unknown rule key 'Sensr'",
            ),
        ] {
            let resp = sync(bad.clone());
            assert_eq!(resp.status, Status::BadRequest, "{bad}");
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.contains(why), "{bad}: {body}");
        }
        // Nothing malformed reached the mirror; a single rule object is a
        // one-rule list.
        let bob = register_consumer(&rig, "bob");
        assert_eq!(search_body(&rig, &bob), tree_body(&[], &[]));
        let resp = sync(json!({"Action": "Allow"}));
        assert_eq!(resp.json_body().unwrap()["accepted"].as_bool(), Some(true));
        assert_eq!(search_body(&rig, &bob), tree_body(&["alice"], &[]));
    }

    #[test]
    fn healthz_reports_the_epoch_gauge_without_walking_the_mirror() {
        let rig = rig();
        let sync = |contributor: &str, epoch: u64| {
            rig.broker
                .handle(&Request::post_json(
                    "/api/sync",
                    &json!({
                        "key": (rig.store_key.clone()),
                        "contributor": contributor,
                        "epoch": epoch,
                        "rules": [],
                    }),
                ))
                .json_body()
                .unwrap()["accepted"]
                .as_bool()
                .unwrap()
        };
        let healthz_epoch = || {
            let body = rig.broker.handle(&Request::get("/healthz"));
            body.json_body().unwrap()["rule_sync_epoch"].as_u64()
        };
        let gauge = || {
            let line = format!(
                "sensorsafe_broker_rule_epoch_max {}",
                healthz_epoch().unwrap()
            );
            let scrape = rig.broker.registry().encode();
            assert!(scrape.lines().any(|l| l == line), "{line}: {scrape}");
        };
        assert_eq!(healthz_epoch(), Some(0));
        // Fresh, stale, a fresh contributor below the maximum, a newer
        // epoch, and a stale push above every *other* contributor's.
        for (contributor, epoch, accepted, highest) in [
            ("alice", 5, true, 5),
            ("alice", 3, false, 5),
            ("carol", 2, true, 5),
            ("carol", 9, true, 9),
            ("carol", 9, false, 9),
            ("alice", 7, true, 9),
        ] {
            assert_eq!(sync(contributor, epoch), accepted, "{contributor}@{epoch}");
            assert_eq!(healthz_epoch(), Some(highest), "{contributor}@{epoch}");
            gauge();
        }
        // The probe holds no lock on the mirror: it answers while a
        // writer does.
        let _writer = rig.broker.inner.rules.write();
        assert_eq!(healthz_epoch(), Some(9));
    }
}
