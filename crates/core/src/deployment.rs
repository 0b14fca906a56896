//! High-level deployment wiring: broker + data stores + actors.
//!
//! [`Deployment`] assembles a whole SensorSafe system — one broker, any
//! number of data stores, contributors and consumers — either in-process
//! (services call each other directly; the default for tests) or over
//! real TCP. The §6 walkthrough in miniature:
//!
//! ```
//! use sensorsafe_core::{json, Deployment};
//! use sensorsafe_core::sim::Scenario;
//! use sensorsafe_core::store::Query;
//! use sensorsafe_core::types::Timestamp;
//!
//! let mut deployment = Deployment::in_process();
//! deployment.add_store("s1");
//!
//! // Alice hosts her data on store s1 and allows sharing.
//! let alice = deployment.register_contributor("s1", "alice")?;
//! alice.set_rules(&json!([{"Action": "Allow"}]))?;
//! let day = Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 1, 1);
//! alice.upload_scenario(&day)?;
//!
//! // Bob discovers and downloads directly from the store — the broker
//! // only ever serves him the access list.
//! let bob = deployment.register_consumer("bob")?;
//! bob.add_contributors(&["alice"])?;
//! let results = bob.download_all(&Query::all())?;
//! assert!(results[0].1.raw_samples() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sensorsafe_broker::{BrokerConfig, BrokerService, FleetConfig, FleetScraper, TransportFactory};
use sensorsafe_client::{ConsumerApp, ContributorDevice};
use sensorsafe_datastore::{
    BrokerLink, DataStoreConfig, DataStoreService, ReplShipper, ReplicaLink,
};
use sensorsafe_json::{json, Value};
use sensorsafe_net::failover::{AddrResolver, FailoverTransport, TransportMaker};
use sensorsafe_net::{LocalTransport, Request, Server, Service, Status, TcpTransport, Transport};
use sensorsafe_sim::Scenario;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// Errors wiring or driving a deployment.
#[derive(Debug)]
pub struct DeploymentError(pub String);

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deployment error: {}", self.0)
    }
}

impl std::error::Error for DeploymentError {}

fn err(msg: impl Into<String>) -> DeploymentError {
    DeploymentError(msg.into())
}

type Stores = Arc<RwLock<BTreeMap<String, DataStoreService>>>;

/// A wired SensorSafe system: one broker plus data stores, with helpers
/// to register actors (mirroring the §6 onboarding flows).
pub struct Deployment {
    broker: BrokerService,
    broker_admin: String,
    stores: Stores,
    /// (store admin key, store sync key) per store name.
    store_keys: BTreeMap<String, (String, String)>,
    transports: TransportFactory,
    broker_transport: Arc<dyn Transport>,
    /// Background fleet scraper, once started; dropping the deployment
    /// stops and joins it.
    fleet_scraper: Option<FleetScraper>,
    /// Background replication shippers (one per paired primary);
    /// dropping the deployment stops and joins them.
    repl_shippers: Vec<ReplShipper>,
}

impl Deployment {
    /// An in-process deployment: services call each other directly
    /// (identical request/response bytes, no sockets). Store "addresses"
    /// are their names.
    pub fn in_process() -> Deployment {
        Deployment::in_process_with_fleet(FleetConfig::default())
    }

    /// [`Deployment::in_process`] with explicit fleet health-plane
    /// settings (probe interval and health thresholds).
    pub fn in_process_with_fleet(fleet: FleetConfig) -> Deployment {
        let stores: Stores = Arc::new(RwLock::new(BTreeMap::new()));
        let stores_for_factory = stores.clone();
        let transports: TransportFactory = Arc::new(move |addr: &str| {
            let stores = stores_for_factory.read();
            let svc = stores
                .get(addr)
                .unwrap_or_else(|| panic!("no in-process store named '{addr}'"))
                .clone();
            Arc::new(LocalTransport::new(Arc::new(svc))) as Arc<dyn Transport>
        });
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "broker".into(),
            transports: transports.clone(),
            fleet,
        });
        let broker_transport: Arc<dyn Transport> =
            Arc::new(LocalTransport::new(Arc::new(broker.clone())));
        Deployment {
            broker,
            broker_admin: broker_admin.to_hex(),
            stores,
            store_keys: BTreeMap::new(),
            transports,
            broker_transport,
            fleet_scraper: None,
            repl_shippers: Vec::new(),
        }
    }

    /// A TCP deployment builder: the broker is served on `broker_addr`
    /// and stores must be added with their bound addresses. (Used by the
    /// `serve` example; tests prefer [`Deployment::in_process`].)
    pub fn over_tcp(broker_addr: &str) -> Deployment {
        Deployment::over_tcp_with_fleet(broker_addr, FleetConfig::default())
    }

    /// [`Deployment::over_tcp`] with explicit fleet health-plane
    /// settings. The e2e suite uses fast thresholds here so Unreachable
    /// transitions happen in test time.
    pub fn over_tcp_with_fleet(broker_addr: &str, fleet: FleetConfig) -> Deployment {
        let transports: TransportFactory =
            Arc::new(|addr: &str| Arc::new(TcpTransport::new(addr)) as Arc<dyn Transport>);
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "broker".into(),
            transports: transports.clone(),
            fleet,
        });
        let broker_transport: Arc<dyn Transport> = Arc::new(TcpTransport::new(broker_addr));
        Deployment {
            broker,
            broker_admin: broker_admin.to_hex(),
            stores: Arc::new(RwLock::new(BTreeMap::new())),
            store_keys: BTreeMap::new(),
            transports,
            broker_transport,
            fleet_scraper: None,
            repl_shippers: Vec::new(),
        }
    }

    /// Serves the broker over TCP on `addr`. The caller owns the
    /// returned server (dropping it shuts it down).
    pub fn serve_broker(&self, addr: &str, workers: usize) -> std::io::Result<Server> {
        Server::bind(addr, workers, Arc::new(self.broker.clone()))
    }

    /// Serves a previously added store over TCP on its own address (for
    /// TCP deployments the store's name *is* its `host:port`).
    pub fn serve_store(&self, store_addr: &str, workers: usize) -> Result<Server, DeploymentError> {
        let store = self
            .stores
            .read()
            .get(store_addr)
            .cloned()
            .ok_or_else(|| err(format!("unknown store '{store_addr}'")))?;
        Server::bind(store_addr, workers, Arc::new(store))
            .map_err(|e| err(format!("binding store '{store_addr}': {e}")))
    }

    /// Starts the broker's background fleet scraper. Idempotent; the
    /// deployment holds the handle, and dropping the deployment (or
    /// calling [`Deployment::stop_fleet_scraper`]) stops and joins the
    /// thread.
    pub fn start_fleet_scraper(&mut self) {
        if self.fleet_scraper.is_none() {
            self.fleet_scraper = Some(self.broker.spawn_fleet_scraper());
        }
    }

    /// Stops the background fleet scraper, if running.
    pub fn stop_fleet_scraper(&mut self) {
        self.fleet_scraper = None;
    }

    /// The broker service (serve it over TCP, inspect it in tests).
    pub fn broker(&self) -> &BrokerService {
        &self.broker
    }

    /// The broker admin key (hex).
    pub fn broker_admin_key(&self) -> &str {
        &self.broker_admin
    }

    /// A transport to the broker.
    pub fn broker_transport(&self) -> Arc<dyn Transport> {
        self.broker_transport.clone()
    }

    /// The transport factory for store addresses.
    pub fn transports(&self) -> TransportFactory {
        self.transports.clone()
    }

    /// Creates a data store named/addressed `addr` and pairs it with the
    /// broker (address doubles as the in-process name).
    pub fn add_store(&mut self, addr: &str) -> DataStoreService {
        self.add_store_with(addr, DataStoreConfig::default())
    }

    /// Like [`Deployment::add_store`], but with an explicit store
    /// configuration (durable `data_dir`, slow-request threshold...).
    /// The config's `name` is overridden with `addr` so
    /// in-process routing keeps working.
    pub fn add_store_with(&mut self, addr: &str, config: DataStoreConfig) -> DataStoreService {
        let (store, store_admin) = DataStoreService::new(DataStoreConfig {
            name: addr.to_string(),
            ..config
        });
        self.stores.write().insert(addr.to_string(), store.clone());
        // Pair with the broker.
        let resp = self.broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({
                "key": (self.broker_admin.clone()),
                "addr": addr,
                "register_key": (store_admin.to_hex()),
            }),
        ));
        let store_key = resp
            .json_body()
            .ok()
            .and_then(|b| b["store_key"].as_str().map(str::to_string))
            .expect("broker pairing failed");
        store.attach_broker(BrokerLink {
            transport: self.broker_transport.clone(),
            store_key: store_key.clone(),
            store_addr: addr.to_string(),
        });
        self.store_keys
            .insert(addr.to_string(), (store_admin.to_hex(), store_key));
        store
    }

    /// Pairs `replica_addr` as the replication target for
    /// `primary_addr`: attaches the replica link on the primary store
    /// (new contributors get replication enabled, keys and rules are
    /// mirrored), records the pairing in the broker registry so the
    /// failover controller can promote, and starts a background
    /// `repl-shipper` pushing sealed WAL batches every `ship_interval`.
    ///
    /// Pair **before** registering contributors: keys are only
    /// recoverable for mirroring at mint time.
    pub fn pair_replica(
        &mut self,
        primary_addr: &str,
        replica_addr: &str,
        ship_interval: std::time::Duration,
    ) -> Result<(), DeploymentError> {
        let (replica_admin, _) = self
            .store_keys
            .get(replica_addr)
            .ok_or_else(|| err(format!("unknown replica store '{replica_addr}'")))?
            .clone();
        let primary = self
            .stores
            .read()
            .get(primary_addr)
            .cloned()
            .ok_or_else(|| err(format!("unknown primary store '{primary_addr}'")))?;
        primary.attach_replica(ReplicaLink {
            addr: replica_addr.to_string(),
            transport: (self.transports)(replica_addr),
            repl_key: replica_admin,
        });
        let resp = self.broker.handle(&Request::post_json(
            "/api/stores/replica",
            &json!({
                "key": (self.broker_admin.clone()),
                "primary": primary_addr,
                "replica": replica_addr,
            }),
        ));
        if !resp.status.is_success() {
            return Err(err(format!(
                "broker replica pairing failed: {}",
                resp.status.code()
            )));
        }
        self.repl_shippers
            .push(primary.spawn_repl_shipper(ship_interval));
        Ok(())
    }

    /// Registers a contributor on a store; automatically registers them
    /// on the broker too (§4: "When the data contributors are first
    /// registered on their data store, they are automatically registered
    /// on the broker").
    pub fn register_contributor(
        &self,
        store_addr: &str,
        name: &str,
    ) -> Result<ContributorHandle, DeploymentError> {
        let (store_admin, store_key) = self
            .store_keys
            .get(store_addr)
            .ok_or_else(|| err(format!("unknown store '{store_addr}'")))?
            .clone();
        let store_transport = (self.transports)(store_addr);
        let resp = store_transport
            .round_trip(&Request::post_json(
                "/api/register",
                &json!({"key": store_admin, "name": name, "role": "contributor"}),
            ))
            .map_err(|e| err(e.to_string()))?;
        if resp.status != Status::Created {
            return Err(err(format!(
                "store registration failed: {}",
                resp.status.code()
            )));
        }
        let api_key = resp
            .json_body()
            .map_err(err)?
            .get("api_key")
            .and_then(Value::as_str)
            .ok_or_else(|| err("store returned no key"))?
            .to_string();
        // Auto-registration at the broker.
        let resp = self
            .broker_transport
            .round_trip(&Request::post_json(
                "/api/contributors/register",
                &json!({"key": store_key, "contributor": name, "store_addr": store_addr}),
            ))
            .map_err(|e| err(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(err("broker auto-registration failed"));
        }
        let resolve_key = resp
            .json_body()
            .map_err(err)?
            .get("resolve_key")
            .and_then(Value::as_str)
            .ok_or_else(|| err("broker returned no resolve key"))?
            .to_string();
        // The handle talks to the store through a failover-aware
        // transport: after a broker-coordinated promotion it re-resolves
        // the contributor's assignment and retries transparently,
        // authenticating as the contributor with the minted resolve key.
        let broker_transport = self.broker_transport.clone();
        let contributor = name.to_string();
        let resolver_key = resolve_key.clone();
        let resolve: AddrResolver = Arc::new(move || {
            broker_transport
                .round_trip(&Request::post_json(
                    "/api/contributors/resolve",
                    &json!({"name": (contributor.clone()), "key": (resolver_key.clone())}),
                ))
                .ok()
                .filter(|resp| resp.status.is_success())
                .and_then(|resp| resp.json_body().ok())
                .and_then(|b| {
                    b.get("store_addr")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                })
        });
        let transports = self.transports.clone();
        let make: TransportMaker = Arc::new(move |addr: &str| (transports)(addr));
        let store: Arc<dyn Transport> = Arc::new(FailoverTransport::new(store_addr, make, resolve));
        Ok(ContributorHandle {
            name: name.to_string(),
            api_key,
            resolve_key,
            store,
        })
    }

    /// Registers a consumer at the broker, returning their app client.
    pub fn register_consumer(&self, name: &str) -> Result<ConsumerApp, DeploymentError> {
        self.register_consumer_with(name, &[], &[])
    }

    /// Registers a consumer with group/study memberships.
    pub fn register_consumer_with(
        &self,
        name: &str,
        groups: &[&str],
        studies: &[&str],
    ) -> Result<ConsumerApp, DeploymentError> {
        let resp = self
            .broker_transport
            .round_trip(&Request::post_json(
                "/api/register",
                &json!({
                    "key": (self.broker_admin.clone()),
                    "name": name,
                    "role": "consumer",
                    "groups": (Value::Array(groups.iter().map(|g| Value::from(*g)).collect())),
                    "studies": (Value::Array(studies.iter().map(|s| Value::from(*s)).collect())),
                }),
            ))
            .map_err(|e| err(e.to_string()))?;
        if resp.status != Status::Created {
            return Err(err(format!(
                "broker registration failed: {}",
                resp.status.code()
            )));
        }
        let key = resp
            .json_body()
            .map_err(err)?
            .get("api_key")
            .and_then(Value::as_str)
            .ok_or_else(|| err("broker returned no key"))?
            .to_string();
        Ok(ConsumerApp::new(
            self.broker_transport.clone(),
            key,
            self.transports.clone(),
        ))
    }
}

/// A contributor's credentials plus convenience operations.
pub struct ContributorHandle {
    /// The contributor's unique name.
    pub name: String,
    /// Their API key on their data store (hex).
    pub api_key: String,
    /// Their broker-side key authorizing `/api/contributors/resolve`
    /// (hex), minted at auto-registration.
    pub resolve_key: String,
    /// Transport to their data store.
    pub store: Arc<dyn Transport>,
}

impl ContributorHandle {
    /// A phone for this contributor.
    pub fn device(&self) -> ContributorDevice {
        ContributorDevice::new(self.store.clone(), self.api_key.clone())
    }

    /// Renders and uploads a scenario (no rule-aware collection).
    pub fn upload_scenario(&self, scenario: &Scenario) -> Result<(), DeploymentError> {
        self.device()
            .run_scenario(scenario)
            .map(|_| ())
            .map_err(err)
    }

    /// Replaces this contributor's privacy rules.
    pub fn set_rules(&self, rules: &Value) -> Result<u64, DeploymentError> {
        let resp = self
            .store
            .round_trip(&Request::post_json(
                "/api/rules/set",
                &json!({"key": (self.api_key.clone()), "rules": (rules.clone())}),
            ))
            .map_err(|e| err(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(err(format!("rules/set failed: {}", resp.status.code())));
        }
        resp.json_body()
            .map_err(err)?
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("no epoch in response"))
    }

    /// Defines this contributor's labeled places.
    pub fn set_places(&self, places: &Value) -> Result<(), DeploymentError> {
        let resp = self
            .store
            .round_trip(&Request::post_json(
                "/api/places/set",
                &json!({"key": (self.api_key.clone()), "places": (places.clone())}),
            ))
            .map_err(|e| err(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(err(format!("places/set failed: {}", resp.status.code())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_store::Query;
    use sensorsafe_types::Timestamp;

    #[test]
    fn in_process_deployment_end_to_end() {
        let mut deployment = Deployment::in_process();
        deployment.add_store("store-1");
        let alice = deployment.register_contributor("store-1", "alice").unwrap();
        let scenario = Scenario::alice_day(Timestamp::from_millis(0), 13, 1);
        alice.upload_scenario(&scenario).unwrap();
        alice.set_rules(&json!([{"Action": "Allow"}])).unwrap();
        let bob = deployment.register_consumer("bob").unwrap();
        let hits = bob.search(&json!({"channels": ["ecg"]})).unwrap();
        assert_eq!(hits, ["alice"]);
        bob.add_contributors(&["alice"]).unwrap();
        let results = bob.download_all(&Query::all()).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.raw_samples() > 0);
    }

    #[test]
    fn multiple_stores_multiple_contributors() {
        let mut deployment = Deployment::in_process();
        deployment.add_store("ucla-store");
        deployment.add_store("memphis-store");
        let alice = deployment
            .register_contributor("ucla-store", "alice")
            .unwrap();
        let carol = deployment
            .register_contributor("memphis-store", "carol")
            .unwrap();
        for handle in [&alice, &carol] {
            handle
                .upload_scenario(&Scenario::alice_day(Timestamp::from_millis(0), 3, 1))
                .unwrap();
            handle.set_rules(&json!([{"Action": "Allow"}])).unwrap();
        }
        let bob = deployment.register_consumer("bob").unwrap();
        let hits = bob.search(&json!({"channels": ["respiration"]})).unwrap();
        assert_eq!(hits, ["alice", "carol"]);
        let (added, errors) = bob.add_contributors(&["alice", "carol"]).unwrap();
        assert_eq!(added.len(), 2);
        assert!(errors.is_empty());
        let results = bob.download_all(&Query::all()).unwrap();
        assert_eq!(results.len(), 2);
        // The two escrowed keys are for *different* stores and differ.
        let access = bob.access_list().unwrap();
        assert_ne!(access[0].store_addr, access[1].store_addr);
        assert_ne!(access[0].api_key, access[1].api_key);
    }

    #[test]
    fn duplicate_contributor_registration_fails() {
        let mut deployment = Deployment::in_process();
        deployment.add_store("s");
        deployment.register_contributor("s", "alice").unwrap();
        assert!(deployment.register_contributor("s", "alice").is_err());
        assert!(deployment.register_contributor("nope", "bob").is_err());
    }
}
