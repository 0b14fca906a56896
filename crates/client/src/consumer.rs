//! The consumer application (Bob's workflow in §6).

use sensorsafe_datastore::{read_shared_view_json, SharedView};
use sensorsafe_json::{json, Value};
use sensorsafe_net::{Request, Transport};
use sensorsafe_store::Query;
use std::sync::Arc;

/// Resolves store addresses to transports.
pub type StoreTransports = Arc<dyn Fn(&str) -> Arc<dyn Transport> + Send + Sync>;

/// One entry of the consumer's access list, as returned by the broker.
#[derive(Debug, Clone, PartialEq)]
pub struct ContributorAccess {
    /// The contributor's name.
    pub contributor: String,
    /// Their data store's address.
    pub store_addr: String,
    /// The consumer's escrowed API key for that store.
    pub api_key: String,
}

/// Retry budget for failover-aware downloads (150 × 200 ms ≈ 30 s,
/// comfortably longer than the broker's detect-and-promote latency at
/// default scrape settings).
const DOWNLOAD_RETRIES: u32 = 150;
const DOWNLOAD_RETRY_DELAY: std::time::Duration = std::time::Duration::from_millis(200);

/// Why a single download attempt failed: retryable failures (transport
/// error, epoch fence) refresh the access list and try again; anything
/// the store actually answered (auth failure, bad query) is final.
enum DownloadError {
    Retryable(String),
    Fatal(String),
}

/// A data consumer's client: talks to the broker for discovery and to
/// data stores directly for data ("data consumers directly communicate
/// with remote data stores to download pertinent data", §4).
pub struct ConsumerApp {
    broker: Arc<dyn Transport>,
    broker_key: String,
    /// Resolves store addresses to transports (TCP in production, local
    /// in tests/benches).
    transports: StoreTransports,
}

impl ConsumerApp {
    /// A consumer holding `broker_key` on the broker.
    pub fn new(
        broker: Arc<dyn Transport>,
        broker_key: impl Into<String>,
        transports: StoreTransports,
    ) -> ConsumerApp {
        ConsumerApp {
            broker,
            broker_key: broker_key.into(),
            transports,
        }
    }

    fn post(&self, path: &str, body: &Value) -> Result<Value, String> {
        let resp = self
            .broker
            .round_trip(&Request::post_json(path, body))
            .map_err(|e| e.to_string())?;
        let payload = resp.json_body()?;
        if !resp.status.is_success() {
            return Err(format!(
                "{path} failed ({}): {}",
                resp.status.code(),
                payload["error"].as_str().unwrap_or("?")
            ));
        }
        Ok(payload)
    }

    /// Searches for contributors with suitable privacy rules (§5.2).
    /// `query` is the broker search-query JSON (see the broker API).
    pub fn search(&self, query: &Value) -> Result<Vec<String>, String> {
        let body = json!({"key": (self.broker_key.clone()), "query": (query.clone())});
        let payload = self.post("/api/search", &body)?;
        payload["contributors"]
            .as_string_list()
            .ok_or_else(|| "malformed search response".to_string())
    }

    /// Adds contributors to the account; the broker auto-registers this
    /// consumer at their stores and escrows the keys. Returns
    /// (added, errors).
    pub fn add_contributors(&self, names: &[&str]) -> Result<(Vec<String>, Vec<String>), String> {
        let body = json!({
            "key": (self.broker_key.clone()),
            "contributors": (Value::Array(names.iter().map(|n| Value::from(*n)).collect())),
        });
        let payload = self.post("/api/consumers/add", &body)?;
        let added = payload["added"].as_string_list().unwrap_or_default();
        let errors = payload["errors"].as_string_list().unwrap_or_default();
        Ok((added, errors))
    }

    /// Fetches the saved access list with escrowed keys.
    pub fn access_list(&self) -> Result<Vec<ContributorAccess>, String> {
        let body = json!({"key": (self.broker_key.clone())});
        let payload = self.post("/api/consumers/access", &body)?;
        let entries = payload["access"]
            .as_array()
            .ok_or("malformed access response")?;
        entries
            .iter()
            .map(|e| {
                Ok(ContributorAccess {
                    contributor: e["contributor"]
                        .as_str()
                        .ok_or("missing contributor")?
                        .to_string(),
                    store_addr: e["store_addr"]
                        .as_str()
                        .ok_or("missing store_addr")?
                        .to_string(),
                    api_key: e["api_key"].as_str().ok_or("missing api_key")?.to_string(),
                })
            })
            .collect()
    }

    /// Downloads one contributor's data **directly from their store**,
    /// through that contributor's privacy rules.
    ///
    /// Failover-aware: when the store is unreachable or answers with an
    /// epoch-fence rejection, the app refetches the access list from the
    /// broker (whose registry serves the *current* assignment — the
    /// promoted replica after a failover, holding the same escrowed key)
    /// and retries there. Other errors are returned immediately.
    pub fn download(
        &self,
        access: &ContributorAccess,
        query: &Query,
    ) -> Result<SharedView, String> {
        let first = match self.try_download(access, query) {
            Ok(view) => return Ok(view),
            Err(DownloadError::Fatal(e)) => return Err(e),
            Err(DownloadError::Retryable(e)) => e,
        };
        for attempt in 0..DOWNLOAD_RETRIES {
            if attempt > 0 {
                std::thread::sleep(DOWNLOAD_RETRY_DELAY);
            }
            let refreshed = self.access_list().ok().and_then(|list| {
                list.into_iter()
                    .find(|a| a.contributor == access.contributor)
            });
            let target = refreshed.as_ref().unwrap_or(access);
            match self.try_download(target, query) {
                Ok(view) => return Ok(view),
                Err(DownloadError::Fatal(e)) => return Err(e),
                Err(DownloadError::Retryable(_)) => {}
            }
        }
        Err(format!(
            "download from {} failed after retries: {first}",
            access.store_addr
        ))
    }

    fn try_download(
        &self,
        access: &ContributorAccess,
        query: &Query,
    ) -> Result<SharedView, DownloadError> {
        let transport = (self.transports)(&access.store_addr);
        let body = json!({
            "key": (access.api_key.clone()),
            "contributor": (access.contributor.clone()),
            "query": (query.to_json()),
        });
        let resp = match transport.round_trip(&Request::post_json("/api/query", &body)) {
            Ok(resp) => resp,
            Err(e) => return Err(DownloadError::Retryable(e.to_string())),
        };
        if sensorsafe_net::failover::is_fence_rejection(&resp) {
            return Err(DownloadError::Retryable("store fenced".to_string()));
        }
        if !resp.status.is_success() {
            return Err(DownloadError::Fatal(format!(
                "query failed: {}",
                resp.status.code()
            )));
        }
        read_shared_view_json(&resp.body).map_err(DownloadError::Fatal)
    }

    /// The §6 end-to-end loop: fetch the access list and download every
    /// contributor's data for `query`. Returns (contributor, view) pairs.
    ///
    /// The whole loop runs under one trace context (rooted here unless
    /// the caller already established one), so the broker access-list
    /// call and every store download carry the same `trace_id` in their
    /// `X-SensorSafe-Trace` headers and can be correlated across the
    /// servers' `GET /traces` endpoints.
    pub fn download_all(&self, query: &Query) -> Result<Vec<(String, SharedView)>, String> {
        let _trace = match sensorsafe_obsv::trace::current_context() {
            None => Some(sensorsafe_obsv::trace::context_scope(
                sensorsafe_obsv::TraceContext::root(),
            )),
            Some(_) => None,
        };
        let mut out = Vec::new();
        for access in self.access_list()? {
            let view = self.download(&access, query)?;
            out.push((access.contributor, view));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ContributorDevice;
    use sensorsafe_broker::{BrokerConfig, BrokerService, TransportFactory};
    use sensorsafe_datastore::{DataStoreConfig, DataStoreService};
    use sensorsafe_net::{LocalTransport, Service, Status};
    use sensorsafe_sim::Scenario;
    use sensorsafe_types::Timestamp;

    /// A full in-process deployment: one store, one broker, Alice with
    /// data, rules, and Bob the consumer.
    struct World {
        store: DataStoreService,
        broker: BrokerService,
        bob_key: String,
        transports: StoreTransports,
    }

    fn world(alice_rules: Value) -> World {
        let (store, store_admin) = DataStoreService::new(DataStoreConfig::default());
        let store_for_factory = store.clone();
        let factory: TransportFactory = Arc::new(move |_addr: &str| {
            Arc::new(LocalTransport::new(Arc::new(store_for_factory.clone()))) as Arc<dyn Transport>
        });
        let (broker, broker_admin) = BrokerService::new(BrokerConfig {
            name: "broker".into(),
            transports: factory.clone(),
            ..BrokerConfig::default()
        });
        // Pair store.
        let resp = broker.handle(&Request::post_json(
            "/api/stores/register",
            &json!({"key": (broker_admin.to_hex()), "addr": "store-1",
                    "register_key": (store_admin.to_hex())}),
        ));
        let store_key = resp.json_body().unwrap()["store_key"]
            .as_str()
            .unwrap()
            .to_string();
        // Register Alice on the store + broker.
        let resp = store.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (store_admin.to_hex()), "name": "alice", "role": "contributor"}),
        ));
        let alice_key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        broker.handle(&Request::post_json(
            "/api/contributors/register",
            &json!({"key": (store_key.clone()), "contributor": "alice", "store_addr": "store-1"}),
        ));
        // Alice's phone uploads her day.
        let store_transport: Arc<dyn Transport> =
            Arc::new(LocalTransport::new(Arc::new(store.clone())));
        let device = ContributorDevice::new(store_transport, alice_key.clone());
        let scenario = Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 8, 1);
        device.run_scenario(&scenario).unwrap();
        // Alice's rules (set over the API so the broker mirror syncs).
        // Attach the broker link first.
        let broker_transport: Arc<dyn Transport> =
            Arc::new(LocalTransport::new(Arc::new(broker.clone())));
        store.attach_broker(sensorsafe_datastore::BrokerLink {
            transport: broker_transport,
            store_key,
            store_addr: "store-1".into(),
        });
        let resp = store.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": alice_key, "rules": alice_rules}),
        ));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            resp.json_body().unwrap()["broker_synced"].as_bool(),
            Some(true)
        );
        // Bob registers at the broker.
        let resp = broker.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (broker_admin.to_hex()), "name": "bob", "role": "consumer"}),
        ));
        let bob_key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        let transports = factory;
        World {
            store,
            broker,
            bob_key,
            transports,
        }
    }

    fn app(world: &World) -> ConsumerApp {
        let broker_transport: Arc<dyn Transport> =
            Arc::new(LocalTransport::new(Arc::new(world.broker.clone())));
        ConsumerApp::new(
            broker_transport,
            world.bob_key.clone(),
            world.transports.clone(),
        )
    }

    #[test]
    fn bob_full_workflow() {
        let world = world(json!([{"Action": "Allow"}]));
        let bob = app(&world);
        // Search finds Alice.
        let hits = bob
            .search(&json!({"channels": ["ecg", "respiration"]}))
            .unwrap();
        assert_eq!(hits, ["alice"]);
        // Add her; download directly from the store.
        let (added, errors) = bob.add_contributors(&["alice"]).unwrap();
        assert_eq!(added, ["alice"]);
        assert!(errors.is_empty(), "{errors:?}");
        let results = bob.download_all(&Query::all()).unwrap();
        assert_eq!(results.len(), 1);
        let (name, view) = &results[0];
        assert_eq!(name, "alice");
        assert!(view.raw_samples() > 0);
    }

    #[test]
    fn enforcement_applies_on_download() {
        // Alice denies stress sources while driving (§6); Bob's download
        // must not contain commute ECG.
        let world = world(json!([
            {"Action": "Allow"},
            {"Context": ["Drive"], "Sensor": ["ecg", "respiration"], "Action": "Deny"},
        ]));
        let bob = app(&world);
        bob.add_contributors(&["alice"]).unwrap();
        let results = bob.download_all(&Query::all()).unwrap();
        let view = &results[0].1;
        assert!(view.raw_samples() > 0);
        // Find Alice's drive annotations via her own store state.
        let id = sensorsafe_types::ContributorId::new("alice");
        let drives: Vec<sensorsafe_types::TimeRange> = world
            .store
            .state()
            .with_contributor(&id, |a| {
                a.store
                    .annotations()
                    .iter()
                    .filter(|an| an.state_of(sensorsafe_types::ContextKind::Drive) == Some(true))
                    .map(|an| an.window)
                    .collect()
            })
            .unwrap();
        assert!(!drives.is_empty());
        for w in &view.windows {
            if let Some(seg) = &w.segment {
                if seg.channels().any(|c| c.as_str() == "ecg") {
                    let r = seg.time_range().unwrap();
                    assert!(!drives.iter().any(|d| d.overlaps(&r)), "commute ECG leaked");
                }
            }
        }
    }

    #[test]
    fn search_excludes_unsuitable_contributors() {
        // Bob studies stress while driving; Alice withholds it, so the
        // search must come back empty (the §6 outcome).
        let world = world(json!([
            {"Action": "Allow"},
            {"Context": ["Drive"], "Sensor": ["ecg", "respiration"], "Action": "Deny"},
        ]));
        let bob = app(&world);
        let hits = bob
            .search(&json!({
                "channels": ["ecg", "respiration"],
                "active_contexts": ["Drive"],
            }))
            .unwrap();
        assert!(hits.is_empty());
        // Without the driving requirement she matches.
        let hits = bob.search(&json!({"channels": ["accel_mag"]})).unwrap();
        assert_eq!(hits, ["alice"]);
    }

    #[test]
    fn download_all_spans_one_trace_across_broker_and_store() {
        let world = world(json!([{"Action": "Allow"}]));
        let bob = app(&world);
        bob.add_contributors(&["alice"]).unwrap();
        bob.download_all(&Query::all()).unwrap();
        // The access-list call (broker) and the query (store) were served
        // under the same ambient trace context.
        let broker_trace = world
            .broker
            .recent_traces()
            .into_iter()
            .rev()
            .find(|t| t.name == "POST /api/consumers/access")
            .expect("broker served the access-list call");
        let store_trace = world
            .store
            .recent_traces()
            .into_iter()
            .rev()
            .find(|t| t.name == "POST /api/query")
            .expect("store served the query");
        assert_ne!(broker_trace.trace_id, 0);
        assert_eq!(broker_trace.trace_id, store_trace.trace_id);
    }

    #[test]
    fn bad_broker_key_errors() {
        let world = world(json!([{"Action": "Allow"}]));
        let broker_transport: Arc<dyn Transport> =
            Arc::new(LocalTransport::new(Arc::new(world.broker.clone())));
        let evil = ConsumerApp::new(broker_transport, "0".repeat(64), world.transports.clone());
        assert!(evil.search(&json!({})).is_err());
        assert!(evil.access_list().is_err());
    }
}
