//! The contributor's phone: data collection, inference, upload, and
//! §5.3 privacy-rule-aware collection.

use sensorsafe_inference::InferencePipeline;
use sensorsafe_json::{json, to_vec, write_array, write_str};
use sensorsafe_net::{Request, Transport};
use sensorsafe_policy::{
    evaluate, ConsumerCtx, ConsumerSelector, DependencyGraph, PrivacyRule, WindowCtx,
};
use sensorsafe_sim::Scenario;
use sensorsafe_types::{ChannelId, ContextAnnotation, TimeRange, WaveSegment};
use std::sync::Arc;

/// What the device decided to do with one context window of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionDecision {
    /// Sensors stayed off: no rule could share data at this place/time
    /// regardless of context.
    SensorsOff,
    /// Collected temporarily to infer context, then discarded: no rule
    /// shares data in the inferred context.
    Discarded,
    /// Collected and uploaded.
    Uploaded,
}

/// Per-run accounting (bench A3 reports these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceMetrics {
    /// Samples produced by sensors (collected at all).
    pub collected_samples: usize,
    /// Samples actually uploaded.
    pub uploaded_samples: usize,
    /// Samples collected temporarily then discarded on-device.
    pub discarded_samples: usize,
    /// Seconds the sensors were fully off.
    pub sensor_off_secs: u32,
    /// Seconds the sensors were on.
    pub sensor_on_secs: u32,
    /// Bytes sent to the data store (JSON payload sizes).
    pub uploaded_bytes: usize,
}

/// The contributor's phone + chest band.
pub struct ContributorDevice {
    store: Arc<dyn Transport>,
    api_key: String,
    /// §5.3's optional behaviour ("we provide privacy rule-aware data
    /// collection as optional functionality").
    pub rule_aware: bool,
    pipeline: InferencePipeline,
    graph: DependencyGraph,
}

impl ContributorDevice {
    /// A device uploading to `store` as the contributor owning
    /// `api_key`.
    pub fn new(store: Arc<dyn Transport>, api_key: impl Into<String>) -> ContributorDevice {
        ContributorDevice {
            store,
            api_key: api_key.into(),
            rule_aware: false,
            pipeline: InferencePipeline::default(),
            graph: DependencyGraph::paper(),
        }
    }

    /// Enables privacy-rule-aware collection.
    pub fn with_rule_aware(mut self, enabled: bool) -> ContributorDevice {
        self.rule_aware = enabled;
        self
    }

    /// Downloads the owner's rules from the data store ("smartphones …
    /// download the owner's privacy rules from the remote data stores").
    pub fn download_rules(&self) -> Result<Vec<PrivacyRule>, String> {
        let resp = self
            .store
            .round_trip(&Request::post_json(
                "/api/rules/get",
                &json!({"key": (self.api_key.clone())}),
            ))
            .map_err(|e| e.to_string())?;
        if !resp.status.is_success() {
            return Err(format!("rules/get failed: {}", resp.status.code()));
        }
        let body = resp.json_body()?;
        PrivacyRule::parse_rules(&body["rules"].to_string()).map_err(|e| e.to_string())
    }

    /// Would *any* consumer mentioned in `rules` receive anything for
    /// this window? The device cannot know future consumers, so it
    /// probes one synthetic consumer per selector appearing in the rules
    /// (plus an anonymous one for selector-free rules).
    fn would_share(
        &self,
        rules: &[PrivacyRule],
        window: &WindowCtx,
        channels: &[ChannelId],
    ) -> bool {
        let mut probes: Vec<ConsumerCtx> = vec![ConsumerCtx::default()];
        for rule in rules {
            for sel in &rule.conditions.consumers {
                let ctx = match sel {
                    ConsumerSelector::User(u) => ConsumerCtx::user(u.as_str()),
                    ConsumerSelector::Group(g) => ConsumerCtx {
                        id: None,
                        groups: vec![g.clone()],
                        studies: vec![],
                    },
                    ConsumerSelector::Study(s) => ConsumerCtx {
                        id: None,
                        groups: vec![],
                        studies: vec![s.clone()],
                    },
                };
                probes.push(ctx);
            }
        }
        probes
            .iter()
            .any(|probe| !evaluate(rules, probe, window, channels, &self.graph).shares_nothing())
    }

    /// Runs a full scenario: renders sensor data, infers context,
    /// applies rule-aware collection if enabled, uploads the rest.
    /// Returns the metrics and the per-episode decisions.
    pub fn run_scenario(
        &self,
        scenario: &Scenario,
    ) -> Result<(DeviceMetrics, Vec<CollectionDecision>), String> {
        let rendered = scenario.render();
        let all_segments = rendered.all_segments();
        let rules = if self.rule_aware {
            self.download_rules()?
        } else {
            Vec::new()
        };
        let mut metrics = DeviceMetrics::default();
        let mut decisions = Vec::with_capacity(scenario.episodes.len());

        // The device works episode by episode (each has constant place
        // and condition).
        let truth = scenario.ground_truth();
        for episode_truth in &truth {
            let window = episode_truth.window;
            let episode_segments: Vec<WaveSegment> = all_segments
                .iter()
                .filter_map(|s| s.slice_time(&window))
                .collect();
            let episode_samples: usize = episode_segments.iter().map(WaveSegment::len).sum();
            let secs = (window.duration_millis() / 1000) as u32;
            let channels: Vec<ChannelId> = episode_segments
                .iter()
                .flat_map(|s| s.channels().cloned())
                .collect();
            let location = episode_segments.iter().find_map(|s| s.meta().location);

            let decision = if self.rule_aware {
                // Pass 1 — could data be shared under *some* context at
                // this place and time? Enumerate every transport mode ×
                // binary-context assignment (contexts fully known, so no
                // conservative matching fires). Only if every assignment
                // shares nothing can the sensors stay off.
                let could_share = hypothetical_contexts().iter().any(|contexts| {
                    let ctx = WindowCtx {
                        time: window.start,
                        location,
                        location_labels: Vec::new(),
                        contexts: contexts.clone(),
                    };
                    self.would_share(&rules, &ctx, &channels)
                });
                if !could_share {
                    metrics.sensor_off_secs += secs;
                    decisions.push(CollectionDecision::SensorsOff);
                    continue;
                }
                // Pass 2 — collect temporarily, infer context, re-check.
                metrics.collected_samples += episode_samples;
                metrics.sensor_on_secs += secs;
                let inferred = self.pipeline.classify_window(&episode_segments, window);
                let ctx = WindowCtx {
                    time: window.start,
                    location,
                    location_labels: Vec::new(),
                    contexts: inferred.states.clone(),
                };
                if self.would_share(&rules, &ctx, &channels) {
                    CollectionDecision::Uploaded
                } else {
                    metrics.discarded_samples += episode_samples;
                    decisions.push(CollectionDecision::Discarded);
                    continue;
                }
            } else {
                metrics.collected_samples += episode_samples;
                metrics.sensor_on_secs += secs;
                CollectionDecision::Uploaded
            };

            // Upload this episode's packets plus its annotation. A fresh
            // random idempotency token per episode lets a failover-aware
            // transport safely re-send the request after an ambiguous
            // transport failure: the store dedupes on the token, so a
            // commit-but-lost-response retry cannot double-store.
            let annotations = self.annotate(&episode_segments, &window);
            let token = sensorsafe_auth::ApiKey::generate().to_hex();
            let payload = upload_payload(&self.api_key, &episode_segments, &annotations, &token);
            let body_len = payload.len();
            let resp = self
                .store
                .round_trip(&Request::post_json_bytes("/api/upload", payload).idempotent())
                .map_err(|e| e.to_string())?;
            if !resp.status.is_success() {
                return Err(format!("upload failed: {}", resp.status.code()));
            }
            metrics.uploaded_samples += episode_samples;
            metrics.uploaded_bytes += body_len;
            decisions.push(decision);
        }
        Ok((metrics, decisions))
    }

    /// Runs the inference pipeline over one episode's segments.
    fn annotate(&self, segments: &[WaveSegment], window: &TimeRange) -> Vec<ContextAnnotation> {
        self.pipeline.annotate(segments, window.start, window.end)
    }
}

/// Every transport mode × binary-context assignment (5 × 2³ = 40
/// windows), each with fully known context states.
fn hypothetical_contexts() -> Vec<Vec<sensorsafe_types::ContextState>> {
    use sensorsafe_types::{ContextKind, ContextState};
    let mut out = Vec::with_capacity(40);
    for mode in ContextKind::TRANSPORT_MODES {
        for bits in 0..8u8 {
            let mut states = vec![
                ContextState::on(mode),
                ContextState {
                    kind: ContextKind::Moving,
                    active: mode != ContextKind::Still,
                },
                ContextState {
                    kind: ContextKind::Stress,
                    active: bits & 1 != 0,
                },
                ContextState {
                    kind: ContextKind::Conversation,
                    active: bits & 2 != 0,
                },
                ContextState {
                    kind: ContextKind::Smoking,
                    active: bits & 4 != 0,
                },
            ];
            // Mark the other transport modes explicitly inactive.
            for other in ContextKind::TRANSPORT_MODES {
                if other != mode {
                    states.push(ContextState::off(other));
                }
            }
            out.push(states);
        }
    }
    out
}

/// The `/api/upload` body as text: the segments by
/// [`WaveSegment::write_json`], with no tree of them.
fn upload_payload(
    api_key: &str,
    segments: &[WaveSegment],
    annotations: &[ContextAnnotation],
    upload_token: &str,
) -> Vec<u8> {
    let mut out = b"{\"key\":".to_vec();
    write_str(&mut out, api_key);
    out.extend_from_slice(b",\"upload_token\":");
    write_str(&mut out, upload_token);
    out.extend_from_slice(b",\"segments\":");
    write_array(&mut out, segments, |out, segment| segment.write_json(out));
    out.extend_from_slice(b",\"annotations\":");
    write_array(&mut out, annotations, |out, annotation| {
        out.extend_from_slice(&to_vec(&sensorsafe_datastore::annotation_to_json(
            annotation,
        )))
    });
    out.push(b'}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_datastore::{annotation_to_json, DataStoreConfig, DataStoreService};
    use sensorsafe_json::Value;
    use sensorsafe_net::{LocalTransport, Service, Status};
    use sensorsafe_types::Timestamp;

    fn store_with_alice() -> (DataStoreService, Arc<dyn Transport>, String) {
        let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
        let resp = svc.handle(&Request::post_json(
            "/api/register",
            &json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
        ));
        let alice_key = resp.json_body().unwrap()["api_key"]
            .as_str()
            .unwrap()
            .to_string();
        let transport: Arc<dyn Transport> = Arc::new(LocalTransport::new(Arc::new(svc.clone())));
        (svc, transport, alice_key)
    }

    fn scenario() -> Scenario {
        Scenario::alice_day(Timestamp::from_millis(1_311_500_000_000), 21, 1)
    }

    fn set_rules(svc: &DataStoreService, key: &str, rules: Value) {
        let resp = svc.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": key, "rules": rules}),
        ));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn upload_body_is_the_tree_form_byte_for_byte() {
        let rendered = scenario().render();
        let segments = &rendered.all_segments()[..3];
        let annotations = &rendered.annotations[..2];
        let tree = json!({
            "key": "k\"ey",
            "upload_token": "00ff",
            "segments": (Value::Array(segments.iter().map(WaveSegment::to_json).collect())),
            "annotations": (Value::Array(annotations.iter().map(annotation_to_json).collect())),
        });
        assert_eq!(
            upload_payload("k\"ey", segments, annotations, "00ff"),
            tree.to_string().into_bytes()
        );
    }

    #[test]
    fn plain_device_uploads_everything() {
        let (svc, transport, key) = store_with_alice();
        let device = ContributorDevice::new(transport, key);
        let (metrics, decisions) = device.run_scenario(&scenario()).unwrap();
        assert_eq!(metrics.collected_samples, metrics.uploaded_samples);
        assert_eq!(metrics.discarded_samples, 0);
        assert_eq!(metrics.sensor_off_secs, 0);
        assert!(decisions.iter().all(|d| *d == CollectionDecision::Uploaded));
        // Data landed in the store.
        let id = sensorsafe_types::ContributorId::new("alice");
        let stats = svc
            .state()
            .with_contributor(&id, |a| a.store.stats())
            .unwrap();
        assert_eq!(stats.samples, metrics.uploaded_samples);
        assert!(stats.annotations > 0);
    }

    #[test]
    fn rule_aware_device_skips_unshareable_context() {
        let (svc, transport, key) = store_with_alice();
        // Alice's §6 rules: share all, but deny everything while driving.
        set_rules(
            &svc,
            &key,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Action": "Deny"},
            ]),
        );
        let device = ContributorDevice::new(transport, key).with_rule_aware(true);
        let (metrics, decisions) = device.run_scenario(&scenario()).unwrap();
        // The two 60 s commutes are collected temporarily (context must
        // be inferred) and then discarded.
        let discarded = decisions
            .iter()
            .filter(|d| **d == CollectionDecision::Discarded)
            .count();
        assert_eq!(discarded, 2, "{decisions:?}");
        assert_eq!(metrics.discarded_samples, 2 * 60 * (50 + 10 + 1));
        assert_eq!(
            metrics.uploaded_samples,
            metrics.collected_samples - metrics.discarded_samples
        );
        // Nothing from the drives reached the server.
        let id = sensorsafe_types::ContributorId::new("alice");
        let stats = svc
            .state()
            .with_contributor(&id, |a| a.store.stats())
            .unwrap();
        assert_eq!(stats.samples, metrics.uploaded_samples);
    }

    #[test]
    fn rule_aware_device_turns_sensors_off_when_nothing_shareable() {
        let (svc, transport, key) = store_with_alice();
        // No rules at all: deny-by-default means nothing is ever shared,
        // so the sensors never need to turn on.
        set_rules(&svc, &key, json!([]));
        let device = ContributorDevice::new(transport, key).with_rule_aware(true);
        let (metrics, decisions) = device.run_scenario(&scenario()).unwrap();
        assert_eq!(metrics.collected_samples, 0);
        assert_eq!(metrics.uploaded_samples, 0);
        assert_eq!(metrics.sensor_off_secs, 600);
        assert!(decisions
            .iter()
            .all(|d| *d == CollectionDecision::SensorsOff));
    }

    #[test]
    fn rule_aware_saves_versus_plain() {
        let (svc, transport, key) = store_with_alice();
        set_rules(
            &svc,
            &key,
            json!([
                {"Action": "Allow"},
                {"Context": ["Drive"], "Action": "Deny"},
                {"Context": ["Conversation"], "Action": "Deny"},
            ]),
        );
        let plain = ContributorDevice::new(transport.clone(), key.clone());
        let (plain_metrics, _) = plain.run_scenario(&scenario()).unwrap();
        let aware = ContributorDevice::new(transport, key).with_rule_aware(true);
        let (aware_metrics, _) = aware.run_scenario(&scenario()).unwrap();
        assert!(aware_metrics.uploaded_bytes < plain_metrics.uploaded_bytes);
        assert!(aware_metrics.uploaded_samples < plain_metrics.uploaded_samples);
        // 2 drives + 2 conversations = 4 minutes of 10 withheld.
        let expected = plain_metrics.uploaded_samples - 4 * 60 * (50 + 10 + 1);
        assert_eq!(aware_metrics.uploaded_samples, expected);
    }

    #[test]
    fn download_rules_roundtrip() {
        let (svc, transport, key) = store_with_alice();
        set_rules(
            &svc,
            &key,
            json!([{"Consumer": ["bob"], "Action": "Allow"}]),
        );
        let device = ContributorDevice::new(transport, key);
        let rules = device.download_rules().unwrap();
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn bad_key_fails_cleanly() {
        let (_svc, transport, _key) = store_with_alice();
        let device = ContributorDevice::new(transport, "0".repeat(64)).with_rule_aware(true);
        assert!(device.run_scenario(&scenario()).is_err());
    }
}
