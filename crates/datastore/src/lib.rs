#![deny(missing_docs)]
//! The SensorSafe remote data store server (Fig. 2, left).
//!
//! One data store hosts one or more contributors' data (a personal
//! machine hosts one; an institutional server hosts its study's
//! participants, per the IRB requirement of §1). Every API access passes
//! the authentication layer ([`sensorsafe_auth::KeyRing`]); data
//! consumers reach data only through the **query/privacy processing
//! module** ([`pipeline`]), which evaluates the contributor's privacy
//! rules per context window and rewrites segments before they leave the
//! server.
//!
//! * [`state`] — per-contributor accounts (segment store, rules, labeled
//!   places) and registered consumers.
//! * [`pipeline`] — the enforcement pipeline: query → window split →
//!   rule evaluation → rewritten [`SharedSegment`](sensorsafe_policy::SharedSegment)s, plus the JSON wire
//!   codec for shared views.
//! * [`service`] — the HTTP API surface (register / upload / query /
//!   rules / places) and broker rule-sync hooks (§5.2).
//! * [`web`] — the server-rendered web UI (Fig. 3): login, rule builder,
//!   data viewer.

pub mod pipeline;
pub mod repl;
pub mod service;
pub mod state;
mod upload;
pub mod web;

pub use pipeline::{
    read_shared_view_json, shared_view, shared_view_from_json, shared_view_to_json,
    write_shared_view_json, SharedView,
};
pub use repl::{ReplShipper, ReplicaLink};
pub use service::{annotation_to_json, BrokerLink, DataStoreConfig, DataStoreService};
pub use state::{
    ConsumerAccount, ContributorAccount, ContributorReadGuard, ContributorWriteGuard,
    DataStoreState,
};
