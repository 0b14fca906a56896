#![deny(missing_docs)]
//! The SensorSafe broker (Fig. 2 right, §5.2).
//!
//! The broker makes a *distributed* fleet of remote data stores usable:
//! it records every contributor's identity and data-store address,
//! mirrors their privacy rules for **contributor search**, automates
//! consumer registration at each store (key escrow, §5.4), and lets
//! consumers keep named contributor lists. Sensor data never flows
//! through the broker — consumers download directly from the stores
//! (`tests/end_to_end.rs` meters exactly this property in bytes).
//!
//! * [`registry`] — contributor → store-address registry, paired-store
//!   records, consumer accounts with escrowed keys and saved lists.
//! * [`service`] — the HTTP API: `/api/sync` (rule mirror, pushed by
//!   stores), `/api/register`, `/api/stores/register`,
//!   `/api/consumers/*` (escrow + lists), `/api/search`. The search
//!   handler and the mirror's metric families live in the private
//!   `search` module.
//! * [`web`] — the broker's web UI: contributor search form and result
//!   lists, plus the `/ui/fleet` health table.
//! * [`fleet`] — the fleet health plane: a background prober of every
//!   paired store's `/healthz` (and nothing else) feeding a per-store
//!   health state machine, surfaced at `GET /fleet` and as broker
//!   metrics.
//! * [`failover`] — the failover controller riding each fleet sweep:
//!   when a primary store trips Unreachable and has a paired replica,
//!   contributors are moved over via the registry's monotonic epoch
//!   CAS, the replica is promoted, and the deposed primary is fenced.

pub mod failover;
pub mod fleet;
pub mod registry;
mod search;
pub mod service;
pub mod web;

pub use failover::FailoverEvent;
pub use fleet::{FleetConfig, FleetScraper, StoreHealth};
pub use registry::{
    BrokerRegistry, ConsumerRecord, PromoteOutcome, StoreAccess, StoreAssignment, StoreRecord,
};
pub use service::{BrokerConfig, BrokerService, TransportFactory};
