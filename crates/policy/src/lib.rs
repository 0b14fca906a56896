//! Context-aware fine-grained access control — the core contribution of
//! the SensorSafe paper (§5.1, Table 1, Fig. 4).
//!
//! Data contributors express privacy preferences as a list of
//! [`PrivacyRule`]s. Each rule has **conditions** (who is asking, where
//! the data was collected, when, which sensor channels, and what
//! behavioral context the contributor was in) and an **action** (allow,
//! deny, or share at a coarser *abstraction level*, Table 1b). The
//! evaluation engine resolves all matching rules into a per-window
//! [`Decision`] with *most-restrictive-wins* semantics and a deny-by-
//! default baseline, then the enforcement layer rewrites wave segments
//! accordingly — including the paper's sensor/context **dependency
//! closure**: raw sensor data is suppressed whenever *any* context
//! inferable from that sensor is not shared raw (e.g. withholding Smoking
//! suppresses raw respiration even if Stress is shared raw).
//!
//! # Module map
//!
//! * [`abstraction`] — Table 1(b) abstraction ladders and the synthetic
//!   geocoder that realizes the location ladder offline.
//! * [`rule`] — rule model plus the Fig. 4 JSON codec.
//! * [`deps`] — the sensor↔context dependency graph and its closure.
//! * [`eval`] — condition matching and decision resolution.
//! * [`enforce`](mod@enforce) — applying decisions to wave segments and annotations.
//! * [`index`] — the broker's mirror of everyone's rules, with identical
//!   rule lists interned, and the contributor search over it (§5.2).

pub mod abstraction;
pub mod compile;
pub mod deps;
pub mod enforce;
pub mod eval;
pub mod index;
pub mod rule;

pub use abstraction::{synthetic_geocode, ActivityAbs, Address, BinaryAbs, LocationAbs, TimeAbs};
pub use compile::CompiledRules;
pub use deps::DependencyGraph;
pub use enforce::{enforce, ContextLabel, SharedLocation, SharedSegment};
pub use eval::{evaluate, ConsumerCtx, Decision, WindowCtx};
pub use index::{Hit, RuleIndex, RuleSnapshot, Run, SearchQuery};
pub use rule::{
    AbstractionSpec, Action, Conditions, ConsumerSelector, LocationCondition, PrivacyRule,
    RuleError, TimeCondition,
};
