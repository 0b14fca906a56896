//! Identity newtypes for the actors and servers in the architecture.
//!
//! The paper identifies data contributors and consumers by "unique user
//! name", groups consumers into groups and studies (Table 1's consumer
//! condition attributes), and locates each contributor's remote data store
//! by IP address held at the broker.

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(String);

        impl $name {
            /// Creates an id; panics on an empty string.
            pub fn new(s: impl Into<String>) -> Self {
                let s = s.into();
                assert!(!s.is_empty(), concat!(stringify!($name), " must be non-empty"));
                Self(s)
            }

            /// The string form.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.0)
            }
        }

        // `Eq`, `Ord` and `Hash` are derived from the one `String` field,
        // so they agree with `str`'s: maps keyed by the id look up by `&str`.
        impl std::borrow::Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }
    };
}

string_id! {
    /// A data contributor's unique user name (e.g. `"alice"`).
    ContributorId
}

string_id! {
    /// A data consumer's unique user name (e.g. `"bob"`).
    ConsumerId
}

string_id! {
    /// A named group of consumers (Table 1 "Group Name").
    GroupId
}

string_id! {
    /// A named study enrolling consumers (Table 1 "Study Name").
    StudyId
}

/// The network address of a remote data store, as the broker records it
/// ("the IP address of the associated remote data store", §5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreAddr(String);

impl StoreAddr {
    /// Creates an address like `"127.0.0.1:7001"` or an in-process handle
    /// name. No validation beyond non-emptiness: the transport layer
    /// interprets it.
    pub fn new(s: impl Into<String>) -> StoreAddr {
        let s = s.into();
        assert!(!s.is_empty(), "store address must be non-empty");
        StoreAddr(s)
    }

    /// The string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for StoreAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for StoreAddr {
    fn from(s: &str) -> Self {
        StoreAddr::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_construction_and_display() {
        let c = ContributorId::new("alice");
        assert_eq!(c.as_str(), "alice");
        assert_eq!(c.to_string(), "alice");
        assert_eq!(ContributorId::from("alice"), c);
    }

    #[test]
    fn ids_borrow_as_str() {
        use std::collections::{BTreeMap, HashSet};
        let by_name: BTreeMap<ContributorId, u32> = [("alice", 1), ("zoë", 2)]
            .map(|(n, v)| (n.into(), v))
            .into();
        assert_eq!(by_name.get("zoë"), Some(&2));
        assert_eq!(by_name.get("bob"), None);
        let set: HashSet<ConsumerId> = [ConsumerId::new("bob")].into();
        assert!(set.contains("bob"));
        assert_eq!(GroupId::new("g").as_ref(), "g");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_id_panics() {
        let _ = ConsumerId::new("");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Purely a compile-time property; this test documents intent.
        let g = GroupId::new("researchers");
        let s = StudyId::new("stress-study");
        assert_eq!(g.as_str(), "researchers");
        assert_eq!(s.as_str(), "stress-study");
    }

    #[test]
    fn store_addr() {
        let a = StoreAddr::new("127.0.0.1:7001");
        assert_eq!(a.to_string(), "127.0.0.1:7001");
    }
}
