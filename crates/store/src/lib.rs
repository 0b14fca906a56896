//! Embedded wave-segment storage engine (paper §5.1 "Data Storage").
//!
//! A remote data store "needs to handle large volumes of data generated
//! by continuous sensing"; the paper's answer is the wave-segment
//! representation plus a merge optimization. This crate is that storage
//! layer, built from scratch:
//!
//! * [`codec`] — compact binary encoding of segments and annotations for
//!   the log (the JSON form of Fig. 5 is the *wire* format; the log uses
//!   binary framing with CRC32 checksums).
//! * [`wal`] — the log record ([`WalRecord`]) and its tag + payload
//!   codec: what the journal frames, what checkpoints snapshot, what
//!   replication batches carry.
//! * [`journal`] — durability: the **store-wide journal**
//!   ([`StoreJournal`]) shared by every hosted account; a store reopened
//!   from it replays to identical state. One commit thread batches
//!   staged records from many accounts into a single `write`+`fsync`
//!   (DESIGN.md §8); segments rotate at a size threshold, and a rotation
//!   checkpoints account state once the sealed log since the last
//!   checkpoint outweighs it, so crash replay is bounded to one
//!   checkpoint, at most its own size of sealed log, and the tail; and
//!   checkpointed segments are garbage-collected once replication acks
//!   catch up.
//! * [`ledger`] — the file-backed, hash-chained privacy audit ledger
//!   ([`FileLedger`]): `obsv::ledger`'s integrity model persisted with the
//!   journal's flush + `sync_data` discipline, so enforcement decisions
//!   are as durable as the data they were made about.
//! * [`repl`] — replication shipping: sealed batches cut from the live
//!   record stream plus the CRC-framed wire codec a primary uses to push
//!   them to its replica (ISSUE 6's rotation-lite log shipping).
//! * [`SegmentStore`] — the in-memory engine: a time-ordered segment
//!   index per series, context-annotation index, the §5.1 **merge
//!   optimizer** ("remote data stores perform a wave segment optimization
//!   by merging them as much as possible"), and the query engine.
//! * [`TupleStore`] — the paper's strawman baseline ("storing the time
//!   series of sensor data as individual tuples is inefficient both in
//!   terms of storage size and querying time"), used by the F5 benches.

#![deny(missing_docs)]

pub mod baseline;
pub mod codec;
pub mod journal;
pub mod ledger;
pub mod query;
pub mod repl;
pub mod store;
pub mod wal;

pub use baseline::TupleStore;
pub use codec::{decode_annotation, decode_segment, encode_annotation, encode_segment, CodecError};
pub use journal::{
    CheckpointAccount, JournalConfig, JournalStats, JournalTicket, RecoveredAccount, StoreJournal,
};
pub use ledger::{verify_ledger_file, FileLedger};
pub use query::Query;
pub use repl::{ReplBuffer, ReplConfig, ReplFrame, SealedBatch};
pub use store::{MergePolicy, SegmentStore, StoreError, StoreStats};
pub use wal::{WalError, WalRecord};
