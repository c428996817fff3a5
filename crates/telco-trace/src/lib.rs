//! Synthetic telco big-data trace generation.
//!
//! The SPATE paper evaluates on a proprietary 5GB anonymized trace from a
//! real operator: 1.7M call detail records (CDR), 21M network measurement
//! records (NMS) and 3660 cells on 1192 antennas over ~6000 km², produced
//! by ~300K users during one week, arriving in 30-minute snapshots.
//!
//! This crate substitutes a deterministic synthetic trace that preserves
//! every property the SPATE storage and indexing layers are sensitive to:
//!
//! * **Schema shape** — ~200 CDR attributes (many optional/blank, mostly
//!   nominal text and small integers), 8 NMS counter attributes, 10 CELL
//!   attributes ([`schema`]).
//! * **Entropy profile** — most CDR attributes below 1 bit, several at 0
//!   (paper Fig. 4); verified by [`entropy`].
//! * **Arrival pattern** — 48 epochs/day with a diurnal load curve and
//!   weekday variation ([`load`]), so the Morning/Afternoon/Evening/Night
//!   and Mon–Sun experiment partitions (Figs. 7–10) are meaningful.
//! * **Spatial structure** — cells attached to antennas laid out over a
//!   ~6000 km² region, with Zipf-skewed user attachment ([`cells`]).
//!
//! Generation is fully deterministic given a [`generator::TraceConfig`]
//! seed, so experiments are reproducible bit-for-bit.

pub mod cells;
pub mod entropy;
pub mod generator;
pub mod load;
pub mod record;
pub mod schema;
pub mod snapshot;
pub mod text;
pub mod time;

pub use cells::CellLayout;
pub use generator::{TraceConfig, TraceGenerator};
pub use record::{Record, Value};
pub use schema::{Schema, TableKind};
pub use snapshot::{Row, Snapshot};
pub use text::Text;
pub use time::{DayPeriod, EpochId, Weekday, EPOCHS_PER_DAY, EPOCH_MINUTES};
