//! The fixed op lists the workloads replay, and the seeded generator
//! that makes them.
//!
//! An op list is a pure function of `(workload, seed, cell layout,
//! sizing)`. To keep run-to-run spread low across seeds, the *multiset*
//! of (op kind, temporal window) is the same for every seed: the seed
//! decides only the order, the spatial boxes and the attribute
//! selections. Epoch cost varies ~10x over the day with the trace's
//! diurnal load, so sampling windows at random would move the medians
//! with the seed rather than with the code.

use crate::harness::Class;
use telco_trace::cells::{BoundingBox, CellLayout, REGION_SIDE_M};
use telco_trace::time::EPOCHS_PER_DAY;

/// SplitMix64: the op lists need a few thousand draws, not a crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The two warehouse backends `ingest_decay` runs side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Path,
    Cas,
}

/// SPATE-SQL statements the workloads issue.
pub const SQL_NMS_DROPS: &str =
    "SELECT cell_id, SUM(call_drops), COUNT(*) FROM NMS GROUP BY cell_id";
pub const SQL_CDR_TYPES: &str =
    "SELECT call_type, COUNT(*), SUM(upflux) FROM CDR GROUP BY call_type";
/// The two-table relocation join of the `spate-sql` crate docs.
pub const SQL_RELOCATION_JOIN: &str = "SELECT a.caller_id FROM CDR a, CDR b \
     WHERE a.caller_id = b.caller_id AND a.cell_id != b.cell_id";

#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `Q(a, b, w)`: in-process `fw.query`, or `ClientConn::explore` in
    /// `serve_mixed`.
    Explore {
        attributes: Vec<&'static str>,
        bbox: BoundingBox,
    },
    T1,
    T2,
    T3,
    T4,
    T5 {
        k: usize,
    },
    T6,
    T7 {
        k: usize,
    },
    T8,
    Sql(&'static str),
    /// Ingest the snapshot of epoch `window.0` into one backend
    /// (`ingest_decay`) or through `Server::ingest` (`serve_mixed`).
    Ingest(Backend),
}

/// One op: what to run, over which inclusive epoch window, timed as
/// which class.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub window: (u32, u32),
    pub class: Class,
}

/// Canonical bytes of an op list, for the same-seed / different-seed
/// determinism checks.
pub fn op_list_bytes(ops: &[Op]) -> Vec<u8> {
    let mut out = String::new();
    for op in ops {
        out.push_str(&format!("{op:?}\n"));
    }
    out.into_bytes()
}

pub fn classes(ops: &[Op]) -> Vec<Class> {
    ops.iter().map(|op| op.class).collect()
}

/// Attributes light queries select from.
const CDR_ATTRIBUTES: [&str; 6] = [
    "upflux",
    "downflux",
    "duration_s",
    "call_type",
    "call_result",
    "tech",
];
const NMS_ATTRIBUTES: [&str; 4] = ["call_attempts", "call_drops", "throughput_kbps", "rssi_dbm"];
const HEAVY_ATTRIBUTES: [&str; 3] = ["upflux", "downflux", "call_drops"];
/// Share of the cells an interactive query's box holds: a ~15 km box in
/// the urban core.
const LIGHT_BOX_CELL_SHARE: f64 = 0.4;
/// Window of the scan class.
pub const HEAVY_WINDOW: u32 = 24;

/// `n` distinct attributes (2-4), always at least one of each table so
/// every light query returns both; the rest from either.
fn pick_attributes(rng: &mut Rng, n: usize) -> Vec<&'static str> {
    let (mut cdr, mut nms) = (CDR_ATTRIBUTES.to_vec(), NMS_ATTRIBUTES.to_vec());
    rng.shuffle(&mut cdr);
    rng.shuffle(&mut nms);
    let mut picked = vec![cdr.remove(0), nms.remove(0)];
    cdr.extend(nms);
    rng.shuffle(&mut cdr);
    picked.extend(cdr.into_iter().take(n - 2));
    picked
}

/// The smallest square around a random cell site that holds two fifths
/// of the cells, clipped to the region. A box of fixed side would hold
/// anything from one antenna to the whole urban core depending on where
/// the seed put it, and the rows returned (so the op's cost) with it.
fn pick_box(rng: &mut Rng, layout: &CellLayout) -> BoundingBox {
    let centre = &layout.cells[rng.below(layout.cells.len())];
    let mut distances: Vec<f64> = layout
        .cells
        .iter()
        .map(|c| (c.x_m - centre.x_m).abs().max((c.y_m - centre.y_m).abs()))
        .collect();
    distances.sort_by(f64::total_cmp);
    let wanted = (layout.cells.len() as f64 * LIGHT_BOX_CELL_SHARE).ceil() as usize;
    let half = distances[wanted.clamp(1, distances.len()) - 1];
    BoundingBox::new(
        (centre.x_m - half).max(0.0),
        (centre.y_m - half).max(0.0),
        (centre.x_m + half).min(REGION_SIDE_M),
        (centre.y_m + half).min(REGION_SIDE_M),
    )
}

/// The `n`-th light explore of a list; `n` fixes the attribute count so
/// that the mix of 2-, 3- and 4-attribute queries is the same for every
/// seed.
fn light_explore(rng: &mut Rng, layout: &CellLayout, window: (u32, u32), n: u32) -> Op {
    Op {
        kind: OpKind::Explore {
            attributes: pick_attributes(rng, 2 + (n % 3) as usize),
            bbox: pick_box(rng, layout),
        },
        window,
        class: Class::Light,
    }
}

fn heavy_explore(window: (u32, u32)) -> Op {
    Op {
        kind: OpKind::Explore {
            attributes: HEAVY_ATTRIBUTES.to_vec(),
            bbox: BoundingBox::everything(),
        },
        window,
        class: Class::Heavy,
    }
}

/// Start epochs of the scan class's windows over days `first..end`: two
/// per day, 06:00-18:00 and 09:00-21:00. Both span the busy hours, so the
/// class's costs form one cluster and its median does not sit in the gap
/// between a night-time and a daytime mode.
fn heavy_starts(first_day: u32, end_day: u32) -> Vec<u32> {
    (first_day..end_day)
        .flat_map(|day| [day * EPOCHS_PER_DAY + 12, day * EPOCHS_PER_DAY + 18])
        .collect()
}

/// Op list of `explore_path` and `explore_cas` over `n_epochs` retained
/// epochs (a multiple of 24):
///
/// - light: one `Q(a,b,w)` per epoch, 1-epoch window on even epochs and
///   2-epoch on odd ones, a box holding two fifths of the cells, 2-4
///   attributes;
/// - heavy: 24-epoch everything-bbox scan-and-fold ops, the daytime
///   windows (see [`heavy_starts`]) crossed with {`query`, `t2_range`,
///   `t3_aggregate`} in rotation, `heavy_ops` of them;
/// - other: `other_instances` each of T1, T4, T5 (k=5), T6, T7 (k=4),
///   T8 and two SQL statements, over 12 epochs (T8: 24, the SQL join: 6)
///   starting 07:00 on days 1, 2, ...
pub fn explore_ops(
    seed: u64,
    layout: &CellLayout,
    n_epochs: u32,
    heavy_ops: u32,
    other_instances: u32,
) -> Vec<Op> {
    assert!(n_epochs.is_multiple_of(HEAVY_WINDOW) && n_epochs >= 2 * EPOCHS_PER_DAY);
    let mut rng = Rng::new(seed ^ 0x0E0B_10DE);
    let mut ops = Vec::new();
    for e in 0..n_epochs {
        let end = (e + e % 2).min(n_epochs - 1);
        ops.push(light_explore(&mut rng, layout, (e, end), e));
    }
    let starts = heavy_starts(0, n_epochs / EPOCHS_PER_DAY);
    for j in 0..heavy_ops {
        let start = starts[j as usize % starts.len()];
        let window = (start, start + HEAVY_WINDOW - 1);
        ops.push(match j % 3 {
            0 => heavy_explore(window),
            1 => Op {
                kind: OpKind::T2,
                window,
                class: Class::Heavy,
            },
            _ => Op {
                kind: OpKind::T3,
                window,
                class: Class::Heavy,
            },
        });
    }
    for m in 0..other_instances {
        // 07:00 of day m+1 (wrapping inside the retained days).
        let day = 1 + m % (n_epochs / EPOCHS_PER_DAY - 1);
        let start = day * EPOCHS_PER_DAY + 14;
        let other = |kind, len: u32| Op {
            kind,
            window: (start, (start + len - 1).min(n_epochs - 1)),
            class: Class::Other,
        };
        ops.extend([
            other(OpKind::T1, 1),
            other(OpKind::T4, 12),
            other(OpKind::T5 { k: 5 }, 12),
            other(OpKind::T6, 12),
            other(OpKind::T7 { k: 4 }, 12),
            other(OpKind::T8, 24),
            other(OpKind::Sql(SQL_NMS_DROPS), 12),
            other(OpKind::Sql(SQL_RELOCATION_JOIN), 6),
        ]);
    }
    rng.shuffle(&mut ops);
    ops
}

/// Op list of `ingest_decay`: op `2k` ingests snapshot `k` into the Path
/// warehouse (light), op `2k+1` into the CAS warehouse (heavy). Epoch
/// order is the only order a warehouse accepts, so the seed shapes the
/// trace only.
pub fn ingest_ops(n_epochs: u32) -> Vec<Op> {
    (0..n_epochs)
        .flat_map(|e| {
            [(Backend::Path, Class::Light), (Backend::Cas, Class::Heavy)].map(|(backend, class)| {
                Op {
                    kind: OpKind::Ingest(backend),
                    window: (e, e),
                    class,
                }
            })
        })
        .collect()
}

/// Sizing of the `serve_mixed` op list.
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    /// Epochs ingested before the server starts (whole days, >= 3: day 0
    /// has decayed by then under `full_resolution_days: 1`).
    pub base_epochs: u32,
    pub light: u32,
    pub heavy: u32,
    pub sql: u32,
    pub decayed: u32,
    /// Mid-run `Server::ingest` calls, evenly spaced.
    pub ingests: u32,
}

impl ServeMix {
    /// Ops per round (`L`).
    pub fn total_ops(&self) -> u32 {
        self.light + self.heavy + self.sql + self.decayed + self.ingests
    }

    /// Snapshots the workload needs generated.
    pub fn total_epochs(&self) -> u32 {
        self.base_epochs + self.ingests
    }
}

/// Op list of `serve_mixed`. The seed shuffles the classes' positions
/// between one ingest and the next; the windows follow the warehouse's
/// state at each position:
///
/// - light: 3-4-epoch small-box explores, 9 in 10 cycling through the 24
///   most recent epochs, 1 in 10 over the rest of the retained range;
/// - heavy: 24-epoch everything-bbox explores over the daytime windows
///   of the retained whole days in rotation;
/// - other: SQL aggregates over 8 epochs, small-box windows inside a
///   decayed day (answered from highlights), and the ingests, each of
///   which adds one epoch; the first also crosses a day boundary and
///   decays the oldest retained day.
pub fn serve_ops(seed: u64, layout: &CellLayout, mix: ServeMix) -> Vec<Op> {
    #[derive(Clone, Copy, PartialEq)]
    enum Slot {
        Light,
        Heavy,
        Sql,
        Decayed,
        Ingest,
    }
    assert!(
        mix.base_epochs.is_multiple_of(EPOCHS_PER_DAY) && mix.base_epochs >= 3 * EPOCHS_PER_DAY
    );
    assert!(mix.ingests >= 1 && mix.ingests < EPOCHS_PER_DAY);
    let mut rng = Rng::new(seed ^ 0x5E21_E0B5);
    // Two chunks per ingest, the ingest between them. Every chunk gets
    // the same class mix (remainders go to the first chunks) and only
    // its inner order is shuffled, so the windows each class draws, and
    // with them the epochs read and cached, do not depend on the seed.
    let n_chunks = 2 * mix.ingests;
    let mut slots: Vec<Slot> = Vec::new();
    for chunk in 0..n_chunks {
        let mut inner: Vec<Slot> = Vec::new();
        for (slot, n) in [
            (Slot::Light, mix.light),
            (Slot::Heavy, mix.heavy),
            (Slot::Sql, mix.sql),
            (Slot::Decayed, mix.decayed),
        ] {
            let share = n / n_chunks + u32::from(chunk < n % n_chunks);
            inner.extend(std::iter::repeat_n(slot, share as usize));
        }
        rng.shuffle(&mut inner);
        slots.extend(inner);
        if chunk % 2 == 0 {
            slots.push(Slot::Ingest);
        }
    }
    let total = mix.total_ops() as usize;
    debug_assert_eq!(slots.len(), total);

    // Warehouse state the generator tracks: the newest ingested epoch and
    // the first day still held at full resolution.
    let mut latest = mix.base_epochs - 1;
    let mut first_full_day = mix.base_epochs / EPOCHS_PER_DAY - 2;
    let (mut n_light, mut n_heavy, mut n_sql, mut n_decayed) = (0u32, 0u32, 0u32, 0u32);
    let mut ops = Vec::with_capacity(total);
    for slot in slots {
        let first_full = first_full_day * EPOCHS_PER_DAY;
        ops.push(match slot {
            Slot::Light => {
                n_light += 1;
                let hot_start = latest + 1 - HEAVY_WINDOW;
                // 3-4 epochs: enough evaluation per request that thread
                // hand-off, which the hypervisor sets, is not most of it.
                let len = 3 + n_light % 2;
                let start = if n_light % 10 == 0 {
                    // 5 and 11 are coprime to the range lengths in use,
                    // so the counters walk every offset.
                    first_full + (n_light / 10 * 11) % (hot_start - first_full)
                } else {
                    hot_start + (n_light * 5) % (HEAVY_WINDOW + 1 - len)
                };
                light_explore(&mut rng, layout, (start, start + len - 1), n_light)
            }
            Slot::Heavy => {
                n_heavy += 1;
                let starts = heavy_starts(first_full_day, (latest + 1) / EPOCHS_PER_DAY);
                let start = starts[n_heavy as usize % starts.len()];
                heavy_explore((start, start + HEAVY_WINDOW - 1))
            }
            Slot::Sql => {
                n_sql += 1;
                let end = latest - (n_sql % 3) * 8;
                Op {
                    kind: OpKind::Sql(if n_sql % 2 == 0 {
                        SQL_NMS_DROPS
                    } else {
                        SQL_CDR_TYPES
                    }),
                    window: (end - 7, end),
                    class: Class::Other,
                }
            }
            Slot::Decayed => {
                n_decayed += 1;
                let day = n_decayed % first_full_day;
                let start = day * EPOCHS_PER_DAY + (n_decayed * 5) % (EPOCHS_PER_DAY - 4);
                let window = (start, start + n_decayed % 4);
                let mut op = light_explore(&mut rng, layout, window, n_decayed);
                op.class = Class::Other;
                op
            }
            Slot::Ingest => {
                latest += 1;
                // `full_resolution_days: 1`: the newest day and the one
                // before it stay at full resolution.
                first_full_day = latest / EPOCHS_PER_DAY - 1;
                Op {
                    kind: OpKind::Ingest(Backend::Path),
                    window: (latest, latest),
                    class: Class::Other,
                }
            }
        });
    }
    ops
}
