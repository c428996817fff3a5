//! The telemetry time-series recorder: the paper's compress-and-decay
//! idea, dogfooded on the system's own metrics.
//!
//! [`Recorder::sample`] snapshots the registry on a logical tick: every
//! counter and gauge value, windowed p50/p95/p99 per histogram series
//! (from bucket-count deltas since the previous sample, so quantiles are
//! *per window*, not lifetime), and the serve SLO burn rate. Samples
//! accumulate into the current **window**; every `window_samples` ticks
//! the window closes into a ring of closed windows.
//!
//! Two ideas from the telemetry literature keep the ring small:
//!
//! * **Resolution decay** (Chiarot & Concas' survey of time-series
//!   compression): a closed window of age `a` windows keeps every
//!   `2^(a / fresh_windows)`-th sample — recent history at full
//!   resolution, older history progressively coarser, capped at
//!   [`MAX_RESOLUTION`]. Sample ticks stay derivable as
//!   `start_tick + j * resolution`. Windows beyond `max_windows` drop.
//! * **Sprintz-style packing** for persistence: each series is stored as
//!   a varint first value followed by zigzag-encoded wrapping deltas,
//!   bit-packed in blocks of 32 with a 1-byte width header. Counter
//!   series are monotone and near-constant-slope, so deltas are tiny and
//!   the packed form is typically 10-30× smaller than raw `u64`s.
//!
//! The persisted image ([`Recorder::to_bytes`] / [`Recorder::from_bytes`])
//! round-trips byte-identically: `repro obs-replay` records a run, saves
//! it, reloads it after a "restart" and re-renders per-shard latency and
//! load from the file alone.

use crate::bytes::{varint, ByteError, Reader, Writer};
use crate::metrics::counts_since;
use crate::registry::Registry;
use crate::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Resolution decay never coarsens beyond keeping every 16th sample.
pub const MAX_RESOLUTION: u32 = 16;

/// Magic prefix of the persisted recorder image.
pub const MAGIC: &[u8; 8] = b"SPOBREC1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Samples per window before it closes.
    pub window_samples: usize,
    /// Closed windows kept at full resolution; each further
    /// `fresh_windows` of age doubles the sampling stride.
    pub fresh_windows: usize,
    /// Closed windows kept at all; older windows drop entirely.
    pub max_windows: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            window_samples: 4,
            fresh_windows: 8,
            max_windows: 64,
        }
    }
}

/// One closed (or in-progress) window of telemetry: a fixed start tick,
/// a sampling stride, and per-series sample vectors. The `j`-th sample of
/// a series was taken at tick `start_tick + j * resolution`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    pub start_tick: u64,
    pub resolution: u32,
    pub series: BTreeMap<String, Vec<u64>>,
}

impl Window {
    fn new(start_tick: u64) -> Self {
        Self {
            start_tick,
            resolution: 1,
            series: BTreeMap::new(),
        }
    }

    /// Total samples across all series (the raw-size denominator).
    pub fn samples(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }
}

struct RecorderState {
    config: RecorderConfig,
    tick: u64,
    /// Samples taken into `current` so far.
    in_window: usize,
    current: Window,
    closed: Vec<Window>,
    /// Histogram bucket counts at the previous sample, for windowed
    /// quantiles keyed by the series' display id.
    hist_prev: BTreeMap<String, Vec<u64>>,
}

impl RecorderState {
    fn new(config: RecorderConfig) -> Self {
        Self {
            config,
            tick: 0,
            in_window: 0,
            current: Window::new(0),
            closed: Vec::new(),
            hist_prev: BTreeMap::new(),
        }
    }
}

/// The recorder itself; one process-global instance lives behind
/// [`global`], independent instances serve tests.
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(RecorderConfig::default())
    }
}

impl Recorder {
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            state: Mutex::new(RecorderState::new(config)),
        }
    }

    pub fn config(&self) -> RecorderConfig {
        self.state.lock().config
    }

    /// Replace the configuration and clear all recorded state.
    pub fn configure(&self, config: RecorderConfig) {
        *self.state.lock() = RecorderState::new(config);
    }

    /// Take one sample of `reg` (plus the global SLO tracker) on the next
    /// logical tick.
    pub fn sample(&self, reg: &Registry) {
        let mut st = self.state.lock();
        let slot = st.in_window;
        let push = |current: &mut Window, name: String, value: u64| {
            let v = current.series.entry(name).or_default();
            // A series first seen mid-window back-fills zeros so every
            // series in a window is sampled on the same tick grid.
            while v.len() < slot {
                v.push(0);
            }
            v.push(value);
        };
        for (id, c) in reg.counters_snapshot() {
            push(&mut st.current, id.to_string(), c.get());
        }
        for (id, g) in reg.gauges_snapshot() {
            // Gauges are i64; stored as two's-complement u64 — the codec's
            // wrapping deltas make sign irrelevant.
            push(&mut st.current, id.to_string(), g.get() as u64);
        }
        // Only series present in this sample carry over: one that is absent
        // from a sample starts from zero when it comes back.
        let mut hist_now = BTreeMap::new();
        for (id, h) in reg.histograms_snapshot() {
            let key = id.to_string();
            let mut prev = st.hist_prev.remove(&key).unwrap_or_default();
            let delta = counts_since(h.bucket_counts(), &mut prev);
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                push(
                    &mut st.current,
                    format!("{key}/{suffix}"),
                    Histogram::quantile_of_counts(&delta, q),
                );
            }
            hist_now.insert(key, prev);
        }
        push(
            &mut st.current,
            "slo.burn_rate".to_string(),
            crate::slo::global().burn_rate_milli(),
        );
        st.hist_prev = hist_now;
        st.in_window += 1;
        st.tick += 1;
        if st.in_window >= st.config.window_samples {
            Self::close_window(&mut st);
        }
    }

    /// Close the in-progress window (if it holds any samples) so that
    /// [`to_bytes`](Self::to_bytes) captures it; benches call this before
    /// persisting.
    pub fn flush(&self) {
        let mut st = self.state.lock();
        if st.in_window > 0 {
            Self::close_window(&mut st);
        }
    }

    fn close_window(st: &mut RecorderState) {
        let samples = st.in_window;
        let next_start = st.tick;
        let mut w = std::mem::replace(&mut st.current, Window::new(next_start));
        // Series that vanished mid-window (only possible across a reset)
        // pad with their last value so every vector has equal length.
        for v in w.series.values_mut() {
            while v.len() < samples {
                v.push(v.last().copied().unwrap_or(0));
            }
        }
        st.in_window = 0;
        st.closed.push(w);
        Self::decay(st);
    }

    /// Apply the decay schedule to the closed ring: age `a` (in windows,
    /// newest = 0) wants resolution `min(2^(a / fresh_windows),
    /// MAX_RESOLUTION)`; windows past `max_windows` drop.
    fn decay(st: &mut RecorderState) {
        let n = st.closed.len();
        if n > st.config.max_windows {
            st.closed.drain(..n - st.config.max_windows);
        }
        let n = st.closed.len();
        let fresh = st.config.fresh_windows.max(1);
        for (i, w) in st.closed.iter_mut().enumerate() {
            let age = n - 1 - i;
            let target = (1u32 << ((age / fresh).min(4) as u32)).min(MAX_RESOLUTION);
            if target > w.resolution {
                let stride = (target / w.resolution) as usize;
                for v in w.series.values_mut() {
                    *v = v.iter().copied().step_by(stride).collect();
                }
                w.resolution = target;
            }
        }
    }

    /// Closed windows, oldest first (the open window is excluded).
    pub fn windows(&self) -> Vec<Window> {
        self.state.lock().closed.clone()
    }

    pub fn window_count(&self) -> usize {
        self.state.lock().closed.len()
    }

    /// Logical ticks sampled so far.
    pub fn tick(&self) -> u64 {
        self.state.lock().tick
    }

    /// Raw footprint of the closed windows: every sample as a `u64`.
    pub fn raw_size(&self) -> usize {
        self.state
            .lock()
            .closed
            .iter()
            .map(|w| w.samples() * 8)
            .sum()
    }

    /// Serialize the closed windows (Sprintz-packed per series).
    pub fn to_bytes(&self) -> Vec<u8> {
        let st = self.state.lock();
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.bytes(MAGIC);
        w.varint(st.config.window_samples as u64);
        w.varint(st.config.fresh_windows as u64);
        w.varint(st.config.max_windows as u64);
        w.varint(st.tick);
        w.varint(st.closed.len() as u64);
        for window in &st.closed {
            w.varint(window.start_tick);
            w.varint(window.resolution.into());
            w.varint(window.series.len() as u64);
            for (name, values) in &window.series {
                w.varint(name.len() as u64);
                w.bytes(name.as_bytes());
                let packed = pack_series(values);
                w.varint(packed.len() as u64);
                w.bytes(&packed);
            }
        }
        out
    }

    /// Deserialize a persisted image into a fresh recorder (the open
    /// window starts empty at the recorded tick).
    ///
    /// Nothing the image declares is trusted further than its bytes go
    /// ([`crate::bytes`]), and a resolution must be one that decay can
    /// produce, so that a forged image is an `Err` and never a panic or a
    /// huge reservation, now or at the next sample.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        Self::read(bytes).map_err(|e| format!("obs.recorder: {e}"))
    }

    fn read(bytes: &[u8]) -> Result<Self, ByteError> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let config = RecorderConfig {
            window_samples: r.varint()? as usize,
            fresh_windows: r.varint()? as usize,
            max_windows: r.varint()? as usize,
        };
        let tick = r.varint()?;
        // A window is at least three one-byte varints.
        let n_windows = r.count(3, "window count")?;
        let mut closed = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            let start_tick = r.varint()?;
            let resolution = r.varint()?;
            if !resolution.is_power_of_two() || resolution > u64::from(MAX_RESOLUTION) {
                return Err(ByteError::OutOfRange {
                    field: "window resolution",
                });
            }
            // A series is at least a name length and a packed length.
            let n_series = r.count(2, "series count")?;
            let mut series = BTreeMap::new();
            for _ in 0..n_series {
                let name_len = r.count(1, "series name length")?;
                let name = r.str(name_len)?.to_string();
                let packed_len = r.count(1, "series data length")?;
                series.insert(name, unpack_series(r.take(packed_len)?)?);
            }
            closed.push(Window {
                start_tick,
                resolution: resolution as u32,
                series,
            });
        }
        r.finish()?;
        let mut st = RecorderState::new(config);
        st.tick = tick;
        st.current = Window::new(tick);
        st.closed = closed;
        Ok(Self {
            state: Mutex::new(st),
        })
    }

    /// Clear all recorded state, keeping the configuration.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        let config = st.config;
        *st = RecorderState::new(config);
    }
}

// ---------------------------------------------------------------------------
// Sprintz-style series codec: varint head, zigzag deltas, bit-packed
// blocks of 32 with a width-byte header.
// ---------------------------------------------------------------------------

const BLOCK: usize = 32;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Pack one series: `varint(n)`, `varint(first)`, then blocks of up to 32
/// zigzag(wrapping-delta) values, each block a width byte followed by
/// `ceil(len*width/8)` bytes of LSB-first bit-packing. Near-constant
/// series pack to a width of 0-2 bits per value.
pub fn pack_series(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, values.len() as u64);
    if values.is_empty() {
        return out;
    }
    varint::write_u64(&mut out, values[0]);
    let deltas: Vec<u64> = values
        .windows(2)
        .map(|w| zigzag(w[1].wrapping_sub(w[0]) as i64))
        .collect();
    for block in deltas.chunks(BLOCK) {
        let width = block.iter().map(|&d| bits_needed(d)).max().unwrap_or(0);
        out.push(width as u8);
        let mut bitbuf: u128 = 0;
        let mut bits: u32 = 0;
        for &d in block {
            bitbuf |= u128::from(d) << bits;
            bits += width;
            while bits >= 8 {
                out.push((bitbuf & 0xff) as u8);
                bitbuf >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            out.push((bitbuf & 0xff) as u8);
        }
    }
    out
}

/// Inverse of [`pack_series`], refusing truncated or malformed input and
/// bytes after the last block.
pub fn unpack_series(bytes: &[u8]) -> Result<Vec<u64>, ByteError> {
    let mut r = Reader::new(bytes);
    let n = r.varint()?;
    let mut values = Vec::new();
    if n > 0 {
        let first = r.varint()?;
        // Each block of up to 32 deltas takes at least its width byte.
        if (n - 1).div_ceil(BLOCK as u64) > r.remaining() as u64 {
            return Err(ByteError::OutOfRange {
                field: "series length",
            });
        }
        values.reserve(n as usize);
        values.push(first);
        let mut remaining = n as usize - 1;
        let mut prev = first;
        while remaining > 0 {
            let len = remaining.min(BLOCK);
            let width = u32::from(r.u8()?);
            if width > 64 {
                return Err(ByteError::OutOfRange {
                    field: "series block width",
                });
            }
            let mut bitbuf: u128 = 0;
            let mut bits: u32 = 0;
            let mask: u128 = if width == 64 {
                u128::from(u64::MAX)
            } else {
                (1u128 << width) - 1
            };
            for _ in 0..len {
                while bits < width {
                    bitbuf |= u128::from(r.u8()?) << bits;
                    bits += 8;
                }
                let d = (bitbuf & mask) as u64;
                bitbuf >>= width;
                bits -= width;
                prev = prev.wrapping_add(unzigzag(d) as u64);
                values.push(prev);
            }
            remaining -= len;
        }
    }
    r.finish()?;
    Ok(values)
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder (cleared by [`crate::reset`]).
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_varied_series() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![0; 100],
            (0..100u64).collect(),
            (0..100u64).map(|i| i * 1_000_003).collect(),
            vec![5, 4, 3, 2, 1, 0, u64::MAX, 0, u64::MAX / 2],
            (0..77u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
                .collect(),
            vec![i64::MIN as u64, i64::MAX as u64, 0, 1],
        ];
        for v in cases {
            let packed = pack_series(&v);
            let back = unpack_series(&packed).expect("unpack");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn codec_compresses_monotone_counters_hard() {
        // A counter climbing ~1000/tick for 256 ticks: raw = 2048 bytes.
        let v: Vec<u64> = (0..256u64).map(|i| 1_000_000 + i * 1_000).collect();
        let packed = pack_series(&v);
        let raw = v.len() * 8;
        assert!(
            packed.len() * 3 <= raw,
            "packed {} vs raw {raw}",
            packed.len()
        );
        assert_eq!(unpack_series(&packed).unwrap(), v);
    }

    #[test]
    fn unpack_rejects_truncation() {
        let v: Vec<u64> = (0..64u64).map(|i| i * 7).collect();
        let packed = pack_series(&v);
        for cut in [0, 1, packed.len() / 2, packed.len() - 1] {
            assert!(unpack_series(&packed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn sampling_closes_windows_and_round_trips_bytes() {
        let reg = Registry::new();
        let rec = Recorder::new(RecorderConfig {
            window_samples: 4,
            fresh_windows: 8,
            max_windows: 64,
        });
        for i in 0..32u64 {
            reg.counter("t.ops").add(10);
            reg.gauge("t.lag").set(-(i as i64));
            reg.histogram("t.lat").record(100 + i);
            rec.sample(&reg);
        }
        assert_eq!(rec.window_count(), 8);
        assert_eq!(rec.tick(), 32);
        let windows = rec.windows();
        assert!(windows[0].series.contains_key("t.ops"));
        assert!(windows[0].series.contains_key("t.lat/p95"));
        assert!(windows[0].series.contains_key("slo.burn_rate"));
        // Gauge round-trips through the two's-complement storage.
        let lag = &windows[7].series["t.lag"];
        assert_eq!(*lag.last().unwrap() as i64, -31);
        let bytes = rec.to_bytes();
        let loaded = Recorder::from_bytes(&bytes).expect("load");
        assert_eq!(loaded.windows(), windows);
        assert_eq!(loaded.tick(), 32);
        // Byte-identical re-serialization: the replay gate's contract.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn windowed_quantiles_see_only_the_window() {
        let reg = Registry::new();
        let rec = Recorder::new(RecorderConfig {
            window_samples: 1,
            fresh_windows: 64,
            max_windows: 64,
        });
        // First sample: slow requests. Second: fast ones. A lifetime
        // quantile would smear; the windowed p50 must drop.
        for _ in 0..100 {
            reg.histogram("lat").record(10_000);
        }
        rec.sample(&reg);
        for _ in 0..100 {
            reg.histogram("lat").record(10);
        }
        rec.sample(&reg);
        let w = rec.windows();
        let p50_slow = w[0].series["lat/p50"][0];
        let p50_fast = w[1].series["lat/p50"][0];
        assert!(p50_slow > 5_000, "{p50_slow}");
        assert!(p50_fast < 100, "{p50_fast}");
    }

    #[test]
    fn decay_coarsens_old_windows_and_caps_the_ring() {
        let reg = Registry::new();
        let rec = Recorder::new(RecorderConfig {
            window_samples: 4,
            fresh_windows: 2,
            max_windows: 8,
        });
        reg.counter("c");
        for i in 0..128u64 {
            reg.counter("c").add(i);
            rec.sample(&reg);
        }
        let windows = rec.windows();
        assert_eq!(windows.len(), 8, "ring capped");
        // Newest windows stay at full resolution, oldest are coarser.
        assert_eq!(windows.last().unwrap().resolution, 1);
        let oldest = &windows[0];
        assert!(oldest.resolution > 1, "old window decayed");
        assert!(oldest.resolution <= MAX_RESOLUTION);
        // Decayed windows hold fewer samples but keep the tick grid.
        assert!(oldest.series["c"].len() < 4);
        // Monotone start ticks, stride-consistent.
        for pair in windows.windows(2) {
            assert!(pair[0].start_tick < pair[1].start_tick);
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Recorder::from_bytes(b"").is_err());
        assert!(Recorder::from_bytes(b"NOTMAGIC____").is_err());
        let mut good = {
            let rec = Recorder::default();
            let reg = Registry::new();
            reg.counter("x").add(1);
            for _ in 0..8 {
                rec.sample(&reg);
            }
            rec.to_bytes()
        };
        good.truncate(good.len() - 3);
        assert!(Recorder::from_bytes(&good).is_err());
        // Forged counts and lengths, each of which used to panic (a
        // capacity overflow, an overflowing `pos + len` in debug, an
        // out-of-range slice in release) or reserve without bound.
        // A header, one window of one series, then `series` as its bytes.
        let image = |windows: u64, series: &[u8]| {
            let mut out = MAGIC.to_vec();
            for v in [4, 8, 64, 0, windows, 0, 1, 1] {
                varint::write_u64(&mut out, v);
            }
            out.extend_from_slice(series);
            out
        };
        let varint = |v: u64| {
            let mut out = Vec::new();
            varint::write_u64(&mut out, v);
            out
        };
        let packed = pack_series(&[5, 6]);
        let valid = [&[1, b'x'][..], &varint(packed.len() as u64), &packed].concat();
        assert!(Recorder::from_bytes(&image(1, &valid)).is_ok());
        // The three one-byte varints of a window and `valid` follow the
        // window count.
        let one_window_too_many = ((3 + valid.len()) / 3 + 1) as u64;
        let header = MAGIC.len() + 3;
        let forged = [
            (
                "2^62 windows",
                image(1 << 62, &valid),
                "window count out of range",
            ),
            (
                "one window more than the bytes left hold",
                image(one_window_too_many, &valid),
                "window count out of range",
            ),
            (
                "a name of u64::MAX bytes",
                image(1, &[&varint(u64::MAX), &valid[1..]].concat()),
                "series name length out of range",
            ),
            (
                "a series of u64::MAX - 3 bytes",
                image(
                    1,
                    &[&valid[..2], &varint(u64::MAX - 3), &valid[3..]].concat(),
                ),
                "series data length out of range",
            ),
            (
                "a window of resolution 0",
                {
                    let mut out = image(1, &valid);
                    out[MAGIC.len() + 6] = 0;
                    out
                },
                "window resolution out of range",
            ),
            (
                "a tick whose tenth byte carries more than the 64th bit",
                {
                    let image = image(1, &valid);
                    let tick = [&[0xFF; 9][..], &[0x7F]].concat();
                    [&image[..header], &tick, &image[header + 1..]].concat()
                },
                "varint out of range",
            ),
            (
                "a byte after the last window",
                [image(1, &valid), vec![0]].concat(),
                "1 trailing bytes",
            ),
        ];
        for (what, bytes, why) in forged {
            let refused = Recorder::from_bytes(&bytes).err().expect(what);
            assert_eq!(refused, format!("obs.recorder: {why}"), "{what}");
        }
        let series = [varint(u64::MAX >> 1), varint(7)].concat();
        assert!(unpack_series(&series).is_err(), "2^63 values in two bytes");
        for trailing in [pack_series(&[]), packed] {
            let series = [trailing, vec![0]].concat();
            assert!(unpack_series(&series).is_err(), "a byte after the series");
        }
    }

    #[test]
    fn reset_clears_windows_but_keeps_config() {
        let rec = Recorder::new(RecorderConfig {
            window_samples: 2,
            fresh_windows: 4,
            max_windows: 8,
        });
        let reg = Registry::new();
        reg.counter("x").add(1);
        for _ in 0..6 {
            rec.sample(&reg);
        }
        assert!(rec.window_count() > 0);
        rec.reset();
        assert_eq!(rec.window_count(), 0);
        assert_eq!(rec.tick(), 0);
        assert_eq!(rec.config().window_samples, 2);
    }
}
