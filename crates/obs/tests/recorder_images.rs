//! Adversarial sweep of the `SPOBREC1` recorder image: every prefix and
//! every single-bit flip of a real multi-window image.
//!
//! A prefix must be refused. A flip must be refused or load as a
//! well-formed recorder: one whose own image reloads to an equal recorder
//! and that goes on sampling — the image carries no checksum, so a flip in
//! a sample value loads as another, equally valid history. Never a panic,
//! in debug (overflow checks on) or in release (CI's storage step).

use obs::bytes::{sweep, Damage};
use obs::recorder::MAX_RESOLUTION;
use obs::{Recorder, RecorderConfig, Registry};

/// Twelve closed windows of a counter, a gauge and a histogram, the older
/// ones decayed to coarser resolutions.
fn real_image() -> Vec<u8> {
    let reg = Registry::new();
    let rec = Recorder::new(RecorderConfig {
        window_samples: 3,
        fresh_windows: 2,
        max_windows: 12,
    });
    for i in 0..60u64 {
        reg.counter("ops").add(10 + i % 3);
        reg.gauge("lag").set(20 - i as i64);
        reg.histogram("lat").record(100 + 7 * i);
        rec.sample(&reg);
    }
    rec.flush();
    rec.to_bytes()
}

fn assert_well_formed(rec: &Recorder, what: &str) {
    let again = Recorder::from_bytes(&rec.to_bytes())
        .unwrap_or_else(|e| panic!("{what}: its own image is refused: {e}"));
    assert_eq!(again.windows(), rec.windows(), "{what}");
    assert_eq!(
        (again.tick(), again.config()),
        (rec.tick(), rec.config()),
        "{what}"
    );
    for w in rec.windows() {
        assert!(w.resolution.is_power_of_two() && w.resolution <= MAX_RESOLUTION);
    }
    // Decay runs over whatever was loaded at the next closed window.
    let reg = Registry::new();
    reg.counter("ops").add(1);
    for _ in 0..4 {
        rec.sample(&reg);
    }
    rec.flush();
}

#[test]
fn the_image_has_decayed_windows() {
    let rec = Recorder::from_bytes(&real_image()).expect("load");
    let windows = rec.windows();
    assert_eq!(windows.len(), 12);
    assert!(windows[0].resolution > 1, "the oldest window is decayed");
    assert_eq!(rec.to_bytes(), real_image());
}

#[test]
fn every_prefix_is_refused_and_every_bit_flip_is_refused_or_well_formed() {
    let image = real_image();
    let mut refused = 0;
    sweep(&image, |damage, bytes| {
        match (damage, Recorder::from_bytes(bytes)) {
            (Damage::Cut(_), loaded) => assert!(loaded.is_err(), "{damage:?}"),
            (Damage::Flip(_), Err(_)) => refused += 1,
            (Damage::Flip(_), Ok(rec)) => assert_well_formed(&rec, &format!("{damage:?}")),
        }
    });
    assert!(refused > image.len(), "structure bits must be checked");
}
