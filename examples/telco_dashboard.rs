//! SPATE-UI substitute: a terminal spatio-temporal dashboard.
//!
//! The paper's SPATE-UI overlays network statistics on Google Maps and
//! supports "playback highlights in fast-forward". This example renders the
//! same query path — `Q(a, b, w)` over the compressed SPATE structure —
//! as (i) an ASCII drop-rate heatmap of the coverage region, (ii) the
//! θ-threshold highlight events of the day, and (iii) an epoch-by-epoch
//! traffic playback.
//!
//! Run with: `cargo run --release --example telco_dashboard`

use spate::core::framework::{ExplorationFramework, SpateFramework};
use spate::core::index::highlights::Resolution;
use spate::trace::cells::{BoundingBox, REGION_SIDE_M};
use spate::trace::time::EpochId;
use spate::trace::{TraceConfig, TraceGenerator};

const GRID: usize = 16;

fn main() {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0));
    let layout = generator.layout().clone();
    let mut spate = SpateFramework::in_memory(layout.clone());

    // One full day of snapshots.
    println!("Ingesting one day (48 snapshots)...");
    for snapshot in generator.by_ref().take(48) {
        spate.ingest(&snapshot);
    }

    // (i) Drop-rate heatmap: the day node's per-cell summaries, bucketed on
    // a coarse spatial grid — what the coverage-overlay view renders.
    let day = &spate.index().nodes(Resolution::Day)[&0];
    let mut grid = vec![vec![(0.0f64, 0.0f64); GRID]; GRID]; // (drops, attempts)
    for (cell_id, summary) in &day.highlights.per_cell {
        let cell = layout.get(*cell_id);
        let gx = ((cell.x_m / REGION_SIDE_M) * GRID as f64).min(GRID as f64 - 1.0) as usize;
        let gy = ((cell.y_m / REGION_SIDE_M) * GRID as f64).min(GRID as f64 - 1.0) as usize;
        grid[gy][gx].0 += summary.drops.sum;
        grid[gy][gx].1 += summary.attempts.sum;
    }
    println!(
        "\nDrop-call rate heatmap ({}x{} grid over ~6000 km²):",
        GRID, GRID
    );
    println!("  legend: '.' no traffic, 0-9 = drop rate in 0.5% steps\n");
    for row in grid.iter().rev() {
        let mut line = String::from("  ");
        for &(drops, attempts) in row {
            if attempts <= 0.0 {
                line.push('.');
            } else {
                let rate = drops / attempts;
                let bucket = ((rate / 0.005).round() as i64).clamp(0, 9);
                line.push(char::from_digit(bucket as u32, 10).unwrap());
            }
            line.push(' ');
        }
        println!("{line}");
    }

    // (ii) The day's highlight events: rare values under θ_day.
    let config = spate.index().config().clone();
    let events = day.highlights.events(&config, Resolution::Day);
    println!(
        "\nHighlights of {} (θ_day = {}):",
        EpochId(0).civil().compact(),
        config.theta_day
    );
    if events.is_empty() {
        println!("  (no attribute value fell under the θ threshold)");
    }
    for e in events.iter().take(8) {
        println!(
            "  {}={}  seen {} times ({:.3}% of records)",
            e.attribute,
            e.value,
            e.count,
            e.share * 100.0
        );
    }

    // (iii) Playback: per-epoch traffic curve in the busiest quadrant.
    println!("\nPlayback: CDR volume per epoch, urban core (fast-forward):");
    let core_box = BoundingBox::new(
        REGION_SIDE_M * 0.25,
        REGION_SIDE_M * 0.25,
        REGION_SIDE_M * 0.75,
        REGION_SIDE_M * 0.75,
    );
    let core_cells: std::collections::HashSet<u32> =
        layout.cells_in(&core_box).into_iter().collect();
    for e in (0..48u32).step_by(2) {
        let Some(snap) = spate.load_epoch(EpochId(e)) else {
            continue;
        };
        let count = snap
            .cdr
            .iter()
            .filter(|r| {
                r.get(spate::trace::schema::cdr::CELL_ID)
                    .as_i64()
                    .is_some_and(|c| core_cells.contains(&(c as u32)))
            })
            .count();
        let civil = EpochId(e).civil();
        println!(
            "  {:02}:{:02} |{}",
            civil.hour,
            civil.minute,
            "#".repeat(count.min(70))
        );
    }
}
