//! Cellular layout: antennas over a ~6000 km² region, three sectors (cells)
//! per antenna, a 2G/3G/LTE technology mix, and Zipf-skewed cell popularity.
//!
//! "Every record is linked to a specific cell ID ... attached to a base
//! station that has a known location" (paper §II-B). Spatial predicates in
//! `Q(a,b,w)` resolve to sets of cells through this layout.

use crate::record::{Record, Value};
use crate::schema::cell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Side of the square coverage region in meters (≈ 6000 km², paper §VII-C).
pub const REGION_SIDE_M: f64 = 77_500.0;

/// One cell: a sector of an antenna covering an area around its site.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cell_id: u32,
    pub antenna_id: u32,
    pub x_m: f64,
    pub y_m: f64,
    pub tech: Tech,
    pub azimuth_deg: u32,
    pub range_m: u32,
    pub controller_id: u32,
    pub region: u32,
}

/// Radio technology generations (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tech {
    Gsm,
    Umts,
    Lte,
}

impl Tech {
    pub fn label(self) -> &'static str {
        match self {
            Tech::Gsm => "2G",
            Tech::Umts => "3G",
            Tech::Lte => "LTE",
        }
    }
}

/// An axis-aligned spatial bounding box in meters (the `b` of `Q(a,b,w)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl BoundingBox {
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(min_x <= max_x && min_y <= max_y);
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The whole coverage region.
    pub fn everything() -> Self {
        Self::new(0.0, 0.0, REGION_SIDE_M, REGION_SIDE_M)
    }

    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }
}

/// The full static cell inventory plus popularity weights.
#[derive(Debug, Clone)]
pub struct CellLayout {
    pub cells: Vec<Cell>,
    /// Cumulative Zipf popularity over cells (for weighted sampling).
    popularity_cdf: Vec<f64>,
}

impl CellLayout {
    /// Generate a layout of `n_antennas` antennas carrying `n_cells` cells.
    ///
    /// Antennas cluster toward the region center (city core) with a uniform
    /// rural tail, so popular cells are spatially collocated — the property
    /// that makes spatial drill-downs interesting.
    pub fn generate(n_cells: u32, n_antennas: u32, seed: u64) -> Self {
        assert!(n_cells >= n_antennas && n_antennas > 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCE11_1A70);
        let mut antennas = Vec::with_capacity(n_antennas as usize);
        for _ in 0..n_antennas {
            let (x, y) = if rng.gen_bool(0.7) {
                // Urban core: gaussian-ish cluster around the center.
                let cx = REGION_SIDE_M / 2.0;
                let spread = REGION_SIDE_M / 8.0;
                let gx: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
                let gy: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
                (
                    (cx + gx * spread).clamp(0.0, REGION_SIDE_M),
                    (cx + gy * spread).clamp(0.0, REGION_SIDE_M),
                )
            } else {
                (
                    rng.gen_range(0.0..REGION_SIDE_M),
                    rng.gen_range(0.0..REGION_SIDE_M),
                )
            };
            antennas.push((x, y));
        }

        let mut cells = Vec::with_capacity(n_cells as usize);
        for cell_idx in 0..n_cells {
            let antenna_id = cell_idx % n_antennas;
            let sector = cell_idx / n_antennas;
            let (ax, ay) = antennas[antenna_id as usize];
            let tech = match cell_idx % 5 {
                0 => Tech::Gsm,
                1 | 2 => Tech::Umts,
                _ => Tech::Lte,
            };
            let range_m = match tech {
                Tech::Gsm => rng.gen_range(800..3000),
                Tech::Umts => rng.gen_range(500..1500),
                Tech::Lte => rng.gen_range(200..900),
            };
            let region_grid = 4; // 4x4 administrative regions
            let rx = (ax / REGION_SIDE_M * f64::from(region_grid)).min(3.0) as u32;
            let ry = (ay / REGION_SIDE_M * f64::from(region_grid)).min(3.0) as u32;
            cells.push(Cell {
                cell_id: cell_idx,
                antenna_id,
                x_m: ax,
                y_m: ay,
                tech,
                azimuth_deg: (sector * 120) % 360,
                range_m,
                controller_id: antenna_id / 16,
                region: ry * region_grid + rx,
            });
        }

        // Zipf popularity with exponent ~0.8 over a random permutation of
        // cells (popularity is not spatially deterministic).
        let mut weights: Vec<f64> = (0..n_cells)
            .map(|i| 1.0 / f64::from(i + 1).powf(0.8))
            .collect();
        // Shuffle weight assignment.
        for i in (1..weights.len()).rev() {
            let j = rng.gen_range(0..=i);
            weights.swap(i, j);
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let popularity_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();

        Self {
            cells,
            popularity_cdf,
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn get(&self, cell_id: u32) -> &Cell {
        &self.cells[cell_id as usize]
    }

    /// Sample a cell id according to Zipf popularity.
    pub fn sample_popular(&self, rng: &mut impl Rng) -> u32 {
        let u: f64 = rng.gen();
        match self
            .popularity_cdf
            .binary_search_by(|p| p.partial_cmp(&u).unwrap())
        {
            Ok(i) | Err(i) => (i.min(self.cells.len() - 1)) as u32,
        }
    }

    /// All cell ids whose site lies inside `bbox`.
    pub fn cells_in(&self, bbox: &BoundingBox) -> Vec<u32> {
        self.cells
            .iter()
            .filter(|c| bbox.contains(c.x_m, c.y_m))
            .map(|c| c.cell_id)
            .collect()
    }

    /// A nearby cell (same or adjacent antenna) for hand-over/mobility.
    pub fn neighbor(&self, cell_id: u32, rng: &mut impl Rng) -> u32 {
        let n = self.cells.len() as u32;
        let delta = rng.gen_range(1..=3);
        if rng.gen_bool(0.5) {
            (cell_id + delta) % n
        } else {
            (cell_id + n - delta) % n
        }
    }

    /// Serialize the inventory as CELL table records (paper Fig. 3 right).
    pub fn to_records(&self) -> Vec<Record> {
        self.cells
            .iter()
            .map(|c| {
                let mut values = vec![Value::Null; cell::WIDTH];
                values[cell::CELL_ID] = Value::Int(i64::from(c.cell_id));
                values[cell::ANTENNA_ID] = Value::Int(i64::from(c.antenna_id));
                values[cell::X_M] = Value::Int(c.x_m as i64);
                values[cell::Y_M] = Value::Int(c.y_m as i64);
                values[cell::TECH] = Value::Str(c.tech.label().into());
                values[cell::AZIMUTH_DEG] = Value::Int(i64::from(c.azimuth_deg));
                values[cell::RANGE_M] = Value::Int(i64::from(c.range_m));
                values[cell::CONTROLLER_ID] = Value::Int(i64::from(c.controller_id));
                values[cell::SITE_NAME] = Value::Str(format!("site-{:05}", c.antenna_id).into());
                values[cell::REGION] = Value::Int(i64::from(c.region));
                Record::new(values)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic() {
        let a = CellLayout::generate(366, 119, 42);
        let b = CellLayout::generate(366, 119, 42);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.cell_id, cb.cell_id);
            assert_eq!(ca.x_m, cb.x_m);
            assert_eq!(ca.tech, cb.tech);
        }
    }

    #[test]
    fn cells_attach_to_antennas_in_region() {
        let layout = CellLayout::generate(366, 119, 7);
        assert_eq!(layout.len(), 366);
        for c in &layout.cells {
            assert!(c.antenna_id < 119);
            assert!((0.0..=REGION_SIDE_M).contains(&c.x_m));
            assert!((0.0..=REGION_SIDE_M).contains(&c.y_m));
        }
        // Sectors of the same antenna share a site.
        let c0 = &layout.cells[0];
        let c119 = &layout.cells[119];
        assert_eq!(c0.antenna_id, c119.antenna_id);
        assert_eq!(c0.x_m, c119.x_m);
        assert_ne!(c0.azimuth_deg, c119.azimuth_deg);
    }

    #[test]
    fn popularity_is_skewed() {
        let layout = CellLayout::generate(200, 67, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 200];
        for _ in 0..20_000 {
            counts[layout.sample_popular(&mut rng) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted[..10].iter().sum();
        let total: u32 = sorted.iter().sum();
        assert!(
            f64::from(top10) / f64::from(total) > 0.15,
            "Zipf skew should concentrate traffic"
        );
        assert_eq!(total, 20_000);
    }

    #[test]
    fn bbox_queries_select_subsets() {
        let layout = CellLayout::generate(400, 134, 9);
        let all = layout.cells_in(&BoundingBox::everything());
        assert_eq!(all.len(), 400);
        let quadrant = BoundingBox::new(0.0, 0.0, REGION_SIDE_M / 2.0, REGION_SIDE_M / 2.0);
        let some = layout.cells_in(&quadrant);
        assert!(!some.is_empty() && some.len() < 400);
        for id in some {
            let c = layout.get(id);
            assert!(quadrant.contains(c.x_m, c.y_m));
        }
    }

    #[test]
    fn bbox_intersection() {
        let a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BoundingBox::new(5.0, 5.0, 15.0, 15.0);
        let c = BoundingBox::new(11.0, 11.0, 12.0, 12.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c));
    }

    #[test]
    fn neighbors_stay_in_range() {
        let layout = CellLayout::generate(50, 17, 11);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let n = layout.neighbor(0, &mut rng);
            assert!(n < 50);
        }
        // Wrap-around both directions works near the edges.
        for _ in 0..1000 {
            let n = layout.neighbor(49, &mut rng);
            assert!(n < 50);
        }
    }

    #[test]
    fn record_serialization_has_cell_width() {
        let layout = CellLayout::generate(30, 10, 2);
        let records = layout.to_records();
        assert_eq!(records.len(), 30);
        assert_eq!(records[0].values.len(), cell::WIDTH);
        assert_eq!(records[5].get(cell::CELL_ID).as_i64(), Some(5));
    }

    #[test]
    fn tech_mix_covers_all_generations() {
        let layout = CellLayout::generate(300, 100, 13);
        let gsm = layout.cells.iter().filter(|c| c.tech == Tech::Gsm).count();
        let umts = layout.cells.iter().filter(|c| c.tech == Tech::Umts).count();
        let lte = layout.cells.iter().filter(|c| c.tech == Tech::Lte).count();
        assert!(gsm > 0 && umts > 0 && lte > 0);
        assert_eq!(gsm + umts + lte, 300);
        assert!(lte > gsm, "LTE should dominate the mix");
    }
}
