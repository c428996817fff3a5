//! The three ML workloads of the paper's heavy tasks, implemented from
//! scratch over [`crate::Dataset`]:
//!
//! * [`colstats`] — multivariate column statistics
//!   (T6, Spark's `Statistics.colStats`): column-wise max, min, mean,
//!   variance, number of non-zeros and total count — exactly the paper's
//!   list.
//! * [`kmeans`] — Lloyd's k-means with deterministic k-means++-style
//!   seeding (T7, Spark's `KMeans`).
//! * [`linreg`] — ordinary least squares via the normal equations
//!   (T8, Spark's `regression.LinearRegression`).

use crate::dataset::Dataset;
use crate::linalg::{solve, sq_dist};

/// Column-wise multivariate statistics (paper T6: "column-wise max, min,
/// mean, variance, number of non-zeros and the total count").
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    pub count: u64,
    pub max: Vec<f64>,
    pub min: Vec<f64>,
    pub mean: Vec<f64>,
    pub variance: Vec<f64>,
    pub non_zeros: Vec<u64>,
}

#[derive(Clone)]
struct StatsAcc {
    count: u64,
    max: Vec<f64>,
    min: Vec<f64>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    non_zeros: Vec<u64>,
}

impl StatsAcc {
    fn new(dims: usize) -> Self {
        Self {
            count: 0,
            max: vec![f64::NEG_INFINITY; dims],
            min: vec![f64::INFINITY; dims],
            sum: vec![0.0; dims],
            sum_sq: vec![0.0; dims],
            non_zeros: vec![0; dims],
        }
    }

    fn add(mut self, row: &[f64]) -> Self {
        self.count += 1;
        for (d, &v) in row.iter().enumerate() {
            if v > self.max[d] {
                self.max[d] = v;
            }
            if v < self.min[d] {
                self.min[d] = v;
            }
            self.sum[d] += v;
            self.sum_sq[d] += v * v;
            if v != 0.0 {
                self.non_zeros[d] += 1;
            }
        }
        self
    }

    fn merge(mut self, other: Self) -> Self {
        self.count += other.count;
        for d in 0..self.max.len() {
            self.max[d] = self.max[d].max(other.max[d]);
            self.min[d] = self.min[d].min(other.min[d]);
            self.sum[d] += other.sum[d];
            self.sum_sq[d] += other.sum_sq[d];
            self.non_zeros[d] += other.non_zeros[d];
        }
        self
    }
}

/// Compute [`ColStats`] over rows of equal dimension. Returns `None` for an
/// empty dataset.
pub fn colstats(rows: Dataset<Vec<f64>>, dims: usize) -> Option<ColStats> {
    if rows.is_empty() {
        return None;
    }
    let acc = rows.aggregate(
        StatsAcc::new(dims),
        |acc, row| {
            debug_assert_eq!(row.len(), dims);
            acc.add(row)
        },
        StatsAcc::merge,
    );
    let n = acc.count as f64;
    let mean: Vec<f64> = acc.sum.iter().map(|s| s / n).collect();
    // Sample variance (n-1 denominator), matching Spark's colStats.
    let denom = if acc.count > 1 { n - 1.0 } else { 1.0 };
    let variance: Vec<f64> = acc
        .sum_sq
        .iter()
        .zip(&mean)
        .map(|(&ss, &m)| ((ss - n * m * m) / denom).max(0.0))
        .collect();
    Some(ColStats {
        count: acc.count,
        max: acc.max,
        min: acc.min,
        mean,
        variance,
        non_zeros: acc.non_zeros,
    })
}

/// Pearson correlation matrix over row vectors (Spark's
/// `Statistics.corr`), computed in one data-parallel pass over the
/// sufficient statistics (sums, squares, cross products).
///
/// Returns the symmetric `dims × dims` matrix; entries involving a
/// zero-variance column are 0 (by convention, rather than NaN). `None` for
/// datasets with fewer than two rows.
pub fn correlation_matrix(rows: Dataset<Vec<f64>>, dims: usize) -> Option<Vec<Vec<f64>>> {
    if rows.len() < 2 {
        return None;
    }
    // (n, sums, cross-product matrix)
    let (n, sums, cross) = rows.aggregate(
        (0u64, vec![0.0f64; dims], vec![vec![0.0f64; dims]; dims]),
        |mut acc, row| {
            debug_assert_eq!(row.len(), dims);
            acc.0 += 1;
            for i in 0..dims {
                acc.1[i] += row[i];
                for j in i..dims {
                    acc.2[i][j] += row[i] * row[j];
                }
            }
            acc
        },
        |mut a, b| {
            a.0 += b.0;
            for (x, y) in a.1.iter_mut().zip(b.1) {
                *x += y;
            }
            for (ra, rb) in a.2.iter_mut().zip(b.2) {
                for (x, y) in ra.iter_mut().zip(rb) {
                    *x += y;
                }
            }
            a
        },
    );
    let n = n as f64;
    let mut corr = vec![vec![0.0; dims]; dims];
    for i in 0..dims {
        for j in i..dims {
            let cov = cross[i][j] / n - (sums[i] / n) * (sums[j] / n);
            let var_i = cross[i][i] / n - (sums[i] / n) * (sums[i] / n);
            let var_j = cross[j][j] / n - (sums[j] / n) * (sums[j] / n);
            let denom = (var_i * var_j).sqrt();
            let r = if denom > 1e-12 {
                (cov / denom).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            corr[i][j] = r;
            corr[j][i] = r;
        }
    }
    for (i, row) in corr.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    Some(corr)
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    pub iterations: u32,
}

impl KMeansModel {
    /// Index of the nearest centroid to `point`.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest(&self.centroids, point).0
    }
}

fn nearest(centroids: &[Vec<f64>], point: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(c, point);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Lloyd's algorithm with deterministic farthest-point ("k-means++ style")
/// seeding. Runs at most `max_iters` iterations or until assignments
/// converge. Panics if `k == 0`; an empty dataset returns a model with no
/// centroids.
pub fn kmeans(points: &Dataset<Vec<f64>>, k: usize, max_iters: u32) -> KMeansModel {
    assert!(k > 0, "k must be positive");
    let data: Vec<&Vec<f64>> = points.iter().collect();
    if data.is_empty() {
        return KMeansModel {
            centroids: vec![],
            inertia: 0.0,
            iterations: 0,
        };
    }
    let k = k.min(data.len());

    // Deterministic k-means++-style seeding: start from the first point,
    // then repeatedly take the point farthest from the chosen set.
    let mut centroids: Vec<Vec<f64>> = vec![data[0].clone()];
    while centroids.len() < k {
        let far = data
            .iter()
            .map(|p| nearest(&centroids, p).1)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        centroids.push(data[far].clone());
    }

    let dims = data[0].len();
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;
    for it in 0..max_iters {
        iterations = it + 1;
        // Assignment + per-cluster sums, in parallel.
        let centroids_ref = &centroids;
        let (sums, counts, new_inertia) = points.aggregate(
            (vec![vec![0.0; dims]; k], vec![0u64; k], 0.0),
            |mut acc, p| {
                let (c, d) = nearest(centroids_ref, p);
                for (dst, src) in acc.0[c].iter_mut().zip(p) {
                    *dst += src;
                }
                acc.1[c] += 1;
                acc.2 += d;
                acc
            },
            |mut a, b| {
                for (sa, sb) in a.0.iter_mut().zip(b.0) {
                    for (x, y) in sa.iter_mut().zip(sb) {
                        *x += y;
                    }
                }
                for (ca, cb) in a.1.iter_mut().zip(b.1) {
                    *ca += cb;
                }
                a.2 += b.2;
                a
            },
        );

        for c in 0..k {
            if counts[c] > 0 {
                centroids[c] = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            }
        }
        let improvement = inertia - new_inertia;
        inertia = new_inertia;
        if improvement.abs() < 1e-9 {
            break;
        }
    }
    KMeansModel {
        centroids,
        inertia,
        iterations,
    }
}

/// A fitted ordinary-least-squares model: `y ≈ intercept + w · x`.
#[derive(Debug, Clone)]
pub struct LinearModel {
    pub weights: Vec<f64>,
    pub intercept: f64,
    /// Coefficient of determination on the training data.
    pub r2: f64,
}

impl LinearModel {
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }
}

/// Fit OLS over `(features, target)` pairs via the normal equations
/// `XᵀX w = Xᵀy` (with an intercept column), the XᵀX accumulation running
/// data-parallel. Returns `None` if the system is singular or the dataset
/// is empty.
pub fn linreg(samples: Dataset<(Vec<f64>, f64)>, dims: usize) -> Option<LinearModel> {
    linreg_ridge(samples, dims, 0.0)
}

/// [`linreg`] with L2 (ridge) regularization `lambda` on the non-intercept
/// weights. A tiny positive `lambda` makes degenerate feature columns
/// (constant or collinear) solvable instead of singular.
pub fn linreg_ridge(
    samples: Dataset<(Vec<f64>, f64)>,
    dims: usize,
    lambda: f64,
) -> Option<LinearModel> {
    if samples.is_empty() {
        return None;
    }
    let d = dims + 1; // intercept column first
    let (xtx, xty, sum_y, sum_y2, n) = samples.aggregate(
        (vec![vec![0.0; d]; d], vec![0.0; d], 0.0, 0.0, 0u64),
        |mut acc, (x, y)| {
            debug_assert_eq!(x.len(), dims);
            let mut row = Vec::with_capacity(d);
            row.push(1.0);
            row.extend_from_slice(x);
            for i in 0..d {
                for j in 0..d {
                    acc.0[i][j] += row[i] * row[j];
                }
                acc.1[i] += row[i] * y;
            }
            acc.2 += y;
            acc.3 += y * y;
            acc.4 += 1;
            acc
        },
        |mut a, b| {
            for (ra, rb) in a.0.iter_mut().zip(b.0) {
                for (x, y) in ra.iter_mut().zip(rb) {
                    *x += y;
                }
            }
            for (x, y) in a.1.iter_mut().zip(b.1) {
                *x += y;
            }
            a.2 += b.2;
            a.3 += b.3;
            a.4 += b.4;
            a
        },
    );

    let mut xtx = xtx;
    for (i, row) in xtx.iter_mut().enumerate().skip(1) {
        row[i] += lambda;
    }
    let coeffs = solve(xtx, xty)?;
    let intercept = coeffs[0];
    let weights = coeffs[1..].to_vec();

    // R² on the training set.
    let model = LinearModel {
        weights,
        intercept,
        r2: 0.0,
    };
    let ss_res = samples.aggregate(
        0.0,
        |acc, (x, y)| {
            let e = y - model.predict(x);
            acc + e * e
        },
        |a, b| a + b,
    );
    let mean_y = sum_y / n as f64;
    let ss_tot = (sum_y2 - n as f64 * mean_y * mean_y).max(1e-30);
    Some(LinearModel {
        r2: 1.0 - ss_res / ss_tot,
        ..model
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds<T: Send + Sync>(v: Vec<T>) -> Dataset<T> {
        Dataset::from_vec(v, 4)
    }

    #[test]
    fn colstats_matches_hand_computation() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![2.0, 5.0],
            vec![3.0, 0.0],
            vec![4.0, -5.0],
        ];
        let s = colstats(ds(rows), 2).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, vec![4.0, 5.0]);
        assert_eq!(s.min, vec![1.0, -5.0]);
        assert_eq!(s.mean, vec![2.5, 0.0]);
        assert_eq!(s.non_zeros, vec![4, 2]);
        // Sample variance of 1..4 is 5/3; of {0,5,0,-5} is 50/3.
        assert!((s.variance[0] - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.variance[1] - 50.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn colstats_empty_and_single() {
        assert!(colstats(ds::<Vec<f64>>(vec![]), 3).is_none());
        let s = colstats(ds(vec![vec![7.0]]), 1).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.variance, vec![0.0]);
        assert_eq!(s.mean, vec![7.0]);
    }

    #[test]
    fn correlation_matrix_recovers_known_relations() {
        // col1 = 2*col0 (r=1), col2 = -col0 (r=-1), col3 independent-ish.
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let x = f64::from(i % 37);
                let noise = f64::from((i * 7919) % 101) - 50.0;
                vec![x, 2.0 * x, -x, noise]
            })
            .collect();
        let corr = correlation_matrix(ds(rows), 4).unwrap();
        for (i, row) in corr.iter().enumerate() {
            assert!((row[i] - 1.0).abs() < 1e-12);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - corr[j][i]).abs() < 1e-12, "symmetry");
                assert!(v.abs() <= 1.0 + 1e-12);
            }
        }
        assert!((corr[0][1] - 1.0).abs() < 1e-9, "perfect positive");
        assert!((corr[0][2] + 1.0).abs() < 1e-9, "perfect negative");
        assert!(
            corr[0][3].abs() < 0.3,
            "independent columns ~0: {}",
            corr[0][3]
        );
    }

    #[test]
    fn correlation_matrix_degenerate_inputs() {
        assert!(correlation_matrix(ds::<Vec<f64>>(vec![]), 2).is_none());
        assert!(correlation_matrix(ds(vec![vec![1.0, 2.0]]), 2).is_none());
        // Constant column: correlation defined as 0 off-diagonal.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i), 5.0]).collect();
        let corr = correlation_matrix(ds(rows), 2).unwrap();
        assert_eq!(corr[0][1], 0.0);
        assert_eq!(corr[1][1], 1.0);
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut points = Vec::new();
        for i in 0..50 {
            let j = f64::from(i % 7) * 0.01;
            points.push(vec![0.0 + j, 0.0 + j]);
            points.push(vec![10.0 + j, 10.0 + j]);
            points.push(vec![-10.0 + j, 10.0 + j]);
        }
        let model = kmeans(&ds(points), 3, 50);
        assert_eq!(model.centroids.len(), 3);
        assert!(model.inertia < 1.0, "inertia {}", model.inertia);
        // The three cluster centers are recovered (in some order).
        let mut found = [false; 3];
        for c in &model.centroids {
            if sq_dist(c, &[0.03, 0.03]) < 0.1 {
                found[0] = true;
            }
            if sq_dist(c, &[10.03, 10.03]) < 0.1 {
                found[1] = true;
            }
            if sq_dist(c, &[-9.97, 10.03]) < 0.1 {
                found[2] = true;
            }
        }
        assert_eq!(found, [true; 3]);
        // Prediction assigns a fresh point to the right cluster.
        let p0 = model.predict(&[0.1, -0.1]);
        let p1 = model.predict(&[9.5, 10.5]);
        assert_ne!(p0, p1);
    }

    /// Partials fold in partition order, so the floating-point sums — and
    /// with them every centroid and the inertia — do not depend on how
    /// `aggregate` borrows the dataset. The expected bits were printed by
    /// the tree in which `aggregate` still consumed a per-iteration clone.
    #[test]
    fn kmeans_is_bit_identical_on_a_seeded_input() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let points: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                let center = f64::from(i % 3) * 4.0;
                vec![center + rng.gen_range(-1.5..1.5), rng.gen_range(-2.0..2.0)]
            })
            .collect();
        let model = kmeans(&Dataset::from_vec(points, 3), 3, 40);
        let mut bits: Vec<u64> = model
            .centroids
            .iter()
            .flatten()
            .map(|x| x.to_bits())
            .collect();
        bits.push(model.inertia.to_bits());
        let expected = [
            0xbf93f32bba34fe87,
            0xbfc17dd717c27b1b,
            0x401ff66657018f8c,
            0x3fa0ff02b5394477,
            0x400f8fb581148b0b,
            0xbfaf59a8e558f8fd,
            0x408fd14bf36db1d2,
        ];
        assert_eq!(bits, expected, "{bits:#x?}");
        assert_eq!(model.iterations, 5);
    }

    #[test]
    fn kmeans_edge_cases() {
        // k larger than the dataset degrades to one centroid per point.
        let model = kmeans(&ds(vec![vec![1.0], vec![2.0]]), 5, 10);
        assert_eq!(model.centroids.len(), 2);
        assert!(model.inertia < 1e-12);

        let empty = kmeans(&ds::<Vec<f64>>(vec![]), 3, 10);
        assert!(empty.centroids.is_empty());

        // Identical points: converges immediately, zero inertia.
        let model = kmeans(&ds(vec![vec![3.0, 3.0]; 20]), 2, 10);
        assert!(model.inertia < 1e-12);
    }

    #[test]
    fn linreg_recovers_exact_linear_function() {
        // y = 3 + 2a - 5b, no noise.
        let samples: Vec<(Vec<f64>, f64)> = (0..200)
            .map(|i| {
                let a = f64::from(i % 17);
                let b = f64::from(i % 5) * 0.5;
                (vec![a, b], 3.0 + 2.0 * a - 5.0 * b)
            })
            .collect();
        let m = linreg(ds(samples), 2).unwrap();
        assert!(
            (m.intercept - 3.0).abs() < 1e-8,
            "intercept {}",
            m.intercept
        );
        assert!((m.weights[0] - 2.0).abs() < 1e-8);
        assert!((m.weights[1] + 5.0).abs() < 1e-8);
        assert!(m.r2 > 0.999999);
        assert!((m.predict(&[1.0, 1.0]) - 0.0).abs() < 1e-8);
    }

    #[test]
    fn linreg_with_noise_still_close() {
        let mut seed = 11u64;
        let mut noise = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.2
        };
        let samples: Vec<(Vec<f64>, f64)> = (0..500)
            .map(|i| {
                let x = f64::from(i) / 50.0;
                (vec![x], 1.0 + 4.0 * x + noise())
            })
            .collect();
        let m = linreg(ds(samples), 1).unwrap();
        assert!((m.weights[0] - 4.0).abs() < 0.05);
        assert!((m.intercept - 1.0).abs() < 0.15);
        assert!(m.r2 > 0.99);
    }

    #[test]
    fn linreg_degenerate_inputs() {
        assert!(linreg(ds::<(Vec<f64>, f64)>(vec![]), 2).is_none());
        // Constant feature duplicating the intercept → singular.
        let samples: Vec<(Vec<f64>, f64)> = (0..10).map(|i| (vec![1.0], f64::from(i))).collect();
        assert!(linreg(ds(samples), 1).is_none());
    }
}
