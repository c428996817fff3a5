//! Timing arithmetic of the noise protocol: per-op best-of-rounds,
//! percentiles, class floors and run-to-run spreads. Pure functions, so
//! the estimator is testable without running a workload.

/// Latency class of an op. `Other` ops count in `ops_per_s` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Light,
    Heavy,
    Other,
}

/// `best[i] = min over rounds of rounds[r][i]`. A stall that recurs at
/// the same op index every round (decay on a day boundary, a cold cache
/// miss) survives the minimum; a neighbour-VM burst does not.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    let mut best = first.clone();
    for round in &rounds[1..] {
        assert_eq!(round.len(), best.len(), "rounds replay one op list");
        for (b, &t) in best.iter_mut().zip(round) {
            *b = b.min(t);
        }
    }
    best
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`pct` in 0..=100); 0 if empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, capped at 95, that still has at least ten
/// samples beyond it; the median when even that is unsupported.
pub fn tail_pct(samples: usize) -> f64 {
    if samples < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).min(95.0)
}

/// The values of one class, in op order.
pub fn of_class(values: &[f64], classes: &[Class], class: Class) -> Vec<f64> {
    values
        .iter()
        .zip(classes)
        .filter(|(_, c)| **c == class)
        .map(|(v, _)| *v)
        .collect()
}

/// Per-round minimum op counts a workload must meet for its medians to
/// repeat (sizing: 11 heavy ops per round gave 4-9 % run-to-run spread).
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    pub light: usize,
    pub heavy: usize,
}

pub fn check_floors(classes: &[Class], floors: Floors) -> Result<(), String> {
    let count = |c| classes.iter().filter(|x| **x == c).count();
    let (light, heavy) = (count(Class::Light), count(Class::Heavy));
    if light < floors.light || heavy < floors.heavy {
        return Err(format!(
            "op list has {light} light / {heavy} heavy ops, floors are {} / {}",
            floors.light, floors.heavy
        ));
    }
    Ok(())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}
