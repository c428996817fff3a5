//! The estimator's arithmetic: best-of-rounds, percentiles, class
//! floors, and the quartile spread the acceptance rule is judged by.

use spate_benchmark::harness::{
    best_of_rounds, check_floors, iqr_share, median, of_class, percentile, quartiles, tail_pct,
    Class, Floors,
};

#[test]
fn best_of_rounds_keeps_recurring_stalls_and_drops_bursts() {
    // Op 1 is slow in every round (a deterministic stall); op 2 is slow
    // once (a neighbour's burst).
    let rounds = vec![
        vec![1.0, 9.0, 1.0],
        vec![1.2, 9.5, 7.0],
        vec![0.9, 9.1, 1.1],
    ];
    assert_eq!(best_of_rounds(&rounds), vec![0.9, 9.0, 1.0]);
    assert!(best_of_rounds(&[]).is_empty());
}

#[test]
fn median_and_percentile() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_pct(10), 50.0);
    assert_eq!(tail_pct(80), 87.5);
    assert_eq!(tail_pct(200), 95.0);
    assert_eq!(tail_pct(100_000), 95.0);
}

#[test]
fn class_selection_and_floors() {
    let classes = [Class::Light, Class::Heavy, Class::Light, Class::Other];
    assert_eq!(
        of_class(&[1.0, 2.0, 3.0, 4.0], &classes, Class::Light),
        vec![1.0, 3.0]
    );
    assert!(check_floors(&classes, Floors { light: 2, heavy: 1 }).is_ok());
    assert!(check_floors(&classes, Floors { light: 3, heavy: 1 }).is_err());
    assert!(check_floors(&classes, Floors { light: 2, heavy: 2 }).is_err());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 3, 7], n=4) == [3.0, 7.0, 10.0]
    assert_eq!(quartiles(&[10.0, 3.0, 7.0]), [3.0, 7.0, 10.0]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}
