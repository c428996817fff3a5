//! Property tests: the data-parallel operator must agree with its
//! obvious sequential counterpart, for any data and any partitioning.

use engine::Dataset;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_equals_fold(
        data in proptest::collection::vec(any::<i16>(), 0..500),
        parts in 1usize..12,
    ) {
        let parallel = Dataset::from_vec(data.clone(), parts)
            .aggregate(0i64, |acc, &x| acc + i64::from(x), |a, b| a + b);
        let sequential: i64 = data.iter().map(|&x| i64::from(x)).sum();
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn partition_count_never_loses_elements(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        parts in 1usize..20,
    ) {
        let d = Dataset::from_vec(data.clone(), parts);
        prop_assert_eq!(d.len(), data.len());
        prop_assert!(d.n_partitions() >= 1);
        // The same multiset of values, whichever partition holds each.
        let histogram = d.aggregate(
            vec![0u32; 256],
            |mut seen, &x| {
                seen[usize::from(x)] += 1;
                seen
            },
            |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
        );
        let mut expected = vec![0u32; 256];
        for &x in &data {
            expected[usize::from(x)] += 1;
        }
        prop_assert_eq!(histogram, expected);
    }
}
