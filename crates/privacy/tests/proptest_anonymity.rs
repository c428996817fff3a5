//! Property tests: whatever the input table, the anonymizer's output is
//! k-anonymous over the generalized quasi-identifiers.

use privacy::{is_k_anonymous, Anonymizer, Hierarchy};
use proptest::prelude::*;
use telco_trace::record::{Record, Value};

prop_compose! {
    fn arb_record()(
        phone in "[0-9]{4,8}",
        duration in 0i64..2000,
        cell in 0u32..40,
    ) -> Record {
        Record::new(vec![
            Value::Str(phone.into()),
            Value::Int(duration),
            Value::Str(format!("c{cell}").into()),
        ])
    }
}

fn anonymizer(k: usize, suppression: f64) -> Anonymizer {
    Anonymizer::new(
        vec![
            (0, Hierarchy::MaskSuffix { levels: 8 }),
            (
                1,
                Hierarchy::NumericRange {
                    base_width: 30.0,
                    levels: 8,
                },
            ),
            (2, Hierarchy::MaskSuffix { levels: 3 }),
        ],
        k,
    )
    .with_suppression_limit(suppression)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_is_always_k_anonymous(
        records in proptest::collection::vec(arb_record(), 0..120),
        k in 1usize..8,
    ) {
        let a = anonymizer(k, 0.1);
        if let Some(result) = a.anonymize(&records) {
            prop_assert!(is_k_anonymous(&result.records, &[0, 1, 2], k));
            // Suppression stays within budget.
            prop_assert!(result.suppressed <= records.len() / 10 + 1);
            // Row accounting: kept + suppressed = input.
            prop_assert_eq!(result.records.len() + result.suppressed, records.len());
        } else {
            // Failure is only legal when even full suppression-free
            // generalization cannot make classes of size k.
            prop_assert!(records.len() < k || k > 1);
        }
    }

    #[test]
    fn generalization_levels_are_within_hierarchy_bounds(
        records in proptest::collection::vec(arb_record(), 1..60),
        k in 1usize..5,
    ) {
        let a = anonymizer(k, 0.05);
        if let Some(result) = a.anonymize(&records) {
            prop_assert!(result.levels[0] <= 8);
            prop_assert!(result.levels[1] <= 8);
            prop_assert!(result.levels[2] <= 3);
            prop_assert!((0.0..=1.0).contains(&result.loss));
        }
    }

    #[test]
    fn k1_is_identity_like(records in proptest::collection::vec(arb_record(), 0..40)) {
        // k = 1 is satisfied by the raw data: no generalization, nothing
        // suppressed.
        let a = anonymizer(1, 0.0);
        let result = a.anonymize(&records).unwrap();
        prop_assert_eq!(result.levels, vec![0, 0, 0]);
        prop_assert_eq!(result.records.len(), records.len());
    }
}
