//! Inputs are a pure function of the seed, and the count-derived metrics
//! of the single-threaded workloads repeat exactly.

use spate_benchmark::driver::{self, Mode, RunConfig};
use spate_benchmark::harness::check_floors;
use spate_benchmark::ops::{classes, explore_ops, ingest_ops, op_list_bytes, serve_ops};
use spate_benchmark::workloads::explore::Explore;
use spate_benchmark::workloads::ingest::IngestDecay;
use spate_benchmark::workloads::{generate, Sizing, Workload};

fn explore_list(seed: u64, sizing: &Sizing) -> Vec<u8> {
    let (layout, _) = generate(seed, sizing.scale, 1);
    op_list_bytes(&explore_ops(
        seed,
        &layout,
        sizing.epochs(),
        sizing.explore_heavy_ops,
        sizing.explore_other_instances,
    ))
}

fn serve_list(seed: u64, sizing: &Sizing) -> Vec<u8> {
    let (layout, _) = generate(seed, sizing.scale, 1);
    op_list_bytes(&serve_ops(seed, &layout, sizing.serve))
}

#[test]
fn same_seed_same_op_list_other_seed_other_list() {
    for sizing in [Sizing::full(), Sizing::quick()] {
        assert_eq!(explore_list(7, &sizing), explore_list(7, &sizing));
        assert_ne!(explore_list(7, &sizing), explore_list(8, &sizing));
        assert_eq!(serve_list(7, &sizing), serve_list(7, &sizing));
        assert_ne!(serve_list(7, &sizing), serve_list(8, &sizing));
    }
    // Epoch order is the only order a warehouse ingests in.
    assert_eq!(
        op_list_bytes(&ingest_ops(96)),
        op_list_bytes(&ingest_ops(96))
    );
}

#[test]
fn full_size_op_lists_meet_the_class_floors() {
    let sizing = Sizing::full();
    let (layout, _) = generate(1, sizing.scale, 1);
    let explore = explore_ops(
        1,
        &layout,
        sizing.epochs(),
        sizing.explore_heavy_ops,
        sizing.explore_other_instances,
    );
    let serve = serve_ops(1, &layout, sizing.serve);
    assert_eq!(serve.len(), sizing.serve.total_ops() as usize);
    for ops in [explore, serve, ingest_ops(sizing.epochs())] {
        check_floors(&classes(&ops), sizing.floors).expect("floors");
    }
}

/// The seed moves only order, boxes and attributes: the multiset of
/// (kind, window, class) an explore list holds is the same for all seeds.
#[test]
fn explore_windows_do_not_depend_on_the_seed() {
    let sizing = Sizing::full();
    let shape = |seed: u64| {
        let (layout, _) = generate(seed, sizing.scale, 1);
        let mut shape: Vec<String> = explore_ops(
            seed,
            &layout,
            sizing.epochs(),
            sizing.explore_heavy_ops,
            sizing.explore_other_instances,
        )
        .iter()
        .map(|op| {
            let kind = format!("{:?}", op.kind);
            let kind = kind
                .split([' ', '(', '{'])
                .next()
                .unwrap_or_default()
                .to_string();
            format!("{kind} {:?} {:?}", op.window, op.class)
        })
        .collect();
        shape.sort();
        shape
    };
    assert_eq!(shape(1), shape(2));
}

fn counts<W: Workload>(name: &'static str, seed: u64) -> (f64, f64) {
    let config = RunConfig {
        seed,
        seconds: 0.0,
        mode: Mode {
            end_to_end: true,
            per_layer: false,
        },
        sizing: Sizing::quick(),
    };
    let (report, _) = driver::run::<W>(name, &config);
    assert!(report.correct, "{name}: {:?}", report.failures);
    (
        report.values.get("space_ratio").expect("space_ratio"),
        report.values.get("io_ms_per_op").expect("io_ms_per_op"),
    )
}

#[test]
fn same_seed_same_space_and_io_counts() {
    assert_eq!(
        counts::<Explore<false>>("explore_path", 5),
        counts::<Explore<false>>("explore_path", 5)
    );
    assert_eq!(
        counts::<Explore<true>>("explore_cas", 5),
        counts::<Explore<true>>("explore_cas", 5)
    );
    assert_eq!(
        counts::<IngestDecay>("ingest_decay", 5),
        counts::<IngestDecay>("ingest_decay", 5)
    );
    assert_ne!(
        counts::<Explore<false>>("explore_path", 5),
        counts::<Explore<false>>("explore_path", 6)
    );
}
