//! Property test: class-shared probing is **bit-identical** to per-client
//! probing on the classic presets.
//!
//! On the direct-attach testbeds every network-position class is a singleton
//! (one class per client machine, one per server), so
//! [`RepTable::member_flow_snapshot`](planner::RepTable::member_flow_snapshot)
//! must reproduce
//! [`GridApp::flow_snapshot`](gridapp::GridApp::flow_snapshot) exactly —
//! same entries, same order, same bits — under arbitrary seeds, sampling
//! times, squeezes, and crashes. This is the contract that lets the
//! `plannedRepair` strategy keep classic-preset sweep reports byte-identical
//! while sharing probes at scale.

use gridapp::{GridApp, GridConfig, TestbedSpec};
use planner::{ClassIndex, RepTable};
use proptest::prelude::*;
use simnet::SimTime;

const CLASSIC_PRESETS: [&str; 3] = ["paper", "wide-fanout", "congested-core"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn classic_class_probing_is_bit_identical_to_per_client_probing(
        preset in 0usize..CLASSIC_PRESETS.len(),
        seed in 0u64..10_000,
        advance_secs in 1.0f64..120.0,
        squeeze_draw in 0u8..2,
        crash_draw in 0u8..2,
    ) {
        let (squeeze, crash_first_server) = (squeeze_draw == 1, crash_draw == 1);
        let spec = TestbedSpec::by_name(CLASSIC_PRESETS[preset]).unwrap();
        let config = GridConfig { seed, ..GridConfig::with_testbed(spec) };
        let mut app = GridApp::build(config).unwrap();
        let index = ClassIndex::build(app.testbed());
        let singletons = index.server_classes().iter().all(|class| class.members.len() == 1);
        prop_assert!(singletons, "classic presets never merge");
        if squeeze {
            app.set_competition_sg1(SimTime::from_secs(0.5), 9.99e6);
        }
        if crash_first_server {
            app.crash_server(SimTime::from_secs(0.7), "S1").unwrap();
        }
        app.advance(SimTime::from_secs(advance_secs));
        let shared = RepTable::new(index).member_flow_snapshot(&app);
        let full = app.flow_snapshot();
        prop_assert_eq!(&shared, &full);
        // Bit-exact, not just approximately equal.
        for ((_, _, a), (_, _, b)) in shared.entries().iter().zip(full.entries()) {
            prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }
}

/// A fixed large-scale case: the documented class counts, and determinism of
/// the shared snapshot across repeated builds of the index.
#[test]
fn large_scale_class_counts_and_snapshot_determinism() {
    let config = GridConfig::with_testbed(TestbedSpec::large_scale());
    let mut app = GridApp::build(config).unwrap();
    app.advance(SimTime::from_secs(5.0));
    let index = ClassIndex::build(app.testbed());
    assert_eq!(index.client_classes().len(), 63);
    assert_eq!(index.server_classes().len(), 3);
    let a = RepTable::new(index).member_flow_snapshot(&app);
    let b = RepTable::new(ClassIndex::build(app.testbed())).member_flow_snapshot(&app);
    assert_eq!(a, b);
    assert_eq!(a.entries().len(), 2000);
}
