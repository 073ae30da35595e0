//! The construction budget of one run's topology: on the `large-scale-50k`
//! preset, `GridApp::build` may allocate only a fixed ceiling more than the
//! `Testbed::from_spec` it calls. The testbed and the network share one
//! `Topology`, so what the build adds is the clients, the servers and the
//! network's dense per-link state, and no second copy of the graph. The
//! count is a deterministic work counter, the same on every host.
//!
//! Measured with this file: `Testbed::from_spec` makes 257,796 allocations
//! and `GridApp::build` 505,705, so the build adds 247,909, about five per
//! client (its name and its interned key, mostly). When the network took
//! its own clone of the topology (one `String` and one adjacency `Vec` per
//! node, every name again for the name map, and the map's table), the build
//! added 340,558: 92,649 more, three per node of the 50k testbed.

use gridapp::{GridApp, GridConfig, Testbed, TestbedSpec};

mod common;
use common::counted;

/// Allocations `GridApp::build` may make beyond its `Testbed::from_spec`:
/// today's 247,909 with 5 % to spare. A second copy of the topology does
/// not fit.
const CEILING: u64 = 260_000;

#[test]
fn a_build_shares_the_testbed_topology_with_its_network() {
    let spec = TestbedSpec::large_scale_50k();
    let testbed = counted(|| drop(Testbed::from_spec(&spec).expect("testbed builds")));
    let config = GridConfig::with_testbed(spec);
    let build = counted(|| drop(GridApp::build(config).expect("app builds")));
    assert!(
        build - testbed <= CEILING,
        "GridApp::build made {build} allocations, {} beyond Testbed::from_spec's {testbed} \
         (ceiling {CEILING})",
        build - testbed
    );
}
