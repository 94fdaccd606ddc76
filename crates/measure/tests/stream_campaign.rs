//! End-to-end worker-count invariance of the streaming campaign.
//!
//! The `cloud-repro campaign --tenants N` pipeline must produce
//! byte-identical reports no matter the worker count. Streaming never
//! builds a fabric (a topology only contributes per-tenant path
//! ceilings), so the fabric stepping engine is not an axis here.

use measure::stream::{run_fleet_stream, StreamSpec};
use netsim::TrafficPattern;

#[test]
fn streaming_report_is_invariant_across_workers() {
    let mut spec = StreamSpec::new(
        clouds::hpccloud::n_core(8).with_reference_faults(),
        TrafficPattern::FullSpeed,
        90.0,
        400,
        0xfeed_f00d,
    );
    spec.topology = Some(topo::zoo::star(16).expect("star"));

    let parallel = run_fleet_stream(&spec, 2).expect("jobs=2");
    assert_eq!(parallel.tenants_done, 400);
    let serial = run_fleet_stream(&spec, 1).expect("jobs=1");
    assert_eq!(serial.render(&spec), parallel.render(&spec));
    assert_eq!(serial.fingerprint, parallel.fingerprint);
}
