//! Property and unit tests for spatial gating (PR 8 tentpole).
//!
//! The load-bearing invariant: attaching node positions switches every
//! reception onto the grid-gated path, and as long as every declared
//! *above-gate* link is within the audibility range (so the 3×3 bucket
//! query plus the exact distance test admits it), the gated run is
//! **bit-identical** to the dense reference — same RNG stream order,
//! same superposition summation order, same decoded bits. Conversely,
//! a sub-gate link placed *out* of range is dropped by the grid and
//! must never change a decoded bit.

use anc_netcode::Scheme;
use anc_sim::runs::{run_spec, RunConfig};
use anc_sim::scenario::{MeshConfig, ScenarioSpec};
use proptest::prelude::*;

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        packets_per_flow: 5,
        payload_bits: 1024,
        ..RunConfig::quick(seed)
    }
}

proptest! {
    /// Gated == dense over randomized positioned meshes: the mesh
    /// generator attaches its placement with a range covering every
    /// declared link (including provisioned overhear links beyond the
    /// mesh radius), so stripping the positions — which switches the
    /// engine back to the dense link walk — must not move a single
    /// metric bit.
    #[test]
    fn gated_mesh_matches_dense(
        nodes in 8usize..22,
        radius_milli in 400u32..600,
        placement_seed in 0u64..40,
        run_seed in 0u64..1_000,
        anc in any::<bool>(),
    ) {
        let mesh = MeshConfig {
            nodes,
            radius: f64::from(radius_milli) / 1000.0,
            seed: placement_seed,
        };
        // Sparse placements (router with < 4 neighbors) are rejected by
        // the generator; skip those draws rather than failing.
        let Ok(positioned) = ScenarioSpec::random_mesh(&mesh) else {
            return Ok(());
        };
        prop_assert!(positioned.graph.positions.is_some(), "mesh should embed its placement");
        let mut dense = positioned.clone();
        dense.graph.positions = None;
        let scheme = if anc { Scheme::Anc } else { Scheme::Traditional };
        let rc = cfg(run_seed);
        let gated_m = run_spec(&positioned, scheme, &rc).expect("positioned mesh runs");
        let dense_m = run_spec(&dense, scheme, &rc).expect("dense mesh runs");
        prop_assert_eq!(
            gated_m.fingerprint(),
            dense_m.fingerprint(),
            "spatial gating changed mesh metrics (n={} r={} ps={} rs={} {:?})",
            nodes, mesh.radius, placement_seed, run_seed, scheme
        );
    }
}

/// A sub-gate link dropped by the grid never changes a decoded bit.
///
/// The X topology's cross-interference links are replaced by
/// ultra-faint custom links (amplitude ≈ 0.005, energy ≈ 2.5e-5 —
/// 16 dB *below* the 1e-3 noise floor, let alone the §7.1 detector's
/// 20 dB gate), and the embedding places exactly those two links out
/// of the audibility range while every main and overhear link stays
/// in. The gated run therefore drops the faint interferers from the
/// overhear windows that the dense run still superposes — and because
/// a signal that far under the noise floor cannot move a bit decision,
/// every metric word stays identical. Window-open decisions match in
/// both arms (each faint link rides along in windows already opened by
/// an in-range link), so the forked noise streams stay aligned and the
/// comparison is exact, not statistical.
#[test]
fn sub_gate_link_dropped_by_grid_changes_no_decoded_bit() {
    use anc_sim::topology::LinkClass;

    let mut spec = ScenarioSpec::x();
    let mut faint = 0;
    for l in &mut spec.graph.links {
        if matches!(l.class, LinkClass::Weak) {
            l.class = LinkClass::Custom {
                lo: 0.004,
                hi: 0.006,
            };
            faint += 1;
        }
    }
    assert_eq!(faint, 2, "x() declares the two cross-interference links");

    // Node order X1, X2, X3, X4, ROUTER. Mains are 1.28 from the
    // router, overhear pairs 1.6 apart, the faint diagonals 2.0 — so a
    // 1.7 range keeps every above-gate link in-bucket and gates out
    // exactly the sub-gate ones.
    let dense = spec.clone();
    spec.graph = spec.graph.with_positions(
        vec![
            (-0.8, 1.0),
            (0.8, 1.0),
            (0.8, -1.0),
            (-0.8, -1.0),
            (0.0, 0.0),
        ],
        1.7,
    );

    for scheme in [Scheme::Anc, Scheme::Cope, Scheme::Traditional] {
        for seed in [3u64, 8, 21] {
            let rc = cfg(seed);
            let gated_m = run_spec(&spec, scheme, &rc).expect("gated x runs");
            let dense_m = run_spec(&dense, scheme, &rc).expect("dense x runs");
            assert_eq!(
                gated_m.fingerprint(),
                dense_m.fingerprint(),
                "dropping the sub-gate link changed metrics ({scheme:?}, seed {seed})"
            );
        }
    }
}
