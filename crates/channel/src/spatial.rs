//! Spatial hash grid for distance-gated superposition.
//!
//! At city scale most realized links sit far below the §7.1 packet
//! detector's 20 dB energy gate: their contribution to a receive
//! window is numerically present in the real world but *never
//! decodable*, so simulating them is pure waste. The grid buckets node
//! positions into uniform cells whose edge equals the gate radius;
//! any pair of nodes within that radius is then guaranteed to live in
//! the 3×3 cell neighborhood around either one, so a receiver's
//! candidate-sender query is O(local density) instead of O(N).
//!
//! The grid is a *pre-filter only*: callers still apply the exact
//! `dist ≤ radius` test to every candidate, so a gated query returns
//! exactly the same sender set — in the same order — as a dense scan
//! with the same exact test. That makes gated superposition
//! bit-identical to the dense reference (the fused/reference split of
//! DESIGN.md §13).

#![deny(clippy::cast_possible_truncation)]

use anc_dsp::cast::round_to_i64;

/// A fixed-capacity bitset over node indices: the set of senders a
/// receiver can hear, as filled by a topology's audibility query.
#[derive(Debug, Clone, Default)]
pub struct NodeMask {
    words: Vec<u64>,
}

impl NodeMask {
    /// Creates a mask able to hold indices `0..n`, all clear.
    pub fn new(n: usize) -> Self {
        NodeMask {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets bit `i` (grows the mask if needed).
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Reads bit `i` (out-of-range indices read as clear).
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Clears every bit without releasing capacity — the per-receiver
    /// reuse pattern of the engine's RX loop.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Uniform-bucket spatial hash over 2-D node positions.
///
/// Cell edge length equals the query radius, so the 3×3 neighborhood
/// around a query point provably contains every stored point within
/// that radius. Bucket membership is stored in CSR form (one `starts`
/// prefix array over a flat `ids` array) and filled by a stable
/// counting sort, so candidates come back in ascending input order —
/// the property that keeps gated superposition order-identical to a
/// dense scan.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl SpatialGrid {
    /// Builds a grid over all positions, with cell edge (= query
    /// radius) `radius`. Panics if `radius` is not a positive finite
    /// number or more than `u32::MAX` positions are given.
    pub fn build(positions: &[(f64, f64)], radius: f64) -> Self {
        let all: Vec<u32> = (0..positions.len())
            .map(|i| u32::try_from(i).expect("grid holds at most u32::MAX nodes"))
            .collect();
        Self::build_subset(positions, &all, radius)
    }

    /// Builds a grid over only the listed node indices — the per-slot
    /// form: the engine rebuilds a grid over *active transmitters*
    /// each slot, so the build cost is O(K transmitters), not O(N
    /// nodes). Indices must be valid for `positions`.
    pub fn build_subset(positions: &[(f64, f64)], subset: &[u32], radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "spatial grid needs a positive finite radius, got {radius}"
        );
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &i in subset {
            let (x, y) = positions[i as usize];
            assert!(
                x.is_finite() && y.is_finite(),
                "node {i} has a non-finite position ({x}, {y})"
            );
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        if subset.is_empty() {
            return SpatialGrid {
                cell: radius,
                min_x: 0.0,
                min_y: 0.0,
                cols: 0,
                rows: 0,
                starts: vec![0],
                ids: Vec::new(),
            };
        }
        let span_cells = |lo: f64, hi: f64| -> usize {
            let c = ((hi - lo) / radius).floor();
            usize::try_from(round_to_i64(c)).expect("non-negative cell span") + 1
        };
        let cols = span_cells(min_x, max_x);
        let rows = span_cells(min_y, max_y);
        let mut grid = SpatialGrid {
            cell: radius,
            min_x,
            min_y,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            ids: vec![0; subset.len()],
        };
        // Stable counting sort into CSR buckets: count, prefix-sum,
        // then fill in input order (keeps each bucket ascending).
        let mut counts = vec![0u32; cols * rows];
        for &i in subset {
            counts[grid.bucket_of(positions[i as usize])] += 1;
        }
        let mut acc = 0u32;
        for (b, &c) in counts.iter().enumerate() {
            grid.starts[b] = acc;
            acc += c;
        }
        grid.starts[cols * rows] = acc;
        let mut cursor = grid.starts[..cols * rows].to_vec();
        for &i in subset {
            let b = grid.bucket_of(positions[i as usize]);
            grid.ids[cursor[b] as usize] = i;
            cursor[b] += 1;
        }
        grid
    }

    /// Flat bucket index of an in-bounds position.
    fn bucket_of(&self, (x, y): (f64, f64)) -> usize {
        let cx = self
            .cell_coord(x - self.min_x)
            .clamp(0, self.cols as i64 - 1);
        let cy = self
            .cell_coord(y - self.min_y)
            .clamp(0, self.rows as i64 - 1);
        usize::try_from(cy).expect("clamped non-negative") * self.cols
            + usize::try_from(cx).expect("clamped non-negative")
    }

    /// Floor cell coordinate of a (possibly negative) offset.
    fn cell_coord(&self, offset: f64) -> i64 {
        round_to_i64((offset / self.cell).floor())
    }

    /// Calls `f` with every stored node index in the 3×3 cell
    /// neighborhood of `pos`, in ascending index order. The visited
    /// set is a superset of all stored nodes within `radius` of `pos`;
    /// callers apply the exact distance test themselves.
    ///
    /// The query cell is clamped into the grid before the ±1
    /// neighborhood is taken. Clamping is 1-Lipschitz in cell units and
    /// any in-range pair differs by at most one unclamped cell per
    /// axis, so the superset guarantee survives even when stored nodes
    /// have been [`Self::relocate`]d outside the build-time bounding
    /// box (they clamp into edge buckets, and so do queries near them).
    pub fn for_each_candidate(&self, pos: (f64, f64), mut f: impl FnMut(u32)) {
        if self.ids.is_empty() {
            return;
        }
        let cx = self
            .cell_coord(pos.0 - self.min_x)
            .clamp(0, self.cols as i64 - 1);
        let cy = self
            .cell_coord(pos.1 - self.min_y)
            .clamp(0, self.rows as i64 - 1);
        let x_lo = cx.saturating_sub(1).max(0);
        let x_hi = cx.saturating_add(1).min(self.cols as i64 - 1);
        let y_lo = cy.saturating_sub(1).max(0);
        let y_hi = cy.saturating_add(1).min(self.rows as i64 - 1);
        // Buckets are visited row-major and each bucket is ascending,
        // but adjacent buckets are not globally sorted; collect rows
        // of ≤3 cells and merge would be overkill — instead visit all
        // nine cells and sort the (tiny) candidate list.
        let mut candidates: Vec<u32> = Vec::new();
        for yy in y_lo..=y_hi {
            for xx in x_lo..=x_hi {
                let b = usize::try_from(yy).expect("non-negative") * self.cols
                    + usize::try_from(xx).expect("non-negative");
                let (s, e) = (self.starts[b] as usize, self.starts[b + 1] as usize);
                candidates.extend_from_slice(&self.ids[s..e]);
            }
        }
        candidates.sort_unstable();
        for id in candidates {
            f(id);
        }
    }

    /// Moves one stored node from `old_pos` to `new_pos` without
    /// rebuilding — the mobility fast path. Returns whether the node
    /// actually changed buckets; when both positions hash to the same
    /// bucket (the common case for per-round waypoint motion) this is
    /// O(1). A bucket change shifts the flat `ids` span between the two
    /// buckets by one slot and adjusts the `starts` prefixes, keeping
    /// every bucket ascending, so queries stay order-identical to a
    /// fresh [`Self::build`] over the moved positions.
    ///
    /// The grid's bounds and bucket geometry are fixed at build time:
    /// positions outside the original bounding box clamp into edge
    /// buckets (see [`Self::for_each_candidate`] for why queries still
    /// see them). `old_pos` must be the exact position the node was
    /// inserted (or last relocated) with; panics if `idx` is not stored
    /// in `old_pos`'s bucket.
    pub fn relocate(&mut self, idx: u32, old_pos: (f64, f64), new_pos: (f64, f64)) -> bool {
        let old_b = self.bucket_of(old_pos);
        let new_b = self.bucket_of(new_pos);
        if old_b == new_b {
            return false;
        }
        let (s, e) = (self.starts[old_b] as usize, self.starts[old_b + 1] as usize);
        let k = s + self.ids[s..e]
            .binary_search(&idx)
            .unwrap_or_else(|_| panic!("relocate: node {idx} is not stored at old_pos's bucket"));
        let (ns, ne) = (self.starts[new_b] as usize, self.starts[new_b + 1] as usize);
        let ins = ns + self.ids[ns..ne].partition_point(|&v| v < idx);
        if old_b < new_b {
            // Removal at `k` slides everything up to the insertion
            // point down one; the node lands just before it.
            self.ids.copy_within(k + 1..ins, k);
            self.ids[ins - 1] = idx;
            for b in (old_b + 1)..=new_b {
                self.starts[b] -= 1;
            }
        } else {
            self.ids.copy_within(ins..k, ins + 1);
            self.ids[ins] = idx;
            for b in (new_b + 1)..=old_b {
                self.starts[b] += 1;
            }
        }
        true
    }

    /// Collects the 3×3-neighborhood candidates of `pos` into `out`
    /// (cleared first), ascending. Convenience over
    /// [`Self::for_each_candidate`] for callers that reuse a buffer.
    pub fn candidates_into(&self, pos: (f64, f64), out: &mut Vec<u32>) {
        out.clear();
        self.for_each_candidate(pos, |id| out.push(id));
    }

    /// Number of stored node indices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no node is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Exact squared-distance gate shared by dense and gated paths: both
/// must use the *same expression* so the candidate sets they admit are
/// identical (float comparisons included).
pub fn within_range(a: (f64, f64), b: (f64, f64), radius: f64) -> bool {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    dx * dx + dy * dy <= radius * radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;

    fn dense_in_range(positions: &[(f64, f64)], q: (f64, f64), radius: f64) -> Vec<u32> {
        (0..positions.len())
            .filter(|&i| within_range(positions[i], q, radius))
            .map(|i| u32::try_from(i).unwrap())
            .collect()
    }

    #[test]
    fn grid_query_matches_dense_scan() {
        let mut rng = DspRng::seed_from(7);
        let positions: Vec<(f64, f64)> = (0..400)
            .map(|_| (rng.uniform() * 100.0, rng.uniform() * 100.0))
            .collect();
        let radius = 9.5;
        let grid = SpatialGrid::build(&positions, radius);
        let mut buf = Vec::new();
        for &q in &positions {
            grid.candidates_into(q, &mut buf);
            let gated: Vec<u32> = buf
                .iter()
                .copied()
                .filter(|&i| within_range(positions[i as usize], q, radius))
                .collect();
            assert_eq!(gated, dense_in_range(&positions, q, radius));
        }
    }

    #[test]
    fn query_outside_bounding_box_is_safe_and_complete() {
        let positions = vec![(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)];
        let grid = SpatialGrid::build(&positions, 2.0);
        let mut buf = Vec::new();
        // Just outside the box but within radius of node 0.
        grid.candidates_into((-1.5, -0.5), &mut buf);
        assert!(buf.contains(&0));
        // Far outside: no candidate within radius; any returned
        // candidates are filtered by the exact test.
        grid.candidates_into((-50.0, -50.0), &mut buf);
        assert!(buf
            .iter()
            .all(|&i| !within_range(positions[i as usize], (-50.0, -50.0), 2.0)));
    }

    #[test]
    fn subset_grid_only_returns_subset() {
        let positions = vec![(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.0)];
        let grid = SpatialGrid::build_subset(&positions, &[1, 3], 1.0);
        assert_eq!(grid.len(), 2);
        let mut buf = Vec::new();
        grid.candidates_into((0.0, 0.0), &mut buf);
        assert_eq!(buf, vec![1, 3]);
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let grid = SpatialGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        let mut buf = vec![9];
        grid.candidates_into((0.0, 0.0), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn candidates_come_back_ascending() {
        let mut rng = DspRng::seed_from(3);
        let positions: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.uniform() * 10.0, rng.uniform() * 10.0))
            .collect();
        let grid = SpatialGrid::build(&positions, 3.0);
        let mut buf = Vec::new();
        for &q in positions.iter().step_by(17) {
            grid.candidates_into(q, &mut buf);
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn relocate_moves_between_buckets_in_both_directions() {
        let mut positions = vec![(0.5, 0.5), (1.5, 0.5), (4.5, 0.5), (8.5, 0.5)];
        let mut grid = SpatialGrid::build(&positions, 1.0);
        let mut buf = Vec::new();

        // Same-bucket move: O(1) early-out, queries unchanged.
        let old = positions[0];
        positions[0] = (0.9, 0.9);
        assert!(!grid.relocate(0, old, positions[0]));
        grid.candidates_into((0.9, 0.9), &mut buf);
        assert_eq!(buf, vec![0, 1]);

        // Forward move (lower bucket → higher): node 0 joins node 2.
        let old = positions[0];
        positions[0] = (4.6, 0.4);
        assert!(grid.relocate(0, old, positions[0]));
        grid.candidates_into((4.5, 0.5), &mut buf);
        assert_eq!(buf, vec![0, 2]);
        grid.candidates_into((1.5, 0.5), &mut buf);
        assert_eq!(buf, vec![1]);

        // Backward move (higher bucket → lower): node 3 joins node 1.
        let old = positions[3];
        positions[3] = (1.4, 0.6);
        assert!(grid.relocate(3, old, positions[3]));
        grid.candidates_into((1.5, 0.5), &mut buf);
        assert_eq!(buf, vec![1, 3]);

        // Buckets stay ascending after mixed-direction traffic.
        grid.candidates_into((4.5, 0.5), &mut buf);
        assert_eq!(buf, vec![0, 2]);
        assert_eq!(grid.len(), 4);
    }

    #[test]
    fn relocate_outside_bounds_clamps_but_stays_queryable() {
        let mut positions = vec![(0.0, 0.0), (5.0, 5.0)];
        let mut grid = SpatialGrid::build(&positions, 2.0);
        // Wander far past the build-time bounding box: the node clamps
        // into an edge bucket, and a query near its *real* position
        // (clamped the same way) still finds it.
        let old = positions[1];
        positions[1] = (40.0, 40.0);
        grid.relocate(1, old, positions[1]);
        let mut buf = Vec::new();
        grid.candidates_into((40.5, 40.5), &mut buf);
        assert!(buf.contains(&1), "edge-clamped node must stay visible");
        grid.candidates_into((0.0, 0.0), &mut buf);
        let near: Vec<u32> = buf
            .iter()
            .copied()
            .filter(|&i| within_range(positions[i as usize], (0.0, 0.0), 2.0))
            .collect();
        assert_eq!(near, vec![0]);
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn relocate_with_wrong_old_pos_panics() {
        let positions = vec![(0.0, 0.0), (5.0, 5.0)];
        let mut grid = SpatialGrid::build(&positions, 1.0);
        // Claiming node 0 sits where node 1 does is a caller bug.
        grid.relocate(0, (5.0, 5.0), (0.0, 0.0));
    }

    #[test]
    fn node_mask_set_get_clear() {
        let mut m = NodeMask::new(70);
        assert!(!m.get(0));
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(69);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(69));
        assert!(!m.get(1) && !m.get(65));
        assert_eq!(m.count(), 4);
        // Out-of-capacity set grows; out-of-capacity get reads clear.
        m.set(200);
        assert!(m.get(200));
        assert!(!m.get(500));
        m.clear();
        assert_eq!(m.count(), 0);
        assert!(!m.get(63));
    }
}
