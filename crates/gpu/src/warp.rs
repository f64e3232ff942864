//! Warp-wide primitives.
//!
//! BaM's coalescer divides the threads of a warp into groups that access the
//! same cache line with a single `__match_any_sync`, elects a leader per
//! group, and broadcasts the leader's result with `__shfl_sync` (§3.4).
//! These functions provide the same semantics over per-lane value slices.

/// Number of lanes in a warp.
pub const WARP_SIZE: usize = 32;

/// Lane mask type (bit `i` set ⇔ lane `i` participates).
pub type LaneMask = u32;

/// Returns, for each lane, the mask of active lanes whose `values` entry
/// equals that lane's entry — the semantics of CUDA's `__match_any_sync`.
///
/// Inactive lanes (bit clear in `active`) receive a mask of 0.
///
/// # Panics
///
/// Panics if `values.len() != WARP_SIZE`.
///
/// # Examples
///
/// ```
/// use bam_gpu_sim::warp::match_any;
/// let mut vals = [0u64; 32];
/// vals[3] = 7;
/// vals[9] = 7;
/// let masks = match_any(&vals, u32::MAX);
/// assert_eq!(masks[3], (1 << 3) | (1 << 9));
/// assert_eq!(masks[3], masks[9]);
/// ```
pub fn match_any(values: &[u64], active: LaneMask) -> [LaneMask; WARP_SIZE] {
    assert_eq!(
        values.len(),
        WARP_SIZE,
        "match_any needs one value per lane"
    );
    let mut out = [0u32; WARP_SIZE];
    for lane in 0..WARP_SIZE {
        if active & (1 << lane) == 0 {
            continue;
        }
        let mut mask = 0u32;
        for other in 0..WARP_SIZE {
            if active & (1 << other) != 0 && values[other] == values[lane] {
                mask |= 1 << other;
            }
        }
        out[lane] = mask;
    }
    out
}

/// Elects the leader of a group: the lowest-numbered lane in `mask`.
///
/// Returns `None` for an empty mask.
pub fn elect_leader(mask: LaneMask) -> Option<usize> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// Warp-wide ballot: returns a mask with bit `i` set when `predicates[i]` is
/// true and lane `i` is active — the semantics of `__ballot_sync`.
///
/// # Panics
///
/// Panics if `predicates.len() != WARP_SIZE`.
pub fn ballot(predicates: &[bool], active: LaneMask) -> LaneMask {
    assert_eq!(
        predicates.len(),
        WARP_SIZE,
        "ballot needs one predicate per lane"
    );
    let mut mask = 0u32;
    for (lane, &p) in predicates.iter().enumerate() {
        if p && (active & (1 << lane) != 0) {
            mask |= 1 << lane;
        }
    }
    mask
}

/// Broadcasts lane `src_lane`'s entry of `values` to the caller — the
/// semantics of `__shfl_sync` from the perspective of any receiving lane.
///
/// # Panics
///
/// Panics if `values.len() != WARP_SIZE` or `src_lane >= WARP_SIZE`.
pub fn shfl<T: Copy>(values: &[T], src_lane: usize) -> T {
    assert_eq!(values.len(), WARP_SIZE, "shfl needs one value per lane");
    assert!(src_lane < WARP_SIZE, "source lane out of range");
    values[src_lane]
}

/// Iterates over the distinct groups produced by [`match_any`]: yields
/// `(leader_lane, group_mask)` once per group, in ascending leader order.
///
/// This is exactly the per-group work distribution BaM's coalescer performs:
/// each leader probes the cache once on behalf of its group.
pub fn groups(
    match_masks: &[LaneMask; WARP_SIZE],
    active: LaneMask,
) -> impl Iterator<Item = (usize, LaneMask)> + '_ {
    match_masks
        .iter()
        .enumerate()
        .filter(move |&(lane, &mask)| active & (1 << lane) != 0 && elect_leader(mask) == Some(lane))
        .map(|(lane, &mask)| (lane, mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_any_partitions_lanes() {
        let mut vals = [0u64; WARP_SIZE];
        for (lane, v) in vals.iter_mut().enumerate() {
            *v = (lane % 4) as u64;
        }
        let masks = match_any(&vals, u32::MAX);
        // Lanes 0,4,8,...28 share value 0.
        let expected: u32 = (0..8).map(|i| 1u32 << (i * 4)).sum();
        assert_eq!(masks[0], expected);
        assert_eq!(masks[4], expected);
        // Union of distinct groups covers all lanes exactly once.
        let gs: Vec<_> = groups(&masks, u32::MAX).collect();
        assert_eq!(gs.len(), 4);
        let union: u32 = gs.iter().map(|(_, m)| m).fold(0, |a, b| a | b);
        assert_eq!(union, u32::MAX);
        let total: u32 = gs.iter().map(|(_, m)| m.count_ones()).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn inactive_lanes_are_excluded() {
        let vals = [5u64; WARP_SIZE];
        let active = 0x0000_00FF;
        let masks = match_any(&vals, active);
        assert_eq!(masks[0], 0xFF);
        assert_eq!(masks[8], 0, "inactive lane gets empty mask");
        assert_eq!(groups(&masks, active).collect::<Vec<_>>(), vec![(0, 0xFF)]);
    }

    #[test]
    fn leader_is_lowest_lane() {
        assert_eq!(elect_leader(0b1010_0000), Some(5));
        assert_eq!(elect_leader(0), None);
    }

    #[test]
    fn ballot_respects_active_mask() {
        let mut preds = [false; WARP_SIZE];
        preds[1] = true;
        preds[2] = true;
        preds[31] = true;
        assert_eq!(ballot(&preds, u32::MAX), (1 << 1) | (1 << 2) | (1 << 31));
        assert_eq!(ballot(&preds, 0b0110), (1 << 1) | (1 << 2));
    }

    #[test]
    fn shfl_broadcasts() {
        let mut vals = [0u64; WARP_SIZE];
        vals[7] = 99;
        assert_eq!(shfl(&vals, 7), 99);
    }

    #[test]
    fn all_unique_values_give_singleton_groups() {
        let mut vals = [0u64; WARP_SIZE];
        for (lane, v) in vals.iter_mut().enumerate() {
            *v = lane as u64 * 1000;
        }
        let masks = match_any(&vals, u32::MAX);
        let gs: Vec<_> = groups(&masks, u32::MAX).collect();
        assert_eq!(gs.len(), 32);
        assert!(gs
            .iter()
            .all(|(leader, mask)| mask.count_ones() == 1 && mask == &(1u32 << leader)));
    }
}
