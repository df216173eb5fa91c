//! Bit-sequence correlation for pilot alignment.
//!
//! §7.2: *"After decoding the interference free part, she tries to match
//! the known pilot sequence with every sequence of 64 bits. Once a match
//! is found, she aligns her known signal with the received signal
//! starting at that point."* These helpers perform that sliding match,
//! tolerating a configurable number of bit errors (the interference-free
//! region is still noisy).

/// Number of positions at which two equal-length bit slices disagree.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn hamming_distance(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming distance needs equal lengths");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Finds the offset with the *fewest* bit errors (best match), returning
/// `(offset, errors)`. Prefers the earliest offset on ties. Returns
/// `None` if the needle does not fit.
pub fn best_match(haystack: &[bool], needle: &[bool]) -> Option<(usize, usize)> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None;
    for off in 0..=haystack.len() - needle.len() {
        let d = hamming_distance(&haystack[off..off + needle.len()], needle);
        match best {
            Some((_, bd)) if d >= bd => {}
            _ => best = Some((off, d)),
        }
        if d == 0 {
            break; // cannot improve
        }
    }
    best
}

/// Like [`best_match`], but with an error budget: an offset can only
/// be *used* by callers that tolerate at most `max_errors` mismatches,
/// so each candidate stops counting once past the budget (or past the
/// current best) instead of scanning the full needle. Returns the
/// earliest offset achieving the minimum distance within the budget,
/// as `(offset, errors)`, or `None` when no offset qualifies.
///
/// Decision-equivalent to
/// `best_match(haystack, needle).filter(|&(_, e)| e <= max_errors)`:
/// both reject the same receptions and return the same offset whenever
/// one qualifies (§7.2's pilot alignment), but the early abort makes a
/// failed candidate cost O(budget) instead of O(needle).
pub fn best_match_bounded(
    haystack: &[bool],
    needle: &[bool],
    max_errors: usize,
) -> Option<(usize, usize)> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None;
    for off in 0..=haystack.len() - needle.len() {
        // A candidate displaces `best` only with strictly fewer errors
        // (ties keep the earliest offset, as in `best_match`), and can
        // never qualify with more than the budget.
        let bound = match best {
            Some((_, bd)) => bd.saturating_sub(1).min(max_errors),
            None => max_errors,
        };
        let mut d = 0usize;
        for (x, y) in haystack[off..off + needle.len()].iter().zip(needle) {
            if x != y {
                d += 1;
                if d > bound {
                    break;
                }
            }
        }
        if d <= bound {
            best = Some((off, d));
            if d == 0 {
                break; // cannot improve
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::{pilot_sequence, Lfsr};

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming_distance(&bits("1010"), &bits("1010")), 0);
        assert_eq!(hamming_distance(&bits("1010"), &bits("0101")), 4);
        assert_eq!(hamming_distance(&bits("1010"), &bits("1011")), 1);
    }

    #[test]
    #[should_panic]
    fn hamming_length_mismatch_panics() {
        let _ = hamming_distance(&bits("10"), &bits("101"));
    }

    #[test]
    fn find_exact() {
        let hay = bits("0001011010");
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 0), Some((3, 0)));
        assert_eq!(best_match_bounded(&hay, &bits("1111"), 0), None);
    }

    #[test]
    fn find_with_errors() {
        let hay = bits("0001001010"); // "1011" corrupted at offset 3 -> "1001"
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 0), None);
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 1), Some((3, 1)));
    }

    #[test]
    fn find_prefers_first() {
        let hay = bits("10111011");
        assert_eq!(best_match(&hay, &bits("1011")), Some((0, 0)));
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 0), Some((0, 0)));
    }

    #[test]
    fn needle_longer_than_haystack() {
        assert_eq!(best_match(&bits("101"), &bits("10101")), None);
        assert_eq!(best_match(&bits("1"), &bits("10")), None);
    }

    #[test]
    fn empty_needle_matches_nothing() {
        assert_eq!(best_match(&bits("101"), &[]), None);
    }

    #[test]
    fn best_match_reports_errors() {
        let hay = bits("0000101100");
        let (off, err) = best_match(&hay, &bits("1011")).unwrap();
        assert_eq!((off, err), (4, 0));
        // "1010" best-matches at offset 2 ("0010", one error), which is
        // earlier than the one-error match at offset 4.
        let (off, err) = best_match(&hay, &bits("1010")).unwrap();
        assert_eq!(off, 2);
        assert_eq!(err, 1);
    }

    #[test]
    fn bounded_matches_filtered_best_match() {
        // The budgeted scan must agree with the unbounded scan + filter
        // on every (haystack, needle, budget) it is asked about.
        let mut h = Lfsr::new(0xBEEF).bits(300);
        let needle = pilot_sequence(32);
        let true_off = 120;
        h.splice(true_off..true_off + 32, needle.iter().copied());
        h[true_off + 3] ^= true;
        h[true_off + 17] ^= true;
        for budget in 0..8 {
            let want = best_match(&h, &needle).filter(|&(_, e)| e <= budget);
            assert_eq!(
                best_match_bounded(&h, &needle, budget),
                want,
                "budget {budget}"
            );
        }
        // With the budget it qualifies under, the true offset wins.
        assert_eq!(best_match_bounded(&h, &needle, 6), Some((true_off, 2)));
    }

    #[test]
    fn bounded_ties_prefer_earliest() {
        let hay = bits("10111011");
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 2), Some((0, 0)));
        // Two offsets at distance 1: earliest reported.
        let hay = bits("10011001");
        assert_eq!(best_match_bounded(&hay, &bits("1011"), 1), Some((0, 1)));
    }

    #[test]
    fn bounded_rejects_over_budget() {
        assert_eq!(best_match_bounded(&bits("0000000"), &bits("1111"), 2), None);
        assert_eq!(best_match_bounded(&bits("101"), &bits("10101"), 3), None);
        assert_eq!(best_match_bounded(&bits("101"), &[], 3), None);
    }

    #[test]
    fn pilot_locates_in_noise_floor() {
        // Simulate §7.2: a pilot embedded inside pseudo-random traffic
        // must be found at exactly its true offset even with 3 flips.
        let pilot = pilot_sequence(64);
        let mut stream = Lfsr::new(0x1234).bits(100);
        let true_off = stream.len();
        stream.extend_from_slice(&pilot);
        stream.extend(Lfsr::new(0x4321).bits(80));
        // corrupt three pilot bits
        stream[true_off + 5] ^= true;
        stream[true_off + 31] ^= true;
        stream[true_off + 62] ^= true;
        let (off, err) = best_match(&stream, &pilot).unwrap();
        assert_eq!(off, true_off);
        assert_eq!(err, 3);
        assert_eq!(best_match_bounded(&stream, &pilot, 6), Some((true_off, 3)));
    }
}
