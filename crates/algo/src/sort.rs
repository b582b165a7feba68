//! Radix sort and merge primitives.
//!
//! Table IV lists radix sort as the `Ordering` baseline algorithm; §IV-A
//! notes its "digit-wise passes are precisely set-partitioning", the insight
//! the UPE exploits. The merge routines implement the software analogue of
//! Algorithm 1 (merge sorting using UPE).

/// Least-significant-digit radix sort over `u64` keys, 8 bits per pass,
/// skipping passes whose digit is constant across the input.
///
/// Stable, O(passes · n).
///
/// # Examples
///
/// ```
/// use agnn_algo::sort::radix_sort_u64;
///
/// let mut keys = vec![9, 2, 7, 2, 0];
/// radix_sort_u64(&mut keys);
/// assert_eq!(keys, vec![0, 2, 2, 7, 9]);
/// ```
pub fn radix_sort_u64(keys: &mut Vec<u64>) {
    const BITS_PER_PASS: u32 = 8;
    const BUCKETS: usize = 1 << BITS_PER_PASS;
    const DIGITS: usize = (u64::BITS / BITS_PER_PASS) as usize;
    if keys.len() <= 1 {
        return;
    }
    // Every digit's histogram in one read pass; a digit whose keys all land
    // in one bucket would leave the order unchanged, so its pass is skipped.
    let mut histograms = [[0usize; BUCKETS]; DIGITS];
    for &k in keys.iter() {
        for (digit, histogram) in histograms.iter_mut().enumerate() {
            histogram[((k >> (digit as u32 * BITS_PER_PASS)) as usize) & (BUCKETS - 1)] += 1;
        }
    }
    let mut scratch = Vec::new();
    for (digit, histogram) in histograms.iter().enumerate() {
        if histogram.contains(&keys.len()) {
            continue;
        }
        let shift = digit as u32 * BITS_PER_PASS;
        let mut offsets = [0usize; BUCKETS];
        let mut acc = 0;
        for (offset, &count) in offsets.iter_mut().zip(histogram) {
            *offset = acc;
            acc += count;
        }
        scratch.resize(keys.len(), 0);
        for &k in keys.iter() {
            let bucket = ((k >> shift) as usize) & (BUCKETS - 1);
            scratch[offsets[bucket]] = k;
            offsets[bucket] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Merges two sorted slices into one sorted vector (stable: ties take from
/// `a` first).
///
/// # Examples
///
/// ```
/// use agnn_algo::sort::merge_sorted;
///
/// assert_eq!(merge_sorted(&[1, 4, 6], &[2, 4, 9]), vec![1, 2, 4, 4, 6, 9]);
/// ```
pub fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges `chunks` (each sorted) pairwise round by round until one sorted
/// array remains — the software model of the UPE merge tree (Fig. 15).
/// Returns the merged array and the number of merge rounds performed
/// (Table I's `m`).
pub fn tree_merge(mut chunks: Vec<Vec<u64>>) -> (Vec<u64>, u32) {
    if chunks.is_empty() {
        return (Vec::new(), 0);
    }
    let mut rounds = 0;
    while chunks.len() > 1 {
        rounds += 1;
        let mut next = Vec::with_capacity(chunks.len().div_ceil(2));
        let mut iter = chunks.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_sorted(&a, &b)),
                None => next.push(a),
            }
        }
        chunks = next;
    }
    (chunks.pop().expect("one chunk remains"), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn radix_handles_trivial_inputs() {
        let mut empty: Vec<u64> = vec![];
        radix_sort_u64(&mut empty);
        assert!(empty.is_empty());

        let mut single = vec![42];
        radix_sort_u64(&mut single);
        assert_eq!(single, vec![42]);

        let mut zeros = vec![0, 0, 0];
        radix_sort_u64(&mut zeros);
        assert_eq!(zeros, vec![0, 0, 0]);
    }

    #[test]
    fn radix_sorts_full_width_keys() {
        let mut keys = vec![u64::MAX, 0, u64::MAX - 1, 1, 1 << 63];
        radix_sort_u64(&mut keys);
        assert_eq!(keys, vec![0, 1, 1 << 63, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn merge_with_empty_sides() {
        assert_eq!(merge_sorted(&[], &[1, 2]), vec![1, 2]);
        assert_eq!(merge_sorted(&[1, 2], &[]), vec![1, 2]);
        assert!(merge_sorted(&[], &[]).is_empty());
    }

    #[test]
    fn tree_merge_counts_rounds() {
        let chunks = vec![vec![4, 8], vec![1, 9], vec![2, 3], vec![5, 7]];
        let (merged, rounds) = tree_merge(chunks);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 7, 8, 9]);
        assert_eq!(rounds, 2, "4 chunks need log2(4) rounds");
    }

    #[test]
    fn tree_merge_odd_chunk_count() {
        let (merged, rounds) = tree_merge(vec![vec![3], vec![1], vec![2]]);
        assert_eq!(merged, vec![1, 2, 3]);
        assert_eq!(rounds, 2);
    }

    #[test]
    fn tree_merge_empty_and_single() {
        assert_eq!(tree_merge(vec![]), (vec![], 0));
        assert_eq!(tree_merge(vec![vec![5, 6]]), (vec![5, 6], 0));
    }

    proptest! {
        #[test]
        fn prop_radix_equals_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            radix_sort_u64(&mut v);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn prop_radix_sorts_keys_with_constant_digits(
            pairs in proptest::collection::vec((0u64..600, 0u64..600), 0..500),
            low_byte in 0u64..256,
        ) {
            // Edge keys `(dst << 32) | src` over VIDs below 600 leave digits
            // 2, 3, 6 and 7 constant; a shared low byte makes digit 0
            // constant while the digits above it vary.
            let edge_keys: Vec<u64> = pairs.iter().map(|&(dst, src)| (dst << 32) | src).collect();
            let low_constant: Vec<u64> = edge_keys
                .iter()
                .map(|&k| (k << 8) | low_byte)
                .collect();
            for mut keys in [edge_keys, low_constant] {
                let mut expected = keys.clone();
                expected.sort_unstable();
                radix_sort_u64(&mut keys);
                prop_assert_eq!(keys, expected);
            }
        }

        #[test]
        fn prop_merge_equals_sorted_concat(
            mut a in proptest::collection::vec(any::<u64>(), 0..100),
            mut b in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let merged = merge_sorted(&a, &b);
            let mut expected = a.clone();
            expected.extend(&b);
            expected.sort_unstable();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn prop_tree_merge_sorts_chunks(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..50), 0..16),
        ) {
            let sorted_chunks: Vec<Vec<u64>> = chunks.iter().map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            }).collect();
            let mut expected: Vec<u64> = chunks.concat();
            expected.sort_unstable();
            let (merged, _) = tree_merge(sorted_chunks);
            prop_assert_eq!(merged, expected);
        }
    }
}
