//! Radix sort.
//!
//! Table IV lists radix sort as the `Ordering` baseline algorithm; §IV-A
//! notes its "digit-wise passes are precisely set-partitioning", the insight
//! the UPE exploits. The UPE merge tree of Algorithm 1 is priced from run
//! lengths in `agnn_hw`'s `UpeKernel::sort_edges`, which sorts its keys
//! with [`radix_sort_u64`].

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
    }
}
