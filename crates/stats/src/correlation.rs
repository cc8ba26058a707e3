//! Correlation coefficients.
//!
//! §4.4 of the paper studies the correlation between SNR and throughput;
//! Pearson captures the linear relationship on the rising part of the curve
//! and Spearman the monotone relationship across the full (saturating) range.

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` when the slices are empty, differ in length, or either has
/// zero variance (the coefficient is undefined there).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation: Pearson correlation of the mid-ranks.
///
/// Ties receive the average of the ranks they span (mid-rank method), so the
/// coefficient is exact in the presence of the heavily quantized values our
/// datasets contain (integer SNRs, discrete bit rates).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let rx = midranks(xs);
    let ry = midranks(ys);
    pearson(&rx, &ry)
}

/// Mid-ranks of a sample (1-based; ties averaged).
///
/// Ranks come from the sorted *distinct* values rather than an index sort:
/// the sample is sorted by value, each run of `==`-equal values becomes one
/// (value, mid-rank) entry, and every element looks its rank up by binary
/// search. Ties are `==` ties, so `-0.0` ties with `0.0`, and a tie group
/// spanning sorted positions `i..=j` gets exactly the `(i + j) / 2 + 1` the
/// index-sort formulation assigns.
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mut distinct: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        distinct.push((sorted[i], (i + j) as f64 / 2.0 + 1.0));
        i = j + 1;
    }
    xs.iter()
        .map(|&x| distinct[distinct.partition_point(|&(v, _)| v < x)].1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index-sort formulation `midranks` replaced: the oracle for the
    /// distinct-value ranking.
    fn midranks_index_sort(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values"));
        let mut ranks = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn pearson_perfect_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // zero variance
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // y = x^3 is nonlinear but perfectly monotone.
        let xs: [f64; 5] = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let p = pearson(&xs, &ys).unwrap();
        assert!(p < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 6.0, 7.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn midranks_average_ties() {
        assert_eq!(
            midranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        assert_eq!(midranks(&[5.0]), vec![1.0]);
        assert!(midranks(&[]).is_empty());
    }

    #[test]
    fn midranks_tie_signed_zeros() {
        assert_eq!(midranks(&[0.0, -0.0, 1.0, -0.0]), vec![2.0, 2.0, 4.0, 2.0]);
    }

    proptest! {
        #[test]
        fn pearson_in_unit_interval(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(r) = pearson(&xs, &ys) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        #[test]
        fn pearson_symmetric(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            match (pearson(&xs, &ys), pearson(&ys, &xs)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }

        /// Heavily tied samples (a handful of quantized levels, signed
        /// zeros among them): the distinct-value ranks and the resulting
        /// coefficient are bit-for-bit the index-sort oracle's.
        #[test]
        fn midranks_match_index_sort_oracle(
            pairs in proptest::collection::vec((0usize..6, 0usize..4), 1..400)
        ) {
            const LEVELS: [f64; 6] = [-0.0, 0.0, -3.5, 1.0, 2.25, 1e6];
            let xs: Vec<f64> = pairs.iter().map(|p| LEVELS[p.0]).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| LEVELS[p.1 + 2] * p.0 as f64).collect();
            prop_assert_eq!(bits(&midranks(&xs)), bits(&midranks_index_sort(&xs)));
            prop_assert_eq!(bits(&midranks(&ys)), bits(&midranks_index_sort(&ys)));
            let oracle = pearson(&midranks_index_sort(&xs), &midranks_index_sort(&ys));
            prop_assert_eq!(spearman(&xs, &ys).map(f64::to_bits), oracle.map(f64::to_bits));
        }

        #[test]
        fn spearman_invariant_to_monotone_transform(
            pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..60)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let xs_t: Vec<f64> = xs.iter().map(|x| x.exp()).collect(); // strictly increasing
            match (spearman(&xs, &ys), spearman(&xs_t, &ys)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }
    }
}
