//! Cumulative-√F (CSF) stratification — paper Algorithm 1.
//!
//! The CSF rule of Dalenius & Hodges (1959) forms strata with approximately
//! minimal intra-stratum score variance: it histograms the scores into `M`
//! fine bins, accumulates the square roots of the bin counts, and cuts the
//! cumulative-√F axis into `K̃` equal-width pieces.  Under the heavy-tailed
//! score distributions typical of ER this produces a few very large low-score
//! strata and many small high-score strata (paper Figure 1).

use super::{Strata, Stratifier};
use crate::error::{Error, Result};
use crate::pool::ScoredPool;

/// CSF stratifier (paper Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CsfStratifier {
    /// Desired number of strata `K̃` (the realised number may be smaller).
    pub desired_strata: usize,
    /// Number of histogram bins `M` used to estimate the score distribution.
    pub histogram_bins: usize,
}

impl CsfStratifier {
    /// Create a CSF stratifier with the given target number of strata and the
    /// paper's default of `M = 2000` histogram bins (large relative to K so
    /// the cumulative-√F curve is well resolved).
    pub fn new(desired_strata: usize) -> Self {
        CsfStratifier {
            desired_strata,
            histogram_bins: 2000,
        }
    }

    /// Override the number of histogram bins `M`.
    pub fn with_histogram_bins(mut self, bins: usize) -> Self {
        self.histogram_bins = bins;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.desired_strata == 0 {
            return Err(Error::InvalidParameter {
                name: "desired_strata",
                message: "must be at least 1".to_string(),
            });
        }
        if self.histogram_bins == 0 {
            return Err(Error::InvalidParameter {
                name: "histogram_bins",
                message: "must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

impl Stratifier for CsfStratifier {
    fn stratify(&self, pool: &ScoredPool) -> Result<Strata> {
        self.validate()?;
        let scores = pool.scores();
        let (min, max) = pool.score_range();

        // Degenerate case: all scores identical → a single stratum.
        if (max - min).abs() < f64::EPSILON {
            let all: Vec<usize> = (0..pool.len()).collect();
            return Strata::from_allocations(pool, vec![all]);
        }

        let m = self.histogram_bins;
        let width = (max - min) / m as f64;

        // Lines 1–2: histogram of the scores over M equal-width bins.
        let mut counts = vec![0usize; m];
        for &s in scores {
            let mut bin = ((s - min) / width) as usize;
            if bin >= m {
                bin = m - 1;
            }
            counts[bin] += 1;
        }

        // Line 3: cumulative √F over the bins.
        let mut csf = Vec::with_capacity(m);
        let mut acc = 0.0;
        for &c in &counts {
            acc += (c as f64).sqrt();
            csf.push(acc);
        }
        let total_csf = *csf.last().expect("at least one histogram bin");

        // Lines 4–7: equal-width cut points on the cumulative-√F scale.
        let k_tilde = self.desired_strata;
        let w = total_csf / k_tilde as f64;

        // Lines 8–18: map the cut points back to score-scale boundaries.
        // `boundaries` holds the upper score edge of each stratum except the
        // last (which is implicitly `max`).  Each histogram bin adds at most
        // one, so an absurd K (a crafted request or checkpoint) cannot make
        // this reserve more than M slots.
        let mut boundaries: Vec<f64> = Vec::with_capacity(k_tilde.min(m));
        // Index of the next csf bin boundary (k · w); u128 so that the cut
        // just past the last bin cannot overflow even when K = usize::MAX.
        let mut next_cut = 1u128;
        for (j, &csf_j) in csf.iter().enumerate() {
            if boundaries.len() + 1 >= k_tilde {
                break;
            }
            if csf_j >= next_cut as f64 * w {
                // Upper score edge of histogram bin j.
                let edge = min + (j + 1) as f64 * width;
                boundaries.push(edge);
                // Skip any cut points that fell inside this same bin.  The
                // cut `n·w` grows monotonically with `n`, so jump to just
                // below the first cut past `csf_j` and finish with the
                // exact comparison: the same `next_cut` as stepping one at
                // a time, without stepping ~K times when K ≫ M.
                let mut jump = ((csf_j / w) as u128).max(next_cut);
                while jump > next_cut && csf_j < (jump - 1) as f64 * w {
                    jump -= 1;
                }
                next_cut = jump;
                while csf_j >= next_cut as f64 * w {
                    next_cut += 1;
                }
            }
        }

        // Line 19: allocate items to strata using the score boundaries.
        let k = boundaries.len() + 1;
        let mut allocations: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (index, &s) in scores.iter().enumerate() {
            // First boundary strictly greater than the score determines the stratum.
            let stratum = boundaries.partition_point(|&b| s >= b);
            allocations[stratum].push(index);
        }

        Strata::from_allocations(pool, allocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn imbalanced_pool(n: usize, seed: u64) -> ScoredPool {
        // Heavy-tailed score distribution typical of ER: score density piles
        // up toward 0 (squaring a uniform draw skews it low), plus a small
        // cluster near 1.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut predictions = Vec::with_capacity(n);
        for _ in 0..n {
            let is_matchy = rng.gen_bool(0.02);
            let s: f64 = if is_matchy {
                0.7 + 0.3 * rng.gen::<f64>()
            } else {
                0.3 * rng.gen::<f64>().powi(2)
            };
            scores.push(s);
            predictions.push(s > 0.5);
        }
        ScoredPool::new(scores, predictions).unwrap()
    }

    #[test]
    fn produces_at_most_requested_strata() {
        let pool = imbalanced_pool(5000, 1);
        for k in [2, 10, 30, 60] {
            let strata = CsfStratifier::new(k).stratify(&pool).unwrap();
            assert!(strata.len() <= k, "requested {k}, got {}", strata.len());
            assert!(strata.len() >= 2);
        }
    }

    #[test]
    fn every_item_is_allocated_exactly_once() {
        let pool = imbalanced_pool(2000, 2);
        let strata = CsfStratifier::new(30).stratify(&pool).unwrap();
        let mut seen = vec![false; pool.len()];
        for k in 0..strata.len() {
            for &i in strata.members(k) {
                assert!(!seen[i], "item {i} allocated twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some item never allocated");
    }

    #[test]
    fn strata_are_ordered_by_score() {
        let pool = imbalanced_pool(3000, 3);
        let strata = CsfStratifier::new(20).stratify(&pool).unwrap();
        let means = strata.mean_scores();
        for w in means.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "mean scores must be non-decreasing across strata: {means:?}"
            );
        }
    }

    #[test]
    fn heavy_tail_gives_large_low_score_strata() {
        // Reproduces the qualitative shape of paper Figure 1: the lowest-score
        // stratum should be (much) larger than the highest-score stratum.
        let pool = imbalanced_pool(20_000, 4);
        let strata = CsfStratifier::new(30).stratify(&pool).unwrap();
        let first = strata.size(0);
        let last = strata.size(strata.len() - 1);
        assert!(
            first > 5 * last,
            "low-score stratum ({first}) should dwarf high-score stratum ({last})"
        );
    }

    #[test]
    fn constant_scores_collapse_to_one_stratum() {
        let pool = ScoredPool::new(vec![0.5; 10], vec![false; 10]).unwrap();
        let strata = CsfStratifier::new(5).stratify(&pool).unwrap();
        assert_eq!(strata.len(), 1);
        assert_eq!(strata.size(0), 10);
    }

    #[test]
    fn single_requested_stratum_is_fine() {
        let pool = imbalanced_pool(100, 5);
        let strata = CsfStratifier::new(1).stratify(&pool).unwrap();
        assert_eq!(strata.len(), 1);
        assert_eq!(strata.size(0), 100);
    }

    #[test]
    fn zero_strata_rejected() {
        let pool = imbalanced_pool(100, 6);
        assert!(CsfStratifier::new(0).stratify(&pool).is_err());
        assert!(CsfStratifier::new(5)
            .with_histogram_bins(0)
            .stratify(&pool)
            .is_err());
    }

    #[test]
    fn works_with_uncalibrated_scores() {
        // Raw SVM decision values (can be negative / unbounded).
        let mut rng = StdRng::seed_from_u64(9);
        let scores: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>() * 8.0 - 6.0).collect();
        let predictions: Vec<bool> = scores.iter().map(|&s| s > 0.0).collect();
        let pool = ScoredPool::new(scores, predictions).unwrap();
        let strata = CsfStratifier::new(15).stratify(&pool).unwrap();
        assert!(strata.len() > 1);
        let allocated: usize = (0..strata.len()).map(|k| strata.size(k)).sum();
        assert_eq!(allocated, 1000);
    }

    #[test]
    fn absurd_strata_counts_stay_bounded_by_the_histogram() {
        // A crafted request or checkpoint can name any K; the work and the
        // strata must stay bounded by the M histogram bins, not by K.
        let pool = imbalanced_pool(3_000, 10);
        let bins = CsfStratifier::new(1).histogram_bins;
        let mut previous = None;
        for k in [1usize << 40, usize::MAX / 2, usize::MAX] {
            let strata = CsfStratifier::new(k).stratify(&pool).unwrap();
            assert!(strata.len() <= bins + 1, "K = {k}: {} strata", strata.len());
            let allocated: usize = (0..strata.len()).map(|s| strata.size(s)).sum();
            assert_eq!(allocated, pool.len());
            // Past M, K only shrinks the cut width: every occupied bin
            // already closes a stratum, so the partition stops changing.
            if let Some(previous) = previous.replace(strata.clone()) {
                assert_eq!(strata, previous, "K = {k}");
            }
        }
    }

    #[test]
    fn more_strata_than_items_degrades_gracefully() {
        let pool =
            ScoredPool::new(vec![0.1, 0.2, 0.9, 0.95], vec![false, false, true, true]).unwrap();
        let strata = CsfStratifier::new(50).stratify(&pool).unwrap();
        assert!(strata.len() <= 4);
        let allocated: usize = (0..strata.len()).map(|k| strata.size(k)).sum();
        assert_eq!(allocated, 4);
    }
}
