//! The estimators: which rounds count as undisturbed, percentiles of their
//! pooled latencies, and medians.

/// The `p`-th percentile (0 < p < 100) of `sorted`, by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or
/// below it. `sorted` must be ascending and non-empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts the pooled latencies once and reads several percentiles off them.
pub fn percentiles(samples: &mut [u32], ps: &[f64]) -> Vec<f64> {
    samples.sort_unstable();
    ps.iter()
        .map(|&p| f64::from(percentile_sorted(samples, p)))
        .collect()
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The rounds read as undisturbed: the fastest quarter by wall time, at
/// least one and at most [`MAX_UNDISTURBED`], as indices into `walls`.
///
/// Rounds of one run have one shape, so a round that took longer was slowed
/// from outside. This host does that to any code that keeps a core busy: it
/// runs 1.2 to 1.7 times slower for a fraction of a second to minutes at a
/// stretch, for a tenth to nine tenths of the time depending on the hour,
/// with no steal time to show for it. A median over all rounds follows that
/// share; the fastest rounds do not, as long as a run sees some quiet time.
pub fn undisturbed(walls: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order.truncate((walls.len() / 4).clamp(1, MAX_UNDISTURBED));
    order
}

/// Sixteen rounds are what a quarter of a cold run comes to, and enough for
/// a median; a run of many short rounds (`warm_batch` has 230) keeps no
/// more, so that it needs less quiet time to fill them: with a quarter of
/// its rounds it spread 5 % over ten runs of which three met a slow host,
/// with sixteen 2 %.
const MAX_UNDISTURBED: usize = 16;

/// The samples of the undisturbed rounds, pooled: `samples` holds the same
/// number of samples for every round of `walls`, round after round.
pub fn pool_undisturbed<T: Copy>(walls: &[f64], samples: &[T]) -> Vec<T> {
    assert!(!walls.is_empty(), "no rounds");
    let per_round = samples.len() / walls.len();
    assert_eq!(samples.len(), per_round * walls.len(), "ragged rounds");
    undisturbed(walls)
        .into_iter()
        .flat_map(|r| samples[r * per_round..(r + 1) * per_round].iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 90.0), 90);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        // Ten samples: p90 is the ninth, p50 the fifth.
        let s = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 100];
        assert_eq!(percentile_sorted(&s, 90.0), 9);
        assert_eq!(percentile_sorted(&s, 50.0), 5);
        assert_eq!(percentile_sorted(&[7u32], 90.0), 7);
    }

    #[test]
    fn percentiles_sort_their_input() {
        let mut s = vec![30u32, 10, 20, 40];
        assert_eq!(percentiles(&mut s, &[50.0, 100.0]), vec![20.0, 40.0]);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn the_undisturbed_rounds_are_the_fastest_quarter() {
        // Twelve rounds, eight of them taken while the machine was slow: the
        // median over all twelve would sit among the slow ones.
        let walls = [
            1.7, 1.0, 1.7, 1.6, 1.02, 1.7, 0.98, 1.3, 1.7, 1.7, 1.05, 1.6,
        ];
        assert_eq!(undisturbed(&walls), vec![6, 1, 4]);
        assert_eq!(undisturbed(&[2.0, 1.0]), vec![1], "never none");
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(
            undisturbed(&many),
            (0..16).collect::<Vec<_>>(),
            "at most 16"
        );
        // Two samples a round: those of rounds 6, 1 and 4.
        let samples: Vec<u32> = (0..24).collect();
        assert_eq!(pool_undisturbed(&walls, &samples), vec![12, 13, 2, 3, 8, 9]);
    }
}
