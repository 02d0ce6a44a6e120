//! Ranking metrics for session-based recommendation (§4.2.1):
//! Hits@K, NDCG@K, MRR@K with a single ground-truth next item.

/// Accumulated ranking metrics.
#[derive(Debug, Clone, Default)]
pub struct RankMetrics {
    /// Evaluated predictions.
    pub n: usize,
    hits: f64,
    ndcg: f64,
    mrr: f64,
}

impl RankMetrics {
    /// Record one prediction: `scores` over the item vocabulary, `target`
    /// the true next item, cutoff `k`. Ties broken by item index
    /// (deterministic).
    pub fn record(&mut self, scores: &[f32], target: usize, k: usize) {
        // rank = number of items scoring strictly higher (+ ties with a
        // lower index)
        let ts = scores[target];
        let mut rank = 1usize;
        for (i, &s) in scores.iter().enumerate() {
            if i == target {
                continue;
            }
            if s > ts || (s == ts && i < target) {
                rank += 1;
            }
        }
        self.n += 1;
        if rank <= k {
            self.hits += 1.0;
            self.ndcg += 1.0 / ((rank as f64) + 1.0).log2();
            self.mrr += 1.0 / rank as f64;
        }
    }

    /// Hits@K (%).
    pub fn hits(&self) -> f64 {
        100.0 * self.hits / self.n.max(1) as f64
    }

    /// NDCG@K (%).
    pub fn ndcg(&self) -> f64 {
        100.0 * self.ndcg / self.n.max(1) as f64
    }

    /// MRR@K (%).
    pub fn mrr(&self) -> f64 {
        100.0 * self.mrr / self.n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_rank_gives_full_credit() {
        let mut m = RankMetrics::default();
        m.record(&[0.1, 0.9, 0.2], 1, 10);
        assert_eq!(m.hits(), 100.0);
        assert_eq!(m.ndcg(), 100.0);
        assert_eq!(m.mrr(), 100.0);
    }

    #[test]
    fn outside_cutoff_gives_zero() {
        let mut m = RankMetrics::default();
        let mut scores = vec![1.0f32; 20];
        scores[19] = 0.0;
        m.record(&scores, 19, 10);
        assert_eq!(m.hits(), 0.0);
        assert_eq!(m.mrr(), 0.0);
    }

    #[test]
    fn rank_two_values() {
        let mut m = RankMetrics::default();
        m.record(&[0.9, 0.5, 0.1], 1, 10);
        assert_eq!(m.hits(), 100.0);
        assert!((m.mrr() - 50.0).abs() < 1e-9);
        assert!((m.ndcg() - 100.0 / 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn ties_break_by_index() {
        let mut m = RankMetrics::default();
        // target 2 ties with item 0: item 0 wins the tie → rank 2
        m.record(&[0.5, 0.1, 0.5], 2, 10);
        assert!((m.mrr() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn averages_over_records() {
        let mut m = RankMetrics::default();
        m.record(&[0.9, 0.1], 0, 10); // rank 1
        m.record(&[0.9, 0.1], 1, 10); // rank 2
        assert_eq!(m.n, 2);
        assert!((m.hits() - 100.0).abs() < 1e-9);
        assert!((m.mrr() - 75.0).abs() < 1e-9);
    }
}
