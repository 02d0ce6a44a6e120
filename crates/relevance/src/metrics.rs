//! Classification metrics: confusion matrix, Macro F1, Micro F1 (§4.1.1:
//! "Considering the class imbalance distribution, we report Macro F1 and
//! Micro F1 but focus more on the former one").

/// A `k × k` confusion matrix (`rows = truth`, `cols = prediction`).
#[derive(Debug, Clone)]
pub struct Confusion {
    k: usize,
    counts: Vec<u64>,
}

// fields stay private; in-module helpers access them directly

impl Confusion {
    /// Empty `k`-class matrix.
    pub fn new(k: usize) -> Self {
        Confusion {
            k,
            counts: vec![0; k * k],
        }
    }

    /// Record one prediction.
    pub fn record(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.k && pred < self.k);
        self.counts[truth * self.k + pred] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-class F1 (0 when the class never appears in truth or pred).
    pub fn f1_per_class(&self) -> Vec<f64> {
        (0..self.k)
            .map(|c| {
                let tp = self.counts[c * self.k + c] as f64;
                let fp: f64 = (0..self.k)
                    .filter(|&r| r != c)
                    .map(|r| self.counts[r * self.k + c] as f64)
                    .sum();
                let fn_: f64 = (0..self.k)
                    .filter(|&p| p != c)
                    .map(|p| self.counts[c * self.k + p] as f64)
                    .sum();
                if tp == 0.0 {
                    0.0
                } else {
                    2.0 * tp / (2.0 * tp + fp + fn_)
                }
            })
            .collect()
    }

    /// Macro F1: unweighted mean of per-class F1.
    pub fn macro_f1(&self) -> f64 {
        let f1 = self.f1_per_class();
        f1.iter().sum::<f64>() / f1.len() as f64
    }

    /// Micro F1 (= accuracy for single-label classification).
    pub fn micro_f1(&self) -> f64 {
        let correct: u64 = (0..self.k).map(|c| self.counts[c * self.k + c]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let mut c = Confusion::new(3);
        for class in 0..3 {
            for _ in 0..5 {
                c.record(class, class);
            }
        }
        assert!((c.macro_f1() - 1.0).abs() < 1e-12);
        assert!((c.micro_f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn macro_punishes_minority_failure_more_than_micro() {
        let mut c = Confusion::new(2);
        // 98 correct majority, 2 minority all wrong
        for _ in 0..98 {
            c.record(0, 0);
        }
        for _ in 0..2 {
            c.record(1, 0);
        }
        assert!(c.micro_f1() > 0.97);
        assert!(c.macro_f1() < 0.51);
    }

    #[test]
    fn known_f1_values() {
        let mut c = Confusion::new(2);
        // class 0: tp=3, fn=1; class1: tp=2, fp=1
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 1);
        c.record(1, 1);
        c.record(1, 1);
        let f1 = c.f1_per_class();
        assert!((f1[0] - 6.0 / 7.0).abs() < 1e-12);
        assert!((f1[1] - 0.8).abs() < 1e-12);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let c = Confusion::new(4);
        assert_eq!(c.micro_f1(), 0.0);
        assert_eq!(c.macro_f1(), 0.0);
    }
}

/// Per-class precision/recall/F1 report rendered from a confusion matrix,
/// with class names supplied by the caller — the diagnostic view behind
/// the Macro F1 headline (Substitute/Complement confusion is where our
/// models lose most of it).
pub fn render_per_class(conf: &Confusion, names: &[&str]) -> String {
    use std::fmt::Write as _;
    let f1 = conf.f1_per_class();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>9}",
        "Class", "Precision", "Recall", "F1"
    );
    for (c, name) in names.iter().enumerate() {
        let (p, r) = conf.precision_recall(c);
        let _ = writeln!(
            out,
            "{:<14} {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            p * 100.0,
            r * 100.0,
            f1[c] * 100.0
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:>29.1}% macro / {:.1}% micro",
        "Overall",
        conf.macro_f1() * 100.0,
        conf.micro_f1() * 100.0
    );
    out
}

impl Confusion {
    /// `(precision, recall)` of class `c` (0 when undefined).
    pub fn precision_recall(&self, c: usize) -> (f64, f64) {
        assert!(c < self.k);
        let tp = self.counts[c * self.k + c] as f64;
        let pred: f64 = (0..self.k)
            .map(|r| self.counts[r * self.k + c] as f64)
            .sum();
        let truth: f64 = (0..self.k)
            .map(|p| self.counts[c * self.k + p] as f64)
            .sum();
        (
            if pred == 0.0 { 0.0 } else { tp / pred },
            if truth == 0.0 { 0.0 } else { tp / truth },
        )
    }
}

#[cfg(test)]
mod per_class_tests {
    use super::*;

    #[test]
    fn precision_recall_known_values() {
        let mut c = Confusion::new(2);
        // truth 0 → pred 0 (x3), truth 0 → pred 1 (x1), truth 1 → pred 1 (x2)
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 1);
        c.record(1, 1);
        c.record(1, 1);
        let (p0, r0) = c.precision_recall(0);
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!((r0 - 0.75).abs() < 1e-12);
        let (p1, r1) = c.precision_recall(1);
        assert!((p1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((r1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_all_classes() {
        let mut c = Confusion::new(4);
        c.record(0, 0);
        c.record(1, 2);
        c.record(3, 3);
        let r = render_per_class(&c, &["Exact", "Substitute", "Complement", "Irrelevant"]);
        for n in ["Exact", "Substitute", "Complement", "Irrelevant", "Overall"] {
            assert!(r.contains(n), "missing {n}");
        }
    }

    #[test]
    fn empty_class_is_zero_not_nan() {
        let mut c = Confusion::new(3);
        c.record(0, 0);
        let (p, r) = c.precision_recall(2);
        assert_eq!((p, r), (0.0, 0.0));
    }
}
