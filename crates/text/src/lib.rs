//! # cosmo-text
//!
//! Text-processing substrate for the COSMO reproduction.
//!
//! The COSMO pipeline (SIGMOD 2024) relies on several text services that are
//! proprietary or external in the paper:
//!
//! * an **nltk sentence segmenter** used to extract the first sentence of a
//!   raw LLM generation (§3.3.1) — [`segment`];
//! * a **GPT-2 perplexity scorer** used to drop incomplete generations
//!   (§3.3.1) — replaced here by an interpolated n-gram language model in
//!   [`ngram`];
//! * an **in-house embedding model** pre-trained on e-commerce text, used to
//!   drop paraphrase generations by cosine similarity (§3.3.1, Eq. 1) —
//!   replaced by TF-IDF-weighted hashed bag-of-n-gram embeddings in
//!   [`embed`];
//! * assorted string utilities: tokenization, canonicalisation of knowledge
//!   tails, edit distance for the exact/near-duplicate filter.
//!
//! Everything here is deterministic and allocation-conscious. The hot paths
//! (tokenisation, hashing, n-gram scoring) have no standalone timer; they
//! are timed inside the pipeline runs of `repro -- pipeline-scaling` and
//! the benchmark's `offline` workload.

#![forbid(unsafe_code)]

pub mod canon;
pub mod distance;
pub mod embed;
pub mod hash;
pub mod ngram;
pub mod segment;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use canon::canonicalize_tail;
pub use distance::{edit_distance, jaccard, normalized_edit_distance};
pub use embed::{EmbedScratch, HashedEmbedder};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use ngram::NgramLm;
pub use segment::first_sentence;
pub use tfidf::TfIdf;
pub use tokenize::{tokenize, tokenize_into, tokenize_spans};
pub use vocab::Vocab;

/// Shannon entropy (nats) of an empirical distribution given by counts.
///
/// Used by the generic-knowledge filter (§3.3.1): a tail such as
/// "used for the same reason" co-occurs with many *different* head products,
/// so the entropy of its head distribution is high.
pub fn entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Cosine similarity between two dense vectors of equal length.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine: dimension mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let counts = [10u64, 10, 10, 10];
        let h = entropy(&counts);
        assert!((h - (4.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy(&[42]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0, 7]), 0.0);
    }

    #[test]
    fn cosine_basic() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }
}
