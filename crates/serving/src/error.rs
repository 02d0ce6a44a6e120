//! Error surface of the serving crate.
//!
//! `ServingSystem` construction and batch processing report failures as
//! [`ServingError`] values instead of panicking: an invalid configuration
//! is rejected at build time, and a panicking batch worker degrades the
//! cycle (its chunk is re-queued and surfaced in metrics) rather than
//! killing the caller.

use std::fmt;

/// Everything that can go wrong in the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// A configuration field failed [`crate::ServingConfig::validate`].
    InvalidConfig(String),
    /// The builder was finalised without a knowledge graph.
    MissingKnowledgeGraph,
    /// The builder was finalised without a COSMO-LM model.
    MissingModel,
    /// One or more batch-worker chunks panicked during a cycle; the
    /// affected queries were re-queued for the next cycle.
    BatchWorker {
        /// Chunks that panicked this cycle.
        failed_chunks: usize,
        /// Queries from those chunks put back on the pending queue.
        requeued: usize,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::InvalidConfig(msg) => write!(f, "invalid serving config: {msg}"),
            ServingError::MissingKnowledgeGraph => {
                write!(
                    f,
                    "serving system builder needs a knowledge graph (call .view(...))"
                )
            }
            ServingError::MissingModel => {
                write!(
                    f,
                    "serving system builder needs a COSMO-LM model (call .lm(...))"
                )
            }
            ServingError::BatchWorker {
                failed_chunks,
                requeued,
            } => write!(
                f,
                "{failed_chunks} batch worker chunk(s) panicked; {requeued} queries re-queued"
            ),
        }
    }
}

impl std::error::Error for ServingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServingError::InvalidConfig("workers must be > 0".into());
        assert!(e.to_string().contains("workers"));
        let e = ServingError::BatchWorker {
            failed_chunks: 2,
            requeued: 7,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('7'));
        assert!(ServingError::MissingKnowledgeGraph
            .to_string()
            .contains("knowledge graph"));
        assert!(ServingError::MissingModel.to_string().contains("model"));
    }
}
