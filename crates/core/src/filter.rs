//! Coarse-grained knowledge refinement (§3.3.1).
//!
//! Two stages, exactly as the paper describes:
//!
//! **Rule-based filtering** — extract the first sentence (nltk →
//! [`cosmo_text::segment`]), drop incomplete sentences via a perplexity
//! threshold (GPT-2 → [`cosmo_text::NgramLm`]), drop generations that echo
//! the query / product type / product title (exact or small edit distance),
//! and drop *generic* knowledge ("used for the same reason") identified by
//! combining tail frequency with the entropy of its head distribution —
//! generic tails "co-occur with many products or queries rather than
//! specific ones".
//!
//! **Similarity filtering** — embed the knowledge tail and the behaviour
//! context with the e-commerce embedder and drop tails whose cosine
//! similarity is above a threshold (Eq. 1): those are "essentially
//! paraphrases of original user behavior contexts".

use cosmo_exec::WorkerPool;
use cosmo_synth::World;
use cosmo_teacher::{parse_candidate, BehaviorRef, Candidate, Parsed};
use cosmo_text::distance::edit_distance_bounded;
use cosmo_text::{segment, FxHashMap, HashedEmbedder, NgramLm, Vocab};

/// Why a candidate was dropped (or kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterDecision {
    /// Survived all filters.
    Keep,
    /// Unparseable or incomplete sentence.
    Incomplete,
    /// Perplexity above threshold.
    HighPerplexity,
    /// Echoes the query / product type / product title.
    Echo,
    /// Generic platitude (frequency × entropy rule).
    Generic,
    /// Paraphrase of the behaviour context (similarity filter).
    Paraphrase,
}

impl FilterDecision {
    /// Did the candidate survive?
    pub fn kept(self) -> bool {
        self == FilterDecision::Keep
    }
}

/// Filter thresholds.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// N-gram LM order.
    pub lm_order: usize,
    /// Drop sentences whose per-token perplexity exceeds this.
    pub perplexity_threshold: f64,
    /// Max edit distance for the echo rule.
    pub echo_edit_distance: usize,
    /// A tail is generic when it appears at least this often …
    pub generic_min_freq: u32,
    /// … across heads with at least this entropy (nats) …
    pub generic_min_entropy: f64,
    /// … spanning at least this many distinct product domains. Genuine
    /// intents are domain-specific; platitudes appear everywhere. The
    /// domain-spread test keeps the rule scale-free (raw frequency grows
    /// with corpus size, but legitimate popular intents stay in-domain).
    pub generic_min_domains: usize,
    /// Drop tails whose cosine similarity with the context exceeds this.
    pub similarity_threshold: f32,
    /// Embedding dimensionality.
    pub embed_dim: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            lm_order: 3,
            perplexity_threshold: 320.0,
            echo_edit_distance: 3,
            generic_min_freq: 12,
            generic_min_entropy: 2.3,
            generic_min_domains: 12,
            similarity_threshold: 0.82,
            embed_dim: 256,
        }
    }
}

/// A candidate with its parse and filter outcome.
#[derive(Debug, Clone)]
pub struct FilteredCandidate {
    /// The raw candidate.
    pub candidate: Candidate,
    /// Parsed tail + relation hint (`None` when unparseable).
    pub parsed: Option<Parsed>,
    /// Filter decision.
    pub decision: FilterDecision,
}

/// The fitted coarse filter (LM + embedder trained on the world corpus).
pub struct CoarseFilter {
    vocab: Vocab,
    lm: NgramLm,
    embedder: HashedEmbedder,
    cfg: FilterConfig,
}

impl CoarseFilter {
    /// Fit the LM and embedder on the e-commerce corpus.
    pub fn fit(corpus: &[String], cfg: FilterConfig) -> Self {
        let (vocab, lm) = cosmo_text::ngram::train_lm(corpus, cfg.lm_order);
        let embedder = HashedEmbedder::fit(corpus, cfg.embed_dim);
        CoarseFilter {
            vocab,
            lm,
            embedder,
            cfg,
        }
    }

    /// Access the fitted embedder (reused by serving/feature extraction).
    pub fn embedder(&self) -> &HashedEmbedder {
        &self.embedder
    }

    /// Perplexity of a raw sentence under the corpus LM.
    pub fn perplexity(&self, text: &str) -> f64 {
        self.lm.perplexity_str(text, &self.vocab)
    }

    /// Run both filter stages over a candidate batch. Generic detection is
    /// corpus-level (frequency + head entropy), hence the batch interface.
    pub fn filter(&self, world: &World, candidates: Vec<Candidate>) -> Vec<FilteredCandidate> {
        self.filter_with(world, candidates, &WorkerPool::new(1))
    }

    /// [`CoarseFilter::filter`], fanning the per-candidate decisions out
    /// over a worker pool. Pass 1 (corpus-level generic-tail statistics)
    /// stays sequential; pass 2 decisions are independent per candidate, so
    /// the index-ordered map yields output identical to the sequential run.
    pub fn filter_with(
        &self,
        world: &World,
        candidates: Vec<Candidate>,
        pool: &WorkerPool,
    ) -> Vec<FilteredCandidate> {
        // Pass 1: parse everything and build tail → head-count stats.
        let parses: Vec<Option<Parsed>> =
            candidates.iter().map(|c| parse_candidate(&c.raw)).collect();
        let mut tail_heads: FxHashMap<&str, FxHashMap<u64, u64>> = FxHashMap::default();
        let mut tail_domains: FxHashMap<&str, std::collections::HashSet<u8>> = FxHashMap::default();
        for (c, p) in candidates.iter().zip(parses.iter()) {
            if let Some(p) = p {
                if !p.tail.is_empty() {
                    let head_key = match c.behavior {
                        BehaviorRef::SearchBuy(q, _) => q.0 as u64,
                        BehaviorRef::CoBuy(p1, _) => (1u64 << 32) | p1.0 as u64,
                    };
                    *tail_heads
                        .entry(p.tail.as_str())
                        .or_default()
                        .entry(head_key)
                        .or_insert(0) += 1;
                    tail_domains
                        .entry(p.tail.as_str())
                        .or_default()
                        .insert(c.domain.0);
                }
            }
        }
        let generic_tails: std::collections::HashSet<String> = tail_heads
            .iter()
            .filter(|(tail, heads)| {
                let freq: u64 = heads.values().sum();
                if freq < self.cfg.generic_min_freq as u64 {
                    return false;
                }
                let spread = tail_domains.get(*tail).map_or(0, |d| d.len());
                if spread < self.cfg.generic_min_domains {
                    return false;
                }
                let counts: Vec<u64> = heads.values().copied().collect();
                cosmo_text::entropy(&counts) >= self.cfg.generic_min_entropy
            })
            .map(|(t, _)| t.to_string())
            .collect();

        // Pass 2: per-candidate decisions, fanned out over the pool.
        let pairs: Vec<(Candidate, Option<Parsed>)> = candidates.into_iter().zip(parses).collect();
        let decisions: Vec<FilterDecision> =
            pool.map(&pairs, pool.chunk_for(pairs.len()), |_, (c, p)| {
                self.decide(world, c, p.as_ref(), &generic_tails)
            });
        pairs
            .into_iter()
            .zip(decisions)
            .map(|((candidate, parsed), decision)| FilteredCandidate {
                candidate,
                parsed,
                decision,
            })
            .collect()
    }

    fn decide(
        &self,
        world: &World,
        c: &Candidate,
        parsed: Option<&Parsed>,
        generic_tails: &std::collections::HashSet<String>,
    ) -> FilterDecision {
        // rule 1: completeness
        let Some(parsed) = parsed else {
            return FilterDecision::Incomplete;
        };
        let Some(sentence) = segment::first_sentence(&c.raw) else {
            return FilterDecision::Incomplete;
        };
        if parsed.tail.is_empty() || !segment::looks_complete(sentence.trim_end_matches('.')) {
            return FilterDecision::Incomplete;
        }
        // rule 2: perplexity
        if self.perplexity(&sentence) > self.cfg.perplexity_threshold {
            return FilterDecision::HighPerplexity;
        }
        // rule 3: echo of query / product type / title
        let contexts = self.contexts(world, c);
        for ctx in &contexts {
            let close = parsed.tail == *ctx
                || edit_distance_bounded(&parsed.tail, ctx, self.cfg.echo_edit_distance).is_some();
            if close {
                return FilterDecision::Echo;
            }
        }
        // rule 4: generic (frequency × entropy)
        if generic_tails.contains(&parsed.tail) {
            return FilterDecision::Generic;
        }
        // similarity filter (Eq. 1) — batched: the tail is embedded once and
        // the context embeddings reuse one scratch buffer (no per-context
        // allocation), producing the same cosines bitwise.
        let sims = self.embedder.similarity_many(&parsed.tail, &contexts);
        if sims.iter().any(|&sim| sim > self.cfg.similarity_threshold) {
            return FilterDecision::Paraphrase;
        }
        FilterDecision::Keep
    }

    /// Behaviour context strings: query text, product titles, type names.
    fn contexts(&self, world: &World, c: &Candidate) -> Vec<String> {
        match c.behavior {
            BehaviorRef::SearchBuy(q, p) => vec![
                world.query(q).text.clone(),
                world.product(p).title.clone(),
                world.ptype_of(p).name.clone(),
            ],
            BehaviorRef::CoBuy(p1, p2) => vec![
                world.product(p1).title.clone(),
                world.product(p2).title.clone(),
                world.ptype_of(p1).name.clone(),
                world.ptype_of(p2).name.clone(),
            ],
        }
    }
}

/// Filter-quality report against the hidden provenance labels
/// (**evaluation only** — the filter itself never sees provenance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterReport {
    /// Candidates in.
    pub total: usize,
    /// Candidates kept.
    pub kept: usize,
    /// Of the dropped, how many were genuinely junk
    /// (generic/paraphrase/incomplete provenance).
    pub true_drops: usize,
    /// Of the dropped, how many were typical knowledge (collateral damage).
    pub typical_dropped: usize,
    /// Of the kept, how many are junk that leaked through.
    pub junk_kept: usize,
    /// Drop counts per decision: (incomplete, perplexity, echo, generic,
    /// paraphrase).
    pub drops_by_rule: [usize; 5],
}

impl FilterReport {
    /// Evaluate filter decisions against provenance.
    pub fn evaluate(filtered: &[FilteredCandidate]) -> Self {
        use cosmo_teacher::Provenance as P;
        let mut r = FilterReport {
            total: filtered.len(),
            ..Default::default()
        };
        for f in filtered {
            match f.decision {
                FilterDecision::Incomplete => r.drops_by_rule[0] += 1,
                FilterDecision::HighPerplexity => r.drops_by_rule[1] += 1,
                FilterDecision::Echo => r.drops_by_rule[2] += 1,
                FilterDecision::Generic => r.drops_by_rule[3] += 1,
                FilterDecision::Paraphrase => r.drops_by_rule[4] += 1,
                FilterDecision::Keep => {}
            }
            let junk = matches!(
                f.candidate.provenance,
                P::Generic | P::Paraphrase | P::Incomplete
            );
            if f.decision.kept() {
                r.kept += 1;
                if junk {
                    r.junk_kept += 1;
                }
            } else {
                if junk {
                    r.true_drops += 1;
                }
                if f.candidate.provenance == P::Typical {
                    r.typical_dropped += 1;
                }
            }
        }
        r
    }

    /// Precision of drops: dropped-junk / dropped.
    pub fn drop_precision(&self) -> f64 {
        let dropped = self.total - self.kept;
        if dropped == 0 {
            1.0
        } else {
            self.true_drops as f64 / dropped as f64
        }
    }

    /// Recall of junk removal: dropped-junk / total-junk.
    pub fn junk_recall(&self) -> f64 {
        let junk = self.true_drops + self.junk_kept;
        if junk == 0 {
            1.0
        } else {
            self.true_drops as f64 / junk as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::{BehaviorConfig, BehaviorLog, WorldConfig};
    use cosmo_teacher::{Provenance, Teacher, TeacherConfig};

    fn filtered_batch() -> Vec<FilteredCandidate> {
        let w = World::generate(WorldConfig::tiny(41));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(42));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut cands = Vec::new();
        for sb in log.search_buys.iter().take(900) {
            cands.push(teacher.generate_search_buy(sb.query, sb.product));
        }
        for cb in log.cobuys.iter().take(900) {
            cands.push(teacher.generate_cobuy(cb.p1, cb.p2));
        }
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&w), FilterConfig::default());
        filter.filter(&w, cands)
    }

    #[test]
    fn incomplete_candidates_are_dropped() {
        let batch = filtered_batch();
        for f in &batch {
            if f.candidate.provenance == Provenance::Incomplete {
                assert!(
                    !f.decision.kept(),
                    "incomplete candidate kept: {:?}",
                    f.candidate.raw
                );
            }
        }
    }

    #[test]
    fn generic_candidates_are_mostly_dropped() {
        let batch = filtered_batch();
        let (mut dropped, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Generic {
                total += 1;
                if !f.decision.kept() {
                    dropped += 1;
                }
            }
        }
        assert!(total > 30, "need generic candidates to test against");
        let frac = dropped as f64 / total as f64;
        assert!(frac > 0.7, "generic drop rate {frac} too low");
    }

    #[test]
    fn paraphrases_are_mostly_dropped() {
        let batch = filtered_batch();
        let (mut dropped, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Paraphrase {
                total += 1;
                if !f.decision.kept() {
                    dropped += 1;
                }
            }
        }
        assert!(total > 20);
        let frac = dropped as f64 / total as f64;
        assert!(frac > 0.6, "paraphrase drop rate {frac} too low");
    }

    #[test]
    fn typical_knowledge_mostly_survives() {
        let batch = filtered_batch();
        let (mut kept, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Typical {
                total += 1;
                if f.decision.kept() {
                    kept += 1;
                }
            }
        }
        assert!(total > 30);
        let frac = kept as f64 / total as f64;
        assert!(frac > 0.75, "typical survival rate {frac} too low");
    }

    #[test]
    fn report_metrics_consistent() {
        let batch = filtered_batch();
        let r = FilterReport::evaluate(&batch);
        assert_eq!(r.total, batch.len());
        assert!(r.kept <= r.total);
        assert!(
            r.drop_precision() > 0.5,
            "drop precision {}",
            r.drop_precision()
        );
        assert!(r.junk_recall() > 0.6, "junk recall {}", r.junk_recall());
    }
}
