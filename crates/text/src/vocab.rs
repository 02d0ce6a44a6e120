//! String-interning vocabulary with frequency counts.
//!
//! Used for n-gram language models, the canonical tail vocabulary of the
//! knowledge graph, and the item/query vocabularies of the downstream
//! models. Interning keeps the hot paths integer-keyed.

use crate::hash::FxHashMap;

/// Reserved id for the unknown token.
pub const UNK: u32 = 0;
/// Reserved id for beginning-of-sequence.
pub const BOS: u32 = 1;
/// Reserved id for end-of-sequence.
pub const EOS: u32 = 2;

/// A bidirectional token ↔ id mapping with occurrence counts.
#[derive(Debug, Clone)]
pub struct Vocab {
    token_to_id: FxHashMap<String, u32>,
    id_to_token: Vec<String>,
    counts: Vec<u64>,
}

impl Default for Vocab {
    fn default() -> Self {
        Self::new()
    }
}

impl Vocab {
    /// Create a vocabulary pre-populated with the `<unk>`, `<s>`, `</s>`
    /// special tokens at ids [`UNK`], [`BOS`], [`EOS`].
    pub fn new() -> Self {
        let mut v = Vocab {
            token_to_id: FxHashMap::default(),
            id_to_token: Vec::new(),
            counts: Vec::new(),
        };
        for t in ["<unk>", "<s>", "</s>"] {
            v.add(t);
        }
        v
    }

    /// Intern `token`, incrementing its count; returns its id.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            self.counts[id as usize] += 1;
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.token_to_id.insert(token.to_string(), id);
        self.id_to_token.push(token.to_string());
        self.counts.push(1);
        id
    }

    /// Look up a token; returns [`UNK`] when absent.
    pub fn get(&self, token: &str) -> u32 {
        self.token_to_id.get(token).copied().unwrap_or(UNK)
    }

    /// Look up a token without UNK fallback.
    pub fn try_get(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// The token string for `id`; panics on out-of-range ids.
    pub fn token(&self, id: u32) -> &str {
        &self.id_to_token[id as usize]
    }

    /// Occurrence count of `id`.
    pub fn count(&self, id: u32) -> u64 {
        self.counts[id as usize]
    }

    /// Number of distinct tokens (including the 3 specials).
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only the special tokens are present.
    pub fn is_empty(&self) -> bool {
        self.len() <= 3
    }

    /// Encode a token slice to ids (UNK for unknown tokens).
    pub fn encode(&self, tokens: &[String]) -> Vec<u32> {
        tokens.iter().map(|t| self.get(t)).collect()
    }

    /// Encode with BOS/EOS wrapping, as consumed by the n-gram LM.
    pub fn encode_sentence(&self, tokens: &[String]) -> Vec<u32> {
        let mut ids = Vec::with_capacity(tokens.len() + 2);
        ids.push(BOS);
        ids.extend(tokens.iter().map(|t| self.get(t)));
        ids.push(EOS);
        ids
    }

    /// Build a pruned copy keeping tokens with `count >= min_count`
    /// (specials always kept). Ids are reassigned densely.
    pub fn pruned(&self, min_count: u64) -> Vocab {
        let mut v = Vocab::new();
        for (id, tok) in self.id_to_token.iter().enumerate().skip(3) {
            if self.counts[id] >= min_count {
                let new_id = v.add(tok);
                v.counts[new_id as usize] = self.counts[id];
            }
        }
        v
    }

    /// Iterate `(id, token, count)` over non-special tokens.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str, u64)> + '_ {
        self.id_to_token
            .iter()
            .enumerate()
            .skip(3)
            .map(move |(i, t)| (i as u32, t.as_str(), self.counts[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_preexist() {
        let v = Vocab::new();
        assert_eq!(v.len(), 3);
        assert_eq!(v.get("<unk>"), UNK);
        assert_eq!(v.get("<s>"), BOS);
        assert_eq!(v.get("</s>"), EOS);
    }

    #[test]
    fn add_and_count() {
        let mut v = Vocab::new();
        let a = v.add("camping");
        let b = v.add("tent");
        let a2 = v.add("camping");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.count(a), 2);
        assert_eq!(v.count(b), 1);
        assert_eq!(v.token(a), "camping");
    }

    #[test]
    fn unknown_maps_to_unk() {
        let v = Vocab::new();
        assert_eq!(v.get("missing"), UNK);
        assert_eq!(v.try_get("missing"), None);
    }

    #[test]
    fn encode_sentence_wraps() {
        let mut v = Vocab::new();
        v.add("hello");
        let ids = v.encode_sentence(&["hello".into(), "world".into()]);
        assert_eq!(ids[0], BOS);
        assert_eq!(*ids.last().unwrap(), EOS);
        assert_eq!(ids[2], UNK); // "world" unseen
    }

    #[test]
    fn pruning_keeps_frequent() {
        let mut v = Vocab::new();
        for _ in 0..5 {
            v.add("common");
        }
        v.add("rare");
        let p = v.pruned(2);
        assert!(p.try_get("common").is_some());
        assert!(p.try_get("rare").is_none());
        assert_eq!(p.count(p.get("common")), 5);
    }

    #[test]
    fn clone_preserves_mapping() {
        let mut v = Vocab::new();
        v.add("alpha");
        v.add("beta");
        let w = v.clone();
        assert_eq!(w.get("alpha"), v.get("alpha"));
        assert_eq!(w.get("beta"), v.get("beta"));
        assert_eq!(w.len(), v.len());
    }
}
