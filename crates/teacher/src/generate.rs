//! The simulated teacher LLM.
//!
//! The paper harvests knowledge candidates from OPT-30B/175B hosted on
//! 16×A100 (§3.2.2). We cannot run those models offline, so [`Teacher`]
//! simulates the *distribution of their outputs*: given the same QA prompt,
//! it emits a continuation drawn from the world's ground-truth intent
//! profiles mixed with a calibrated noise model — the exact failure modes
//! the paper describes:
//!
//! * **generic** tails ("they like them") — "neither faithful nor helpful" (§1);
//! * **paraphrases** of the behaviour context — what the similarity filter
//!   removes (§3.3.1);
//! * **one-sided co-buy intents** — knowledge true of only one of the two
//!   products, "making generations implausible" (§3.4);
//! * **implausible/hallucinated** tails;
//! * **incomplete** truncations — what the perplexity filter removes.
//!
//! Each candidate carries a hidden [`Provenance`] used *only* by
//! evaluation code to score the pipeline; the pipeline itself never reads it.

use crate::cost::{CostMeter, TeacherModel};
use crate::prompts::{cobuy_prompt, search_buy_prompt};
use cosmo_kg::{BehaviorKind, Relation};
use cosmo_synth::{DomainId, IntentId, ProductId, QueryId, World};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The behaviour a candidate explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorRef {
    /// `(query, product)`.
    SearchBuy(QueryId, ProductId),
    /// `(product, product)`.
    CoBuy(ProductId, ProductId),
}

impl BehaviorRef {
    /// The behaviour kind tag.
    pub fn kind(self) -> BehaviorKind {
        match self {
            BehaviorRef::SearchBuy(..) => BehaviorKind::SearchBuy,
            BehaviorRef::CoBuy(..) => BehaviorKind::CoBuy,
        }
    }
}

/// Hidden generation provenance — **evaluation only**. The refinement
/// pipeline must treat candidates as opaque text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// A typical ground-truth intent (search-buy) or an intent shared by
    /// both products (co-buy).
    Typical,
    /// In-profile but low-weight intent.
    PlausibleAtypical,
    /// Intent typical for only one of two co-bought products.
    OneSided,
    /// Generic platitude.
    Generic,
    /// Paraphrase of the query/product surface form.
    Paraphrase,
    /// Hallucinated / out-of-profile tail.
    Implausible,
    /// Truncated, incomplete sentence.
    Incomplete,
}

/// A raw knowledge candidate produced by the teacher.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The behaviour pair it explains.
    pub behavior: BehaviorRef,
    /// The relation the prompt asked about.
    pub relation: Relation,
    /// Raw continuation text (list marker + sentence), pre-parsing.
    pub raw: String,
    /// Product category of the behaviour.
    pub domain: DomainId,
    /// Hidden ground-truth provenance (evaluation only).
    pub provenance: Provenance,
}

/// Quality mixture of the teacher's generations (probabilities; need not
/// sum to 1 — they are normalised at sampling time).
#[derive(Debug, Clone)]
pub struct QualityMixture {
    /// Typical knowledge.
    pub typical: f64,
    /// Plausible but atypical knowledge.
    pub plausible_atypical: f64,
    /// One-sided co-buy knowledge (ignored for search-buy).
    pub one_sided: f64,
    /// Generic platitudes.
    pub generic: f64,
    /// Context paraphrases.
    pub paraphrase: f64,
    /// Hallucinations.
    pub implausible: f64,
    /// Truncations.
    pub incomplete: f64,
}

impl QualityMixture {
    /// Calibrated search-buy mixture: after coarse filtering (which removes
    /// most generic/paraphrase/incomplete mass) the annotated pool lands
    /// near Table 4's ≈35% typicality.
    pub fn search_buy_default() -> Self {
        QualityMixture {
            typical: 0.25,
            plausible_atypical: 0.27,
            one_sided: 0.0,
            generic: 0.12,
            paraphrase: 0.10,
            implausible: 0.18,
            incomplete: 0.08,
        }
    }

    /// Calibrated co-buy mixture: dominated by one-sided generations,
    /// which the oracle judges implausible for the *pair* (§3.4), driving
    /// the "notably low" co-buy typicality of Table 4.
    pub fn cobuy_default() -> Self {
        QualityMixture {
            typical: 0.06,
            plausible_atypical: 0.10,
            one_sided: 0.44,
            generic: 0.12,
            paraphrase: 0.08,
            implausible: 0.12,
            incomplete: 0.08,
        }
    }

    fn sample(&self, rng: &mut impl Rng, cobuy: bool) -> Provenance {
        let weights = [
            (Provenance::Typical, self.typical),
            (Provenance::PlausibleAtypical, self.plausible_atypical),
            (
                Provenance::OneSided,
                if cobuy { self.one_sided } else { 0.0 },
            ),
            (Provenance::Generic, self.generic),
            (Provenance::Paraphrase, self.paraphrase),
            (Provenance::Implausible, self.implausible),
            (Provenance::Incomplete, self.incomplete),
        ];
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for (p, w) in weights {
            if x < w {
                return p;
            }
            x -= w;
        }
        Provenance::Implausible
    }
}

/// Teacher configuration.
#[derive(Debug, Clone)]
pub struct TeacherConfig {
    /// RNG seed.
    pub seed: u64,
    /// Which simulated model is hosted.
    pub model: TeacherModel,
    /// Search-buy quality mixture.
    pub search_buy_mixture: QualityMixture,
    /// Co-buy quality mixture.
    pub cobuy_mixture: QualityMixture,
}

impl Default for TeacherConfig {
    fn default() -> Self {
        TeacherConfig {
            seed: 0x7EAC_4E12,
            model: TeacherModel::Opt30b,
            search_buy_mixture: QualityMixture::search_buy_default(),
            cobuy_mixture: QualityMixture::cobuy_default(),
        }
    }
}

impl TeacherConfig {
    /// Deterministic per-candidate seed derived from `(seed, behaviour
    /// index, generation index)`. Tasks seeded this way are independent of
    /// generation *order*, which is what lets the pipeline fan candidate
    /// generation out across threads and still produce byte-identical
    /// output (see [`Teacher::for_task`]).
    pub fn task_seed(&self, behavior_idx: u64, gen_idx: u64) -> u64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = mix64(h ^ mix64(behavior_idx.wrapping_add(1)));
        mix64(h ^ mix64(gen_idx.wrapping_add(0x5851_F42D_4C95_7F2D)))
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated teacher LLM.
pub struct Teacher<'w> {
    world: &'w World,
    config: TeacherConfig,
    rng: StdRng,
    /// Accumulates simulated inference cost (FLOPs, latency).
    pub meter: CostMeter,
}

impl<'w> Teacher<'w> {
    /// Host a simulated model over a world.
    pub fn new(world: &'w World, config: TeacherConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let meter = CostMeter::new(config.model);
        Teacher {
            world,
            config,
            rng,
            meter,
        }
    }

    /// A teacher seeded for one generation task: candidate `gen_idx` of
    /// behaviour `behavior_idx`. Unlike [`Teacher::new`] (one shared RNG
    /// stream, order-dependent), every task draws from its own stream
    /// derived via [`TeacherConfig::task_seed`], so a batch of tasks can
    /// be generated in any order — or concurrently — with identical
    /// results.
    pub fn for_task(
        world: &'w World,
        config: TeacherConfig,
        behavior_idx: u64,
        gen_idx: u64,
    ) -> Self {
        let rng = StdRng::seed_from_u64(config.task_seed(behavior_idx, gen_idx));
        let meter = CostMeter::new(config.model);
        Teacher {
            world,
            config,
            rng,
            meter,
        }
    }

    /// Relations to prompt for a behaviour (the paper prompts the four
    /// seed-derived relation groups; we rotate through all 15 weighted
    /// towards the function relations).
    fn pick_relation(&mut self, domain: DomainId) -> Relation {
        // function relations are prompted most often
        let r: f64 = self.rng.gen();
        if r < 0.45 {
            *[
                Relation::UsedForFunc,
                Relation::CapableOf,
                Relation::UsedTo,
                Relation::UsedForEve,
            ]
            .choose(&mut self.rng)
            .unwrap()
        } else {
            let _ = domain;
            *Relation::ALL.choose(&mut self.rng).unwrap()
        }
    }

    /// Generate one candidate for a search-buy behaviour.
    pub fn generate_search_buy(&mut self, q: QueryId, p: ProductId) -> Candidate {
        let domain = self.world.ptype_of(p).domain;
        let relation = self.pick_relation(domain);
        let prompt = search_buy_prompt(
            &self.world.query(q).text,
            &self.world.product(p).title,
            relation,
        );
        let mixture = self.config.search_buy_mixture.clone();
        let provenance = mixture.sample(&mut self.rng, false);
        let (raw, relation) = self.render(provenance, relation, BehaviorRef::SearchBuy(q, p));
        self.meter.record_generation(&prompt.text, &raw);
        Candidate {
            behavior: BehaviorRef::SearchBuy(q, p),
            relation,
            raw,
            domain,
            provenance,
        }
    }

    /// Generate one candidate for a co-buy behaviour.
    pub fn generate_cobuy(&mut self, p1: ProductId, p2: ProductId) -> Candidate {
        let domain = self.world.ptype_of(p1).domain;
        let relation = self.pick_relation(domain);
        let prompt = cobuy_prompt(
            &self.world.product(p1).title,
            &self.world.product(p2).title,
            relation,
        );
        let mixture = self.config.cobuy_mixture.clone();
        let provenance = mixture.sample(&mut self.rng, true);
        let (raw, relation) = self.render(provenance, relation, BehaviorRef::CoBuy(p1, p2));
        self.meter.record_generation(&prompt.text, &raw);
        Candidate {
            behavior: BehaviorRef::CoBuy(p1, p2),
            relation,
            raw,
            domain,
            provenance,
        }
    }

    /// Render the candidate's surface text for a provenance class. May
    /// override the relation (the teacher answers with whatever relation
    /// its chosen intent actually has — LLMs don't follow instructions
    /// perfectly, and the pipeline's relation tag comes from the *answer*
    /// pattern, see `relations.rs`).
    fn render(
        &mut self,
        provenance: Provenance,
        prompt_relation: Relation,
        behavior: BehaviorRef,
    ) -> (String, Relation) {
        let (primary, secondary) = match behavior {
            BehaviorRef::SearchBuy(_, p) => (p, None),
            BehaviorRef::CoBuy(p1, p2) => (p1, Some(p2)),
        };
        let pt = self.world.ptype_of(primary);
        match provenance {
            Provenance::Typical => {
                let intent = match behavior {
                    BehaviorRef::SearchBuy(..) => self.pick_profile_intent(primary, 0.5, None),
                    BehaviorRef::CoBuy(_, p2) => {
                        // shared intent: in both profiles
                        self.pick_shared_intent(primary, p2)
                    }
                };
                match intent {
                    Some(iid) => (self.verbalize(iid), self.world.intent(iid).relation),
                    // no suitable ground-truth intent: the model rambles
                    None => (self.generic_text(), prompt_relation),
                }
            }
            Provenance::PlausibleAtypical => {
                match self.pick_profile_intent(primary, 0.0, Some(0.5)) {
                    Some(iid) => (self.verbalize(iid), self.world.intent(iid).relation),
                    None => (self.generic_text(), prompt_relation),
                }
            }
            Provenance::OneSided => {
                // typical for one side only
                let side = if self.rng.gen_bool(0.5) {
                    primary
                } else {
                    secondary.unwrap_or(primary)
                };
                let other = if side == primary {
                    secondary.unwrap_or(primary)
                } else {
                    primary
                };
                let iid = self
                    .pick_profile_intent(side, 0.5, None)
                    .filter(|&i| self.world.ptype_of(other).weight_of(i) == 0.0)
                    .or_else(|| self.pick_profile_intent(side, 0.5, None));
                match iid {
                    Some(iid) => (self.verbalize(iid), self.world.intent(iid).relation),
                    None => (self.generic_text(), prompt_relation),
                }
            }
            Provenance::Generic => (self.generic_text(), prompt_relation),
            Provenance::Paraphrase => {
                let text = match behavior {
                    BehaviorRef::SearchBuy(q, p) => {
                        if self.rng.gen_bool(0.5) {
                            format!("1. they are {}.", self.world.query(q).text)
                        } else {
                            format!("1. it is a {}.", self.world.product(p).title)
                        }
                    }
                    BehaviorRef::CoBuy(p1, _) => {
                        format!("1. they are a {}.", self.world.product(p1).title)
                    }
                };
                (text, prompt_relation)
            }
            Provenance::Implausible => {
                // intent from a different domain / outside the profile
                let iid = self.pick_foreign_intent(pt.domain, primary);
                (self.verbalize(iid), self.world.intent(iid).relation)
            }
            Provenance::Incomplete => {
                let stub = ["1. they are used for", "1. it is capable of", "1. they are"]
                    .choose(&mut self.rng)
                    .unwrap();
                (stub.to_string(), prompt_relation)
            }
        }
    }

    /// An in-profile intent with weight in `[min, max)`.
    fn pick_profile_intent(
        &mut self,
        p: ProductId,
        min_w: f32,
        max_w: Option<f32>,
    ) -> Option<IntentId> {
        let profile = &self.world.ptype_of(p).profile;
        let eligible: Vec<IntentId> = profile
            .iter()
            .filter(|(_, w)| *w >= min_w && max_w.is_none_or(|m| *w < m))
            .map(|(i, _)| *i)
            .collect();
        eligible.choose(&mut self.rng).copied()
    }

    /// An intent present in both products' profiles (prefer typical).
    fn pick_shared_intent(&mut self, p1: ProductId, p2: ProductId) -> Option<IntentId> {
        let t2 = self.world.ptype_of(p2);
        let shared: Vec<IntentId> = self
            .world
            .ptype_of(p1)
            .profile
            .iter()
            .filter(|(i, w)| *w >= 0.4 && t2.weight_of(*i) > 0.0)
            .map(|(i, _)| *i)
            .collect();
        shared.choose(&mut self.rng).copied()
    }

    /// A hallucination: an intent the product's profile does not contain.
    fn pick_foreign_intent(&mut self, domain: DomainId, p: ProductId) -> IntentId {
        let pt = self.world.ptype_of(p);
        for _ in 0..32 {
            let iid = IntentId(self.rng.gen_range(0..self.world.intents.len() as u32));
            let i = self.world.intent(iid);
            if pt.weight_of(iid) == 0.0 && (i.domain != domain || self.rng.gen_bool(0.5)) {
                return iid;
            }
        }
        IntentId(0)
    }

    /// Verbalise an intent the way an LLM continuation would appear.
    fn verbalize(&mut self, iid: IntentId) -> String {
        let intent = self.world.intent(iid);
        let pred = short_predicate(intent.relation);
        let templates = [
            format!("1. they are {pred} {}.", intent.tail),
            format!("1. it is {pred} {}.", intent.tail),
            format!("1. because they are {pred} {}.", intent.tail),
        ];
        templates.choose(&mut self.rng).unwrap().clone()
    }

    fn generic_text(&mut self) -> String {
        let generics = [
            "1. they like them.",
            "1. they are used for the same reason.",
            "1. it is a good product.",
            "1. they are used together.",
            "1. they are good quality.",
        ];
        generics.choose(&mut self.rng).unwrap().to_string()
    }
}

/// Predicate fragment for verbalisation (mirrors the corpus sentences).
fn short_predicate(relation: Relation) -> &'static str {
    use Relation::*;
    match relation {
        UsedForFunc | UsedForEve | UsedForAud => "used for",
        CapableOf => "capable of",
        UsedTo => "used to",
        UsedAs => "used as",
        IsA => "a kind of",
        UsedOn => "used on",
        UsedInLoc => "used in",
        UsedInBody => "used on",
        UsedWith => "used with",
        UsedBy => "used by",
        XInterestedIn => "interested in",
        XIsA => "bought by",
        XWant => "wanting to",
    }
}

/// Surface predicate → relation mapping used when parsing raw generations
/// (the inverse of `short_predicate`, resolving the ambiguous cases to
/// the most common relation; `relations.rs` mines the full pattern table).
pub fn relation_from_text(raw: &str) -> Option<Relation> {
    let t = raw.to_lowercase();
    let rules: [(&str, Relation); 11] = [
        ("capable of", Relation::CapableOf),
        ("used to", Relation::UsedTo),
        ("used as", Relation::UsedAs),
        ("used on", Relation::UsedOn),
        ("used in", Relation::UsedInLoc),
        ("used with", Relation::UsedWith),
        ("used by", Relation::UsedBy),
        ("used for", Relation::UsedForFunc),
        ("interested in", Relation::XInterestedIn),
        ("wanting to", Relation::XWant),
        ("a kind of", Relation::IsA),
    ];
    rules.iter().find(|(p, _)| t.contains(p)).map(|(_, r)| *r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::{BehaviorConfig, BehaviorLog, Oracle, WorldConfig};

    fn setup() -> (World, BehaviorLog) {
        let w = World::generate(WorldConfig::tiny(11));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(12));
        (w, log)
    }

    #[test]
    fn generation_is_deterministic() {
        let (w, log) = setup();
        let sb = log.search_buys[0];
        let a =
            Teacher::new(&w, TeacherConfig::default()).generate_search_buy(sb.query, sb.product);
        let b =
            Teacher::new(&w, TeacherConfig::default()).generate_search_buy(sb.query, sb.product);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn task_seeded_generation_is_order_independent() {
        let (w, log) = setup();
        let sb = log.search_buys[0];
        let gen = |bi: u64, gi: u64| {
            let mut t = Teacher::for_task(&w, TeacherConfig::default(), bi, gi);
            let c = t.generate_search_buy(sb.query, sb.product);
            (c.raw, c.provenance, c.relation)
        };
        // same task → same candidate, no matter what ran before it
        let a = gen(3, 1);
        let _ = gen(0, 0);
        let _ = gen(7, 2);
        assert_eq!(a, gen(3, 1));
        // task coordinates produce distinct, well-mixed seeds
        let cfg = TeacherConfig::default();
        let seeds = [
            cfg.task_seed(0, 0),
            cfg.task_seed(0, 1),
            cfg.task_seed(1, 0),
            cfg.task_seed(1, 1),
            TeacherConfig {
                seed: cfg.seed ^ 1,
                ..cfg.clone()
            }
            .task_seed(0, 0),
        ];
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collision: {seeds:?}");
    }

    #[test]
    fn typical_generations_are_judged_typical_by_oracle() {
        let (w, log) = setup();
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let oracle = Oracle::new(&w);
        let mut typical_hits = 0;
        let mut typical_total = 0;
        for sb in log.search_buys.iter().take(600) {
            let c = teacher.generate_search_buy(sb.query, sb.product);
            if c.provenance == Provenance::Typical {
                typical_total += 1;
                let parsed = crate::relations::parse_candidate(&c.raw).unwrap();
                let j = oracle.judge_search_buy(sb.query, sb.product, c.relation, &parsed.tail);
                if j.plausible {
                    typical_hits += 1;
                }
            }
        }
        assert!(
            typical_total > 20,
            "mixture should produce typical candidates"
        );
        let frac = typical_hits as f64 / typical_total as f64;
        assert!(frac > 0.9, "typical candidates should be plausible: {frac}");
    }

    #[test]
    fn one_sided_cobuy_mostly_implausible_for_pair() {
        let (w, log) = setup();
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let oracle = Oracle::new(&w);
        let mut one_sided = 0;
        let mut implausible = 0;
        for cb in log.cobuys.iter().take(800) {
            let c = teacher.generate_cobuy(cb.p1, cb.p2);
            if c.provenance == Provenance::OneSided {
                one_sided += 1;
                let parsed = crate::relations::parse_candidate(&c.raw).unwrap();
                let j = oracle.judge_cobuy(cb.p1, cb.p2, c.relation, &parsed.tail);
                if !j.plausible {
                    implausible += 1;
                }
            }
        }
        assert!(one_sided > 50);
        let frac = implausible as f64 / one_sided as f64;
        assert!(frac > 0.5, "one-sided should often be implausible: {frac}");
    }

    #[test]
    fn incomplete_generations_fail_completeness() {
        let (w, log) = setup();
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        for sb in log.search_buys.iter().take(400) {
            let c = teacher.generate_search_buy(sb.query, sb.product);
            if c.provenance == Provenance::Incomplete {
                let tail = crate::prompts::parse_generation(&c.raw).unwrap();
                assert!(!cosmo_text::segment::looks_complete(&tail), "{tail}");
                return;
            }
        }
        panic!("no incomplete candidate sampled");
    }

    #[test]
    fn cost_meter_accumulates() {
        let (w, log) = setup();
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let sb = log.search_buys[0];
        teacher.generate_search_buy(sb.query, sb.product);
        teacher.generate_search_buy(sb.query, sb.product);
        assert_eq!(teacher.meter.calls(), 2);
        assert!(teacher.meter.total_flops() > 0.0);
    }

    #[test]
    fn relation_from_text_maps_predicates() {
        assert_eq!(
            relation_from_text("1. they are capable of holding snacks."),
            Some(Relation::CapableOf)
        );
        assert_eq!(
            relation_from_text("1. it is used with a surface cover."),
            Some(Relation::UsedWith)
        );
        assert_eq!(relation_from_text("gibberish"), None);
    }
}
