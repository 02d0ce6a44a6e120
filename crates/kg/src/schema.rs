//! Knowledge-graph schema: node kinds, relation types and tail types.
//!
//! Table 2 of the paper lists the 15 e-commerce commonsense relations mined
//! from large-scale generations (seeded from ConceptNet's usedFor,
//! capableOf, isA and cause). Each relation constrains its tail to a
//! semantic type; the last three (prefixed `x`) describe the *customer*
//! rather than the product, following ATOMIC's person-centric convention.

/// The 15 COSMO relation types (Table 2).
///
/// `repr(u8)` with declaration-order discriminants `0..15`: the v2
/// snapshot stores the discriminant byte directly and casts validated
/// buffers back to `&[Edge]`, so the representation is part of the
/// on-disk format (pinned by `index_roundtrip` and the snapshot layout
/// tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Relation {
    /// Product is used for a function/usage ("dry face").
    UsedForFunc,
    /// Product is used for an event/activity ("walk the dog").
    UsedForEve,
    /// Product is used for an audience ("daycare worker").
    UsedForAud,
    /// Product is capable of a function ("hold snacks").
    CapableOf,
    /// Product is used to accomplish something ("build a fence").
    UsedTo,
    /// Product is used as a concept/product type ("smart watch").
    UsedAs,
    /// Product is a concept/product type ("normal suit").
    IsA,
    /// Product is used on a time/season/event ("late winter").
    UsedOn,
    /// Product is used in a location/facility ("bedroom").
    UsedInLoc,
    /// Product is used on a body part ("sensitive skin").
    UsedInBody,
    /// Product is used with a complementary product ("surface cover").
    UsedWith,
    /// Product is used by an audience ("cat owner").
    UsedBy,
    /// Customer is interested in a topic ("herbal medicine").
    XInterestedIn,
    /// Customer is a kind of audience ("pregnant women").
    XIsA,
    /// Customer wants to do an activity ("play tennis").
    XWant,
}

/// Semantic type of a relation's tail (Table 2, middle column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TailType {
    /// Function / usage.
    Function,
    /// Event / activity.
    Event,
    /// Audience.
    Audience,
    /// Concept / product type.
    Concept,
    /// Time / season / event.
    Time,
    /// Location / facility.
    Location,
    /// Body part.
    BodyPart,
    /// Complementary product.
    Complementary,
    /// Interest.
    Interest,
    /// Activity.
    Activity,
}

impl Relation {
    /// All 15 relations, in Table 2 order.
    pub const ALL: [Relation; 15] = [
        Relation::UsedForFunc,
        Relation::UsedForEve,
        Relation::UsedForAud,
        Relation::CapableOf,
        Relation::UsedTo,
        Relation::UsedAs,
        Relation::IsA,
        Relation::UsedOn,
        Relation::UsedInLoc,
        Relation::UsedInBody,
        Relation::UsedWith,
        Relation::UsedBy,
        Relation::XInterestedIn,
        Relation::XIsA,
        Relation::XWant,
    ];

    /// The four ConceptNet seed relations the mining starts from (§3.1).
    pub const SEEDS: [&'static str; 4] = ["usedFor", "capableOf", "isA", "cause"];

    /// Canonical upper-snake name as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Relation::UsedForFunc => "USED_FOR_FUNC",
            Relation::UsedForEve => "USED_FOR_EVE",
            Relation::UsedForAud => "USED_FOR_AUD",
            Relation::CapableOf => "CAPABLE_OF",
            Relation::UsedTo => "USED_TO",
            Relation::UsedAs => "USED_AS",
            Relation::IsA => "IS_A",
            Relation::UsedOn => "USED_ON",
            Relation::UsedInLoc => "USED_IN_LOC",
            Relation::UsedInBody => "USED_IN_BODY",
            Relation::UsedWith => "USED_WITH",
            Relation::UsedBy => "USED_BY",
            Relation::XInterestedIn => "xIntersted_in", // sic — as printed in Table 2
            Relation::XIsA => "xIs_A",
            Relation::XWant => "xWant",
        }
    }

    /// Semantic tail type (Table 2).
    pub fn tail_type(self) -> TailType {
        match self {
            Relation::UsedForFunc | Relation::CapableOf | Relation::UsedTo => TailType::Function,
            Relation::UsedForEve => TailType::Event,
            Relation::UsedForAud => TailType::Audience,
            Relation::UsedAs | Relation::IsA => TailType::Concept,
            Relation::UsedOn => TailType::Time,
            Relation::UsedInLoc => TailType::Location,
            Relation::UsedInBody => TailType::BodyPart,
            Relation::UsedWith => TailType::Complementary,
            Relation::UsedBy | Relation::XIsA => TailType::Audience,
            Relation::XInterestedIn => TailType::Interest,
            Relation::XWant => TailType::Activity,
        }
    }

    /// Surface predicate used when verbalising a triple into a sentence
    /// ("`<head> <predicate> <tail>`") — the inverse of the pattern mining.
    pub fn predicate(self) -> &'static str {
        match self {
            Relation::UsedForFunc | Relation::UsedForEve | Relation::UsedForAud => "is used for",
            Relation::CapableOf => "is capable of",
            Relation::UsedTo => "is used to",
            Relation::UsedAs => "is used as",
            Relation::IsA => "is a",
            Relation::UsedOn => "is used on",
            Relation::UsedInLoc => "is used in",
            Relation::UsedInBody => "is used on",
            Relation::UsedWith => "is used with",
            Relation::UsedBy => "is used by",
            Relation::XInterestedIn => "shows the customer is interested in",
            Relation::XIsA => "shows the customer is",
            Relation::XWant => "shows the customer wants to",
        }
    }

    /// Example tail from Table 2 (used by the Table 2 repro binary).
    pub fn example(self) -> &'static str {
        match self {
            Relation::UsedForFunc => "dry face",
            Relation::UsedForEve => "walk the dog",
            Relation::UsedForAud => "daycare worker",
            Relation::CapableOf => "hold snacks",
            Relation::UsedTo => "build a fence",
            Relation::UsedAs => "smart watch",
            Relation::IsA => "normal suit",
            Relation::UsedOn => "late winter",
            Relation::UsedInLoc => "bedroom",
            Relation::UsedInBody => "sensitive skin",
            Relation::UsedWith => "surface cover",
            Relation::UsedBy => "cat owner",
            Relation::XInterestedIn => "herbal medicine",
            Relation::XIsA => "pregnant women",
            Relation::XWant => "play tennis",
        }
    }

    /// Stable small integer id (index into [`Relation::ALL`]).
    ///
    /// `ALL` lists the variants in declaration order, so the index is the
    /// enum discriminant — `index_roundtrip` pins this. Constant-time
    /// because adjacency binary searches key on it.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Relation::index`].
    pub fn from_index(i: usize) -> Option<Relation> {
        Relation::ALL.get(i).copied()
    }
}

impl TailType {
    /// Human-readable name as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            TailType::Function => "Function / Usage",
            TailType::Event => "Event / Activity",
            TailType::Audience => "Audience",
            TailType::Concept => "Concept / Product Type",
            TailType::Time => "Time / Season / Event",
            TailType::Location => "Location / Facility",
            TailType::BodyPart => "Body Part",
            TailType::Complementary => "Complementary",
            TailType::Interest => "Interest",
            TailType::Activity => "Activity",
        }
    }
}

/// Kind of a node in the COSMO KG (§3.1: products, queries and intentions).
///
/// `repr(u8)` discriminants (`Product = 0`, `Query = 1`, `Intention = 2`)
/// are part of the snapshot binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeKind {
    /// A product (head of co-buy knowledge).
    Product,
    /// A search query (head of search-buy knowledge).
    Query,
    /// An intention tail (canonicalised generation).
    Intention,
}

/// Which user behaviour produced an edge (§3.1).
///
/// `repr(u8)` discriminants (`SearchBuy = 0`, `CoBuy = 1`) are part of
/// the snapshot binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BehaviorKind {
    /// Query–purchase pair within a short session.
    SearchBuy,
    /// Co-purchased product pair.
    CoBuy,
}

impl BehaviorKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BehaviorKind::SearchBuy => "search-buy",
            BehaviorKind::CoBuy => "co-buy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_relations() {
        assert_eq!(Relation::ALL.len(), 15);
        let mut names: Vec<&str> = Relation::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "relation names must be unique");
    }

    #[test]
    fn index_roundtrip() {
        for (i, r) in Relation::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Relation::from_index(i), Some(*r));
        }
        assert_eq!(Relation::from_index(15), None);
    }

    #[test]
    fn tail_types_match_table2() {
        assert_eq!(Relation::UsedForFunc.tail_type(), TailType::Function);
        assert_eq!(Relation::UsedOn.tail_type(), TailType::Time);
        assert_eq!(Relation::XWant.tail_type(), TailType::Activity);
        assert_eq!(Relation::UsedBy.tail_type(), TailType::Audience);
    }

    #[test]
    fn examples_are_nonempty() {
        for r in Relation::ALL {
            assert!(!r.example().is_empty());
            assert!(!r.predicate().is_empty());
        }
    }
}
