//! Typed wire protocol shared by the in-process serving path and the
//! HTTP front end (`cosmo-http`).
//!
//! Every message the serving tier exchanges with a client is a typed
//! struct declared through `wire_message!`, whose one field list yields
//! both directions of its std-only JSON encoding:
//!
//! * [`ServeRequest`] / [`ServeResponse`] — `POST /v1/serve-intents` and
//!   [`crate::ServingSystem::handle`];
//! * [`NavigateRequest`] / [`NavigateResponse`] — `POST /v1/navigate`;
//! * [`SnapshotVersion`] — `GET /v1/snapshot-version`;
//! * [`OpsStats`] — the versioned operational schema returned by both
//!   [`crate::ServingSystem::ops`] and `GET /ops/stats`;
//! * [`ErrorBody`] — the body of every non-2xx protocol error.
//!
//! **Byte identity.** Encoding is canonical: fixed field order, no
//! whitespace, shortest round-trip float formatting. The HTTP layer
//! serialises the exact structs the in-process path returns, so for the
//! same system state `POST /v1/serve-intents` answers byte-for-byte what
//! `handle(ServeRequest).to_json()` produces (locked by a tier-1
//! integration test in `cosmo-http`).
//!
//! **Versioning rules.** `protocol_version` / `ops_version` bump only on
//! breaking changes (field removal, meaning change, reordering). Adding
//! a field at the end of the canonical order is non-breaking: decoders
//! here ignore unknown fields and fill defaulted ones. Responses always
//! carry the version so clients can refuse what they do not speak.
//!
//! The decoder is a small recursive-descent JSON parser (strings with
//! full escape/surrogate handling, numbers kept as raw text so `u64`
//! counters and `f32` scores round-trip exactly, depth-capped). No
//! external crates: the wire layer must stay std-only.

use crate::cache::CacheLayer;
use crate::features::StructuredFeatures;
use std::fmt;
use std::fmt::Write as _;

/// Version of the request/response wire schema.
pub const PROTOCOL_VERSION: u32 = 1;

/// Version of the [`OpsStats`] schema.
pub const OPS_VERSION: u32 = 1;

/// Everything that can go wrong while decoding a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload is not valid JSON (position, description).
    Json(usize, String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type or an invalid value.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Json(pos, msg) => write!(f, "invalid json at byte {pos}: {msg}"),
            ProtocolError::MissingField(name) => write!(f, "missing field `{name}`"),
            ProtocolError::BadField(name) => write!(f, "invalid field `{name}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------------
// JSON: string encoder + recursive-descent decoder.
// ---------------------------------------------------------------------------

/// Append a JSON string literal (with escapes) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value. Numbers keep their raw text so integer counters
/// and float scores can be re-parsed at full precision by the accessor
/// that knows the target type.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing non-whitespace rejected).
    pub fn parse(src: &str) -> Result<Json, ProtocolError> {
        let bytes = src.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(ProtocolError::Json(p.pos, "trailing characters".into()));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `u64` accessor (re-parses the raw number text).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// `f32` accessor (re-parses the raw number text — bit-exact for
    /// the shortest round-trip form the encoder writes).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// `f64` accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum nesting depth the decoder accepts (the protocol needs 4).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ProtocolError {
        ProtocolError::Json(self.pos, msg.to_string())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ProtocolError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, v: Json) -> Result<Json, ProtocolError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ProtocolError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ProtocolError> {
        let quad = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(quad).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: require \uXXXX low half
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect_byte(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // copy one UTF-8 code point (input is a &str, so the
                    // byte stream is valid UTF-8 by construction)
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    let span = self.bytes.get(start..self.pos).unwrap_or(&[]);
                    out.push_str(std::str::from_utf8(span).map_err(|_| self.err("invalid utf-8"))?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("invalid number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("invalid number exponent"));
            }
        }
        let span = self.bytes.get(start..self.pos).unwrap_or(&[]);
        let raw = std::str::from_utf8(span)
            .map_err(|_| self.err("invalid number"))?
            .to_string();
        Ok(Json::Num(raw))
    }
}

// ---------------------------------------------------------------------------
// Codec: one value trait, one field table per message.
// ---------------------------------------------------------------------------

/// A value that can sit in a message field: its canonical encoding and
/// its decoder. Implemented only for the field types the protocol uses.
trait WireValue: Sized {
    /// Append the canonical JSON encoding to `out`.
    fn encode(&self, out: &mut String);

    /// Decode a present value. `field` names the enclosing message field,
    /// reported as [`ProtocolError::BadField`] when the value does not fit.
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError>;
}

impl WireValue for String {
    fn encode(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        v.as_str()
            .map(str::to_string)
            .ok_or(ProtocolError::BadField(field))
    }
}

/// Integers travel as `u64` text; narrower types reject out-of-range
/// values instead of truncating them.
macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl WireValue for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
                v.as_u64()
                    .and_then(|wide| <$t>::try_from(wide).ok())
                    .ok_or(ProtocolError::BadField(field))
            }
        }
    )+};
}

wire_int!(u64, u32, usize);

/// Floats use the shortest round-trip form (Rust's `Display` emits the
/// shortest decimal that parses back to the same bits, integral values
/// without a decimal point). Scores and rates are always finite; a
/// pathological value is clamped to `0` instead of emitting invalid JSON.
macro_rules! wire_float {
    ($($t:ty => $accessor:ident),+) => {$(
        impl WireValue for $t {
            fn encode(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push('0');
                }
            }
            fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
                v.$accessor().ok_or(ProtocolError::BadField(field))
            }
        }
    )+};
}

wire_float!(f32 => as_f32, f64 => as_f64);

impl<T: WireValue> WireValue for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v, field).map(Some),
        }
    }
}

impl<T: WireValue> WireValue for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        v.as_arr()
            .ok_or(ProtocolError::BadField(field))?
            .iter()
            .map(|item| T::decode(item, field))
            .collect()
    }
}

/// A histogram bucket `(lower_bound_us, count)`, encoded as `[lo,n]`.
impl WireValue for (u64, u64) {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "[{},{}]", self.0, self.1);
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        match v.as_arr() {
            Some([lo, n]) => Ok((u64::decode(lo, field)?, u64::decode(n, field)?)),
            _ => Err(ProtocolError::BadField(field)),
        }
    }
}

/// A wire token (`"hit"`, `"l1"`, …) of a closed set.
fn decode_token<T>(
    v: &Json,
    field: &'static str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, ProtocolError> {
    v.as_str()
        .and_then(parse)
        .ok_or(ProtocolError::BadField(field))
}

impl WireValue for ServeStatus {
    fn encode(&self, out: &mut String) {
        push_json_str(out, self.as_str());
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        decode_token(v, field, ServeStatus::parse)
    }
}

impl WireValue for CacheLayer {
    fn encode(&self, out: &mut String) {
        push_json_str(
            out,
            match self {
                CacheLayer::L1 => "l1",
                CacheLayer::L2 => "l2",
            },
        );
    }
    fn decode(v: &Json, field: &'static str) -> Result<Self, ProtocolError> {
        decode_token(v, field, |s| match s {
            "l1" => Some(CacheLayer::L1),
            "l2" => Some(CacheLayer::L2),
            _ => None,
        })
    }
}

/// Open the object (first key) or continue it (later keys), then write
/// `"key":`.
fn push_key(out: &mut String, first: &mut bool, key: &str) {
    out.push(if std::mem::take(first) { '{' } else { ',' });
    out.push_str(key);
}

/// Decode field `name` of object `obj`: a field with a `default` decodes
/// absent or `null` as that default; a field without one is required.
fn decode_field<T: WireValue>(
    obj: &Json,
    name: &'static str,
    default: Option<T>,
) -> Result<T, ProtocolError> {
    match (obj.get(name), default) {
        (None | Some(Json::Null), Some(d)) => Ok(d),
        (None, None) => Err(ProtocolError::MissingField(name)),
        (Some(v), _) => T::decode(v, name),
    }
}

/// Declare a protocol message: the struct and, from its one field list,
/// its canonical JSON codec. Each field's wire name is its Rust name. A
/// field is required unless it names a default (`= expr`), which an
/// absent or `null` value decodes to. Encoding writes every field in
/// declaration order with no whitespace; decoding ignores unknown fields.
macro_rules! wire_message {
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: $ty:ty $(= $default:expr)?,
            )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )+
        }

        impl WireValue for $name {
            fn encode(&self, out: &mut String) {
                let mut first = true;
                $(
                    push_key(out, &mut first, concat!("\"", stringify!($field), "\":"));
                    self.$field.encode(out);
                )+
                out.push('}');
            }
            fn decode(v: &Json, _field: &'static str) -> Result<Self, ProtocolError> {
                Ok($name {
                    $(
                        $field: decode_field(
                            v,
                            stringify!($field),
                            wire_message!(@default $($default)?),
                        )?,
                    )+
                })
            }
        }

        impl $name {
            /// Canonical JSON encoding (fixed field order, no whitespace).
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                self.encode(&mut out);
                out
            }

            /// Decode from JSON: required fields must be present, defaulted
            /// ones may be absent or `null`, unknown ones are ignored.
            pub fn from_json(src: &str) -> Result<Self, ProtocolError> {
                Self::decode(&Json::parse(src)?, stringify!($name))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// ServeRequest / ServeResponse.
// ---------------------------------------------------------------------------

/// Default intent count when the request does not specify one.
pub const DEFAULT_TOP_K: usize = 5;

wire_message! {
    /// A serve-intents request: the query plus how many intents to render.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServeRequest {
        /// The search query.
        pub query: String,
        /// Max intent key-value pairs rendered into the response.
        pub top_k: usize = DEFAULT_TOP_K,
    }
}

impl ServeRequest {
    /// A request with the default `top_k`.
    pub fn new(query: impl Into<String>) -> Self {
        ServeRequest {
            query: query.into(),
            top_k: DEFAULT_TOP_K,
        }
    }
}

/// How the request path answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// Features served from the cache.
    Hit,
    /// Miss: the query is queued (or already queued) for the next
    /// asynchronous batch cycle; retry shortly.
    Enqueued,
    /// Miss: the pending queue is full under
    /// [`crate::AdmissionPolicy::RejectNew`] — the HTTP layer maps this
    /// to `503` with `Retry-After`.
    Rejected,
}

impl ServeStatus {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeStatus::Hit => "hit",
            ServeStatus::Enqueued => "enqueued",
            ServeStatus::Rejected => "rejected",
        }
    }

    /// Parse a wire token.
    pub fn parse(s: &str) -> Option<ServeStatus> {
        match s {
            "hit" => Some(ServeStatus::Hit),
            "enqueued" => Some(ServeStatus::Enqueued),
            "rejected" => Some(ServeStatus::Rejected),
            _ => None,
        }
    }
}

wire_message! {
    /// One rendered intent key-value pair.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IntentItem {
        /// Relation name (e.g. `USED_FOR_FUNC`).
        pub relation: String,
        /// Intention tail text.
        pub tail: String,
        /// Serving-time score.
        pub score: f32,
    }
}

wire_message! {
    /// The serve-intents response. Deterministic for a given cache state —
    /// request latency is deliberately *not* part of the body (clients
    /// measure it; [`crate::Served::latency_us`] carries it in-process),
    /// which is what makes the HTTP and in-process answers byte-identical.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServeResponse {
        /// Wire schema version ([`PROTOCOL_VERSION`]).
        pub protocol_version: u32,
        /// The query echoed back.
        pub query: String,
        /// How the request path answered.
        pub status: ServeStatus,
        /// Which cache layer answered (hits only).
        pub layer: Option<CacheLayer> = None,
        /// Model version serving this response.
        pub model_version: u64,
        /// Rendered intents, best first (hits only; capped at `top_k`).
        pub intents: Vec<IntentItem>,
        /// Detected strong intent (hits only).
        pub strong_intent: Option<String> = None,
        /// Snapshot generation that answered (increments per hot swap;
        /// appended field — decoders default it to 0).
        pub snapshot_generation: u64 = 0,
    }
}

impl ServeResponse {
    /// Response for a cache hit: render up to `top_k` intents.
    pub fn for_hit(
        req: &ServeRequest,
        features: &StructuredFeatures,
        layer: CacheLayer,
        model_version: u64,
        snapshot_generation: u64,
    ) -> Self {
        ServeResponse {
            protocol_version: PROTOCOL_VERSION,
            query: req.query.clone(),
            status: ServeStatus::Hit,
            layer: Some(layer),
            model_version,
            intents: features
                .intents
                .iter()
                .take(req.top_k)
                .map(|(rel, tail, score)| IntentItem {
                    relation: rel.name().to_string(),
                    tail: tail.clone(),
                    score: *score,
                })
                .collect(),
            strong_intent: features.strong_intent.clone(),
            snapshot_generation,
        }
    }

    /// Response for a miss (enqueued or rejected).
    pub fn for_miss(
        req: &ServeRequest,
        status: ServeStatus,
        model_version: u64,
        snapshot_generation: u64,
    ) -> Self {
        ServeResponse {
            protocol_version: PROTOCOL_VERSION,
            query: req.query.clone(),
            status,
            layer: None,
            model_version,
            intents: Vec::new(),
            strong_intent: None,
            snapshot_generation,
        }
    }
}

// ---------------------------------------------------------------------------
// NavigateRequest / NavigateResponse.
// ---------------------------------------------------------------------------

/// Default suggestion count.
pub const DEFAULT_NAV_K: usize = 5;

wire_message! {
    /// A navigation request: broad query plus suggestion count.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NavigateRequest {
        /// The broad query to interpret.
        pub query: String,
        /// Max suggestions returned.
        pub k: usize = DEFAULT_NAV_K,
    }
}

impl NavigateRequest {
    /// A request with the default `k`.
    pub fn new(query: impl Into<String>) -> Self {
        NavigateRequest {
            query: query.into(),
            k: DEFAULT_NAV_K,
        }
    }
}

wire_message! {
    /// One navigation suggestion on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NavigateItem {
        /// Suggestion kind: `intent` or `attribute`.
        pub kind: String,
        /// Display label.
        pub label: String,
    }
}

wire_message! {
    /// The navigation response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NavigateResponse {
        /// Wire schema version ([`PROTOCOL_VERSION`]).
        pub protocol_version: u32,
        /// The query echoed back.
        pub query: String,
        /// Ranked suggestions.
        pub suggestions: Vec<NavigateItem>,
    }
}

// ---------------------------------------------------------------------------
// SnapshotVersion.
// ---------------------------------------------------------------------------

wire_message! {
    /// Identity of the frozen KG snapshot a server is answering from.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapshotVersion {
        /// Wire schema version ([`PROTOCOL_VERSION`]).
        pub protocol_version: u32,
        /// Binary snapshot format version (`cosmo_kg::snapshot::FORMAT_VERSION_V2`).
        pub format_version: u32,
        /// Node count.
        pub nodes: u64,
        /// Merged edge count.
        pub edges: u64,
        /// Distinct relation types.
        pub relations: u64,
        /// Interned text arena size in bytes.
        pub arena_bytes: u64,
        /// Serving model version (increments per daily refresh).
        pub model_version: u64,
        /// Snapshot generation (increments per hot swap; appended field —
        /// decoders default it to 0).
        pub generation: u64 = 0,
    }
}

// ---------------------------------------------------------------------------
// ReloadRequest / ReloadResponse.
// ---------------------------------------------------------------------------

wire_message! {
    /// `POST /ops/reload`: ask a live server to load a snapshot file and
    /// atomically publish it as the next generation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReloadRequest {
        /// Path (on the server's filesystem) of the snapshot file to load.
        pub path: String,
    }
}

impl ReloadRequest {
    /// Build a reload request.
    pub fn new(path: impl Into<String>) -> Self {
        ReloadRequest { path: path.into() }
    }
}

wire_message! {
    /// Response to a successful `POST /ops/reload`: the identity of the
    /// generation that is now live.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReloadResponse {
        /// Wire schema version ([`PROTOCOL_VERSION`]).
        pub protocol_version: u32,
        /// The generation number just published.
        pub generation: u64,
        /// Binary format version of the loaded file.
        pub format_version: u32,
        /// Node count of the new snapshot.
        pub nodes: u64,
        /// Edge count of the new snapshot.
        pub edges: u64,
    }
}

// ---------------------------------------------------------------------------
// OpsStats.
// ---------------------------------------------------------------------------

wire_message! {
    /// The versioned operational schema: cache and queue sizes, admission
    /// and batch-failure counters, raw hit/miss counters, and the latency
    /// histogram itself. Returned by [`crate::ServingSystem::ops`] and
    /// `GET /ops/stats`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OpsStats {
        /// Ops schema version ([`OPS_VERSION`]).
        pub ops_version: u32,
        /// Current model version.
        pub model_version: u64,
        /// Entries in the pre-loaded L1 layer.
        pub l1_size: usize,
        /// Entries in the daily L2 layer (all shards).
        pub l2_size: usize,
        /// Per-shard L2 entry counts.
        pub l2_shard_sizes: Vec<usize>,
        /// Distinct queries queued for the next batch cycle.
        pub pending: usize,
        /// Per-shard pending-queue depths.
        pub pending_shard_depths: Vec<usize>,
        /// Peak queue depth since the last metrics reset.
        pub queue_high_water: usize,
        /// Pending entries evicted under drop-oldest admission.
        pub dropped: u64,
        /// Pending enqueues refused under reject-new admission.
        pub rejected: u64,
        /// Batch-worker chunks that panicked (queries were re-queued).
        pub batch_failed_chunks: u64,
        /// L1 hits since the last reset.
        pub l1_hits: u64,
        /// L2 hits since the last reset.
        pub l2_hits: u64,
        /// Misses since the last reset.
        pub misses: u64,
        /// Cumulative cache hit rate.
        pub hit_rate: f64,
        /// p50 request latency (µs).
        pub p50_us: u64,
        /// p99 request latency (µs).
        pub p99_us: u64,
        /// Latency samples recorded since the last reset.
        pub latency_count: u64,
        /// Non-empty latency histogram buckets as `(lower_bound_us, count)`.
        pub latency_buckets: Vec<(u64, u64)>,
        /// Feature-store size.
        pub features: usize,
        /// Snapshot generation currently serving (appended field — decoders
        /// default it to 0).
        pub snapshot_generation: u64 = 0,
    }
}

impl OpsStats {
    /// Operator-facing one-line summary for dashboards and logs.
    pub fn render(&self) -> String {
        let shard_spread = self
            .l2_shard_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("/");
        format!(
            "cache l1={} l2={} (shards {shard_spread}) | queue pending={} hwm={} \
             dropped={} rejected={} | batch failed_chunks={} | hit_rate={:.3} \
             p50={}us p99={}us | features={} model=v{}",
            self.l1_size,
            self.l2_size,
            self.pending,
            self.queue_high_water,
            self.dropped,
            self.rejected,
            self.batch_failed_chunks,
            self.hit_rate,
            self.p50_us,
            self.p99_us,
            self.features,
            self.model_version,
        )
    }
}

// ---------------------------------------------------------------------------
// ErrorBody.
// ---------------------------------------------------------------------------

wire_message! {
    /// Body of every non-2xx protocol error response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErrorBody {
        /// Stable machine-readable error token (e.g. `bad_request`).
        pub error: String,
        /// Human-readable detail.
        pub detail: String,
    }
}

impl ErrorBody {
    /// Build an error body.
    pub fn new(error: impl Into<String>, detail: impl Into<String>) -> Self {
        ErrorBody {
            error: error.into(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_request_golden_round_trip() {
        let req = ServeRequest {
            query: "winter \"camping\" \\ gear".into(),
            top_k: 3,
        };
        let s = req.to_json();
        assert_eq!(s, r#"{"query":"winter \"camping\" \\ gear","top_k":3}"#);
        assert_eq!(ServeRequest::from_json(&s).unwrap(), req);
        // top_k defaults when absent
        let d = ServeRequest::from_json(r#"{"query":"camping"}"#).unwrap();
        assert_eq!(d.top_k, DEFAULT_TOP_K);
    }

    #[test]
    fn serve_response_golden_round_trip() {
        let resp = ServeResponse {
            protocol_version: PROTOCOL_VERSION,
            query: "camping".into(),
            status: ServeStatus::Hit,
            layer: Some(CacheLayer::L1),
            model_version: 2,
            intents: vec![
                IntentItem {
                    relation: "USED_FOR_EVE".into(),
                    tail: "sleeping outdoors".into(),
                    score: 0.9,
                },
                IntentItem {
                    relation: "CAPABLE_OF".into(),
                    tail: "keeping warm".into(),
                    score: 0.625,
                },
            ],
            strong_intent: Some("sleeping outdoors".into()),
            snapshot_generation: 4,
        };
        let s = resp.to_json();
        assert_eq!(
            s,
            "{\"protocol_version\":1,\"query\":\"camping\",\"status\":\"hit\",\
             \"layer\":\"l1\",\"model_version\":2,\"intents\":[\
             {\"relation\":\"USED_FOR_EVE\",\"tail\":\"sleeping outdoors\",\"score\":0.9},\
             {\"relation\":\"CAPABLE_OF\",\"tail\":\"keeping warm\",\"score\":0.625}],\
             \"strong_intent\":\"sleeping outdoors\",\"snapshot_generation\":4}"
        );
        assert_eq!(ServeResponse::from_json(&s).unwrap(), resp);
        // a pre-swap encoder omits the appended field; decoders default it
        let legacy = s.replace(",\"snapshot_generation\":4", "");
        let decoded = ServeResponse::from_json(&legacy).unwrap();
        assert_eq!(decoded.snapshot_generation, 0);
    }

    #[test]
    fn serve_response_miss_and_rejected_round_trip() {
        for status in [ServeStatus::Enqueued, ServeStatus::Rejected] {
            let resp = ServeResponse::for_miss(&ServeRequest::new("q"), status, 1, 1);
            let s = resp.to_json();
            assert!(s.contains(&format!("\"status\":\"{}\"", status.as_str())));
            assert!(s.contains("\"layer\":null"));
            assert_eq!(ServeResponse::from_json(&s).unwrap(), resp);
        }
    }

    #[test]
    fn scores_round_trip_bitwise() {
        // shortest round-trip formatting: parse(format(x)) == x bitwise
        for bits in [0x3F00_0000u32, 0x3E99_999A, 0x0000_0001, 0x7F7F_FFFF] {
            let score = f32::from_bits(bits);
            let resp = ServeResponse {
                protocol_version: 1,
                query: "q".into(),
                status: ServeStatus::Hit,
                layer: Some(CacheLayer::L2),
                model_version: 1,
                intents: vec![IntentItem {
                    relation: "USED_FOR_FUNC".into(),
                    tail: "t".into(),
                    score,
                }],
                strong_intent: None,
                snapshot_generation: 0,
            };
            let back = ServeResponse::from_json(&resp.to_json()).unwrap();
            assert_eq!(back.intents[0].score.to_bits(), score.to_bits());
        }
    }

    #[test]
    fn navigate_golden_round_trip() {
        let req = NavigateRequest {
            query: "camping".into(),
            k: 4,
        };
        assert_eq!(req.to_json(), r#"{"query":"camping","k":4}"#);
        assert_eq!(NavigateRequest::from_json(&req.to_json()).unwrap(), req);

        let resp = NavigateResponse {
            protocol_version: PROTOCOL_VERSION,
            query: "camping".into(),
            suggestions: vec![
                NavigateItem {
                    kind: "intent".into(),
                    label: "winter camping".into(),
                },
                NavigateItem {
                    kind: "product_type".into(),
                    label: "air mattress".into(),
                },
            ],
        };
        let s = resp.to_json();
        assert_eq!(
            s,
            "{\"protocol_version\":1,\"query\":\"camping\",\"suggestions\":[\
             {\"kind\":\"intent\",\"label\":\"winter camping\"},\
             {\"kind\":\"product_type\",\"label\":\"air mattress\"}]}"
        );
        assert_eq!(NavigateResponse::from_json(&s).unwrap(), resp);
    }

    #[test]
    fn snapshot_version_golden_round_trip() {
        let sv = SnapshotVersion {
            protocol_version: 1,
            format_version: 1,
            nodes: 6_300_000,
            edges: 29_000_000,
            relations: 15,
            arena_bytes: 123_456_789,
            model_version: 3,
            generation: 2,
        };
        let s = sv.to_json();
        assert_eq!(
            s,
            "{\"protocol_version\":1,\"format_version\":1,\"nodes\":6300000,\
             \"edges\":29000000,\"relations\":15,\"arena_bytes\":123456789,\
             \"model_version\":3,\"generation\":2}"
        );
        assert_eq!(SnapshotVersion::from_json(&s).unwrap(), sv);
        let legacy = s.replace(",\"generation\":2", "");
        assert_eq!(SnapshotVersion::from_json(&legacy).unwrap().generation, 0);
    }

    #[test]
    fn reload_round_trip() {
        let req = ReloadRequest::new("/tmp/next.snap");
        assert_eq!(req.to_json(), r#"{"path":"/tmp/next.snap"}"#);
        assert_eq!(ReloadRequest::from_json(&req.to_json()).unwrap(), req);

        let resp = ReloadResponse {
            protocol_version: PROTOCOL_VERSION,
            generation: 7,
            format_version: 2,
            nodes: 100,
            edges: 400,
        };
        let s = resp.to_json();
        assert_eq!(
            s,
            "{\"protocol_version\":1,\"generation\":7,\"format_version\":2,\
             \"nodes\":100,\"edges\":400}"
        );
        assert_eq!(ReloadResponse::from_json(&s).unwrap(), resp);
    }

    #[test]
    fn ops_stats_round_trip_and_render() {
        let ops = OpsStats {
            ops_version: OPS_VERSION,
            model_version: 3,
            l1_size: 10,
            l2_size: 7,
            l2_shard_sizes: vec![3, 4],
            pending: 2,
            pending_shard_depths: vec![1, 1],
            queue_high_water: 9,
            dropped: 5,
            rejected: 1,
            batch_failed_chunks: 0,
            l1_hits: 12,
            l2_hits: 2,
            misses: 2,
            hit_rate: 0.875,
            p50_us: 12,
            p99_us: 340,
            latency_count: 16,
            latency_buckets: vec![(12, 14), (336, 2)],
            features: 17,
            snapshot_generation: 1,
        };
        let s = ops.to_json();
        assert_eq!(OpsStats::from_json(&s).unwrap(), ops);
        // the render line keeps its dashboard shape
        let line = ops.render();
        for token in [
            "l1=10",
            "shards 3/4",
            "pending=2",
            "hwm=9",
            "dropped=5",
            "rejected=1",
            "hit_rate=0.875",
            "p50=12us",
            "model=v3",
        ] {
            assert!(line.contains(token), "missing {token} in {line}");
        }
    }

    #[test]
    fn ops_stats_golden_bytes() {
        let ops = OpsStats {
            ops_version: OPS_VERSION,
            model_version: 3,
            l1_size: 10,
            l2_size: 7,
            l2_shard_sizes: vec![3, 4],
            pending: 2,
            pending_shard_depths: vec![1, 1],
            queue_high_water: 9,
            dropped: 5,
            rejected: 1,
            batch_failed_chunks: 0,
            l1_hits: 12,
            l2_hits: 2,
            misses: 2,
            hit_rate: 0.875,
            p50_us: 12,
            p99_us: 340,
            latency_count: 16,
            latency_buckets: vec![(12, 14), (336, 2)],
            features: 17,
            snapshot_generation: 1,
        };
        assert_eq!(
            ops.to_json(),
            "{\"ops_version\":1,\"model_version\":3,\"l1_size\":10,\"l2_size\":7,\
             \"l2_shard_sizes\":[3,4],\"pending\":2,\"pending_shard_depths\":[1,1],\
             \"queue_high_water\":9,\"dropped\":5,\"rejected\":1,\"batch_failed_chunks\":0,\
             \"l1_hits\":12,\"l2_hits\":2,\"misses\":2,\"hit_rate\":0.875,\"p50_us\":12,\
             \"p99_us\":340,\"latency_count\":16,\"latency_buckets\":[[12,14],[336,2]],\
             \"features\":17,\"snapshot_generation\":1}"
        );
        // empty arrays and an integral rate keep their canonical spelling
        let idle = OpsStats {
            l2_shard_sizes: vec![],
            pending_shard_depths: vec![],
            latency_buckets: vec![],
            hit_rate: 0.0,
            ..ops
        };
        let s = idle.to_json();
        assert!(s.contains("\"l2_shard_sizes\":[],\"pending\":2,\"pending_shard_depths\":[],"));
        assert!(s.contains("\"hit_rate\":0,"));
        assert!(s.contains("\"latency_buckets\":[],"));
    }

    #[test]
    fn serve_response_miss_golden_bytes() {
        let req = ServeRequest::new("winter \"tent\"");
        assert_eq!(
            ServeResponse::for_miss(&req, ServeStatus::Enqueued, 3, 2).to_json(),
            "{\"protocol_version\":1,\"query\":\"winter \\\"tent\\\"\",\"status\":\"enqueued\",\
             \"layer\":null,\"model_version\":3,\"intents\":[],\"strong_intent\":null,\
             \"snapshot_generation\":2}"
        );
        assert_eq!(
            ServeResponse::for_miss(&req, ServeStatus::Rejected, 1, 7).to_json(),
            "{\"protocol_version\":1,\"query\":\"winter \\\"tent\\\"\",\"status\":\"rejected\",\
             \"layer\":null,\"model_version\":1,\"intents\":[],\"strong_intent\":null,\
             \"snapshot_generation\":7}"
        );
    }

    #[test]
    fn error_body_golden_bytes_with_escapes() {
        let e = ErrorBody::new("bad_request", "q=\"tänt\" \\ 😀\n\r\t\u{1}\u{1f} /é");
        let s = e.to_json();
        assert_eq!(
            s,
            "{\"error\":\"bad_request\",\
             \"detail\":\"q=\\\"tänt\\\" \\\\ 😀\\n\\r\\t\\u0001\\u001f /é\"}"
        );
        assert_eq!(ErrorBody::from_json(&s).unwrap(), e);
    }

    #[test]
    fn error_body_round_trip() {
        let e = ErrorBody::new("bad_request", "invalid field `query`");
        assert_eq!(
            e.to_json(),
            r#"{"error":"bad_request","detail":"invalid field `query`"}"#
        );
        assert_eq!(ErrorBody::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn decoder_tolerates_whitespace_and_unknown_fields() {
        let src = "\n{\t\"query\" : \"camping\" ,\n  \"top_k\": 2, \"future_field\": [1, {\"x\": null}] }";
        let req = ServeRequest::from_json(src).unwrap();
        assert_eq!(req.query, "camping");
        assert_eq!(req.top_k, 2);
    }

    #[test]
    fn decoder_handles_escapes_and_surrogates() {
        let v = Json::parse(r#""a\u00e9b \ud83d\ude00 \n\t\\""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aéb 😀 \n\t\\");
        // encoder round-trips non-ascii text verbatim
        let mut out = String::new();
        push_json_str(&mut out, "aéb 😀");
        assert_eq!(Json::parse(&out).unwrap().as_str().unwrap(), "aéb 😀");
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\": 01e}",
            "nul",
            "{\"a\":1} trailing",
            "\"\\ud800\"",
            "\"\\q\"",
            "{\"a\":--1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
        // depth bomb is rejected, not a stack overflow
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_preserve_u64_precision() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::parse("1.5e3").unwrap();
        assert_eq!(v.as_f64(), Some(1500.0));
    }

    #[test]
    fn bad_typed_fields_are_reported() {
        assert_eq!(
            ServeRequest::from_json("{}").unwrap_err(),
            ProtocolError::MissingField("query")
        );
        assert_eq!(
            ServeRequest::from_json(r#"{"query": 7}"#).unwrap_err(),
            ProtocolError::BadField("query")
        );
        assert_eq!(
            ServeResponse::from_json(r#"{"protocol_version":1,"query":"q","status":"nope"}"#)
                .unwrap_err(),
            ProtocolError::BadField("status")
        );
        // u32 fields refuse out-of-range values instead of truncating them
        assert_eq!(
            SnapshotVersion::from_json(
                r#"{"protocol_version":4294967297,"format_version":2,"nodes":1,"edges":1,
                    "relations":1,"arena_bytes":1,"model_version":1}"#
            )
            .unwrap_err(),
            ProtocolError::BadField("protocol_version")
        );
    }
}
