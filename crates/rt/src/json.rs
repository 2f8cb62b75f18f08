//! Minimal JSON: a value type, a strict parser, a round-tripping writer,
//! and [`ToJson`]/[`FromJson`] codec traits with derive-replacement macros.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: pipeline
//! persistence (`core::persist`), experiment records (`bench::harness`), and
//! the experiment binaries. Design points:
//!
//! - **f64 round-trip by construction.** Finite floats are written with
//!   Rust's shortest round-trip formatting (`{:?}`, which always keeps a `.`
//!   or exponent), so `parse(write(x)) == x` bit-for-bit — the property the
//!   seed got from `serde_json`'s `float_roundtrip` feature. Non-finite
//!   values serialise as `null` and deserialise as NaN.
//! - **Integers stay integers.** Whole-number literals without `.`/`e` parse
//!   into [`Json::Int`], so `u64` version counters survive above 2^53.
//! - **Objects preserve insertion order** (a `Vec` of pairs, not a map), so
//!   output is deterministic given deterministic field order.

use std::fmt;

/// Codec failure: malformed text on parse, or a shape mismatch on decode.
#[derive(Debug, Clone)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole-number literal that fits `i64`.
    Int(i64),
    /// Any other numeric literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An object from key/value pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match), `None` for absent keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as f64 (`Int` widens; `Null` is NaN — the writer's
    /// encoding of non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Integer value, if this is a whole-number literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Remove every object field named `key`, at any depth — how a test
    /// compares two exports up to a field that legitimately differs (wall
    /// clocks, say).
    pub fn remove_key(&mut self, key: &str) {
        match self {
            Json::Obj(pairs) => {
                pairs.retain(|(k, _)| k != key);
                pairs.iter_mut().for_each(|(_, v)| v.remove_key(key));
            }
            Json::Arr(items) => items.iter_mut().for_each(|v| v.remove_key(key)),
            _ => {}
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Pretty serialisation (two-space indent). Compact serialisation is
    /// `to_string()`, via [`fmt::Display`].
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form and
                    // always keeps a '.' or exponent, so this re-parses as
                    // Num, never Int.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl PartialEq<str> for Json {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// `value[idx]`, `Json::Null` when out of bounds — mirrors `serde_json`.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

/// `value["key"]`, `Json::Null` when absent — mirrors `serde_json`.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return err("nesting too deep");
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return err("unpaired surrogate");
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("invalid codepoint".into()))?,
                            );
                        }
                        _ => return err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = s.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match s.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => err(format!("invalid number '{s}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec traits.

/// Serialisation into a [`Json`] tree.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

/// Deserialisation from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decode, failing on shape mismatches.
    fn from_json(j: &Json) -> Result<Self, JsonError>;

    /// The value an *absent* object field decodes to, if any. `None` means
    /// the field is required; `Option<T>` overrides this to permit absence
    /// (matching serde's implicit-`None` behaviour).
    fn on_missing() -> Option<Self> {
        None
    }
}

/// Decode object field `name` of `j` — the workhorse of
/// [`impl_json_struct!`](crate::impl_json_struct).
pub fn field<T: FromJson>(j: &Json, name: &str) -> Result<T, JsonError> {
    match j.get(name) {
        Some(v) => T::from_json(v).map_err(|e| JsonError(format!("field '{name}': {}", e.0))),
        None => T::on_missing().ok_or_else(|| JsonError(format!("missing field '{name}'"))),
    }
}

/// Like [`field`], but an absent key decodes to `T::default()` — the
/// replacement for `#[serde(default)]`.
pub fn field_or_default<T: FromJson + Default>(j: &Json, name: &str) -> Result<T, JsonError> {
    match j.get(name) {
        Some(v) => T::from_json(v).map_err(|e| JsonError(format!("field '{name}': {}", e.0))),
        None => Ok(T::default()),
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<bool, JsonError> {
        j.as_bool()
            .ok_or_else(|| JsonError(format!("expected bool, got {j}")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<f64, JsonError> {
        j.as_f64()
            .ok_or_else(|| JsonError(format!("expected number, got {j}")))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t, JsonError> {
                let i = j.as_i64().ok_or_else(|| {
                    JsonError(format!("expected integer, got {j}"))
                })?;
                <$t>::try_from(i).map_err(|_| {
                    JsonError(format!("integer {i} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, usize, i32, i64);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        // Values beyond i64 would wrap; they cannot occur for the version
        // counters and seeds this workspace stores, but degrade to the
        // nearest f64 rather than corrupting silently.
        if *self <= i64::MAX as u64 {
            Json::Int(*self as i64)
        } else {
            Json::Num(*self as f64)
        }
    }
}

impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<u64, JsonError> {
        let i = j
            .as_i64()
            .ok_or_else(|| JsonError(format!("expected integer, got {j}")))?;
        u64::try_from(i).map_err(|_| JsonError(format!("integer {i} out of range for u64")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<String, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError(format!("expected string, got {j}")))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Vec<T>, JsonError> {
        j.as_array()
            .ok_or_else(|| JsonError(format!("expected array, got {j}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Option<T>, JsonError> {
        match j {
            Json::Null => Ok(None),
            v => Ok(Some(T::from_json(v)?)),
        }
    }

    fn on_missing() -> Option<Self> {
        Some(None)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<(A, B), JsonError> {
        match j.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => err(format!("expected 2-element array, got {j}")),
        }
    }
}

/// Generate both codecs — [`ToJson`]/[`FromJson`] and
/// [`Encode`](crate::bin::Encode)/[`Decode`](crate::bin::Decode) — for a
/// struct with named fields from **one** field list: the replacement for
/// `#[derive(Serialize, Deserialize)]`. Invoke in the module defining the
/// struct (private fields are fine).
///
/// ```
/// # use tsvd_rt::impl_json_struct;
/// # use tsvd_rt::json::{FromJson, ToJson};
/// struct Point { x: f64, y: f64 }
/// impl_json_struct!(Point { x, y });
/// ```
///
/// Working memory that is not state goes in a `transient` tail: those
/// fields are written by neither codec and rebuilt on decode from the
/// given expressions, which may name the saved fields.
///
/// ```
/// # use tsvd_rt::impl_json_struct;
/// struct Row { cells: Vec<f64>, dirty: bool, scratch: Vec<f64>, stale: bool }
/// impl_json_struct!(Row { cells, dirty } transient {
///     scratch: Vec::new(),
///     stale: dirty,
/// });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        $crate::impl_json_struct!($ty { $($field),* } transient {});
    };
    ($ty:ident { $($field:ident),* $(,)? } transient { $($extra:ident : $init:expr),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $(let $field = $crate::json::field(j, stringify!($field))?;)*
                Ok($ty { $($field,)* $($extra: $init,)* })
            }
        }
        impl $crate::bin::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::bin::Encode::encode(&self.$field, out);)*
            }
        }
        impl $crate::bin::Decode for $ty {
            // The sum of the saved fields' bounds.
            const MIN_BYTES: usize = 0 $(+ $crate::bin::min_bytes_of(|s: &$ty| &s.$field))*;
            fn decode(c: &mut $crate::bin::Cursor<'_>) -> Result<Self, $crate::bin::BinError> {
                $(let $field = $crate::bin::Decode::decode(c).map_err(|e| {
                    $crate::bin::BinError(format!(
                        "{}.{}: {}", stringify!($ty), stringify!($field), e.0
                    ))
                })?;)*
                Ok($ty { $($field,)* $($extra: $init,)* })
            }
        }
    };
}

/// Generate both codecs for an enum from one variant list. Variants are
/// unit (`A`) or carry named fields (`B { x, y }`).
///
/// JSON is serde's externally-tagged form: a unit variant is its name as a
/// string, a struct variant a single-key object (`{"B":{"x":1,"y":2}}`).
/// Binary is one byte — the variant's position in the list — followed by
/// its fields, so **append new variants, never reorder**.
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($var:ident $({ $($f:ident),* $(,)? })?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($ty::$var $({ $($f),* })? => {
                        let name = stringify!($var).to_string();
                        $crate::impl_json_enum!(@to_json name $({ $($f),* })?)
                    })*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let (tag, body) = match j {
                    $crate::json::Json::Str(s) => (s.as_str(), None),
                    $crate::json::Json::Obj(pairs) if pairs.len() == 1 => {
                        (pairs[0].0.as_str(), Some(&pairs[0].1))
                    }
                    _ => return Err($crate::json::JsonError(format!(
                        "expected a {} variant (string or single-key object), got {j}",
                        stringify!($ty)
                    ))),
                };
                $(if tag == stringify!($var) {
                    return $crate::impl_json_enum!(@from_json $ty $var body $({ $($f),* })?);
                })*
                Err($crate::json::JsonError(format!(
                    "unknown {} variant `{tag}`", stringify!($ty)
                )))
            }
        }
        impl $crate::bin::Encode for $ty {
            #[allow(unused_assignments)]
            fn encode(&self, out: &mut Vec<u8>) {
                let mut index = 0u8;
                $(if let $ty::$var $({ $($f),* })? = self {
                    out.push(index);
                    $($($crate::bin::Encode::encode($f, out);)*)?
                    return;
                }
                index += 1;)*
                unreachable!("every variant is listed");
            }
        }
        impl $crate::bin::Decode for $ty {
            const MIN_BYTES: usize = 1;
            #[allow(unused_assignments)]
            fn decode(c: &mut $crate::bin::Cursor<'_>) -> Result<Self, $crate::bin::BinError> {
                let tag = <u8 as $crate::bin::Decode>::decode(c)?;
                let mut index = 0u8;
                $(if tag == index {
                    return Ok($ty::$var $({ $($f: $crate::bin::Decode::decode(c)?),* })?);
                }
                index += 1;)*
                Err($crate::bin::BinError(format!(
                    "{} has no variant {tag}", stringify!($ty)
                )))
            }
        }
    };
    (@to_json $name:ident) => { $crate::json::Json::Str($name) };
    (@to_json $name:ident { $($f:ident),* }) => {
        $crate::json::Json::Obj(vec![($name, $crate::json::Json::Obj(vec![
            $((stringify!($f).to_string(), $crate::json::ToJson::to_json($f)),)*
        ]))])
    };
    (@from_json $ty:ident $var:ident $body:ident) => {
        match $body {
            None => Ok($ty::$var),
            Some(_) => Err($crate::json::JsonError(format!(
                "{} variant `{}` carries no fields", stringify!($ty), stringify!($var)
            ))),
        }
    };
    (@from_json $ty:ident $var:ident $body:ident { $($f:ident),* }) => {
        match $body {
            Some(body) => Ok($ty::$var {
                $($f: $crate::json::field(body, stringify!($f))?,)*
            }),
            None => Err($crate::json::JsonError(format!(
                "{} variant `{}` needs its fields", stringify!($ty), stringify!($var)
            ))),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_documents() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
        assert_eq!(Json::parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
        let v = Json::parse(r#"{"a": [1, 2.0, "x"], "b": {}}"#).unwrap();
        assert_eq!(v["a"][0], Json::Int(1));
        assert_eq!(v["a"][1], Json::Num(2.0));
        assert_eq!(v["a"][2], "x");
        assert_eq!(v["b"], Json::Obj(vec![]));
        assert_eq!(v["missing"], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{not json at all",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), "é");
        assert_eq!(Json::parse(r#""😀""#).unwrap(), "😀");
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn float_round_trip_is_exact() {
        // The values serde_json's `float_roundtrip` feature exists for.
        let cases = [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308, // subnormal boundary
            1.797_693_134_862_315_7e308,
            -0.000_123_456_789,
            65_536.000_000_000_01,
            std::f64::consts::PI,
        ];
        for &x in &cases {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
        // Non-finite degrades to null (NaN on read), like serde_json.
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert!(f64::from_json(&Json::parse("null").unwrap())
            .unwrap()
            .is_nan());
    }

    #[test]
    fn integers_survive_beyond_f64_precision() {
        let big: u64 = (1 << 53) + 1;
        let text = big.to_json().to_string();
        assert_eq!(u64::from_json(&Json::parse(&text).unwrap()).unwrap(), big);
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{01} é 😀";
        let text = nasty.to_json().to_string();
        assert_eq!(Json::parse(&text).unwrap(), *nasty);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u32, f64)> = vec![(1, 0.5), (7, -2.25)];
        let back: Vec<(u32, f64)> =
            FromJson::from_json(&Json::parse(&v.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(v, back);

        let o: Option<f64> = None;
        assert_eq!(o.to_json(), Json::Null);
        let s: Option<f64> = Some(1.5);
        assert_eq!(Option::<f64>::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn struct_and_enum_macros() {
        #[derive(Debug, PartialEq, Default)]
        struct Rec {
            id: u32,
            score: f64,
            tags: Vec<String>,
            note: Option<String>,
        }
        impl_json_struct!(Rec {
            id,
            score,
            tags,
            note
        });

        #[derive(Debug, PartialEq)]
        enum Kind {
            A,
            B,
        }
        impl_json_enum!(Kind { A, B });

        let r = Rec {
            id: 9,
            score: 0.25,
            tags: vec!["x".into()],
            note: None,
        };
        let text = r.to_json().to_string_pretty();
        let back = Rec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);

        assert_eq!(Kind::A.to_json(), Json::Str("A".into()));
        assert_eq!(
            Kind::from_json(&Json::parse("\"B\"").unwrap()).unwrap(),
            Kind::B
        );
        assert!(Kind::from_json(&Json::parse("\"C\"").unwrap()).is_err());

        // Missing required field errors; missing Option field is None.
        let partial = Json::parse(r#"{"id": 1, "score": 2.0, "tags": []}"#).unwrap();
        let rec = Rec::from_json(&partial).unwrap();
        assert_eq!(rec.note, None);
        let broken = Json::parse(r#"{"id": 1}"#).unwrap();
        assert!(Rec::from_json(&broken).is_err());

        // field_or_default replaces #[serde(default)].
        let d: Rec = field_or_default(&Json::parse("{}").unwrap(), "absent").unwrap();
        assert_eq!(d, Rec::default());
    }

    #[test]
    fn one_field_list_feeds_both_codecs() {
        use crate::bin::{decode_all, Encode};

        #[derive(Debug, PartialEq)]
        struct Row {
            cells: Vec<(u32, f64)>,
            dirty: bool,
            scratch: Vec<f64>,
            stale: bool,
        }
        impl_json_struct!(Row { cells, dirty } transient {
            scratch: Vec::new(),
            stale: dirty,
        });

        #[derive(Debug, PartialEq)]
        enum Rule {
            Never,
            Above { threshold: f64, streak: u32 },
            Always,
        }
        impl_json_enum!(Rule {
            Never,
            Above { threshold, streak },
            Always
        });

        let row = Row {
            cells: vec![(4, 0.5)],
            dirty: true,
            scratch: vec![9.0], // working memory: written by neither codec
            stale: false,
        };
        let rebuilt = Row {
            cells: vec![(4, 0.5)],
            dirty: true,
            scratch: vec![],
            stale: true,
        };
        assert_eq!(
            row.to_json().to_string(),
            r#"{"cells":[[4,0.5]],"dirty":true}"#
        );
        assert_eq!(Row::from_json(&row.to_json()).unwrap(), rebuilt);
        let mut bytes = Vec::new();
        row.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + 12 + 1);
        // The bound a count of rows is checked at: the saved fields' own.
        assert_eq!(<Row as crate::bin::Decode>::MIN_BYTES, 4 + 1);
        assert_eq!(decode_all::<Row>(&bytes).unwrap(), rebuilt);
        let err = decode_all::<Row>(&bytes[..5]).unwrap_err();
        assert!(err.0.starts_with("Row.cells:"), "{err}");

        let rules = [
            (Rule::Never, r#""Never""#, vec![0u8]),
            (
                Rule::Above {
                    threshold: 1.0,
                    streak: 2,
                },
                r#"{"Above":{"threshold":1.0,"streak":2}}"#,
                [&[1u8][..], &1.0f64.to_le_bytes(), &2u32.to_le_bytes()].concat(),
            ),
            (Rule::Always, r#""Always""#, vec![2u8]),
        ];
        for (rule, text, bin) in rules {
            assert_eq!(rule.to_json().to_string(), text);
            assert_eq!(Rule::from_json(&Json::parse(text).unwrap()).unwrap(), rule);
            let mut bytes = Vec::new();
            rule.encode(&mut bytes);
            assert_eq!(bytes, bin);
            assert_eq!(decode_all::<Rule>(&bytes).unwrap(), rule);
        }
        for bad in [r#""Above""#, r#"{"Never":{}}"#, r#"{"Above":{"streak":2}}"#] {
            assert!(
                Rule::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
        assert!(decode_all::<Rule>(&[3]).is_err());
        assert!(decode_all::<Rule>(&[1, 0]).is_err());
    }

    #[test]
    fn remove_key_reaches_every_depth() {
        let mut v = Json::parse(r#"{"t":1,"a":[{"t":2,"b":3},[{"t":4}]],"c":{"t":{"t":5},"d":6}}"#)
            .unwrap();
        v.remove_key("t");
        assert_eq!(v.to_string(), r#"{"a":[{"b":3},[{}]],"c":{"d":6}}"#);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::object([
            ("table", Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("name", Json::Str("exp".into())),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }
}
