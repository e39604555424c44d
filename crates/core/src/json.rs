//! The one JSON codec of the run journal (DESIGN.md §13) and the service
//! wire protocol (§14), in both directions. [`Json::parse`] reads a line:
//! nesting is capped at [`MAX_JSON_DEPTH`], strings are scanned in linear
//! time, and numbers stay text until read, so `u64` counters never pass
//! through `f64`. [`Obj`] writes an object straight onto the output line,
//! escaping strings in place. [`object!`] declares a type's fields once,
//! in key order, and both directions read that one list. No other module
//! escapes strings or writes JSON punctuation.

use oscache_memsys::SortedCounts;
use std::fmt::Write as _;
use std::marker::PhantomData;

/// Writes `s` as a JSON string onto `out`. Every byte that needs an escape
/// is ASCII, so the runs copied between escapes are whole characters.
pub(crate) fn put_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        let _ = match b {
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            b'"' | b'\\' => write!(out, "\\{}", char::from(b)),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes `items` as an array, each element by `put`.
pub(crate) fn put_arr<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    mut put: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(x, out);
    }
    out.push(']');
}

/// An object being written onto a line; [`Obj::close`] ends it.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    /// Writes `"name":` and returns the line, for the field's value.
    pub(crate) fn key(&mut self, name: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        self.out
    }

    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// A type with one JSON form.
pub(crate) trait Value: Sized {
    fn put(&self, out: &mut String);
    fn get(j: &Json) -> Result<Self, String>;
}

/// `v` as one line, without its newline.
pub(crate) fn to_line(v: &impl Value) -> String {
    let mut out = String::new();
    v.put(&mut out);
    out
}

/// Parses one line as a `T`.
pub(crate) fn from_line<T: Value>(line: &str) -> Result<T, String> {
    T::get(&Json::parse(line)?)
}

macro_rules! numbers {
    ($($t:ty),+) => {$(
        impl Value for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(j: &Json) -> Result<Self, String> {
                let s = j.num()?;
                s.parse().map_err(|_| format!("not a {}: {s:?}", stringify!($t)))
            }
        }
    )+};
}
// `f64` prints its shortest text that parses back to the same bits.
numbers!(u16, u32, u64, usize, f64);

impl Value for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn get(j: &Json) -> Result<Self, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl Value for String {
    fn put(&self, out: &mut String) {
        put_str(self, out);
    }
    fn get(j: &Json) -> Result<Self, String> {
        j.str().map(str::to_string)
    }
}

impl<T: Value> Value for Vec<T> {
    fn put(&self, out: &mut String) {
        put_arr(self, out, T::put);
    }
    fn get(j: &Json) -> Result<Self, String> {
        j.arr()?.iter().map(T::get).collect()
    }
}

impl<const N: usize> Value for [u64; N] {
    fn put(&self, out: &mut String) {
        put_arr(self, out, u64::put);
    }
    fn get(j: &Json) -> Result<Self, String> {
        let v: Vec<u64> = Vec::get(j)?;
        let n = v.len();
        v.try_into()
            .map_err(|_| format!("expected {N} elements, got {n}"))
    }
}

/// A count-map key: the leading `ARITY` elements of its entry's array.
pub(crate) trait MapKey: Copy + Ord {
    const ARITY: usize;
    fn put_key(&self, out: &mut String);
    fn get_key(items: &[Json]) -> Result<Self, String>;
}

impl<K: Value + Copy + Ord> MapKey for K {
    const ARITY: usize = 1;
    fn put_key(&self, out: &mut String) {
        self.put(out);
    }
    fn get_key(items: &[Json]) -> Result<Self, String> {
        K::get(&items[0])
    }
}

impl<A: MapKey + Value, B: MapKey + Value> MapKey for (A, B) {
    const ARITY: usize = 2;
    fn put_key(&self, out: &mut String) {
        self.0.put(out);
        out.push(',');
        self.1.put(out);
    }
    fn get_key(items: &[Json]) -> Result<Self, String> {
        Ok((A::get(&items[0])?, B::get(&items[1])?))
    }
}

/// A count map: an array of `[key..., count]` entries sorted by key, so
/// equal counters write equal bytes. A reader accepts the entries in any
/// order and rejects a key that appears twice.
pub(crate) struct Counts;

impl Counts {
    /// Writes `entries`, which are in key order.
    pub(crate) fn put_entries<K: MapKey>(
        entries: impl IntoIterator<Item = (K, u64)>,
        out: &mut String,
    ) {
        put_arr(entries, out, |(k, v), out| {
            out.push('[');
            k.put_key(out);
            let _ = write!(out, ",{v}]");
        });
    }

    /// Reads the entries of field `name`, sorted by key.
    pub(crate) fn get_entries<K: MapKey>(j: &Json, name: &str) -> Result<Vec<(K, u64)>, String> {
        let entry = |e: &Json| match e.arr()? {
            items if items.len() == K::ARITY + 1 => {
                Ok((K::get_key(items)?, u64::get(&items[K::ARITY])?))
            }
            _ => Err(format!("map entries need {} elements", K::ARITY + 1)),
        };
        let mut entries = j.arr()?.iter().map(entry).collect::<Result<Vec<_>, _>>()?;
        entries.sort_unstable_by_key(|&(k, _)| k);
        if let Some(pair) = entries.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            let mut key = String::new();
            pair[0].0.put_key(&mut key);
            return Err(format!("duplicate key [{key}] in {name:?}"));
        }
        Ok(entries)
    }
}

impl<K: MapKey> Codec<SortedCounts<K>> for Counts {
    fn put(v: &SortedCounts<K>, name: &str, w: &mut Obj<'_>) {
        Counts::put_entries(v.entries().iter().copied(), w.key(name));
    }
    fn get(
        found: Result<&Json, String>,
        name: &str,
        into: &mut SortedCounts<K>,
    ) -> Result<(), String> {
        *into = Counts::get_entries(found?, name)?.into_iter().collect();
        Ok(())
    }
}

/// How an [`object!`] field is written and read.
pub(crate) trait Codec<T> {
    /// Writes field `name` holding `v`, or leaves it out.
    fn put(v: &T, name: &str, w: &mut Obj<'_>);
    /// Reads field `name` into `into`, given its value or why it is
    /// missing.
    fn get(found: Result<&Json, String>, name: &str, into: &mut T) -> Result<(), String>;
}

/// The type's own [`Value`] form; the field is required.
pub(crate) struct Plain;

impl<T: Value> Codec<T> for Plain {
    fn put(v: &T, name: &str, w: &mut Obj<'_>) {
        v.put(w.key(name));
    }
    fn get(found: Result<&Json, String>, _: &str, into: &mut T) -> Result<(), String> {
        *into = T::get(found?)?;
        Ok(())
    }
}

/// An `f64` at one decimal (wire milliseconds and MiB).
pub(crate) struct Tenths;

impl Codec<f64> for Tenths {
    fn put(v: &f64, name: &str, w: &mut Obj<'_>) {
        let _ = write!(w.key(name), "{v:.1}");
    }
    fn get(found: Result<&Json, String>, name: &str, into: &mut f64) -> Result<(), String> {
        Plain::get(found, name, into)
    }
}

/// An optional field: left out when `None`, `None` when absent.
pub(crate) struct Opt;

impl<T: Value> Codec<Option<T>> for Opt {
    fn put(v: &Option<T>, name: &str, w: &mut Obj<'_>) {
        if let Some(v) = v {
            v.put(w.key(name));
        }
    }
    fn get(found: Result<&Json, String>, _: &str, into: &mut Option<T>) -> Result<(), String> {
        *into = found.ok().map(T::get).transpose()?;
        Ok(())
    }
}

/// Codec `C`, except that an absent or malformed value keeps the default.
pub(crate) struct OrDefault<C>(PhantomData<C>);

impl<T, C: Codec<T>> Codec<T> for OrDefault<C> {
    fn put(v: &T, name: &str, w: &mut Obj<'_>) {
        C::put(v, name, w);
    }
    fn get(found: Result<&Json, String>, name: &str, into: &mut T) -> Result<(), String> {
        let _ = C::get(found, name, into);
        Ok(())
    }
}

/// A type written as a JSON object, by its [`object!`] field list.
pub(crate) trait Fields: Default {
    /// The JSON keys, in order.
    const NAMES: &'static [&'static str];
    /// Writes every field into an open object.
    fn put_fields(&self, w: &mut Obj<'_>);
    /// Reads every field of object `j` onto the default value.
    fn get_fields(j: &Json) -> Result<Self, String>;
}

impl<T: Fields> Value for T {
    fn put(&self, out: &mut String) {
        let mut w = Obj::open(out);
        self.put_fields(&mut w);
        w.close();
    }
    fn get(j: &Json) -> Result<Self, String> {
        T::get_fields(j)
    }
}

/// `object!(Type { "key" => field, "other" => other: Codec, ... })`
/// implements [`Fields`] for `Type`: one entry per JSON key, in order,
/// naming the struct field it carries and optionally the [`Codec`] it is
/// written and read with ([`Plain`] when omitted).
macro_rules! object {
    ($ty:ty { $($name:literal => $field:ident $(: $codec:ty)?),+ $(,)? }) => {
        impl $crate::json::Fields for $ty {
            const NAMES: &'static [&'static str] = &[$($name),+];
            fn put_fields(&self, w: &mut $crate::json::Obj<'_>) {
                $(<$crate::json::object!(@codec $($codec)?) as $crate::json::Codec<_>>::put(
                    &self.$field, $name, w,
                );)+
            }
            fn get_fields(j: &$crate::json::Json) -> Result<Self, String> {
                let mut v = Self::default();
                $(<$crate::json::object!(@codec $($codec)?) as $crate::json::Codec<_>>::get(
                    j.field($name), $name, &mut v.$field,
                )?;)+
                Ok(v)
            }
        }
    };
    (@codec) => { $crate::json::Plain };
    (@codec $codec:ty) => { $codec };
}
pub(crate) use object;

/// A parsed JSON value. Numbers stay as their source text until a typed
/// accessor parses them, so 64-bit counters round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    /// A number, unparsed.
    Num(String),
    Bool(bool),
    Null,
}

impl Json {
    /// Parses one JSON value from `text` (trailing whitespace allowed).
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        match p.peek() {
            None => Ok(v),
            Some(_) => Err(format!("trailing bytes at offset {}", p.pos)),
        }
    }

    pub(crate) fn field(&self, name: &str) -> Result<&Json, String> {
        let Json::Obj(fields) = self else {
            return Err(format!("expected object while reading field {name:?}"));
        };
        let found = fields.iter().find(|(k, _)| k == name);
        found
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    /// A number's source text.
    pub(crate) fn num(&self) -> Result<&str, String> {
        match self {
            Json::Num(s) => Ok(s),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    pub(crate) fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    pub(crate) fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts, far above any
/// journal record or service request; the bound keeps a hostile line
/// from overflowing the recursive parser's stack.
const MAX_JSON_DEPTH: usize = 32;

/// A cursor over one line's bytes.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.pos) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() != Some(ch) {
            return Err(format!(
                "expected {:?} at offset {}",
                char::from(ch),
                self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// The comma-separated items of an object or array up to `close`,
    /// after its opening bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at offset {}", self.pos));
                }
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        let next = self.peek();
        if matches!(next, Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
            let pos = self.pos;
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at offset {pos}"
            ));
        }
        match next {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') =
                    self.b.get(self.pos)
                {
                    self.pos += 1;
                }
                // Only ASCII was taken, so the text is valid UTF-8.
                let text = String::from_utf8_lossy(&self.b[start..self.pos]);
                Ok(Json::Num(text.into_owned()))
            }
            _ => {
                let rest = &self.b[self.pos..];
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(format!("unexpected byte at offset {}", self.pos))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote or backslash,
            // validating it once: both delimiters are ASCII, so a run
            // never splits a multibyte scalar, and the parse stays linear
            // in the line's length.
            let rest = &self.b[self.pos..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let escape = self.b.get(self.pos).copied();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self
                        .b
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or("invalid \\u escape")?
                }
                _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_scalars() {
        let j = Json::parse(r#"{"a":18446744073709551615,"b":"x\"\\y","c":[1,2],"d":-3.5}"#)
            .expect("parses");
        assert_eq!(u64::get(j.field("a").unwrap()).unwrap(), u64::MAX);
        assert_eq!(j.field("b").unwrap().str().unwrap(), "x\"\\y");
        assert_eq!(j.field("c").unwrap().arr().unwrap().len(), 2);
        assert_eq!(f64::get(j.field("d").unwrap()).unwrap(), -3.5);
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{}trailing").is_err());
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(32)).is_ok());
        let err = Json::parse(&nested(33)).unwrap_err();
        assert!(err.contains("nesting deeper than 32"), "{err}");
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_an_error() {
        let string = |b: &[u8]| {
            let mut p = Parser { b, pos: 0 };
            p.string().map(|s| (s, p.pos))
        };
        assert!(string(b"\"ok \xff\xfe bad\"").is_err());
        assert!(string(b"\"cut \xe2\x82\"").is_err());
        assert_eq!(string(b"\"caf\xc3\xa9\"").unwrap(), ("café".to_string(), 7));
        assert!(string(b"\"no end").is_err());
        assert!(string(br#""bad \q escape""#).is_err());
    }

    #[test]
    fn strings_escape_in_place_and_parse_back() {
        let text = "Ω \"q\" \\ \t\r\n\u{1}\u{1f}\u{7f} 😀";
        let mut out = String::new();
        put_str(text, &mut out);
        assert_eq!(out, "\"Ω \\\"q\\\" \\\\ \\t\\r\\n\\u0001\\u001f\u{7f} 😀\"");
        assert_eq!(Json::parse(&out).unwrap().str().unwrap(), text);
    }
}
