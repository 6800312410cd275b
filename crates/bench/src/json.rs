//! The one JSON writer behind `BENCH_figures.json`.
//!
//! Layout, so that a section diffs one grid cell per line: a non-empty
//! array of objects prints one element per line, two spaces deeper than
//! the line the array opens on; an object breaks one key per line the
//! same way only when it has two or more keys and every value is such an
//! array; everything else prints on one line.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float printed with a fixed number of decimals (`{:.N}`), or as
    /// `null` when it is not finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in insertion order.
    Object(Vec<(&'static str, Value)>),
}

impl Value {
    /// The value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as if the value started on a line indented by `indent`
    /// spaces (a top-level section of `BENCH_figures.json` opens at 2).
    pub(crate) fn render(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent);
        out
    }

    /// A non-empty array of objects: the shape that breaks lines.
    fn is_grid(&self) -> bool {
        matches!(self, Value::Array(items)
            if !items.is_empty() && items.iter().all(|v| matches!(v, Value::Object(_))))
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, broken, entries): (_, _, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => return out.push_str(&n.to_string()),
            Value::Fixed(v, decimals) if v.is_finite() => {
                return out.push_str(&format!("{v:.decimals$}"));
            }
            Value::Fixed(..) => return out.push_str("null"),
            Value::Str(s) => return write_str(out, s),
            Value::Array(items) => {
                let entries = items.iter().map(|v| (None, v)).collect();
                ('[', ']', self.is_grid(), entries)
            }
            Value::Object(fields) => {
                let broken = fields.len() >= 2 && fields.iter().all(|(_, v)| v.is_grid());
                let entries = fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                ('{', '}', broken, entries)
            }
        };
        // Broken: one entry per line, two spaces deeper than this line.
        let at = if broken { indent + 2 } else { indent };
        out.push(open);
        for (i, (key, v)) in entries.into_iter().enumerate() {
            if broken {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.extend(std::iter::repeat_n(' ', at));
            } else if i > 0 {
                out.push_str(", ");
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            v.write(out, at);
        }
        if broken {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        }
        out.push(close);
    }
}

/// `s` as a quoted JSON string: `"` and `\` escaped, control characters
/// as `\u00XX`.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(n: u64) -> Value {
        Value::Object(vec![("n", n.into()), ("ok", true.into())])
    }

    #[test]
    fn an_array_of_objects_breaks_two_spaces_deeper_than_its_line() {
        let grid = Value::Array(vec![cell(1), cell(2)]);
        let rows = "{\"n\": 1, \"ok\": true},\n    {\"n\": 2, \"ok\": true}";
        assert_eq!(grid.render(2), format!("[\n    {rows}\n  ]"));
        // Inside an inline object the array opens on the object's line.
        let row = Value::Object(vec![("name", "a".into()), ("points", grid)]);
        let nested =
            "[\n    {\"name\": \"a\", \"points\": [\n      {\"n\": 1, \"ok\": true},\n      \
                      {\"n\": 2, \"ok\": true}\n    ]}\n  ]";
        assert_eq!(Value::Array(vec![row]).render(2), nested);
        let mixed = Value::Array(vec![1u64.into(), cell(3), Value::Null]);
        assert_eq!(mixed.render(2), "[1, {\"n\": 3, \"ok\": true}, null]");
        assert_eq!(Value::Array(vec![]).render(2), "[]");
    }

    #[test]
    fn only_an_object_of_two_or_more_grids_breaks_per_key() {
        let grid = || Value::Array(vec![cell(1)]);
        let two = Value::Object(vec![("a", grid()), ("b", grid())]);
        let want = "{\n    \"a\": [\n      {\"n\": 1, \"ok\": true}\n    ],\n    \"b\": [\n      \
                    {\"n\": 1, \"ok\": true}\n    ]\n  }";
        assert_eq!(two.render(2), want);
        let one = Value::Object(vec![("a", grid())]);
        assert_eq!(
            one.render(2),
            "{\"a\": [\n    {\"n\": 1, \"ok\": true}\n  ]}"
        );
        let mixed = Value::Object(vec![("a", grid()), ("b", Value::Null)]);
        assert!(mixed.render(2).starts_with("{\"a\": [\n"));
        assert_eq!(Value::Object(vec![]).render(2), "{}");
    }

    #[test]
    fn strings_and_keys_escape_quotes_backslashes_and_control_characters() {
        let s = Value::from("a\"b\\c\nd\u{1}e\u{7f}é");
        assert_eq!(s.render(0), "\"a\\\"b\\\\c\\u000ad\\u0001e\u{7f}é\"");
        let keyed = Value::Object(vec![("k\"", None::<u64>.into())]);
        assert_eq!(keyed.render(0), "{\"k\\\"\": null}");
    }

    #[test]
    fn floats_print_at_their_fixed_precision() {
        for (decimals, want) in [(0, "1235"), (1, "1234.6"), (2, "1234.57"), (4, "1234.5679")] {
            assert_eq!(Value::Fixed(1234.56789, decimals).render(0), want);
        }
        assert_eq!(Value::Fixed(0.0, 4).render(0), "0.0000");
        assert_eq!(Value::Fixed(f64::NAN, 2).render(0), "null");
        assert_eq!(Value::Fixed(f64::INFINITY, 1).render(0), "null");
    }
}
