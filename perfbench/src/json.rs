//! A minimal JSON writer for the runner's report. The workspace's serde
//! is a no-op stand-in, so the report is assembled by hand.

use std::fmt::Write;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`; also how a non-finite number is written.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite float, written in Rust's shortest round-trip form.
    Num(f64),
    /// An unsigned integer, written exactly.
    Int(u64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (no-op on other variants).
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Serializes to one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes_strings() {
        let j = Json::obj()
            .set("a", 1.5)
            .set("b", 7u64)
            .set("c", "q\"\\\n\u{1}")
            .set("d", vec![Json::Bool(true), Json::Null])
            .set("e", f64::NAN);
        assert_eq!(
            j.render(),
            r#"{"a":1.5,"b":7,"c":"q\"\\\n\u0001","d":[true,null],"e":null}"#
        );
    }
}
