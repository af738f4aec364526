//! Offline stand-in for `serde_json`: renders the serde shim's
//! [`Content`] tree as JSON text.

use serde::{Content, Serialize};

/// Serialization error (the shim's renderer is total; kept for API parity).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_content(), None, 0, &mut out);
    Ok(out)
}

/// Renders `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_content(), Some(2), 0, &mut out);
    Ok(out)
}

fn render(content: &Content, indent: Option<usize>, depth: usize, out: &mut String) {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(n) => out.push_str(&n.to_string()),
        Content::I64(n) => out.push_str(&n.to_string()),
        Content::F64(x) => {
            if x.is_finite() {
                // Match serde_json: integral floats keep a trailing `.0`.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&x.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => render_string(s, out),
        Content::Array(items) => {
            render_container(items.iter(), '[', ']', indent, depth, out, |item, out| {
                render(item, indent, depth + 1, out);
            });
        }
        Content::Object(entries) => {
            render_container(
                entries.iter(),
                '{',
                '}',
                indent,
                depth,
                out,
                |(k, v), out| {
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    render(v, indent, depth + 1, out);
                },
            );
        }
    }
}

fn render_container<I, F>(
    items: I,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut each: F,
) where
    I: ExactSizeIterator,
    F: FnMut(I::Item, &mut String),
{
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        each(item, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty_json() {
        let value = Content::Object(vec![
            ("name".to_string(), Content::Str("fig7a".to_string())),
            ("threads".to_string(), Content::U64(8)),
            ("speedup".to_string(), Content::F64(3.0)),
            (
                "series".to_string(),
                Content::Array(vec![Content::U64(1), Content::U64(2)]),
            ),
        ]);
        struct Wrapper(Content);
        impl Serialize for Wrapper {
            fn to_content(&self) -> Content {
                self.0.clone()
            }
        }
        let text = to_string_pretty(&Wrapper(value)).unwrap();
        assert_eq!(
            text,
            "{\n  \"name\": \"fig7a\",\n  \"threads\": 8,\n  \"speedup\": 3.0,\n  \"series\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn escapes_strings() {
        let text = to_string(&"a\"b\\c\nd").unwrap();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\"");
    }
}
