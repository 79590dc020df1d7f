//! The JSON string escaper shared by every JSON emitter in the
//! workspace: the Chrome export, the lint diagnostics and the
//! sweep/serve `Json` value.

use std::fmt::{self, Write};

/// Renders a string as a JSON string literal, quotes included. `"` and
/// `\` are backslash-escaped, newline, carriage return and tab take
/// their short escapes, every other control character its `\u00XX`
/// form; everything else, non-ASCII included, passes through.
///
/// ```
/// use ams_scope::json::JsonStr;
/// assert_eq!(JsonStr("a\"b\n\u{1}").to_string(), r#""a\"b\n\u0001""#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}
