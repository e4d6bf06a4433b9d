//! The workspace's one JSON module: the escaper and number form every
//! hand-rolled writer uses (the trace exporter, `Figure::list_to_json` in
//! `lor-core`), and the syntax check that reads their documents back.  The
//! check follows the JSON grammar and keeps no data model: it answers
//! "would `JSON.parse`, and so Perfetto, accept this text", and names the
//! byte where it would not.

/// Escapes a string as a JSON string literal — the one escaper every
/// hand-rolled JSON writer in the workspace shares.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
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
    out
}

/// Renders a number as a JSON value (`null` when it is not finite, which
/// JSON cannot express).
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Checks that `text` is one JSON value, optionally surrounded by
/// whitespace.  The error names the byte offset of the first violation.
pub fn check_syntax(text: &str) -> Result<(), String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.value(0)?;
    match parser.peek() {
        Some(_) => Err(parser.err("trailing content")),
        None => Ok(()),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| set.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON syntax error at byte {}: {}", self.pos, msg)
    }

    /// Consumes `text`, or fails naming it.
    fn expect(&mut self, text: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    /// One value and the whitespace around it.
    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.container(b'}', depth)?,
            Some(b'[') => self.container(b']', depth)?,
            Some(b'"') => self.string()?,
            Some(b't') => self.expect("true")?,
            Some(b'f') => self.expect("false")?,
            Some(b'n') => self.expect("null")?,
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        }
        self.skip_ws();
        Ok(())
    }

    /// An object (`close` is `}`: `"key": value` members) or an array
    /// (`]`: bare values), from its opening bracket on.
    fn container(&mut self, close: u8, depth: usize) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(&[close]) {
            return Ok(());
        }
        loop {
            if close == b'}' {
                self.string()?;
                self.skip_ws();
                self.expect(":")?;
            }
            self.value(depth + 1)?;
            if self.eat(&[close]) {
                return Ok(());
            }
            self.expect(",")?;
            self.skip_ws();
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect("\"")?;
        while let Some(byte) = self.peek() {
            self.pos += 1;
            match byte {
                b'"' => return Ok(()),
                b'\\' if self.eat(b"\"\\/bfnrt") => {}
                b'\\' if self.eat(b"u") => {
                    let hex = self.bytes[self.pos..].iter().take(4);
                    if hex.filter(|c| c.is_ascii_hexdigit()).count() < 4 {
                        return Err(self.err("\\u escape needs four hex digits"));
                    }
                    self.pos += 4;
                }
                b'\\' => return Err(self.err("invalid escape")),
                0..=0x1f => return Err(self.err("control character in string")),
                _ => {}
            }
        }
        Err(self.err("unterminated string"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<(), String> {
        self.eat(b"-");
        if !self.eat(b"0") {
            self.digits()?;
        }
        if self.eat(b".") {
            self.digits()?;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            self.digits()?;
        }
        Ok(())
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.eat(b"0123456789") {
            return Err(self.err("malformed number"));
        }
        while self.eat(b"0123456789") {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Texts `JSON.parse` rejects: a raw control character in a string, an
    /// unknown or short escape, and numbers off the grammar.
    #[test]
    fn rejects_what_json_parse_rejects() {
        let strings = [
            "{\"a\": \"x\ny\"}",
            "[\"\t\"]",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
        ];
        let numbers = "1.2.3 01 1e 1-2 - 1. .5 +1 1e+ -01 [01] [1-2]".split(' ');
        for bad in strings.into_iter().chain(numbers) {
            assert!(check_syntax(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn accepts_the_json_grammar() {
        check_syntax("[0, -0, 1.25, -0.5e9, 2E-3, 4.5e+10, {}, [ ], true, false]").unwrap();
        check_syntax(" \"\\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u001F \\u00e9 é\" ").unwrap();
    }
}
