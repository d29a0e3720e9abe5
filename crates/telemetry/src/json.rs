//! Tiny hand-rolled JSON support: escaping, number formatting, and a
//! validating parser.
//!
//! The workspace builds offline with no external crates, so exporters
//! assemble JSON by hand. The validator exists so tests (and the
//! `trace_request` example) can prove emitted artifacts are well-formed
//! without a serde dependency.

/// Escapes `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number (finite; falls back to 0 for NaN/inf,
/// which JSON cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "0".to_string()
    }
}

/// A parsed JSON value, for tests and report tooling that need to inspect
/// exported documents (object member order is preserved).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.trunc() == *n => Some(*n as u64),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An object from `(name, value)` pairs, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the tree as JSON text, ending in a newline, that [`parse`]
    /// reads back to an equal tree: strings through [`escape`], numbers
    /// through [`num`] (so a non-finite number is written, and read back,
    /// as 0). An array of scalars, and an object whose members are scalars
    /// or arrays of scalars, take one line; anything deeper takes one line
    /// per element, so a table of rows reads (and diffs) a row per line.
    pub fn render(&self) -> String {
        self.text(0) + "\n"
    }

    /// Levels of container at and below this value (0 for a scalar).
    fn height(&self) -> usize {
        match self {
            Value::Arr(items) => 1 + items.iter().map(Value::height).max().unwrap_or(0),
            Value::Obj(members) => 1 + members.iter().map(|(_, v)| v.height()).max().unwrap_or(0),
            _ => 0,
        }
    }

    fn text(&self, depth: usize) -> String {
        let member = |(k, v): &(String, Value)| format!("\"{}\": {}", escape(k), v.text(depth + 1));
        let (open, close, one_line, parts): (_, _, _, Vec<String>) = match self {
            Value::Null => return "null".to_string(),
            Value::Bool(b) => return b.to_string(),
            Value::Num(n) => return num(*n),
            Value::Str(s) => return format!("\"{}\"", escape(s)),
            Value::Arr(items) => {
                let parts = items.iter().map(|v| v.text(depth + 1)).collect();
                ('[', ']', self.height() <= 1, parts)
            }
            Value::Obj(members) => (
                '{',
                '}',
                self.height() <= 2,
                members.iter().map(member).collect(),
            ),
        };
        if one_line || parts.is_empty() {
            return format!("{open}{}{close}", parts.join(", "));
        }
        let pad = "  ".repeat(depth);
        format!(
            "{open}\n{pad}  {}\n{pad}{close}",
            parts.join(&format!(",\n{pad}  "))
        )
    }
}

/// Parses `s` as one complete JSON value. Returns the byte offset and
/// message of the first error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates that `s` is one complete JSON value. Returns the byte offset
/// and message of the first error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code = 0u32;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => {
                                        code = code * 16 + (h as char).to_digit(16).unwrap();
                                        self.pos += 1;
                                    }
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                            // Surrogate halves decode to U+FFFD; exporters
                            // here never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        Some(e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(match e {
                                b'b' => '\u{8}',
                                b'f' => '\u{c}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.pos += 1;
                        }
                        _ => return self.err("bad escape"),
                    };
                }
                c if c < 0x20 => return self.err("raw control char in string"),
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences from raw bytes.
                    let start = self.pos - 1;
                    let width = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = (start + width).min(self.b.len());
                    match std::str::from_utf8(&self.b[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                }
            }
        }
        self.err("unterminated string")
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
            saw_digit = true;
        }
        if !saw_digit {
            return self.err("expected digits");
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Arbitrary trees up to `0` levels of container deep: every scalar
    /// kind, strings that need every escape, integers to 2^53, fractions,
    /// and containers that are often empty.
    struct Tree(u32);

    impl Strategy for Tree {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Option<Value> {
            let text = |rng: &mut TestRng| {
                let pick = [
                    "",
                    "plain",
                    "q\"uote",
                    "back\\slash",
                    "nl\n\r\t",
                    "\u{1}\u{1f}",
                    "é π 🦀",
                ];
                let n = rng.gen_range(0, 4) as usize;
                (0..n)
                    .map(|_| pick[rng.gen_range(0, pick.len() as u128) as usize])
                    .collect::<String>()
            };
            let kinds = if self.0 == 0 { 6 } else { 8 };
            Some(match rng.gen_range(0, kinds) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen_ratio(1, 2)),
                2 => Value::Num(rng.gen_range(0, (1u128 << 53) + 1) as f64),
                3 => Value::Num(-(rng.gen_range(0, 1 << 53) as f64)),
                4 => Value::Num(rng.gen_range(0, 1 << 40) as f64 / 1024.0 - 1e6),
                5 => Value::Str(text(rng)),
                6 => Value::Arr(
                    (0..rng.gen_range(0, 4))
                        .map(|_| Tree(self.0 - 1).generate(rng).expect("unfiltered"))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.gen_range(0, 4))
                        .map(|_| {
                            let v = Tree(self.0 - 1).generate(rng).expect("unfiltered");
                            (text(rng), v)
                        })
                        .collect(),
                ),
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn render_then_parse_is_identity(v in Tree(4)) {
            let text = v.render();
            prop_assert_eq!(parse(&text).as_ref(), Ok(&v), "{}", text);
        }
    }

    #[test]
    fn render_writes_non_finite_numbers_as_zero_and_rows_on_one_line() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(parse(&Value::Num(n).render()), Ok(Value::Num(0.0)));
        }
        let row = |q: f64| {
            Value::obj([
                ("q", Value::Num(q)),
                ("shards", Value::Arr(vec![Value::Num(q)])),
            ])
        };
        let doc = Value::obj([
            ("params", Value::obj([("keys", Value::Num(8.0))])),
            ("points", Value::Arr(vec![row(1.0), row(2.0)])),
            ("none", Value::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"params\": {\"keys\": 8},\n  \"points\": [\n    {\"q\": 1, \"shards\": [1]},\n    \
             {\"q\": 2, \"shards\": [2]}\n  ],\n  \"none\": []\n}\n"
        );
    }

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "0",
            "-1.5e3",
            "\"a\\nb\"",
            r#"{"a": [1, 2.5, {"b": null}], "c": "x", "d": true}"#,
        ] {
            assert!(validate(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} {}",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let s = format!("\"{}\"", escape("weird \"str\" \\ \n \t \u{1} ok"));
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(f64::NAN), "0");
    }

    #[test]
    fn parse_builds_values_with_member_order() {
        let v = parse(r#"{"b": [1, -2.5, "x\ny"], "a": {"n": null, "t": true}}"#).unwrap();
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().get("n"), Some(&Value::Null));
        assert_eq!(v.get("a").unwrap().get("t"), Some(&Value::Bool(true)));
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"], "member order preserved");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_round_trips_escapes_and_unicode() {
        let original = "tab\t quote\" back\\ nl\n é π \u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
        // \uXXXX escapes decode too.
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }
}
