//! The bench-regression gate: parse two `BENCH_*.json` trajectory files and
//! diff them with tolerances.
//!
//! The workspace has no serialization dependency, so this module carries a
//! minimal hand-rolled JSON parser sufficient for the files `jsonout`
//! emits (objects, arrays, strings, numbers, booleans, null). Comparison
//! rules: deterministic fields (strings, booleans, nulls, and values both
//! sides render as integers) must match exactly; anything floating-point is
//! allowed a relative tolerance, so intentional model refinements within the
//! band don't fail the build while silent drift beyond it does.

use std::fmt;

/// A parsed JSON value. Number literals keep their shape: an integer literal
/// parses as `Int`, anything with a fraction or exponent as `Float`. `Int` is
/// wide enough for every integer the writer emits (`jsonout::JsonObject::int`
/// takes any `u64`), so the gate compares all of them exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal.
    Int(i128),
    /// A fractional or exponent literal (or an integer too large for `i128`).
    Float(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a number, when it is one.
    fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Int(_) => "int",
            JsonValue::Float(_) => "float",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(v) => write!(f, "{v}"),
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::Float(v) => write!(f, "{v}"),
            JsonValue::Str(v) => write!(f, "\"{v}\""),
            JsonValue::Array(v) => write!(f, "[..{} items..]", v.len()),
            JsonValue::Object(v) => write!(f, "{{..{} fields..}}", v.len()),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.error("bad \\u hex"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u hex"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the emitter writes valid UTF-8).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.error("invalid number"))
        } else {
            // Integer literals too large for i128 degrade to float.
            text.parse::<i128>().map(JsonValue::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(JsonValue::Float)
                    .map_err(|_| self.error("invalid number"))
            })
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            _ => self.number(),
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a byte-positioned message on malformed input.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content"));
    }
    Ok(v)
}

/// Compares `current` against `baseline` and returns the list of drifts.
///
/// * Strings, booleans, nulls, and values *both* sides render as integer
///   literals must match exactly (the deterministic fields of a seeded run).
/// * Any comparison involving a float literal passes when the relative
///   difference is within `rel_tol` (values below 1e-12 compare as equal —
///   noise floor).
/// * Objects must have identical key sets; arrays identical lengths.
pub fn compare(baseline: &JsonValue, current: &JsonValue, rel_tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    compare_at(baseline, current, rel_tol, "$", &mut diffs);
    diffs
}

fn floats_close(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    scale < 1e-12 || (a - b).abs() <= rel_tol * scale
}

fn compare_at(
    baseline: &JsonValue,
    current: &JsonValue,
    rel_tol: f64,
    path: &str,
    diffs: &mut Vec<String>,
) {
    use JsonValue::*;
    match (baseline, current) {
        (Object(b), Object(c)) => {
            for (key, bv) in b {
                match c.iter().find(|(k, _)| k == key) {
                    Some((_, cv)) => compare_at(bv, cv, rel_tol, &format!("{path}.{key}"), diffs),
                    None => diffs.push(format!("{path}.{key}: missing from current")),
                }
            }
            for (key, _) in c {
                if !b.iter().any(|(k, _)| k == key) {
                    diffs.push(format!("{path}.{key}: not in baseline"));
                }
            }
        }
        (Array(b), Array(c)) => {
            if b.len() != c.len() {
                diffs.push(format!(
                    "{path}: array length {} vs baseline {}",
                    c.len(),
                    b.len()
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                compare_at(bv, cv, rel_tol, &format!("{path}[{i}]"), diffs);
            }
        }
        // Both integer literals: a deterministic field — exact.
        (Int(b), Int(c)) => {
            if b != c {
                diffs.push(format!("{path}: {c} vs baseline {b} (exact field)"));
            }
        }
        // A float on either side: tolerance applies. (The emitter always
        // renders float fields with a decimal point, but keep the mixed-shape
        // arm tolerant for baselines written before that guarantee.)
        (Int(_) | Float(_), Int(_) | Float(_)) => {
            let (b, c) = (baseline.as_f64().unwrap(), current.as_f64().unwrap());
            if !floats_close(b, c, rel_tol) {
                diffs.push(format!(
                    "{path}: {c} vs baseline {b} ({:+.2}% > {:.2}% tolerance)",
                    (c / b - 1.0) * 100.0,
                    rel_tol * 100.0
                ));
            }
        }
        (Str(b), Str(c)) => {
            if b != c {
                diffs.push(format!("{path}: \"{c}\" vs baseline \"{b}\""));
            }
        }
        (Bool(b), Bool(c)) => {
            if b != c {
                diffs.push(format!("{path}: {c} vs baseline {b}"));
            }
        }
        (Null, Null) => {}
        _ => diffs.push(format!(
            "{path}: type {} vs baseline {}",
            current.type_name(),
            baseline.type_name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(s: &str) -> JsonValue {
        parse(s).unwrap()
    }

    #[test]
    fn parses_the_emitter_dialect() {
        let v = obj(
            "{\"bench\": \"fig4\", \"seed\": 9, \"ok\": true, \"bad\": null, \
             \"rows\": [{\"x\": 1.5, \"y\": -2e-3, \"s\": \"a\\\"b\\u0041\"}]}",
        );
        let JsonValue::Object(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(fields[0].1, JsonValue::Str("fig4".into()));
        assert_eq!(fields[1].1, JsonValue::Int(9));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
        assert_eq!(fields[3].1, JsonValue::Null);
        let JsonValue::Array(rows) = &fields[4].1 else {
            panic!("not an array")
        };
        let JsonValue::Object(row) = &rows[0] else {
            panic!("not an object")
        };
        assert_eq!(row[0].1, JsonValue::Float(1.5));
        assert_eq!(row[1].1, JsonValue::Float(-0.002));
        assert_eq!(row[2].1, JsonValue::Str("a\"bA".into()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn identical_documents_have_no_drift() {
        let s = "{\"a\": 1, \"b\": [1.25, \"x\"], \"c\": {\"d\": null}}";
        assert!(compare(&obj(s), &obj(s), 0.05).is_empty());
    }

    #[test]
    fn float_drift_within_tolerance_passes() {
        let b = obj("{\"miops\": 5.1}");
        let c = obj("{\"miops\": 5.2}");
        assert!(compare(&b, &c, 0.05).is_empty());
    }

    #[test]
    fn float_drift_beyond_tolerance_fails() {
        // The acceptance demonstration: a perturbed baseline must trip the
        // gate once the perturbation exceeds the tolerance band.
        let b = obj("{\"miops\": 5.1}");
        let c = obj("{\"miops\": 5.9}");
        let diffs = compare(&b, &c, 0.05);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("miops"), "{}", diffs[0]);
        // ... and passes when the band is widened.
        assert!(compare(&b, &c, 0.20).is_empty());
    }

    #[test]
    fn integer_fields_are_exact() {
        let b = obj("{\"in_flight\": 66}");
        let c = obj("{\"in_flight\": 67}");
        // Within any float tolerance, but ints are deterministic — fail.
        assert_eq!(compare(&b, &c, 0.5).len(), 1);
    }

    #[test]
    fn integral_float_rendering_still_gets_tolerance() {
        // `6.0` renders as `6`; a regenerated `6.02` must not hard-fail.
        let b = obj("{\"peak\": 6}");
        let c = obj("{\"peak\": 6.02}");
        assert!(compare(&b, &c, 0.05).is_empty());
        assert_eq!(
            compare(&obj("{\"peak\": 6}"), &obj("{\"peak\": 7.5}"), 0.05).len(),
            1
        );
    }

    #[test]
    fn structural_changes_are_reported() {
        let b = obj("{\"rows\": [1, 2], \"seed\": 9}");
        assert_eq!(
            compare(&b, &obj("{\"rows\": [1], \"seed\": 9}"), 0.1).len(),
            1
        );
        assert_eq!(compare(&b, &obj("{\"rows\": [1, 2]}"), 0.1).len(), 1);
        assert_eq!(
            compare(&b, &obj("{\"rows\": [1, 2], \"seed\": 9, \"x\": 1}"), 0.1).len(),
            1
        );
        assert_eq!(
            compare(&b, &obj("{\"rows\": \"oops\", \"seed\": 9}"), 0.1).len(),
            1
        );
        // String drift is exact.
        let names = compare(
            &obj("{\"bench\": \"fig4\"}"),
            &obj("{\"bench\": \"fig5\"}"),
            0.9,
        );
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn tiny_absolute_values_do_not_amplify_relative_noise() {
        let b = obj("{\"x\": 1e-14}");
        let c = obj("{\"x\": 3e-14}");
        assert!(compare(&b, &c, 0.05).is_empty(), "below the noise floor");
    }

    mod properties {
        use super::super::*;
        use crate::jsonout::{json_array, JsonObject};
        use proptest::prelude::*;

        /// Integers and floats at the edges of what the writer emits.
        const EDGE_INTS: [u64; 4] = [0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
        const EDGE_FLOATS: [f64; 6] = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -1e-7];

        /// A string drawn from `words`, biased toward what an escaper gets
        /// wrong: control characters, quotes and backslashes, then non-ASCII
        /// scalars from the BMP and the astral planes.
        fn text(words: &[u32]) -> String {
            words
                .iter()
                .map(|&w| {
                    let x = w >> 2;
                    match w & 3 {
                        0 => char::from_u32(x % 0x20).unwrap(),
                        1 => ['"', '\\', '/', 'u', 'a', ' ', '\u{7f}'][x as usize % 7],
                        2 => char::from_u32(0x80 + x % 0xd780).unwrap(),
                        _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
                    }
                })
                .collect()
        }

        /// `bits` as a finite `f64` (a non-finite pattern loses the top
        /// exponent bit).
        fn finite(bits: u64) -> f64 {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }

        fn exact_int(v: &JsonValue) -> Option<u64> {
            match *v {
                JsonValue::Int(i) => u64::try_from(i).ok(),
                _ => None,
            }
        }

        fn float_bits(v: &JsonValue) -> Option<u64> {
            match *v {
                JsonValue::Float(f) => Some(f.to_bits()),
                _ => None,
            }
        }

        proptest! {
            #[test]
            fn writer_output_parses_back_exactly(
                key in prop::collection::vec(any::<u32>(), 0..12),
                value in prop::collection::vec(any::<u32>(), 0..24),
                int in any::<u64>(),
                bits in any::<u64>(),
                edge in 0usize..24,
            ) {
                let (key, value, float) = (text(&key), text(&value), finite(bits));
                let edge_int = EDGE_INTS[edge % EDGE_INTS.len()];
                let edge_float = EDGE_FLOATS[edge % EDGE_FLOATS.len()];
                let row = JsonObject::new().int("i", edge_int).num("f", edge_float);
                let doc = JsonObject::new()
                    .str(&key, &value)
                    .int("int", int)
                    .num("float", float)
                    .raw("rows", json_array([row.build()]))
                    .build();
                let parsed = parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
                let JsonValue::Object(fields) = &parsed else {
                    panic!("{doc}: not an object")
                };
                prop_assert_eq!(&fields[0], &(key, JsonValue::Str(value)), "{}", doc);
                prop_assert_eq!(exact_int(&fields[1].1), Some(int), "{}", doc);
                prop_assert_eq!(float_bits(&fields[2].1), Some(float.to_bits()), "{}", doc);
                let JsonValue::Array(rows) = &fields[3].1 else {
                    panic!("{doc}: rows not an array")
                };
                let JsonValue::Object(row) = &rows[0] else {
                    panic!("{doc}: row not an object")
                };
                prop_assert_eq!(exact_int(&row[0].1), Some(edge_int), "{}", doc);
                prop_assert_eq!(float_bits(&row[1].1), Some(edge_float.to_bits()), "{}", doc);
                prop_assert!(compare(&parsed, &parsed, 0.05).is_empty(), "{}", doc);
            }

            #[test]
            fn integer_fields_compare_exactly(a in any::<u64>(), delta in 0u64..3) {
                // The gate's own tolerance must never swallow an integer
                // change, however large the integer.
                let b = a.wrapping_add(delta);
                let doc = |v| parse(&JsonObject::new().int("n", v).build()).unwrap();
                prop_assert_eq!(compare(&doc(a), &doc(b), 0.05).is_empty(), a == b, "{} vs {}", a, b);
            }

            #[test]
            fn parse_never_panics(
                words in prop::collection::vec(any::<u32>(), 0..48),
                cut in any::<usize>(),
            ) {
                // JSON-shaped soup, and every prefix of a writer document.
                const TOKENS: [&str; 16] = [
                    "{", "}", "[", "]", "\"", ":", ",", "-", "0", "9", ".", "e", "\\", "\\u", "null",
                    "true",
                ];
                let soup: String = words
                    .iter()
                    .map(|&w| match w & 1 {
                        0 => TOKENS[(w >> 1) as usize % TOKENS.len()].to_string(),
                        _ => text(&[w >> 1]),
                    })
                    .collect();
                let _ = parse(&soup);
                let doc = JsonObject::new().str("s", &text(&words)).int("n", u64::MAX).build();
                let ends: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
                let _ = parse(&doc[..ends[cut % ends.len()]]);
            }
        }
    }
}
