//! The result line: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit), plus a small JSON reader used to check
//! that the line round-trips and that `BENCHMARK.json` names the metrics this
//! program emits.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// Measured value (finite).
    pub value: f64,
    /// Unit, e.g. `1/s`, `s`, `MiB`, `count`.
    pub unit: String,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The final result of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every run passed its output checks and repeated runs agreed.
    pub correct: bool,
    /// Simulation runs (and layer replays) attempted.
    pub attempted: u64,
    /// Attempts that panicked or failed a check.
    pub failed: u64,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

/// True for a legal metric name: 1 to 64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Outcome {
    /// Renders the single-line JSON object.  Values use Rust's shortest
    /// round-trip float formatting, so every measured digit is kept.
    ///
    /// # Panics
    /// Panics on an invalid metric name or a non-finite value: both would
    /// make the line unusable, and the caller is expected to prevent them.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value == m.value.trunc() && m.value.abs() < 1e15 {
                // Keep a fractional part so the value always reads as a float.
                format!("{:.1}", m.value)
            } else {
                format!("{}", m.value)
            };
            write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`Outcome::to_json`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let field = |key: &str| json.get(key).ok_or(format!("missing key {key:?}"));
        let correct = field("correct")?.as_bool().ok_or("correct is not a bool")?;
        let attempted = field("attempted")?
            .as_u64()
            .ok_or("attempted is not a whole number")?;
        let failed = field("failed")?
            .as_u64()
            .ok_or("failed is not a whole number")?;
        let Json::Obj(entries) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric {name} has no numeric value"))?;
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("metric {name} has no unit"))?;
                Ok(Metric::new(name, value, unit))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// A parsed JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match e {
                        '"' | '\\' | '/' => out.push(e),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                Metric::new("sim_tx_per_s", 123_456.789_012_345, "1/s"),
                Metric::new("setup_s", 0.000_123_456_789, "s"),
                Metric::new("peak_rss_mib", 20.0, "MiB"),
                Metric::new("lockmgr.acquire_release_ns", 1.5e-7, "ns"),
            ],
        }
    }

    #[test]
    fn emission_round_trips_exactly() {
        let out = sample();
        let line = out.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::parse(&line).expect("parses"), out);
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 20.0, \"unit\": \"MiB\"}"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Outcome::parse("{\"correct\": true}").is_err());
        assert!(Outcome::parse(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Outcome::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Outcome::parse("not json").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("sim_tx_per_s"));
        assert!(valid_name("core.allocs_per_event"));
        assert!(valid_name("ds16-nvemlog"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("per tx"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        let mut out = sample();
        out.metrics[0].value = f64::NAN;
        let _ = out.to_json();
    }

    #[test]
    fn json_reader_handles_nesting_and_escapes() {
        let j =
            Json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}}"#).expect("parses");
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"yA")
        );
    }
}
