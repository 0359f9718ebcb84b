//! Writing a run's result line and reading it back in the parent.
//!
//! The reader accepts exactly what the writer emits: objects, strings
//! without escapes, numbers and booleans.

use crate::run::Metric;

/// The result of one run: the last line a child prints.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    pub fn new(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> ResultLine {
        ResultLine {
            correct,
            attempted,
            failed,
            metrics: metrics
                .iter()
                .map(|m| (m.name.clone(), m.value, m.unit.to_string()))
                .collect(),
        }
    }

    /// One line of JSON with every digit of every value.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let mut out = ResultLine {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        p.object(|p, key| {
            match key {
                "correct" => out.correct = p.word()? == "true",
                "attempted" => out.attempted = p.number()? as u64,
                "failed" => out.failed = p.number()? as u64,
                "metrics" => p.object(|p, name| {
                    let (mut value, mut unit) = (0.0, String::new());
                    p.object(|p, field| {
                        match field {
                            "value" => value = p.number()?,
                            "unit" => unit = p.string()?.to_string(),
                            other => return Err(format!("unexpected metric field {other}")),
                        }
                        Ok(())
                    })?;
                    out.metrics.push((name.to_string(), value, unit));
                    Ok(())
                })?,
                other => return Err(format!("unexpected key {other}")),
            }
            Ok(())
        })?;
        Ok(out)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip(&mut self) {
        while self.s.get(self.i).is_some_and(|c| b" ,:".contains(c)) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.s.get(self.i).is_some_and(|&c| c != b'"') {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        self.expect(b'"')?;
        Ok(text)
    }

    /// A bare token: a number or `true`/`false`.
    fn word(&mut self) -> Result<&'a str, String> {
        self.skip();
        let start = self.i;
        while self.s.get(self.i).is_some_and(|c| !b" ,}".contains(c)) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        let w = self.word()?;
        w.parse().map_err(|_| format!("bad number {w:?}"))
    }

    /// Calls `member` with each key, positioned at its value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Parser<'a>, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        loop {
            self.skip();
            if self.s.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(());
            }
            let key = self.string()?;
            member(self, key)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_is_identity() {
        let r = ResultLine {
            correct: true,
            attempted: 130108,
            failed: 0,
            metrics: vec![
                (
                    "ops_per_s".to_string(),
                    22311.763160634047,
                    "1/s".to_string(),
                ),
                ("trace.overhead_pct".to_string(), -0.5, "%".to_string()),
            ],
        };
        assert_eq!(ResultLine::parse(&r.render()), Ok(r));
        assert!(ResultLine::parse("{\"correct\": true").is_err());
    }
}
