//! Parsing ndb files.
//!
//! An entry begins with a line at the left margin and continues through
//! indented lines. Each line holds whitespace-separated `attr=value`
//! pairs; values may be double-quoted to include spaces. `#` starts a
//! comment. An attribute with no `=` is a bare flag (value empty).

/// One multi-line entry: an ordered list of attribute/value pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Entry {
    /// The pairs in file order; order matters for `$attr` searches.
    pub pairs: Vec<(String, String)>,
    /// Byte offset of the entry's first line in its file (hash files
    /// point here).
    pub offset: u64,
}

impl Entry {
    /// The first value for `attr`, if any.
    pub fn get(&self, attr: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
    }

    /// Every value for `attr`, in order.
    pub fn all(&self, attr: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether the entry contains the exact pair.
    pub fn has(&self, attr: &str, value: &str) -> bool {
        self.pairs.iter().any(|(a, v)| a == attr && v == value)
    }

    /// Renders the entry back into file syntax (header pair first, the
    /// rest indented).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (a, v)) in self.pairs.iter().enumerate() {
            let field = if v.is_empty() {
                a.clone()
            } else if v.contains(char::is_whitespace) {
                format!("{a}=\"{v}\"")
            } else {
                format!("{a}={v}")
            };
            if i == 0 {
                out.push_str(&field);
            } else {
                out.push_str("\n\t");
                out.push_str(&field);
            }
        }
        out.push('\n');
        out
    }
}

/// Splits one line into `attr=value` tokens, honoring double quotes.
fn parse_line(line: &str, pairs: &mut Vec<(String, String)>) {
    let mut chars = line.chars().peekable();
    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let Some(&c) = chars.peek() else { break };
        if c == '#' {
            break; // comment to end of line
        }
        // Attribute name.
        let mut attr = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' || c.is_whitespace() || c == '#' {
                break;
            }
            attr.push(c);
            chars.next();
        }
        if attr.is_empty() {
            chars.next();
            continue;
        }
        // Value. ndb files (and the paper's own listings) sometimes put
        // spaces around the '='; tolerate them.
        let mut value = String::new();
        if matches!(chars.peek(), Some(c) if *c == ' ' || *c == '\t') {
            // Only a lookahead: if no '=' follows the run of spaces, the
            // pairs are separate flags.
            let mut probe = chars.clone();
            while matches!(probe.peek(), Some(c) if c.is_whitespace()) {
                probe.next();
            }
            if matches!(probe.peek(), Some('=')) {
                chars = probe;
            }
        }
        if matches!(chars.peek(), Some('=')) {
            chars.next();
            while matches!(chars.peek(), Some(c) if *c == ' ' || *c == '\t') {
                chars.next();
            }
            if matches!(chars.peek(), Some('"')) {
                chars.next();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    value.push(c);
                }
            } else {
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() {
                        break;
                    }
                    value.push(c);
                    chars.next();
                }
            }
        }
        pairs.push((attr, value));
    }
}

/// Parses a whole file's text into entries, recording byte offsets.
pub fn parse_entries(text: &str) -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut current: Option<Entry> = None;
    let mut offset = 0u64;
    for line in text.split_inclusive('\n') {
        let line_offset = offset;
        offset += line.len() as u64;
        let stripped = line.trim_end_matches('\n');
        if stripped.trim().is_empty() || stripped.trim_start().starts_with('#') {
            continue;
        }
        let indented = stripped.starts_with(' ') || stripped.starts_with('\t');
        if !indented {
            // Header line: a new entry begins.
            if let Some(e) = current.take() {
                if !e.pairs.is_empty() {
                    entries.push(e);
                }
            }
            current = Some(Entry {
                pairs: Vec::new(),
                offset: line_offset,
            });
        }
        if let Some(e) = current.as_mut() {
            parse_line(stripped, &mut e.pairs);
        }
        // Indented lines before any header are ignored, like ndb does.
    }
    if let Some(e) = current.take() {
        if !e.pairs.is_empty() {
            entries.push(e);
        }
    }
    entries
}

/// Parses the single entry that starts at `offset` in `text` (used by
/// hash-file lookups).
pub fn parse_entry_at(text: &str, offset: u64) -> Option<Entry> {
    let rest = text.get(offset as usize..)?;
    let mut entry = Entry {
        pairs: Vec::new(),
        offset,
    };
    for (i, line) in rest.split_inclusive('\n').enumerate() {
        let stripped = line.trim_end_matches('\n');
        // Blank and comment lines end no entry, as in `parse_entries`.
        if stripped.trim().is_empty() || stripped.trim_start().starts_with('#') {
            if i == 0 {
                return None;
            }
            continue;
        }
        let indented = stripped.starts_with(' ') || stripped.starts_with('\t');
        if i > 0 && !indented {
            break;
        }
        parse_line(stripped, &mut entry.pairs);
    }
    if entry.pairs.is_empty() {
        None
    } else {
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's CPU server entry, verbatim.
    pub(crate) const HELIX: &str = "sys = helix\n\
\tdom=helix.research.bell-labs.com\n\
\tbootf=/mips/9power\n\
\tip=135.104.9.31 ether=0800690222f0\n\
\tdk=nj/astro/helix\n\
\tproto=il flavor=9cpu\n";

    #[test]
    fn paper_entry_parses() {
        let entries = parse_entries(HELIX);
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("sys"), Some("helix"));
        assert_eq!(e.get("dom"), Some("helix.research.bell-labs.com"));
        assert_eq!(e.get("ip"), Some("135.104.9.31"));
        assert_eq!(e.get("ether"), Some("0800690222f0"));
        assert_eq!(e.get("dk"), Some("nj/astro/helix"));
        assert_eq!(e.get("proto"), Some("il"));
        assert_eq!(e.get("flavor"), Some("9cpu"));
    }

    #[test]
    fn spaces_around_equals_tolerated() {
        // "sys = helix" is how the paper writes it.
        let entries = parse_entries("sys = helix\n");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("sys"), Some("helix"));
        // But separate flags stay separate.
        let entries = parse_entries("sys=x trusted other\n");
        assert_eq!(entries[0].all("trusted"), vec![""]);
        assert_eq!(entries[0].all("other"), vec![""]);
    }

    #[test]
    fn multiple_entries_split_on_margin() {
        let text = "ipnet=unix-room ip=135.104.117.0\n\tipgw=135.104.117.1\n\
ipnet=third-floor ip=135.104.51.0\n\tipgw=135.104.51.1\n";
        let entries = parse_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("ipgw"), Some("135.104.117.1"));
        assert_eq!(entries[1].get("ipnet"), Some("third-floor"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# the service map\ntcp=echo port=7\n\n# more\ntcp=discard port=9\n";
        let entries = parse_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("port"), Some("7"));
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let entries = parse_entries("sys=x descr=\"a b c\"\n");
        assert_eq!(entries[0].get("descr"), Some("a b c"));
    }

    #[test]
    fn flags_have_empty_values() {
        let entries = parse_entries("sys=x trusted\n");
        assert_eq!(entries[0].get("trusted"), Some(""));
    }

    #[test]
    fn multi_value_attrs() {
        let entries = parse_entries("sys=x ip=1.2.3.4\n\tip=5.6.7.8\n");
        assert_eq!(entries[0].all("ip"), vec!["1.2.3.4", "5.6.7.8"]);
    }

    #[test]
    fn offsets_allow_random_access() {
        let text = "sys=a ip=1.1.1.1\nsys=b ip=2.2.2.2\n\tdom=b.example\n";
        let entries = parse_entries(text);
        assert_eq!(entries.len(), 2);
        let b = parse_entry_at(text, entries[1].offset).unwrap();
        assert_eq!(b.get("sys"), Some("b"));
        assert_eq!(b.get("dom"), Some("b.example"));
        // Random access to the first stops at the margin.
        let a = parse_entry_at(text, entries[0].offset).unwrap();
        assert_eq!(a.pairs.len(), 2);
    }

    #[test]
    fn render_round_trips() {
        let entries = parse_entries(HELIX);
        let rendered = entries[0].render();
        let reparsed = parse_entries(&rendered);
        assert_eq!(reparsed[0].pairs, entries[0].pairs);
    }

    plan9_support::props! {
        fn prop_render_parse_round_trip(g, cases = 256) {
            const ATTR: &str = "abcdefghijklmnopqrstuvwxyz";
            const VAL: &str = "abcdefghijklmnopqrstuvwxyz0123456789./!-";
            let entry = Entry {
                pairs: g.vec(1..10, |g| {
                    (g.string_of(ATTR, 1..9), g.string_of(VAL, 0..13))
                }),
                offset: 0,
            };
            let text = entry.render();
            let reparsed = parse_entries(&text);
            assert_eq!(reparsed.len(), 1);
            assert_eq!(&reparsed[0].pairs, &entry.pairs);
        }
    }
}
