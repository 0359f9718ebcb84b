//! Line counting for the paper's code-size claims.
//!
//! §2: "of 25,000 lines of kernel code, 12,500 are network and protocol
//! related." §3: "The entire protocol is 847 lines of code, compared to
//! 2200 lines for TCP." The `loc` binary reproduces both measurements
//! against this repository.

use std::path::{Path, PathBuf};

/// Line counts for one source file.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// All lines.
    pub total: usize,
    /// Non-blank, non-comment lines.
    pub code: usize,
    /// Code lines outside `#[cfg(test)]` modules.
    pub non_test_code: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, rhs: Counts) {
        self.total += rhs.total;
        self.code += rhs.code;
        self.non_test_code += rhs.non_test_code;
    }
}

/// Counts one Rust source text.
pub fn count_source(text: &str) -> Counts {
    let mut c = Counts::default();
    let mut in_tests = false;
    let mut test_depth = 0usize;
    let mut pending_cfg_test = false;
    for line in text.lines() {
        c.total += 1;
        let trimmed = line.trim();
        let is_code = !trimmed.is_empty()
            && !trimmed.starts_with("//")
            && !trimmed.starts_with("/*")
            && !trimmed.starts_with('*');
        if is_code {
            c.code += 1;
        }
        // Track `#[cfg(test)] mod tests { ... }` blocks by brace depth.
        if !in_tests {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                continue;
            }
            if pending_cfg_test {
                if trimmed.starts_with("mod ") || trimmed.starts_with("pub(crate) mod ") {
                    in_tests = true;
                    test_depth = 0;
                    for ch in trimmed.chars() {
                        match ch {
                            '{' => test_depth += 1,
                            '}' => test_depth = test_depth.saturating_sub(1),
                            _ => {}
                        }
                    }
                    continue;
                }
                pending_cfg_test = false;
            }
            if is_code {
                c.non_test_code += 1;
            }
        } else {
            for ch in trimmed.chars() {
                match ch {
                    '{' => test_depth += 1,
                    '}' => test_depth = test_depth.saturating_sub(1),
                    _ => {}
                }
            }
            if test_depth == 0 {
                in_tests = false;
                pending_cfg_test = false;
            }
        }
    }
    c
}

/// Counts a file on disk.
pub fn count_file(path: &Path) -> std::io::Result<Counts> {
    Ok(count_source(&std::fs::read_to_string(path)?))
}

/// Recursively finds `.rs` files under a directory.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().map(|n| n == "target").unwrap_or(false) {
                continue;
            }
            out.extend(rust_files(&p));
        } else if p.extension().map(|x| x == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    out.sort();
    out
}

/// Sums counts for every Rust file under a directory.
pub fn count_dir(dir: &Path) -> Counts {
    let mut total = Counts::default();
    for f in rust_files(dir) {
        if let Ok(c) = count_file(&f) {
            total += c;
        }
    }
    total
}

/// Renders `scripts/loc-ratchet.txt`: one `name count` line per row.
pub fn render_ratchet(rows: &[(String, usize)]) -> String {
    let mut out = String::from(
        "# Non-test code lines per crate, as `cargo run -p plan9-bench --bin loc` counts them.\n\
         # `loc` fails when a count exceeds its line; `loc --update` rewrites this file.\n",
    );
    for (name, n) in rows {
        out.push_str(&format!("{name} {n}\n"));
    }
    out
}

/// The rows whose count exceeds the ceiling `ratchet` gives them, as
/// messages. A row the file does not name has a ceiling of zero, so a
/// new crate fails until the file is updated.
pub fn over_ratchet(ratchet: &str, rows: &[(String, usize)]) -> Vec<String> {
    let ceiling = |name: &str| {
        ratchet
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| *n == name)
            .and_then(|(_, c)| c.trim().parse::<usize>().ok())
            .unwrap_or(0)
    };
    rows.iter()
        .map(|(name, n)| (name, *n, ceiling(name)))
        .filter(|(_, n, max)| n > max)
        .map(|(name, n, max)| format!("{name}: {n} non-test lines, ratchet {max}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratchet_names_the_crate_that_grew() {
        let rows = |a, b| vec![("inet".to_string(), a), ("workspace".to_string(), b)];
        let file = render_ratchet(&rows(10, 30));
        assert!(over_ratchet(&file, &rows(10, 30)).is_empty());
        assert!(over_ratchet(&file, &rows(9, 29)).is_empty(), "shrinking passes");
        let over = over_ratchet(&file, &rows(11, 30));
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].starts_with("inet: 11 "), "{over:?}");
        let unlisted = over_ratchet(&file, &[("newcrate".to_string(), 1)]);
        assert_eq!(unlisted.len(), 1, "a crate the file does not name fails");
    }

    #[test]
    fn blank_and_comment_lines_excluded_from_code() {
        let c = count_source("// comment\n\nlet x = 1;\n");
        assert_eq!(c.total, 3);
        assert_eq!(c.code, 1);
        assert_eq!(c.non_test_code, 1);
    }

    #[test]
    fn test_modules_excluded_from_non_test() {
        let src = "\
fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert!(true);
    }
}
";
        let c = count_source(src);
        assert_eq!(c.non_test_code, 1, "{c:?}");
        assert!(c.code > c.non_test_code);
    }

    #[test]
    fn nested_braces_tracked() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper() {
        if true {
            let _ = 1;
        }
    }
}
fn after() {}
";
        let c = count_source(src);
        assert_eq!(c.non_test_code, 1);
    }
}
