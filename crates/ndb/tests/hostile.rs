//! The network database's parser against hostile input: arbitrary
//! bytes, and a database in the paper's shape cut short, spliced with
//! junk, with bytes replaced and lines repeated. Parsing returns
//! entries and never panics; each entry reads the same again from the
//! offset it records (a hash file points there), and a lookup over a
//! database of such text answers with entries that hold what was asked.

use plan9_ndb::parse::parse_entry_at;
use plan9_ndb::{ipattr_search, parse_entries, Db, Entry};
use plan9_support::check::Gen;

/// A database in the shape of the paper's (§4.1), to mutate.
const LOCAL: &str = "\
# the local network
ipnet=mh-astro-net ip=135.104.0.0 ipmask=255.255.255.0
\tfs=bootes.research.att.com
\tauth=1127auth
sys=helix dom=helix.research.att.com bootf=/mips/9power
\tip=135.104.9.31 ether=0800690222f0
\tdk=nj/astro/helix
\tproto=il flavor=9cpu
il=9fs port=17008
tcp=echo port=7
tcp=\"quoted name\" port=99
auth=1127auth ip=135.104.9.7
  bare
";

/// Characters the grammar gives a meaning to, and some it does not.
const SYNTAX: &str = "= \t\n\"#!.=/0123456789abcxyz\u{e9}\u{2028}";

/// `text` with a few cuts, splices of junk, replaced bytes and
/// repeated lines; the result may not be UTF-8.
fn mutate(g: &mut Gen, text: &str) -> Vec<u8> {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..g.usize_in(1..8) {
        let at = g.usize_in(0..b.len() + 1);
        match g.usize_in(0..4) {
            0 => b.truncate(at),
            1 if at < b.len() => b[at] = g.u8(),
            2 => {
                let junk = if g.bool() { g.string_of(SYNTAX, 0..16).into_bytes() } else { g.bytes(0..16) };
                b.splice(at..at, junk);
            }
            _ => {
                let line: Vec<u8> = b[at..].iter().take_while(|c| **c != b'\n').chain([&b'\n']).copied().collect();
                b.splice(at..at, line);
            }
        }
    }
    b
}

/// Hostile text: arbitrary bytes, or the database mutated.
fn hostile(g: &mut Gen) -> String {
    let bytes = if g.usize_in(0..4) == 0 { g.bytes(0..400) } else { mutate(g, LOCAL) };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A value to look up: one the text holds, or junk.
fn value(g: &mut Gen, entries: &[Entry]) -> (String, String) {
    let pairs: Vec<&(String, String)> = entries.iter().flat_map(|e| &e.pairs).collect();
    if pairs.is_empty() || g.usize_in(0..4) == 0 {
        (g.string_of(SYNTAX, 0..6), g.string_of(SYNTAX, 0..6))
    } else {
        pairs[g.usize_in(0..pairs.len())].clone()
    }
}

plan9_support::props! {
    fn prop_parse_entries_never_panics_and_each_entry_reads_again(g, cases = 2000) {
        let text = hostile(g);
        for e in parse_entries(&text) {
            assert!(!e.pairs.is_empty(), "an empty entry from {text:?}");
            let again = parse_entry_at(&text, e.offset);
            assert_eq!(again.as_ref().map(|a| &a.pairs), Some(&e.pairs), "entry at {} of {text:?}", e.offset);
        }
    }

    fn prop_a_database_of_hostile_text_answers_lookups(g, cases = 2000) {
        let text = hostile(g);
        let db = Db::from_texts(&[&text, LOCAL]);
        let entries = parse_entries(&text);
        for _ in 0..8 {
            let (attr, val) = value(g, &entries);
            for e in db.query(&attr, &val) {
                assert!(e.has(&attr, &val), "{attr}={val} answered with {e:?}");
            }
            let _ = db.find_system(&val);
            let _ = db.lookup_service(&attr, &val);
            let _ = ipattr_search(&db, &val, &attr);
        }
    }
}
