//! The scenario language's parser against hostile input: arbitrary
//! bytes, and a walkthrough script cut short, spliced with junk, with
//! bytes replaced and lines repeated. `parse` returns a scenario or an
//! error naming what it refused, and never panics; a scenario it
//! returns is one its own checks passed.

use plan9_scenario::dsl::{parse, Event};
use plan9_support::check::Gen;

/// The walkthrough's shape, every directive and event in it.
const SCRIPT: &str = "\
# a flash crowd hits city 1 while the backbone misbehaves
seed 42
topology grid cities=3 hosts=8 ndb-lines=500
netmon 250ms
at 100ms flashcrowd city=1 dials=40 size=512 window=300ms
at 500ms flap trunk=0-1 for 100ms
at 800ms partition {0}|{1,2} heal 200ms
at 1200ms kill gateway city=2
end 2s
";

/// Characters and words the grammar gives a meaning to, and some it
/// does not.
const SYNTAX: &str = "= \t\n#{}|,-0123456789sumatcdfhk\u{e9}";
const WORDS: [&str; 12] =
    ["at ", "end ", "seed ", "city=", "dials=", "size=", "trunk=", "for ", "heal ", "99999999999999999999", "0s ", "{} "];

/// `text` with a few cuts, splices of junk, replaced bytes and
/// repeated lines; the result may not be UTF-8.
fn mutate(g: &mut Gen, text: &str) -> Vec<u8> {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..g.usize_in(1..8) {
        let at = g.usize_in(0..b.len() + 1);
        match g.usize_in(0..5) {
            0 => b.truncate(at),
            1 if at < b.len() => b[at] = g.u8(),
            2 => {
                let junk = g.string_of(SYNTAX, 0..12).into_bytes();
                b.splice(at..at, junk);
            }
            3 => {
                let word = WORDS[g.usize_in(0..WORDS.len())].as_bytes().to_vec();
                b.splice(at..at, word);
            }
            _ => {
                let line: Vec<u8> = b[at..].iter().take_while(|c| **c != b'\n').chain([&b'\n']).copied().collect();
                b.splice(at..at, line);
            }
        }
    }
    b
}

plan9_support::props! {
    fn prop_the_scenario_parser_answers_hostile_text(g, cases = 3000) {
        let bytes = if g.usize_in(0..4) == 0 { g.bytes(0..300) } else { mutate(g, SCRIPT) };
        let text = String::from_utf8_lossy(&bytes);
        match parse(&text) {
            Err(e) => assert!(!e.is_empty(), "an empty error for {text:?}"),
            Ok(sc) => {
                for te in &sc.events {
                    assert!(te.at < sc.end, "an event at {:?}, not before the end {:?}: {text:?}", te.at, sc.end);
                    if let Event::KillGateway { city } | Event::FlashCrowd { city, .. } = te.ev {
                        assert!(city < sc.cities, "city {city} of {}: {text:?}", sc.cities);
                    }
                }
            }
        }
    }
}
