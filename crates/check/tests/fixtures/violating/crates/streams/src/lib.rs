//! Kernel-crate fixture for the source scanner. Every line carrying a
//! `V:<rule>` marker comment must be reported; every other line must
//! not. Doc comments mentioning .unwrap() never count.

pub fn flagged() {
    let v: Option<u32> = None;
    v.unwrap(); // V:panic-reach
}

pub fn blessed_same_line() {
    let v: Option<u32> = Some(1);
    v.unwrap(); // checked: constructed Some on the previous line
}

pub fn blessed_preceding_line() {
    let v: Option<u32> = Some(1);
    // checked: constructed Some on the previous line
    v.unwrap();
}

pub fn in_string() -> &'static str {
    "calling .unwrap() inside a string literal is prose, not code"
}

pub fn in_raw_string() -> &'static str {
    r#"raw string with .unwrap() and an embedded "quote""#
}

/* A block comment:
   .unwrap() inside does not count,
   and neither does std::sync::Mutex. */

pub fn expects() {
    let v: Option<u32> = None;
    v.expect("boom"); // V:panic-reach
}

pub fn wall_clock() -> std::time::SystemTime { // V:wall-clock
    std::time::SystemTime::now() // V:wall-clock
}

use std::sync::Mutex; // V:raw-sync
use std::sync::{
    Arc,
    RwLock, // V:raw-sync grouped import spanning lines
};

pub static M: Mutex<u32> = Mutex::new(0);
pub type Shared = Arc<RwLock<u32>>;

pub fn lifetime_is_not_a_char_literal<'a>(x: &'a str) -> &'a str {
    let _tick = '\'';
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
