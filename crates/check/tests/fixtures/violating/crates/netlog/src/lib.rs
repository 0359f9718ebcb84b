//! Non-kernel-crate fixture: a panic no root reaches is tolerated here,
//! but raw `std::sync` locks are still off limits.

pub fn tool_code() {
    let v: Option<u32> = None;
    v.unwrap(); // not a kernel crate: tolerated
}

pub static RAW: std::sync::Mutex<u32> = std::sync::Mutex::new(0); // V:raw-sync
