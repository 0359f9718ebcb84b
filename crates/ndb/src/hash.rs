//! On-disk per-attribute hash files.
//!
//! "To speed searches, we build hash table files for each attribute we
//! expect to search often. The hash file entries point to entries in the
//! master files. Every hash file contains the modification time of its
//! master file so we can avoid using an out-of-date hash table. Searches
//! for attributes that aren't hashed or whose hash table is out-of-date
//! still work, they just take longer."
//!
//! Layout of `<master>.<attr>`:
//!
//! ```text
//! magic    8 bytes  "NDBHASH1"
//! mtime    8 bytes  master's modification time, seconds, little-endian
//! nbucket  4 bytes
//! index    nbucket × (offset u64, count u32)   into the slot area
//! slots    concatenated u64 entry offsets, grouped by bucket
//! ```

use crate::db::file_mtime;
use crate::parse::parse_entries;
use std::path::Path;

/// Hash files live next to the master as `<master>.<attr>`.
pub const HASH_SUFFIX_SEP: &str = ".";

const MAGIC: &[u8; 8] = b"NDBHASH1";

/// The string hash (FNV-1a; stable and endian-free, like ndb's own).
pub fn ndb_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds the hash file for `attr` next to `master`.
///
/// Returns the number of values indexed.
pub fn build_hash(master: &Path, attr: &str) -> crate::Result<usize> {
    let text = std::fs::read_to_string(master)
        .map_err(|e| format!("ndb: read {}: {e}", master.display()))?;
    let mtime = file_mtime(master)?;
    let entries = parse_entries(&text);
    // Collect (value, offset) pairs for the attribute.
    let mut pairs: Vec<(String, u64)> = Vec::new();
    for e in &entries {
        for v in e.all(attr) {
            pairs.push((v.to_string(), e.offset));
        }
    }
    let nbucket = (pairs.len().max(1) * 2).next_power_of_two() as u32;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); nbucket as usize];
    for (v, off) in &pairs {
        let b = (ndb_hash(v) % nbucket as u64) as usize;
        buckets[b].push(*off);
    }
    // Serialize.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&mtime.to_le_bytes());
    out.extend_from_slice(&nbucket.to_le_bytes());
    let index_start = out.len();
    out.resize(index_start + nbucket as usize * 12, 0);
    let mut slot_off = out.len() as u64;
    for (i, bucket) in buckets.iter().enumerate() {
        let idx = index_start + i * 12;
        out[idx..idx + 8].copy_from_slice(&slot_off.to_le_bytes());
        out[idx + 8..idx + 12].copy_from_slice(&(bucket.len() as u32).to_le_bytes());
        slot_off += bucket.len() as u64 * 8;
    }
    for bucket in &buckets {
        for off in bucket {
            out.extend_from_slice(&off.to_le_bytes());
        }
    }
    let hash_path = format!("{}{}{}", master.display(), HASH_SUFFIX_SEP, attr);
    std::fs::write(&hash_path, &out).map_err(|e| format!("ndb: write {hash_path}: {e}"))?;
    Ok(pairs.len())
}

/// Consults a hash file; returns candidate entry offsets for `value`.
///
/// `None` means "no usable hash" — missing, malformed, or stale (its
/// recorded mtime differs from the master's current `master_mtime`) —
/// and the caller must fall back to a linear scan.
pub fn hash_lookup(hash_path: &Path, master_mtime: u64, value: &str) -> Option<Vec<u64>> {
    let data = std::fs::read(hash_path).ok()?;
    if data.len() < 20 || &data[..8] != MAGIC {
        return None;
    }
    let mtime = u64::from_le_bytes(data[8..16].try_into().unwrap());
    if mtime != master_mtime {
        return None; // stale: the master changed under it
    }
    let nbucket = u32::from_le_bytes(data[16..20].try_into().unwrap());
    if nbucket == 0 {
        return Some(Vec::new());
    }
    let bucket = (ndb_hash(value) % nbucket as u64) as usize;
    let idx = 20 + bucket * 12;
    if idx + 12 > data.len() {
        return None;
    }
    let slot_off = u64::from_le_bytes(data[idx..idx + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(data[idx + 8..idx + 12].try_into().unwrap()) as usize;
    if slot_off + count * 8 > data.len() {
        return None;
    }
    let mut offsets = Vec::with_capacity(count);
    for i in 0..count {
        let o = slot_off + i * 8;
        offsets.push(u64::from_le_bytes(data[o..o + 8].try_into().unwrap()));
    }
    Some(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;
    use std::io::Write;

    fn scratch(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ndbtest-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("local");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
        path
    }

    const TEXT: &str = "\
sys=helix ip=135.104.9.31\nsys=bootes ip=135.104.9.2\nsys=musca ip=135.104.9.6 auth=yes\n";

    #[test]
    fn hashed_lookup_finds_entries() {
        let path = scratch("find", TEXT);
        build_hash(&path, "sys").unwrap();
        let db = Db::open(&[path]).unwrap();
        let hits = db.query("sys", "musca");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("ip"), Some("135.104.9.6"));
        assert!(db.hash_hits.load(std::sync::atomic::Ordering::Relaxed) >= 1);
        assert_eq!(db.scans.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    /// §4.1 at the paper's scale: "our global file ... has 43,000
    /// lines". A hashed lookup finds every system without a scan; an
    /// attribute that is not hashed is still found, by scanning.
    #[test]
    fn a_paper_scale_file_answers_hashed_lookups_without_a_scan() {
        let (text, names) = crate::gen::generate_global(43_000, 1993);
        // Within one six-line entry of the paper's count.
        assert!(text.lines().count() > 43_000 - 6);
        let path = scratch("paper-scale", &text);
        build_hash(&path, "sys").unwrap();
        let db = Db::open(&[path]).unwrap();
        for name in names.iter().step_by(names.len() / 200) {
            assert_eq!(db.query("sys", name).len(), 1, "{name}");
        }
        assert_eq!(db.scans.load(std::sync::atomic::Ordering::Relaxed), 0);
        let dom = db.query_one("sys", &names[0]).and_then(|e| e.get("dom").map(String::from)).unwrap();
        assert_eq!(db.query("dom", &dom).len(), 1);
        assert!(db.scans.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }

    #[test]
    fn unhashed_attribute_still_works() {
        let path = scratch("unhashed", TEXT);
        build_hash(&path, "sys").unwrap();
        let db = Db::open(&[path]).unwrap();
        let hits = db.query("auth", "yes");
        assert_eq!(hits.len(), 1);
        assert!(db.scans.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }

    #[test]
    fn stale_hash_falls_back_to_scan() {
        let path = scratch("stale", TEXT);
        build_hash(&path, "sys").unwrap();
        // Rewrite the master with a different mtime and content.
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let mut text = TEXT.to_string();
        text.push_str("sys=new ip=135.104.9.99\n");
        std::fs::write(&path, &text).unwrap();
        let db = Db::open(&[path]).unwrap();
        // The new entry is only findable by scan; a stale hash would
        // miss it.
        let hits = db.query("sys", "new");
        assert_eq!(hits.len(), 1, "stale hash must not be used");
        assert!(db.scans.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }

    #[test]
    fn hash_agrees_with_scan_on_every_key() {
        let path = scratch("agree", TEXT);
        build_hash(&path, "ip").unwrap();
        let db = Db::open(&[path]).unwrap();
        for ip in ["135.104.9.31", "135.104.9.2", "135.104.9.6", "1.2.3.4"] {
            let hashed = db.query("ip", ip);
            let scanned: Vec<_> = db.files[0]
                .entries
                .iter()
                .filter(|e| e.has("ip", ip))
                .cloned()
                .collect();
            assert_eq!(hashed.len(), scanned.len(), "{ip}");
        }
    }

    #[test]
    fn corrupt_hash_ignored() {
        let path = scratch("corrupt", TEXT);
        build_hash(&path, "sys").unwrap();
        let hash_path = format!("{}.sys", path.display());
        std::fs::write(&hash_path, b"garbage").unwrap();
        let db = Db::open(&[path]).unwrap();
        assert_eq!(db.query("sys", "helix").len(), 1);
    }

    plan9_support::props! {
        fn prop_hash_lookup_equals_scan(g, cases = 16) {
            let names: std::collections::HashSet<String> = g
                .vec(1..30, |g| {
                    g.string_of("abcdefghijklmnopqrstuvwxyz", 3..11)
                })
                .into_iter()
                .collect();
            let text: String = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("sys={n} ip=10.0.0.{}\n", i + 1))
                .collect();
            let path = scratch(&format!("prop{}", ndb_hash(&text)), &text);
            build_hash(&path, "sys").unwrap();
            let db = Db::open(&[path]).unwrap();
            for n in &names {
                assert_eq!(db.query("sys", n).len(), 1);
            }
            assert_eq!(db.query("sys", "zzznotthere").len(), 0);
        }
    }
}
