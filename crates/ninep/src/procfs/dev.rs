//! One `dev.c`: what every kernel device shares.
//!
//! "Each device driver is a kernel-resident file system" (§2.2), and
//! Plan 9 writes the file-system half once: a driver supplies a table
//! of its files and generic code walks it. [`Dev`] is that contract.
//! A device describes its tree with [`Dev::rows`] — a directory's
//! entries, as of one moment — and [`Dev::parent`], and handles `open`,
//! `read`, `write` and `clunk` on its own files; every `Dev` is a
//! [`ProcFs`] through the one implementation below, which allocates
//! channel handles and does `walk`, `stat`, directory reads and the
//! open-mode check. Each of those consults the table exactly once, so a
//! table that changes under it (conversations come and go) is never
//! seen half-moved.
//!
//! [`ConvTable`] is the other shared piece, Plan 9's `netif.c`: the
//! `clone` file and numbered conversation directories that "all
//! protocol devices" (§2.3) and the Ethernet driver (Figure 1) serve.

use super::{read_dir_slice, OpenMode, ProcFs, ServeNode, OREAD};
use crate::dir::Dir;
use crate::qid::Qid;
use crate::server::NineService;
use crate::{errstr, NineError, Result};
use plan9_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The root directory of every device.
pub const ROOT: Qid = Qid { path: crate::qid::CHDIR, version: 0 };

/// A channel handle no other node holds, on any device.
pub fn fresh_handle() -> u64 {
    static HANDLES: AtomicU64 = AtomicU64::new(1);
    HANDLES.fetch_add(1, Ordering::Relaxed)
}

/// The bytes of generated text `s` that a read at `offset`/`count` sees.
pub fn readstr(s: &str, offset: u64, count: usize) -> Vec<u8> {
    let bytes = s.as_bytes();
    let off = (offset as usize).min(bytes.len());
    bytes[off..(off + count).min(bytes.len())].to_vec()
}

/// A kernel device: a file tree given as tables, and the operations on
/// its files. The tree's root is [`ROOT`].
pub trait Dev: Send + Sync {
    /// The device name (`il`, `ether`, `cs`, ...).
    fn name(&self) -> String;

    /// The root directory's own entry.
    fn root(&self) -> Dir;

    /// The directory that lists `q`. A device whose files all sit in
    /// its root keeps the default.
    fn parent(&self, _q: Qid) -> Qid {
        ROOT
    }

    /// Directory `dir`'s table in listing order, as of one moment. A
    /// directory that has gone away (a closed conversation) has no rows.
    fn rows(&self, dir: Qid) -> Vec<Dir>;

    /// The row of `dir` named `name`. A device with a large table
    /// answers without building it.
    fn lookup(&self, dir: Qid, name: &str) -> Option<Dir> {
        self.rows(dir).into_iter().find(|d| d.name == name)
    }

    /// The row that lists `q`, likewise.
    fn entry(&self, q: Qid) -> Option<Dir> {
        self.rows(self.parent(q)).into_iter().find(|d| d.qid == q)
    }

    /// An open the mode check has passed, of a file or a directory. May
    /// block (`listen`) and may move the node (`clone` → `ctl`).
    fn open_node(&self, n: &ServeNode, _mode: OpenMode) -> Result<ServeNode> {
        Ok(*n)
    }

    /// A read of a file; directories never get here.
    fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>>;

    /// A write to a file; directories never get here.
    fn write_file(&self, _n: &ServeNode, _offset: u64, _data: &[u8]) -> Result<usize> {
        Err(NineError::new(errstr::EPERM))
    }

    /// The node is being discarded.
    fn clunk_node(&self, _n: &ServeNode) {}

    /// [`ProcFs::serve_nine`] of a file; only a conversation's `data`
    /// file and a pipe end take it up.
    fn serve_nine_file(&self, _n: &ServeNode, _fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        None
    }
}

impl<T: Dev> ProcFs for T {
    fn fsname(&self) -> String {
        self.name()
    }

    fn attach(&self, _uname: &str, _aname: &str) -> Result<ServeNode> {
        Ok(ServeNode::new(ROOT, fresh_handle()))
    }

    fn clone_node(&self, n: &ServeNode) -> Result<ServeNode> {
        Ok(ServeNode::new(n.qid, fresh_handle()))
    }

    fn walk(&self, n: &ServeNode, name: &str) -> Result<ServeNode> {
        if !n.qid.is_dir() {
            return Err(NineError::new(errstr::ENOTDIR));
        }
        if name == ".." {
            return Ok(ServeNode::new(self.parent(n.qid), n.handle));
        }
        self.lookup(n.qid, name)
            .map(|d| ServeNode::new(d.qid, n.handle))
            .ok_or_else(|| NineError::new(errstr::ENOTEXIST))
    }

    fn open(&self, n: &ServeNode, mode: OpenMode) -> Result<ServeNode> {
        let d = self.stat(n)?;
        if d.is_dir() && mode.access() != OREAD {
            return Err(NineError::new(errstr::EISDIR));
        }
        if mode.writable() && d.mode & 0o222 == 0 {
            return Err(NineError::new(errstr::EPERM));
        }
        self.open_node(n, mode)
    }

    fn read(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        if n.qid.is_dir() {
            return read_dir_slice(&self.rows(n.qid), offset, count);
        }
        self.read_file(n, offset, count)
    }

    fn write(&self, n: &ServeNode, offset: u64, data: &[u8]) -> Result<usize> {
        if n.qid.is_dir() {
            return Err(NineError::new(errstr::EISDIR));
        }
        self.write_file(n, offset, data)
    }

    fn clunk(&self, n: &ServeNode) {
        self.clunk_node(n)
    }

    fn stat(&self, n: &ServeNode) -> Result<Dir> {
        if n.qid == ROOT {
            return Ok(self.root());
        }
        self.entry(n.qid).ok_or_else(|| NineError::new(errstr::ENOTEXIST))
    }

    fn serve_nine(&self, n: &ServeNode, fs: &Arc<dyn ProcFs>) -> Option<Arc<NineService>> {
        self.serve_nine_file(n, fs)
    }
}

// ---------------------------------------------------------------------------
// The conversation table.
// ---------------------------------------------------------------------------

/// The file type of a conversation's directory in [`conv_path`].
const CONV_DIR: u32 = 1;

/// The qid path of file `typ` (1..=15) of conversation `conv`; a
/// [`ConvTable`]'s directories are type 1. Paths below 16 are left to
/// the device's own top-level files.
pub fn conv_path(conv: usize, typ: u32) -> u32 {
    ((conv as u32 + 1) << 4) | typ
}

/// Undoes [`conv_path`]: the conversation and file type `q` names, or
/// `None` for a top-level file.
pub fn conv_of(q: Qid) -> Option<(usize, u32)> {
    let p = q.path_bits();
    (p >= 16).then(|| ((p >> 4) as usize - 1, p & 0xf))
}

/// [`Dev::parent`] for a device whose tree is a [`ConvTable`]'s: a
/// conversation's files sit in its directory, all else in the root.
pub fn conv_parent(q: Qid) -> Qid {
    match conv_of(q) {
        Some((conv, typ)) if typ != CONV_DIR => Qid::dir(conv_path(conv, CONV_DIR), 0),
        _ => ROOT,
    }
}

struct Conv<C> {
    number: usize,
    /// Open channels on the directory or a file in it.
    refs: usize,
    state: Arc<C>,
}

struct Convs<C> {
    next: usize,
    /// In number order.
    live: Vec<Conv<C>>,
    /// Channel handle → the conversation its open holds.
    holds: HashMap<u64, usize>,
}

impl<C> Convs<C> {
    fn find(&self, number: usize) -> Result<usize> {
        self.live
            .binary_search_by_key(&number, |c| c.number)
            .map_err(|_| NineError::new(errstr::ENOTEXIST))
    }
}

/// A file of a [`ConvTable`] device: its name, its qid path (in the
/// root) or file type (in a conversation's directory), and its mode.
pub type ConvFile = (&'static str, u32, u32);

const OWNER: &str = "network";

fn top_row(&(name, path, mode): &ConvFile) -> Dir {
    Dir::file(name, Qid::file(path, 0), mode, OWNER, 0)
}

fn conv_dir(number: usize) -> Dir {
    let qid = Qid::dir(conv_path(number, CONV_DIR), 0);
    Dir::directory(&number.to_string(), qid, 0o555, OWNER)
}

fn conv_file(number: usize, &(name, typ, mode): &ConvFile) -> Dir {
    Dir::file(name, Qid::file(conv_path(number, typ), 0), mode, OWNER, 0)
}

/// A device's numbered conversations. "A connection remains established
/// while any of the files in the connection directory are referenced"
/// (§2.3): each open of the directory or of a file in it holds one
/// reference, and the clunk that drops the last frees the conversation.
/// Numbers are never reused.
///
/// The tree every such device serves is the `top` files (`clone` among
/// them) and one directory per live conversation, in number order, in
/// the root, and `files` in each directory; [`ConvTable::rows`],
/// [`ConvTable::lookup`] and [`ConvTable::entry`] are the device's
/// [`Dev`] methods of those names, each answered under one hold of the
/// table's lock.
pub struct ConvTable<C> {
    convs: Mutex<Convs<C>>,
    top: &'static [ConvFile],
    files: &'static [ConvFile],
}

impl<C> ConvTable<C> {
    /// An empty table whose first conversation will be number `first`.
    pub fn new(first: usize, top: &'static [ConvFile], files: &'static [ConvFile]) -> ConvTable<C> {
        ConvTable {
            convs: Mutex::named(
                Convs { next: first, live: Vec::new(), holds: HashMap::new() },
                "ninep.convtable",
            ),
            top,
            files,
        }
    }

    /// The `clone` file: the next-numbered conversation, in `state`,
    /// held open by channel `handle`. Returns its number.
    pub fn alloc(&self, handle: u64, state: C) -> usize {
        let mut t = self.convs.lock();
        let number = t.next;
        t.next += 1;
        t.live.push(Conv { number, refs: 1, state: Arc::new(state) });
        t.holds.insert(handle, number);
        number
    }

    /// Conversation `number`.
    pub fn get(&self, number: usize) -> Result<Arc<C>> {
        let t = self.convs.lock();
        Ok(Arc::clone(&t.live[t.find(number)?].state))
    }

    /// Channel `handle` has opened conversation `number`'s directory or
    /// a file in it.
    pub fn hold(&self, handle: u64, number: usize) -> Result<()> {
        let mut t = self.convs.lock();
        let i = t.find(number)?;
        t.live[i].refs += 1;
        t.holds.insert(handle, number);
        Ok(())
    }

    /// Channel `handle` is gone. Returns the conversation it held if
    /// that was the last reference; the conversation is off the table
    /// and the caller hangs it up.
    pub fn clunk(&self, handle: u64) -> Option<Arc<C>> {
        let mut t = self.convs.lock();
        let number = t.holds.remove(&handle)?;
        let i = t.find(number).ok()?;
        t.live[i].refs -= 1;
        (t.live[i].refs == 0).then(|| t.live.remove(i).state)
    }

    /// The number of live conversations.
    pub fn conn_count(&self) -> usize {
        self.convs.lock().live.len()
    }

    /// Calls `f` on every live conversation, under the table's lock.
    pub fn for_each(&self, mut f: impl FnMut(&C)) {
        self.convs.lock().live.iter().for_each(|c| f(&c.state));
    }

    fn is_live(&self, number: usize) -> bool {
        self.convs.lock().find(number).is_ok()
    }

    /// [`Dev::rows`].
    pub fn rows(&self, dir: Qid) -> Vec<Dir> {
        let t = self.convs.lock();
        match conv_of(dir) {
            None => {
                let dirs = t.live.iter().map(|c| conv_dir(c.number));
                self.top.iter().map(top_row).chain(dirs).collect()
            }
            Some((number, _)) if t.find(number).is_ok() => {
                self.files.iter().map(|f| conv_file(number, f)).collect()
            }
            Some(_) => Vec::new(),
        }
    }

    /// [`Dev::lookup`]: one probe, however many conversations are live.
    /// A conversation's directory answers only to its listed name, so
    /// `07` and `+7` name nothing.
    pub fn lookup(&self, dir: Qid, name: &str) -> Option<Dir> {
        let Some((number, _)) = conv_of(dir) else {
            if let Some(f) = self.top.iter().find(|f| f.0 == name) {
                return Some(top_row(f));
            }
            let number = name.parse().ok().filter(|n: &usize| n.to_string() == name)?;
            return self.is_live(number).then(|| conv_dir(number));
        };
        let f = self.files.iter().find(|f| f.0 == name)?;
        self.is_live(number).then(|| conv_file(number, f))
    }

    /// [`Dev::entry`], likewise.
    pub fn entry(&self, q: Qid) -> Option<Dir> {
        let Some((number, typ)) = conv_of(q) else {
            return self.top.iter().find(|f| f.1 == q.path_bits()).map(top_row);
        };
        if typ == CONV_DIR {
            return self.is_live(number).then(|| conv_dir(number));
        }
        let f = self.files.iter().find(|f| f.1 == typ)?;
        self.is_live(number).then(|| conv_file(number, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::DIR_LEN;
    use std::collections::BTreeMap;

    /// `readme` (read-only) and `notes` in the root, `sub/leaf` below.
    struct Toy;

    fn toy_row(name: &str, path: u32, mode: u32) -> Dir {
        Dir::file(name, Qid::file(path, 0), mode, "toy", 0)
    }

    impl Dev for Toy {
        fn name(&self) -> String {
            "toy".to_string()
        }
        fn root(&self) -> Dir {
            Dir::directory("toy", ROOT, 0o555, "toy")
        }
        fn parent(&self, q: Qid) -> Qid {
            if q.path_bits() == 4 { Qid::dir(3, 0) } else { ROOT }
        }
        fn rows(&self, dir: Qid) -> Vec<Dir> {
            match dir.path_bits() {
                0 => vec![
                    toy_row("readme", 1, 0o444),
                    toy_row("notes", 2, 0o664),
                    Dir::directory("sub", Qid::dir(3, 0), 0o555, "toy"),
                ],
                3 => vec![toy_row("leaf", 4, 0o444)],
                _ => Vec::new(),
            }
        }
        fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
            Ok(readstr(&format!("file {}\n", n.qid.path_bits()), offset, count))
        }
    }

    #[test]
    fn readstr_slices_and_clamps() {
        assert_eq!(readstr("hello", 0, 3), b"hel");
        assert_eq!(readstr("hello", 3, 100), b"lo");
        assert_eq!(readstr("hello", 9, 4), b"");
    }

    #[test]
    fn handles_are_distinct_across_attach_and_clone() {
        let root = Toy.attach("u", "").unwrap();
        let dup = Toy.clone_node(&root).unwrap();
        assert_eq!(dup.qid, root.qid);
        assert_ne!(dup.handle, root.handle);
        assert_ne!(Toy.attach("u", "").unwrap().handle, dup.handle);
    }

    #[test]
    fn walk_stat_and_dotdot_come_from_the_table() {
        let root = Toy.attach("u", "").unwrap();
        let sub = Toy.walk(&root, "sub").unwrap();
        assert_eq!((sub.qid, sub.handle), (Qid::dir(3, 0), root.handle));
        let leaf = Toy.walk(&sub, "leaf").unwrap();
        assert_eq!(Toy.stat(&leaf).unwrap(), toy_row("leaf", 4, 0o444));
        assert_eq!(Toy.stat(&root).unwrap().name, "toy");
        assert_eq!(Toy.walk(&sub, "..").unwrap().qid, ROOT);
        assert_eq!(Toy.walk(&root, "..").unwrap().qid, ROOT);
        assert_eq!(Toy.walk(&leaf, "..").unwrap_err().0, errstr::ENOTDIR);
        assert_eq!(Toy.walk(&root, "leaf").unwrap_err().0, errstr::ENOTEXIST);
        assert_eq!(Toy.read(&leaf, 5, 100).unwrap(), b"4\n");
    }

    #[test]
    fn directory_reads_are_whole_rows() {
        let root = Toy.attach("u", "").unwrap();
        let bytes = Toy.read(&root, DIR_LEN as u64, 10 * DIR_LEN).unwrap();
        let names: Vec<String> = bytes
            .chunks(DIR_LEN)
            .map(|c| Dir::decode(c).unwrap().name)
            .collect();
        assert_eq!(names, ["notes", "sub"]);
        assert!(Toy.read(&root, 1, DIR_LEN).is_err());
    }

    #[test]
    fn open_mode_is_checked_against_the_row() {
        let root = Toy.attach("u", "").unwrap();
        let readme = Toy.walk(&root, "readme").unwrap();
        let notes = Toy.walk(&root, "notes").unwrap();
        assert!(Toy.open(&readme, OpenMode::READ).is_ok());
        for mode in [OpenMode::WRITE, OpenMode::RDWR] {
            assert_eq!(Toy.open(&readme, mode).unwrap_err().0, errstr::EPERM);
            assert_eq!(Toy.open(&root, mode).unwrap_err().0, errstr::EISDIR);
            assert!(Toy.open(&notes, mode).is_ok());
        }
        // No writer behind the write bits is still a refused write.
        assert_eq!(Toy.write(&notes, 0, b"x").unwrap_err().0, errstr::EPERM);
        assert_eq!(Toy.write(&root, 0, b"x").unwrap_err().0, errstr::EISDIR);
    }

    /// [`Toy`], counting how often its table is consulted.
    struct Counted(AtomicU64);

    impl Dev for Counted {
        fn name(&self) -> String {
            Toy.name()
        }
        fn root(&self) -> Dir {
            Toy.root()
        }
        fn parent(&self, q: Qid) -> Qid {
            Toy.parent(q)
        }
        fn rows(&self, dir: Qid) -> Vec<Dir> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Toy.rows(dir)
        }
        fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
            Toy.read_file(n, offset, count)
        }
    }

    #[test]
    fn each_operation_consults_the_table_once() {
        let dev = Counted(AtomicU64::new(0));
        let consulted = || dev.0.swap(0, Ordering::Relaxed);
        let root = dev.attach("u", "").unwrap();
        let sub = dev.walk(&root, "sub").unwrap();
        assert_eq!(consulted(), 1, "walk");
        dev.stat(&sub).unwrap();
        assert_eq!(consulted(), 1, "stat");
        dev.open(&sub, OpenMode::READ).unwrap();
        assert_eq!(consulted(), 1, "open");
        dev.read(&sub, 0, DIR_LEN).unwrap();
        assert_eq!(consulted(), 1, "directory read");
        dev.walk(&sub, "..").unwrap();
        assert_eq!(consulted(), 0, "dotdot");
    }

    #[test]
    fn conv_paths_round_trip() {
        for (conv, typ) in [(0, CONV_DIR), (0, 15), (7, 3), (4000, 2)] {
            assert_eq!(conv_of(Qid::file(conv_path(conv, typ), 0)), Some((conv, typ)));
        }
        assert_eq!(conv_of(Qid::file(2, 0)), None);
        assert_eq!(conv_of(ROOT), None);
        assert_eq!(conv_parent(Qid::file(conv_path(7, 3), 0)), Qid::dir(conv_path(7, CONV_DIR), 0));
        assert_eq!(conv_parent(Qid::dir(conv_path(7, CONV_DIR), 0)), ROOT);
        assert_eq!(conv_parent(Qid::file(1, 0)), ROOT);
    }

    const TOP: [ConvFile; 1] = [("clone", 1, 0o666)];
    const FILES: [ConvFile; 2] = [("ctl", 2, 0o660), ("data", 3, 0o660)];

    /// The numbered directories in the root, after `clone`.
    fn listed<C>(t: &ConvTable<C>) -> Vec<String> {
        let mut names = t.rows(ROOT).into_iter().map(|d| d.name);
        assert_eq!(names.next().as_deref(), Some("clone"));
        names.collect()
    }

    #[test]
    fn numbers_count_up_from_first_and_are_not_reused() {
        let t = ConvTable::new(1, &TOP, &FILES);
        assert_eq!(t.alloc(10, "a"), 1);
        assert_eq!(t.alloc(11, "b"), 2);
        assert_eq!(*t.clunk(10).unwrap(), "a");
        assert_eq!(t.alloc(12, "c"), 3);
        assert_eq!(listed(&t), ["2", "3"]);
        let dir = |n| Qid::dir(conv_path(n, CONV_DIR), 0);
        let files: Vec<Qid> = t.rows(dir(2)).iter().map(|d| d.qid).collect();
        assert_eq!(files, [Qid::file(conv_path(2, 2), 0), Qid::file(conv_path(2, 3), 0)]);
        assert!(t.rows(dir(1)).is_empty(), "a freed conversation has no files");
        assert_eq!(t.get(1).unwrap_err().0, errstr::ENOTEXIST);
        assert_eq!(t.hold(13, 1).unwrap_err().0, errstr::ENOTEXIST);
        assert!(t.clunk(99).is_none(), "a channel that held nothing");
    }

    #[test]
    fn lookup_and_entry_answer_without_the_listing() {
        let t = ConvTable::new(0, &TOP, &FILES);
        t.alloc(1, ());
        t.alloc(2, ());
        t.clunk(1);
        let dir = Qid::dir(conv_path(1, CONV_DIR), 0);
        assert_eq!(t.lookup(ROOT, "clone").unwrap().qid, Qid::file(1, 0));
        assert_eq!(t.lookup(ROOT, "1").unwrap().qid, dir);
        assert_eq!(t.lookup(dir, "data").unwrap().qid, Qid::file(conv_path(1, 3), 0));
        for gone in ["0", "2", "01", "+1", "ctl", ""] {
            assert!(t.lookup(ROOT, gone).is_none(), "{gone:?}");
        }
        assert!(t.lookup(dir, "clone").is_none());
        let freed = Qid::dir(conv_path(0, CONV_DIR), 0);
        assert!(t.lookup(freed, "ctl").is_none());
        assert!(t.entry(freed).is_none());
        assert!(t.entry(Qid::file(conv_path(0, 3), 0)).is_none());
        assert!(t.entry(Qid::file(conv_path(1, 9), 0)).is_none(), "no such file type");
        assert!(t.entry(Qid::file(7, 0)).is_none(), "no such top-level file");
    }

    /// A device that is nothing but its conversation table.
    struct Numbered(ConvTable<()>);

    impl Dev for Numbered {
        fn name(&self) -> String {
            "numbered".to_string()
        }
        fn root(&self) -> Dir {
            Dir::directory("numbered", ROOT, 0o555, OWNER)
        }
        fn parent(&self, q: Qid) -> Qid {
            conv_parent(q)
        }
        fn rows(&self, dir: Qid) -> Vec<Dir> {
            self.0.rows(dir)
        }
        fn lookup(&self, dir: Qid, name: &str) -> Option<Dir> {
            self.0.lookup(dir, name)
        }
        fn entry(&self, q: Qid) -> Option<Dir> {
            self.0.entry(q)
        }
        fn read_file(&self, _n: &ServeNode, _offset: u64, _count: usize) -> Result<Vec<u8>> {
            Ok(Vec::new())
        }
    }

    /// A live conversation is found however the table moves around it:
    /// one thread hangs up every lower-numbered conversation while
    /// another walks to the highest, stats it, opens it and lists the
    /// root.
    #[test]
    fn a_live_conversation_is_found_while_others_hang_up() {
        const N: u64 = 200;
        let dev = Arc::new(Numbered(ConvTable::new(0, &TOP, &FILES)));
        let root = dev.attach("u", "").unwrap();
        for round in 0..20 {
            let last = (round * N + N - 1).to_string();
            (0..N).for_each(|h| {
                dev.0.alloc(h, ());
            });
            let hanger = std::thread::spawn({
                let dev = Arc::clone(&dev);
                move || (0..N - 1).for_each(|h| drop(dev.0.clunk(h)))
            });
            while !hanger.is_finished() {
                let n = dev.walk(&root, &last).expect("walk to a live conversation");
                assert_eq!(dev.stat(&n).expect("stat of a live conversation").name, last);
                dev.open(&n, OpenMode::READ).expect("open of a live conversation");
                let listing = dev.read(&root, 0, (N as usize + 1) * DIR_LEN).unwrap();
                let tail = listing.chunks(DIR_LEN).next_back().unwrap();
                assert_eq!(Dir::decode(tail).unwrap().name, last);
            }
            hanger.join().unwrap();
            assert!(dev.0.clunk(N - 1).is_some());
        }
        assert_eq!(dev.0.conn_count(), 0);
    }

    plan9_support::props! {
        /// The table against a sequential model: number → open refs.
        /// Handles stand for channels; `clone_node` makes one that holds
        /// nothing, as `ProcFs::clone_node` does.
        fn prop_table_matches_refcount_model(g, cases = 200) {
            let first = g.usize_in(0..2);
            let table = ConvTable::new(first, &TOP, &FILES);
            let mut model: BTreeMap<usize, usize> = BTreeMap::new();
            let mut next = first;
            let mut holding: Vec<(u64, usize)> = Vec::new();
            let mut idle: Vec<u64> = Vec::new();
            let mut handles = 0u64..;
            for _ in 0..g.usize_in(0..60) {
                match g.usize_in(0..4) {
                    0 => {
                        let h = handles.next().unwrap();
                        assert_eq!(table.alloc(h, ()), next);
                        model.insert(next, 1);
                        holding.push((h, next));
                        next += 1;
                    }
                    1 => {
                        let h = handles.next().unwrap();
                        let number = g.usize_in(first..next + 2);
                        match model.get_mut(&number) {
                            Some(refs) => {
                                table.hold(h, number).unwrap();
                                *refs += 1;
                                holding.push((h, number));
                            }
                            None => assert!(table.hold(h, number).is_err()),
                        }
                    }
                    2 => idle.push(handles.next().unwrap()),
                    _ if !holding.is_empty() && g.bool() => {
                        let (h, number) = holding.swap_remove(g.usize_in(0..holding.len()));
                        let refs = model.get_mut(&number).unwrap();
                        *refs -= 1;
                        let last = *refs == 0;
                        if last {
                            model.remove(&number);
                        }
                        assert_eq!(table.clunk(h).is_some(), last);
                    }
                    _ => {
                        if let Some(h) = idle.pop() {
                            assert!(table.clunk(h).is_none());
                        }
                    }
                }
                let want: Vec<String> = model.keys().map(|n| n.to_string()).collect();
                assert_eq!(listed(&table), want);
                for row in table.rows(ROOT) {
                    assert_eq!(table.lookup(ROOT, &row.name).as_ref(), Some(&row));
                    assert_eq!(table.entry(row.qid).as_ref(), Some(&row));
                    for file in table.rows(row.qid).into_iter().filter(|_| row.is_dir()) {
                        assert_eq!(table.lookup(row.qid, &file.name).as_ref(), Some(&file));
                        assert_eq!(table.entry(file.qid).as_ref(), Some(&file));
                    }
                }
                assert_eq!(table.conn_count(), model.len());
            }
            for (h, _) in holding {
                table.clunk(h);
            }
            assert_eq!(table.conn_count(), 0);
        }
    }
}
