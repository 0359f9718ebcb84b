//! The generated-text device: files whose contents are computed on
//! every read and whose writes are ASCII requests.
//!
//! Plan 9 scatters small synthesized text files through the name space
//! — `/dev/sysname`, `/net/arp`, the `stats` files of §2.2 — and drives
//! its diagnostics the same way: `/net/log/{ctl,data,...}` (netlog) and
//! `/net/trace/{ctl,data}` (the flight recorder) take requests like
//! `set il tcp` on `ctl` and give text back from the rest. One
//! [`TextDev`] serves any of them from a table of [`TextFile`] rows;
//! [`crate::machine`] holds the tables. Because they are ordinary files
//! under `/net`, a machine that imports this `/net` reads the whole
//! fabric's telemetry with nothing but `read(2)`.

use plan9_ninep::procfs::{readstr, Dev, ServeNode, ROOT};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::sync::Arc;

type Writer = Box<dyn Fn(&str) -> Result<()> + Send + Sync>;

/// One row: a file's name, qid path and mode, what a read generates,
/// and what a write does with its request.
pub struct TextFile {
    name: &'static str,
    path: u32,
    mode: u32,
    read: Box<dyn Fn() -> String + Send + Sync>,
    write: Option<Writer>,
}

impl TextFile {
    /// A file nothing can be written to.
    pub fn new(
        name: &'static str,
        path: u32,
        mode: u32,
        read: impl Fn() -> String + Send + Sync + 'static,
    ) -> TextFile {
        TextFile { name, path, mode, read: Box::new(read), write: None }
    }

    /// The same file, handing each written request to `write`.
    pub fn on_write(mut self, write: impl Fn(&str) -> Result<()> + Send + Sync + 'static) -> TextFile {
        self.write = Some(Box::new(write));
        self
    }
}

/// A directory of generated files: the device's root, or the one
/// directory `dir` in it.
pub struct TextDev {
    name: String,
    owner: &'static str,
    dir: Option<&'static str>,
    /// In listing order.
    files: Vec<TextFile>,
}

/// The directory's qid path; the files' count up from 2 beside it.
const Q_DIR: u32 = 1;

impl TextDev {
    /// The device `name` serving `files`, listed in the order given, in
    /// `dir` if one is given.
    pub fn new(
        name: &str,
        owner: &'static str,
        dir: Option<&'static str>,
        files: Vec<TextFile>,
    ) -> Arc<TextDev> {
        Arc::new(TextDev { name: name.to_string(), owner, dir, files })
    }

    fn file(&self, q: Qid) -> Result<&TextFile> {
        self.files
            .iter()
            .find(|f| f.path == q.path_bits())
            .ok_or_else(|| NineError::new(errstr::EBADUSE))
    }

    /// The directory the files are listed in.
    fn files_dir(&self) -> Qid {
        if self.dir.is_some() { Qid::dir(Q_DIR, 0) } else { ROOT }
    }

    /// Directories admit writers when a file in them takes requests.
    fn dir_mode(&self) -> u32 {
        if self.files.iter().any(|f| f.write.is_some()) { 0o775 } else { 0o555 }
    }
}

impl Dev for TextDev {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn root(&self) -> Dir {
        let name = if self.dir.is_some() { "/" } else { &self.name };
        Dir::directory(name, ROOT, self.dir_mode(), self.owner)
    }

    fn parent(&self, q: Qid) -> Qid {
        if q.is_dir() { ROOT } else { self.files_dir() }
    }

    fn rows(&self, dir: Qid) -> Vec<Dir> {
        if dir == self.files_dir() {
            let row = |f: &TextFile| Dir::file(f.name, Qid::file(f.path, 0), f.mode, self.owner, 0);
            return self.files.iter().map(row).collect();
        }
        let name = self.dir.filter(|_| dir == ROOT);
        name.map(|name| Dir::directory(name, Qid::dir(Q_DIR, 0), self.dir_mode(), self.owner))
            .into_iter()
            .collect()
    }

    fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        Ok(readstr(&(self.file(n.qid)?.read)(), offset, count))
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        let write = self.file(n.qid)?.write.as_ref();
        let write = write.ok_or_else(|| NineError::new(errstr::EPERM))?;
        let req = std::str::from_utf8(data)
            .map_err(|_| NineError::new("control request is not text"))?;
        write(req)?;
        Ok(data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{log_files, trace_files};
    use plan9_netlog::trace::Tracer;
    use plan9_netlog::{Facility, NetLog};
    use plan9_ninep::procfs::{OpenMode, ProcFs};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Instant;

    fn walk_open(fs: &Arc<TextDev>, path: &[&str], mode: OpenMode) -> ServeNode {
        let mut n = fs.attach("u", "").unwrap();
        for elem in path {
            n = fs.walk(&n, elem).unwrap();
        }
        fs.open(&n, mode).unwrap()
    }

    fn text(fs: &Arc<TextDev>, n: &ServeNode) -> String {
        String::from_utf8(fs.read(n, 0, 65536).unwrap()).unwrap()
    }

    #[test]
    fn files_regenerate_per_read() {
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        let tick = TextFile::new("tick", 1, 0o444, move || c.fetch_add(1, Ordering::Relaxed).to_string());
        let fs = TextDev::new("info", "info", None, vec![tick]);
        let f = walk_open(&fs, &["tick"], OpenMode::READ);
        assert_eq!(fs.read(&f, 0, 10).unwrap(), b"0");
        assert_eq!(fs.read(&f, 0, 10).unwrap(), b"1");
        assert!(fs.write(&f, 0, b"no").is_err());
    }

    /// What `ls -q` of `path` shows: each name with its qid path.
    fn listing(fs: &Arc<TextDev>, path: &[&str]) -> Vec<(String, u32)> {
        let dir = walk_open(fs, path, OpenMode::READ);
        fs.read(&dir, 0, 4096)
            .unwrap()
            .chunks(plan9_ninep::dir::DIR_LEN)
            .map(|c| Dir::decode(c).unwrap())
            .map(|d| (d.name, d.qid.path_bits()))
            .collect()
    }

    /// The machine's own tables list in name order with the qids the
    /// files have always had.
    #[test]
    fn log_and_trace_list_their_files_with_their_qids() {
        let row = |(name, path): (&str, u32)| (name.to_string(), path);
        let (log, _netlog) = netlog_dev();
        assert_eq!(listing(&log, &[]), [row(("log", 1))]);
        let want = [("copy", 5), ("ctl", 2), ("data", 3), ("lockgraph", 6), ("series", 4), ("stats", 7)];
        assert_eq!(listing(&log, &["log"]), want.map(row));
        let (trace, _tracer) = trace_dev();
        assert_eq!(listing(&trace, &[]), [row(("trace", 1))]);
        assert_eq!(listing(&trace, &["trace"]), [("ctl", 2), ("data", 3)].map(row));
    }

    fn netlog_dev() -> (Arc<TextDev>, Arc<NetLog>) {
        let netlog = NetLog::new();
        (TextDev::new("netlog", "network", Some("log"), log_files(&netlog)), netlog)
    }

    #[test]
    fn log_ctl_sets_mask_and_reads_back() {
        let (fs, netlog) = netlog_dev();
        let ctl = walk_open(&fs, &["log", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"set il tcp").unwrap();
        assert!(netlog.events.enabled(Facility::Il));
        assert!(netlog.events.enabled(Facility::Tcp));
        assert_eq!(text(&fs, &ctl), "set il tcp\n");
    }

    #[test]
    fn log_data_returns_enabled_events_only() {
        let (fs, netlog) = netlog_dev();
        let ctl = walk_open(&fs, &["log", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"set il").unwrap();
        netlog.events.log(Facility::Il, || "rexmit id 7".to_string());
        netlog.events.log(Facility::Tcp, || "never recorded".to_string());
        let data = walk_open(&fs, &["log", "data"], OpenMode::READ);
        assert_eq!(text(&fs, &data), "il: rexmit id 7\n");
    }

    #[test]
    fn log_clear_flushes_and_disables() {
        let (fs, netlog) = netlog_dev();
        let ctl = walk_open(&fs, &["log", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"set arp").unwrap();
        netlog.events.log(Facility::Arp, || "who-has".to_string());
        fs.write(&ctl, 0, b"clear").unwrap();
        assert!(!netlog.events.enabled(Facility::Arp));
        let data = walk_open(&fs, &["log", "data"], OpenMode::READ);
        assert!(fs.read(&data, 0, 4096).unwrap().is_empty());
    }

    #[test]
    fn log_series_requests_go_to_the_sampler() {
        let (fs, _netlog) = netlog_dev();
        let ctl = walk_open(&fs, &["log", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"series interval 50ms").unwrap();
        fs.write(&ctl, 0, b"series retention 16").unwrap();
        let series = walk_open(&fs, &["log", "series"], OpenMode::READ);
        let text = text(&fs, &series);
        assert!(
            text.starts_with("series interval=50000us retention=16 samples=0\n"),
            "{text}"
        );
        assert!(fs.write(&ctl, 0, b"series interval zoom").is_err());
    }

    #[test]
    fn log_copy_is_the_copy_rows_of_log_stats() {
        let (fs, netlog) = netlog_dev();
        netlog.registry.counter("il.tx").add(3);
        // Touch a site so the table is guaranteed non-empty.
        let _ = plan9_support::buf::Bytes::copy_from_slice(b"copied");
        let copy = text(&fs, &walk_open(&fs, &["log", "copy"], OpenMode::READ));
        assert!(copy.contains("copy.buf.from_slice.bytes "), "{copy}");
        assert!(copy.lines().all(|l| l.starts_with("copy.")), "{copy}");
        let stats = text(&fs, &walk_open(&fs, &["log", "stats"], OpenMode::READ));
        assert!(stats.contains("il.tx 3\n") && stats.contains("pool.wheel.armed "), "{stats}");
        let names = |t: &str| t.lines().filter_map(|l| l.split(' ').next().map(str::to_string)).collect::<Vec<_>>();
        assert!(names(&copy).iter().all(|n| names(&stats).contains(n)), "{copy}\n{stats}");
    }

    #[test]
    fn log_lockgraph_serves_runtime_lock_classes() {
        let (fs, _netlog) = netlog_dev();
        // Touch a named lock so the dump has at least one class row in
        // debug builds, where lockdep is compiled in.
        let m = plan9_support::sync::Mutex::named(0u32, "core.test.lockgraph");
        *m.lock() += 1;
        let node = walk_open(&fs, &["log", "lockgraph"], OpenMode::READ);
        let text = text(&fs, &node);
        if cfg!(debug_assertions) {
            assert!(
                text.contains("class core.test.lockgraph acquires="),
                "lockgraph dump missing the class we just used:\n{text}"
            );
        } else {
            assert!(text.starts_with("# lockdep: disabled"));
        }
    }

    #[test]
    fn log_bad_requests_are_errors() {
        let (fs, _netlog) = netlog_dev();
        let ctl = walk_open(&fs, &["log", "ctl"], OpenMode::RDWR);
        // The 9P error must name the offending facility, not just fail.
        let err = fs.write(&ctl, 0, b"set nosuch").unwrap_err();
        assert!(err.0.contains("nosuch"), "{err}");
        let data = walk_open(&fs, &["log", "data"], OpenMode::READ);
        assert!(fs.write(&data, 0, b"no").is_err());
    }

    fn trace_dev() -> (Arc<TextDev>, Arc<Tracer>) {
        let tracer = Tracer::new(16);
        (TextDev::new("nettrace", "network", Some("trace"), trace_files(&tracer)), tracer)
    }

    #[test]
    fn trace_ctl_toggles_and_reads_back() {
        let (fs, tracer) = trace_dev();
        let ctl = walk_open(&fs, &["trace", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"trace on").unwrap();
        assert!(tracer.enabled());
        fs.write(&ctl, 0, b"filter il 9p").unwrap();
        assert_eq!(text(&fs, &ctl), "trace on\nfilter il 9p\nsample 1\n");
        fs.write(&ctl, 0, b"sample 8").unwrap();
        assert_eq!(text(&fs, &ctl), "trace on\nfilter il 9p\nsample 8\n");
        fs.write(&ctl, 0, b"trace off").unwrap();
        assert!(!tracer.enabled());
    }

    #[test]
    fn trace_data_streams_completed_spans() {
        let (fs, tracer) = trace_dev();
        let ctl = walk_open(&fs, &["trace", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"trace on").unwrap();
        let h = tracer.begin("Tread tag 4").unwrap();
        let now = Instant::now();
        h.span(Facility::NineP, "marshal", now, now);
        h.finish();
        let data = walk_open(&fs, &["trace", "data"], OpenMode::READ);
        let text = text(&fs, &data);
        assert!(text.contains("trace 1 Tread tag 4"), "{text}");
        assert!(text.contains("span 9p marshal"), "{text}");
        fs.write(&ctl, 0, b"clear").unwrap();
        assert!(fs.read(&data, 0, 4096).unwrap().is_empty());
    }

    #[test]
    fn trace_dump_forces_open_roots_into_data() {
        let (fs, tracer) = trace_dev();
        let ctl = walk_open(&fs, &["trace", "ctl"], OpenMode::RDWR);
        fs.write(&ctl, 0, b"trace on").unwrap();
        let _h = tracer.begin("stuck").unwrap();
        fs.write(&ctl, 0, b"dump").unwrap();
        let data = walk_open(&fs, &["trace", "data"], OpenMode::READ);
        let text = text(&fs, &data);
        assert!(text.contains("stuck") && text.contains("open"), "{text}");
    }

    #[test]
    fn trace_bad_requests_are_errors_naming_the_offender() {
        let (fs, _tracer) = trace_dev();
        let ctl = walk_open(&fs, &["trace", "ctl"], OpenMode::RDWR);
        let err = fs.write(&ctl, 0, b"filter lance").unwrap_err();
        assert!(err.0.contains("lance"), "{err}");
        let err = fs.write(&ctl, 0, b"rewind").unwrap_err();
        assert!(err.0.contains("rewind"), "{err}");
    }
}
