//! The `eia` UART device (§2.2).
//!
//! "Simple device drivers serve a single level directory containing just
//! a few files; for example, we represent each UART by a data and a
//! control file":
//!
//! ```text
//! % ls -l /dev/eia*
//! --rw-rw-rw- t 0 bootes bootes 0 Jul 16 17:28 eia1
//! --rw-rw-rw- t 0 bootes bootes 0 Jul 16 17:28 eia1ctl
//! ```
//!
//! "The control file is used to control the device; writing the string
//! `b1200` to /dev/eia1ctl sets the line to 1200 baud."

use plan9_support::sync::Mutex;
use plan9_netsim::uart::UartEnd;
use plan9_ninep::procfs::{conv_of, conv_path, readstr, Dev, ServeNode, ROOT};
use plan9_ninep::qid::Qid;
use plan9_ninep::{errstr, Dir, NineError, Result};
use std::collections::VecDeque;
use std::sync::Arc;

struct Line {
    uart: UartEnd,
    /// Bytes received but not yet consumed by a reader.
    pending: Mutex<VecDeque<u8>>,
}

/// The serial-line device: `eia1`, `eia1ctl`, `eia2`, ... numbered from
/// one like the paper's listing.
pub struct EiaDev {
    lines: Vec<Line>,
}

// A line's two files, as the file types of `conv_path(line, _)`.
const T_DATA: u32 = 1;
const T_CTL: u32 = 2;

impl EiaDev {
    /// Builds the device over a set of serial lines.
    pub fn new(uarts: Vec<UartEnd>) -> Arc<EiaDev> {
        Arc::new(EiaDev {
            lines: uarts
                .into_iter()
                .map(|uart| Line {
                    uart,
                    pending: Mutex::named(VecDeque::new(), "core.eia.pending"),
                })
                .collect(),
        })
    }

    fn line_of(&self, q: Qid) -> Result<(&Line, bool)> {
        let (idx, typ) = conv_of(q).ok_or_else(|| NineError::new(errstr::EBADUSE))?;
        let line = self.lines.get(idx).ok_or_else(|| NineError::new(errstr::ENOTEXIST))?;
        Ok((line, typ == T_CTL))
    }
}

impl Dev for EiaDev {
    fn name(&self) -> String {
        "eia".to_string()
    }

    fn root(&self) -> Dir {
        Dir::directory("eia", ROOT, 0o555, "bootes")
    }

    fn rows(&self, _dir: Qid) -> Vec<Dir> {
        let row = |line: usize, suffix: &str, typ: u32| {
            let name = format!("eia{}{suffix}", line + 1);
            let mut d = Dir::file(&name, Qid::file(conv_path(line, typ), 0), 0o666, "bootes", 0);
            d.dev_type = b't' as u16;
            d
        };
        (0..self.lines.len())
            .flat_map(|line| [row(line, "", T_DATA), row(line, "ctl", T_CTL)])
            .collect()
    }

    fn read_file(&self, n: &ServeNode, offset: u64, count: usize) -> Result<Vec<u8>> {
        let (line, is_ctl) = self.line_of(n.qid)?;
        if is_ctl {
            return Ok(readstr(&format!("b{}\n", line.uart.baud()), offset, count));
        }
        // Data: drain pending bytes, else block for more from the line.
        {
            let mut pending = line.pending.lock();
            if !pending.is_empty() {
                let n = pending.len().min(count);
                return Ok(pending.drain(..n).collect());
            }
        }
        match line.uart.recv() {
            Some(bytes) => {
                let mut pending = line.pending.lock();
                let take = bytes.len().min(count);
                pending.extend(bytes[take..].iter());
                Ok(bytes[..take].to_vec())
            }
            None => Ok(Vec::new()),
        }
    }

    fn write_file(&self, n: &ServeNode, _offset: u64, data: &[u8]) -> Result<usize> {
        let (line, is_ctl) = self.line_of(n.qid)?;
        if is_ctl {
            let cmd = std::str::from_utf8(data)
                .map_err(|_| NineError::new("control request is not text"))?
                .trim();
            if let Some(baud) = cmd.strip_prefix('b') {
                let baud: u32 = baud
                    .parse()
                    .map_err(|_| NineError::new(format!("bad baud rate: {cmd}")))?;
                line.uart.set_baud(baud);
                return Ok(data.len());
            }
            return Err(NineError::new(format!("unknown control request: {cmd}")));
        }
        line.uart.send(data).map_err(NineError::new)?;
        Ok(data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_netsim::uart::uart_pair;
    use plan9_ninep::procfs::{OpenMode, ProcFs};

    fn dev_and_peer() -> (Arc<EiaDev>, UartEnd) {
        let (a, b) = uart_pair(1_000_000);
        (EiaDev::new(vec![a]), b)
    }

    #[test]
    fn listing_matches_paper_shape() {
        let (dev, _peer) = dev_and_peer();
        let root = dev.attach("u", "").unwrap();
        let names: Vec<String> = dev
            .read(&root, 0, 4096)
            .unwrap()
            .chunks(plan9_ninep::dir::DIR_LEN)
            .map(|c| Dir::decode(c).unwrap())
            .map(|d| {
                assert!(d.ls_line().starts_with("-rw-rw-rw- t"), "{}", d.ls_line());
                d.name
            })
            .collect();
        assert_eq!(names, vec!["eia1", "eia1ctl"]);
    }

    #[test]
    fn b1200_sets_the_line() {
        let (dev, peer) = dev_and_peer();
        let root = dev.attach("u", "").unwrap();
        let ctl = dev.walk(&root, "eia1ctl").unwrap();
        let ctl = dev.open(&ctl, OpenMode::WRITE).unwrap();
        dev.write(&ctl, 0, b"b1200").unwrap();
        assert_eq!(peer.baud(), 1200);
        let text = dev.read(&ctl, 0, 16).unwrap();
        assert_eq!(text, b"b1200\n");
        assert!(dev.write(&ctl, 0, b"stty -echo").is_err());
    }

    #[test]
    fn data_crosses_the_line() {
        let (dev, peer) = dev_and_peer();
        let root = dev.attach("u", "").unwrap();
        let data = dev.walk(&root, "eia1").unwrap();
        let data = dev.open(&data, OpenMode::RDWR).unwrap();
        dev.write(&data, 0, b"hello").unwrap();
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(peer.recv().unwrap());
        }
        assert_eq!(got, b"hello");
        peer.send(b"back").unwrap();
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(dev.read(&data, 0, 100).unwrap());
        }
        assert_eq!(got, b"back");
    }

    #[test]
    fn short_reads_keep_remainder() {
        let (dev, peer) = dev_and_peer();
        let root = dev.attach("u", "").unwrap();
        let data = dev.walk(&root, "eia1").unwrap();
        let data = dev.open(&data, OpenMode::READ).unwrap();
        peer.send(b"abcdef").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut got = Vec::new();
        while got.len() < 6 {
            got.extend(dev.read(&data, 0, 2).unwrap());
        }
        assert_eq!(got, b"abcdef");
    }
}
