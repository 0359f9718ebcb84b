//! Simulated UART serial lines (the `eia` devices of §2.2).
//!
//! A UART moves bytes at its configured baud rate with ten bits on the
//! wire per byte (start + 8 data + stop). The baud rate can be changed
//! at any time — writing `b1200` to `/dev/eia1ctl` in the device layer
//! calls [`UartEnd::set_baud`].

use plan9_support::chan::{unbounded, Receiver, Sender};
use plan9_support::time;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
#[cfg(test)]
use std::time::Instant;

/// One end of a serial line.
pub struct UartEnd {
    baud: Arc<AtomicU32>,
    tx: Sender<u8>,
    rx: Receiver<u8>,
}

impl UartEnd {
    /// Writes bytes, paced at the current baud rate.
    pub fn send(&self, bytes: &[u8]) -> crate::Result<()> {
        for &b in bytes {
            let baud = self.baud.load(Ordering::Relaxed).max(1);
            // Ten bit times per byte: start, eight data, stop.
            let byte_time = Duration::from_nanos(10_000_000_000u64 / baud as u64);
            time::sleep(byte_time);
            self.tx.send(b).map_err(|_| "uart: line down".to_string())?;
        }
        Ok(())
    }

    /// Blocks for at least one byte, then drains whatever is pending (a
    /// FIFO read). `None` means the line dropped.
    pub fn recv(&self) -> Option<Vec<u8>> {
        let first = self.rx.recv().ok()?;
        let mut buf = vec![first];
        while let Ok(b) = self.rx.try_recv() {
            buf.push(b);
            if buf.len() >= 256 {
                break;
            }
        }
        Some(buf)
    }

    /// Changes the line speed (`b1200` → `set_baud(1200)`).
    pub fn set_baud(&self, baud: u32) {
        self.baud.store(baud.max(1), Ordering::Relaxed);
    }

    /// The current line speed.
    pub fn baud(&self) -> u32 {
        self.baud.load(Ordering::Relaxed)
    }
}

/// Creates a full-duplex serial line at the given baud rate.
///
/// Each end has its own transmit pacing but both share the configured
/// rate, as two UARTs on one line must.
pub fn uart_pair(baud: u32) -> (UartEnd, UartEnd) {
    let shared = Arc::new(AtomicU32::new(baud.max(1)));
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        UartEnd {
            baud: Arc::clone(&shared),
            tx: atx,
            rx: brx,
        },
        UartEnd {
            baud: shared,
            tx: btx,
            rx: arx,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_line() {
        let (a, b) = uart_pair(1_000_000);
        a.send(b"hello").unwrap();
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(b.recv().unwrap());
        }
        assert_eq!(got, b"hello");
    }

    #[test]
    fn pacing_matches_baud() {
        // 9600 baud = 960 bytes/s; 24 bytes ≈ 25 ms.
        let (a, b) = uart_pair(9600);
        let start = Instant::now();
        a.send(&[0u8; 24]).unwrap();
        let mut got = 0;
        while got < 24 {
            got += b.recv().unwrap().len();
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn set_baud_takes_effect() {
        let (a, b) = uart_pair(300);
        a.set_baud(1_000_000);
        assert_eq!(b.baud(), 1_000_000, "both ends share the rate");
        let start = Instant::now();
        a.send(&[0u8; 64]).unwrap();
        assert!(start.elapsed() < Duration::from_millis(300));
    }

    #[test]
    fn hangup_detected() {
        let (a, b) = uart_pair(1_000_000);
        drop(a);
        assert_eq!(b.recv(), None);
    }
}
