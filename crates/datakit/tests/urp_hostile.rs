//! URP's input against whatever a circuit can carry: empty cells, every
//! control byte, sequence numbers outside the window, acknowledgments
//! and rejections of cells long acknowledged. A URP end fed such cells
//! over a raw circuit, then a CLOSE, never panics, and its reader gets
//! only whole messages — those a receiver taking each cell in sequence
//! assembles — and then the hangup.

use plan9_datakit::urp::{UrpConn, UrpListener};
use plan9_netsim::fabric::{Circuit, DatakitSwitch};
use plan9_netsim::profile::Profiles;
use plan9_support::check::Gen;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const T_DATA: u8 = 0x00;
const T_DATA_EOM: u8 = 0x08;
const T_ENQ: u8 = 0x10;
const T_ACK: u8 = 0x18;
const T_ECHO: u8 = 0x20;
const T_REJ: u8 = 0x30;
const T_CLOSE: u8 = 0x40;

/// A URP end, and the raw circuit that calls it.
fn raw_call() -> (Circuit, Arc<UrpConn>) {
    let sw = DatakitSwitch::new(Profiles::datakit_fast());
    let line = sw.attach("nj/astro/raw").expect("attach raw");
    let listener = UrpListener::new(sw.attach("nj/astro/urp").expect("attach urp"));
    let raw = line.dial("nj/astro/urp!hostile").expect("dial");
    let (conn, _, _) = listener.accept().expect("accept");
    (raw, conn)
}

/// One arbitrary cell: empty, any byte at all, or a cell of a type URP
/// knows with any sequence number, carrying up to a full cell's bytes.
fn cell(g: &mut Gen) -> Vec<u8> {
    let ctl = match g.usize_in(0..8) {
        0 => return Vec::new(),
        1 | 2 => g.u8(),
        _ => [T_DATA, T_DATA_EOM, T_ENQ, T_ACK, T_ECHO, T_REJ][g.usize_in(0..6)] | g.usize_in(0..8) as u8,
    };
    let max = if g.bool() { 8 } else { 2047 };
    let mut cell = vec![ctl];
    cell.extend(g.bytes(0..max));
    cell
}

/// The messages a receiver that takes each data cell in sequence and
/// stops at a CLOSE assembles from `cells`.
fn whole_messages(cells: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let (mut expected, mut assembly, mut messages) = (0, Vec::new(), Vec::new());
    for cell in cells {
        let Some(&ctl) = cell.first() else { continue };
        match ctl & 0x78 {
            T_CLOSE => break,
            t @ (T_DATA | T_DATA_EOM) if ctl & 7 == expected => {
                expected = (expected + 1) & 7;
                assembly.extend_from_slice(&cell[1..]);
                if t == T_DATA_EOM {
                    messages.push(std::mem::take(&mut assembly));
                }
            }
            _ => {}
        }
    }
    messages
}

plan9_support::props! {
    fn prop_hostile_cells_leave_whole_messages_then_the_hangup(g, cases = 200) {
        let (raw, conn) = raw_call();
        // The end has a cell of its own out, which the raw side takes,
        // acknowledges and then rejects.
        conn.send(b"mine").expect("send");
        assert_eq!(raw.recv().expect("the end's cell"), [T_DATA_EOM, b'm', b'i', b'n', b'e']);
        let mut cells = vec![vec![T_ACK | 1], vec![T_REJ]];
        cells.extend((0..g.usize_in(0..60)).map(|_| cell(g)));
        for c in &cells {
            raw.send(c).expect("raw send");
        }
        raw.send(&[T_CLOSE]).expect("raw close");
        let (got_tx, got) = mpsc::channel();
        std::thread::spawn(move || {
            while let Some(m) = conn.recv() {
                got_tx.send(m).expect("the test waits");
            }
        });
        let mut read = Vec::new();
        loop {
            match got.recv_timeout(Duration::from_secs(10)) {
                Ok(m) => read.push(m),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("no hangup after the CLOSE: {cells:?}"),
            }
        }
        assert_eq!(read, whole_messages(&cells), "cells {cells:?}");
    }
}
