//! Marshaling 9P messages over undelimited byte streams.
//!
//! The paper (§2.1): "When a protocol does not meet these requirements
//! (for example, TCP does not preserve delimiters) we provide mechanisms
//! to marshal messages before handing them to the system."
//!
//! The mechanism here is a four-byte little-endian length prefix, put
//! in front of a message by the one [`frame`] function and taken off
//! by the one [`Deframer`], which takes the stream in chunks cut
//! anywhere and hands back whole messages. [`FramedSink`] and
//! [`FramedSource`] put the two on a byte transport; a TCP conversation
//! served from its pool shard uses them directly (`inet::nine`).

use crate::transport::{ByteSink, ByteSource, MsgSink, MsgSource};
use crate::{errstr, NineError, Result};
use plan9_support::copysite::Site;

/// The size of the length prefix.
pub const FRAME_HDR: usize = 4;

/// Upper bound accepted for a framed message, as a sanity check against
/// stream desynchronization.
pub const FRAME_MAX: usize = 1 << 20;

static FRAME_SITE: Site = Site::new("marshal.frame");
static DEFRAME_SITE: Site = Site::new("marshal.deframe");

/// `msg` behind its length prefix, in one buffer of its own: a write of
/// it is one contiguous write. The copy is the caller's to record, as
/// whatever it is on the caller's path.
pub fn frame(msg: &[u8]) -> Result<Vec<u8>> {
    if msg.len() > FRAME_MAX {
        return Err(NineError::new(errstr::ETOOBIG));
    }
    let mut buf = Vec::with_capacity(FRAME_HDR + msg.len());
    buf.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    buf.extend_from_slice(msg);
    Ok(buf)
}

/// Reassembles length-prefixed messages from a stream cut anywhere.
#[derive(Default)]
pub struct Deframer {
    buf: Vec<u8>,
    /// Where the bytes not yet handed back start in `buf`.
    at: usize,
}

impl Deframer {
    /// Takes the next chunk of the stream: over whole, with no copy,
    /// when nothing is buffered, and behind what is otherwise.
    pub fn push(&mut self, chunk: Vec<u8>) {
        if self.buffered() == 0 {
            self.buf = chunk;
        } else {
            self.buf.drain(..self.at);
            DEFRAME_SITE.record(self.buf.len() + chunk.len());
            self.buf.extend_from_slice(&chunk);
        }
        self.at = 0;
    }

    /// Bytes buffered but not yet handed back.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The length of the next message, if it is all here. An absurd
    /// length is an error: the stream has lost its framing.
    pub fn whole(&self) -> Result<Option<usize>> {
        let Some(&hdr) = self.buf[self.at..].first_chunk::<FRAME_HDR>() else {
            return Ok(None);
        };
        let need = u32::from_le_bytes(hdr) as usize;
        if need > FRAME_MAX {
            return Err(NineError::new(errstr::EBADMSG));
        }
        Ok((self.buffered() >= FRAME_HDR + need).then_some(need))
    }

    /// The next whole message, as a view of the buffer.
    pub fn view(&mut self) -> Result<Option<&[u8]>> {
        let Some(n) = self.whole()? else { return Ok(None) };
        let start = self.at + FRAME_HDR;
        self.at = start + n;
        Ok(Some(&self.buf[start..self.at]))
    }

    /// The next whole message, as a buffer of its own: when it fills
    /// the buffer, the buffer itself, its bytes moved down over the
    /// prefix and no new allocation made.
    pub fn take(&mut self) -> Result<Option<Vec<u8>>> {
        let msg = if self.at == 0 && self.whole()?.is_some_and(|n| FRAME_HDR + n == self.buf.len()) {
            let mut msg = std::mem::take(&mut self.buf);
            msg.drain(..FRAME_HDR);
            msg
        } else {
            let Some(msg) = self.view()? else { return Ok(None) };
            msg.to_vec()
        };
        DEFRAME_SITE.record(msg.len());
        Ok(Some(msg))
    }
}

/// Adapts a byte sink into a message sink by prefixing each message with
/// its length.
pub struct FramedSink<W: ByteSink> {
    inner: W,
}

impl<W: ByteSink> FramedSink<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        FramedSink { inner }
    }
}

impl<W: ByteSink> MsgSink for FramedSink<W> {
    fn sendmsg(&mut self, msg: &[u8]) -> Result<()> {
        // One contiguous write: a write of less than 32K is atomic on a
        // Plan 9 stream, and our simulated streams honor the same rule, so
        // header and body stay adjacent even with concurrent writers.
        let buf = frame(msg)?;
        FRAME_SITE.record(buf.len());
        self.inner.send_bytes(&buf)
    }
}

/// Adapts a byte source into a message source by reassembling
/// length-prefixed frames from arbitrarily-chunked input.
pub struct FramedSource<R: ByteSource> {
    inner: R,
    de: Deframer,
}

impl<R: ByteSource> FramedSource<R> {
    /// Wraps a byte source.
    pub fn new(inner: R) -> Self {
        FramedSource {
            inner,
            de: Deframer::default(),
        }
    }
}

impl<R: ByteSource> MsgSource for FramedSource<R> {
    fn recvmsg(&mut self) -> Result<Option<Vec<u8>>> {
        while self.de.whole()?.is_none() {
            match self.inner.recv_some()? {
                Some(chunk) => self.de.push(chunk),
                None if self.de.buffered() == 0 => return Ok(None),
                // EOF mid-frame: the peer died; report it.
                None => return Err(NineError::new(errstr::EHUNGUP)),
            }
        }
        self.de.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plan9_support::chan::{unbounded, Receiver, Sender};

    /// One end of an in-memory byte stream that loses message
    /// boundaries, as TCP does: what was written comes out in chunks of
    /// at most `max_chunk` bytes (as written, when zero).
    struct BytePipeEnd {
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
        max_chunk: usize,
        pending: Vec<u8>,
    }

    impl BytePipeEnd {
        fn pair() -> (BytePipeEnd, BytePipeEnd) {
            let ((atx, arx), (btx, brx)) = (unbounded(), unbounded());
            let end = |tx, rx| BytePipeEnd { tx, rx, max_chunk: 0, pending: Vec::new() };
            (end(atx, brx), end(btx, arx))
        }
    }

    impl ByteSink for BytePipeEnd {
        fn send_bytes(&mut self, bytes: &[u8]) -> Result<()> {
            self.tx.send(bytes.to_vec()).map_err(|_| NineError::new(errstr::EHUNGUP))
        }
    }

    impl ByteSource for BytePipeEnd {
        fn recv_some(&mut self) -> Result<Option<Vec<u8>>> {
            if self.pending.is_empty() {
                match self.rx.recv() {
                    Ok(chunk) => self.pending = chunk,
                    Err(_) => return Ok(None),
                }
            }
            let n = match self.max_chunk {
                0 => self.pending.len(),
                max => self.pending.len().min(max),
            };
            Ok(Some(self.pending.drain(..n).collect()))
        }
    }

    #[test]
    fn a_byte_pipe_rechunks() {
        let (mut a, mut b) = BytePipeEnd::pair();
        b.max_chunk = 2;
        a.send_bytes(b"hello").unwrap();
        assert_eq!(b.recv_some().unwrap().unwrap(), b"he");
        assert_eq!(b.recv_some().unwrap().unwrap(), b"ll");
        assert_eq!(b.recv_some().unwrap().unwrap(), b"o");
    }

    #[test]
    fn frames_survive_rechunking() {
        let (a, mut b) = BytePipeEnd::pair();
        b.max_chunk = 3;
        let mut tx = FramedSink::new(a);
        let mut rx = FramedSource::new(b);
        tx.sendmsg(b"hello world").unwrap();
        tx.sendmsg(b"").unwrap();
        tx.sendmsg(&[7u8; 1000]).unwrap();
        assert_eq!(rx.recvmsg().unwrap().unwrap(), b"hello world");
        assert_eq!(rx.recvmsg().unwrap().unwrap(), b"");
        assert_eq!(rx.recvmsg().unwrap().unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let (a, b) = BytePipeEnd::pair();
        let mut tx = FramedSink::new(a);
        let mut rx = FramedSource::new(b);
        tx.sendmsg(b"x").unwrap();
        drop(tx);
        assert_eq!(rx.recvmsg().unwrap().unwrap(), b"x");
        assert_eq!(rx.recvmsg().unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_error() {
        let (mut a, b) = BytePipeEnd::pair();
        let mut rx = FramedSource::new(b);
        // Header promises 10 bytes but only 2 arrive.
        a.send_bytes(&10u32.to_le_bytes()).unwrap();
        a.send_bytes(b"ab").unwrap();
        drop(a);
        assert!(rx.recvmsg().is_err());
    }

    #[test]
    fn absurd_length_is_error() {
        let (mut a, b) = BytePipeEnd::pair();
        let mut rx = FramedSource::new(b);
        a.send_bytes(&u32::MAX.to_le_bytes()).unwrap();
        assert!(rx.recvmsg().is_err());
    }

    /// The stream `msgs` make, framed.
    fn stream(msgs: &[&[u8]]) -> Vec<u8> {
        msgs.iter().flat_map(|m| frame(m).unwrap()).collect()
    }

    #[test]
    fn a_chunk_of_several_frames_comes_back_a_message_at_a_time() {
        let mut de = Deframer::default();
        de.push(stream(&[b"one", b"", b"three"]));
        assert_eq!(de.view().unwrap(), Some(&b"one"[..]));
        assert_eq!(de.take().unwrap().unwrap(), b"");
        assert_eq!(de.view().unwrap(), Some(&b"three"[..]));
        assert_eq!(de.view().unwrap(), None);
        assert_eq!(de.buffered(), 0);
    }

    #[test]
    fn a_frame_cut_into_many_chunks_is_whole_only_at_its_last_byte() {
        let msg: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let wire = stream(&[&msg, b"next"]);
        let mut de = Deframer::default();
        let mut chunks = wire.chunks(7);
        while de.whole().unwrap().is_none() {
            de.push(chunks.next().unwrap().to_vec());
        }
        assert_eq!(de.buffered(), 1008);
        assert_eq!(de.take().unwrap().unwrap(), msg);
        chunks.for_each(|c| de.push(c.to_vec()));
        assert_eq!(de.view().unwrap(), Some(&b"next"[..]));
    }

    #[test]
    fn a_frame_that_fills_the_buffer_comes_back_in_it() {
        let mut de = Deframer::default();
        let wire = frame(&[9u8; 8192]).unwrap();
        let at = wire.as_ptr();
        de.push(wire);
        let msg = de.take().unwrap().unwrap();
        assert_eq!((msg.as_ptr(), msg.len()), (at, 8192));
        assert_eq!(de.buffered(), 0);
    }

    #[test]
    fn an_absurd_length_is_lost_framing() {
        let mut de = Deframer::default();
        de.push(u32::MAX.to_le_bytes().to_vec());
        assert!(de.whole().is_err() && de.view().is_err() && de.take().is_err());
    }

    plan9_support::props! {
        fn prop_a_deframer_hands_back_any_messages_any_chunking(g, cases = 256) {
            let msgs = g.vec(1..20, |g| g.bytes(0..300));
            let wire = stream(&msgs.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let mut de = Deframer::default();
            let (mut got, mut at) = (Vec::new(), 0);
            while got.len() < msgs.len() {
                if de.whole().unwrap().is_some() {
                    let msg = match g.bool() {
                        true => de.take().unwrap(),
                        false => de.view().unwrap().map(<[u8]>::to_vec),
                    };
                    got.push(msg.unwrap());
                } else {
                    let n = g.usize_in(1..40).min(wire.len() - at);
                    de.push(wire[at..at + n].to_vec());
                    at += n;
                }
            }
            assert_eq!((got, de.buffered()), (msgs, 0));
        }

        fn prop_round_trip_any_messages_any_chunking(g, cases = 256) {
            let msgs = g.vec(1..20, |g| g.bytes(0..300));
            let chunk = g.usize_in(1..17);
            let (a, mut b) = BytePipeEnd::pair();
            b.max_chunk = chunk;
            let mut tx = FramedSink::new(a);
            let mut rx = FramedSource::new(b);
            for m in &msgs {
                tx.sendmsg(m).unwrap();
            }
            for m in &msgs {
                assert_eq!(rx.recvmsg().unwrap().unwrap(), m.clone());
            }
        }
    }
}
