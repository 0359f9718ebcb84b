//! The 17 message types of 1st-edition 9P.
//!
//! The paper (§2.1): "The protocol consists of 17 messages describing
//! operations on files and directories." The set, following the Plan 9
//! 1st edition `fcall.h`, is:
//!
//! | # | message | purpose |
//! |---|---------|---------|
//! | 1 | `nop` | no-op; historically used to synchronize a link |
//! | 2 | `osession` | obsolete session setup (always answered with an error) |
//! | 3 | `session` | authenticate a connection and reset fid space |
//! | 4 | `error` | reply-only: the request failed, here is why |
//! | 5 | `flush` | abort an outstanding request |
//! | 6 | `attach` | validate a user, return a channel to the server root |
//! | 7 | `clone` | duplicate a channel, like `dup` |
//! | 8 | `walk` | descend one level in the hierarchy |
//! | 9 | `clwalk` | clone-and-walk in one round trip (an optimization) |
//! | 10 | `open` | prepare a channel for I/O |
//! | 11 | `create` | create a file and open it |
//! | 12 | `read` | read from an open channel |
//! | 13 | `write` | write to an open channel |
//! | 14 | `clunk` | discard a channel without affecting the file |
//! | 15 | `remove` | remove the file and clunk the channel |
//! | 16 | `stat` | read file attributes |
//! | 17 | `wstat` | write file attributes |

use crate::dir::Dir;
use crate::qid::Qid;

/// Fixed length of name fields (file names, user names) on the wire.
///
/// 1st-edition 9P uses fixed-size, NUL-padded name fields of 28 bytes.
pub const NAME_LEN: usize = 28;

/// Fixed length of the error string in an `Rerror`.
pub const ERR_LEN: usize = 64;

/// Fixed length of an authentication ticket in `Tattach`.
pub const TICKET_LEN: usize = 72;

/// Fixed length of an authenticator/challenge.
pub const AUTH_LEN: usize = 13;

/// Fixed length of a challenge in `Tsession`/`Rsession`.
pub const CHAL_LEN: usize = 8;

/// Fixed length of the authentication domain name in `Rsession`.
pub const DOMAIN_LEN: usize = 48;

/// Maximum data bytes carried by one `read`/`write` message.
pub const MAX_FDATA: usize = 8192;

/// Maximum total message size on the wire (header + data).
///
/// Headers never exceed 160 bytes in this dialect, so `MAX_MSG` bounds
/// buffer allocation for transports.
pub const MAX_MSG: usize = 160 + MAX_FDATA;

/// A fid: the client's handle on a file, scoped to one connection.
pub type Fid = u16;

/// A tag: identifies one outstanding request on a connection.
pub type Tag = u16;

/// The tag value that means "no tag" (used by `Tnop`).
pub const NOTAG: Tag = 0xffff;

/// The fid value that means "no fid".
pub const NOFID: Fid = 0xffff;

/// Message type bytes on the wire, matching the 1st-edition layout of
/// consecutive T/R pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Tnop request.
    Tnop = 50,
    /// Rnop reply.
    Rnop = 51,
    /// Tosession request (obsolete).
    Tosession = 52,
    /// Rosession reply (obsolete).
    Rosession = 53,
    /// Terror is illegal; the value is reserved.
    Terror = 54,
    /// Rerror reply.
    Rerror = 55,
    /// Tflush request.
    Tflush = 56,
    /// Rflush reply.
    Rflush = 57,
    /// Tclone request.
    Tclone = 58,
    /// Rclone reply.
    Rclone = 59,
    /// Twalk request.
    Twalk = 60,
    /// Rwalk reply.
    Rwalk = 61,
    /// Topen request.
    Topen = 62,
    /// Ropen reply.
    Ropen = 63,
    /// Tcreate request.
    Tcreate = 64,
    /// Rcreate reply.
    Rcreate = 65,
    /// Tread request.
    Tread = 66,
    /// Rread reply.
    Rread = 67,
    /// Twrite request.
    Twrite = 68,
    /// Rwrite reply.
    Rwrite = 69,
    /// Tclunk request.
    Tclunk = 70,
    /// Rclunk reply.
    Rclunk = 71,
    /// Tremove request.
    Tremove = 72,
    /// Rremove reply.
    Rremove = 73,
    /// Tstat request.
    Tstat = 74,
    /// Rstat reply.
    Rstat = 75,
    /// Twstat request.
    Twstat = 76,
    /// Rwstat reply.
    Rwstat = 77,
    /// Tclwalk request.
    Tclwalk = 78,
    /// Rclwalk reply.
    Rclwalk = 79,
    /// Tsession request.
    Tsession = 84,
    /// Rsession reply.
    Rsession = 85,
    /// Tattach request.
    Tattach = 86,
    /// Rattach reply.
    Rattach = 87,
}

impl MsgType {
    /// Decodes a wire byte into a message type.
    pub fn from_u8(b: u8) -> Option<MsgType> {
        use MsgType::*;
        Some(match b {
            50 => Tnop,
            51 => Rnop,
            52 => Tosession,
            53 => Rosession,
            54 => Terror,
            55 => Rerror,
            56 => Tflush,
            57 => Rflush,
            58 => Tclone,
            59 => Rclone,
            60 => Twalk,
            61 => Rwalk,
            62 => Topen,
            63 => Ropen,
            64 => Tcreate,
            65 => Rcreate,
            66 => Tread,
            67 => Rread,
            68 => Twrite,
            69 => Rwrite,
            70 => Tclunk,
            71 => Rclunk,
            72 => Tremove,
            73 => Rremove,
            74 => Tstat,
            75 => Rstat,
            76 => Twstat,
            77 => Rwstat,
            78 => Tclwalk,
            79 => Rclwalk,
            84 => Tsession,
            85 => Rsession,
            86 => Tattach,
            87 => Rattach,
            _ => return None,
        })
    }
}

/// The number of distinct protocol messages (the paper's "17 messages").
pub const MESSAGE_COUNT: usize = 17;

/// The names of the 17 messages, for documentation and the §2.1 check.
pub const MESSAGE_NAMES: [&str; MESSAGE_COUNT] = [
    "nop", "osession", "session", "error", "flush", "attach", "clone", "walk", "clwalk", "open",
    "create", "read", "write", "clunk", "remove", "stat", "wstat",
];

/// A request (T-message) from client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tmsg {
    /// Synchronize the link; carries no state.
    Nop,
    /// Obsolete session setup; servers answer with `Rerror`.
    Osession {
        /// Historical challenge bytes.
        chal: [u8; CHAL_LEN],
    },
    /// Begin a session: abandon all fids, exchange challenges.
    Session {
        /// Client's authentication challenge.
        chal: [u8; CHAL_LEN],
    },
    /// Abort the outstanding request with tag `old_tag`.
    Flush {
        /// Tag of the request to abort.
        old_tag: Tag,
    },
    /// Attach `fid` to the root of the server's tree for user `uname`.
    Attach {
        /// The fid that will reference the root.
        fid: Fid,
        /// The user making the attach.
        uname: String,
        /// Which tree to attach to (servers may export several).
        aname: String,
        /// Authentication ticket (opaque here; checked by auth servers).
        ticket: Vec<u8>,
    },
    /// Make `new_fid` identical to `fid`.
    Clone {
        /// Existing fid.
        fid: Fid,
        /// New fid to establish.
        new_fid: Fid,
    },
    /// Move `fid` one level down the hierarchy to `name`.
    Walk {
        /// The fid to move.
        fid: Fid,
        /// The path element to walk to.
        name: String,
    },
    /// Clone `fid` to `new_fid` and walk it to `name`, in one round trip.
    Clwalk {
        /// Existing fid.
        fid: Fid,
        /// New fid, which ends at `name` on success.
        new_fid: Fid,
        /// The path element to walk to.
        name: String,
    },
    /// Prepare `fid` for I/O.
    Open {
        /// The fid to open.
        fid: Fid,
        /// Open mode (OREAD and friends; see [`crate::procfs::OpenMode`]).
        mode: u8,
    },
    /// Create `name` in the directory referenced by `fid`, then open it.
    Create {
        /// Directory fid; becomes the new file on success.
        fid: Fid,
        /// Name of the file to create.
        name: String,
        /// Permissions of the new file ([`crate::procfs::Perm`]).
        perm: u32,
        /// Open mode.
        mode: u8,
    },
    /// Read `count` bytes at `offset` from the open file `fid`.
    Read {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: u64,
        /// Number of bytes requested (at most [`MAX_FDATA`]).
        count: u16,
    },
    /// Write bytes at `offset` to the open file `fid`.
    Write {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: u64,
        /// The data to write (at most [`MAX_FDATA`] bytes).
        data: Vec<u8>,
    },
    /// Discard `fid` without affecting the file.
    Clunk {
        /// The fid to discard.
        fid: Fid,
    },
    /// Remove the file and discard `fid`.
    Remove {
        /// The fid whose file is removed.
        fid: Fid,
    },
    /// Read the attributes of the file referenced by `fid`.
    Stat {
        /// The fid to stat.
        fid: Fid,
    },
    /// Write the attributes of the file referenced by `fid`.
    Wstat {
        /// The fid to wstat.
        fid: Fid,
        /// The new directory entry.
        stat: Dir,
    },
}

impl Tmsg {
    /// The wire type byte for this request.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Tmsg::Nop => MsgType::Tnop,
            Tmsg::Osession { .. } => MsgType::Tosession,
            Tmsg::Session { .. } => MsgType::Tsession,
            Tmsg::Flush { .. } => MsgType::Tflush,
            Tmsg::Attach { .. } => MsgType::Tattach,
            Tmsg::Clone { .. } => MsgType::Tclone,
            Tmsg::Walk { .. } => MsgType::Twalk,
            Tmsg::Clwalk { .. } => MsgType::Tclwalk,
            Tmsg::Open { .. } => MsgType::Topen,
            Tmsg::Create { .. } => MsgType::Tcreate,
            Tmsg::Read { .. } => MsgType::Tread,
            Tmsg::Write { .. } => MsgType::Twrite,
            Tmsg::Clunk { .. } => MsgType::Tclunk,
            Tmsg::Remove { .. } => MsgType::Tremove,
            Tmsg::Stat { .. } => MsgType::Tstat,
            Tmsg::Wstat { .. } => MsgType::Twstat,
        }
    }

    /// The fid this request operates on, if any (used by servers to
    /// serialize per-fid operations).
    pub fn fid(&self) -> Option<Fid> {
        match self {
            Tmsg::Attach { fid, .. }
            | Tmsg::Clone { fid, .. }
            | Tmsg::Walk { fid, .. }
            | Tmsg::Clwalk { fid, .. }
            | Tmsg::Open { fid, .. }
            | Tmsg::Create { fid, .. }
            | Tmsg::Read { fid, .. }
            | Tmsg::Write { fid, .. }
            | Tmsg::Clunk { fid }
            | Tmsg::Remove { fid }
            | Tmsg::Stat { fid }
            | Tmsg::Wstat { fid, .. } => Some(*fid),
            _ => None,
        }
    }
}

/// A reply (R-message) from server to client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rmsg {
    /// Reply to `Tnop`.
    Nop,
    /// Reply to `Tosession` (never sent by this implementation; kept for
    /// wire compatibility).
    Osession,
    /// Reply to `Tsession`: the server's challenge and auth identity.
    Session {
        /// Server's challenge.
        chal: [u8; CHAL_LEN],
        /// Server's authentication id.
        authid: String,
        /// Server's authentication domain.
        authdom: String,
    },
    /// The request identified by the tag failed.
    Error {
        /// Why, as a string — the only error representation in 9P.
        ename: String,
    },
    /// Reply to `Tflush`: the old request has been aborted or had finished.
    Flush,
    /// Reply to `Tattach`.
    Attach {
        /// Echo of the request fid.
        fid: Fid,
        /// Qid of the server root.
        qid: Qid,
    },
    /// Reply to `Tclone`.
    Clone {
        /// Echo of the request fid.
        fid: Fid,
    },
    /// Reply to `Twalk`.
    Walk {
        /// Echo of the request fid.
        fid: Fid,
        /// Qid of the file walked to.
        qid: Qid,
    },
    /// Reply to `Tclwalk`.
    Clwalk {
        /// Echo of the request fid.
        fid: Fid,
        /// Qid of the file walked to.
        qid: Qid,
    },
    /// Reply to `Topen`.
    Open {
        /// Echo of the request fid.
        fid: Fid,
        /// Qid of the opened file.
        qid: Qid,
    },
    /// Reply to `Tcreate`.
    Create {
        /// Echo of the request fid.
        fid: Fid,
        /// Qid of the created file.
        qid: Qid,
    },
    /// Reply to `Tread`.
    Read {
        /// Echo of the request fid.
        fid: Fid,
        /// The bytes read.
        data: Vec<u8>,
    },
    /// Reply to `Twrite`.
    Write {
        /// Echo of the request fid.
        fid: Fid,
        /// Number of bytes accepted.
        count: u16,
    },
    /// Reply to `Tclunk`.
    Clunk {
        /// Echo of the request fid.
        fid: Fid,
    },
    /// Reply to `Tremove`.
    Remove {
        /// Echo of the request fid.
        fid: Fid,
    },
    /// Reply to `Tstat`.
    Stat {
        /// Echo of the request fid.
        fid: Fid,
        /// The directory entry.
        stat: Dir,
    },
    /// Reply to `Twstat`.
    Wstat {
        /// Echo of the request fid.
        fid: Fid,
    },
}

impl Rmsg {
    /// An `Rerror` carrying `ename`.
    pub fn error(ename: &str) -> Rmsg {
        Rmsg::Error { ename: ename.to_string() }
    }

    /// The wire type byte for this reply.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Rmsg::Nop => MsgType::Rnop,
            Rmsg::Osession => MsgType::Rosession,
            Rmsg::Session { .. } => MsgType::Rsession,
            Rmsg::Error { .. } => MsgType::Rerror,
            Rmsg::Flush => MsgType::Rflush,
            Rmsg::Attach { .. } => MsgType::Rattach,
            Rmsg::Clone { .. } => MsgType::Rclone,
            Rmsg::Walk { .. } => MsgType::Rwalk,
            Rmsg::Clwalk { .. } => MsgType::Rclwalk,
            Rmsg::Open { .. } => MsgType::Ropen,
            Rmsg::Create { .. } => MsgType::Rcreate,
            Rmsg::Read { .. } => MsgType::Rread,
            Rmsg::Write { .. } => MsgType::Rwrite,
            Rmsg::Clunk { .. } => MsgType::Rclunk,
            Rmsg::Remove { .. } => MsgType::Rremove,
            Rmsg::Stat { .. } => MsgType::Rstat,
            Rmsg::Wstat { .. } => MsgType::Rwstat,
        }
    }

    /// Reports whether this reply is the expected kind for the request.
    pub fn answers(&self, t: &Tmsg) -> bool {
        if matches!(self, Rmsg::Error { .. }) {
            return true;
        }
        (self.msg_type() as u8) == (t.msg_type() as u8) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_messages() {
        assert_eq!(MESSAGE_COUNT, 17);
        assert_eq!(MESSAGE_NAMES.len(), 17);
        // All names distinct.
        let mut names = MESSAGE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn msg_type_round_trip() {
        for b in 0..=255u8 {
            if let Some(t) = MsgType::from_u8(b) {
                assert_eq!(t as u8, b);
            }
        }
    }

    #[test]
    fn replies_answer_requests() {
        let t = Tmsg::Clunk { fid: 3 };
        assert!(Rmsg::Clunk { fid: 3 }.answers(&t));
        assert!(Rmsg::Error { ename: "x".into() }.answers(&t));
        assert!(!Rmsg::Nop.answers(&t));
    }

    #[test]
    fn fid_extraction() {
        assert_eq!(Tmsg::Clunk { fid: 7 }.fid(), Some(7));
        assert_eq!(Tmsg::Nop.fid(), None);
        assert_eq!(Tmsg::Flush { old_tag: 1 }.fid(), None);
    }
}
