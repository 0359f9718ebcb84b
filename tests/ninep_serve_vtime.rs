//! `ninep::server::serve` under the virtual clock. Not among the
//! crate's unit tests: a virtual run is process-wide, and those run on
//! the real clock.

use plan9_ninep::client::NineClient;
use plan9_ninep::procfs::{MemFs, OpenMode};
use plan9_ninep::server::serve;
use plan9_ninep::transport::MsgPipeEnd;
use plan9_support::vtime;

#[test]
fn hangup_leaves_an_empty_kproc_census() {
    let vt = vtime::enter();
    let fs = MemFs::new("ram", "bootes");
    fs.put_file("/f", b"data").unwrap();
    let (client_end, server_end) = MsgPipeEnd::pair();
    let (ssink, ssource) = server_end.split();
    let server = vtime::kproc("serve", move || serve(fs, Box::new(ssource), Box::new(ssink))).unwrap();
    let (csink, csource) = client_end.split();
    let c = NineClient::new(Box::new(csink), Box::new(csource));
    // Two callers at once, so `serve` makes a second worker for their
    // walks and opens (it answers their reads itself) and one caller
    // reads the other's replies.
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let c = c.clone();
            vtime::kproc("caller", move || {
                let (fid, _) = c.attach("u", "").unwrap();
                c.walk(fid, "f").unwrap();
                c.open(fid, OpenMode::READ).unwrap();
                for _ in 0..50 {
                    assert_eq!(c.read(fid, 0, 8).unwrap(), b"data");
                }
                c.clunk(fid).unwrap();
            })
            .unwrap()
        })
        .collect();
    for h in callers {
        h.join().unwrap();
    }
    // The last clone of the client goes, and the transport with it.
    drop(c);
    server.join().unwrap().unwrap();
    // `serve` joined its workers before it returned: only this thread
    // is left on the clock.
    assert_eq!(vt.clock().census(), (1, 0));
}
