//! Port allocation shared by the transport protocols.

use plan9_support::sync::Mutex;
use plan9_ninep::NineError;
use std::collections::HashSet;

/// First ephemeral port handed out to unbound local ends.
pub const EPHEMERAL_BASE: u16 = 5000;

/// Tracks which local ports of one protocol are in use and hands out
/// ephemeral ones.
pub struct PortSpace {
    used: Mutex<(HashSet<u16>, u16)>,
}

impl Default for PortSpace {
    fn default() -> Self {
        PortSpace::new()
    }
}

impl PortSpace {
    /// Creates an empty port space.
    pub fn new() -> PortSpace {
        PortSpace {
            used: Mutex::named((HashSet::new(), EPHEMERAL_BASE), "inet.ports"),
        }
    }

    /// Claims a specific port; fails if it is taken.
    pub fn claim(&self, port: u16) -> crate::Result<u16> {
        let mut used = self.used.lock();
        if !used.0.insert(port) {
            return Err(NineError::new(format!("port {port} in use")));
        }
        Ok(port)
    }

    /// Allocates a free ephemeral port.
    pub fn alloc(&self) -> crate::Result<u16> {
        let mut used = self.used.lock();
        for _ in 0..=u16::MAX {
            let candidate = used.1;
            used.1 = if used.1 == u16::MAX {
                EPHEMERAL_BASE
            } else {
                used.1 + 1
            };
            if candidate >= EPHEMERAL_BASE && used.0.insert(candidate) {
                return Ok(candidate);
            }
        }
        Err(NineError::new("out of ports"))
    }

    /// Releases a port for reuse.
    pub fn release(&self, port: u16) {
        self.used.lock().0.remove(&port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_conflict_detected() {
        let p = PortSpace::new();
        p.claim(564).unwrap();
        assert!(p.claim(564).is_err());
        p.release(564);
        p.claim(564).unwrap();
    }

    #[test]
    fn ephemeral_ports_unique() {
        let p = PortSpace::new();
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert!(a >= EPHEMERAL_BASE && b >= EPHEMERAL_BASE);
    }

    #[test]
    fn ephemeral_skips_claimed() {
        let p = PortSpace::new();
        p.claim(EPHEMERAL_BASE).unwrap();
        assert_ne!(p.alloc().unwrap(), EPHEMERAL_BASE);
    }
}
