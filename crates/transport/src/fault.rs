//! Deterministic fault injection: wrap any [`Transport`] and make it
//! misbehave on a seeded, reproducible schedule.
//!
//! [`FaultyTransport`] injects the faults a TCP link can show userspace:
//! a late frame and a torn-down connection. (TCP never delivers a
//! dropped, duplicated or bit-flipped frame, so there is nothing of that
//! kind to inject.) Fault decisions are pure functions of `(seed, frame
//! index)` via splitmix64, so a failing schedule replays identically from
//! its seed: every CI failure is reproducible locally.
//!
//! Faults act on the **sender side** of a frame: a "delayed" frame is
//! forwarded after a sleep, a "disconnect" tears the underlying link down
//! (both parties observe it, like a cable pull).

use crate::transport::Transport;
use crate::TransportError;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// splitmix64: deterministic fault-schedule hashing.
#[must_use]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What happens to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward unchanged.
    Pass,
    /// Sleep, then forward.
    Delay,
    /// Tear the link down (then report `Disconnected`).
    Disconnect,
}

/// A seeded fault schedule: a per-mille delay rate plus explicit
/// disconnect points.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for all pseudorandom decisions.
    pub seed: u64,
    /// Out of 1000 sent frames, how many are delayed by
    /// [`FaultPlan::delay`].
    pub delay_per_mille: u16,
    /// Sleep applied to delayed frames.
    pub delay: Duration,
    /// Outgoing frame indices at which the link is torn down
    /// ("disconnect at frame N"). The session on top fails with a typed
    /// error; nothing reconnects.
    pub disconnect_at: Vec<u64>,
}

impl FaultPlan {
    /// A clean link (no faults) — useful as a matrix baseline.
    #[must_use]
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// The deterministic action for outgoing frame number `index`.
    #[must_use]
    pub fn action(&self, index: u64) -> FaultAction {
        if self.disconnect_at.contains(&index) {
            return FaultAction::Disconnect;
        }
        let roll = splitmix64(self.seed ^ (index.wrapping_mul(0x9E37_79B9))) % 1000;
        if roll < u64::from(self.delay_per_mille) {
            return FaultAction::Delay;
        }
        FaultAction::Pass
    }
}

/// Count of injected faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames forwarded late.
    pub delayed: u64,
    /// Link teardowns.
    pub disconnects: u64,
}

/// A [`Transport`] proxy that injects faults from a [`FaultPlan`].
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    sent: AtomicU64,
    delayed: AtomicU64,
    disconnects: AtomicU64,
}

impl FaultyTransport {
    /// Wraps `inner` with the fault schedule `plan`.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            sent: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delayed: self.delayed.load(Ordering::SeqCst),
            disconnects: self.disconnects.load(Ordering::SeqCst),
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        let index = self.sent.fetch_add(1, Ordering::SeqCst);
        match self.plan.action(index) {
            FaultAction::Pass => self.inner.send(bytes),
            FaultAction::Delay => {
                self.delayed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(self.plan.delay);
                self.inner.send(bytes)
            }
            FaultAction::Disconnect => {
                self.disconnects.fetch_add(1, Ordering::SeqCst);
                self.inner.shutdown();
                Err(TransportError::Disconnected)
            }
        }
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        self.inner.recv(deadline)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn descriptor(&self) -> String {
        format!("faulty(seed={}, {})", self.plan.seed, self.inner.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mem_pair;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan { seed: 7, delay_per_mille: 50, ..FaultPlan::clean() };
        let first: Vec<FaultAction> = (0..256).map(|i| plan.action(i)).collect();
        let second: Vec<FaultAction> = (0..256).map(|i| plan.action(i)).collect();
        assert_eq!(first, second);
        assert!(first.contains(&FaultAction::Delay), "delay plan never fired");
        assert!(first.iter().filter(|a| **a == FaultAction::Pass).count() > 200);
    }

    #[test]
    fn disconnect_at_fires_exactly_there() {
        let plan = FaultPlan { disconnect_at: vec![3], ..FaultPlan::clean() };
        assert_eq!(plan.action(2), FaultAction::Pass);
        assert_eq!(plan.action(3), FaultAction::Disconnect);
    }

    #[test]
    fn delay_forwards_the_frame_late() {
        let (a, b) = mem_pair();
        let delay = Duration::from_millis(20);
        let plan = FaultPlan { delay_per_mille: 1000, delay, ..FaultPlan::clean() };
        let faulty = FaultyTransport::new(Arc::new(a), plan);
        let started = std::time::Instant::now();
        faulty.send(Bytes::from(vec![1, 2, 3])).unwrap();
        assert!(started.elapsed() >= delay);
        assert_eq!(&b.recv(Some(Duration::from_millis(10))).unwrap()[..], &[1, 2, 3]);
        assert_eq!(faulty.stats(), FaultStats { delayed: 1, disconnects: 0 });
    }

    #[test]
    fn disconnect_kills_both_sides() {
        let (a, b) = mem_pair();
        let plan = FaultPlan { disconnect_at: vec![0], ..FaultPlan::clean() };
        let faulty = FaultyTransport::new(Arc::new(a), plan);
        assert_eq!(faulty.send(Bytes::from(vec![0])), Err(TransportError::Disconnected));
        assert_eq!(b.recv(Some(Duration::from_millis(10))), Err(TransportError::Disconnected));
        assert_eq!(faulty.stats().disconnects, 1);
    }
}
