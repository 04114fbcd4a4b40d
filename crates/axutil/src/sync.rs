//! A bounded MPSC channel with observable depth — the admission-queue
//! primitive behind `axserve`'s backpressure.
//!
//! [`std::sync::mpsc::sync_channel`] already provides a bounded buffer
//! with a non-blocking [`try_send`](std::sync::mpsc::SyncSender::try_send),
//! but it cannot answer "how full is the queue right now?", which a load-
//! shedding server needs for stats and retry-after hints. [`bounded`]
//! wraps the std channel with a shared depth counter: the sender
//! increments before each send attempt (and takes it back if the send is
//! refused), the receiver decrements on a successful receive, and both sides (or anyone holding a clone of the
//! [`QueueDepth`] gauge) can read the instantaneous depth.
//!
//! The counter is advisory — between reading it and acting, other
//! threads may have moved it — but send/recv themselves stay exact:
//! admission control uses the *result* of [`BoundedSender::try_send`],
//! never the gauge, so shedding decisions are race-free.
//!
//! # Examples
//!
//! ```
//! use axutil::sync::{bounded, SendError};
//!
//! let (tx, rx) = bounded::<u32>(2);
//! tx.try_send(1).unwrap();
//! tx.try_send(2).unwrap();
//! assert_eq!(tx.depth(), 2);
//! // The buffer is full: the third send is refused, not queued.
//! assert!(matches!(tx.try_send(3), Err(SendError::Full(3))));
//! assert_eq!(rx.recv().unwrap(), 1);
//! assert_eq!(rx.depth(), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// A shared gauge of how many items are buffered in a [`bounded`]
/// channel. Cheap to clone; reads are `Relaxed` (advisory).
#[derive(Debug, Clone, Default)]
pub struct QueueDepth(Arc<AtomicUsize>);

impl QueueDepth {
    /// The current number of buffered items.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a [`BoundedSender::try_send`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The buffer is at capacity; the item is handed back so the caller
    /// can shed it with context.
    Full(T),
    /// The receiver is gone; the channel will never drain.
    Disconnected(T),
}

/// The sending half of a [`bounded`] channel. Clone freely; every clone
/// shares the same buffer and depth gauge.
#[derive(Debug, Clone)]
pub struct BoundedSender<T> {
    tx: mpsc::SyncSender<T>,
    depth: QueueDepth,
    capacity: usize,
}

impl<T> BoundedSender<T> {
    /// Attempts to enqueue without blocking. On success the depth gauge
    /// counts the item; a full buffer returns [`SendError::Full`]
    /// immediately — this is the load-shedding edge.
    ///
    /// The gauge is incremented *before* the item becomes receivable (and
    /// taken back if the send is refused), so a receiver's decrement can
    /// never run ahead of it and wrap the gauge below zero.
    pub fn try_send(&self, item: T) -> Result<(), SendError<T>> {
        self.depth.0.fetch_add(1, Ordering::Relaxed);
        self.tx.try_send(item).map_err(|e| {
            self.depth.0.fetch_sub(1, Ordering::Relaxed);
            match e {
                TrySendError::Full(item) => SendError::Full(item),
                TrySendError::Disconnected(item) => SendError::Disconnected(item),
            }
        })
    }

    /// The advisory buffered-item count.
    pub fn depth(&self) -> usize {
        self.depth.get()
    }

    /// The configured buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A clone of the depth gauge (for stats snapshots).
    pub fn depth_gauge(&self) -> QueueDepth {
        self.depth.clone()
    }
}

/// The receiving half of a [`bounded`] channel.
#[derive(Debug)]
pub struct BoundedReceiver<T> {
    rx: mpsc::Receiver<T>,
    depth: QueueDepth,
}

impl<T> BoundedReceiver<T> {
    /// Blocks until an item arrives or every sender is dropped.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the channel is empty and disconnected.
    pub fn recv(&self) -> Result<T, mpsc::RecvError> {
        let item = self.rx.recv()?;
        self.depth.0.fetch_sub(1, Ordering::Relaxed);
        Ok(item)
    }

    /// Blocks up to `timeout` for an item.
    ///
    /// # Errors
    ///
    /// Returns the std timeout/disconnect error unchanged.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let item = self.rx.recv_timeout(timeout)?;
        self.depth.0.fetch_sub(1, Ordering::Relaxed);
        Ok(item)
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// Returns the std empty/disconnect error unchanged.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let item = self.rx.try_recv()?;
        self.depth.0.fetch_sub(1, Ordering::Relaxed);
        Ok(item)
    }

    /// The advisory buffered-item count.
    pub fn depth(&self) -> usize {
        self.depth.get()
    }

    /// A clone of the depth gauge (for stats snapshots).
    pub fn depth_gauge(&self) -> QueueDepth {
        self.depth.clone()
    }
}

/// Creates a bounded MPSC channel of the given capacity with a shared
/// depth gauge. Capacity `0` is rejected (a rendezvous channel cannot
/// buffer, so every `try_send` without a waiting receiver would shed).
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn bounded<T>(capacity: usize) -> (BoundedSender<T>, BoundedReceiver<T>) {
    assert!(capacity > 0, "bounded channel needs capacity >= 1");
    let (tx, rx) = mpsc::sync_channel(capacity);
    let depth = QueueDepth::default();
    (
        BoundedSender {
            tx,
            depth: depth.clone(),
            capacity,
        },
        BoundedReceiver { rx, depth },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_exactly_past_capacity() {
        let (tx, rx) = bounded::<usize>(3);
        for i in 0..3 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.depth(), 3);
        assert!(matches!(tx.try_send(99), Err(SendError::Full(99))));
        // Draining one frees exactly one slot.
        assert_eq!(rx.recv().unwrap(), 0);
        tx.try_send(100).unwrap();
        assert!(matches!(tx.try_send(101), Err(SendError::Full(101))));
    }

    #[test]
    fn depth_tracks_send_and_recv() {
        let (tx, rx) = bounded::<u8>(8);
        assert_eq!(rx.depth(), 0);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.depth(), 2);
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(tx.depth(), 1);
        assert!(rx.recv_timeout(Duration::from_millis(1)).is_ok());
        assert_eq!(rx.depth(), 0);
        assert!(rx.try_recv().is_err());
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn disconnect_is_distinguished_from_full() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(matches!(tx.try_send(7), Err(SendError::Disconnected(7))));
    }

    #[test]
    fn works_across_threads() {
        let (tx, rx) = bounded::<usize>(4);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sent = 0usize;
                let mut i = 0usize;
                while sent < 100 {
                    if tx.try_send(i).is_ok() {
                        sent += 1;
                    }
                    i += 1;
                }
            });
            let mut got = 0;
            while got < 100 {
                if rx.recv_timeout(Duration::from_secs(5)).is_ok() {
                    got += 1;
                }
            }
        });
        assert_eq!(rx.depth(), 0);
    }

    /// Many senders racing one receiver: after each receive the gauge
    /// reads at most `capacity + senders` (a full buffer plus one counted,
    /// not yet refused, attempt per sender), so it never wraps below zero.
    #[test]
    fn depth_never_wraps_under_concurrent_send_and_recv() {
        const CAPACITY: usize = 2;
        const SENDERS: usize = 4;
        const PER_SENDER: usize = 5_000;
        let (tx, rx) = bounded::<usize>(CAPACITY);
        // The receiver drains to the end and the bound is checked after
        // the join, so a violation fails the test instead of stranding
        // the senders on a full buffer.
        let (got, max_depth) = std::thread::scope(|s| {
            for _ in 0..SENDERS {
                let tx = tx.clone();
                s.spawn(move || {
                    let mut sent = 0;
                    while sent < PER_SENDER {
                        match tx.try_send(sent) {
                            Ok(()) => sent += 1,
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                });
            }
            drop(tx);
            let (mut got, mut max_depth) = (0, 0);
            while rx.recv().is_ok() {
                got += 1;
                max_depth = max_depth.max(rx.depth());
            }
            (got, max_depth)
        });
        assert_eq!(got, SENDERS * PER_SENDER);
        assert!(max_depth <= CAPACITY + SENDERS, "depth read {max_depth}");
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = bounded::<u8>(0);
    }
}
