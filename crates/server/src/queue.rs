//! The bounded admission queue between the accept loop and the worker
//! pool.
//!
//! Admission control is the queue's whole point: [`BoundedQueue::try_push`]
//! **never blocks and never grows the backlog past the configured
//! capacity** — when the queue is full the caller gets the job back and
//! answers 503 immediately, so overload sheds load at the door instead of
//! buffering requests whose clients have long since given up.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the job is handed back for a 503.
    Full(T),
    /// The queue is closed (server shutting down); refuse new work.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue over `Mutex` + `Condvar`.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Has [`BoundedQueue::close`] been called? (Lets the front door's
    /// tests wait for a shutdown to start.)
    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A poisoning panic elsewhere must not wedge the server; the state
        // (a VecDeque and a bool) is valid at every await point.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue without blocking. Fails with the item when the queue is at
    /// capacity ([`PushError::Full`]) or closed ([`PushError::Closed`]).
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Dequeue, blocking until an item arrives. Returns `None` only when
    /// the queue is closed **and** drained — workers finish every admitted
    /// job before exiting.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Close the queue: refuse new pushes, wake every blocked popper.
    /// Already-admitted items remain poppable (drain semantics).
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_in_order() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // Popping one frees a slot.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(2));
    }

    #[test]
    fn capacity_minimum_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
    }

    #[test]
    fn close_refuses_new_and_drains_old() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn cross_thread_handoff() {
        let q = Arc::new(BoundedQueue::new(8));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        for i in 0..20 {
            // Spin until admitted — the consumer drains concurrently.
            let mut item = i;
            loop {
                match q.try_push(item) {
                    Ok(_) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("queue closed early"),
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
