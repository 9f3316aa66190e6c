//! Map a function over a slice on scoped threads, results in input order.
//!
//! The parallel index build ([`crate::InvertedIndex::build_with_threads`])
//! extracts each document's postings independently, so it fans documents
//! out with [`parallel_map`] and merges the per-document results in
//! document order. There is no thread pool: workers are
//! `std::thread::scope` threads that live for one call, so there is no
//! global state, no shutdown ordering and no unsafe code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` using up to `threads` workers, returning results
/// in input order.
///
/// With `threads <= 1` (or fewer than two items) this runs sequentially on
/// the calling thread — the degenerate case costs nothing and spawns
/// nothing. Workers claim items from a shared counter, so uneven item
/// costs still balance. If `f` panics on any worker the panic is
/// propagated to the caller.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                let Some(slot) = slots.get(i) else { break };
                // A poisoned slot only means another worker panicked while
                // storing; that panic is resumed after join, so recovering
                // the lock here is sound.
                *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                // A worker that failed to fill its slot panicked, and that
                // panic was resumed above, so every slot holds a result here.
                // lint:allow(no-unwrap): see above
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|&x| x * x).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1u32, 2, 3], 2, |&x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
