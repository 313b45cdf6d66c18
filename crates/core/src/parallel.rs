//! Minimal scoped-thread parallel map.
//!
//! The GCS scan evaluates one expensive, independent computation per
//! database graph; `std::thread::scope` covers that without an external
//! thread-pool dependency. Order of results matches input order.

/// Applies `f` to `0..n` across up to `threads` worker threads, preserving
/// index order in the output. `threads <= 1` runs inline.
pub fn parallel_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        // Split the result buffer into disjoint chunks, one per worker.
        let mut rest: &mut [Option<R>] = &mut results;
        let mut start = 0usize;
        let mut handles = Vec::new();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let f = &f;
            handles.push(scope.spawn(move || {
                for (offset, slot) in head.iter_mut().enumerate() {
                    *slot = Some(f(start + offset));
                }
            }));
            rest = tail;
            start += take;
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        for threads in [1usize, 2, 3, 8, 100] {
            let out = parallel_map_indexed(17, threads, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map_indexed(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn actually_runs_in_parallel_when_asked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        parallel_map_indexed(8, 4, |i| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(peak.load(Ordering::SeqCst) >= 2, "expected some overlap");
    }
}
