//! Scoped chunked parallel combinators over borrowed data.
//!
//! Both combinators split the input into `threads × OVERSUBSCRIBE` chunks and
//! hand them to `std::thread::scope` workers through one mutex-guarded chunk
//! iterator, so a slow chunk does not stall the others (dynamic load
//! balancing). Outputs are reassembled in chunk order.

use parking_lot::Mutex;

/// Chunks per thread: enough oversubscription to absorb skewed chunk costs
/// (an adversarial simulation can take many more rounds than its neighbours).
const OVERSUBSCRIBE: usize = 8;

fn chunk_size(len: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * OVERSUBSCRIBE;
    len.div_ceil(target_chunks).max(1)
}

/// Run `f` on every chunk from `workers` scoped threads, each taking the
/// next chunk off the shared iterator until it runs dry. Returns every
/// result, grouped by worker (not in chunk order).
fn drain<I, R, F>(workers: usize, chunks: I, f: F) -> Vec<R>
where
    I: Iterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let chunks = Mutex::new(chunks);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // The guard is released at the end of this
                        // statement, before the chunk runs.
                        let next = chunks.lock().next();
                        let Some(chunk) = next else { return out };
                        out.push(f(chunk));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Parallel map over a slice, preserving order.
///
/// `threads == 1` (or a short input) degrades to a sequential map with no
/// thread spawns.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let cs = chunk_size(n, threads);
    let workers = threads.min(n.div_ceil(cs));
    let mut parts = drain(workers, items.chunks(cs).enumerate(), |(ci, chunk)| {
        (ci, chunk.iter().map(&f).collect::<Vec<U>>())
    });
    parts.sort_unstable_by_key(|&(ci, _)| ci);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}

/// Parallel in-place mutation: the buffer is split into chunks and each
/// worker receives `(offset, &mut chunk)`. This is the primitive behind the
/// parallel dense engine round (the closure reads the immutable previous
/// state it captured and writes the new state chunk).
pub fn par_chunks_mut<T, F>(threads: usize, data: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let cs = chunk_size(n, threads).max(min_chunk.max(1));
    if threads <= 1 || n <= cs {
        f(0, data);
        return;
    }
    let workers = threads.min(n.div_ceil(cs));
    drain(workers, data.chunks_mut(cs).enumerate(), |(ci, chunk)| {
        f(ci * cs, chunk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let par = par_map(threads, &items, |x| x * x + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_sees_correct_indices() {
        // Items are their own indices, so output slot `i` must hold what the
        // mapper made of item `i`: chunks are reassembled in input order,
        // including a short last chunk.
        for n in [5000, 4999, 33] {
            let items: Vec<u32> = (0..n).collect();
            for threads in [2, 4, 8] {
                let out = par_map(threads, &items, |&x| (x, x.wrapping_mul(3)));
                assert_eq!(out.len(), items.len());
                for (i, &(idx, y)) in out.iter().enumerate() {
                    assert_eq!(idx as usize, i, "n = {n}, threads = {threads}");
                    assert_eq!(y, (i as u32).wrapping_mul(3));
                }
            }
        }
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(4, &empty, |x| *x).is_empty());
        assert_eq!(par_map(4, &[7], |x| x + 1), vec![8]);
    }

    #[test]
    fn map_runs_on_multiple_threads() {
        // Asserts results, not scheduling: whichever threads the OS runs,
        // the multi-threaded map equals the sequential one, item for item.
        let items: Vec<u64> = (0..100_000).collect();
        let mix = |x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let seq: Vec<u64> = items.iter().map(mix).collect();
        for threads in [1, 2, 4] {
            assert_eq!(par_map(threads, &items, mix), seq, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_mut_writes_everything() {
        let mut data = vec![0u64; 100_000];
        par_chunks_mut(4, &mut data, 1, |offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + j) as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn chunks_mut_sequential_fallback() {
        let mut data = vec![1u8; 10];
        par_chunks_mut(1, &mut data, 1, |_, chunk| {
            for slot in chunk {
                *slot = 2;
            }
        });
        assert!(data.iter().all(|&b| b == 2));
    }

    #[test]
    fn all_items_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..50_000).collect();
        let _ = par_map(8, &items, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
    }
}
