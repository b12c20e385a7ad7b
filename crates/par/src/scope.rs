//! Scoped chunked parallel combinators over borrowed data.
//!
//! All combinators split the input into `threads × OVERSUBSCRIBE` chunks and
//! feed them to scoped worker threads through an unbounded channel, so a
//! slow chunk does not stall the others (dynamic load balancing). Outputs
//! are reassembled in input order.

use crossbeam::channel;

/// Chunks per thread: enough oversubscription to absorb skewed chunk costs
/// (an adversarial simulation can take many more rounds than its neighbours).
const OVERSUBSCRIBE: usize = 8;

fn chunk_size(len: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * OVERSUBSCRIBE;
    len.div_ceil(target_chunks).max(1)
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
    par_map_indexed(threads, items, |_, item| f(item))
}

/// Parallel map that also hands the item index to the mapper (used to derive
/// per-trial RNG seeds), preserving order.
pub fn par_map_indexed<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cs = chunk_size(n, threads);
    let n_chunks = n.div_ceil(cs);
    let workers = threads.min(n_chunks);

    let (work_tx, work_rx) = channel::unbounded::<(usize, &[T])>();
    for (ci, chunk) in items.chunks(cs).enumerate() {
        work_tx.send((ci, chunk)).expect("queueing work");
    }
    drop(work_tx);

    let mut slots: Vec<Option<Vec<U>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);

    let (res_tx, res_rx) = channel::unbounded::<(usize, Vec<U>)>();
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let work_rx = work_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            s.spawn(move |_| {
                while let Ok((ci, chunk)) = work_rx.recv() {
                    let base = ci * cs;
                    let out: Vec<U> = chunk
                        .iter()
                        .enumerate()
                        .map(|(j, item)| f(base + j, item))
                        .collect();
                    if res_tx.send((ci, out)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(res_tx);
        for (ci, out) in res_rx {
            slots[ci] = Some(out);
        }
    })
    .expect("worker thread panicked");

    let mut result = Vec::with_capacity(n);
    for slot in slots {
        result.extend(slot.expect("missing chunk result"));
    }
    result
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
    let (work_tx, work_rx) = channel::unbounded::<(usize, &mut [T])>();
    for (ci, chunk) in data.chunks_mut(cs).enumerate() {
        work_tx.send((ci * cs, chunk)).expect("queueing work");
    }
    drop(work_tx);

    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let work_rx = work_rx.clone();
            let f = &f;
            s.spawn(move |_| {
                while let Ok((offset, chunk)) = work_rx.recv() {
                    f(offset, chunk);
                }
            });
        }
    })
    .expect("worker thread panicked");
}

/// Parallel map-reduce: maps each item, combines chunk-partials with
/// `reduce`, then folds the partials in chunk order. `reduce` must be
/// associative; `identity` must be its neutral element.
pub fn par_reduce<T, U, FM, FR>(threads: usize, items: &[T], identity: U, map: FM, reduce: FR) -> U
where
    T: Sync,
    U: Send + Clone,
    FM: Fn(&T) -> U + Sync,
    FR: Fn(U, U) -> U + Sync,
{
    if items.is_empty() {
        return identity;
    }
    if threads <= 1 {
        return items
            .iter()
            .fold(identity.clone(), |acc, x| reduce(acc, map(x)));
    }
    let partials = par_map_indexed(threads, items, |_, x| map(x));
    partials.into_iter().fold(identity, reduce)
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
        let items: Vec<u32> = (0..5000).collect();
        let out = par_map_indexed(4, &items, |i, &x| (i as u32, x));
        for (i, (idx, x)) in out.iter().enumerate() {
            assert_eq!(*idx as usize, i);
            assert_eq!(*x, i as u32);
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
    fn reduce_sums() {
        let items: Vec<u64> = (1..=1000).collect();
        let total = par_reduce(4, &items, 0u64, |&x| x, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn reduce_respects_identity() {
        let empty: Vec<u64> = vec![];
        assert_eq!(par_reduce(4, &empty, 42u64, |&x| x, |a, b| a + b), 42);
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
