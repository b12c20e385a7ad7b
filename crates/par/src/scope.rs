//! Scoped chunked parallelism over borrowed data.
//!
//! [`par_chunks_mut`] splits its buffer into `threads × OVERSUBSCRIBE`
//! chunks and hands them to `std::thread::scope` workers through one
//! mutex-guarded chunk iterator, so a slow chunk does not stall the others
//! (dynamic load balancing).

use parking_lot::Mutex;

/// Chunks per thread: enough oversubscription to absorb skewed chunk costs
/// (an adversarial simulation can take many more rounds than its neighbours).
const OVERSUBSCRIBE: usize = 8;

fn chunk_size(len: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * OVERSUBSCRIBE;
    len.div_ceil(target_chunks).max(1)
}

/// Run `f` on every chunk from `workers` scoped threads, each taking the
/// next chunk off the shared iterator until it runs dry.
fn drain<I, F>(workers: usize, chunks: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    let chunks = Mutex::new(chunks);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // The guard is released at the end of this statement,
                // before the chunk runs.
                let next = chunks.lock().next();
                let Some(chunk) = next else { return };
                f(chunk);
            });
        }
    });
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
}
