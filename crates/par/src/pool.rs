//! A fixed pool of named worker threads draining one job channel.
//!
//! [`ThreadPool::execute`] sends a boxed job down one
//! [`crossbeam::channel`]; whichever idle worker receives it first runs it.
//! Load balancing is not the pool's business: the campaign executor behind
//! `run_campaign` and `run_cell` submits one long-lived job per worker for
//! the whole call, and those jobs pull `(cell, chunk)` units off one shared
//! cursor. So there is no stealing, no pending counter and no idle barrier.
//!
//! The pool holds only the sending half; each worker holds a receiver.
//! Dropping the pool closes the channel, so the workers run every job still
//! queued, then see the disconnect and exit, and `Drop` joins them. A worker
//! whose job panicked dies and drops its receiver; once no receiver is left,
//! sending fails and `execute` panics instead of queuing a job nobody will
//! run.

use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool for `'static` jobs, fed through one channel.
pub struct ThreadPool {
    /// `None` only while `Drop` runs: taking it closes the channel.
    jobs: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let (jobs, receiver) = channel::unbounded::<Job>();
        let handles = (0..threads.max(1))
            .map(|idx| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("stabcon-pool-{idx}"))
                    .spawn(move || {
                        for job in receiver {
                            job();
                        }
                    })
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            jobs: Some(jobs),
            handles,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submit a job for execution.
    ///
    /// # Panics
    /// Panics if every worker has died (each one ran a job that panicked).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let jobs = self.jobs.as_ref().expect("the channel closes only in drop");
        if jobs.send(Box::new(job)).is_err() {
            panic!("ThreadPool::execute: no worker is alive (every one ran a job that panicked)");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.jobs.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Submit `jobs` jobs that each report on a channel, and wait for
    /// every report.
    fn run_counted(pool: &ThreadPool, jobs: usize) {
        let (done, reports) = mpsc::channel();
        for _ in 0..jobs {
            let done = done.clone();
            pool.execute(move || done.send(()).expect("test holds the receiver"));
        }
        drop(done);
        assert_eq!(reports.iter().count(), jobs);
    }

    #[test]
    fn runs_all_jobs() {
        let pool = ThreadPool::new(4);
        run_counted(&pool, 1000);
    }

    #[test]
    fn drop_of_an_idle_pool_returns() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.threads(), 2);
        drop(pool); // must not hang
    }

    #[test]
    fn jobs_actually_parallel() {
        // Two jobs that each wait for the other via atomics can only finish
        // if at least two workers run concurrently.
        let pool = ThreadPool::new(2);
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        let (done, reports) = mpsc::channel();
        for (mine, theirs) in [(&a, &b), (&b, &a)] {
            let (mine, theirs, done) = (Arc::clone(mine), Arc::clone(theirs), done.clone());
            pool.execute(move || {
                mine.store(true, Ordering::SeqCst);
                while !theirs.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                done.send(()).expect("test holds the receiver");
            });
        }
        drop(done);
        assert_eq!(reports.iter().count(), 2);
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ThreadPool::new(3);
        for _ in 0..5 {
            run_counted(&pool, 100);
        }
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(Duration::from_micros(100));
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop here: every job has run once the workers are joined
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn drop_runs_every_queued_job() {
        let counter = Arc::new(AtomicU64::new(0));
        let pool = ThreadPool::new(2);
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        run_counted(&pool, 10);
    }

    #[test]
    fn execute_on_a_pool_with_no_live_worker_panics() {
        // A helper thread runs the scenario so a regression (a job queued
        // for a dead pool, waited on forever) fails the test instead of
        // hanging it.
        let (verdict, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(1);
            pool.execute(|| panic!("this job kills the only worker"));
            while !pool.handles[0].is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (ran, ran_rx) = mpsc::channel::<()>();
            let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.execute(move || ran.send(()).expect("test holds the receiver"))
            }));
            // A job that was queued instead of rejected is never run: its
            // sender is neither used nor dropped, so this would block.
            let job_settled = ran_rx.recv().is_err();
            let _ = verdict.send((submitted.is_err(), job_settled));
        });
        let (panicked, job_settled) = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("execute on a dead pool neither panicked nor ran the job");
        assert!(panicked, "execute on a dead pool must panic");
        assert!(job_settled, "the rejected job must be dropped, not run");
    }
}
