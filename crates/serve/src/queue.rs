//! The intake queue: bounded, condvar-backed, and the place where
//! micro-batches are born.
//!
//! Handler threads push one [`Job`] per classify request; the single worker
//! thread pops *batches*: it blocks for the first job, then takes whatever
//! else is already queued behind it, up to `max_batch` jobs, in FIFO order.
//! There is no batching window: the worker never waits on a timer for
//! stragglers, so a batch holds more than one job only when requests
//! arrived while the worker was busy (a batched fast pass saves no compute
//! per image at this model scale, so a window would only add latency).
//! Closing the queue wakes everyone; jobs still queued at close time are
//! handed back to the caller so the daemon can answer them explicitly —
//! nothing is silently dropped.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use wgft_tensor::Tensor;

use crate::proto::ServeResponse;

/// Batching and capacity knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most jobs coalesced into one micro-batch.
    pub max_batch: usize,
    /// Must be 0: there is no batching window (see the module docs), and
    /// [`ServeDaemon::spawn`](crate::ServeDaemon::spawn) refuses any other
    /// value. The field remains only because the benchmark package
    /// (`perfbench/`) reads it; it goes at that package's next change.
    pub max_delay_ms: u64,
    /// Hard queue capacity; pushes beyond it are refused (`Overloaded`).
    pub max_queue: usize,
    /// Soft watermark: above this depth an escalated daemon sheds
    /// fast-tier requests with `Degraded`.
    pub soft_watermark: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay_ms: 0,
            max_queue: 256,
            soft_watermark: 192,
        }
    }
}

/// One queued classify request, with the channel its answer goes back on.
#[derive(Debug)]
pub struct Job {
    /// Client-chosen request id (seeds chaos, echoed in the response).
    pub request_id: u64,
    /// Tenant tag.
    pub tenant: String,
    /// The image, already shaped.
    pub image: Tensor,
    /// Where the handler thread is waiting for the answer.
    pub respond: mpsc::Sender<ServeResponse>,
    /// When the job entered the queue (for queueing-delay accounting).
    pub enqueued_at: Instant,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at `max_queue`.
    Full,
    /// The queue is closed (daemon draining).
    Closed,
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The shared intake queue.
#[derive(Debug)]
pub struct IntakeQueue {
    config: BatchConfig,
    state: Mutex<QueueState>,
    arrived: Condvar,
}

impl IntakeQueue {
    /// An empty open queue.
    #[must_use]
    pub fn new(config: BatchConfig) -> Self {
        Self {
            config,
            state: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
        }
    }

    /// The batching configuration.
    #[must_use]
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Enqueue a job. Returns the queue depth *including* this job, or why
    /// the job was refused (the caller answers the client either way).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`IntakeQueue::close`].
    pub fn push(&self, job: Job) -> Result<usize, PushError> {
        let mut state = self.state.lock().expect("queue mutex");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.config.max_queue {
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        drop(state);
        self.arrived.notify_one();
        Ok(depth)
    }

    /// Current depth (gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue mutex").jobs.len()
    }

    /// Block for the next micro-batch: wait for a first job, then take it
    /// and every job already queued behind it, up to `max_batch`, in FIFO
    /// order — never waiting for more. Returns `None` once the queue is
    /// closed *and* empty — the worker's signal to exit.
    pub fn pop_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("queue mutex");
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).expect("queue mutex");
        }
        let take = state.jobs.len().min(self.config.max_batch);
        Some(state.jobs.drain(..take).collect())
    }

    /// Close the queue and hand back every job still inside it, so the
    /// caller can answer those clients explicitly. Idempotent.
    pub fn close(&self) -> Vec<Job> {
        let mut state = self.state.lock().expect("queue mutex");
        state.closed = true;
        let drained = state.jobs.drain(..).collect();
        drop(state);
        self.arrived.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use wgft_tensor::Shape;

    fn job(id: u64) -> (Job, mpsc::Receiver<ServeResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                request_id: id,
                tenant: "t".to_string(),
                image: Tensor::zeros(Shape::new(vec![1])),
                respond: tx,
                enqueued_at: Instant::now(),
            },
            rx,
        )
    }

    fn config(max_batch: usize, max_queue: usize) -> BatchConfig {
        BatchConfig {
            max_batch,
            max_queue,
            soft_watermark: max_queue / 2,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn batches_coalesce_up_to_max_batch() {
        let queue = IntakeQueue::new(config(3, 16));
        let mut rxs = Vec::new();
        for id in 0..5 {
            let (j, rx) = job(id);
            queue.push(j).unwrap();
            rxs.push(rx);
        }
        let first = queue.pop_batch().unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(
            first.iter().map(|j| j.request_id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "FIFO order"
        );
        let second = queue.pop_batch().unwrap();
        assert_eq!(second.len(), 2);
    }

    #[test]
    fn pop_batch_takes_only_what_is_already_queued() {
        // A window in the config is ignored: were it honoured, the short
        // second batch below would wait the full ten seconds for more.
        let queue = IntakeQueue::new(BatchConfig {
            max_delay_ms: 10_000,
            ..config(4, 16)
        });
        let started = Instant::now();
        let mut rxs = Vec::new();
        for id in 0..6 {
            let (j, rx) = job(id);
            queue.push(j).unwrap();
            rxs.push(rx);
        }
        let ids = |batch: Vec<Job>| batch.iter().map(|j| j.request_id).collect::<Vec<_>>();
        assert_eq!(ids(queue.pop_batch().unwrap()), vec![0, 1, 2, 3]);
        assert_eq!(ids(queue.pop_batch().unwrap()), vec![4, 5]);
        let (j, _rx) = job(6);
        queue.push(j).unwrap();
        assert_eq!(ids(queue.pop_batch().unwrap()), vec![6]);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "pop_batch waited for stragglers"
        );
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn push_refuses_at_capacity_and_after_close() {
        let queue = IntakeQueue::new(config(4, 2));
        let (j0, _rx0) = job(0);
        let (j1, _rx1) = job(1);
        let (j2, _rx2) = job(2);
        assert_eq!(queue.push(j0), Ok(1));
        assert_eq!(queue.push(j1), Ok(2));
        assert!(matches!(queue.push(j2), Err(PushError::Full)));
        let drained = queue.close();
        assert_eq!(drained.len(), 2, "close hands queued jobs back");
        let (j3, _rx3) = job(3);
        assert!(matches!(queue.push(j3), Err(PushError::Closed)));
        assert_eq!(queue.close().len(), 0, "close is idempotent");
    }

    #[test]
    fn close_wakes_a_blocked_worker() {
        let queue = Arc::new(IntakeQueue::new(config(4, 16)));
        let waiter = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.pop_batch())
        };
        // Give the worker a moment to block, then close.
        thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn worker_drains_jobs_queued_before_close() {
        let queue = Arc::new(IntakeQueue::new(config(8, 16)));
        let (j, _rx) = job(7);
        queue.push(j).unwrap();
        let batch = queue.pop_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(queue.close().is_empty());
        assert!(queue.pop_batch().is_none(), "closed and empty");
    }
}
