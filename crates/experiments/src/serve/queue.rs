//! The serve worker pool: a fixed set of threads draining a FIFO job
//! queue, each job one headless experiment run.
//!
//! Workers run jobs in parallel. Each job reports the `sim.*` events its
//! own run recorded, tallied by [`metrics::scoped`], so its telemetry
//! block equals a fresh CLI process's whatever else the daemon runs
//! meanwhile (DESIGN.md §14).

use super::cache::{CellBytes, ResultCache};
use super::protocol::JobSpec;
use crate::report;
use ampsched_obs::metrics;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

/// One queued job: the resolved spec plus the cache key the result
/// must be published under.
pub struct Job {
    /// Canonical cache key ([`super::protocol::canonical_hash`]).
    pub key: u64,
    /// The validated experiment + parameters.
    pub spec: JobSpec,
    /// Request id of the connection that enqueued this job (the cache
    /// owner); the worker attributes queue-wait/sim/serialize phases to
    /// it. `None` when request tracing is off.
    pub request_id: Option<String>,
    /// When the job entered the queue, for the queue-wait phase.
    pub enqueued: std::time::Instant,
}

impl Job {
    /// A job stamped with its enqueue time.
    pub fn new(key: u64, spec: JobSpec, request_id: Option<String>) -> Job {
        Job {
            key,
            spec,
            request_id,
            enqueued: std::time::Instant::now(),
        }
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// FIFO handoff between connection handlers and the worker pool.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::new()
    }
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueue a job for the pool. Returns `false` (job refused) after
    /// [`JobQueue::close`].
    pub fn push(&self, job: Job) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return false;
        }
        inner.jobs.push_back(job);
        self.cond.notify_one();
        true
    }

    /// Block until a job is available or the queue is closed *and*
    /// drained (`None`).
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.cond.wait(inner).unwrap();
        }
    }

    /// Stop accepting jobs; workers finish what is queued, then exit.
    pub fn close(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.cond.notify_all();
    }

    /// Jobs currently waiting (not counting ones being executed).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}

/// The worker pool: `workers` threads looping `pop → execute →
/// publish`. Dropping after [`WorkerPool::join`] is the clean shutdown
/// path.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
    queue: Arc<JobQueue>,
}

impl WorkerPool {
    /// Spawn `workers` threads (minimum 1) draining `queue` into
    /// `cache`.
    pub fn spawn(workers: usize, queue: Arc<JobQueue>, cache: Arc<ResultCache>) -> WorkerPool {
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            ampsched_obs::counter!("serve.job.execute");
                            ampsched_obs::ring::event(
                                "job.execute",
                                format!("{:016x}", job.key),
                            );
                            if let Some(id) = &job.request_id {
                                ampsched_obs::request::phase(
                                    id,
                                    "queue-wait",
                                    job.enqueued.elapsed().as_micros() as u64,
                                );
                            }
                            match execute_job_timed(&job.spec) {
                                Ok((bytes, timing)) => {
                                    if let Some(id) = &job.request_id {
                                        ampsched_obs::request::phase(id, "sim", timing.sim_us);
                                        ampsched_obs::request::phase(
                                            id,
                                            "serialize",
                                            timing.serialize_us,
                                        );
                                    }
                                    cache.fulfill(job.key, bytes)
                                }
                                Err(msg) => {
                                    ampsched_obs::counter!("serve.job.panic");
                                    ampsched_obs::ring::event(
                                        "job.panic",
                                        format!("{:016x}", job.key),
                                    );
                                    // The "what happened just before it
                                    // went wrong" artifact: dump the
                                    // flight recorder while the trail is
                                    // still in the ring.
                                    ampsched_obs::ring::dump_now("worker job panicked");
                                    cache.fail(job.key, msg);
                                }
                            }
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        WorkerPool { handles, queue }
    }

    /// Close the queue and wait for every worker to drain and exit.
    pub fn join(self) {
        self.queue.close();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Host-time breakdown of one executed job, for the per-request
/// timeline (`/requestz`): simulate vs render.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    /// Microseconds spent computing sections (the simulation proper).
    pub sim_us: u64,
    /// Microseconds spent assembling + rendering the report bytes.
    pub serialize_us: u64,
}

/// Run one job to rendered report bytes — the same bytes the CLI's
/// `--json` flag would write for these parameters.
///
/// A panic inside the experiment is caught and returned as `Err` so one
/// poisoned parameter set cannot take down the pool; the error is
/// propagated to every coalesced waiter and *not* cached.
pub fn execute_job(spec: &JobSpec) -> Result<CellBytes, String> {
    execute_job_timed(spec).map(|(bytes, _)| bytes)
}

/// [`execute_job`] plus the phase breakdown. The timing is measurement
/// only — the rendered bytes are identical either way (the byte-identity
/// differential in `serve_obs` holds the serve layer to that).
pub fn execute_job_timed(spec: &JobSpec) -> Result<(CellBytes, JobTiming), String> {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let sim_start = std::time::Instant::now();
        let (sections, events) =
            metrics::scoped(|| report::compute_sections(&spec.experiment, &spec.params));
        let sections = sections?;
        let telemetry = events.filtered("sim.").to_json();
        let sim_us = sim_start.elapsed().as_micros() as u64;
        let render_start = std::time::Instant::now();
        let doc = report::assemble(&spec.experiment, &spec.params, sections, telemetry);
        // render_pretty ends with '\n': these bytes are exactly what
        // `std::fs::write(path, doc.render_pretty())` puts in a file.
        let bytes = Arc::new(doc.render_pretty().into_bytes());
        let timing = JobTiming {
            sim_us,
            serialize_us: render_start.elapsed().as_micros() as u64,
        };
        Ok((bytes, timing))
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("experiment panicked: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Params;
    use crate::serve::protocol::{canonical_hash, parse_request};
    use std::time::Duration;

    fn quick_fig1() -> JobSpec {
        parse_request(
            br#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#,
            &Params::default(),
        )
        .unwrap()
    }

    #[test]
    fn queue_is_fifo_and_close_drains() {
        let q = JobQueue::new();
        for key in [1u64, 2, 3] {
            assert!(q.push(Job::new(key, quick_fig1(), None)));
        }
        q.close();
        assert!(
            !q.push(Job::new(4, quick_fig1(), None)),
            "closed queue refuses jobs"
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.key)).collect();
        assert_eq!(order, [1, 2, 3], "close drains queued jobs in order");
    }

    #[test]
    fn pool_executes_and_publishes() {
        let queue = Arc::new(JobQueue::new());
        let cache = Arc::new(ResultCache::new(8, None));
        let pool = WorkerPool::spawn(2, Arc::clone(&queue), Arc::clone(&cache));

        let spec = quick_fig1();
        let key = canonical_hash(&spec);
        let slot = match cache.claim(key) {
            super::super::cache::Claim::Owner => {
                assert!(queue.push(Job::new(key, spec, None)));
                match cache.claim(key) {
                    super::super::cache::Claim::Wait(slot) => slot,
                    super::super::cache::Claim::Hit(_) => {
                        pool.join();
                        return; // worker already finished; hit is the success case
                    }
                    _ => panic!("expected wait"),
                }
            }
            _ => panic!("expected ownership of a fresh cache"),
        };
        match slot.wait(Duration::from_secs(300)) {
            super::super::cache::WaitOutcome::Ready(bytes) => {
                let text = std::str::from_utf8(&bytes).unwrap();
                assert!(text.contains("\"command\": \"fig1\""));
                assert!(text.ends_with('\n'));
            }
            _ => panic!("job did not produce bytes"),
        }
        pool.join();
    }

    #[test]
    fn execute_job_is_deterministic_across_repeats() {
        // Other tests in this process simulate at the same time; a job's
        // telemetry must still hold only its own events.
        let golden = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/compat/fig1.json"
        ))
        .unwrap();
        let spec = quick_fig1();
        let a = execute_job(&spec).unwrap();
        let b = execute_job(&spec).unwrap();
        assert_eq!(*a, *b, "same spec must render identical bytes");
        assert!(*a == golden, "{}", String::from_utf8_lossy(&a));
    }
}
