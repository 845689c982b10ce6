//! Per-request span groups: deterministic ids, phase timelines, and a
//! bounded history of completed requests.
//!
//! A server (today: `ampsched serve`) calls [`begin`] when it accepts a
//! request, receives a process-unique id (`r-00000000`, `r-00000001`,
//! ...), and then records named phases ([`phase`]) and metadata
//! ([`annotate`]) against that id — possibly from other threads, which
//! is why the registry is keyed by id rather than by a guard value.
//! [`finish`] seals the record with an outcome and moves it into a
//! fixed-capacity history of completed requests ([`completed`]); the
//! in-flight set is visible at any moment via [`inflight`].
//!
//! Ids are assigned from an atomic counter, so an identical sequence of
//! accepted requests yields identical ids — the property the serve
//! determinism tests lean on. Like the rest of `ampsched-obs`, all of
//! this is observation only: nothing here feeds back into scheduling or
//! simulation, and recording is off until [`set_enabled`] turns it on.

use ampsched_util::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Default number of completed requests retained for `/requestz`.
pub const DEFAULT_CAPACITY: usize = 64;

/// One request's record: live while in flight, frozen once finished.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Deterministic id: `r-` + zero-padded accept sequence number.
    pub id: String,
    /// Route the request hit (e.g. `POST /run`).
    pub route: String,
    /// Final outcome (`hit`, `miss`, `coalesced`, `timeout`, ...).
    /// Empty while the request is still in flight.
    pub outcome: String,
    /// Total host microseconds from accept to response written.
    /// Zero while in flight.
    pub total_us: u64,
    /// Ordered phase timeline: (phase name, host microseconds).
    pub phases: Vec<(&'static str, u64)>,
    /// Free-form metadata (cache key, byte counts, status code, ...).
    pub meta: Vec<(&'static str, Json)>,
}

impl RequestRecord {
    /// Render the record as a JSON object. Phases keep their recorded
    /// order as an array of `{"name": ..., "us": ...}` objects; meta
    /// keys are flattened into the top level (they are chosen by the
    /// caller not to collide with the fixed keys).
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|&(name, us)| {
                Json::obj([("name", Json::from(name)), ("us", Json::from(us))])
            })
            .collect();
        let mut fields: Vec<(&str, Json)> = vec![
            ("id", Json::from(self.id.as_str())),
            ("route", Json::from(self.route.as_str())),
            ("outcome", Json::from(self.outcome.as_str())),
            ("total_us", Json::from(self.total_us)),
            ("phases", Json::Arr(phases)),
        ];
        for (k, v) in &self.meta {
            fields.push((k, v.clone()));
        }
        Json::obj(fields)
    }
}

struct Registry {
    inflight: Vec<RequestRecord>,
    completed: VecDeque<RequestRecord>,
    capacity: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            inflight: Vec::new(),
            completed: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
        })
    })
}

/// Enable or disable request recording process-wide. Disabled, every
/// entry point is a single relaxed atomic load and [`begin`] returns
/// `None`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether request recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resize the completed-request history (minimum 1).
pub fn set_capacity(capacity: usize) {
    let mut r = registry().lock().expect("request registry lock");
    r.capacity = capacity.max(1);
    while r.completed.len() > r.capacity {
        r.completed.pop_front();
    }
}

/// Open a record for a newly accepted request and return its id.
/// `None` when recording is disabled (callers thread the `Option`
/// through; every other entry point ignores unknown ids, so the
/// disabled path stays branch-free at the call sites).
pub fn begin(route: &str) -> Option<String> {
    if !enabled() {
        return None;
    }
    let id = format!("r-{:08}", NEXT_ID.fetch_add(1, Ordering::Relaxed));
    crate::ring::event("request.begin", format!("{id} {route}"));
    let mut r = registry().lock().expect("request registry lock");
    r.inflight.push(RequestRecord {
        id: id.clone(),
        route: route.to_string(),
        outcome: String::new(),
        total_us: 0,
        phases: Vec::new(),
        meta: Vec::new(),
    });
    Some(id)
}

/// Append a phase measurement to an in-flight request. Callable from
/// any thread; a no-op for unknown or already-finished ids.
pub fn phase(id: &str, name: &'static str, us: u64) {
    if !enabled() {
        return;
    }
    let mut r = registry().lock().expect("request registry lock");
    if let Some(rec) = r.inflight.iter_mut().find(|rec| rec.id == id) {
        rec.phases.push((name, us));
    }
}

/// Attach a metadata field to an in-flight request. A no-op for
/// unknown ids.
pub fn annotate(id: &str, key: &'static str, value: Json) {
    if !enabled() {
        return;
    }
    let mut r = registry().lock().expect("request registry lock");
    if let Some(rec) = r.inflight.iter_mut().find(|rec| rec.id == id) {
        rec.meta.push((key, value));
    }
}

/// Seal a request with its outcome and total duration, moving it from
/// the in-flight set to the completed history. Returns the frozen
/// record (the access log consumes it); `None` for unknown ids.
pub fn finish(id: &str, outcome: &str, total_us: u64) -> Option<RequestRecord> {
    if !enabled() {
        return None;
    }
    let mut r = registry().lock().expect("request registry lock");
    let idx = r.inflight.iter().position(|rec| rec.id == id)?;
    let mut rec = r.inflight.remove(idx);
    rec.outcome = outcome.to_string();
    rec.total_us = total_us;
    if r.completed.len() >= r.capacity {
        r.completed.pop_front();
    }
    r.completed.push_back(rec.clone());
    drop(r);
    crate::ring::event(
        "request.finish",
        format!("{} {} {}", rec.id, rec.route, rec.outcome),
    );
    Some(rec)
}

/// Snapshot of the in-flight set, oldest first.
pub fn inflight() -> Vec<RequestRecord> {
    registry()
        .lock()
        .expect("request registry lock")
        .inflight
        .clone()
}

/// Snapshot of the completed history, oldest first.
pub fn completed() -> Vec<RequestRecord> {
    registry()
        .lock()
        .expect("request registry lock")
        .completed
        .iter()
        .cloned()
        .collect()
}

/// Drop all records and restart the id counter (capacity and enable
/// flag are preserved). For tests and the serve determinism harness.
pub fn reset() {
    let mut r = registry().lock().expect("request registry lock");
    r.inflight.clear();
    r.completed.clear();
    drop(r);
    NEXT_ID.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the registry and id counter are process-global, so
    // parallel test functions would interleave.
    #[test]
    fn request_lifecycle_ids_phases_history() {
        let _ring = crate::ring::test_lock();
        set_enabled(false);
        reset();
        assert_eq!(begin("POST /run"), None, "disabled: no record opened");

        set_enabled(true);
        let a = begin("POST /run").unwrap();
        let b = begin("GET /healthz").unwrap();
        assert_eq!(a, "r-00000000");
        assert_eq!(b, "r-00000001");
        assert_eq!(inflight().len(), 2);

        phase(&a, "parse", 10);
        phase(&a, "sim", 500);
        annotate(&a, "cache_key", Json::from("deadbeef"));
        phase("r-99999999", "parse", 1); // unknown id: ignored

        let rec = finish(&a, "miss", 777).expect("finish returns the record");
        assert_eq!(rec.outcome, "miss");
        assert_eq!(rec.total_us, 777);
        assert_eq!(rec.phases, vec![("parse", 10), ("sim", 500)]);
        assert_eq!(inflight().len(), 1);
        assert_eq!(completed().len(), 1);
        assert!(finish(&a, "miss", 1).is_none(), "double finish is a no-op");

        // JSON shape: fixed keys plus flattened meta, phases in order.
        let doc = rec.to_json();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("r-00000000"));
        assert_eq!(doc.get("cache_key").and_then(Json::as_str), Some("deadbeef"));
        let phases = doc.get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("name").and_then(Json::as_str), Some("parse"));

        // History is a ring: capacity bounds it, oldest evicted first.
        set_capacity(2);
        finish(&b, "ok", 5);
        let c = begin("POST /run").unwrap();
        finish(&c, "hit", 3);
        let done = completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, "r-00000001");
        assert_eq!(done[1].id, "r-00000002");

        // Reset restarts ids for determinism harnesses.
        reset();
        let again = begin("POST /run").unwrap();
        assert_eq!(again, "r-00000000");
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(false);
        reset();
    }
}
