//! Per-thread run metrics and the IPC/Watt figure of merit.

use ampsched_util::Json;

/// What one thread achieved over a run (or run segment).
///
/// `cycles` is wall-clock cycles of the *system* during the segment (both
/// threads run concurrently, so they share the same cycle count);
/// `joules` is the energy of whichever core(s) the thread occupied,
/// integrated over the segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadMetrics {
    /// Committed instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Energy consumed by the cores this thread ran on, in joules.
    pub joules: f64,
    /// Core clock frequency in Hz (to convert cycles to seconds).
    pub frequency_hz: f64,
}

impl ThreadMetrics {
    /// Instructions per cycle; 0 for an empty segment.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average power in watts; 0 for an empty segment.
    pub fn watts(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / self.frequency_hz;
        self.joules / seconds
    }

    /// The paper's figure of merit: IPC per watt.
    ///
    /// Algebraically `IPC/W = instructions / (frequency × joules)`, i.e.
    /// proportional to the inverse energy-per-instruction.
    pub fn ipc_per_watt(&self) -> f64 {
        if self.joules <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / (self.frequency_hz * self.joules)
    }

    /// Serialize into a JSON object (the report path's exchange format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("instructions", Json::from(self.instructions)),
            ("cycles", Json::from(self.cycles)),
            ("joules", Json::from(self.joules)),
            ("frequency_hz", Json::from(self.frequency_hz)),
            ("ipc", Json::from(self.ipc())),
            ("watts", Json::from(self.watts())),
            ("ipc_per_watt", Json::from(self.ipc_per_watt())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ThreadMetrics {
        ThreadMetrics {
            instructions: 4_000_000,
            cycles: 5_000_000,
            joules: 0.005,
            frequency_hz: 2e9,
        }
    }

    #[test]
    fn ipc_and_watts() {
        let t = m();
        assert!((t.ipc() - 0.8).abs() < 1e-12);
        // 0.005 J over 2.5 ms = 2 W.
        assert!((t.watts() - 2.0).abs() < 1e-9);
        assert!((t.ipc_per_watt() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn ipc_per_watt_identity() {
        let t = m();
        assert!((t.ipc_per_watt() - t.ipc() / t.watts()).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let t = m();
        let doc = t.to_json();
        let parsed = Json::parse(&doc.render()).expect("well-formed");
        assert_eq!(parsed, doc);
        // Derived fields are present for report consumers.
        assert!((doc.get("ipc").unwrap().as_f64().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_segment_is_zero() {
        let t = ThreadMetrics {
            instructions: 0,
            cycles: 0,
            joules: 0.0,
            frequency_hz: 2e9,
        };
        assert_eq!(t.ipc(), 0.0);
        assert_eq!(t.watts(), 0.0);
        assert_eq!(t.ipc_per_watt(), 0.0);
    }
}
