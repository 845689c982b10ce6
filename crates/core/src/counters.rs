//! The hardware-counter view schedulers operate on.

/// Per-thread counter values for one monitoring window — exactly what the
/// paper's low-cost hardware performance counters expose.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadWindow {
    /// Percentage (0–100) of committed integer-arithmetic instructions.
    pub int_pct: f64,
    /// Percentage (0–100) of committed FP-arithmetic instructions.
    pub fp_pct: f64,
    /// Percentage (0–100) of committed loads + stores.
    pub mem_pct: f64,
    /// Percentage (0–100) of committed branches.
    pub branch_pct: f64,
    /// Instructions committed in the window.
    pub instructions: u64,
    /// Cycles the window spanned.
    pub cycles: u64,
    /// Energy (J) consumed by the core this thread occupied.
    pub joules: f64,
}

impl ThreadWindow {
    /// IPC over this window (0 for an empty window).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ipc() {
        let w = ThreadWindow {
            instructions: 500,
            cycles: 1000,
            ..Default::default()
        };
        assert!((w.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(ThreadWindow::default().ipc(), 0.0);
    }
}
