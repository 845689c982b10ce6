//! The hardware-counter view schedulers operate on, and the dual-core
//! machine's fixed core names.

/// Which core of the dual-core AMP. The paper's Figure 1 calls the FP core
/// "core A" and the INT core "core B"; indices are fixed systemwide:
/// core 0 = FP, core 1 = INT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Strong-FP / weak-INT core (core 0, "core A").
    Fp,
    /// Strong-INT / weak-FP core (core 1, "core B").
    Int,
}

impl CoreKind {
    /// Fixed core index in the system (FP = 0, INT = 1).
    pub const fn index(self) -> usize {
        match self {
            CoreKind::Fp => 0,
            CoreKind::Int => 1,
        }
    }

    /// The other core.
    pub const fn other(self) -> CoreKind {
        match self {
            CoreKind::Fp => CoreKind::Int,
            CoreKind::Int => CoreKind::Fp,
        }
    }
}

/// Thread→core mapping of the dual-core system.
///
/// `swapped == false` is the baseline assignment: thread 0 on the FP core,
/// thread 1 on the INT core ("threads T1 and T2 assigned randomly to
/// cores"; the initial assignment is the OS's and fixed per experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Assignment {
    /// Whether the threads are currently exchanged w.r.t. baseline.
    pub swapped: bool,
}

impl Assignment {
    /// The core thread `t` (0 or 1) currently runs on.
    ///
    /// # Panics
    /// Panics if `t > 1`.
    pub fn core_of(&self, t: usize) -> CoreKind {
        assert!(t < 2, "dual-core system has threads 0 and 1");
        match (t, self.swapped) {
            (0, false) | (1, true) => CoreKind::Fp,
            _ => CoreKind::Int,
        }
    }

    /// The thread currently running on `core`.
    pub fn thread_on(&self, core: CoreKind) -> usize {
        match (core, self.swapped) {
            (CoreKind::Fp, false) | (CoreKind::Int, true) => 0,
            _ => 1,
        }
    }

    /// The assignment after a swap.
    pub fn toggled(self) -> Assignment {
        Assignment {
            swapped: !self.swapped,
        }
    }
}

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
    fn baseline_assignment() {
        let a = Assignment::default();
        assert_eq!(a.core_of(0), CoreKind::Fp);
        assert_eq!(a.core_of(1), CoreKind::Int);
        assert_eq!(a.thread_on(CoreKind::Fp), 0);
        assert_eq!(a.thread_on(CoreKind::Int), 1);
    }

    #[test]
    fn toggled_assignment_swaps_threads() {
        let a = Assignment::default().toggled();
        assert_eq!(a.core_of(0), CoreKind::Int);
        assert_eq!(a.core_of(1), CoreKind::Fp);
        assert_eq!(a.toggled(), Assignment::default());
    }

    #[test]
    fn core_indices_and_other() {
        assert_eq!(CoreKind::Fp.index(), 0);
        assert_eq!(CoreKind::Int.index(), 1);
        assert_eq!(CoreKind::Fp.other(), CoreKind::Int);
    }

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

    #[test]
    #[should_panic(expected = "dual-core")]
    fn bad_thread_index_panics() {
        Assignment::default().core_of(2);
    }
}
