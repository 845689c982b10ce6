//! Micro-operation classes and execution domains.
//!
//! The dual-core AMP of the paper distinguishes instructions by the
//! *flavor* of the datapath that executes them: integer vs floating-point,
//! plus memory and control operations. [`OpClass`] is the complete taxonomy
//! used by both the workload models and the core timing model;
//! [`ExecDomain`] is the coarser grouping the schedulers' hardware counters
//! observe (the paper's %INT / %FP instruction percentages).

use std::fmt;

/// Operation class of a single micro-op.
///
/// Latency and pipelining of each class on each core type are configured by
/// `ampsched-cpu`'s `CoreConfig` following Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer add/sub/logic/shift/compare.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (and modulo).
    IntDiv,
    /// Floating-point add/sub/compare/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide/sqrt.
    FpDiv,
    /// Memory load. Uses the integer datapath for address generation.
    Load,
    /// Memory store. Uses the integer datapath for address generation.
    Store,
    /// Conditional or unconditional control transfer.
    Branch,
}

/// All classes, in a fixed order usable for dense per-class arrays.
pub const ALL_OP_CLASSES: [OpClass; 9] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
];

/// Number of [`OpClass`] variants (length of [`ALL_OP_CLASSES`]).
pub const NUM_OP_CLASSES: usize = ALL_OP_CLASSES.len();

impl OpClass {
    /// Dense index of this class, matching [`ALL_OP_CLASSES`] order.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The execution domain whose issue queue / functional units serve this
    /// class.
    ///
    /// Loads, stores, and branches flow through the integer datapath
    /// (address generation / condition evaluation), matching the paper's
    /// counter definition in which "%INT" counts non-FP instructions'
    /// integer work while %INT + %FP + %mem + %branch partition the stream.
    #[inline]
    pub const fn domain(self) -> ExecDomain {
        match self {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => ExecDomain::Int,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => ExecDomain::Fp,
            OpClass::Load | OpClass::Store => ExecDomain::Mem,
            OpClass::Branch => ExecDomain::Ctrl,
        }
    }

    /// True if this op reads or writes memory.
    #[inline]
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True if this op is a control transfer.
    #[inline]
    pub const fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }

    /// True if this op executes on floating-point functional units.
    #[inline]
    pub const fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv)
    }

    /// True if this op executes on integer ALU/MUL/DIV units
    /// (arithmetic only; memory and branches are counted separately).
    #[inline]
    pub const fn is_int_arith(self) -> bool {
        matches!(self, OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpMul => "fp_mul",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Coarse execution domain, as seen by the paper's hardware counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecDomain {
    /// Integer arithmetic (ALU/MUL/DIV).
    Int,
    /// Floating-point arithmetic (ALU/MUL/DIV).
    Fp,
    /// Loads and stores.
    Mem,
    /// Branches and jumps.
    Ctrl,
}

impl ExecDomain {
    /// Dense index (Int=0, Fp=1, Mem=2, Ctrl=3).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ExecDomain::Int => 0,
            ExecDomain::Fp => 1,
            ExecDomain::Mem => 2,
            ExecDomain::Ctrl => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_order() {
        for (i, c) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i, "class {c} should have index {i}");
        }
    }

    #[test]
    fn domains_partition_classes() {
        use OpClass::*;
        assert_eq!(IntAlu.domain(), ExecDomain::Int);
        assert_eq!(IntMul.domain(), ExecDomain::Int);
        assert_eq!(IntDiv.domain(), ExecDomain::Int);
        assert_eq!(FpAlu.domain(), ExecDomain::Fp);
        assert_eq!(FpMul.domain(), ExecDomain::Fp);
        assert_eq!(FpDiv.domain(), ExecDomain::Fp);
        assert_eq!(Load.domain(), ExecDomain::Mem);
        assert_eq!(Store.domain(), ExecDomain::Mem);
        assert_eq!(Branch.domain(), ExecDomain::Ctrl);
    }

    #[test]
    fn predicates_are_consistent_with_domains() {
        for c in ALL_OP_CLASSES {
            assert_eq!(c.is_fp(), c.domain() == ExecDomain::Fp);
            assert_eq!(c.is_int_arith(), c.domain() == ExecDomain::Int);
            assert_eq!(c.is_mem(), c.domain() == ExecDomain::Mem);
            assert_eq!(c.is_branch(), c.domain() == ExecDomain::Ctrl);
        }
    }

    #[test]
    fn domain_indices_dense() {
        let idx: Vec<usize> = [
            ExecDomain::Int,
            ExecDomain::Fp,
            ExecDomain::Mem,
            ExecDomain::Ctrl,
        ]
        .iter()
        .map(|d| d.index())
        .collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
