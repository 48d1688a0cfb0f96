//! Micro-operations and the instruction-stream abstraction.

use serde::{Deserialize, Serialize};

/// The class of a micro-operation, determining which functional unit
/// executes it and what its latency is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Fixed-point ALU operation (FXU, 1 cycle).
    IntAlu,
    /// Floating-point operation (FPU, pipelined multi-cycle).
    FpAlu,
    /// Memory load (LSU; latency from the cache hierarchy).
    Load {
        /// Byte address accessed.
        addr: u64,
    },
    /// Memory store (LSU; retires without stalling consumers).
    Store {
        /// Byte address accessed.
        addr: u64,
    },
    /// Conditional branch (BRU; may trigger a pipeline refill).
    Branch {
        /// Static address of the branch, used to index predictor tables.
        pc: u64,
        /// Actual outcome.
        taken: bool,
    },
}

/// One micro-operation of a synthetic instruction stream, packed into 16
/// bytes.
///
/// The distance [`dep`](Self::dep) counts dynamically preceding micro-ops
/// back to the producer of this op's source operand, if any; it is how
/// workload generators express ILP. A chain of `dep = Some(1)` loads is a
/// pointer-chase with no memory-level parallelism; independent ops
/// (`dep = None`) saturate the dispatch width.
///
/// [`code_addr`](Self::code_addr) is the address of the instruction itself,
/// used for L1I modelling (one access per cache block of straight-line
/// code).
///
/// # Layout
///
/// An op is the view [`kind`](Self::kind) returns, stored as one `u64`
/// (the load/store data address or the branch pc, 0 for ALU ops), a `u32`
/// code address, a `u16` distance and a tag byte holding the kind, the
/// branch outcome and whether a distance is present. The narrowed fields
/// are narrowed in the constructors' types, so every op that can be built
/// reads back exactly: code addresses are at most [`u32::MAX`] and
/// distances at most [`MicroOp::MAX_DEP`]. `Some(0)` and `None` stay
/// distinct. Replaying a recorded stream costs 16 bytes per op.
///
/// # Examples
///
/// ```
/// use gpm_microarch::{MicroOp, OpKind};
///
/// let op = MicroOp::load(0x1000, Some(1)).at_code(0x400);
/// assert!(op.is_memory());
/// assert_eq!(op.kind(), OpKind::Load { addr: 0x1000 });
/// assert_eq!((op.dep(), op.code_addr()), (Some(1), 0x400));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Data address of a load or store, pc of a branch, 0 otherwise.
    addr: u64,
    /// Address of the instruction word (for I-cache modelling).
    code_addr: u32,
    /// Distance back to the producing op; 0 when `TAG_DEP` is clear.
    dep: u16,
    /// Kind in the low three bits, plus `TAG_TAKEN` and `TAG_DEP`.
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 16);

const KIND_INT: u8 = 0;
const KIND_FP: u8 = 1;
const KIND_LOAD: u8 = 2;
const KIND_STORE: u8 = 3;
const KIND_BRANCH: u8 = 4;
const KIND_MASK: u8 = 0b111;
/// The branch was taken.
const TAG_TAKEN: u8 = 1 << 3;
/// `dep` holds a distance.
const TAG_DEP: u8 = 1 << 4;

impl MicroOp {
    /// The largest representable dependency distance. Generators saturate
    /// longer distances to it, and [`CoreConfig::validate`](crate::CoreConfig::validate)
    /// keeps the reorder window strictly below it, so a saturated distance
    /// always points outside the window, as the exact one would.
    pub const MAX_DEP: u16 = u16::MAX;

    const fn new(kind: u8, addr: u64, dep: Option<u16>) -> Self {
        let (dep, tag) = match dep {
            Some(d) => (d, kind | TAG_DEP),
            None => (0, kind),
        };
        Self {
            addr,
            code_addr: 0,
            dep,
            tag,
        }
    }

    /// Creates a fixed-point ALU op.
    #[must_use]
    pub const fn int_alu(dep: Option<u16>) -> Self {
        Self::new(KIND_INT, 0, dep)
    }

    /// Creates a floating-point op.
    #[must_use]
    pub const fn fp_alu(dep: Option<u16>) -> Self {
        Self::new(KIND_FP, 0, dep)
    }

    /// Creates a load from `addr`.
    #[must_use]
    pub const fn load(addr: u64, dep: Option<u16>) -> Self {
        Self::new(KIND_LOAD, addr, dep)
    }

    /// Creates a store to `addr`.
    #[must_use]
    pub const fn store(addr: u64, dep: Option<u16>) -> Self {
        Self::new(KIND_STORE, addr, dep)
    }

    /// Creates a conditional branch at `pc` with the given outcome.
    #[must_use]
    pub const fn branch(pc: u64, taken: bool) -> Self {
        let op = Self::new(KIND_BRANCH, pc, None);
        if taken {
            Self {
                tag: op.tag | TAG_TAKEN,
                ..op
            }
        } else {
            op
        }
    }

    /// Sets the instruction's own code address (builder-style).
    #[must_use]
    pub const fn at_code(mut self, code_addr: u32) -> Self {
        self.code_addr = code_addr;
        self
    }

    /// The operation class, with its address and branch outcome.
    #[inline]
    #[must_use]
    pub const fn kind(&self) -> OpKind {
        match self.tag & KIND_MASK {
            KIND_INT => OpKind::IntAlu,
            KIND_FP => OpKind::FpAlu,
            KIND_LOAD => OpKind::Load { addr: self.addr },
            KIND_STORE => OpKind::Store { addr: self.addr },
            _ => OpKind::Branch {
                pc: self.addr,
                taken: self.tag & TAG_TAKEN != 0,
            },
        }
    }

    /// Distance back to the producing op, or `None` when independent.
    #[inline]
    #[must_use]
    pub const fn dep(&self) -> Option<u16> {
        if self.tag & TAG_DEP != 0 {
            Some(self.dep)
        } else {
            None
        }
    }

    /// Address of the instruction word.
    #[inline]
    #[must_use]
    pub const fn code_addr(&self) -> u32 {
        self.code_addr
    }

    /// Returns `true` for loads and stores.
    #[must_use]
    pub const fn is_memory(&self) -> bool {
        matches!(self.tag & KIND_MASK, KIND_LOAD | KIND_STORE)
    }

    /// Returns `true` for branches.
    #[must_use]
    pub const fn is_branch(&self) -> bool {
        self.tag & KIND_MASK == KIND_BRANCH
    }
}

/// A source of micro-operations driven by the core model.
///
/// Implementations are expected to be infinite (looping) streams;
/// finite-length semantics (benchmark completion) are handled one level up
/// by the trace captures, which know each benchmark's total instruction
/// count.
pub trait InstructionSource {
    /// Produces the next micro-op in program order.
    fn next_op(&mut self) -> MicroOp;

    /// Fills `buf` with the next micro-ops in program order and returns how
    /// many were written (always starting at `buf[0]`).
    ///
    /// This is the batched delivery path: the core pulls ops in blocks so a
    /// boxed/dynamic source pays one virtual call per block rather than one
    /// per op. The contract for a non-empty `buf` is to deliver between 1
    /// and `buf.len()` ops — delivering fewer than requested is allowed
    /// (e.g. a source that produces ops in fixed-size chunks), delivering 0
    /// is a violation and the core panics on it.
    ///
    /// Batching must not change the op sequence: `fill_ops` followed by
    /// `next_op` yields exactly the ops `next_op` alone would have yielded.
    /// The default implementation guarantees this by delegating to
    /// [`next_op`](Self::next_op) for every slot.
    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        for slot in buf.iter_mut() {
            *slot = self.next_op();
        }
        buf.len()
    }

    /// Borrows the next up-to-`max` micro-ops in program order without
    /// copying, or `None` if this source cannot serve borrowed blocks.
    ///
    /// The zero-copy delivery path: a source backed by in-memory storage
    /// (e.g. a recorded tape) returns a slice straight into that storage
    /// and the core steps ops from it, skipping the per-op copy into its
    /// delivery buffer. Borrowing does *not* consume — the caller reports
    /// how many ops it actually stepped via
    /// [`consume_ops`](Self::consume_ops), which is what advances the
    /// stream (the core may stop mid-block at a cycle boundary). `max` is
    /// at least 1 and a `Some` return must hold between 1 and `max` ops.
    ///
    /// A source must answer consistently — either always `None` (the
    /// buffered [`fill_ops`](Self::fill_ops) path is used) or always
    /// `Some`, with exactly the op sequence `next_op` would produce.
    fn borrow_ops(&mut self, max: usize) -> Option<&[MicroOp]> {
        let _ = max;
        None
    }

    /// Consumes `n` ops previously returned by
    /// [`borrow_ops`](Self::borrow_ops), advancing the stream past them.
    /// Never called with `n > 0` on sources whose `borrow_ops` returns
    /// `None`.
    fn consume_ops(&mut self, n: usize) {
        debug_assert!(n == 0, "consume_ops on a source without borrow_ops");
    }
}

impl<T: InstructionSource + ?Sized> InstructionSource for &mut T {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        (**self).fill_ops(buf)
    }

    fn borrow_ops(&mut self, max: usize) -> Option<&[MicroOp]> {
        (**self).borrow_ops(max)
    }

    fn consume_ops(&mut self, n: usize) {
        (**self).consume_ops(n);
    }
}

impl<T: InstructionSource + ?Sized> InstructionSource for Box<T> {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        (**self).fill_ops(buf)
    }

    fn borrow_ops(&mut self, max: usize) -> Option<&[MicroOp]> {
        (**self).borrow_ops(max)
    }

    fn consume_ops(&mut self, n: usize) {
        (**self).consume_ops(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(MicroOp::int_alu(None).kind(), OpKind::IntAlu);
        assert_eq!(MicroOp::fp_alu(Some(2)).dep(), Some(2));
        assert!(MicroOp::load(8, None).is_memory());
        assert!(MicroOp::store(8, None).is_memory());
        assert!(MicroOp::branch(0x10, true).is_branch());
        assert!(!MicroOp::int_alu(None).is_memory());
        assert!(!MicroOp::store(8, None).is_branch());
    }

    #[test]
    fn at_code_sets_address() {
        let op = MicroOp::int_alu(None).at_code(0xdead);
        assert_eq!(op.code_addr(), 0xdead);
    }

    #[test]
    fn every_field_round_trips() {
        let deps = [None, Some(0), Some(1), Some(MicroOp::MAX_DEP)];
        let addrs = [0, 0x40, u64::MAX];
        let codes = [0, 0x40_0400, u32::MAX];
        for dep in deps {
            for addr in addrs {
                for code in codes {
                    let ops = [
                        (MicroOp::int_alu(dep), OpKind::IntAlu, dep),
                        (MicroOp::fp_alu(dep), OpKind::FpAlu, dep),
                        (MicroOp::load(addr, dep), OpKind::Load { addr }, dep),
                        (MicroOp::store(addr, dep), OpKind::Store { addr }, dep),
                        (
                            MicroOp::branch(addr, true),
                            OpKind::Branch {
                                pc: addr,
                                taken: true,
                            },
                            None,
                        ),
                        (
                            MicroOp::branch(addr, false),
                            OpKind::Branch {
                                pc: addr,
                                taken: false,
                            },
                            None,
                        ),
                    ];
                    for (op, kind, dep) in ops {
                        let op = op.at_code(code);
                        assert_eq!(op.kind(), kind);
                        assert_eq!(op.dep(), dep);
                        assert_eq!(op.code_addr(), code);
                        assert_eq!(
                            op.is_memory(),
                            matches!(kind, OpKind::Load { .. } | OpKind::Store { .. })
                        );
                        assert_eq!(op.is_branch(), matches!(kind, OpKind::Branch { .. }));
                    }
                }
            }
        }
    }

    #[test]
    fn equality_follows_the_view() {
        assert_ne!(MicroOp::int_alu(None), MicroOp::int_alu(Some(0)));
        assert_ne!(MicroOp::load(8, None), MicroOp::store(8, None));
        assert_ne!(MicroOp::branch(8, true), MicroOp::branch(8, false));
        assert_ne!(MicroOp::int_alu(None), MicroOp::int_alu(None).at_code(4));
        assert_eq!(MicroOp::fp_alu(Some(7)), MicroOp::fp_alu(Some(7)));
    }

    #[test]
    fn source_via_mut_ref_and_box() {
        struct S(u64);
        impl InstructionSource for S {
            fn next_op(&mut self) -> MicroOp {
                self.0 += 1;
                MicroOp::int_alu(None)
            }
        }
        let mut s = S(0);
        let _ = InstructionSource::next_op(&mut (&mut s));
        let mut b: Box<dyn InstructionSource> = Box::new(S(0));
        let _ = b.next_op();
        assert_eq!(s.0, 1);
    }

    #[test]
    fn default_fill_ops_matches_next_op() {
        struct Counting(u64);
        impl InstructionSource for Counting {
            fn next_op(&mut self) -> MicroOp {
                self.0 += 1;
                MicroOp::load(self.0 * 8, None)
            }
        }
        let mut by_batch = Counting(0);
        let mut buf = [MicroOp::int_alu(None); 7];
        assert_eq!(by_batch.fill_ops(&mut buf), 7);
        let mut one_by_one = Counting(0);
        for op in buf {
            assert_eq!(op, one_by_one.next_op());
        }
        // Boxed dynamic sources forward the batched path.
        let mut boxed: Box<dyn InstructionSource> = Box::new(Counting(0));
        assert_eq!(boxed.fill_ops(&mut buf), 7);
        assert_eq!(buf[0], MicroOp::load(8, None));
    }
}
