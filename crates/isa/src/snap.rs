//! Snapshot codec implementations for the ISA types.
//!
//! Everything here is plain data with complete public constructors, so the
//! implementations go through the public API; the byte layout is the field
//! order written below. Any change to it requires a
//! [`ltp_snapshot::FORMAT_VERSION`] bump.

use crate::{
    ArchReg, BranchInfo, DynInst, FuKind, MemAccess, OpClass, Pc, PhysReg, SeqNum, StaticInst,
    ThreadId,
};
use ltp_snapshot::{impl_codec_enum, Codec, Reader, SnapError, Writer};

impl Codec for Pc {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Pc(u64::read(r)?))
    }
}

impl Codec for SeqNum {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(SeqNum(u64::read(r)?))
    }
}

impl Codec for ThreadId {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(ThreadId(u8::read(r)?))
    }
}

impl Codec for ArchReg {
    fn write(&self, w: &mut Writer) {
        self.index().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let idx = usize::read(r)?;
        if idx >= crate::NUM_ARCH_REGS {
            return Err(SnapError::Invalid("architectural register out of range"));
        }
        Ok(ArchReg::from_index(idx))
    }
}

impl Codec for PhysReg {
    fn write(&self, w: &mut Writer) {
        (self.index() as u64).write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let idx = u64::read(r)?;
        u32::try_from(idx)
            .map(PhysReg::new)
            .map_err(|_| SnapError::Invalid("physical register out of range"))
    }
}

impl_codec_enum!(RegClassSnap { RegClassSnap::Int = 0, RegClassSnap::Fp = 1 });

/// Local mirror so the enum macro can own the tags without exposing them.
enum RegClassSnap {
    Int,
    Fp,
}

impl Codec for crate::RegClass {
    fn write(&self, w: &mut Writer) {
        match self {
            crate::RegClass::Int => RegClassSnap::Int.write(w),
            crate::RegClass::Fp => RegClassSnap::Fp.write(w),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match RegClassSnap::read(r)? {
            RegClassSnap::Int => crate::RegClass::Int,
            RegClassSnap::Fp => crate::RegClass::Fp,
        })
    }
}

impl_codec_enum!(OpClass {
    OpClass::IntAlu = 0,
    OpClass::IntMul = 1,
    OpClass::IntDiv = 2,
    OpClass::FpAlu = 3,
    OpClass::FpMul = 4,
    OpClass::FpDiv = 5,
    OpClass::FpSqrt = 6,
    OpClass::Load = 7,
    OpClass::Store = 8,
    OpClass::Branch = 9,
    OpClass::Nop = 10,
});

impl_codec_enum!(FuKind {
    FuKind::IntAlu = 0,
    FuKind::IntMulDiv = 1,
    FuKind::FpAlu = 2,
    FuKind::FpDivSqrt = 3,
    FuKind::Mem = 4,
    FuKind::Branch = 5,
});

impl Codec for MemAccess {
    fn write(&self, w: &mut Writer) {
        self.addr().write(w);
        self.size().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let addr = u64::read(r)?;
        let size = u8::read(r)?;
        if size == 0 || size > 64 {
            return Err(SnapError::Invalid("memory access size"));
        }
        Ok(MemAccess::new(addr, size))
    }
}

impl Codec for BranchInfo {
    fn write(&self, w: &mut Writer) {
        self.taken.write(w);
        self.target.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(BranchInfo {
            taken: bool::read(r)?,
            target: Pc::read(r)?,
        })
    }
}

impl Codec for StaticInst {
    fn write(&self, w: &mut Writer) {
        self.pc().write(w);
        self.op().write(w);
        self.dst().write(w);
        // Raw sources, so zero idioms keep their architectural source list;
        // the same bytes as the `Vec<ArchReg>` codec, without building one.
        let srcs = self.raw_srcs().iter().flatten();
        w.varint(srcs.clone().count() as u64);
        for s in srcs {
            s.write(w);
        }
        self.is_zero_idiom().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let pc = Pc::read(r)?;
        let op = OpClass::read(r)?;
        let dst = Option::<ArchReg>::read(r)?;
        let srcs = Vec::<ArchReg>::read(r)?;
        if srcs.len() > crate::MAX_SRCS {
            return Err(SnapError::Invalid("too many instruction sources"));
        }
        let zero_idiom = bool::read(r)?;
        let mut inst = StaticInst::new(pc, op);
        if let Some(d) = dst {
            inst = inst.with_dst(d);
        }
        for s in srcs {
            inst = inst.with_src(s);
        }
        if zero_idiom {
            inst = inst.with_zero_idiom();
        }
        Ok(inst)
    }
}

impl Codec for DynInst {
    fn write(&self, w: &mut Writer) {
        self.seq().write(w);
        self.tid().write(w);
        self.static_inst().write(w);
        self.mem_access().write(w);
        self.branch_info().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let seq = SeqNum::read(r)?;
        let tid = ThreadId::read(r)?;
        let sinst = StaticInst::read(r)?;
        let mem = Option::<MemAccess>::read(r)?;
        let branch = Option::<BranchInfo>::read(r)?;
        if mem.is_some() && !sinst.op().is_mem() {
            return Err(SnapError::Invalid("memory access on non-memory op"));
        }
        let mut inst = DynInst::new(seq.0, sinst).with_tid(tid);
        if let Some(m) = mem {
            inst = inst.with_mem(m);
        }
        if let Some(b) = branch {
            inst = inst.with_branch(b);
        }
        Ok(inst)
    }
}

/// Content fingerprint of an instruction trace: the *stable trace
/// identity* cache keys use. Two traces hash equal exactly when every
/// instruction's fields — sequence number, thread, PC, op class, registers,
/// zero idiom, memory access, branch outcome — are equal, independent of how
/// the trace was generated (up to 64-bit collisions). The leading length
/// keeps a prefix trace from hashing equal to its extension.
///
/// Each instruction contributes five fixed-width words (sequence number,
/// PC, a packed word of the small fields, memory address, branch target)
/// folded into the hash 64 bits at a time, so fingerprinting a trace neither
/// allocates nor encodes it. Every fold step is a bijection of the running
/// hash, so a trace differing from another in any single word always hashes
/// differently.
#[must_use]
pub fn trace_fingerprint(insts: &[DynInst]) -> u64 {
    let mut h = fold(0xcbf2_9ce4_8422_2325, insts.len() as u64);
    for inst in insts {
        for word in inst_words(inst) {
            h = fold(h, word);
        }
    }
    h
}

/// One step of [`trace_fingerprint`]: xor the word in, multiply by an odd
/// constant and rotate, so high input bits reach the low hash bits too.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
}

/// The fixed-width words [`trace_fingerprint`] folds per instruction:
/// sequence number, PC, a packed word of the small fields, the memory
/// address and the branch target (zero when absent; the packed word's
/// presence bits tell an absent field from a zero one).
///
/// Packed layout, low bit first: thread (8 bits), op class (8), destination
/// (7: zero for none, else register index + 1), up to [`crate::MAX_SRCS`]
/// sources in order (7 each, same coding), zero idiom (1), memory present
/// (1), memory size (8), branch present (1), branch taken (1).
#[inline]
fn inst_words(inst: &DynInst) -> [u64; 5] {
    const REG_BITS: u32 = 7;
    const SRCS_AT: u32 = 16 + REG_BITS;
    const FLAGS_AT: u32 = SRCS_AT + REG_BITS * crate::MAX_SRCS as u32;
    const _: () = assert!(crate::NUM_ARCH_REGS < 1 << REG_BITS && FLAGS_AT + 12 <= 64);
    let reg = |r: ArchReg| r.index() as u64 + 1;
    let s = inst.static_inst();
    let mem = inst.mem_access();
    let branch = inst.branch_info();
    let mut shape = u64::from(inst.tid().0) | (s.op() as u64) << 8 | s.dst().map_or(0, reg) << 16;
    for (i, src) in s.raw_srcs().iter().flatten().enumerate() {
        shape |= reg(*src) << (SRCS_AT + REG_BITS * i as u32);
    }
    shape |= (u64::from(s.is_zero_idiom())
        | mem.map_or(0, |m| 1 << 1 | u64::from(m.size()) << 2)
        | branch.map_or(0, |b| 1 << 10 | u64::from(b.taken) << 11))
        << FLAGS_AT;
    [
        inst.seq().0,
        s.pc().0,
        shape,
        mem.map_or(0, |m| m.addr()),
        branch.map_or(0, |b| b.target.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_snapshot::encode_value;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        let mut r = Reader::new(&bytes);
        let back = T::read(&mut r).expect("decode");
        assert_eq!(back, v);
        assert_eq!(r.remaining(), 0);
        assert_eq!(encode_value(&back), bytes);
    }

    #[test]
    fn isa_types_roundtrip() {
        roundtrip(Pc(0x40a0));
        roundtrip(SeqNum(123_456));
        roundtrip(ThreadId(1));
        roundtrip(ArchReg::int(5));
        roundtrip(ArchReg::fp(3));
        roundtrip(PhysReg::new(1 << 20));
        for op in OpClass::ALL {
            roundtrip(op);
        }
        roundtrip(MemAccess::new(0xdead_beef, 8));
        roundtrip(BranchInfo {
            taken: true,
            target: Pc(0x100),
        });
    }

    #[test]
    fn instructions_roundtrip() {
        let sinst = StaticInst::new(Pc(0x500), OpClass::Load)
            .with_dst(ArchReg::int(4))
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2));
        roundtrip(sinst);
        let zero = StaticInst::new(Pc(0x504), OpClass::IntAlu)
            .with_dst(ArchReg::int(5))
            .with_src(ArchReg::int(5))
            .with_src(ArchReg::int(5))
            .with_zero_idiom();
        roundtrip(zero);
        let dynamic = DynInst::new(42, sinst)
            .with_tid(ThreadId(1))
            .with_mem(MemAccess::qword(0x9000));
        roundtrip(dynamic);
        let branch = DynInst::new(
            43,
            StaticInst::new(Pc(0x508), OpClass::Branch).with_src(ArchReg::int(2)),
        )
        .with_branch(BranchInfo {
            taken: false,
            target: Pc(0x100),
        });
        roundtrip(branch);
    }

    /// The `Vec`-free `StaticInst::write` emits exactly the bytes of the
    /// `Vec<ArchReg>` source encoding it replaced, for every source count,
    /// with and without a destination and a zero idiom.
    #[test]
    fn static_inst_bytes_match_the_vec_encoding() {
        for n in 0..=crate::MAX_SRCS {
            for dst in [None, Some(ArchReg::int(7))] {
                for zero in [false, true] {
                    let mut inst = StaticInst::new(Pc(0x40c), OpClass::IntAlu);
                    if let Some(d) = dst {
                        inst = inst.with_dst(d);
                    }
                    for i in 0..n {
                        inst = inst.with_src(ArchReg::fp(i + 1));
                    }
                    if zero {
                        inst = inst.with_zero_idiom();
                    }
                    let mut w = Writer::new();
                    inst.pc().write(&mut w);
                    inst.op().write(&mut w);
                    inst.dst().write(&mut w);
                    let srcs: Vec<ArchReg> = inst.raw_srcs().iter().filter_map(|s| *s).collect();
                    srcs.write(&mut w);
                    inst.is_zero_idiom().write(&mut w);
                    assert_eq!(
                        encode_value(&inst),
                        w.into_bytes(),
                        "{n} srcs, {dst:?}, {zero}"
                    );
                    roundtrip(inst);
                }
            }
        }
    }

    /// Every field of a [`DynInst`], spelled out so a test can change one.
    #[derive(Clone)]
    struct Fields {
        seq: u64,
        tid: u8,
        pc: u64,
        op: OpClass,
        dst: Option<ArchReg>,
        srcs: Vec<ArchReg>,
        zero_idiom: bool,
        mem: Option<(u64, u8)>,
        branch: Option<(bool, u64)>,
    }

    impl Fields {
        fn build(&self) -> DynInst {
            let mut s = StaticInst::new(Pc(self.pc), self.op);
            if let Some(d) = self.dst {
                s = s.with_dst(d);
            }
            for &src in &self.srcs {
                s = s.with_src(src);
            }
            if self.zero_idiom {
                s = s.with_zero_idiom();
            }
            let mut inst = DynInst::new(self.seq, s).with_tid(ThreadId(self.tid));
            if let Some((addr, size)) = self.mem {
                inst = inst.with_mem(MemAccess::new(addr, size));
            }
            if let Some((taken, target)) = self.branch {
                inst = inst.with_branch(BranchInfo {
                    taken,
                    target: Pc(target),
                });
            }
            inst
        }
    }

    /// Changing any single field of one instruction in a trace changes the
    /// trace's fingerprint.
    #[test]
    fn fingerprint_sees_every_field() {
        let load = Fields {
            seq: 10,
            tid: 1,
            pc: 0x400,
            op: OpClass::Load,
            dst: Some(ArchReg::int(3)),
            srcs: vec![ArchReg::int(1), ArchReg::int(2), ArchReg::fp(4)],
            zero_idiom: false,
            mem: Some((0x9000, 8)),
            branch: None,
        };
        let branch = Fields {
            seq: 11,
            pc: 0x408,
            op: OpClass::Branch,
            dst: None,
            srcs: vec![ArchReg::int(2)],
            mem: None,
            branch: Some((true, 0x100)),
            ..load.clone()
        };
        let mut cases: Vec<(&str, Fields, Fields)> = Vec::new();
        let mut vary = |what, base: &Fields, change: &dyn Fn(&mut Fields)| {
            let mut f = base.clone();
            change(&mut f);
            cases.push((what, base.clone(), f));
        };
        vary("seq", &load, &|f| f.seq += 1);
        vary("tid", &load, &|f| f.tid = 0);
        vary("pc", &load, &|f| f.pc += 4);
        vary("op", &load, &|f| f.op = OpClass::Store);
        vary("dst register", &load, &|f| f.dst = Some(ArchReg::int(4)));
        vary("dst presence", &load, &|f| f.dst = None);
        vary("dst class", &load, &|f| f.dst = Some(ArchReg::fp(3)));
        for (i, what) in ["source 0", "source 1", "source 2"].into_iter().enumerate() {
            vary(what, &load, &|f| f.srcs[i] = ArchReg::int(30));
        }
        vary("source count", &load, &|f| {
            f.srcs.pop();
        });
        vary("zero idiom", &load, &|f| f.zero_idiom = true);
        vary("mem presence", &load, &|f| f.mem = None);
        vary("mem address", &load, &|f| f.mem = Some((0x9008, 8)));
        vary("mem size", &load, &|f| f.mem = Some((0x9000, 4)));
        vary("branch presence", &branch, &|f| f.branch = None);
        vary("branch taken", &branch, &|f| {
            f.branch = Some((false, 0x100))
        });
        vary("branch target", &branch, &|f| {
            f.branch = Some((true, 0x104))
        });

        let before = DynInst::new(9, StaticInst::new(Pc(0x3fc), OpClass::Nop));
        let after = DynInst::new(12, StaticInst::new(Pc(0x40c), OpClass::IntAlu));
        for (what, base, changed) in cases {
            let a = trace_fingerprint(&[before, base.build(), after]);
            let b = trace_fingerprint(&[before, changed.build(), after]);
            assert_eq!(a, trace_fingerprint(&[before, base.build(), after]));
            assert_ne!(a, b, "changing the {what} left the fingerprint unchanged");
        }
    }

    #[test]
    fn fingerprint_tells_a_prefix_from_its_extension() {
        let insts: Vec<DynInst> = (0..8)
            .map(|i| DynInst::new(i, StaticInst::new(Pc(0x100 + 4 * i), OpClass::Nop)))
            .collect();
        for n in 0..insts.len() {
            assert_ne!(
                trace_fingerprint(&insts[..n]),
                trace_fingerprint(&insts[..=n]),
                "length {n}"
            );
        }
        // An extension by an all-zero instruction is told apart as well.
        let zero = DynInst::new(0, StaticInst::new(Pc(0), OpClass::IntAlu));
        assert_ne!(trace_fingerprint(&[]), trace_fingerprint(&[zero]));
        assert_ne!(trace_fingerprint(&[zero]), trace_fingerprint(&[zero, zero]));
    }

    #[test]
    fn corrupted_instruction_rejected() {
        // A memory access attached to a non-memory op must fail cleanly.
        let mut w = Writer::new();
        SeqNum(1).write(&mut w);
        ThreadId(0).write(&mut w);
        StaticInst::new(Pc(0), OpClass::IntAlu).write(&mut w);
        Some(MemAccess::qword(0x10)).write(&mut w);
        Option::<BranchInfo>::None.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(DynInst::read(&mut r).is_err());
    }
}
