/**
 * @file
 * Decoded instruction representation, field encodings, and the trigger
 * field roles (T.RS / T.RT / T.RD / T.IMM / T.P*) that DISE replacement
 * directives reference.
 *
 * Encoding formats (all 32-bit):
 *
 *   Memory:   op[31:26] ra[25:21] rb[20:16] disp[15:0]       op ra,disp(rb)
 *   Branch:   op[31:26] ra[25:21] disp[20:0]                 op ra,target
 *   Jump:     op[31:26] ra[25:21] rb[20:16] 0[15:0]          op ra,(rb)
 *   Operate:  op[31:26] ra[25:21] rb[20:16] lit[20:13]
 *             litflag[12] 0[11:5] rc[4:0]                    op ra,rb|#l,rc
 *   Codeword: op[31:26] tag[25:15] p1[14:10] p2[9:5] p3[4:0]
 *
 * Codeword parameter fields double as a single 15-bit signed immediate
 * parameter (bits [14:0]); the interpretation is chosen by the matching
 * production's directives, not by the instruction itself.
 */

#ifndef DISE_ISA_INST_HPP
#define DISE_ISA_INST_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "src/isa/opcodes.hpp"
#include "src/isa/regs.hpp"

namespace dise {

/** Virtual address type (byte addresses). */
using Addr = uint64_t;

/**
 * Fixed-capacity source-register list. No instruction reads more than
 * three registers, so the timing model's per-instruction dependence walk
 * never needs to allocate.
 */
struct SrcRegList
{
    std::array<RegIndex, 3> regs{};
    uint8_t count = 0;

    void
    push(RegIndex r)
    {
        if (r != kZeroReg)
            regs[count++] = r;
    }
    const RegIndex *begin() const { return regs.data(); }
    const RegIndex *end() const { return regs.data() + count; }
    size_t size() const { return count; }
};

/** A decoded (or DISE-synthesized) instruction. */
struct DecodedInst
{
    Opcode op = Opcode::NOP;
    OpClass cls = OpClass::Nop;
    /** Field ra; dest for loads/lda/branch-links, source for stores. */
    RegIndex ra = 0;
    /** Field rb; base register / second operate source / jump target. */
    RegIndex rb = 0;
    /** Field rc; operate destination. */
    RegIndex rc = 0;
    /** Operate literal form (8-bit unsigned literal in imm). */
    bool useLit = false;
    /**
     * Immediate: sign-extended displacement (memory), word displacement
     * (branch), unsigned literal (operate), or 15-bit signed parameter
     * immediate (codeword).
     */
    int64_t imm = 0;
    /** Codeword replacement-sequence tag (11 bits); 0 otherwise. */
    uint16_t tag = 0;
    /** Original encoding; 0 for instructions synthesized by the IL. */
    Word raw = 0;

    bool isNop() const { return cls == OpClass::Nop; }
    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isControl() const { return isControlClass(cls); }
    bool isDiseBranch() const { return cls == OpClass::DiseBranch; }
    bool isCodeword() const { return cls == OpClass::Codeword; }

    /**
     * @name Register dependences.
     *
     * Inline switches on the decoded (cls, op) pair: the timing model
     * walks them once per instruction. An exhaustive test checks them
     * against a derivation from each opcode's encoding format.
     */
    /// @{
    /**
     * Destination register, or kZeroReg when the instruction writes
     * nothing architecturally visible.
     */
    RegIndex
    destReg() const
    {
        switch (cls) {
          case OpClass::Load:
            return ra;
          case OpClass::IntAlu:
            // LDA/LDAH are memory-format address arithmetic: dest ra.
            return (op == Opcode::LDA || op == Opcode::LDAH) ? ra : rc;
          case OpClass::IntMult:
            return rc;
          case OpClass::UncondBranch:
          case OpClass::Call:
          case OpClass::Jump:
          case OpClass::CallIndirect:
          case OpClass::Return:
            return ra; // BR/BSR and jumps link through ra
          case OpClass::CondBranch:
            // Fused compare+branch writes the compare result to rc.
            return op == Opcode::FCMPBR ? rc : kZeroReg;
          case OpClass::Store:
            // Fused lda+store also writes the formed address register.
            return op == Opcode::FLDAS ? rc : kZeroReg;
          default:
            // DiseBranch, Nop, Syscall, Codeword, Invalid: no
            // architecturally visible destination.
            return kZeroReg;
        }
    }

    /** True if destReg() is a real (non-zero-register) write. */
    bool writesReg() const { return destReg() != kZeroReg; }

    /** Source registers in evaluation order (excludes the zero reg). */
    std::vector<RegIndex> srcRegs() const;

    /** srcRegs() without the vector: for per-instruction hot loops. */
    SrcRegList
    srcRegList() const
    {
        SrcRegList srcs;
        switch (cls) {
          case OpClass::IntAlu:
            if (op == Opcode::LDA || op == Opcode::LDAH) {
                srcs.push(rb); // memory-format: base register only
                break;
            }
            [[fallthrough]];
          case OpClass::IntMult:
            srcs.push(ra);
            if (!useLit)
                srcs.push(rb);
            if (op == Opcode::CMOVEQ || op == Opcode::CMOVNE)
                srcs.push(rc); // partial write reads the old dest
            break;
          case OpClass::Load:
            srcs.push(rb);
            if (op == Opcode::FLDOP)
                srcs.push(rc); // fused load-op's ALU operand
            break;
          case OpClass::Store:
            srcs.push(rb);
            srcs.push(ra);
            break;
          case OpClass::CondBranch:
            srcs.push(ra);
            if (op == Opcode::FCMPBR && !useLit)
                srcs.push(rb); // fused compare's register operand
            break;
          case OpClass::DiseBranch:
            srcs.push(ra);
            break;
          case OpClass::Jump:
          case OpClass::CallIndirect:
          case OpClass::Return:
            srcs.push(rb);
            break;
          case OpClass::Syscall:
            srcs.push(kRetReg);
            srcs.push(kArg0Reg);
            srcs.push(static_cast<RegIndex>(kArg0Reg + 1));
            break;
          default:
            break;
        }
        return srcs;
    }
    /// @}

    /** @name Trigger field roles (paper Section 2.1). */
    /// @{
    /** T.RS: primary source — memory base, operate ra, branch ra. */
    RegIndex triggerRS() const;
    /** T.RT: secondary source — store data register, operate rb. */
    RegIndex triggerRT() const;
    /** T.RD: destination — load ra, operate rc, call link register. */
    RegIndex triggerRD() const;
    /// @}

    /** Direct-branch target for a trigger fetched at @p pc. */
    Addr branchTarget(Addr pc) const;

    bool operator==(const DecodedInst &other) const;
};

/** Decode a raw word. Invalid encodings yield cls == OpClass::Invalid. */
DecodedInst decode(Word word);

/**
 * Re-encode a decoded instruction.
 * Panics if a field does not fit (e.g. a dedicated register in an
 * application encoding, or an out-of-range displacement).
 */
Word encode(const DecodedInst &inst);

/** @name Encoding constructors. */
/// @{
Word makeNop();
Word makeMemory(Opcode op, RegIndex ra, RegIndex rb, int64_t disp);
Word makeBranch(Opcode op, RegIndex ra, int64_t wordDisp);
Word makeJump(Opcode op, RegIndex ra, RegIndex rb);
Word makeOperate(Opcode op, RegIndex ra, RegIndex rb, RegIndex rc);
Word makeOperateImm(Opcode op, RegIndex ra, uint8_t lit, RegIndex rc);
Word makeCodeword(Opcode op, uint16_t tag, uint8_t p1, uint8_t p2,
                  uint8_t p3);
Word makeCodewordImm(Opcode op, uint16_t tag, int64_t imm15);
Word makeSyscall();
/// @}

/** Maximum codeword tag value (11-bit field). */
constexpr uint16_t kMaxCodewordTag = 0x7ff;

} // namespace dise

#endif // DISE_ISA_INST_HPP
