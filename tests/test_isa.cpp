/**
 * @file
 * ISA tests: opcode table, register naming, encode/decode round trips
 * (including a property sweep over every opcode), trigger field roles,
 * and the disassembler.
 */

#include <gtest/gtest.h>

#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/inst.hpp"

namespace dise {
namespace {

TEST(Opcodes, TableLookups)
{
    EXPECT_STREQ(opName(Opcode::LDQ), "ldq");
    EXPECT_EQ(opInfo(Opcode::LDQ).cls, OpClass::Load);
    EXPECT_EQ(opInfo(Opcode::STQ).cls, OpClass::Store);
    EXPECT_EQ(opInfo(Opcode::BEQ).cls, OpClass::CondBranch);
    EXPECT_EQ(opInfo(Opcode::MULQ).cls, OpClass::IntMult);
    EXPECT_EQ(opInfo(Opcode::RES0).cls, OpClass::Codeword);
    EXPECT_EQ(opInfo(Opcode::DBEQ).cls, OpClass::DiseBranch);
}

TEST(Opcodes, LdaIsNotALoad)
{
    // LDA/LDAH are address arithmetic; MFI must not expand them.
    EXPECT_EQ(opInfo(Opcode::LDA).cls, OpClass::IntAlu);
    EXPECT_EQ(opInfo(Opcode::LDAH).cls, OpClass::IntAlu);
}

TEST(Opcodes, NameRoundTrip)
{
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i) {
        const Opcode op = static_cast<Opcode>(i);
        if (!opInfo(op).valid)
            continue;
        const auto back = opFromName(opName(op));
        ASSERT_TRUE(back.has_value()) << opName(op);
        EXPECT_EQ(*back, op);
    }
}

TEST(Opcodes, UnknownNameRejected)
{
    EXPECT_FALSE(opFromName("frobnicate").has_value());
}

TEST(Opcodes, ClassPredicates)
{
    EXPECT_TRUE(isControlClass(OpClass::CondBranch));
    EXPECT_TRUE(isControlClass(OpClass::Return));
    EXPECT_FALSE(isControlClass(OpClass::DiseBranch));
    EXPECT_TRUE(isIndirectClass(OpClass::Jump));
    EXPECT_FALSE(isIndirectClass(OpClass::Call));
}

TEST(Regs, NamesAndAliases)
{
    EXPECT_EQ(regName(31), "zero");
    EXPECT_EQ(regName(30), "sp");
    EXPECT_EQ(regName(0), "v0");
    EXPECT_EQ(regName(16), "a0");
    EXPECT_EQ(regName(33), "$dr1");
}

TEST(Regs, ParseForms)
{
    EXPECT_EQ(*regFromName("r31"), 31);
    EXPECT_EQ(*regFromName("$17"), 17);
    EXPECT_EQ(*regFromName("sp"), kSpReg);
    EXPECT_EQ(*regFromName("ra"), kRaReg);
    EXPECT_EQ(*regFromName("$dr0"), kDiseRegBase);
    EXPECT_EQ(*regFromName("dr7"), kDiseRegBase + 7);
    EXPECT_FALSE(regFromName("bogus").has_value());
}

TEST(Regs, Predicates)
{
    EXPECT_TRUE(isArchReg(0));
    EXPECT_TRUE(isArchReg(31));
    EXPECT_FALSE(isArchReg(32));
    EXPECT_TRUE(isDiseReg(32));
    EXPECT_TRUE(isDiseReg(39));
    EXPECT_FALSE(isDiseReg(40));
}

TEST(Encode, MemoryRoundTrip)
{
    const Word w = makeMemory(Opcode::LDQ, 5, 30, -32768);
    const DecodedInst inst = decode(w);
    EXPECT_EQ(inst.op, Opcode::LDQ);
    EXPECT_EQ(inst.ra, 5);
    EXPECT_EQ(inst.rb, 30);
    EXPECT_EQ(inst.imm, -32768);
    EXPECT_EQ(encode(inst), w);
}

TEST(Encode, BranchRoundTrip)
{
    const Word w = makeBranch(Opcode::BNE, 3, -1048576);
    const DecodedInst inst = decode(w);
    EXPECT_EQ(inst.op, Opcode::BNE);
    EXPECT_EQ(inst.imm, -1048576);
    EXPECT_EQ(encode(inst), w);
}

TEST(Encode, OperateRegisterAndLiteralForms)
{
    const Word wr = makeOperate(Opcode::ADDQ, 1, 2, 3);
    const DecodedInst ir = decode(wr);
    EXPECT_FALSE(ir.useLit);
    EXPECT_EQ(ir.ra, 1);
    EXPECT_EQ(ir.rb, 2);
    EXPECT_EQ(ir.rc, 3);

    const Word wl = makeOperateImm(Opcode::SRL, 7, 255, 8);
    const DecodedInst il = decode(wl);
    EXPECT_TRUE(il.useLit);
    EXPECT_EQ(il.imm, 255);
    EXPECT_EQ(il.rc, 8);
    EXPECT_EQ(encode(il), wl);
}

TEST(Encode, CodewordRoundTrip)
{
    const Word w = makeCodeword(Opcode::RES0, 2047, 31, 0, 17);
    const DecodedInst inst = decode(w);
    EXPECT_EQ(inst.cls, OpClass::Codeword);
    EXPECT_EQ(inst.tag, 2047);
    EXPECT_EQ(inst.ra, 31);
    EXPECT_EQ(inst.rb, 0);
    EXPECT_EQ(inst.rc, 17);
}

TEST(Encode, CodewordImmHoldsSigned15)
{
    for (const int64_t v : {-16384l, -1l, 0l, 1l, 16383l}) {
        const Word w = makeCodewordImm(Opcode::RES1, 7, v);
        const DecodedInst inst = decode(w);
        EXPECT_EQ(inst.imm, v) << v;
        EXPECT_EQ(inst.tag, 7);
    }
}

TEST(Encode, DedicatedRegisterRejected)
{
    DecodedInst inst = decode(makeOperate(Opcode::ADDQ, 1, 2, 3));
    inst.rc = kDiseRegBase; // $dr0 has no application encoding
    EXPECT_THROW(encode(inst), PanicError);
}

TEST(Encode, OutOfRangeDisplacementRejected)
{
    DecodedInst inst = decode(makeMemory(Opcode::LDQ, 1, 2, 0));
    inst.imm = 40000;
    EXPECT_THROW(encode(inst), PanicError);
}

TEST(Encode, NopIsAllZeros)
{
    EXPECT_EQ(makeNop(), 0u);
    EXPECT_TRUE(decode(0).isNop());
}

TEST(Decode, InvalidOpcodeFlagged)
{
    // Opcode 0x3f is unassigned.
    const Word w = static_cast<Word>(0x3fu << 26);
    EXPECT_EQ(decode(w).cls, OpClass::Invalid);
}

/** Property: decode(encode(x)) == x over every valid opcode. */
class EncodeRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EncodeRoundTrip, AllFieldsSurvive)
{
    const Opcode op = static_cast<Opcode>(GetParam());
    const OpInfo &info = opInfo(op);
    if (!info.valid)
        GTEST_SKIP();
    Rng rng(GetParam() * 1234567 + 1);
    for (int trial = 0; trial < 50; ++trial) {
        DecodedInst inst;
        inst.op = op;
        inst.cls = info.cls;
        switch (info.format) {
          case InstFormat::Memory:
            inst.ra = static_cast<RegIndex>(rng.below(32));
            inst.rb = static_cast<RegIndex>(rng.below(32));
            inst.imm = rng.range(-32768, 32767);
            break;
          case InstFormat::Branch:
            inst.ra = static_cast<RegIndex>(rng.below(32));
            inst.imm = rng.range(-(1 << 20), (1 << 20) - 1);
            break;
          case InstFormat::Jump:
            inst.ra = static_cast<RegIndex>(rng.below(32));
            inst.rb = static_cast<RegIndex>(rng.below(32));
            break;
          case InstFormat::Operate:
            inst.ra = static_cast<RegIndex>(rng.below(32));
            inst.useLit = rng.chance(0.5);
            if (inst.useLit)
                inst.imm = static_cast<int64_t>(rng.below(256));
            else
                inst.rb = static_cast<RegIndex>(rng.below(32));
            inst.rc = static_cast<RegIndex>(rng.below(32));
            break;
          case InstFormat::Codeword:
            inst.tag = static_cast<uint16_t>(rng.below(2048));
            inst.ra = static_cast<RegIndex>(rng.below(32));
            inst.rb = static_cast<RegIndex>(rng.below(32));
            inst.rc = static_cast<RegIndex>(rng.below(32));
            break;
          default:
            break;
        }
        const Word w = encode(inst);
        DecodedInst back = decode(w);
        EXPECT_EQ(back.op, inst.op);
        EXPECT_EQ(back.ra, inst.ra);
        EXPECT_EQ(back.rb, inst.rb);
        if (info.format == InstFormat::Operate) {
            EXPECT_EQ(back.rc, inst.rc);
            EXPECT_EQ(back.useLit, inst.useLit);
        }
        if (info.format == InstFormat::Memory ||
            info.format == InstFormat::Branch ||
            (info.format == InstFormat::Operate && inst.useLit)) {
            EXPECT_EQ(back.imm, inst.imm);
        }
        if (info.format == InstFormat::Codeword) {
            EXPECT_EQ(back.tag, inst.tag);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::Range(0u,
                                          unsigned(Opcode::NUM_OPCODES)));

TEST(Roles, LoadRoles)
{
    const DecodedInst ld = decode(makeMemory(Opcode::LDQ, 5, 9, 16));
    EXPECT_EQ(ld.triggerRS(), 9); // address base
    EXPECT_EQ(ld.triggerRD(), 5); // destination
    EXPECT_EQ(ld.triggerRT(), kZeroReg);
    EXPECT_EQ(ld.destReg(), 5);
    EXPECT_EQ(ld.srcRegs(), std::vector<RegIndex>{9});
}

TEST(Roles, StoreRoles)
{
    const DecodedInst st = decode(makeMemory(Opcode::STQ, 5, 9, 16));
    EXPECT_EQ(st.triggerRS(), 9); // address base
    EXPECT_EQ(st.triggerRT(), 5); // data
    EXPECT_FALSE(st.writesReg());
    const auto srcs = st.srcRegs();
    EXPECT_EQ(srcs.size(), 2u);
}

TEST(Roles, OperateRoles)
{
    const DecodedInst op = decode(makeOperate(Opcode::ADDQ, 1, 2, 3));
    EXPECT_EQ(op.triggerRS(), 1);
    EXPECT_EQ(op.triggerRT(), 2);
    EXPECT_EQ(op.triggerRD(), 3);
}

TEST(Roles, JumpRoles)
{
    const DecodedInst j = decode(makeJump(Opcode::JSR, 26, 27));
    EXPECT_EQ(j.triggerRS(), 27); // target register
    EXPECT_EQ(j.triggerRD(), 26); // link
}

TEST(Roles, ZeroRegWritesDiscarded)
{
    const DecodedInst op = decode(makeOperate(Opcode::ADDQ, 1, 2, 31));
    EXPECT_FALSE(op.writesReg());
}

/**
 * The oracle for destReg()/srcRegList(): each instruction's registers
 * derived from its opcode's encoding format rather than from its class.
 */
RegIndex
formatDestReg(const DecodedInst &inst)
{
    // Raw words whose opcode bits name a fused internal op decode to
    // cls Invalid with unparsed fields; only synthesized fused insts
    // carry a real class.
    if (inst.cls == OpClass::Invalid)
        return kZeroReg;
    switch (opInfo(inst.op).format) {
      case InstFormat::Memory:
        if (inst.cls == OpClass::Store)
            return inst.op == Opcode::FLDAS ? inst.rc : kZeroReg;
        return inst.ra;
      case InstFormat::Branch:
        // Conditional branches read ra; BR/BSR link through ra. DISE
        // branches read ra and write nothing.
        if (inst.cls == OpClass::UncondBranch || inst.cls == OpClass::Call)
            return inst.ra;
        return kZeroReg;
      case InstFormat::Jump:
        return inst.ra;
      case InstFormat::Operate:
        return inst.rc;
      default:
        return kZeroReg;
    }
}

SrcRegList
formatSrcRegList(const DecodedInst &inst)
{
    SrcRegList srcs;
    if (inst.cls == OpClass::Invalid)
        return srcs;
    switch (opInfo(inst.op).format) {
      case InstFormat::Memory:
        srcs.push(inst.rb);
        if (inst.cls == OpClass::Store)
            srcs.push(inst.ra);
        if (inst.op == Opcode::FLDOP)
            srcs.push(inst.rc);
        break;
      case InstFormat::Branch:
        if (inst.cls == OpClass::CondBranch ||
            inst.cls == OpClass::DiseBranch)
            srcs.push(inst.ra);
        break;
      case InstFormat::Jump:
        srcs.push(inst.rb);
        break;
      case InstFormat::Operate:
        srcs.push(inst.ra);
        if (!inst.useLit)
            srcs.push(inst.rb);
        if (inst.op == Opcode::CMOVEQ || inst.op == Opcode::CMOVNE)
            srcs.push(inst.rc);
        break;
      case InstFormat::Syscall:
        srcs.push(kRetReg);
        srcs.push(kArg0Reg);
        srcs.push(static_cast<RegIndex>(kArg0Reg + 1));
        break;
      default:
        break;
    }
    return srcs;
}

void
expectFormatRegs(const DecodedInst &inst, const std::string &what)
{
    ASSERT_EQ(inst.destReg(), formatDestReg(inst)) << what;
    const SrcRegList want = formatSrcRegList(inst);
    const SrcRegList got = inst.srcRegList();
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t s = 0; s < want.size(); ++s)
        ASSERT_EQ(got.regs[s], want.regs[s]) << what << " src " << s;
}

TEST(Roles, DependencesMatchFormatOracleExhaustively)
{
    // Every primary opcode with a dense pattern of operand fields
    // (registers, literal bit, function codes)...
    uint64_t lcg = 0x2545F4914F6CDD1Dull;
    uint64_t checked = 0;
    for (uint32_t op6 = 0; op6 < 64; ++op6) {
        for (uint32_t k = 0; k < 4096; ++k) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const Word w = (op6 << 26) | (Word(lcg >> 32) & 0x03ffffffu);
            expectFormatRegs(decode(w), strFormat("word 0x%08x", w));
            ++checked;
        }
    }
    EXPECT_EQ(checked, 64u * 4096u);

    // ...and the fused ops, which no word decodes to: the fusion ACF
    // synthesizes them with their table class.
    for (unsigned op = unsigned(Opcode::FCMPBR);
         op <= unsigned(Opcode::FLDOP); ++op) {
        for (uint32_t k = 0; k < 4096; ++k) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            DecodedInst inst;
            inst.op = Opcode(op);
            inst.cls = opInfo(inst.op).cls;
            inst.ra = RegIndex((lcg >> 20) % kNumLogicalRegs);
            inst.rb = RegIndex((lcg >> 30) % kNumLogicalRegs);
            inst.rc = RegIndex((lcg >> 40) % kNumLogicalRegs);
            inst.useLit = (lcg >> 50) & 1;
            expectFormatRegs(inst, strFormat("%s #%u", opName(inst.op),
                                             unsigned(k)));
        }
    }
}

TEST(Roles, BranchTarget)
{
    const DecodedInst b = decode(makeBranch(Opcode::BEQ, 1, -2));
    EXPECT_EQ(b.branchTarget(0x1000), 0x1000u + 4 - 8);
}

TEST(Disasm, Formats)
{
    EXPECT_EQ(disassemble(makeMemory(Opcode::LDQ, 16, 30, 8)),
              "ldq a0, 8(sp)");
    EXPECT_EQ(disassemble(makeOperate(Opcode::ADDQ, 1, 2, 3)),
              "addq t0, t1, t2");
    EXPECT_EQ(disassemble(makeOperateImm(Opcode::SRL, 1, 26, 2)),
              "srl t0, #26, t1");
    EXPECT_EQ(disassemble(makeJump(Opcode::RET, 31, 26)),
              "ret zero, (ra)");
    EXPECT_EQ(disassemble(makeSyscall()), "syscall");
    EXPECT_EQ(disassemble(makeNop()), "nop");
}

TEST(Disasm, BranchTargets)
{
    const Word w = makeBranch(Opcode::BNE, 1, 3);
    EXPECT_EQ(disassemble(w), "bne t0, .+3");
    EXPECT_EQ(disassemble(w, 0x1000), "bne t0, 0x1010");
}

TEST(Disasm, InvalidWord)
{
    const Word w = static_cast<Word>(0x3fu << 26);
    EXPECT_NE(disassemble(w).find("invalid"), std::string::npos);
}

} // namespace
} // namespace dise
