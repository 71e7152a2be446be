/**
 * @file
 * Assembler and program-image tests: directives, labels, pseudo
 * instructions, branch resolution, error reporting, and basic-block
 * analysis.
 */

#include <gtest/gtest.h>

#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/isa/disasm.hpp"

namespace dise {
namespace {

TEST(Assembler, MinimalProgram)
{
    const Program prog = assemble(".text\nmain:\n    nop\n    syscall\n");
    ASSERT_EQ(prog.text.size(), 2u);
    EXPECT_EQ(prog.entry, prog.textBase);
    EXPECT_TRUE(decode(prog.text[0]).isNop());
    EXPECT_EQ(decode(prog.text[1]).cls, OpClass::Syscall);
}

TEST(Assembler, EntryDefaultsToTextStartWithoutMain)
{
    const Program prog = assemble(".text\nstart:\n    nop\n");
    EXPECT_EQ(prog.entry, prog.textBase);
}

TEST(Assembler, MainSymbolSetsEntry)
{
    const Program prog =
        assemble(".text\n    nop\nmain:\n    nop\n");
    EXPECT_EQ(prog.entry, prog.textBase + 4);
}

TEST(Assembler, MemoryOperands)
{
    const Program prog = assemble(
        ".text\n    ldq a0, -8(sp)\n    stq a1, 16(t0)\n    ldbu v0, 0(a0)\n");
    const DecodedInst ld = decode(prog.text[0]);
    EXPECT_EQ(ld.op, Opcode::LDQ);
    EXPECT_EQ(ld.ra, 16);
    EXPECT_EQ(ld.rb, kSpReg);
    EXPECT_EQ(ld.imm, -8);
    EXPECT_EQ(decode(prog.text[1]).op, Opcode::STQ);
    EXPECT_EQ(decode(prog.text[2]).op, Opcode::LDBU);
}

TEST(Assembler, OperateLiteralWithAndWithoutHash)
{
    const Program prog =
        assemble(".text\n    addq t0, #5, t1\n    addq t0, 5, t1\n");
    EXPECT_EQ(prog.text[0], prog.text[1]);
    EXPECT_TRUE(decode(prog.text[0]).useLit);
}

TEST(Assembler, BranchToLabelForwardAndBackward)
{
    const Program prog = assemble(
        ".text\n"
        "top:\n"
        "    nop\n"
        "    beq t0, done\n"
        "    br zero, top\n"
        "done:\n"
        "    nop\n");
    const DecodedInst beq = decode(prog.text[1]);
    const Addr beqPC = prog.textBase + 4;
    EXPECT_EQ(beq.branchTarget(beqPC), prog.symbol("done"));
    const DecodedInst br = decode(prog.text[2]);
    EXPECT_EQ(br.branchTarget(prog.textBase + 8), prog.symbol("top"));
}

TEST(Assembler, RelativeBranchTarget)
{
    const Program prog = assemble(".text\n    br zero, .+3\n");
    EXPECT_EQ(decode(prog.text[0]).imm, 3);
}

TEST(Assembler, JumpForms)
{
    const Program prog =
        assemble(".text\n    jsr ra, (t12)\n    ret zero, (ra)\n    ret\n");
    EXPECT_EQ(decode(prog.text[0]).op, Opcode::JSR);
    EXPECT_EQ(decode(prog.text[0]).rb, 27);
    EXPECT_EQ(prog.text[1], prog.text[2]); // 'ret' expands to ret zero,(ra)
}

TEST(Assembler, PseudoMov)
{
    const Program prog = assemble(".text\n    mov t0, t3\n");
    const DecodedInst inst = decode(prog.text[0]);
    EXPECT_EQ(inst.op, Opcode::OR);
    EXPECT_EQ(inst.ra, 1);
    EXPECT_EQ(inst.rb, kZeroReg);
    EXPECT_EQ(inst.rc, 4);
}

TEST(Assembler, PseudoLiMaterializesConstants)
{
    for (const int64_t v :
         {0l, 1l, -1l, 32767l, -32768l, 65536l, 0x12345678l, -1000000l}) {
        const Program prog =
            assemble(strFormat(".text\n    li %lld, t0\n", (long long)v));
        ASSERT_EQ(prog.text.size(), 2u);
        // Interpret: ldah t0, hi(zero); lda t0, lo(t0).
        const DecodedInst hi = decode(prog.text[0]);
        const DecodedInst lo = decode(prog.text[1]);
        const int64_t value = (hi.imm << 16) + lo.imm;
        EXPECT_EQ(value, v) << v;
    }
}

TEST(Assembler, PseudoLaqResolvesSymbols)
{
    const Program prog = assemble(
        ".text\n    laq arr+16, t0\n    nop\n.data\narr:\n    .quad 0\n");
    const DecodedInst hi = decode(prog.text[0]);
    const DecodedInst lo = decode(prog.text[1]);
    EXPECT_EQ(static_cast<Addr>((hi.imm << 16) + lo.imm),
              prog.symbol("arr") + 16);
}

TEST(Assembler, PseudoCall)
{
    const Program prog =
        assemble(".text\nmain:\n    call f\nf:\n    ret\n");
    const DecodedInst call = decode(prog.text[0]);
    EXPECT_EQ(call.op, Opcode::BSR);
    EXPECT_EQ(call.ra, kRaReg);
    EXPECT_EQ(call.branchTarget(prog.textBase), prog.symbol("f"));
}

TEST(Assembler, DataDirectives)
{
    const Program prog = assemble(
        ".text\n    nop\n"
        ".data\n"
        "a:\n    .quad 1, -1\n"
        "b:\n    .long 258\n"
        "c:\n    .byte 1, 2, 3\n"
        "d:\n    .asciiz \"hi\"\n"
        "e:\n    .align 8\n    .space 16\n");
    EXPECT_EQ(prog.symbol("a"), prog.dataBase);
    EXPECT_EQ(prog.symbol("b"), prog.dataBase + 16);
    EXPECT_EQ(prog.symbol("c"), prog.dataBase + 20);
    EXPECT_EQ(prog.symbol("d"), prog.dataBase + 23);
    // 'e' is at 26, alignment pads to 32.
    EXPECT_EQ(prog.data.size(), 32u + 16u);
    // Little-endian quad of -1.
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(prog.data[i], 0xff);
    EXPECT_EQ(prog.data[16], 2); // 258 = 0x102
    EXPECT_EQ(prog.data[17], 1);
    EXPECT_EQ(prog.data[20], 1);
    EXPECT_EQ(prog.data[23], 'h');
    EXPECT_EQ(prog.data[25], 0); // NUL
}

TEST(Assembler, QuadWithSymbolArithmetic)
{
    const Program prog = assemble(
        ".text\n    nop\n.data\nx:\n    .quad x+8\ny:\n    .quad 0\n");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= uint64_t(prog.data[i]) << (8 * i);
    EXPECT_EQ(value, prog.symbol("y"));
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble(
        ".text\n"
        "; full comment\n"
        "    nop ; trailing\n"
        "\n"
        "    nop // another\n");
    EXPECT_EQ(prog.text.size(), 2u);
}

TEST(Assembler, Codeword)
{
    const Program prog = assemble(".text\n    res0 17, 1, 2, 3\n");
    const DecodedInst cw = decode(prog.text[0]);
    EXPECT_EQ(cw.tag, 17);
    EXPECT_EQ(cw.ra, 1);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble(".text\n    bogus t0\n"), FatalError);
}

TEST(AssemblerErrors, UnknownSymbol)
{
    EXPECT_THROW(assemble(".text\n    beq t0, nowhere\n"), FatalError);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    EXPECT_THROW(assemble(".text\nx:\n    nop\nx:\n    nop\n"),
                 FatalError);
}

TEST(AssemblerErrors, DedicatedRegisterRejected)
{
    EXPECT_THROW(assemble(".text\n    addq $dr1, t0, t1\n"), FatalError);
}

TEST(AssemblerErrors, DiseBranchRejected)
{
    EXPECT_THROW(assemble(".text\n    dbeq t0, done\ndone:\n    nop\n"),
                 FatalError);
}

TEST(AssemblerErrors, LiteralOutOfRange)
{
    EXPECT_THROW(assemble(".text\n    addq t0, 256, t1\n"), FatalError);
}

/** The FatalError message @p source raises (empty when none). */
std::string
asmErrorOf(const std::string &source)
{
    try {
        assemble(source);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AssemblerErrors, MemoryDisplacementOutOfRange)
{
    // A FatalError naming the line, not an encoder assertion.
    const std::string msg =
        asmErrorOf(".text\nmain: lda $1, 99999999999($31)\n");
    EXPECT_NE(msg.find("asm line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("displacement"), std::string::npos) << msg;
    EXPECT_FALSE(
        asmErrorOf(".text\n    ldq t0, -32769(t1)\n").empty());
    EXPECT_FALSE(asmErrorOf(".text\n    stq t0, 32768(t1)\n").empty());
    // The edges still assemble.
    EXPECT_NO_THROW(assemble(".text\n    ldq t0, -32768(t1)\n"
                             "    stq t0, 32767(t1)\n"));
}

TEST(AssemblerErrors, LoadImmediateOutOfRange)
{
    const std::string msg =
        asmErrorOf(".text\nmain:\n    li 0x7fffffffffffffff, t0\n");
    EXPECT_NE(msg.find("asm line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("li immediate"), std::string::npos) << msg;
    EXPECT_FALSE(asmErrorOf(".text\n    li 2147450880, t0\n").empty());
    EXPECT_FALSE(asmErrorOf(".text\n    li -2147516417, t0\n").empty());
    EXPECT_FALSE(
        asmErrorOf(".text\n    li -9223372036854775808, t0\n").empty());
    // Wider than 64 bits: rejected, not wrapped into range.
    EXPECT_FALSE(
        asmErrorOf(".text\n    li 18446744073709551617, t0\n").empty());
    EXPECT_FALSE(
        asmErrorOf(".text\n    ldq t0, 0x10000000000000000(t1)\n")
            .empty());
    // The representable extremes of the ldah/lda pair.
    EXPECT_NO_THROW(assemble(".text\n    li 2147450879, t0\n"
                             "    li -2147516416, t1\n"));
}

TEST(AssemblerErrors, BranchDisplacementOutOfRange)
{
    EXPECT_FALSE(asmErrorOf(".text\n    br zero, .+4194304\n").empty());
    EXPECT_NO_THROW(assemble(".text\n    br zero, .+1048575\n"));
}

TEST(AssemblerErrors, CodewordFieldsOutOfRange)
{
    EXPECT_FALSE(asmErrorOf(".text\n    res0 2048, 0, 0, 0\n").empty());
    EXPECT_FALSE(asmErrorOf(".text\n    res0 1, 32, 0, 0\n").empty());
    EXPECT_NO_THROW(assemble(".text\n    res0 2047, 31, 31, 31\n"));
}

TEST(AssemblerErrors, DataDirectiveInText)
{
    EXPECT_THROW(assemble(".text\n    .quad 1\n"), FatalError);
}

TEST(AssemblerErrors, InstructionInData)
{
    EXPECT_THROW(assemble(".data\n    nop\n"), FatalError);
}

TEST(Program, FetchAndBounds)
{
    const Program prog = assemble(".text\n    nop\n    syscall\n");
    EXPECT_EQ(prog.fetch(prog.textBase + 4), prog.text[1]);
    EXPECT_TRUE(prog.inText(prog.textBase));
    EXPECT_FALSE(prog.inText(prog.textBase + 8));
    EXPECT_FALSE(prog.inText(prog.textBase + 1)); // misaligned
    EXPECT_EQ(prog.textBytes(), 8u);
}

TEST(Program, SegmentIds)
{
    const Program prog = assemble(".text\n    nop\n");
    EXPECT_EQ(prog.dataSegment(), 2u);
    EXPECT_EQ(prog.textBase >> kSegmentShift, 1u);
    EXPECT_EQ(prog.stackTop >> kSegmentShift, prog.dataSegment());
}

TEST(BasicBlocks, LeadersFromBranchesAndSymbols)
{
    const Program prog = assemble(
        ".text\n"
        "main:\n"
        "    nop\n"          // 0: leader (entry)
        "    nop\n"          // 1
        "    beq t0, skip\n" // 2
        "    nop\n"          // 3: leader (fall-through)
        "skip:\n"
        "    nop\n"          // 4: leader (target + symbol)
        "    ret\n"          // 5
        "after:\n"
        "    nop\n");        // 6: leader (symbol + post-control)
    const BasicBlocks bb = analyzeBasicBlocks(prog);
    EXPECT_TRUE(bb.leader[0]);
    EXPECT_FALSE(bb.leader[1]);
    EXPECT_FALSE(bb.leader[2]);
    EXPECT_TRUE(bb.leader[3]);
    EXPECT_TRUE(bb.leader[4]);
    EXPECT_FALSE(bb.leader[5]);
    EXPECT_TRUE(bb.leader[6]);
    ASSERT_EQ(bb.blocks.size(), 4u);
    EXPECT_EQ(bb.blocks[0], (std::pair<uint32_t, uint32_t>{0, 3}));
    EXPECT_EQ(bb.blocks[3], (std::pair<uint32_t, uint32_t>{6, 7}));
}

TEST(BasicBlocks, EmptyProgram)
{
    Program prog;
    const BasicBlocks bb = analyzeBasicBlocks(prog);
    EXPECT_TRUE(bb.blocks.empty());
}

TEST(Disasm, AssemblerRoundTrip)
{
    // Disassembled text re-assembles to the same words.
    const char *src = ".text\n"
                      "    ldq a0, 8(sp)\n"
                      "    addq a0, #5, v0\n"
                      "    mulq t0, t1, t2\n"
                      "    stq v0, -16(sp)\n"
                      "    ret zero, (ra)\n";
    const Program prog = assemble(src);
    std::string round = ".text\n";
    for (const Word w : prog.text)
        round += "    " + disassemble(w) + "\n";
    const Program again = assemble(round);
    EXPECT_EQ(prog.text, again.text);
}

} // namespace
} // namespace dise
