/**
 * @file
 * Architectural core tests: per-opcode semantics, syscalls, and the
 * replacement-sequence execution model (DISEPC tagging, DISE-internal
 * branches, trigger vs non-trigger application branches, dedicated
 * registers).
 */

#include <gtest/gtest.h>

#include "src/common/logging.hpp"
#include "src/assembler/assembler.hpp"
#include "src/dise/parser.hpp"
#include "src/sim/core.hpp"

namespace dise {
namespace {

/** Assemble, run to completion, return the core for inspection. */
RunResult
runAsm(const std::string &body, std::string *output = nullptr)
{
    const Program prog = assemble(".text\nmain:\n" + body +
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n");
    ExecCore core(prog);
    RunResult result = core.run(100000);
    if (output)
        *output = result.output;
    return result;
}

/** Run and return a register value at exit (via PutInt of the reg). */
int64_t
evalReg(const std::string &body, const std::string &reg)
{
    std::string out;
    runAsm(body + "    mov " + reg + ", a0\n    li 2, v0\n    syscall\n",
           &out);
    return std::stoll(out);
}

TEST(Exec, ArithmeticBasics)
{
    EXPECT_EQ(evalReg("    li 7, t0\n    addq t0, 5, t1\n", "t1"), 12);
    EXPECT_EQ(evalReg("    li 7, t0\n    subq t0, 9, t1\n", "t1"), -2);
    EXPECT_EQ(evalReg("    li 7, t0\n    mulq t0, 6, t1\n", "t1"), 42);
}

TEST(Exec, LogicAndShifts)
{
    EXPECT_EQ(evalReg("    li 12, t0\n    and t0, 10, t1\n", "t1"), 8);
    EXPECT_EQ(evalReg("    li 12, t0\n    or t0, 3, t1\n", "t1"), 15);
    EXPECT_EQ(evalReg("    li 12, t0\n    xor t0, 10, t1\n", "t1"), 6);
    EXPECT_EQ(evalReg("    li 12, t0\n    bic t0, 4, t1\n", "t1"), 8);
    EXPECT_EQ(evalReg("    li 1, t0\n    sll t0, 10, t1\n", "t1"), 1024);
    EXPECT_EQ(evalReg("    li 1024, t0\n    srl t0, 3, t1\n", "t1"), 128);
    EXPECT_EQ(evalReg("    li -16, t0\n    sra t0, 2, t1\n", "t1"), -4);
    EXPECT_EQ(evalReg("    li -16, t0\n    srl t0, 60, t1\n", "t1"), 15);
}

TEST(Exec, Comparisons)
{
    EXPECT_EQ(evalReg("    li -1, t0\n    cmplt t0, 0, t1\n", "t1"), 1);
    EXPECT_EQ(evalReg("    li -1, t0\n    cmpult t0, 0, t1\n", "t1"), 0);
    EXPECT_EQ(evalReg("    li 5, t0\n    cmple t0, 5, t1\n", "t1"), 1);
    EXPECT_EQ(evalReg("    li 5, t0\n    cmpeq t0, 5, t1\n", "t1"), 1);
    EXPECT_EQ(evalReg("    li 5, t0\n    cmpule t0, 4, t1\n", "t1"), 0);
}

TEST(Exec, ConditionalMoves)
{
    EXPECT_EQ(evalReg("    li 0, t0\n    li 9, t1\n    li 1, t2\n"
                      "    cmoveq t0, t1, t2\n",
                      "t2"),
              9);
    EXPECT_EQ(evalReg("    li 3, t0\n    li 9, t1\n    li 1, t2\n"
                      "    cmovne t0, t1, t2\n",
                      "t2"),
              9);
    EXPECT_EQ(evalReg("    li 3, t0\n    li 9, t1\n    li 1, t2\n"
                      "    cmoveq t0, t1, t2\n",
                      "t2"),
              1);
}

TEST(Exec, ZeroRegisterSemantics)
{
    EXPECT_EQ(evalReg("    addq zero, 5, zero\n    mov zero, t0\n",
                      "t0"),
              0);
}

TEST(Exec, LdaLdah)
{
    EXPECT_EQ(evalReg("    lda t0, 100(zero)\n", "t0"), 100);
    EXPECT_EQ(evalReg("    ldah t0, 2(zero)\n", "t0"), 131072);
    EXPECT_EQ(evalReg("    lda t0, -1(zero)\n", "t0"), -1);
}

TEST(Exec, LoadsAndStores)
{
    const std::string setup = "    laq buf, t5\n";
    const std::string data = ".data\nbuf:\n    .quad 0\n    .quad 0\n";
    const Program prog = assemble(
        ".text\nmain:\n" + setup +
        "    li -2, t0\n"
        "    stq t0, 0(t5)\n"
        "    ldl t1, 0(t5)\n"    // low 32 bits sign-extended
        "    ldbu t2, 0(t5)\n"   // low byte zero-extended
        "    stb t0, 8(t5)\n"
        "    ldq t3, 8(t5)\n"
        "    mov t1, a0\n    li 2, v0\n    syscall\n"
        "    li 1, v0\n    mov t2, a0\n    syscall\n"
        "    li 1, v0\n    li 10, a0\n    syscall\n"
        "    li 0, v0\n    li 0, a0\n    syscall\n" +
        data);
    ExecCore core(prog);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.output.substr(0, 2), "-2");
    EXPECT_EQ(core.memory().readQuad(prog.symbol("buf")),
              static_cast<uint64_t>(-2));
    EXPECT_EQ(core.memory().readQuad(prog.symbol("buf") + 8), 0xfeu);
    EXPECT_EQ(result.loads, 3u);
    EXPECT_EQ(result.stores, 2u);
}

TEST(Exec, BranchesAllConditions)
{
    // Each branch writes 1 to its slot if taken.
    const char *body =
        "    li -1, t0\n"
        "    li 0, t1\n"
        "    blt t0, L1\n"
        "    br zero, L2\n"
        "L1:\n"
        "    addq t1, 1, t1\n"
        "L2:\n"
        "    blbs t0, L3\n"
        "    br zero, L4\n"
        "L3:\n"
        "    addq t1, 2, t1\n"
        "L4:\n"
        "    bgt t0, L5\n"
        "    addq t1, 4, t1\n"
        "L5:\n";
    EXPECT_EQ(evalReg(body, "t1"), 1 + 2 + 4);
}

TEST(Exec, CallAndReturn)
{
    const char *body =
        "    call f\n"
        "    br zero, done\n"
        "f:\n"
        "    li 77, t0\n"
        "    ret\n"
        "done:\n";
    EXPECT_EQ(evalReg(body, "t0"), 77);
}

TEST(Exec, IndirectJumpThroughRegister)
{
    const Program prog = assemble(
        ".text\nmain:\n"
        "    laq target, t7\n"
        "    jmp zero, (t7)\n"
        "    li 1, t0\n" // skipped
        "target:\n"
        "    li 2, t0\n"
        "    mov t0, a0\n    li 2, v0\n    syscall\n"
        "    li 0, v0\n    li 0, a0\n    syscall\n");
    ExecCore core(prog);
    EXPECT_EQ(core.run(1000).output, "2");
}

TEST(Exec, SyscallBrk)
{
    const char *body = "    li 3, v0\n"
                       "    li 4096, a0\n"
                       "    syscall\n"
                       "    mov v0, t6\n";
    const int64_t brk = evalReg(body, "t6");
    EXPECT_GT(static_cast<uint64_t>(brk) >> kSegmentShift, 1u);
}

TEST(Exec, ExitCodePropagates)
{
    const Program prog =
        assemble(".text\nmain:\n    li 0, v0\n    li 42, a0\n    syscall\n");
    ExecCore core(prog);
    EXPECT_EQ(core.run(100).exitCode, 42);
}

TEST(Exec, UnknownSyscallTraps)
{
    const Program prog =
        assemble(".text\nmain:\n    li 99, v0\n    syscall\n");
    ExecCore core(prog);
    const RunResult result = core.run(100);
    EXPECT_EQ(result.outcome, RunOutcome::Trap);
    EXPECT_EQ(result.trap.cause, TrapCause::UnknownSyscall);
    EXPECT_EQ(result.trap.faultAddr, 99u);
    EXPECT_FALSE(result.exited);
    // The faulting syscall does not retire; only the preceding li
    // (a two-word pseudo-op) does.
    EXPECT_EQ(result.dynInsts, 2u);
    EXPECT_TRUE(core.trapped());
}

TEST(Exec, CodewordWithoutProductionsTraps)
{
    const Program prog =
        assemble(".text\nmain:\n    res0 1, 0, 0, 0\n");
    ExecCore core(prog);
    const RunResult result = core.run(100);
    EXPECT_EQ(result.outcome, RunOutcome::Trap);
    EXPECT_EQ(result.trap.cause, TrapCause::UnexpandedCodeword);
    EXPECT_EQ(result.trap.pc, prog.entry);
    EXPECT_EQ(result.trap.disepc, 0u);
}

TEST(Exec, RunawayPcTraps)
{
    const Program prog = assemble(".text\nmain:\n    nop\n");
    ExecCore core(prog);
    const RunResult result = core.run(100); // falls off the text end
    EXPECT_EQ(result.outcome, RunOutcome::Trap);
    EXPECT_EQ(result.trap.cause, TrapCause::PcOutOfText);
    EXPECT_EQ(result.trap.faultAddr, prog.textEnd());
    EXPECT_EQ(result.dynInsts, 1u); // the nop retired
}

TEST(Exec, StepAfterTrapReturnsFalse)
{
    const Program prog = assemble(".text\nmain:\n    nop\n");
    ExecCore core(prog);
    DynInst dyn;
    EXPECT_TRUE(core.step(dyn));  // the nop
    EXPECT_FALSE(core.step(dyn)); // trap: pc left text
    EXPECT_FALSE(core.step(dyn)); // stays halted
    EXPECT_TRUE(core.trapped());
    EXPECT_EQ(core.trap().cause, TrapCause::PcOutOfText);
}

TEST(Exec, InstructionCapYieldsHangOutcome)
{
    // An infinite loop stopped by the watchdog budget is a Hang, not an
    // error and not an exit.
    const Program prog =
        assemble(".text\nmain:\n    br zero, main\n");
    ExecCore core(prog);
    const RunResult result = core.run(50);
    EXPECT_EQ(result.outcome, RunOutcome::Hang);
    EXPECT_FALSE(result.exited);
    EXPECT_FALSE(core.trapped());
    EXPECT_EQ(result.dynInsts, 50u);
}

TEST(Exec, NormalExitHasExitOutcome)
{
    const Program prog =
        assemble(".text\nmain:\n    li 0, v0\n    li 0, a0\n    syscall\n");
    ExecCore core(prog);
    const RunResult result = core.run(100);
    EXPECT_EQ(result.outcome, RunOutcome::Exit);
    EXPECT_EQ(result.trap.cause, TrapCause::None);
    EXPECT_EQ(result.acfDetections, 0u);
}

// ---- Golden opcode values on every interpreter tier. ----
//
// All tiers instantiate the one opcode table (src/sim/semantics.hpp),
// so fast-vs-slow identity cannot catch a wrong expression there. The
// expected values below are written by hand; nothing under test
// computes them.

constexpr uint64_t kMin = uint64_t(1) << 63; // INT64_MIN
constexpr uint64_t kMax = kMin - 1;          // INT64_MAX
constexpr uint64_t kAll = ~uint64_t(0);      // -1
constexpr uint64_t kOld = 0x5a5a;            // destination before the op
constexpr uint64_t kHiLo = 0xff00ff00ff00ff00;
constexpr uint64_t kMid = 0x0ff00ff00ff00ff0;

/** `op t0, t1|#lit, dst` (ALU, cmov) or `op dst, 0(t5)` (load). */
struct GoldenCase
{
    const char *op;
    uint64_t a;      ///< t0 (loads: the quadword at t5)
    uint64_t b;      ///< t1; unused in the literal form
    int lit;         ///< >= 0: literal form with this 8-bit literal
    const char *dst;
    uint64_t expect; ///< dst afterwards
};

const GoldenCase kGolden[] = {
    {"addq", kMax, 1, -1, "t2", kMin},
    {"addq", kAll, 0, 1, "t2", 0},
    {"addq", 1, 2, -1, "zero", 0},
    {"subq", 0, 1, -1, "t2", kAll},
    {"subq", kMin, 0, 1, "t2", kMax},
    {"mulq", uint64_t(1) << 32, uint64_t(1) << 32, -1, "t2", 0},
    {"mulq", kAll, 0, 3, "t2", kAll - 2},
    {"and", kHiLo, kMid, -1, "t2", 0x0f000f000f000f00},
    {"and", kAll, 0, 0x81, "t2", 0x81},
    {"bic", kHiLo, kMid, -1, "t2", 0xf000f000f000f000},
    {"bic", kAll, 0, 0xff, "t2", 0xffffffffffffff00},
    {"or", kHiLo, kMid, -1, "t2", 0xfff0fff0fff0fff0},
    {"or", kMin, 0, 1, "t2", kMin + 1},
    {"ornot", 0, 0, -1, "t2", kAll},
    {"ornot", kMin, kAll, -1, "t2", kMin},
    {"ornot", 1, 0, 0xff, "t2", 0xffffffffffffff01},
    {"xor", kHiLo, kMid, -1, "t2", 0xf0f0f0f0f0f0f0f0},
    {"xor", kAll, 0, 0xff, "t2", 0xffffffffffffff00},
    // Shift counts 0, 63, 64 and 127: only the low six bits count.
    {"sll", kMin + 1, 0, -1, "t2", kMin + 1},
    {"sll", kMin + 1, 0, 63, "t2", kMin},
    {"sll", kMin + 1, 64, -1, "t2", kMin + 1},
    {"sll", kMin + 1, 0, 127, "t2", kMin},
    {"srl", kMin + 1, 0, 0, "t2", kMin + 1},
    {"srl", kMin + 1, 63, -1, "t2", 1},
    {"srl", kMin + 1, 0, 64, "t2", kMin + 1},
    {"srl", kMin + 1, 127, -1, "t2", 1},
    {"sra", kMin + 1, 0, -1, "t2", kMin + 1},
    {"sra", kMin + 1, 0, 63, "t2", kAll},
    {"sra", kMin + 1, 64, -1, "t2", kMin + 1},
    {"sra", kMin + 1, 127, -1, "t2", kAll},
    {"sra", kMax, 0, 127, "t2", 0},
    // INT64_MIN, -1 and 0 under signed and unsigned compares.
    {"cmpeq", kAll, kAll, -1, "t2", 1},
    {"cmpeq", 0, kMin, -1, "t2", 0},
    {"cmpeq", 7, 0, 7, "t2", 1},
    {"cmplt", kMin, kAll, -1, "t2", 1},
    {"cmplt", kAll, 0, -1, "t2", 1},
    {"cmplt", 0, kMin, -1, "t2", 0},
    {"cmplt", kAll, 0, 0, "t2", 1},
    {"cmplt", kAll, 0, -1, "zero", 0},
    {"cmple", kMin, kMin, -1, "t2", 1},
    {"cmple", kAll, kMin, -1, "t2", 0},
    {"cmple", 0, 0, 0, "t2", 1},
    {"cmpult", kMin, kAll, -1, "t2", 1},
    {"cmpult", kAll, 0, -1, "t2", 0},
    {"cmpult", 0, kMin, -1, "t2", 1},
    {"cmpult", kAll, 0, 255, "t2", 0},
    {"cmpule", kAll, kMin, -1, "t2", 0},
    {"cmpule", kMin, kMin, -1, "t2", 1},
    {"cmpule", 255, 0, 255, "t2", 1},
    // A failed conditional move leaves the destination as it was.
    {"cmoveq", 0, 9, -1, "t2", 9},
    {"cmoveq", kMin, 9, -1, "t2", kOld},
    {"cmoveq", 0, 0, 5, "t2", 5},
    {"cmoveq", 0, 9, -1, "zero", 0},
    {"cmovne", kAll, 9, -1, "t2", 9},
    {"cmovne", 0, 9, -1, "t2", kOld},
    {"cmovne", kMin, 0, 200, "t2", 200},
    // Loads of the little-endian quadword a.
    {"ldbu", 0x80000000ffffff80, 0, -1, "t2", 0x80},
    {"ldl", 0x80000000ffffff80, 0, -1, "t2", 0xffffffffffffff80},
    {"ldl", 0x000000017fffffff, 0, -1, "t2", 0x7fffffff},
    {"ldq", 0x80000000ffffff80, 0, -1, "t2", 0x80000000ffffff80},
    {"ldq", kMin, 0, -1, "zero", 0},
};

struct GoldenRun
{
    uint64_t dst = 0;
    RunResult result;
    uint64_t blocksTranslated = 0;
    uint64_t fusedPairs = 0;
};

/**
 * Run @p body (after `main:`) with t0 = @p t0, t1 = @p t1, t2 = kOld,
 * t3 = 2 (a loop count) and t5 pointing at a data quadword holding
 * @p mem; an identity @p production, when given, routes the op through
 * a replacement sequence.
 */
GoldenRun
runGolden(const std::string &body, const char *dst, uint64_t mem,
          uint64_t t0, uint64_t t1, bool traceCache, bool fusion = false,
          const std::string &production = "")
{
    const Program prog = assemble(".text\nmain:\n" + body +
                                  ".data\nbuf:\n    .quad 0\n");
    DiseController controller;
    if (!production.empty()) {
        controller.install(std::make_shared<ProductionSet>(
            parseProductions(production, prog.symbols)));
    }
    ExecCore core(prog, production.empty() ? nullptr : &controller);
    core.setTraceCacheEnabled(traceCache);
    core.setFusionEnabled(fusion);
    const Addr buf = prog.symbols.at("buf");
    core.memory().write(buf, mem, 8);
    const auto reg = [](const char *name) { return *regFromName(name); };
    core.setReg(reg("t0"), t0);
    core.setReg(reg("t1"), t1);
    core.setReg(reg("t2"), kOld);
    core.setReg(reg("t3"), 2);
    core.setReg(reg("t5"), buf);
    GoldenRun out;
    out.result = core.run(1000);
    out.dst = core.reg(reg(dst));
    out.blocksTranslated = core.traceCacheStats().blocksTranslated;
    out.fusedPairs = core.fusedPairs();
    return out;
}

TEST(Exec, GoldenOpcodeValuesOnEveryTier)
{
    for (const GoldenCase &c : kGolden) {
        const std::string op = c.op;
        const std::string src = c.lit >= 0 ? std::to_string(c.lit) : "t1";
        SCOPED_TRACE(op + " " + src + " -> " + c.dst);
        const bool load = op.rfind("ld", 0) == 0;
        const std::string inst =
            load ? "    " + op + " " + c.dst + ", 0(t5)\n"
                 : "    " + op + " t0, " + src + ", " + c.dst + "\n";
        // The op runs twice at one PC, so a covering production's
        // second instance takes the slot's expansion memo.
        const std::string loop = "loop:\n" + inst +
                                 "    subq t3, 1, t3\n"
                                 "    bne t3, loop\n"
                                 "    syscall\n";

        const GoldenRun slow = runGolden(loop, c.dst, c.a, c.a, c.b, false);
        EXPECT_EQ(slow.dst, c.expect) << "step(), trace cache off";
        EXPECT_EQ(slow.result.outcome, RunOutcome::Exit);

        const GoldenRun block = runGolden(loop, c.dst, c.a, c.a, c.b, true);
        EXPECT_EQ(block.dst, c.expect) << "translated block (runChain)";
        EXPECT_GT(block.blocksTranslated, 0u);

        const GoldenRun seq =
            runGolden(loop, c.dst, c.a, c.a, c.b, true, false,
                      "P1: op == " + op + " -> R1\nR1: T.INSN\n");
        EXPECT_EQ(seq.dst, c.expect) << "memoized sequence (runSeqFast)";
        EXPECT_GE(seq.result.expansions, 2u);

        // Fused forms, on both tiers (fusePair never fuses a pair
        // writing zero, nor MULQ or a cmov into a load).
        if (std::string(c.dst) != "t2")
            continue;
        const auto expectFused = [&](const std::string &body, uint64_t mem,
                                     uint64_t t0, uint64_t t1,
                                     const char *form, int exitCode) {
            for (const bool traceCache : {false, true}) {
                const GoldenRun f =
                    runGolden(body, "t2", mem, t0, t1, traceCache, true);
                const char *tier = traceCache ? "translated" : "step()";
                EXPECT_EQ(f.dst, c.expect) << form << ", " << tier;
                EXPECT_EQ(f.fusedPairs, 1u) << form << ", " << tier;
                EXPECT_EQ(f.result.exitCode, exitCode) << form;
            }
        };
        if (load) {
            expectFused("    lda t2, 0(t5)\n    " + op +
                            " t2, 0(t2)\n    syscall\n",
                        c.a, 0, 0, "FLDAL", 0);
            continue;
        }
        if (op != "mulq" && op.rfind("cmov", 0) != 0) {
            expectFused("    ldq t2, 0(t5)\n    " + op + " t2, " + src +
                            ", t2\n    syscall\n",
                        c.a, 0, c.b, "FLDOP", 0);
            if (c.lit < 0) {
                expectFused("    ldq t2, 0(t5)\n    " + op +
                                " t1, t2, t2\n    syscall\n",
                            c.b, 0, c.a, "FLDOP, swapped", 0);
            }
        }
        if (op.rfind("cmp", 0) == 0) {
            // Exit code 1 iff the fused branch saw a nonzero result.
            expectFused(inst + "    bne t2, taken\n    syscall\n"
                               "taken:\n    lda a0, 1(zero)\n"
                               "    syscall\n",
                        0, c.a, c.b, "FCMPBR", c.expect != 0 ? 1 : 0);
        }
    }
}

// ---- Replacement-sequence semantics. ----

/** A program with one load between markers, plus an error handler. */
Program
loadProgram()
{
    return assemble(".text\n"
                    "main:\n"
                    "    laq buf, t5\n"
                    "    ldq t0, 8(t5)\n"
                    "    mov t0, a0\n    li 2, v0\n    syscall\n"
                    "    li 0, v0\n    li 0, a0\n    syscall\n"
                    "error:\n"
                    "    li 0, v0\n    li 42, a0\n    syscall\n"
                    ".data\n"
                    "buf:\n    .quad 11, 22\n");
}

TEST(DiseExec, DisepcTagging)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @error\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    core.setDiseReg(2, prog.dataSegment());

    DynInst dyn;
    std::vector<uint32_t> disepcs;
    Addr loadPC = 0;
    while (core.step(dyn)) {
        if (dyn.expanded) {
            disepcs.push_back(dyn.disepc);
            loadPC = dyn.pc;
        } else {
            EXPECT_EQ(dyn.disepc, 0u);
        }
    }
    // Application instructions carry DISEPC 0; replacement instructions
    // are numbered from 1 and share the trigger's PC.
    EXPECT_EQ(disepcs, (std::vector<uint32_t>{1, 2, 3, 4}));
    EXPECT_EQ(loadPC, prog.textBase + 2 * 4); // after the 2-inst laq
    EXPECT_EQ(core.result().output, "22");
    EXPECT_EQ(core.result().exitCode, 0);
}

TEST(DiseExec, NonTriggerTakenBranchSquashesRest)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @error\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    core.setDiseReg(2, 999); // wrong segment: the check must fire
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.exitCode, 42);
    EXPECT_EQ(result.output, ""); // the load itself never executed
}

TEST(DiseExec, DiseBranchSkipsWithinSequence)
{
    Program prog = loadProgram();
    // dbne skips one instruction when $dr1 != 0.
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: lda $dr1, 1(zero)\n"
        "    dbne $dr1, +1\n"
        "    lda $dr2, 1($dr2)\n" // skipped
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(core.diseRegs()[2], 0u); // the skipped slot never ran
    EXPECT_EQ(result.output, "22");    // trigger still executed
}

TEST(DiseExec, DiseBranchToSequenceEnd)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: T.INSN\n"
        "    dbr zero, +1\n"
        "    lda $dr2, 1($dr2)\n" // unreachable... wait, +1 from slot 1
        "    lda $dr3, 1($dr3)\n",
        prog.symbols));
    // dbr at slot 1 jumps to slot 1+1+1 = 3, skipping the $dr2 bump.
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(core.diseRegs()[2], 0u);
    EXPECT_EQ(core.diseRegs()[3], 1u);
}

TEST(DiseExec, DiseBranchOutOfRangeTraps)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: dbr zero, +5\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.outcome, RunOutcome::Trap);
    EXPECT_EQ(result.trap.cause, TrapCause::DiseBranchOutOfRange);
    // The trap records the precise PC:DISEPC context of the fault.
    EXPECT_EQ(result.trap.pc, prog.textBase + 2 * 4); // the load trigger
    EXPECT_EQ(result.trap.disepc, 1u);                // first slot
    EXPECT_EQ(result.trap.faultAddr, 6u);             // target slot
}

TEST(DiseExec, TriggerBranchOutcomeDeferredToSequenceEnd)
{
    // Expand conditional branches into [count; T.INSN; count]: both
    // counters must tick even for a taken branch (post-branch slots ride
    // the predicted path), and the branch must still transfer control.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    li 1, t0\n"
                                  "    bne t0, target\n"
                                  "    li 0, v0\n    li 7, a0\n"
                                  "    syscall\n" // not reached
                                  "target:\n"
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n");
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == condbranch -> R1\n"
        "R1: lda $dr4, 1($dr4)\n"
        "    T.INSN\n"
        "    lda $dr5, 1($dr5)\n"));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.exitCode, 0); // branch taken to 'target'
    EXPECT_EQ(core.diseRegs()[4], 1u);
    EXPECT_EQ(core.diseRegs()[5], 1u); // post-branch slot executed
}

TEST(DiseExec, DedicatedRegistersInvisibleToApplication)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: lda $dr7, 123(zero)\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    core.run(1000);
    EXPECT_EQ(core.diseRegs()[7], 123u);
    // All 32 architectural registers are what the native run produces.
    // (The core keeps a reference to the program, so it must outlive it.)
    const Program nativeProg = loadProgram();
    ExecCore native(nativeProg);
    native.run(1000);
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.reg(r), native.reg(r)) << unsigned(r);
}

TEST(DiseExec, CountsSeparateAppAndDiseInsts)
{
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.expansions, 1u);
    EXPECT_EQ(result.diseInsts, 1u);
    const Program nativeProg = loadProgram();
    ExecCore native(nativeProg);
    const RunResult nres = native.run(1000);
    EXPECT_EQ(result.appInsts, nres.appInsts);
    EXPECT_EQ(result.dynInsts, nres.dynInsts + 1);
}

TEST(DiseExec, InternalLoopViaBackwardDiseBranch)
{
    // Replacement sequences may loop internally: a 4-iteration counted
    // loop built from DISE branches, invisible to the application.
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: lda $dr1, 4(zero)\n"
        "    lda $dr2, 1($dr2)\n"
        "    lda $dr1, -1($dr1)\n"
        "    dbne $dr1, -3\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    const RunResult result = core.run(1000);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(result.output, "22"); // the load still happened
    EXPECT_EQ(core.diseRegs()[2], 4u); // body ran 4 times
    // One expansion, dynamic length 1 + 4*3 + 1(T.INSN) = 14.
    EXPECT_EQ(result.expansions, 1u);
    EXPECT_EQ(result.diseInsts, 13u);
}

TEST(DiseExec, PreciseInterruptAndResumeMidSequence)
{
    // Stop between two replacement instructions, transfer the
    // architectural state to a fresh core (context switch), resume at
    // the saved PC:DISEPC, and get exactly the uninterrupted results.
    Program prog = loadProgram();
    const std::string dsl = "P1: class == load -> R1\n"
                            "R1: lda $dr1, 1($dr1)\n"
                            "    lda $dr2, 1($dr2)\n"
                            "    lda $dr3, 1($dr3)\n"
                            "    T.INSN\n";
    auto set = std::make_shared<ProductionSet>(
        parseProductions(dsl, prog.symbols));

    // Reference: uninterrupted run.
    DiseController refCtl;
    refCtl.install(set);
    ExecCore ref(prog, &refCtl);
    const RunResult rres = ref.run(1000);
    ASSERT_EQ(rres.exitCode, 0);

    // Interrupted run: stop after the second replacement instruction.
    DiseController ctlA;
    ctlA.install(set);
    ExecCore coreA(prog, &ctlA);
    DynInst dyn;
    while (coreA.step(dyn)) {
        if (dyn.expanded && dyn.disepc == 2)
            break;
    }
    const auto [savedPC, savedDisepc] = coreA.interruptPoint();
    EXPECT_EQ(savedDisepc, 3u); // next slot is the third

    // "Post-handler" core: fresh control, transferred state.
    DiseController ctlB;
    ctlB.install(set);
    ExecCore coreB(prog, &ctlB);
    coreB.copyArchStateFrom(coreA);
    coreB.resumeAt(savedPC, savedDisepc);
    const RunResult bres = coreB.run(1000);
    EXPECT_EQ(bres.exitCode, 0);
    EXPECT_EQ(bres.output, rres.output);
    // The skipped slots did NOT re-execute: every counter is exactly 1.
    EXPECT_EQ(coreB.diseRegs()[1], 1u);
    EXPECT_EQ(coreB.diseRegs()[2], 1u);
    EXPECT_EQ(coreB.diseRegs()[3], 1u);
    for (RegIndex r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(coreB.reg(r), ref.reg(r)) << unsigned(r);
}

TEST(DiseExec, ResumeAtApplicationBoundary)
{
    Program prog = loadProgram();
    ExecCore coreA(prog);
    DynInst dyn;
    for (int i = 0; i < 3; ++i)
        coreA.step(dyn);
    const auto [pc, disepc] = coreA.interruptPoint();
    EXPECT_EQ(disepc, 0u);

    ExecCore coreB(prog);
    coreB.copyArchStateFrom(coreA);
    coreB.resumeAt(pc, 0);
    const RunResult result = coreB.run(1000);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(result.output, "22");
}

TEST(DiseExec, DiseBranchInApplicationStreamTraps)
{
    Program prog;
    prog.text = {makeBranch(Opcode::DBR, kZeroReg, 0)};
    prog.entry = prog.textBase;
    ExecCore core(prog);
    const RunResult result = core.run(10);
    EXPECT_EQ(result.outcome, RunOutcome::Trap);
    EXPECT_EQ(result.trap.cause, TrapCause::DiseBranchInAppStream);
    EXPECT_EQ(result.dynInsts, 0u);
}

TEST(DiseExec, AcfDetectionCountsTransfersIntoErrorSymbol)
{
    // A branch into the "error" symbol is counted as an ACF detection;
    // a clean run of the same program counts zero.
    Program prog = loadProgram();
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: srl T.RS, #26, $dr1\n"
        "    cmpeq $dr1, $dr2, $dr1\n"
        "    beq $dr1, @error\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    core.setDiseReg(2, 999); // wrong segment id: the check fires
    const RunResult caught = core.run(1000);
    EXPECT_EQ(caught.acfDetections, 1u);
    EXPECT_EQ(caught.outcome, RunOutcome::Exit); // handler exits cleanly
    EXPECT_EQ(caught.exitCode, 42);

    DiseController cleanCtl;
    cleanCtl.install(set);
    const Program prog2 = loadProgram();
    ExecCore clean(prog2, &cleanCtl);
    clean.setDiseReg(2, prog2.dataSegment());
    EXPECT_EQ(clean.run(1000).acfDetections, 0u);
}

} // namespace
} // namespace dise
