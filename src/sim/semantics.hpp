/**
 * @file
 * One definition per opcode: the integer semantics every interpreter
 * tier of ExecCore executes.
 *
 * Each list below is an X-macro. A tier instantiates it with its own
 * X to generate its cases, so an expression is written here once and
 * nowhere else:
 *  - ExecCore::execute() (the step() path) expands each list into
 *    switch cases over Opcode;
 *  - the translated interpreters (runChain over blocks, runSeqFast over
 *    memoized replacement sequences) expand them into handler labels,
 *    each with its expression as a compile-time constant, and the
 *    OpHandler enum and the label tables come from the same lists, so
 *    their order cannot drift;
 *  - the fused ops (FCMPBR's compare, FLDOP's ALU op) reach the ALU
 *    list through aluResult(), since their opcode is a runtime tag.
 *
 * In every expression vA is register ra and vB is register rb or the
 * literal; for the address ops, base is register rb and disp the
 * sign-extended displacement. All are uint64_t.
 */

#ifndef DISE_SIM_SEMANTICS_HPP
#define DISE_SIM_SEMANTICS_HPP

#include <cstdint>

#include "src/common/bits.hpp"
#include "src/isa/opcodes.hpp"
#include "src/mem/memory.hpp"

/** Operate-format ALU ops, X(Handler, Opcode, result): rc <- result. */
#define DISE_ALU_OPS(X)                                                     \
    X(Addq, ADDQ, vA + vB)                                                  \
    X(Subq, SUBQ, vA - vB)                                                  \
    X(Mulq, MULQ, vA * vB)                                                  \
    X(And, AND, vA & vB)                                                    \
    X(Bic, BIC, vA & ~vB)                                                   \
    X(Or, OR, vA | vB)                                                      \
    X(Ornot, ORNOT, vA | ~vB)                                               \
    X(Xor, XOR, vA ^ vB)                                                    \
    X(Sll, SLL, vA << (vB & 63))                                            \
    X(Srl, SRL, vA >> (vB & 63))                                            \
    X(Sra, SRA,                                                             \
      static_cast<uint64_t>(static_cast<int64_t>(vA) >> (vB & 63)))         \
    X(Cmpeq, CMPEQ, uint64_t(vA == vB))                                     \
    X(Cmplt, CMPLT,                                                         \
      uint64_t(static_cast<int64_t>(vA) < static_cast<int64_t>(vB)))        \
    X(Cmple, CMPLE,                                                         \
      uint64_t(static_cast<int64_t>(vA) <= static_cast<int64_t>(vB)))       \
    X(Cmpult, CMPULT, uint64_t(vA < vB))                                    \
    X(Cmpule, CMPULE, uint64_t(vA <= vB))

/** Conditional moves, X(Handler, Opcode, cond): rc <- vB if cond. */
#define DISE_CMOV_OPS(X)                                                    \
    X(Cmoveq, CMOVEQ, vA == 0)                                              \
    X(Cmovne, CMOVNE, vA != 0)

/** Address arithmetic, X(Handler, Opcode, result): ra <- result. */
#define DISE_ADDR_OPS(X)                                                    \
    X(Lda, LDA, base + disp)                                                \
    X(Ldah, LDAH, base + (disp << 16))

/** Loads, X(Handler, Opcode): ra <- loadValue(mem, Opcode, rb + disp). */
#define DISE_LOAD_OPS(X)                                                    \
    X(Ldbu, LDBU)                                                           \
    X(Ldl, LDL)                                                             \
    X(Ldq, LDQ)

namespace dise {

/** ALU result of @p op, for callers whose opcode is a runtime value. */
inline uint64_t
aluResult(Opcode op, uint64_t vA, uint64_t vB)
{
    switch (op) {
#define DISE_ALU_RESULT_CASE(name, OP, expr)                                \
      case Opcode::OP: return expr;
      DISE_ALU_OPS(DISE_ALU_RESULT_CASE)
#undef DISE_ALU_RESULT_CASE
      default: return 0; // not an ALU op; callers never pass one
    }
}

/** The widened value load @p op reads at @p addr (LDBU zero-extends a
 *  byte, LDL sign-extends a longword, LDQ reads a quadword). */
inline uint64_t
loadValue(const Memory &mem, Opcode op, Addr addr)
{
    switch (op) {
      case Opcode::LDBU: return mem.read(addr, 1);
      case Opcode::LDL:
        return static_cast<uint64_t>(signExtend(mem.read(addr, 4), 32));
      default: return mem.read(addr, 8);
    }
}

/** Access width in bytes of store @p op (STB, STL, STQ). */
inline unsigned
storeSize(Opcode op)
{
    return op == Opcode::STB ? 1 : (op == Opcode::STL ? 4 : 8);
}

} // namespace dise

#endif // DISE_SIM_SEMANTICS_HPP
