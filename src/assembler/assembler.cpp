#include "src/assembler/assembler.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

/** One source line split into label / mnemonic / operand strings. */
struct SrcLine
{
    int number = 0;
    std::string label;
    std::string mnemonic;
    std::vector<std::string> operands;
    std::string stringArg; ///< for .ascii/.asciiz
    bool hasStringArg = false;
};

[[noreturn]] void
asmError(int line, const std::string &msg)
{
    fatal(strFormat("asm line %d: %s", line, msg.c_str()));
    abort(); // unreachable; fatal() throws
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strip comments, honouring string literals. */
std::string
stripComment(const std::string &line)
{
    bool inStr = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            inStr = !inStr;
        if (inStr)
            continue;
        if (c == ';')
            return line.substr(0, i);
        if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
            return line.substr(0, i);
    }
    return line;
}

/** Split operand text on commas at depth 0 (parens). */
std::vector<std::string>
splitOperands(const std::string &text)
{
    std::vector<std::string> ops;
    int depth = 0;
    std::string cur;
    for (const char c : text) {
        if (c == '(')
            ++depth;
        if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            ops.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    const std::string last = trim(cur);
    if (!last.empty())
        ops.push_back(last);
    return ops;
}

/** Parse a C-style escaped string literal body. */
std::string
parseStringLiteral(int line, const std::string &text)
{
    const std::string t = trim(text);
    if (t.size() < 2 || t.front() != '"' || t.back() != '"')
        asmError(line, "expected string literal");
    std::string out;
    for (size_t i = 1; i + 1 < t.size(); ++i) {
        char c = t[i];
        if (c == '\\' && i + 2 < t.size()) {
            ++i;
            switch (t[i]) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case '0': c = '\0'; break;
              case '\\': c = '\\'; break;
              case '"': c = '"'; break;
              default: asmError(line, "bad escape in string");
            }
        }
        out += c;
    }
    return out;
}

std::optional<int64_t>
parseNumber(const std::string &text)
{
    std::string t = trim(text);
    if (t.empty())
        return std::nullopt;
    if (t[0] == '#')
        t = t.substr(1);
    if (t.empty())
        return std::nullopt;
    bool neg = false;
    size_t i = 0;
    if (t[0] == '-' || t[0] == '+') {
        neg = t[0] == '-';
        i = 1;
    }
    if (i >= t.size())
        return std::nullopt;
    uint64_t value = 0;
    // Accumulate value * base + digit, rejecting literals wider than
    // 64 bits instead of silently wrapping.
    const auto accumulate = [&value](uint64_t base, uint64_t digit) {
        if (value > (~uint64_t(0) - digit) / base)
            return false;
        value = value * base + digit;
        return true;
    };
    if (t.size() > i + 1 && t[i] == '0' &&
        (t[i + 1] == 'x' || t[i + 1] == 'X')) {
        for (size_t j = i + 2; j < t.size(); ++j) {
            const char c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(t[j])));
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else
                return std::nullopt;
            if (!accumulate(16, static_cast<uint64_t>(digit)))
                return std::nullopt;
        }
        if (t.size() == i + 2)
            return std::nullopt;
    } else {
        for (size_t j = i; j < t.size(); ++j) {
            if (!std::isdigit(static_cast<unsigned char>(t[j])))
                return std::nullopt;
            if (!accumulate(10, static_cast<uint64_t>(t[j] - '0')))
                return std::nullopt;
        }
    }
    // Two's complement in unsigned: negating INT64_MIN is not UB here.
    return static_cast<int64_t>(neg ? 0 - value : value);
}

/** The assembler proper: two passes over pre-parsed lines. */
class Assembler
{
  public:
    explicit Assembler(const AsmOptions &opts) : opts_(opts) {}

    Program
    run(const std::string &source)
    {
        parseLines(source);
        layoutPass();
        emitPass();
        prog_.textBase = opts_.textBase;
        prog_.dataBase = opts_.dataBase;
        prog_.symbols = symbols_;
        const auto it = symbols_.find("main");
        prog_.entry = (it != symbols_.end()) ? it->second : opts_.textBase;
        return prog_;
    }

  private:
    enum class Section { Text, Data };

    void
    parseLines(const std::string &source)
    {
        std::istringstream is(source);
        std::string raw;
        int number = 0;
        while (std::getline(is, raw)) {
            ++number;
            std::string line = trim(stripComment(raw));
            // Peel off any leading labels (several may share a line).
            for (;;) {
                const size_t colon = line.find(':');
                if (colon == std::string::npos)
                    break;
                const std::string head = trim(line.substr(0, colon));
                if (head.empty() || head.find(' ') != std::string::npos ||
                    head.find('"') != std::string::npos) {
                    break;
                }
                SrcLine labelLine;
                labelLine.number = number;
                labelLine.label = head;
                lines_.push_back(labelLine);
                line = trim(line.substr(colon + 1));
            }
            if (line.empty())
                continue;
            SrcLine sl;
            sl.number = number;
            const size_t sp = line.find_first_of(" \t");
            sl.mnemonic = (sp == std::string::npos) ? line
                                                    : line.substr(0, sp);
            const std::string rest =
                (sp == std::string::npos) ? "" : trim(line.substr(sp + 1));
            if (sl.mnemonic == ".ascii" || sl.mnemonic == ".asciiz") {
                sl.stringArg = parseStringLiteral(number, rest);
                sl.hasStringArg = true;
            } else if (!rest.empty()) {
                sl.operands = splitOperands(rest);
            }
            lines_.push_back(sl);
        }
    }

    /** Instruction word count, fixed per mnemonic so labels resolve. */
    uint32_t
    instWords(const SrcLine &sl) const
    {
        if (sl.mnemonic == "li" || sl.mnemonic == "laq")
            return 2;
        return 1;
    }

    void
    layoutPass()
    {
        Section section = Section::Text;
        uint64_t textOff = 0;
        uint64_t dataOff = 0;
        for (const auto &sl : lines_) {
            if (!sl.label.empty()) {
                if (symbols_.count(sl.label))
                    asmError(sl.number, "duplicate label " + sl.label);
                symbols_[sl.label] = (section == Section::Text)
                                         ? opts_.textBase + textOff
                                         : opts_.dataBase + dataOff;
                continue;
            }
            if (sl.mnemonic == ".text") {
                section = Section::Text;
            } else if (sl.mnemonic == ".data") {
                section = Section::Data;
            } else if (sl.mnemonic[0] == '.') {
                if (section != Section::Data)
                    asmError(sl.number, "data directive outside .data");
                dataOff += directiveSize(sl, dataOff);
            } else {
                if (section != Section::Text)
                    asmError(sl.number, "instruction outside .text");
                textOff += instWords(sl) * 4ull;
            }
        }
    }

    uint64_t
    directiveSize(const SrcLine &sl, uint64_t dataOff) const
    {
        if (sl.mnemonic == ".quad")
            return sl.operands.size() * 8ull;
        if (sl.mnemonic == ".long")
            return sl.operands.size() * 4ull;
        if (sl.mnemonic == ".byte")
            return sl.operands.size();
        if (sl.mnemonic == ".ascii")
            return sl.stringArg.size();
        if (sl.mnemonic == ".asciiz")
            return sl.stringArg.size() + 1;
        if (sl.mnemonic == ".space") {
            const auto n = parseNumber(sl.operands.at(0));
            if (!n || *n < 0)
                asmError(sl.number, "bad .space size");
            return static_cast<uint64_t>(*n);
        }
        if (sl.mnemonic == ".align") {
            const auto n = parseNumber(sl.operands.at(0));
            if (!n || *n <= 0 || !isPow2(static_cast<uint64_t>(*n)))
                asmError(sl.number, "bad .align");
            const uint64_t a = static_cast<uint64_t>(*n);
            return (a - (dataOff % a)) % a;
        }
        asmError(sl.number, "unknown directive " + sl.mnemonic);
    }

    /** Resolve 'label', 'label+N', 'label-N', or a bare number. */
    int64_t
    resolveValue(const SrcLine &sl, const std::string &text) const
    {
        if (const auto num = parseNumber(text))
            return *num;
        std::string name = trim(text);
        int64_t offset = 0;
        const size_t plus = name.find_last_of("+-");
        if (plus != std::string::npos && plus > 0) {
            const auto off = parseNumber(name.substr(plus));
            if (off) {
                offset = *off;
                name = trim(name.substr(0, plus));
            }
        }
        const auto it = symbols_.find(name);
        if (it == symbols_.end())
            asmError(sl.number, "unknown symbol " + name);
        return static_cast<int64_t>(it->second) + offset;
    }

    RegIndex
    parseReg(const SrcLine &sl, const std::string &text) const
    {
        const auto r = regFromName(trim(text));
        if (!r)
            asmError(sl.number, "bad register " + text);
        if (!isArchReg(*r)) {
            asmError(sl.number,
                     "dedicated register " + text +
                         " is not encodable in application code");
        }
        return *r;
    }

    /** Parse 'disp(rb)' memory operands. */
    std::pair<int64_t, RegIndex>
    parseMemOperand(const SrcLine &sl, const std::string &text) const
    {
        const size_t open = text.find('(');
        const size_t close = text.rfind(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open) {
            asmError(sl.number, "bad memory operand " + text);
        }
        const std::string dispText = trim(text.substr(0, open));
        int64_t disp = 0;
        if (!dispText.empty()) {
            const auto n = parseNumber(dispText);
            if (!n)
                asmError(sl.number, "bad displacement " + dispText);
            disp = *n;
        }
        if (!fitsSigned(disp, 16)) {
            asmError(sl.number, "memory displacement " + dispText +
                                    " out of range (-32768..32767)");
        }
        const RegIndex rb =
            parseReg(sl, text.substr(open + 1, close - open - 1));
        return {disp, rb};
    }

    void
    expectOperands(const SrcLine &sl, size_t n) const
    {
        if (sl.operands.size() != n) {
            asmError(sl.number,
                     strFormat("%s expects %zu operands, got %zu",
                               sl.mnemonic.c_str(), n,
                               sl.operands.size()));
        }
    }

    void
    emitPass()
    {
        Section section = Section::Text;
        for (const auto &sl : lines_) {
            if (!sl.label.empty())
                continue;
            if (sl.mnemonic == ".text") {
                section = Section::Text;
            } else if (sl.mnemonic == ".data") {
                section = Section::Data;
            } else if (sl.mnemonic[0] == '.') {
                emitDirective(sl);
            } else if (section == Section::Text) {
                emitInstruction(sl);
            }
        }
    }

    void
    emitDirective(const SrcLine &sl)
    {
        auto &data = prog_.data;
        auto appendBytes = [&](uint64_t value, unsigned count) {
            for (unsigned i = 0; i < count; ++i)
                data.push_back(static_cast<uint8_t>(value >> (8 * i)));
        };
        if (sl.mnemonic == ".quad") {
            for (const auto &op : sl.operands)
                appendBytes(
                    static_cast<uint64_t>(resolveValue(sl, op)), 8);
        } else if (sl.mnemonic == ".long") {
            for (const auto &op : sl.operands)
                appendBytes(
                    static_cast<uint64_t>(resolveValue(sl, op)), 4);
        } else if (sl.mnemonic == ".byte") {
            for (const auto &op : sl.operands)
                appendBytes(
                    static_cast<uint64_t>(resolveValue(sl, op)), 1);
        } else if (sl.mnemonic == ".ascii" || sl.mnemonic == ".asciiz") {
            for (const char c : sl.stringArg)
                data.push_back(static_cast<uint8_t>(c));
            if (sl.mnemonic == ".asciiz")
                data.push_back(0);
        } else if (sl.mnemonic == ".space") {
            const auto n = parseNumber(sl.operands.at(0));
            data.insert(data.end(), static_cast<size_t>(*n), 0);
        } else if (sl.mnemonic == ".align") {
            const uint64_t a =
                static_cast<uint64_t>(*parseNumber(sl.operands.at(0)));
            while (data.size() % a != 0)
                data.push_back(0);
        }
    }

    /** Emit the ldah/lda pair that materializes a 32-bit constant. */
    void
    emitLoadImmediate(const SrcLine &sl, int64_t value, RegIndex rd)
    {
        const int64_t lo = signExtend(static_cast<uint64_t>(value), 16);
        // In unsigned: value - lo overflows int64 near its limits.
        const int64_t hi = static_cast<int64_t>(
                               static_cast<uint64_t>(value) -
                               static_cast<uint64_t>(lo)) >>
                           16;
        if (!fitsSigned(hi, 16)) {
            asmError(sl.number,
                     sl.mnemonic + " immediate " + trim(sl.operands[0]) +
                         " out of the ldah/lda range "
                         "(-2147516416..2147450879)");
        }
        // ldah rd, hi(zero); lda rd, lo(rd)  =>  rd = (hi << 16) + lo.
        prog_.text.push_back(makeMemory(Opcode::LDAH, rd, kZeroReg, hi));
        prog_.text.push_back(makeMemory(Opcode::LDA, rd, rd, lo));
    }

    void
    emitInstruction(const SrcLine &sl)
    {
        const Addr pc = opts_.textBase + prog_.text.size() * 4ull;
        const std::string &m = sl.mnemonic;

        // Pseudo-instructions first.
        if (m == "mov") {
            expectOperands(sl, 2);
            const RegIndex rs = parseReg(sl, sl.operands[0]);
            const RegIndex rd = parseReg(sl, sl.operands[1]);
            prog_.text.push_back(
                makeOperate(Opcode::OR, rs, kZeroReg, rd));
            return;
        }
        if (m == "li" || m == "laq") {
            expectOperands(sl, 2);
            const int64_t value = resolveValue(sl, sl.operands[0]);
            const RegIndex rd = parseReg(sl, sl.operands[1]);
            emitLoadImmediate(sl, value, rd);
            return;
        }
        if (m == "call") {
            expectOperands(sl, 1);
            const int64_t target = resolveValue(sl, sl.operands[0]);
            const int64_t disp = (target - static_cast<int64_t>(pc) - 4) / 4;
            prog_.text.push_back(makeBranch(Opcode::BSR, kRaReg, disp));
            return;
        }
        if (m == "ret" && sl.operands.empty()) {
            prog_.text.push_back(makeJump(Opcode::RET, kZeroReg, kRaReg));
            return;
        }

        const auto opc = opFromName(m);
        if (!opc)
            asmError(sl.number, "unknown mnemonic " + m);
        const OpInfo &info = opInfo(*opc);
        if (info.cls == OpClass::DiseBranch) {
            asmError(sl.number,
                     m + " is a DISE-internal branch; it may only appear "
                         "in replacement sequences");
        }
        switch (info.format) {
          case InstFormat::Nop:
            prog_.text.push_back(makeNop());
            break;
          case InstFormat::Syscall:
            prog_.text.push_back(makeSyscall());
            break;
          case InstFormat::Memory: {
            expectOperands(sl, 2);
            const RegIndex ra = parseReg(sl, sl.operands[0]);
            const auto [disp, rb] = parseMemOperand(sl, sl.operands[1]);
            prog_.text.push_back(makeMemory(*opc, ra, rb, disp));
            break;
          }
          case InstFormat::Branch: {
            expectOperands(sl, 2);
            const RegIndex ra = parseReg(sl, sl.operands[0]);
            const std::string &t = sl.operands[1];
            int64_t disp;
            if (t.size() > 2 && t[0] == '.' && (t[1] == '+' || t[1] == '-')) {
                const auto n = parseNumber(t.substr(1));
                if (!n)
                    asmError(sl.number, "bad relative target " + t);
                disp = *n;
            } else {
                const int64_t target = resolveValue(sl, t);
                if ((target & 3) != 0)
                    asmError(sl.number, "misaligned branch target");
                disp = (target - static_cast<int64_t>(pc) - 4) / 4;
            }
            if (!fitsSigned(disp, 21)) {
                asmError(sl.number, "branch displacement to " + t +
                                        " out of range (21-bit words)");
            }
            prog_.text.push_back(makeBranch(*opc, ra, disp));
            break;
          }
          case InstFormat::Jump: {
            expectOperands(sl, 2);
            const RegIndex ra = parseReg(sl, sl.operands[0]);
            std::string rbText = trim(sl.operands[1]);
            if (rbText.size() >= 2 && rbText.front() == '(' &&
                rbText.back() == ')') {
                rbText = rbText.substr(1, rbText.size() - 2);
            }
            const RegIndex rb = parseReg(sl, rbText);
            prog_.text.push_back(makeJump(*opc, ra, rb));
            break;
          }
          case InstFormat::Operate: {
            expectOperands(sl, 3);
            const RegIndex ra = parseReg(sl, sl.operands[0]);
            const RegIndex rc = parseReg(sl, sl.operands[2]);
            const std::string &src2 = sl.operands[1];
            if (regFromName(trim(src2))) {
                prog_.text.push_back(
                    makeOperate(*opc, ra, parseReg(sl, src2), rc));
            } else {
                const auto lit = parseNumber(src2);
                if (!lit || *lit < 0 || *lit > 255) {
                    asmError(sl.number,
                             "operate literal must be 0..255: " + src2);
                }
                prog_.text.push_back(makeOperateImm(
                    *opc, ra, static_cast<uint8_t>(*lit), rc));
            }
            break;
          }
          case InstFormat::Codeword: {
            expectOperands(sl, 4);
            const auto tag = parseNumber(sl.operands[0]);
            const auto p1 = parseNumber(sl.operands[1]);
            const auto p2 = parseNumber(sl.operands[2]);
            const auto p3 = parseNumber(sl.operands[3]);
            if (!tag || !p1 || !p2 || !p3)
                asmError(sl.number, "bad codeword fields");
            if (*tag < 0 || *tag > kMaxCodewordTag)
                asmError(sl.number, "codeword tag out of range (0..2047)");
            for (const int64_t p : {*p1, *p2, *p3}) {
                if (p < 0 || p > 31) {
                    asmError(sl.number,
                             "codeword parameter out of range (0..31)");
                }
            }
            prog_.text.push_back(makeCodeword(
                *opc, static_cast<uint16_t>(*tag),
                static_cast<uint8_t>(*p1), static_cast<uint8_t>(*p2),
                static_cast<uint8_t>(*p3)));
            break;
          }
        }
    }

    AsmOptions opts_;
    std::vector<SrcLine> lines_;
    std::map<std::string, Addr> symbols_;
    Program prog_;
};

} // namespace

Program
assemble(const std::string &source, const AsmOptions &opts)
{
    Assembler assembler(opts);
    return assembler.run(source);
}

} // namespace dise
