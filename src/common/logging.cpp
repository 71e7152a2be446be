#include "src/common/logging.hpp"

#include <cstdio>
#include <vector>

namespace dise {

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        std::vector<char> buf(static_cast<size_t>(needed) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
        out.assign(buf.data(), static_cast<size_t>(needed));
    }
    va_end(args);
    return out;
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw PanicError(msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace dise
