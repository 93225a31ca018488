#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace winomc::env {

long long
parsePositiveInt(const char *knob, const char *str, long long maxValue)
{
    if (!str || !*str)
        return 0;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(str, &end, 10);
    while (end && std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    if (!end || end == str || *end != '\0') {
        winomc_warn("ignoring unparsable ", knob, " '", str, "'");
        return 0;
    }
    if (v <= 0) {
        winomc_warn("ignoring non-positive ", knob, " '", str, "'");
        return 0;
    }
    if (v > maxValue || errno == ERANGE) {
        winomc_warn(knob, " '", str, "' clamped to ", maxValue);
        return maxValue;
    }
    return v;
}

long long
envPositiveInt(const char *knob, long long maxValue, long long fallback)
{
    long long v = parsePositiveInt(knob, std::getenv(knob), maxValue);
    return v ? v : fallback;
}

int
parseChoice(const char *knob, const char *str,
            std::initializer_list<Choice> choices, int fallback)
{
    if (!str || !*str)
        return fallback;
    std::string s;
    for (const char *p = str; *p; ++p)
        if (!std::isspace(static_cast<unsigned char>(*p)))
            s += char(std::tolower(static_cast<unsigned char>(*p)));
    for (const Choice &c : choices)
        if (s == c.name)
            return c.value;
    // Name each value once, by its first spelling.
    std::string want;
    for (auto c = choices.begin(); c != choices.end(); ++c) {
        bool alias = false;
        for (auto p = choices.begin(); p != c; ++p)
            alias = alias || p->value == c->value;
        if (!alias)
            want += (want.empty() ? "" : "|") + std::string(c->name);
    }
    winomc_warn("ignoring unrecognized ", knob, " '", str, "' (want ", want,
                ")");
    return fallback;
}

} // namespace winomc::env
