/**
 * @file
 * Shared parsing contracts for environment knobs: positive integers and
 * enumerated choices.
 *
 * Every positive-integer knob in the project (WINOMC_THREADS,
 * WINOMC_WORKSPACE_LIMIT_MB, the WINOMC_SERVE_* serving knobs) follows
 * one hardened discipline instead of hand-rolling its own strtol copy:
 *
 *  - missing/empty      -> 0 (caller falls back to its default), silent;
 *  - garbage / trailing junk -> 0 with a warning;
 *  - zero or negative   -> 0 with a warning;
 *  - above the knob's ceiling (or out of long long range) -> warn and
 *    clamp to the ceiling.
 *
 * Trailing blanks are tolerated ("8 " parses as 8). Enumerated knobs
 * (WINOMC_FUSED, WINOMC_TUNE, WINOMC_PREC, WINOMC_SPARSE, WINOMC_ISA)
 * share parseChoice. The helpers never crash and never exit: a bad
 * knob degrades to the default, loudly.
 */

#ifndef WINOMC_COMMON_ENV_HH
#define WINOMC_COMMON_ENV_HH

#include <initializer_list>

namespace winomc::env {

/** One accepted spelling (lowercase, no whitespace) of an enumerated
 *  knob and the value it selects. The first spelling of each value is
 *  its name in warnings; later ones are aliases. */
struct Choice
{
    const char *name;
    int value;
};

/**
 * Match `str` against the spellings of enumerated knob `knob` after
 * removing all whitespace and lowercasing (" ON " matches "on"). Null
 * or empty input returns `fallback` silently; unknown input warns
 * ("ignoring unrecognized KNOB 'str' (want a|b|c)") and returns
 * `fallback`.
 */
int parseChoice(const char *knob, const char *str,
                std::initializer_list<Choice> choices, int fallback);

/** parseChoice for an enum-valued knob. */
template <class E>
E
parseChoice(const char *knob, const char *str,
            std::initializer_list<Choice> choices, E fallback)
{
    return E(parseChoice(knob, str, choices, int(fallback)));
}

/**
 * Parse `str` as a positive integer knob value named `knob` (used in
 * warnings, e.g. "WINOMC_THREADS"). Returns 0 for missing/garbage/
 * non-positive input, `maxValue` for anything larger.
 */
long long parsePositiveInt(const char *knob, const char *str,
                           long long maxValue);

/**
 * getenv(knob) + parsePositiveInt, with `fallback` when the variable is
 * unset or rejected.
 */
long long envPositiveInt(const char *knob, long long maxValue,
                         long long fallback);

} // namespace winomc::env

#endif // WINOMC_COMMON_ENV_HH
