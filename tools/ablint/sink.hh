/**
 * @file
 * Internals shared by the lexical rule pass (rules.cc) and the
 * semantic pass (sema_rules.cc): token predicates, the inline-allow
 * aware finding sink, and rule timing.  Not part of the public
 * ablint API.
 */

#ifndef BIGLITTLE_TOOLS_ABLINT_SINK_HH
#define BIGLITTLE_TOOLS_ABLINT_SINK_HH

#include "ablint.hh"

#include <chrono>
#include <utility>

namespace biglittle::ablint::detail
{

inline bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::identifier && t.text == text;
}

inline bool
isPunct(const Token &t, char c)
{
    return t.kind == TokKind::punct && t.text.size() == 1 &&
           t.text[0] == c;
}

inline bool
lineAllows(const LexedFile &f, int line, const std::string &rule)
{
    const auto it = f.allows.find(line);
    return it != f.allows.end() && it->second.count(rule) > 0;
}

/**
 * Run @p fn, accumulating its wall time under @p name in @p profile
 * (in milliseconds) when a profile is requested.  Backs ablint's
 * --profile flag across both passes.
 */
template <typename Fn>
void
timeRule(RuleProfile *profile, const char *name, Fn &&fn)
{
    if (profile == nullptr) {
        fn();
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    (*profile)[name] +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Collects findings, dropping (and recording, when @p uses is set)
 * the ones suppressed by an inline allow on their line.
 */
struct Sink
{
    std::vector<Finding> &out;
    AllowUse *uses = nullptr;

    void
    add(const LexedFile &f, int line, std::string rule,
        std::string message)
    {
        if (lineAllows(f, line, rule)) {
            if (uses != nullptr)
                (*uses)[{f.path, line}].insert(rule);
            return;
        }
        out.push_back(
            {f.path, line, std::move(rule), std::move(message)});
    }
};

} // namespace biglittle::ablint::detail

#endif // BIGLITTLE_TOOLS_ABLINT_SINK_HH
