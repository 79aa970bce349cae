/**
 * @file
 * The abflow rules: taint-bound (interprocedural decode-length
 * taint) and status-drop (dead Status/Result definitions).  Both
 * ride the engine in flow.cc and feed the same Finding /
 * inline-allow machinery as the lexical and semantic passes.
 */

#include "flow.hh"

#include "sink.hh"

#include <algorithm>

namespace biglittle::ablint
{

namespace
{

using detail::Sink;
using detail::isIdent;
using detail::isPunct;
using detail::timeRule;

/* ------------------------------------------------------------------ */
/* taint-bound                                                         */
/* ------------------------------------------------------------------ */

void
taintBoundRule(const FlowModel &fm, Sink &sink)
{
    for (const FlowFunction &ff : fm.functions) {
        if (ff.def->file->isTest)
            continue;
        const LexedFile &f = *ff.def->file;
        const TaintEmitter emit = [&](int line,
                                      const std::string &msg) {
            sink.add(f, line, "taint-bound", msg);
        };
        analyzeTaint(ff, fm, &emit);
    }
}

/* ------------------------------------------------------------------ */
/* status-drop                                                         */
/* ------------------------------------------------------------------ */

/**
 * A Status/Result local that is assigned and then overwritten (or
 * dies) without the value ever being read is a swallowed error -
 * the gap [[nodiscard]] and void-discard cannot see, because the
 * value *was* stored.  Neutral definitions (`= okStatus()`, default
 * construction) carry no information and are exempt; a definition
 * inside a loop whose variable is read anywhere in that loop is
 * loop-carried and fine.
 */
class StatusDropScanner
{
  public:
    StatusDropScanner(const FlowFunction &ff, Sink &sink)
        : ff(ff), f(*ff.def->file), toks(f.tokens),
          b(ff.def->bodyBegin), e(ff.def->bodyEnd), sink(sink)
    {
        findLoops();
    }

    void
    run()
    {
        for (std::size_t j = b; j < e; ++j) {
            if (toks[j].kind != TokKind::identifier)
                continue;
            if (toks[j].text == "Status")
                tryDecl(j + 1);
            else if (toks[j].text == "Result" && j + 1 < e &&
                     isPunct(toks[j + 1], '<'))
                tryDecl(afterAngles(j + 1));
        }
    }

  private:
    const FlowFunction &ff;
    const LexedFile &f;
    const std::vector<Token> &toks;
    const std::size_t b, e;
    Sink &sink;
    std::vector<std::pair<std::size_t, std::size_t>> loops;

    std::size_t
    afterAngles(std::size_t at) const
    {
        int depth = 0;
        for (std::size_t j = at; j < e; ++j) {
            if (isPunct(toks[j], '<'))
                ++depth;
            else if (isPunct(toks[j], '>') && --depth == 0)
                return j + 1;
            else if (isPunct(toks[j], ';'))
                return e;
        }
        return e;
    }

    std::size_t
    matchBrace(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t j = open; j < e; ++j) {
            if (isPunct(toks[j], '{'))
                ++depth;
            else if (isPunct(toks[j], '}') && --depth == 0)
                return j;
        }
        return e;
    }

    void
    findLoops()
    {
        // Each range runs from the loop keyword to the last token of
        // the construct, so a read in a for/while header condition
        // (or a do-while trailing condition) counts as loop-carried.
        for (std::size_t j = b; j + 1 < e; ++j) {
            if (toks[j].kind != TokKind::identifier)
                continue;
            if (toks[j].text == "do" && isPunct(toks[j + 1], '{')) {
                std::size_t close = matchBrace(j + 1);
                if (close + 2 < e &&
                    isIdent(toks[close + 1], "while") &&
                    isPunct(toks[close + 2], '(')) {
                    int depth = 0;
                    for (std::size_t k = close + 2; k < e; ++k) {
                        if (isPunct(toks[k], '('))
                            ++depth;
                        else if (isPunct(toks[k], ')') &&
                                 --depth == 0) {
                            close = k;
                            break;
                        }
                    }
                }
                loops.push_back({j, close});
                continue;
            }
            if ((toks[j].text != "for" && toks[j].text != "while") ||
                !isPunct(toks[j + 1], '('))
                continue;
            int depth = 0;
            std::size_t k = j + 1;
            for (; k < e; ++k) {
                if (isPunct(toks[k], '('))
                    ++depth;
                else if (isPunct(toks[k], ')') && --depth == 0)
                    break;
            }
            if (k + 1 < e && isPunct(toks[k + 1], '{'))
                loops.push_back({j, matchBrace(k + 1)});
        }
    }

    bool
    inSameLoopWithUse(std::size_t defIdx,
                      const std::vector<std::size_t> &uses) const
    {
        for (const auto &[lb, le] : loops) {
            if (defIdx < lb || defIdx > le)
                continue;
            for (const std::size_t u : uses)
                if (u >= lb && u <= le)
                    return true;
        }
        return false;
    }

    /** True when [from, to) is exactly `okStatus ( )`. */
    bool
    isNeutralInit(std::size_t from, std::size_t to) const
    {
        return to - from == 3 && isIdent(toks[from], "okStatus") &&
               isPunct(toks[from + 1], '(') &&
               isPunct(toks[from + 2], ')');
    }

    std::size_t
    stmtEnd(std::size_t from) const
    {
        int depth = 0;
        for (std::size_t j = from; j < e; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, '(') || isPunct(t, '[') ||
                isPunct(t, '{'))
                ++depth;
            else if (isPunct(t, ')') || isPunct(t, ']') ||
                     isPunct(t, '}')) {
                if (--depth < 0)
                    return j;
            } else if (isPunct(t, ';') && depth == 0)
                return j;
        }
        return e;
    }

    void
    tryDecl(std::size_t nameIdx)
    {
        if (nameIdx >= e || toks[nameIdx].kind != TokKind::identifier)
            return;
        // `Status foo(...)` inside a body is a call or declaration
        // of something else entirely; only track plain locals.
        if (nameIdx + 1 < e && isPunct(toks[nameIdx + 1], '('))
            return;
        const std::string var = toks[nameIdx].text;

        struct Def
        {
            std::size_t idx;
            int line;
            bool neutral;
        };
        std::vector<Def> defs;
        std::vector<std::size_t> uses;

        // The declaration's own initializer.
        if (nameIdx + 1 < e && isPunct(toks[nameIdx + 1], '=')) {
            const std::size_t end = stmtEnd(nameIdx + 2);
            defs.push_back({nameIdx, toks[nameIdx].line,
                            isNeutralInit(nameIdx + 2, end)});
        }

        // Every later mention of the variable in the body.
        for (std::size_t j = nameIdx + 1; j < e; ++j) {
            if (toks[j].kind != TokKind::identifier ||
                toks[j].text != var)
                continue;
            const bool member =
                j > b && (isPunct(toks[j - 1], '.') ||
                          isPunct(toks[j - 1], '>'));
            const bool assign =
                !member && j + 1 < e && isPunct(toks[j + 1], '=') &&
                !(j + 2 < e && isPunct(toks[j + 2], '=')) &&
                !(isPunct(toks[j - 1], '=') ||
                  isPunct(toks[j - 1], '!') ||
                  isPunct(toks[j - 1], '<') ||
                  isPunct(toks[j - 1], '>'));
            if (assign) {
                const std::size_t end = stmtEnd(j + 2);
                defs.push_back({j, toks[j].line,
                                isNeutralInit(j + 2, end)});
            } else {
                uses.push_back(j);
            }
        }

        for (std::size_t d = 0; d < defs.size(); ++d) {
            if (defs[d].neutral)
                continue;
            const std::size_t next =
                d + 1 < defs.size() ? defs[d + 1].idx : e;
            bool read = false;
            for (const std::size_t u : uses) {
                if (u > defs[d].idx && u < next) {
                    read = true;
                    break;
                }
            }
            if (read || inSameLoopWithUse(defs[d].idx, uses))
                continue;
            const bool overwritten = d + 1 < defs.size();
            sink.add(
                f, defs[d].line, "status-drop",
                "'" + var + "' is assigned here and then " +
                    (overwritten
                         ? "overwritten (line " +
                               std::to_string(defs[d + 1].line) + ")"
                         : "dies") +
                    " without ever being branched on, propagated, "
                    "or logged; check .ok(), return it, or log the "
                    "error instead of swallowing it");
        }
    }
};

void
statusDropRule(const FlowModel &fm, Sink &sink)
{
    for (const FlowFunction &ff : fm.functions) {
        if (ff.def->file->isTest)
            continue;
        StatusDropScanner(ff, sink).run();
    }
}

/* ------------------------------------------------------------------ */
/* pass entry point                                                    */
/* ------------------------------------------------------------------ */

} // namespace

std::vector<Finding>
runFlowRules(const ScanInput &in, AllowUse *uses,
             RuleProfile *profile)
{
    std::vector<Finding> out;
    Sink sink{out, uses};
    FlowModel fm;
    timeRule(profile, "flow-model-build",
             [&] { fm = buildFlowModel(in); });
    timeRule(profile, "taint-bound",
             [&] { taintBoundRule(fm, sink); });
    timeRule(profile, "status-drop",
             [&] { statusDropRule(fm, sink); });
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule,
                                  a.message) <
                         std::tie(b.file, b.line, b.rule,
                                  b.message);
              });
    return out;
}

} // namespace biglittle::ablint
