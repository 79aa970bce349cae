/**
 * @file
 * The abflow engine: parameter-list parsing, the intraprocedural
 * def-use taint walk, and the bottom-up summary fixpoint over the
 * call graph.  See flow.hh for the model and docs/STATIC_ANALYSIS.md
 * for design and blind spots.  The taint-bound rule (flow_rules.cc)
 * is a thin emission layer over analyzeTaint() below.
 */

#include "flow.hh"

#include "sink.hh"

#include <algorithm>
#include <functional>

namespace biglittle::ablint
{

namespace flowdetail
{

using detail::isIdent;
using detail::isPunct;

/** Raw Deserializer reads: the wire-facing untrusted surface. */
const std::set<std::string> &
taintingReads()
{
    static const std::set<std::string> s = {"getU64", "getU32",
                                            "getI64"};
    return s;
}

/** Library numeric parses of external text (config/argv). */
const std::set<std::string> &
parseCalls()
{
    static const std::set<std::string> s = {
        "stoull", "stoll",   "stoul",   "stol",    "stoi",
        "atoi",   "atol",    "atoll",   "strtol",  "strtoul",
        "strtoll", "strtoull",
    };
    return s;
}

/** Calls whose result is clean by construction (clamps/bounds). */
const std::set<std::string> &
cleanCalls()
{
    static const std::set<std::string> s = {"getCount", "min", "max",
                                            "clamp"};
    return s;
}

} // namespace flowdetail

namespace
{

using detail::isIdent;
using detail::isPunct;

/** Taint carried by one expression or variable. */
struct VarTaint
{
    bool fromSource = false;

    /** Origin chain for messages, set when fromSource. */
    std::string why;

    /** Parameter indices whose value flows here. */
    std::set<int> fromParams;

    bool
    any() const
    {
        return fromSource || !fromParams.empty();
    }

    void
    merge(const VarTaint &o)
    {
        if (o.fromSource && !fromSource) {
            fromSource = true;
            why = o.why;
        }
        fromParams.insert(o.fromParams.begin(), o.fromParams.end());
    }
};

/**
 * One function body's taint walk.  Token-level and flow-ordered:
 * assignments gen/kill per variable, comparisons sanitize, sinks
 * check the environment at their position.  Assignments inside a
 * nested block are weak updates (the branch may not run, so taint
 * merges instead of overwriting); an RHS wrapped in a clamp call
 * stays a strong kill even there.  Each braced loop body is walked
 * twice back to back so loop-carried taint (x picks up y, y picks
 * up a read on the previous iteration) converges.
 */
class BodyAnalyzer
{
  public:
    BodyAnalyzer(const FlowFunction &ff, const FlowModel &fm,
                 const TaintEmitter *emit)
        : ff(ff), fm(fm), toks(ff.def->file->tokens),
          b(ff.def->bodyBegin), e(ff.def->bodyEnd), emit(emit)
    {
        sum.paramToReturn.assign(ff.params.size(), false);
        sum.paramToSink.assign(ff.params.size(), false);
        sum.paramSink.assign(ff.params.size(), SinkNote{});
        for (std::size_t p = 0; p < ff.params.size(); ++p) {
            if (ff.params[p].name.empty())
                continue;
            VarTaint t;
            t.fromParams.insert(static_cast<int>(p));
            env[ff.params[p].name] = t;
        }
        findLoopConds();
        findLoopBodies();
    }

    FlowSummary
    run()
    {
        pass(emit != nullptr);
        return sum;
    }

  private:
    const FlowFunction &ff;
    const FlowModel &fm;
    const std::vector<Token> &toks;
    const std::size_t b, e;
    const TaintEmitter *emit;
    std::map<std::string, VarTaint> env;
    FlowSummary sum;
    std::set<std::pair<int, std::string>> emitted;

    /** One for/while header: its keyword token and condition range. */
    struct LoopCond
    {
        std::size_t head;
        std::size_t cb, ce;
    };

    std::vector<LoopCond> loopConds;

    /** One braced loop body, for the within-pass replay. */
    struct LoopBody
    {
        std::size_t head; ///< the for/while/do keyword token
        std::size_t close; ///< its body's closing '}'
        bool replayed = false;
    };

    std::vector<LoopBody> loopBodies;

    std::size_t
    matchParen(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t j = open; j < e; ++j) {
            if (isPunct(toks[j], '('))
                ++depth;
            else if (isPunct(toks[j], ')') && --depth == 0)
                return j;
        }
        return e;
    }

    /**
     * The '(' that opens a call of the name at @p name, past an
     * explicit template argument list (`std::min<std::size_t>(n,
     * cap)`); e when the name is not called.
     */
    std::size_t
    callOpen(std::size_t name) const
    {
        std::size_t k = name + 1;
        if (k < e && isPunct(toks[k], '<')) {
            int angle = 0;
            for (; k < e; ++k) {
                if (isPunct(toks[k], '<'))
                    ++angle;
                else if (isPunct(toks[k], '>') && --angle == 0)
                    break;
                else if (isPunct(toks[k], ';') || isPunct(toks[k], '{'))
                    return e;
            }
            ++k;
        }
        return k < e && isPunct(toks[k], '(') ? k : e;
    }

    std::size_t
    matchBracket(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t j = open; j < e; ++j) {
            if (isPunct(toks[j], '['))
                ++depth;
            else if (isPunct(toks[j], ']') && --depth == 0)
                return j;
        }
        return e;
    }

    void
    findLoopConds()
    {
        for (std::size_t j = b; j + 1 < e; ++j) {
            if (toks[j].kind != TokKind::identifier ||
                !isPunct(toks[j + 1], '('))
                continue;
            const std::size_t close = matchParen(j + 1);
            if (toks[j].text == "while") {
                loopConds.push_back({j, j + 2, close});
            } else if (toks[j].text == "for") {
                // Classic for: the range between the first and
                // second depth-1 ';'.  Range-for has none: skip.
                std::size_t s1 = e, s2 = e;
                int depth = 0;
                for (std::size_t k = j + 1; k < close; ++k) {
                    if (isPunct(toks[k], '('))
                        ++depth;
                    else if (isPunct(toks[k], ')'))
                        --depth;
                    else if (isPunct(toks[k], ';') && depth == 1) {
                        if (s1 == e)
                            s1 = k;
                        else if (s2 == e) {
                            s2 = k;
                            break;
                        }
                    }
                }
                if (s1 != e && s2 != e)
                    loopConds.push_back({j, s1 + 1, s2});
            }
        }
    }

    void
    findLoopBodies()
    {
        for (std::size_t j = b; j + 1 < e; ++j) {
            if (toks[j].kind != TokKind::identifier)
                continue;
            std::size_t open = e;
            if (toks[j].text == "do" && isPunct(toks[j + 1], '{')) {
                open = j + 1;
            } else if ((toks[j].text == "for" ||
                        toks[j].text == "while") &&
                       isPunct(toks[j + 1], '(')) {
                const std::size_t close = matchParen(j + 1);
                if (close + 1 < e && isPunct(toks[close + 1], '{'))
                    open = close + 1;
            }
            if (open == e)
                continue; // braceless body: no replay
            int depth = 0;
            for (std::size_t k = open; k < e; ++k) {
                if (isPunct(toks[k], '{'))
                    ++depth;
                else if (isPunct(toks[k], '}') && --depth == 0) {
                    loopBodies.push_back({j, k, false});
                    break;
                }
            }
        }
    }

    bool
    inLoopCond(std::size_t j) const
    {
        for (const LoopCond &lc : loopConds)
            if (j >= lc.cb && j < lc.ce)
                return true;
        return false;
    }

    /** Top-level argument ranges of a call's (open..close) parens. */
    std::vector<std::pair<std::size_t, std::size_t>>
    splitArgs(std::size_t open, std::size_t close) const
    {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        if (open + 1 >= close)
            return args;
        int paren = 0, bracket = 0, brace = 0, angle = 0;
        std::size_t start = open + 1;
        for (std::size_t j = open + 1; j < close; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, '('))
                ++paren;
            else if (isPunct(t, ')'))
                --paren;
            else if (isPunct(t, '['))
                ++bracket;
            else if (isPunct(t, ']'))
                --bracket;
            else if (isPunct(t, '{'))
                ++brace;
            else if (isPunct(t, '}'))
                --brace;
            else if (isPunct(t, '<') && j > open + 1 &&
                     toks[j - 1].kind == TokKind::identifier)
                ++angle;
            else if (isPunct(t, '>') && angle > 0)
                --angle;
            else if (isPunct(t, ',') && paren == 0 && bracket == 0 &&
                     brace == 0 && angle == 0) {
                args.push_back({start, j});
                start = j + 1;
            }
        }
        args.push_back({start, close});
        return args;
    }

    /** Merged summary view over every same-named candidate. */
    struct CalleeView
    {
        bool known = false;
        bool returnsTaint = false;
        std::string returnWhy;
        std::vector<bool> paramToReturn;
        std::vector<bool> paramToSink;
        std::vector<SinkNote> paramSink;
        std::vector<std::string> paramNames;
    };

    CalleeView
    lookupCallee(const std::string &name) const
    {
        CalleeView v;
        const auto it = fm.byName.find(name);
        if (it == fm.byName.end())
            return v;
        v.known = true;
        for (const std::size_t idx : it->second) {
            const FlowFunction &cand = fm.functions[idx];
            const FlowSummary &s = cand.summary;
            if (s.returnsTaint && !v.returnsTaint) {
                v.returnsTaint = true;
                v.returnWhy = s.returnTaintWhy;
            }
            const auto grow = [&](std::size_t sz) {
                if (v.paramToReturn.size() < sz) {
                    v.paramToReturn.resize(sz, false);
                    v.paramToSink.resize(sz, false);
                    v.paramSink.resize(sz, SinkNote{});
                    v.paramNames.resize(sz);
                }
            };
            grow(s.paramToReturn.size());
            for (std::size_t p = 0; p < s.paramToReturn.size();
                 ++p) {
                if (s.paramToReturn[p])
                    v.paramToReturn[p] = true;
                if (s.paramToSink[p] && !v.paramToSink[p]) {
                    v.paramToSink[p] = true;
                    v.paramSink[p] = s.paramSink[p];
                }
                if (v.paramNames[p].empty() &&
                    p < cand.params.size())
                    v.paramNames[p] = cand.params[p].name;
            }
        }
        return v;
    }

    std::string
    sourceAt(const std::string &call, std::size_t j) const
    {
        return "a raw Deserializer::" + call + "() read (" +
               ff.def->file->path + ":" +
               std::to_string(toks[j].line) + ")";
    }

    /**
     * Taint of the expression in [from, to).  Call-aware: known
     * callees contribute their summary (and only their
     * taint-propagating arguments), clamp wrappers contribute
     * nothing, unknown calls pass their arguments through.
     */
    VarTaint
    evalExpr(std::size_t from, std::size_t to, int depth) const
    {
        VarTaint t;
        for (std::size_t j = from; j < to && j < e; ++j) {
            const Token &tk = toks[j];
            if (tk.kind != TokKind::identifier)
                continue;
            if (flowdetail::cleanCalls().count(tk.text)) {
                const std::size_t open = callOpen(j);
                if (open < to) {
                    j = matchParen(open); // clamped/bounded: clean
                    continue;
                }
            }
            const bool isCall =
                j + 1 < to && isPunct(toks[j + 1], '(');
            if (isCall) {
                const std::size_t close = matchParen(j + 1);
                if (flowdetail::taintingReads().count(tk.text)) {
                    VarTaint s;
                    s.fromSource = true;
                    s.why = sourceAt(tk.text, j);
                    t.merge(s);
                    j = close;
                    continue;
                }
                if (flowdetail::parseCalls().count(tk.text)) {
                    VarTaint s;
                    s.fromSource = true;
                    s.why = "a " + tk.text +
                            "() parse of external text (" +
                            ff.def->file->path + ":" +
                            std::to_string(tk.line) + ")";
                    t.merge(s);
                    j = close;
                    continue;
                }
                if (depth < 8) {
                    const CalleeView v = lookupCallee(tk.text);
                    if (v.known) {
                        if (v.returnsTaint) {
                            VarTaint s;
                            s.fromSource = true;
                            s.why = (v.returnWhy.empty()
                                         ? "an unchecked decode"
                                         : v.returnWhy) +
                                    ", returned by " + tk.text +
                                    "()";
                            t.merge(s);
                        }
                        const auto args = splitArgs(j + 1, close);
                        for (std::size_t ai = 0;
                             ai < args.size() &&
                             ai < v.paramToReturn.size();
                             ++ai) {
                            if (!v.paramToReturn[ai])
                                continue;
                            t.merge(evalExpr(args[ai].first,
                                             args[ai].second,
                                             depth + 1));
                        }
                        j = close;
                        continue;
                    }
                }
                // Unknown (library) call: arguments pass through.
                continue;
            }
            // The base of a member chain (`d.ok()`) contributes
            // nothing itself; the member decides the taint.
            if (j + 1 < e && isPunct(toks[j + 1], '.'))
                continue;
            const auto vt = env.find(tk.text);
            if (vt != env.end())
                t.merge(vt->second);
        }
        return t;
    }

    /** First tainted identifier in [from, to), for messages. */
    std::string
    taintedName(std::size_t from, std::size_t to) const
    {
        for (std::size_t j = from; j < to && j < e; ++j) {
            if (toks[j].kind != TokKind::identifier)
                continue;
            const auto vt = env.find(toks[j].text);
            if (vt != env.end() && vt->second.any())
                return toks[j].text;
        }
        return "the value";
    }

    void
    reportOrRecord(const VarTaint &t, int line,
                   const std::string &what, std::size_t nameFrom,
                   std::size_t nameTo, bool emitting,
                   const std::string &viaCall = std::string())
    {
        if (t.fromSource && emitting && emit != nullptr) {
            std::string msg = "'" + taintedName(nameFrom, nameTo) +
                              "' derives from " + t.why;
            if (viaCall.empty())
                msg += " and " + what;
            else
                msg += " and " + viaCall;
            msg += " without a bound check; read the count with "
                   "getCount() (or clamp it) so a hostile length "
                   "cannot force a huge allocation or an unbounded "
                   "loop";
            if (emitted.insert({line, msg}).second)
                (*emit)(line, msg);
        }
        for (const int p : t.fromParams) {
            if (p < 0 ||
                static_cast<std::size_t>(p) >= sum.paramToSink.size())
                continue;
            if (!sum.paramToSink[p]) {
                sum.paramToSink[p] = true;
                sum.paramSink[p] = {line, ff.def->file->path, what};
            }
        }
    }

    /** Up to the next ';' at depth 0 from @p from (exclusive). */
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
    pass(bool emitting)
    {
        static const std::set<std::string> allocCalls = {
            "reserve", "resize", "assign"};
        for (LoopBody &lb : loopBodies)
            lb.replayed = false;
        int braceDepth = 0;
        for (std::size_t j = b; j < e; ++j) {
            const Token &tk = toks[j];
            if (tk.kind == TokKind::punct) {
                if (isPunct(tk, '{')) {
                    ++braceDepth;
                } else if (isPunct(tk, '}')) {
                    --braceDepth;
                    // Walk each loop body a second time so taint
                    // carried around the back edge converges.
                    for (LoopBody &lb : loopBodies) {
                        if (lb.close == j && !lb.replayed) {
                            lb.replayed = true;
                            j = lb.head - 1; // ++j lands on head
                            break;
                        }
                    }
                }
                continue;
            }
            if (tk.kind != TokKind::identifier)
                continue;

            // Loop-bound sink: the condition of a for/while header,
            // evaluated against the environment at the loop head.
            if ((tk.text == "for" || tk.text == "while") &&
                j + 1 < e && isPunct(toks[j + 1], '(')) {
                for (const LoopCond &lc : loopConds) {
                    if (lc.head != j)
                        continue;
                    const VarTaint ct = evalExpr(lc.cb, lc.ce, 0);
                    if (ct.any())
                        reportOrRecord(ct, tk.line,
                                       "bounds a loop", lc.cb,
                                       lc.ce, emitting);
                    break;
                }
                continue;
            }

            // Return statement: feeds the summary.
            if (tk.text == "return") {
                const std::size_t end = stmtEnd(j + 1);
                const VarTaint rt = evalExpr(j + 1, end, 0);
                if (rt.fromSource && !sum.returnsTaint) {
                    sum.returnsTaint = true;
                    sum.returnTaintWhy = rt.why;
                }
                for (const int p : rt.fromParams)
                    if (p >= 0 && static_cast<std::size_t>(p) <
                                      sum.paramToReturn.size())
                        sum.paramToReturn[p] = true;
                continue;
            }

            // Sanitizing comparison: `n < cap` / `cap > n` outside
            // a loop header kills the variable's taint ('<<'/'>>'
            // streams and '->' accesses excluded).
            if (!inLoopCond(j)) {
                const bool cmpBefore =
                    j > b &&
                    ((isPunct(toks[j - 1], '<') &&
                      !(j >= 2 && isPunct(toks[j - 2], '<'))) ||
                     (isPunct(toks[j - 1], '>') &&
                      !(j >= 2 && (isPunct(toks[j - 2], '>') ||
                                   isPunct(toks[j - 2], '-')))));
                const bool cmpAfter =
                    j + 1 < e &&
                    ((isPunct(toks[j + 1], '<') &&
                      !(j + 2 < e && isPunct(toks[j + 2], '<'))) ||
                     (isPunct(toks[j + 1], '>') &&
                      !(j + 2 < e && isPunct(toks[j + 2], '>'))));
                if ((cmpBefore || cmpAfter) && env.count(tk.text))
                    env.erase(tk.text);
            }

            // Assignment: gen/kill for a plain local or parameter.
            // Inside a nested block the write is a weak update
            // (the branch/iteration may not run, so taint merges);
            // a clean RHS wrapped in a clamp call is an explicit
            // sanitization and stays a strong kill even there.
            if (j + 1 < e && isPunct(toks[j + 1], '=') &&
                !(j + 2 < e && isPunct(toks[j + 2], '=')) &&
                !(j > b &&
                  (isPunct(toks[j - 1], '.') ||
                   isPunct(toks[j - 1], '>') ||
                   isPunct(toks[j - 1], '=') ||
                   isPunct(toks[j - 1], '!') ||
                   isPunct(toks[j - 1], '<')))) {
                const std::size_t end = stmtEnd(j + 2);
                VarTaint nv = evalExpr(j + 2, end, 0);
                bool sanitizing = !nv.any();
                if (sanitizing && braceDepth > 0) {
                    sanitizing = false;
                    for (std::size_t k = j + 2; k < end; ++k) {
                        if (toks[k].kind == TokKind::identifier &&
                            flowdetail::cleanCalls().count(
                                toks[k].text) > 0 &&
                            callOpen(k) < e) {
                            sanitizing = true;
                            break;
                        }
                    }
                }
                if (braceDepth == 0 || sanitizing)
                    env[tk.text] = std::move(nv);
                else
                    env[tk.text].merge(nv);
                continue;
            }

            // Allocation-size sink: .reserve/.resize/.assign(...).
            if (j > b && isPunct(toks[j - 1], '.') &&
                allocCalls.count(tk.text) && j + 1 < e &&
                isPunct(toks[j + 1], '(')) {
                const std::size_t close = matchParen(j + 1);
                const VarTaint at = evalExpr(j + 2, close, 0);
                if (at.any())
                    reportOrRecord(at, tk.line,
                                   "sizes a " + tk.text + "()",
                                   j + 2, close, emitting);
                continue;
            }

            // Allocation-size sink: new T[n].
            if (tk.text == "new") {
                std::size_t k = j + 1;
                while (k < e &&
                       (toks[k].kind == TokKind::identifier ||
                        isPunct(toks[k], ':') ||
                        isPunct(toks[k], '<') ||
                        isPunct(toks[k], '>')))
                    ++k;
                if (k < e && isPunct(toks[k], '[')) {
                    const std::size_t close = matchBracket(k);
                    const VarTaint at =
                        evalExpr(k + 1, close, 0);
                    if (at.any())
                        reportOrRecord(at, toks[k].line,
                                       "sizes a new[]", k + 1,
                                       close, emitting);
                    j = close;
                }
                continue;
            }

            // Index sink: ident[expr] with a tainted index.
            if (j + 1 < e && isPunct(toks[j + 1], '[') &&
                !(j + 2 < e && isPunct(toks[j + 2], '['))) {
                const std::size_t close = matchBracket(j + 1);
                const VarTaint at = evalExpr(j + 2, close, 0);
                if (at.any())
                    reportOrRecord(at, tk.line, "indexes an array",
                                   j + 2, close, emitting);
                // fall through: the same token may also be a call
            }

            // Call-argument sink: an argument that a callee's
            // summary says reaches an allocation/loop/index sink.
            if (j + 1 < e && isPunct(toks[j + 1], '(') &&
                !flowdetail::cleanCalls().count(tk.text) &&
                !flowdetail::taintingReads().count(tk.text)) {
                const CalleeView v = lookupCallee(tk.text);
                if (!v.known || v.paramToSink.empty())
                    continue;
                const std::size_t close = matchParen(j + 1);
                const auto args = splitArgs(j + 1, close);
                for (std::size_t ai = 0;
                     ai < args.size() && ai < v.paramToSink.size();
                     ++ai) {
                    if (!v.paramToSink[ai])
                        continue;
                    const VarTaint at = evalExpr(
                        args[ai].first, args[ai].second, 0);
                    if (!at.any())
                        continue;
                    const SinkNote &note = v.paramSink[ai];
                    const std::string pname =
                        v.paramNames[ai].empty()
                            ? "#" + std::to_string(ai + 1)
                            : "'" + v.paramNames[ai] + "'";
                    reportOrRecord(
                        at, tk.line, note.what, args[ai].first,
                        args[ai].second, emitting,
                        "flows into parameter " + pname + " of " +
                            tk.text + "(), which " + note.what +
                            " (" + note.file + ":" +
                            std::to_string(note.line) + ")");
                }
            }
        }
    }
};

bool
summariesEqual(const FlowSummary &a, const FlowSummary &b)
{
    return a.returnsTaint == b.returnsTaint &&
           a.paramToReturn == b.paramToReturn &&
           a.paramToSink == b.paramToSink;
}

} // namespace

std::vector<FlowParam>
parseParams(const std::vector<Token> &toks, std::size_t begin,
            std::size_t end)
{
    std::vector<FlowParam> params;
    if (begin >= end)
        return params;
    if (end - begin == 1 && isIdent(toks[begin], "void"))
        return params;
    // Split at top-level commas (angle/paren/bracket/brace aware).
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    {
        int paren = 0, bracket = 0, brace = 0, angle = 0;
        std::size_t start = begin;
        for (std::size_t j = begin; j < end; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, '('))
                ++paren;
            else if (isPunct(t, ')'))
                --paren;
            else if (isPunct(t, '['))
                ++bracket;
            else if (isPunct(t, ']'))
                --bracket;
            else if (isPunct(t, '{'))
                ++brace;
            else if (isPunct(t, '<') && j > begin &&
                     toks[j - 1].kind == TokKind::identifier)
                ++angle;
            else if (isPunct(t, '>') && angle > 0)
                --angle;
            else if (isPunct(t, '}'))
                --brace;
            else if (isPunct(t, ',') && paren == 0 && bracket == 0 &&
                     brace == 0 && angle == 0) {
                chunks.push_back({start, j});
                start = j + 1;
            }
        }
        chunks.push_back({start, end});
    }
    for (const auto &[cb, ceFull] : chunks) {
        // Cut a default argument at the top-level '='.
        std::size_t ce = ceFull;
        {
            int paren = 0, bracket = 0;
            for (std::size_t j = cb; j < ceFull; ++j) {
                if (isPunct(toks[j], '('))
                    ++paren;
                else if (isPunct(toks[j], ')'))
                    --paren;
                else if (isPunct(toks[j], '['))
                    ++bracket;
                else if (isPunct(toks[j], ']'))
                    --bracket;
                else if (isPunct(toks[j], '=') && paren == 0 &&
                         bracket == 0) {
                    ce = j;
                    break;
                }
            }
        }
        // Name: the last identifier.  A trailing builtin keyword
        // means the parameter is unnamed (`int`, `unsigned long`).
        static const std::set<std::string> builtinTypes = {
            "void",     "bool",     "char",    "wchar_t", "short",
            "int",      "long",     "signed",  "unsigned", "float",
            "double",   "auto",     "size_t",  "int8_t",  "int16_t",
            "int32_t",  "int64_t",  "uint8_t", "uint16_t",
            "uint32_t", "uint64_t"};
        std::size_t nameIdx = static_cast<std::size_t>(-1);
        for (std::size_t j = cb; j < ce; ++j)
            if (toks[j].kind == TokKind::identifier &&
                toks[j].text != "const")
                nameIdx = j;
        if (nameIdx == static_cast<std::size_t>(-1))
            continue;
        FlowParam p;
        if (builtinTypes.count(toks[nameIdx].text) == 0)
            p.name = toks[nameIdx].text;
        params.push_back(std::move(p));
    }
    return params;
}

FlowSummary
analyzeTaint(const FlowFunction &fn, const FlowModel &fm,
             const TaintEmitter *emit)
{
    return BodyAnalyzer(fn, fm, emit).run();
}

FlowModel
buildFlowModel(const ScanInput &in)
{
    FlowModel fm;
    fm.model = buildModel(in.files);
    fm.functions.reserve(fm.model.functions.size());
    for (std::size_t i = 0; i < fm.model.functions.size(); ++i) {
        const FunctionDef &def = fm.model.functions[i];
        FlowFunction ff;
        ff.def = &def;
        ff.params = parseParams(def.file->tokens, def.paramBegin,
                                def.paramEnd);
        ff.summary.paramToReturn.assign(ff.params.size(), false);
        ff.summary.paramToSink.assign(ff.params.size(), false);
        ff.summary.paramSink.assign(ff.params.size(), SinkNote{});
        fm.byName[def.name].push_back(fm.functions.size());
        fm.functions.push_back(std::move(ff));
    }
    // Bottom-up summary fixpoint.  Six rounds bound even adversarial
    // call chains; real code converges in two or three.
    for (int round = 0; round < 6; ++round) {
        bool changed = false;
        for (FlowFunction &ff : fm.functions) {
            FlowSummary next = BodyAnalyzer(ff, fm, nullptr).run();
            // getCount() is the blessed bounded read: its return is
            // clean by contract whatever the token walk concludes.
            if (ff.def->name == "getCount") {
                next.returnsTaint = false;
                next.returnTaintWhy.clear();
            }
            if (!summariesEqual(next, ff.summary)) {
                ff.summary = std::move(next);
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return fm;
}

} // namespace biglittle::ablint
