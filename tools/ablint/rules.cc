/**
 * @file
 * The ablint rule scanners.  Each rule walks the token stream of the
 * lexed files; none of them try to be a real C++ front end — they
 * are tuned to this codebase's idiom and documented (with their
 * blind spots) in docs/STATIC_ANALYSIS.md.
 */

#include "ablint.hh"

#include "sink.hh"

#include <algorithm>

namespace biglittle::ablint
{

namespace
{

using detail::Sink;
using detail::isIdent;
using detail::isPunct;

// ---- wall-clock ----------------------------------------------------

/** Files allowed to read the host clock (the wall-clock module). */
bool
wallClockAllowlisted(const std::string &path)
{
    return path.find("snapshot/watchdog.") != std::string::npos;
}

void
wallClockRule(const LexedFile &f, Sink &sink)
{
    if (wallClockAllowlisted(f.path))
        return;
    static const std::set<std::string> bannedAlways = {
        "srand",       "random_device", "gettimeofday",
        "localtime",   "gmtime",        "mktime",
        "steady_clock", "system_clock", "high_resolution_clock",
    };
    // Short names that only count when used as a call.
    static const std::set<std::string> bannedCalls = {"rand", "time",
                                                      "clock"};
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::identifier)
            continue;
        const std::string &name = toks[i].text;
        const bool call = i + 1 < toks.size() &&
                          isPunct(toks[i + 1], '(');
        if (bannedAlways.count(name) ||
            (call && bannedCalls.count(name))) {
            sink.add(f, toks[i].line, "wall-clock",
                     "'" + name +
                         "' reads host entropy/time; sim code must "
                         "stay deterministic (use seeded Rng / "
                         "sim.now(); wall-clock lives in "
                         "snapshot/watchdog)");
        }
    }
}

// ---- unordered-iter ------------------------------------------------

void
unorderedIterRule(const LexedFile &f, Sink &sink)
{
    if (f.isTest)
        return;
    const auto &toks = f.tokens;
    std::set<std::string> unorderedVars;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "unordered_map") &&
            !isIdent(toks[i], "unordered_set"))
            continue;
        // Declaration form: unordered_xxx < ... > varName
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], '<'))
            continue;
        int angle = 0;
        std::size_t j = i + 1;
        for (; j < toks.size() && j < i + 200; ++j) {
            if (isPunct(toks[j], '<'))
                ++angle;
            else if (isPunct(toks[j], '>') && --angle == 0)
                break;
            else if (isPunct(toks[j], ';'))
                break;
        }
        if (j >= toks.size() || !isPunct(toks[j], '>'))
            continue;
        if (j + 1 < toks.size() &&
            toks[j + 1].kind == TokKind::identifier) {
            unorderedVars.insert(toks[j + 1].text);
            sink.add(f, toks[i].line, "unordered-iter",
                     "'" + toks[j + 1].text + "' is an " +
                         toks[i].text +
                         ": hash-order iteration can leak into "
                         "event ordering; use std::map / sorted "
                         "iteration or justify with an inline "
                         "allow");
        }
    }
    if (unorderedVars.empty())
        return;
    // Iteration sites over those variables (range-for or .begin()).
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::identifier ||
            unorderedVars.count(toks[i].text) == 0)
            continue;
        const bool begins = i + 2 < toks.size() &&
                            isPunct(toks[i + 1], '.') &&
                            (isIdent(toks[i + 2], "begin") ||
                             isIdent(toks[i + 2], "cbegin"));
        bool rangeFor = false;
        if (i >= 2) {
            // look back for `for ( ... :` preceding this use
            for (std::size_t k = i; k-- > 0 && i - k < 24;) {
                if (isPunct(toks[k], ';') || isPunct(toks[k], '{') ||
                    isPunct(toks[k], '}'))
                    break;
                if (isIdent(toks[k], "for")) {
                    for (std::size_t m = k + 1; m < i; ++m) {
                        if (isPunct(toks[m], ':') &&
                            !isPunct(toks[m - 1], ':') &&
                            (m + 1 >= toks.size() ||
                             !isPunct(toks[m + 1], ':'))) {
                            rangeFor = true;
                            break;
                        }
                    }
                    break;
                }
            }
        }
        if (begins || rangeFor) {
            sink.add(f, toks[i].line, "unordered-iter",
                     "iteration over unordered container '" +
                         toks[i].text +
                         "': order is hash-dependent and "
                         "nondeterministic across "
                         "implementations");
        }
    }
}

// ---- pointer-key ---------------------------------------------------

/**
 * File-local names that alias a pointer type: `using Key = T *;`
 * and `typedef T *Key;` (the alias may bury the '*' anywhere in the
 * aliased type, e.g. a pair with a pointer member - ordering on such
 * a key still compares addresses).  Closing the historical blind
 * spot where an aliased key escaped pointerKeyRule's '*' scan.
 */
std::set<std::string>
pointerAliases(const LexedFile &f)
{
    std::set<std::string> out;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isIdent(toks[i], "using") &&
            toks[i + 1].kind == TokKind::identifier &&
            isPunct(toks[i + 2], '=')) {
            for (std::size_t j = i + 3;
                 j < toks.size() && !isPunct(toks[j], ';'); ++j) {
                if (isPunct(toks[j], '*')) {
                    out.insert(toks[i + 1].text);
                    break;
                }
            }
        } else if (isIdent(toks[i], "typedef")) {
            bool ptr = false;
            std::size_t last = 0;
            for (std::size_t j = i + 1;
                 j < toks.size() && !isPunct(toks[j], ';'); ++j) {
                if (isPunct(toks[j], '*'))
                    ptr = true;
                else if (toks[j].kind == TokKind::identifier)
                    last = j;
            }
            if (ptr && last != 0)
                out.insert(toks[last].text);
        }
    }
    return out;
}

/**
 * Ordered containers keyed by raw pointers (`std::set<T *>`,
 * `std::map<T *, ...>`, their multi variants) iterate in *address*
 * order, which varies run to run with the allocator - the same
 * hidden-ordering hazard as unordered-iter, wearing a deterministic
 * costume.  A custom comparator over stable fields makes such a
 * container legitimate (the event queue's (when, priority, sequence)
 * set is the canonical example); those cases carry an inline allow
 * naming the comparator.  Keys spelled through a file-local pointer
 * alias (`using Key = T *;`) are caught via pointerAliases().
 */
void
pointerKeyRule(const LexedFile &f, Sink &sink)
{
    if (f.isTest)
        return;
    static const std::set<std::string> orderedContainers = {
        "set", "map", "multiset", "multimap"};
    const auto &toks = f.tokens;
    const std::set<std::string> aliases = pointerAliases(f);
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::identifier ||
            orderedContainers.count(toks[i].text) == 0)
            continue;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], '<'))
            continue;
        // Scan the first template argument (the key type): depth-1
        // tokens up to the first ',' or the closing '>'.
        int angle = 1;
        bool keyHasPointer = false;
        std::string viaAlias;
        bool closed = false;
        for (std::size_t j = i + 2;
             j < toks.size() && j < i + 200; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, '<')) {
                ++angle;
            } else if (isPunct(t, '>')) {
                if (--angle == 0) {
                    closed = true;
                    break;
                }
            } else if (isPunct(t, ';')) {
                break; // not a template-argument list after all
            } else if (angle == 1 && isPunct(t, ',')) {
                closed = true;
                break; // end of the key type
            } else if (isPunct(t, '*')) {
                keyHasPointer = true;
            } else if (angle == 1 &&
                       t.kind == TokKind::identifier &&
                       aliases.count(t.text) > 0) {
                keyHasPointer = true;
                viaAlias = t.text;
            }
        }
        if (closed && keyHasPointer) {
            sink.add(f, toks[i].line, "pointer-key",
                     "ordered '" + toks[i].text +
                         "' keyed by a raw pointer" +
                         (viaAlias.empty()
                              ? std::string()
                              : " (via the '" + viaAlias +
                                    "' alias)") +
                         " iterates in "
                         "address order, which varies run to run; "
                         "key by a stable id/value, or justify a "
                         "deterministic custom comparator with an "
                         "inline allow");
        }
    }
}

// ---- static-mutable ------------------------------------------------

/**
 * Decide whether the parens opening at @p open hold constructor
 * arguments (`static Histogram h(0.0, 1.0, 64);` - a mutable static
 * object, historically a blind spot) or a parameter list
 * (`static void helper(int);` - a function declaration).  Value-ish
 * arguments - literals and lowercase-initial identifier chains -
 * mean ctor; type-ish ones ('*'/'&', builtin type keywords, two
 * adjacent identifiers, a lone CamelCase identifier, template
 * angles, '=' defaults) or an empty list mean parameters.  The
 * whole declaration must end in ';' right after the ')'.
 */
bool
ctorInitArgs(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    std::size_t close = open;
    for (; close < toks.size(); ++close) {
        if (isPunct(toks[close], '('))
            ++depth;
        else if (isPunct(toks[close], ')') && --depth == 0)
            break;
    }
    if (close >= toks.size() || close == open + 1)
        return false; // unterminated, or `()`
    if (close + 1 >= toks.size() || !isPunct(toks[close + 1], ';'))
        return false; // `{` body, `const`, ... - not a plain decl
    static const std::set<std::string> typeWords = {
        "void",     "bool",     "char",     "short",   "int",
        "long",     "signed",   "unsigned", "float",   "double",
        "const",    "auto",     "std",      "size_t",  "int8_t",
        "int16_t",  "int32_t",  "int64_t",  "uint8_t", "uint16_t",
        "uint32_t", "uint64_t",
    };
    bool anyValue = false;
    for (std::size_t j = open + 1; j < close; ++j) {
        const Token &t = toks[j];
        if (isPunct(t, '*') || isPunct(t, '&') || isPunct(t, '=') ||
            isPunct(t, '<'))
            return false;
        if (t.kind != TokKind::identifier) {
            if (t.kind == TokKind::number ||
                t.kind == TokKind::str || t.kind == TokKind::chr)
                anyValue = true;
            continue;
        }
        if (typeWords.count(t.text) > 0)
            return false;
        if (j + 1 < toks.size() &&
            toks[j + 1].kind == TokKind::identifier)
            return false; // `Type name` pair
        if (t.text[0] >= 'A' && t.text[0] <= 'Z') {
            // A lone CamelCase identifier reads as an unnamed
            // parameter type unless it is being used in an
            // expression (a call or qualified name).
            if (j + 1 >= toks.size() ||
                (!isPunct(toks[j + 1], '(') &&
                 !isPunct(toks[j + 1], ':') &&
                 !isPunct(toks[j + 1], '.')))
                return false;
            continue;
        }
        anyValue = true;
    }
    return anyValue;
}

void
staticMutableRule(const LexedFile &f, Sink &sink)
{
    if (f.isTest)
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static"))
            continue;
        if (i + 1 >= toks.size())
            break;
        const Token &next = toks[i + 1];
        if (isIdent(next, "const") || isIdent(next, "constexpr") ||
            isIdent(next, "constinit") || isIdent(next, "assert"))
            continue;
        // Walk to the first structural token: '(' first means a
        // function declaration, '=' / ';' / '{' first means a
        // mutable static object.
        int angle = 0;
        bool flagged = false;
        for (std::size_t j = i + 1;
             j < toks.size() && j < i + 100; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, '<'))
                ++angle;
            else if (isPunct(t, '>'))
                angle = std::max(0, angle - 1);
            if (angle > 0)
                continue;
            if (isPunct(t, '(')) {
                // Parens are a function's parameter list unless
                // they hold constructor arguments: `static Foo
                // foo(seed);` is as mutable as `static Foo foo;`.
                flagged = ctorInitArgs(toks, j);
                break;
            }
            if (isPunct(t, '=') || isPunct(t, ';') ||
                isPunct(t, '{')) {
                flagged = true;
                break;
            }
        }
        if (flagged) {
            sink.add(f, toks[i].line, "static-mutable",
                     "mutable 'static' state in sim code breaks "
                         "run isolation and checkpoint coverage; "
                         "make it a member, const, or justify with "
                         "an inline allow");
        }
    }
}

// ---- void-discard --------------------------------------------------

void
voidDiscardRule(const LexedFile &f, Sink &sink)
{
    if (f.isTest)
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        // static_cast<void>(...)
        if (isIdent(toks[i], "static_cast") &&
            isPunct(toks[i + 1], '<') &&
            isIdent(toks[i + 2], "void")) {
            sink.add(f, toks[i].line, "void-discard",
                     "static_cast<void> launders a [[nodiscard]] "
                     "result; handle the Status/Result instead");
            continue;
        }
        // ( void ) <expr containing a call> ;
        if (!(isPunct(toks[i], '(') && isIdent(toks[i + 1], "void") &&
              isPunct(toks[i + 2], ')')))
            continue;
        if (i + 3 >= toks.size() ||
            toks[i + 3].kind != TokKind::identifier)
            continue; // parameter list `(void)` or cast of nothing
        bool hasCall = false;
        for (std::size_t j = i + 3;
             j < toks.size() && j < i + 300; ++j) {
            if (isPunct(toks[j], ';'))
                break;
            if (isPunct(toks[j], '(')) {
                hasCall = true;
                break;
            }
        }
        if (hasCall) {
            sink.add(f, toks[i].line, "void-discard",
                     "'(void)' cast discards a call's return "
                     "value; Status/Result are [[nodiscard]] so "
                     "handle the outcome (count it, log it, or "
                     "propagate it)");
        }
    }
}

// ---- post-init-fatal -----------------------------------------------

/**
 * Files whose fatal() calls are their documented contract: the
 * logging module defines it, and the by-name lookup helpers
 * (apps/spec/app_model) promise fatal() on an unknown name in their
 * headers - all pre-run, user-asked-for-the-impossible paths.
 */
bool
fatalAllowlisted(const std::string &path)
{
    static const char *const prefixes[] = {
        "base/logging.",
        "workload/apps.",
        "workload/spec.",
        "workload/app_model.",
    };
    for (const char *p : prefixes) {
        if (path.find(p) != std::string::npos)
            return true;
    }
    return false;
}

/**
 * Flag fatal() calls in sim code.  Once a run is in flight, dying
 * takes every other seed in the sweep down with it; recoverable
 * conditions must surface as Status/Result so the supervisor can
 * roll back and retry (docs/ROBUSTNESS.md §8).  Construction-time
 * config validation is still legitimate - justified per site with an
 * inline allow naming the reason.
 */
void
postInitFatalRule(const LexedFile &f, Sink &sink)
{
    if (f.isTest || fatalAllowlisted(f.path))
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "fatal") || !isPunct(toks[i + 1], '('))
            continue;
        // Skip declarations/definitions of fatal itself: a return
        // type or 'void' directly before the name.
        if (i > 0 && (isIdent(toks[i - 1], "void") ||
                      isPunct(toks[i - 1], ']')))
            continue;
        sink.add(f, toks[i].line, "post-init-fatal",
                 "fatal() kills the whole run (and every other seed "
                 "in a sweep); return a Status/Result the caller or "
                 "the supervisor can recover from, or justify "
                 "construction-time validation with an inline "
                 "allow");
    }
}

// ---- config-key ----------------------------------------------------

void
configKeyRule(const ScanInput &in, Sink &sink)
{
    for (const auto &f : in.files) {
        if (f.isTest)
            continue;
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            if (!isIdent(toks[i], "key") ||
                !isPunct(toks[i + 1], '=') ||
                !isPunct(toks[i + 2], '='))
                continue;
            if (toks[i + 3].kind != TokKind::str)
                continue;
            const std::string &lit = toks[i + 3].text;
            if (in.docsText.find(lit) == std::string::npos) {
                sink.add(f, toks[i + 3].line, "config-key",
                         "config key '" + lit +
                             "' is not documented in "
                             "EXPERIMENTS.md or docs/ (add it to "
                             "the config reference, docs/"
                             "CONFIG.md)");
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "wall-clock",     "unordered-iter", "pointer-key",
        "static-mutable", "void-discard",   "config-key",
        "post-init-fatal",
        // absema (semantic) rules, sema_rules.cc:
        "serialize-coverage", "rng-stream", "layer-cycle",
        "status-drop", "stale-allow",
    };
    return names;
}

std::vector<Finding>
runRules(const ScanInput &in, AllowUse *uses, RuleProfile *profile)
{
    std::vector<Finding> findings;
    Sink sink{findings, uses};
    const struct
    {
        const char *name;
        void (*fn)(const LexedFile &, Sink &);
    } fileRules[] = {
        {"wall-clock", wallClockRule},
        {"unordered-iter", unorderedIterRule},
        {"pointer-key", pointerKeyRule},
        {"static-mutable", staticMutableRule},
        {"void-discard", voidDiscardRule},
        {"post-init-fatal", postInitFatalRule},
    };
    for (const auto &r : fileRules) {
        detail::timeRule(profile, r.name, [&] {
            for (const auto &f : in.files)
                r.fn(f, sink);
        });
    }
    detail::timeRule(profile, "config-key",
                     [&] { configKeyRule(in, sink); });
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

} // namespace biglittle::ablint
