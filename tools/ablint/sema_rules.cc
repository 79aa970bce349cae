/**
 * @file
 * absema: the semantic rule pass.  Reasoning over the entity model
 * (model.hh) instead of single lines, it proves the cross-declaration
 * invariants ablint's lexical rules cannot see:
 *
 *  - serialize-coverage  every class that defines a serialize flavor
 *                        is registered in serialized_state.txt, every
 *                        registry entry is live, and every
 *                        plain-value data member of a registered
 *                        class is written by one of its serialize
 *                        flavors;
 *  - rng-stream          explicit Rng seeds trace to
 *                        deriveStreamSeed()/namedStream()/fork();
 *  - layer-cycle         the #include graph respects the src/ layer
 *                        ranks and is acyclic;
 *  - status-drop         a Status/Result local assigned in a function
 *                        body is read before it is overwritten or
 *                        dies.
 *
 * Plus stale-allow: an inline directive that suppresses nothing, or
 * names a rule ablint does not have, is a finding.  It is fed by the
 * AllowUse ledger every pass maintains.
 */

#include "model.hh"

#include "sink.hh"

#include <algorithm>
#include <functional>
#include <sstream>
#include <tuple>

namespace biglittle::ablint
{

namespace
{

using detail::Sink;
using detail::isIdent;
using detail::isPunct;

/** One parsed line of serialized_state.txt. */
struct RegistryEntry
{
    std::string className;
    std::string cover;
    int line = 0;
};

std::vector<RegistryEntry>
parseRegistry(const std::string &text)
{
    std::vector<RegistryEntry> entries;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream fields(line);
        RegistryEntry e;
        e.line = line_no;
        if (fields >> e.className >> e.cover)
            entries.push_back(std::move(e));
    }
    return entries;
}

/* ------------------------------------------------------------------ */
/* serialize-coverage                                                  */
/* ------------------------------------------------------------------ */

/**
 * Members outside the wire contract: statics/constexpr, pointers and
 * references (wiring), const members (construction-time config),
 * std::function callbacks, and *Params / *Spec config structs.
 * Resume and rollback rebuild the component tree from the same
 * experiment config and re-execute, so all of these are re-created
 * rather than read from a checkpoint.
 */
bool
memberExempt(const Member &mem)
{
    if (mem.isStatic)
        return true;
    if (mem.type.find('*') != std::string::npos ||
        mem.type.find('&') != std::string::npos)
        return true;
    if (mem.type.find("function") != std::string::npos)
        return true;
    std::istringstream words(mem.type);
    std::string w;
    while (words >> w) {
        if (w == "const")
            return true;
        const auto ends = [&w](const char *suffix) {
            const std::string s(suffix);
            return w.size() >= s.size() &&
                   w.compare(w.size() - s.size(), s.size(), s) == 0;
        };
        if (ends("Params") || ends("Spec"))
            return true;
    }
    return false;
}

/** The serialize flavors a class may implement. */
constexpr const char *flavors[] = {
    "serialize", "serializeState", "serializePolicy"};

const FunctionDef *
classFn(const Model &m, const ClassInfo &cls, const std::string &name)
{
    const std::string want = cls.qualName + "::" + name;
    const auto it = m.functionsByName.find(name);
    if (it == m.functionsByName.end())
        return nullptr;
    for (const std::size_t idx : it->second) {
        if (m.functions[idx].qualName == want)
            return &m.functions[idx];
    }
    return nullptr;
}

/** The serialize flavors @p cls defines, in flavors[] order. */
std::vector<const FunctionDef *>
serializers(const Model &m, const ClassInfo &cls)
{
    std::vector<const FunctionDef *> out;
    for (const char *name : flavors) {
        if (const FunctionDef *fn = classFn(m, cls, name))
            out.push_back(fn);
    }
    return out;
}

bool
bodyReferences(const FunctionDef &fn, const std::string &name)
{
    const auto &toks = fn.file->tokens;
    for (std::size_t i = fn.bodyBegin;
         i < fn.bodyEnd && i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::identifier &&
            toks[i].text == name)
            return true;
    }
    return false;
}

/**
 * Member coverage: each plain-value member of a registered class is
 * referenced by one of its serialize flavors (base/derived flavors
 * split the state between them).
 */
void
serializeCoverage(const Model &m,
                  const std::vector<RegistryEntry> &reg,
                  Sink &sink)
{
    for (const auto &entry : reg) {
        const ClassInfo *cls = m.findClass(entry.className);
        if (cls == nullptr || cls->file->isTest)
            continue;
        const auto puts = serializers(m, *cls);
        if (puts.empty())
            continue;
        for (const Member &mem : cls->members) {
            if (memberExempt(mem))
                continue;
            bool written = false;
            for (const FunctionDef *put : puts)
                written = written || bodyReferences(*put, mem.name);
            if (written)
                continue;
            sink.add(*cls->file, mem.line, "serialize-coverage",
                     "member '" + mem.name + "' of '" +
                         cls->qualName + "' is not written by " +
                         puts[0]->name +
                         "(); serialize it (and bump "
                         "checkpointVersion) or justify with an "
                         "inline allow");
        }
    }
}

constexpr const char *registryPathName =
    "tools/ablint/serialized_state.txt";

/**
 * The registry, both ways.  Every src/ class that defines a
 * serialize flavor is registered; every entry names such a class,
 * and its cover is a registered class or a checkpoint section string
 * literal in src/.  So new state cannot ship without naming the
 * section that captures it.
 */
void
serializeRegistry(const ScanInput &in, const Model &m,
                  const std::vector<RegistryEntry> &reg, Sink &sink,
                  std::vector<Finding> &out)
{
    std::set<const ClassInfo *> registered;
    std::set<std::string> registeredNames;
    for (const auto &entry : reg) {
        registered.insert(m.findClass(entry.className));
        registeredNames.insert(entry.className);
    }
    std::set<const ClassInfo *> serializable;
    for (const ClassInfo &cls : m.classes) {
        if (cls.file->isTest || serializers(m, cls).empty())
            continue;
        serializable.insert(&cls);
        if (registered.count(&cls) == 0) {
            sink.add(*cls.file, cls.line, "serialize-coverage",
                     "serializable class '" + cls.qualName +
                         "' is not registered in " +
                         registryPathName +
                         "; map it to its checkpoint section (or "
                         "the registered component that serializes "
                         "it)");
        }
    }

    std::set<std::string> literals;
    for (const LexedFile &f : in.files) {
        if (f.isTest)
            continue;
        for (const Token &t : f.tokens)
            if (t.kind == TokKind::str)
                literals.insert(t.text);
    }
    for (const auto &entry : reg) {
        if (serializable.count(m.findClass(entry.className)) == 0) {
            out.push_back({registryPathName, entry.line,
                           "serialize-coverage",
                           "registry entry '" + entry.className +
                               "' matches no serializable class in "
                               "src/ (renamed or removed?)"});
        }
        if (registeredNames.count(entry.cover) == 0 &&
            literals.count(entry.cover) == 0) {
            out.push_back({registryPathName, entry.line,
                           "serialize-coverage",
                           "cover '" + entry.cover + "' of '" +
                               entry.className +
                               "' is neither a registered class nor "
                               "a checkpoint section string literal "
                               "in src/"});
        }
    }
}

/* ------------------------------------------------------------------ */
/* rng-stream                                                          */
/* ------------------------------------------------------------------ */

bool
blessedSeedIdent(const Token &t)
{
    return t.kind == TokKind::identifier &&
           (t.text == "deriveStreamSeed" ||
            t.text == "namedStream" || t.text == "fork");
}

/**
 * Does @p name get assigned (`name = ...;`) from a blessed seed
 * derivation somewhere in @p f?  Single-file, flow-insensitive - the
 * rule's documented approximation.
 */
bool
identTracesToBlessed(const LexedFile &f, const std::string &name)
{
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], name.c_str()) ||
            !isPunct(toks[i + 1], '='))
            continue;
        if (i + 2 < toks.size() && isPunct(toks[i + 2], '='))
            continue; // ==
        for (std::size_t j = i + 2;
             j < toks.size() && !isPunct(toks[j], ';'); ++j) {
            if (blessedSeedIdent(toks[j]))
                return true;
        }
    }
    return false;
}

void
rngStream(const ScanInput &in, Sink &sink)
{
    for (const LexedFile &f : in.files) {
        if (f.isTest ||
            f.path.find("base/random.") != std::string::npos)
            continue;
        const auto &toks = f.tokens;
        const std::size_t n = toks.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (!isIdent(toks[i], "Rng"))
                continue;
            if (i > 0 && (isIdent(toks[i - 1], "class") ||
                          isIdent(toks[i - 1], "struct")))
                continue;
            // `biglittle::Rng` qualification, not a ternary ':'.
            if (i > 1 && isPunct(toks[i - 1], ':') &&
                isPunct(toks[i - 2], ':'))
                continue;
            if (i + 1 < n && isPunct(toks[i + 1], ':'))
                continue; // Rng::something
            // `Rng(args)` (temporary) or `Rng name(args)` /
            // `Rng name{args}` (declaration with initializer).
            std::size_t open = static_cast<std::size_t>(-1);
            if (i + 1 < n && (isPunct(toks[i + 1], '(') ||
                              isPunct(toks[i + 1], '{')))
                open = i + 1;
            else if (i + 2 < n &&
                     toks[i + 1].kind == TokKind::identifier &&
                     (isPunct(toks[i + 2], '(') ||
                      isPunct(toks[i + 2], '{')))
                open = i + 2;
            if (open == static_cast<std::size_t>(-1))
                continue;
            const char oc = toks[open].text[0];
            const char cc = oc == '(' ? ')' : '}';
            std::vector<std::size_t> args;
            int depth = 0;
            std::size_t j = open;
            for (; j < n; ++j) {
                if (isPunct(toks[j], oc)) {
                    ++depth;
                } else if (isPunct(toks[j], cc)) {
                    if (--depth == 0)
                        break;
                } else if (depth > 0) {
                    args.push_back(j);
                }
            }
            if (args.empty())
                continue; // default-constructed: no seed chosen
            bool blessed = false;
            for (const std::size_t a : args)
                blessed = blessed || blessedSeedIdent(toks[a]);
            if (!blessed && args.size() == 1 &&
                toks[args[0]].kind == TokKind::identifier)
                blessed = identTracesToBlessed(
                    f, toks[args[0]].text);
            if (!blessed) {
                sink.add(f, toks[i].line, "rng-stream",
                         "Rng seeded from an expression not derived "
                         "via deriveStreamSeed()/namedStream()/"
                         "fork(); ad-hoc seeds fork the determinism "
                         "contract (docs/DETERMINISM.md)");
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* layer-cycle                                                         */
/* ------------------------------------------------------------------ */

/** Layer rank of a src/ directory; -1 when unranked. */
int
layerRank(const std::string &dir)
{
    static const std::map<std::string, int> ranks = {
        {"base", 0},     {"sim", 10},      {"snapshot", 20},
        {"platform", 20}, {"sched", 30},    {"governor", 30},
        {"trace", 40},   {"workload", 40}, {"fault", 40},
        {"core", 50},    {"fuzz", 60},     {"supervise", 60},
    };
    const auto it = ranks.find(dir);
    return it == ranks.end() ? -1 : it->second;
}

/** "src/sched/hmp.hh" -> "sched"; "" when not a src/ subdir path. */
std::string
srcDirOf(const std::string &path)
{
    const std::string prefix = "src/";
    const auto at = path.rfind(prefix, 0) == 0
                        ? prefix.size()
                        : std::string::npos;
    if (at == std::string::npos)
        return "";
    const auto slash = path.find('/', at);
    if (slash == std::string::npos)
        return "";
    return path.substr(at, slash - at);
}

void
layerCycle(const ScanInput &in, const Model &m, Sink &sink)
{
    // Back/cross-edges against the layer ranks.
    for (const IncludeEdge &e : m.includes) {
        if (e.file->isTest)
            continue;
        const std::string from = srcDirOf(e.file->path);
        const auto slash = e.target.find('/');
        if (slash == std::string::npos)
            continue;
        const std::string to = e.target.substr(0, slash);
        const int fromRank = layerRank(from);
        const int toRank = layerRank(to);
        if (fromRank < 0 || toRank < 0 || from == to ||
            toRank < fromRank)
            continue;
        std::ostringstream msg;
        msg << "include of \"" << e.target << "\" (layer '" << to
            << "', rank " << toRank << ") from layer '" << from
            << "' (rank " << fromRank
            << ") is a layering back-edge; the order is base < sim "
               "< {snapshot,platform} < {sched,governor} < "
               "{trace,workload,fault} < core < {fuzz,supervise} "
               "(docs/STATIC_ANALYSIS.md)";
        sink.add(*e.file, e.line, "layer-cycle", msg.str());
    }

    // File-level include cycles (catches same-layer loops the rank
    // check cannot).
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < in.files.size(); ++i) {
        if (!in.files[i].isTest)
            byPath[in.files[i].path] = i;
    }
    struct Edge
    {
        std::size_t to;
        int line;
        std::string target;
    };
    std::vector<std::vector<Edge>> adj(in.files.size());
    for (const IncludeEdge &e : m.includes) {
        if (e.file->isTest)
            continue;
        const auto self = byPath.find(e.file->path);
        const auto tgt = byPath.find("src/" + e.target);
        if (self == byPath.end() || tgt == byPath.end())
            continue;
        adj[self->second].push_back(
            {tgt->second, e.line, e.target});
    }
    std::vector<char> color(in.files.size(), 0); // 0 w, 1 g, 2 b
    std::vector<std::size_t> stack;
    // Iterative DFS carrying the gray stack for path reconstruction.
    std::function<void(std::size_t)> dfs = [&](std::size_t at) {
        color[at] = 1;
        stack.push_back(at);
        for (const Edge &e : adj[at]) {
            if (color[e.to] == 1) {
                std::string path;
                bool seen = false;
                for (const std::size_t s : stack) {
                    if (s == e.to)
                        seen = true;
                    if (!seen)
                        continue;
                    if (!path.empty())
                        path += " -> ";
                    path += in.files[s].path;
                }
                path += " -> " + in.files[e.to].path;
                sink.add(in.files[at], e.line, "layer-cycle",
                         "include cycle: " + path);
            } else if (color[e.to] == 0) {
                dfs(e.to);
            }
        }
        stack.pop_back();
        color[at] = 2;
    };
    for (std::size_t i = 0; i < in.files.size(); ++i) {
        if (color[i] == 0 && !in.files[i].isTest)
            dfs(i);
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
    StatusDropScanner(const FunctionDef &fn, Sink &sink)
        : f(*fn.file), toks(f.tokens), b(fn.bodyBegin),
          e(fn.bodyEnd), sink(sink)
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
statusDrop(const Model &m, Sink &sink)
{
    for (const FunctionDef &fn : m.functions) {
        if (fn.file->isTest)
            continue;
        StatusDropScanner(fn, sink).run();
    }
}

} // namespace

/* ------------------------------------------------------------------ */
/* pass entry points                                                   */
/* ------------------------------------------------------------------ */

std::vector<Finding>
runSemaRules(const ScanInput &in, AllowUse *uses,
             RuleProfile *profile)
{
    std::vector<Finding> out;
    Sink sink{out, uses};
    Model m;
    detail::timeRule(profile, "sema-model-build",
                     [&] { m = buildModel(in.files); });
    const auto reg = parseRegistry(in.registryText);
    detail::timeRule(profile, "serialize-coverage", [&] {
        serializeRegistry(in, m, reg, sink, out);
        serializeCoverage(m, reg, sink);
    });
    detail::timeRule(profile, "rng-stream",
                     [&] { rngStream(in, sink); });
    detail::timeRule(profile, "layer-cycle",
                     [&] { layerCycle(in, m, sink); });
    detail::timeRule(profile, "status-drop",
                     [&] { statusDrop(m, sink); });
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule,
                                  a.message) <
                         std::tie(b.file, b.line, b.rule,
                                  b.message);
              });
    return out;
}

std::vector<Finding>
staleAllowFindings(const ScanInput &in, const AllowUse &uses)
{
    std::vector<Finding> out;
    const auto &known = ruleNames();
    for (const LexedFile &f : in.files) {
        for (const AllowDirective &d : f.directives) {
            for (const std::string &rule : d.rules) {
                if (std::find(known.begin(), known.end(), rule) ==
                    known.end()) {
                    out.push_back(
                        {f.path, d.line, "stale-allow",
                         "unknown rule '" + rule +
                             "' in ablint:allow directive"});
                    continue;
                }
                bool used = false;
                for (const int l : {d.line, d.line + 1}) {
                    const auto it = uses.find({f.path, l});
                    used = used ||
                           (it != uses.end() &&
                            it->second.count(rule) > 0);
                }
                if (!used) {
                    out.push_back(
                        {f.path, d.line, "stale-allow",
                         "ablint:allow(" + rule +
                             ") suppresses nothing; remove the "
                             "stale directive"});
                }
            }
        }
    }
    return out;
}

std::vector<Finding>
runAllRules(const ScanInput &in, RuleProfile *profile)
{
    AllowUse uses;
    std::vector<Finding> out = runRules(in, &uses, profile);
    const auto sema = runSemaRules(in, &uses, profile);
    out.insert(out.end(), sema.begin(), sema.end());
    const auto stale = staleAllowFindings(in, uses);
    out.insert(out.end(), stale.begin(), stale.end());
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
