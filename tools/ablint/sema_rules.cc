/**
 * @file
 * absema: the semantic rule pass.  Reasoning over the entity model
 * (model.hh) instead of single lines, it proves the cross-declaration
 * invariants ablint's lexical rules cannot see:
 *
 *  - serialize-coverage  every class that defines a serialize flavor
 *                        defines its deserialize twin and is
 *                        registered in serialized_state.txt, every
 *                        registry entry is live, every plain-value
 *                        data member of a registered class is
 *                        referenced by both the serialize and
 *                        deserialize bodies, and the two emit the
 *                        same wire-op sequence;
 *  - schema-drift        the committed per-class field digests
 *                        (state_schema.txt) match the code, and field
 *                        changes come with a checkpointVersion bump;
 *  - rng-stream          explicit Rng seeds trace to
 *                        deriveStreamSeed()/namedStream()/fork();
 *  - layer-cycle         the #include graph respects the src/ layer
 *                        ranks and is acyclic.
 *
 * Plus stale-allow, the mirror of stale-baseline for inline
 * directives, fed by the AllowUse ledger both passes maintain.
 */

#include "model.hh"

#include "sink.hh"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <sstream>
#include <tuple>

namespace biglittle::ablint
{

namespace
{

using detail::Sink;
using detail::isIdent;
using detail::isPunct;
using detail::lineAllows;

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

std::string
hex16(std::uint64_t v)
{
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << v;
    return out.str();
}

/* ------------------------------------------------------------------ */
/* serialize-coverage                                                  */
/* ------------------------------------------------------------------ */

/**
 * Members outside the wire contract: statics/constexpr, pointers and
 * references (wiring, re-established on restore), const members
 * (construction-time config), std::function callbacks, and *Params /
 * *Spec config structs (restore rebuilds the component tree from the
 * same experiment config before deserializing state into it).
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

/** The serialize/deserialize flavor pairs a class may implement. */
struct Flavor
{
    const char *put;
    const char *get;
};

constexpr Flavor flavors[] = {
    {"serialize", "deserialize"},
    {"serializeState", "deserializeState"},
    {"serializePolicy", "deserializePolicy"},
};

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
 * Canonical wire-op name for a callee on the write (@p put) or read
 * side.  getCount() pairs with putU64() by the Serializer's own
 * contract; a nested serialize/deserialize (any flavor) is one "sub"
 * op.  Empty string: not a wire op.
 */
std::string
wireOp(const std::string &callee, bool put)
{
    static const std::map<std::string, std::string> putMap = {
        {"putU64", "u64"},   {"putU32", "u32"},
        {"putU8", "u8"},     {"putI64", "i64"},
        {"putDouble", "f64"}, {"putString", "str"},
        {"putBool", "bool"}, {"putBytes", "bytes"},
        {"serialize", "sub"}, {"serializeState", "sub"},
        {"serializePolicy", "sub"},
    };
    static const std::map<std::string, std::string> getMap = {
        {"getU64", "u64"},   {"getCount", "u64"},
        {"getU32", "u32"},   {"getU8", "u8"},
        {"getI64", "i64"},   {"getDouble", "f64"},
        {"getString", "str"}, {"getBool", "bool"},
        {"getBytes", "bytes"},
        {"deserialize", "sub"}, {"deserializeState", "sub"},
        {"deserializePolicy", "sub"},
    };
    const auto &table = put ? putMap : getMap;
    const auto it = table.find(callee);
    return it == table.end() ? std::string() : it->second;
}

struct WireSite
{
    std::string op;
    std::string callee;
    int line = 0;
};

std::vector<WireSite>
wireOps(const FunctionDef &fn, bool put)
{
    std::vector<WireSite> ops;
    const auto &toks = fn.file->tokens;
    for (std::size_t i = fn.bodyBegin;
         i + 1 < fn.bodyEnd && i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::identifier ||
            !isPunct(toks[i + 1], '('))
            continue;
        std::string op = wireOp(toks[i].text, put);
        if (!op.empty())
            ops.push_back({std::move(op), toks[i].text,
                           toks[i].line});
    }
    return ops;
}

void
serializeCoverage(const Model &m,
                  const std::vector<RegistryEntry> &reg,
                  Sink &sink)
{
    for (const auto &entry : reg) {
        const ClassInfo *cls = m.findClass(entry.className);
        if (cls == nullptr || cls->file->isTest)
            continue;
        std::vector<std::pair<const FunctionDef *,
                              const FunctionDef *>> pairs;
        for (const Flavor &fl : flavors) {
            const FunctionDef *put = classFn(m, *cls, fl.put);
            const FunctionDef *get = classFn(m, *cls, fl.get);
            if (put != nullptr && get != nullptr)
                pairs.push_back({put, get});
        }
        if (pairs.empty())
            continue;

        // Member coverage: each plain-value member must be touched
        // by some write body and some read body (base/derived
        // flavors split the state between them).
        for (const Member &mem : cls->members) {
            if (memberExempt(mem))
                continue;
            bool written = false;
            bool read = false;
            for (const auto &[put, get] : pairs) {
                written = written || bodyReferences(*put, mem.name);
                read = read || bodyReferences(*get, mem.name);
            }
            if (written && read)
                continue;
            std::string msg = "member '" + mem.name + "' of '" +
                              cls->qualName + "' is ";
            if (written)
                msg += "written by " +
                       std::string(pairs[0].first->name) +
                       "() but never read back on restore";
            else if (read)
                msg += "read on restore but never written by " +
                       std::string(pairs[0].first->name) + "()";
            else
                msg += "not referenced by its serialize/deserialize "
                       "pair";
            msg += "; serialize it (and bump checkpointVersion) or "
                   "justify with an inline allow";
            sink.add(*cls->file, mem.line, "serialize-coverage",
                     msg);
        }

        // Wire symmetry: the ordered op sequence emitted by the
        // write body must equal the one consumed by the read body.
        for (const auto &[put, get] : pairs) {
            const auto wr = wireOps(*put, true);
            const auto rd = wireOps(*get, false);
            const std::size_t common =
                std::min(wr.size(), rd.size());
            std::size_t k = 0;
            while (k < common && wr[k].op == rd[k].op)
                ++k;
            if (k == wr.size() && k == rd.size())
                continue;
            std::ostringstream msg;
            msg << "wire-format mismatch between "
                << cls->qualName << "::" << put->name << " and "
                << cls->qualName << "::" << get->name << ": ";
            if (k < common) {
                msg << "op " << (k + 1) << " writes '"
                    << wr[k].callee << "' (line " << wr[k].line
                    << ") but reads '" << rd[k].callee
                    << "' (line " << rd[k].line << ")";
            } else if (wr.size() > rd.size()) {
                msg << "write side emits " << wr.size()
                    << " wire ops, read side consumes "
                    << rd.size() << " (first unread: '"
                    << wr[k].callee << "' at line " << wr[k].line
                    << ")";
            } else {
                msg << "read side consumes " << rd.size()
                    << " wire ops, write side emits " << wr.size()
                    << " (first unmatched read: '" << rd[k].callee
                    << "' at line " << rd[k].line << ")";
            }
            sink.add(*put->file, put->line, "serialize-coverage",
                     msg.str());
        }
    }
}

constexpr const char *registryPathName =
    "tools/ablint/serialized_state.txt";

/**
 * The registry, both ways.  Every src/ class that defines a
 * serialize flavor defines the matching deserialize flavor and is
 * registered; every entry names such a class, and its cover is a
 * registered class or a checkpoint section string literal in src/.
 * So new state cannot ship without naming the section that captures
 * it.
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
        if (cls.file->isTest)
            continue;
        for (const Flavor &fl : flavors) {
            const FunctionDef *put = classFn(m, cls, fl.put);
            if (put == nullptr)
                continue;
            serializable.insert(&cls);
            if (classFn(m, cls, fl.get) == nullptr) {
                sink.add(*put->file, put->line, "serialize-coverage",
                         "'" + cls.qualName + "' defines " + fl.put +
                             "() without " + fl.get +
                             "(): state would be captured but not "
                             "restorable");
            }
        }
        if (serializable.count(&cls) > 0 &&
            registered.count(&cls) == 0) {
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
/* schema-drift                                                        */
/* ------------------------------------------------------------------ */

constexpr const char *schemaPathName =
    "tools/ablint/state_schema.txt";

struct Manifest
{
    bool present = false;
    bool hasVersion = false;
    std::uint64_t version = 0;
    int versionLine = 0;

    /** class name -> (hex digest, manifest line). */
    std::map<std::string, std::pair<std::string, int>> digests;
};

Manifest
parseManifest(const std::string &text)
{
    Manifest man;
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream fields(line);
        std::string a, b;
        if (!(fields >> a))
            continue;
        man.present = true;
        if (a == "version") {
            if (fields >> b) {
                man.hasVersion = true;
                man.version = std::stoull(b);
                man.versionLine = lineNo;
            }
            continue;
        }
        if (fields >> b)
            man.digests[a] = {b, lineNo};
    }
    return man;
}

/**
 * The field-schema digest of one registered class: fnv1a64 over the
 * declaration-ordered name:type lines of its wire members (the same
 * set serialize-coverage polices: plain-value members without an
 * inline serialize-coverage allow).
 */
std::uint64_t
classDigest(const ClassInfo &cls)
{
    std::string text = cls.qualName + "\n";
    for (const Member &mem : cls.members) {
        if (memberExempt(mem))
            continue;
        if (lineAllows(*cls.file, mem.line, "serialize-coverage"))
            continue;
        text += mem.name + ":" + mem.type + "\n";
    }
    return fnv1a64(text);
}

/** Digests of every registry class the model can see. */
std::map<std::string, std::pair<std::uint64_t, const ClassInfo *>>
computeDigests(const Model &m,
               const std::vector<RegistryEntry> &reg)
{
    std::map<std::string, std::pair<std::uint64_t, const ClassInfo *>>
        out;
    for (const auto &entry : reg) {
        const ClassInfo *cls = m.findClass(entry.className);
        if (cls == nullptr || cls->file->isTest)
            continue;
        out[entry.className] = {classDigest(*cls), cls};
    }
    return out;
}

/** checkpointVersion from src/snapshot/checkpoint.hh, or -1. */
long long
findCheckpointVersion(const ScanInput &in)
{
    for (const LexedFile &f : in.files) {
        if (f.path.find("snapshot/checkpoint.hh") ==
            std::string::npos)
            continue;
        const auto &toks = f.tokens;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (isIdent(toks[i], "checkpointVersion") &&
                isPunct(toks[i + 1], '=') &&
                toks[i + 2].kind == TokKind::number)
                return std::stoll(toks[i + 2].text);
        }
    }
    return -1;
}

void
schemaDrift(const ScanInput &in, const Model &m,
            const std::vector<RegistryEntry> &reg,
            Sink &sink, std::vector<Finding> &out)
{
    const auto digests = computeDigests(m, reg);
    if (digests.empty())
        return; // nothing serialized in this input
    const Manifest man = parseManifest(in.schemaText);
    if (!man.present) {
        out.push_back({schemaPathName, 1, "schema-drift",
                       "missing or empty state_schema.txt; generate "
                       "it with `ablint --write-schema`"});
        return;
    }
    const long long version = findCheckpointVersion(in);
    if (version >= 0 && man.hasVersion &&
        man.version != static_cast<std::uint64_t>(version)) {
        std::ostringstream msg;
        msg << "manifest was written at checkpointVersion "
            << man.version << " but src/snapshot/checkpoint.hh says "
            << version << "; rerun `ablint --write-schema`";
        out.push_back({schemaPathName, man.versionLine,
                       "schema-drift", msg.str()});
        return; // per-class diffs would only repeat the story
    }
    for (const auto &[name, entry] : digests) {
        const auto &[digest, cls] = entry;
        const auto it = man.digests.find(name);
        if (it == man.digests.end()) {
            sink.add(*cls->file, cls->line, "schema-drift",
                     "serialized class '" + name +
                         "' has no digest in state_schema.txt; run "
                         "`ablint --write-schema`");
            continue;
        }
        if (it->second.first != hex16(digest)) {
            sink.add(*cls->file, cls->line, "schema-drift",
                     "field schema of '" + name +
                         "' changed (digest " + hex16(digest) +
                         ", manifest has " + it->second.first +
                         ") without a checkpointVersion bump; bump "
                         "checkpointVersion in "
                         "src/snapshot/checkpoint.hh, then run "
                         "`ablint --write-schema`");
        }
    }
    for (const auto &[name, entry] : man.digests) {
        if (digests.count(name) == 0) {
            out.push_back(
                {schemaPathName, entry.second, "schema-drift",
                 "stale manifest entry '" + name +
                     "' (class gone or unregistered); run `ablint "
                     "--write-schema`"});
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
    detail::timeRule(profile, "schema-drift",
                     [&] { schemaDrift(in, m, reg, sink, out); });
    detail::timeRule(profile, "rng-stream",
                     [&] { rngStream(in, sink); });
    detail::timeRule(profile, "layer-cycle",
                     [&] { layerCycle(in, m, sink); });
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
    const auto flow = runFlowRules(in, &uses, profile);
    out.insert(out.end(), flow.begin(), flow.end());
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

std::string
renderSchemaManifest(const ScanInput &in)
{
    const Model m = buildModel(in.files);
    const auto reg = parseRegistry(in.registryText);
    const auto digests = computeDigests(m, reg);
    const long long version = findCheckpointVersion(in);
    std::ostringstream out;
    out << "# ablint state-schema manifest - regenerate with: "
           "ablint --write-schema\n"
        << "# One fnv1a64 digest per serialized class, over its "
           "declaration-ordered\n"
        << "# name:type wire-field list.  A digest change without a "
           "checkpointVersion\n"
        << "# bump is a schema-drift finding "
           "(docs/STATIC_ANALYSIS.md).\n"
        << "version " << (version < 0 ? 0 : version) << "\n";
    for (const auto &[name, entry] : digests)
        out << name << " " << hex16(entry.first) << "\n";
    return out.str();
}

std::string
schemaRegenBlocked(const ScanInput &in)
{
    const Manifest man = parseManifest(in.schemaText);
    if (!man.present || !man.hasVersion)
        return ""; // first generation is always fine
    const long long version = findCheckpointVersion(in);
    if (version < 0 ||
        man.version != static_cast<std::uint64_t>(version))
        return ""; // version was bumped: regen is the point
    const Model m = buildModel(in.files);
    const auto reg = parseRegistry(in.registryText);
    const auto digests = computeDigests(m, reg);
    std::string changed;
    for (const auto &[name, entry] : digests) {
        const auto it = man.digests.find(name);
        if (it != man.digests.end() &&
            it->second.first != hex16(entry.first)) {
            if (!changed.empty())
                changed += ", ";
            changed += name;
        }
    }
    if (changed.empty())
        return "";
    return "state_schema.txt: field digests changed for {" +
           changed + "} but checkpointVersion is still " +
           std::to_string(version) +
           "; bump checkpointVersion in src/snapshot/checkpoint.hh "
           "before regenerating";
}

} // namespace biglittle::ablint
