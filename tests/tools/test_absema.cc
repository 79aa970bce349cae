/**
 * @file
 * absema's test suite: golden tests for the entity-model parser
 * (templates, nested classes, macros, default member initializers,
 * out-of-line definitions, ctor init-lists), positive and negative
 * coverage for every semantic rule (serialize-coverage, rng-stream,
 * layer-cycle, status-drop, stale-allow), post-init-fatal on call
 * chains below Experiment::runApp, the --profile timings, and the CI
 * output formats.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ablint/ablint.hh"
#include "ablint/model.hh"

namespace ablint = biglittle::ablint;

namespace
{

ablint::ScanInput
input(const std::vector<std::pair<std::string, std::string>> &files,
      const std::string &registryText = "")
{
    ablint::ScanInput in;
    for (const auto &[path, text] : files)
        in.files.push_back(ablint::lexString(path, text));
    in.registryText = registryText;
    return in;
}

std::vector<ablint::Finding>
ofRule(const std::vector<ablint::Finding> &findings,
       const std::string &rule)
{
    std::vector<ablint::Finding> out;
    for (const auto &f : findings)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

/**
 * input() with Box registered against the "runtime" checkpoint
 * section, plus a file that names that section (serialize-coverage
 * checks that every registry cover exists).
 */
ablint::ScanInput
boxInput(std::vector<std::pair<std::string, std::string>> files)
{
    files.push_back(
        {"src/core/rig.cc", "section(\"runtime\", fill);\n"});
    return input(files, "Box runtime\n");
}

const ablint::ClassInfo *
classNamed(const ablint::Model &m, const std::string &qualName)
{
    for (const auto &c : m.classes)
        if (c.qualName == qualName)
            return &c;
    return nullptr;
}

const ablint::FunctionDef *
fnNamed(const ablint::Model &m, const std::string &qualName)
{
    for (const auto &f : m.functions)
        if (f.qualName == qualName)
            return &f;
    return nullptr;
}

/** Is there a `name(` call inside @p fn's parsed body range? */
bool
callsName(const ablint::FunctionDef &fn, const std::string &name)
{
    const auto &toks = fn.file->tokens;
    for (std::size_t i = fn.bodyBegin; i + 1 < fn.bodyEnd; ++i)
        if (toks[i].text == name && toks[i + 1].text == "(")
            return true;
    return false;
}

/* ------------------------------------------------------------------ */
/* model parser goldens                                                */
/* ------------------------------------------------------------------ */

TEST(AbsemaModel, MembersWithTypesLinesAndInitializers)
{
    const auto in = input({{"src/sim/box.hh",
                            "class Box\n"
                            "{\n"
                            "    std::uint64_t id = 0;\n"
                            "    double load{0.5};\n"
                            "    int grid[4];\n"
                            "    static int liveCount;\n"
                            "    constexpr static int maxId = 9;\n"
                            "};\n"}});
    const auto m = ablint::buildModel(in.files);
    const auto *box = classNamed(m, "Box");
    ASSERT_NE(box, nullptr);
    ASSERT_EQ(box->members.size(), 5u);

    EXPECT_EQ(box->members[0].name, "id");
    EXPECT_NE(box->members[0].type.find("uint64_t"),
              std::string::npos);
    // Initializer is not part of the declared type.
    EXPECT_EQ(box->members[0].type.find("0"), std::string::npos);
    EXPECT_EQ(box->members[0].line, 3);
    EXPECT_FALSE(box->members[0].isStatic);

    EXPECT_EQ(box->members[1].name, "load");
    EXPECT_EQ(box->members[1].line, 4);

    EXPECT_EQ(box->members[2].name, "grid");

    EXPECT_TRUE(box->members[3].isStatic);
    EXPECT_TRUE(box->members[4].isStatic);
}

TEST(AbsemaModel, NestedClassesGetQualifiedNames)
{
    const auto in = input({{"src/sim/outer.hh",
                            "namespace biglittle {\n"
                            "class Outer\n"
                            "{\n"
                            "    struct Inner\n"
                            "    {\n"
                            "        int depth;\n"
                            "    };\n"
                            "    Inner inner;\n"
                            "};\n"
                            "} // namespace biglittle\n"}});
    const auto m = ablint::buildModel(in.files);
    const auto *inner = classNamed(m, "Outer::Inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->name, "Inner");
    ASSERT_EQ(inner->members.size(), 1u);
    EXPECT_EQ(inner->members[0].name, "depth");
    const auto *outer = classNamed(m, "Outer");
    ASSERT_NE(outer, nullptr);
    ASSERT_EQ(outer->members.size(), 1u);
    EXPECT_EQ(outer->members[0].name, "inner");
    // findClass resolves both exact and last-component lookups.
    EXPECT_EQ(m.findClass("Outer::Inner"), inner);
    EXPECT_EQ(m.findClass("Inner"), inner);
}

TEST(AbsemaModel, TemplatesParse)
{
    const auto in = input(
        {{"src/base/holder.hh",
          "template <typename T, int N>\n"
          "struct Holder\n"
          "{\n"
          "    T value;\n"
          "    std::array<T, N> history;\n"
          "    void push(const T &v) { record(v); }\n"
          "};\n"}});
    const auto m = ablint::buildModel(in.files);
    const auto *h = classNamed(m, "Holder");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->members.size(), 2u);
    EXPECT_EQ(h->members[0].name, "value");
    EXPECT_EQ(h->members[1].name, "history");
    const auto *push = fnNamed(m, "Holder::push");
    ASSERT_NE(push, nullptr);
    EXPECT_TRUE(callsName(*push, "record"));
}

TEST(AbsemaModel, MacroDirectivesAreSkipped)
{
    const auto in = input(
        {{"src/base/macros.hh",
          "#define MAKE_COUNTER(name) \\\n"
          "    int name = 0; \\\n"
          "    void bump_##name() { ++name; }\n"
          "#include \"base/logging.hh\"\n"
          "class Counted\n"
          "{\n"
          "    int real;\n"
          "};\n"}});
    const auto m = ablint::buildModel(in.files);
    // The #define body (including its continuation lines) must not
    // leak members or functions into the model.
    const auto *c = classNamed(m, "Counted");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->members.size(), 1u);
    EXPECT_EQ(c->members[0].name, "real");
    // ...but the #include on the way past is harvested.
    ASSERT_EQ(m.includes.size(), 1u);
    EXPECT_EQ(m.includes[0].target, "base/logging.hh");
    EXPECT_EQ(m.includes[0].line, 4);
}

TEST(AbsemaModel, OutOfLineDefinitionsAndCalls)
{
    const auto in = input(
        {{"src/sched/task.cc",
          "void Task::tick(Tick now)\n"
          "{\n"
          "    accounting.charge(now);\n"
          "    reschedule();\n"
          "}\n"
          "int freeHelper() { return compute(); }\n"}});
    const auto m = ablint::buildModel(in.files);
    const auto *tick = fnNamed(m, "Task::tick");
    ASSERT_NE(tick, nullptr);
    EXPECT_EQ(tick->name, "tick");
    EXPECT_EQ(tick->line, 1);
    EXPECT_TRUE(callsName(*tick, "charge"));
    EXPECT_TRUE(callsName(*tick, "reschedule"));
    const auto *helper = fnNamed(m, "freeHelper");
    ASSERT_NE(helper, nullptr);
    EXPECT_TRUE(callsName(*helper, "compute"));
}

TEST(AbsemaModel, CtorInitListsAndTrailingConstBodies)
{
    // Regression: a ctor init-list's braced initializers, and the
    // `const` before a method body's '{', must not displace the real
    // body (the early parser ate `... const { ... }` definitions).
    const auto in = input(
        {{"src/sim/w.hh",
          "class W\n"
          "{\n"
          "  public:\n"
          "    W() : a(1), b{2} { setup(); }\n"
          "    void go() const { run(); }\n"
          "  private:\n"
          "    int a;\n"
          "    int b;\n"
          "};\n"
          "void W::stop() const { halt(); }\n"}});
    const auto m = ablint::buildModel(in.files);
    const auto *ctor = fnNamed(m, "W::W");
    ASSERT_NE(ctor, nullptr);
    EXPECT_TRUE(callsName(*ctor, "setup"));
    const auto *go = fnNamed(m, "W::go");
    ASSERT_NE(go, nullptr);
    EXPECT_TRUE(callsName(*go, "run"));
    const auto *stop = fnNamed(m, "W::stop");
    ASSERT_NE(stop, nullptr);
    EXPECT_TRUE(callsName(*stop, "halt"));
    const auto *w = classNamed(m, "W");
    ASSERT_NE(w, nullptr);
    ASSERT_EQ(w->members.size(), 2u);
}

/* ------------------------------------------------------------------ */
/* serialize-coverage                                                  */
/* ------------------------------------------------------------------ */

const char *const boxSource =
    "class Box\n"
    "{\n"
    "  public:\n"
    "    void serialize(Serializer &s) const\n"
    "    {\n"
    "        s.putU64(id);\n"
    "        s.putDouble(load);\n"
    "    }\n"
    "  private:\n"
    "    std::uint64_t id = 0;\n"
    "    double load = 0.0;\n"
    "};\n";

TEST(AbsemaSerializeCoverage, CoveredClassIsClean)
{
    const auto in =
        boxInput({{"src/sim/box.hh", boxSource}});
    const auto findings = ablint::runSemaRules(in);
    EXPECT_TRUE(ofRule(findings, "serialize-coverage").empty());
}

TEST(AbsemaSerializeCoverage, UncoveredMemberIsFlagged)
{
    std::string src = boxSource;
    src.insert(src.find("  private:") + 11,
               "    int forgotten = 0;\n");
    const auto in =
        boxInput({{"src/sim/box.hh", src}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "serialize-coverage");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("forgotten"), std::string::npos);
    EXPECT_EQ(hits[0].line, 10); // the member's own line
}

TEST(AbsemaSerializeCoverage, ExemptMembersAndInlineAllow)
{
    const auto in = boxInput(
        {{"src/sim/box.hh",
          "class Box\n"
          "{\n"
          "    void serialize(Serializer &s) const\n"
          "    { s.putU64(id); }\n"
          "    std::uint64_t id = 0;\n"
          "    Sim *sim;\n"                // pointer: wiring
          "    const int lanes = 4;\n"     // const: config
          "    BoxParams params;\n"        // *Params: config struct
          "    std::function<void()> cb;\n" // callback
          "    // ablint:allow(serialize-coverage): diagnostic only\n"
          "    std::uint64_t dropCount = 0;\n"
          "};\n"}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "serialize-coverage");
    EXPECT_TRUE(hits.empty());
}

TEST(AbsemaSerializeCoverage, SplitAcrossFlavorPairs)
{
    // Base/derived split: serializeState covers what serialize does
    // not; coverage is the union across flavors.
    const auto in = boxInput(
        {{"src/sim/box.hh",
          "class Box\n"
          "{\n"
          "    void serialize(Serializer &s) const\n"
          "    { s.putU64(id); }\n"
          "    void serializeState(Serializer &s) const\n"
          "    { s.putDouble(load); }\n"
          "    std::uint64_t id = 0;\n"
          "    double load = 0.0;\n"
          "};\n"}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "serialize-coverage");
    EXPECT_TRUE(hits.empty());
}

/* ------------------------------------------------------------------ */
/* fatal() reachability: one post-init-fatal finding per call site    */
/* ------------------------------------------------------------------ */

// These fixtures were written for fatal-reach, which walked the call
// graph down from Experiment::runApp.  post-init-fatal flags every
// fatal() outside the allowlist at its own line, so each site is
// caught however deep below an entry point it sits.

TEST(AbsemaFatalReach, ReachableFatalIsFlaggedWithChain)
{
    const auto in = input(
        {{"src/core/experiment.cc",
          "void Experiment::runApp()\n"
          "{\n"
          "    stepAll();\n"
          "}\n"
          "void stepAll()\n"
          "{\n"
          "    applyConfig();\n"
          "}\n"
          "void applyConfig()\n"
          "{\n"
          "    fatal(\"bad config\");\n"
          "}\n"}});
    const auto hits =
        ofRule(ablint::runAllRules(in), "post-init-fatal");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].file, "src/core/experiment.cc");
    EXPECT_EQ(hits[0].line, 11);
    EXPECT_NE(hits[0].message.find("fatal() kills the whole run"),
              std::string::npos);
}

TEST(AbsemaFatalReach, UnreachableAndAllowlistedAreClean)
{
    const auto in = input(
        {{"src/core/experiment.cc",
          "void Experiment::runApp() { step(); }\n"
          "void step() { work(); }\n"
          "void work() { }\n"
          // fatal() only reachable from init, not from runApp:
          "void Experiment::init() { validate(); }\n"
          "void validate() { fatal(\"pre-run\"); }\n"},
         // Allowlisted module: fatal() is its documented contract.
         {"src/workload/apps.cc",
          "void Experiment::runApp() { lookup(); }\n"
          "void lookup() { fatal(\"unknown app\"); }\n"}});
    const auto hits =
        ofRule(ablint::runAllRules(in), "post-init-fatal");
    // The allowlisted module stays clean.  The site runApp cannot
    // reach is not: post-init-fatal does not look at reachability,
    // so it asks for an inline allow there like anywhere else.
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].file, "src/core/experiment.cc");
    EXPECT_EQ(hits[0].line, 5);
}

TEST(AbsemaFatalReach, PostInitFatalAllowCoversReachability)
{
    const auto in = input(
        {{"src/core/experiment.cc",
          "void Experiment::runApp() { go(); }\n"
          "void go()\n"
          "{\n"
          "    // ablint:allow(post-init-fatal): corrupted snapshot\n"
          "    fatal(\"unrecoverable\");\n"
          "}\n"}});
    const auto findings = ablint::runAllRules(in);
    EXPECT_TRUE(ofRule(findings, "post-init-fatal").empty());
    // The allow is used, so it is not stale either.
    EXPECT_TRUE(ofRule(findings, "stale-allow").empty());
}

/* ------------------------------------------------------------------ */
/* rng-stream                                                          */
/* ------------------------------------------------------------------ */

TEST(AbsemaRngStream, AdHocSeedIsFlagged)
{
    const auto in = input(
        {{"src/sim/a.cc", "Rng jitter(42);\n"},
         {"src/sim/b.cc", "auto r = Rng{userSeed};\n"}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "rng-stream");
    EXPECT_EQ(hits.size(), 2u);
}

TEST(AbsemaRngStream, BlessedDerivationsAreClean)
{
    const auto in = input(
        {{"src/sim/a.cc",
          "Rng a(deriveStreamSeed(master, \"sched\"));\n"
          "Rng b(parent.fork());\n"
          "Rng c = namedStream(master, \"gov\");\n"
          "auto seed = deriveStreamSeed(master, \"app\");\n"
          "Rng d(seed);\n"   // single-ident arg traces to blessed
          "Rng e;\n"         // default-constructed: no seed chosen
          "void take(Rng &r);\n"}});
    EXPECT_TRUE(
        ofRule(ablint::runSemaRules(in), "rng-stream").empty());
}

TEST(AbsemaRngStream, TestFilesAndRngModuleAreExempt)
{
    const auto in = input(
        {{"tests/sim/test_a.cc", "Rng fixed(7);\n"},
         {"src/base/random.cc", "Rng seeded(0x9e3779b9);\n"}});
    EXPECT_TRUE(
        ofRule(ablint::runSemaRules(in), "rng-stream").empty());
}

TEST(AbsemaRngStream, InlineAllowSuppresses)
{
    const auto in = input(
        {{"src/sim/a.cc",
          "// ablint:allow(rng-stream): fixed tie-break stream\n"
          "Rng tieRng{1};\n"}});
    EXPECT_TRUE(
        ofRule(ablint::runSemaRules(in), "rng-stream").empty());
}

/* ------------------------------------------------------------------ */
/* layer-cycle                                                         */
/* ------------------------------------------------------------------ */

TEST(AbsemaLayerCycle, BackEdgeIsFlagged)
{
    const auto in = input(
        {{"src/base/util.hh", "#include \"sched/hmp.hh\"\n"}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "layer-cycle");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 1);
    EXPECT_NE(hits[0].message.find("back-edge"), std::string::npos);
}

TEST(AbsemaLayerCycle, DownwardIncludesAreClean)
{
    const auto in = input(
        {{"src/sched/hmp.hh",
          "#include \"base/logging.hh\"\n"
          "#include \"platform/core.hh\"\n"
          "#include \"sched/load.hh\"\n"},
         {"src/sched/load.hh", "#include \"sim/engine.hh\"\n"}});
    EXPECT_TRUE(
        ofRule(ablint::runSemaRules(in), "layer-cycle").empty());
}

TEST(AbsemaLayerCycle, SameLayerCycleIsFlagged)
{
    // Rank-legal (same directory) but still a file-level cycle.
    const auto in = input(
        {{"src/sched/a.hh", "#include \"sched/b.hh\"\n"},
         {"src/sched/b.hh", "#include \"sched/a.hh\"\n"}});
    const auto hits =
        ofRule(ablint::runSemaRules(in), "layer-cycle");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("include cycle"),
              std::string::npos);
    EXPECT_NE(hits[0].message.find("src/sched/a.hh"),
              std::string::npos);
    EXPECT_NE(hits[0].message.find("src/sched/b.hh"),
              std::string::npos);
}

/* ------------------------------------------------------------------ */
/* status-drop                                                         */
/* ------------------------------------------------------------------ */

/** status-drop findings of the semantic pass over in-memory files. */
std::vector<ablint::Finding>
statusDrops(const std::vector<std::pair<std::string, std::string>> &files)
{
    return ofRule(ablint::runSemaRules(input(files)), "status-drop");
}

TEST(AbsemaStatusDrop, OverwrittenAndDyingStatusesAreFlagged)
{
    const auto hits = statusDrops(
        {{"src/a.cc",
          "void f(Writer &w) {\n"
          "    Status st = w.writeHeader();\n"
          "    st = w.writeBody();\n"
          "}\n"}});
    // writeHeader's status is overwritten unread; writeBody's dies.
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].line, 2);
    EXPECT_NE(hits[0].message.find("overwritten (line 3)"),
              std::string::npos);
    EXPECT_EQ(hits[1].line, 3);
    EXPECT_NE(hits[1].message.find("dies"), std::string::npos);
}

TEST(AbsemaStatusDrop, ResultLocalsAreTrackedToo)
{
    const auto hits = statusDrops(
        {{"src/a.cc",
          "void f(Parser &p) {\n"
          "    Result<std::int64_t> r = p.parseInt();\n"
          "}\n"}});
    EXPECT_EQ(hits.size(), 1u);
}

TEST(AbsemaStatusDrop, InlineAllowSuppresses)
{
    const auto in = input(
        {{"src/a.cc",
          "void f(Writer &w) {\n"
          "    // ablint:allow(status-drop): best-effort flush\n"
          "    Status st = w.flush();\n"
          "}\n"}});
    ablint::AllowUse uses;
    EXPECT_TRUE(
        ofRule(ablint::runSemaRules(in, &uses), "status-drop")
            .empty());
    // The ledger records the suppression, so stale-allow keeps it.
    ASSERT_EQ(uses.count({"src/a.cc", 3}), 1u);
    EXPECT_EQ(uses.at({"src/a.cc", 3}).count("status-drop"), 1u);
}

TEST(AbsemaStatusDrop, BranchedPropagatedAndNeutralAreClean)
{
    const auto hits = statusDrops(
        {{"src/a.cc",
          "Status f(Writer &w) {\n"
          "    Status st = w.writeHeader();\n"
          "    if (!st.ok()) { return st; }\n"
          "    st = w.writeBody();\n"
          "    return st;\n"
          "}\n"
          "void g(Writer &w) {\n"
          "    Status st = okStatus();\n"
          "    if (bad()) { st = w.abort(); }\n"
          "    log(st);\n"
          "}\n"
          "void h(Writer &w) {\n"
          "    Status st = w.flush();\n"
          "}\n"}});
    // Only the control in h(), whose status dies unread, is flagged.
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 13);
}

TEST(AbsemaStatusDrop, LoopCarriedUseIsClean)
{
    // The def at the loop tail is read at the head of the next
    // iteration: a use in the same loop keeps it alive.  A loop
    // with no use (the control in g()) does not.
    const auto hits = statusDrops(
        {{"src/a.cc",
          "void f(Stepper &s) {\n"
          "    Status st = okStatus();\n"
          "    while (st.ok()) {\n"
          "        st = s.step();\n"
          "    }\n"
          "}\n"
          "void g(Stepper &s) {\n"
          "    for (int i = 0; i < 3; ++i) {\n"
          "        Status st = s.step();\n"
          "    }\n"
          "}\n"}});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 9);
}

/* ------------------------------------------------------------------ */
/* stale-allow                                                         */
/* ------------------------------------------------------------------ */

TEST(AbsemaStaleAllow, UnusedDirectiveIsFlagged)
{
    const auto in = input(
        {{"src/sim/a.cc",
          "// ablint:allow(wall-clock): leftover from a refactor\n"
          "int x = 0;\n"}});
    const auto hits =
        ofRule(ablint::runAllRules(in), "stale-allow");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 1);
    EXPECT_NE(hits[0].message.find("suppresses nothing"),
              std::string::npos);
}

TEST(AbsemaStaleAllow, UnknownRuleNameIsFlagged)
{
    const auto in = input(
        {{"src/sim/a.cc",
          "// ablint:allow(no-such-rule): typo\n"
          "int x = 0;\n"}});
    const auto hits =
        ofRule(ablint::runAllRules(in), "stale-allow");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("unknown rule"),
              std::string::npos);
}

TEST(AbsemaStaleAllow, DeletedRuleNamesAreUnknown)
{
    // None of unit-mix, stale-baseline and taint-bound is a rule: a
    // directive naming one is unknown, not merely unused.
    const auto in = input(
        {{"src/sim/a.cc",
          "// ablint:allow(unit-mix): x\n"
          "int x = 0;\n"
          "// ablint:allow(stale-baseline): y\n"
          "int y = 0;\n"
          "// ablint:allow(taint-bound): z\n"
          "int z = 0;\n"}});
    const auto hits =
        ofRule(ablint::runAllRules(in), "stale-allow");
    ASSERT_EQ(hits.size(), 3u);
    for (const auto &hit : hits)
        EXPECT_NE(hit.message.find("unknown rule"), std::string::npos)
            << hit.message;
}

TEST(AbsemaStaleAllow, UsedDirectivesAreClean)
{
    // One lexical suppression (wall-clock) and one semantic
    // suppression (rng-stream): both passes feed the same ledger.
    const auto in = input(
        {{"src/sim/a.cc",
          "// ablint:allow(wall-clock): entropy for the demo\n"
          "int t = rand();\n"
          "// ablint:allow(rng-stream): fixed tie-break stream\n"
          "Rng tieRng{1};\n"}});
    const auto findings = ablint::runAllRules(in);
    EXPECT_TRUE(ofRule(findings, "stale-allow").empty());
    EXPECT_TRUE(ofRule(findings, "wall-clock").empty());
    EXPECT_TRUE(ofRule(findings, "rng-stream").empty());
}

/* ------------------------------------------------------------------ */
/* --profile                                                           */
/* ------------------------------------------------------------------ */

TEST(AbsemaProfile, PerRuleTimingsAreRecorded)
{
    const auto in = input({{"src/a.cc", "int x = 0;\n"}});
    ablint::RuleProfile profile;
    ablint::runAllRules(in, &profile);
    // stale-allow runs after every pass, untimed.
    for (const std::string &rule : ablint::ruleNames()) {
        if (rule == "stale-allow")
            continue;
        ASSERT_EQ(profile.count(rule), 1u) << rule;
        EXPECT_GE(profile.at(rule), 0.0) << rule;
    }
    ASSERT_EQ(profile.count("sema-model-build"), 1u);
    EXPECT_GE(profile.at("sema-model-build"), 0.0);
    // One model build serves every semantic rule.
    EXPECT_EQ(profile.count("flow-model-build"), 0u);
}

/* ------------------------------------------------------------------ */
/* output formats                                                      */
/* ------------------------------------------------------------------ */

TEST(AbsemaFormats, GithubAnnotationEscapes)
{
    const ablint::Finding f{"src/sim/a.cc", 7, "rng-stream",
                            "50% bad: a,b\nnext"};
    EXPECT_EQ(f.formatGithub(),
              "::error file=src/sim/a.cc,line=7,"
              "title=ablint rng-stream"
              "::50%25 bad: a,b%0Anext");
}

TEST(AbsemaFormats, JsonObjectEscapes)
{
    const ablint::Finding f{"src/sim/a.cc", 7, "rng-stream",
                            "say \"hi\"\\\n"};
    EXPECT_EQ(f.formatJson(),
              "{\"file\":\"src/sim/a.cc\",\"line\":7,"
              "\"rule\":\"rng-stream\","
              "\"message\":\"say \\\"hi\\\"\\\\\\n\"}");
}

} // namespace
