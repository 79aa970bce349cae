/**
 * @file
 * abflow's test suite: golden tests for the engine itself
 * (parameter parsing, per-function summaries across branches,
 * loops, multi-hop call chains and constructor init lists), the
 * known-bad / suppressed / sanitized-clean triple for each of the
 * two flow rules, and a meta-test that re-lints the real checkout
 * with the flow rules on.
 *
 * Trigger constructs live inside string literals so linting this
 * file never trips the rules it tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ablint/ablint.hh"
#include "ablint/flow.hh"

namespace ablint = biglittle::ablint;

namespace
{

ablint::ScanInput
makeInput(const std::vector<std::pair<std::string, std::string>> &files)
{
    ablint::ScanInput in;
    for (const auto &[path, text] : files)
        in.files.push_back(ablint::lexString(path, text));
    return in;
}

/** Findings of the flow pass alone over in-memory files. */
std::vector<ablint::Finding>
lintFlow(const std::vector<std::pair<std::string, std::string>> &files)
{
    const ablint::ScanInput in = makeInput(files);
    return ablint::runFlowRules(in);
}

std::size_t
countRule(const std::vector<ablint::Finding> &findings,
          const std::string &rule)
{
    std::size_t n = 0;
    for (const auto &f : findings)
        if (f.rule == rule)
            ++n;
    return n;
}

/** The FlowFunction named @p name, which must exist. */
const ablint::FlowFunction &
fnByName(const ablint::FlowModel &fm, const std::string &name)
{
    const auto it = fm.byName.find(name);
    EXPECT_NE(it, fm.byName.end()) << "no function '" << name << "'";
    return fm.functions[it->second.front()];
}

// ---- engine: parameter parsing -------------------------------------

TEST(AbflowParams, ParsesNamesAndTypes)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "void f(const Config &cfg, std::uint64_t n, int) {}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    const auto &f = fnByName(fm, "f");
    ASSERT_EQ(f.params.size(), 3u);
    EXPECT_EQ(f.params[0].name, "cfg");
    EXPECT_EQ(f.params[1].name, "n");
    // The unnamed `int` parameter still occupies a slot.
    EXPECT_EQ(f.params[2].name, "");
}

TEST(AbflowParams, EmptyAndVoidAndDefaults)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "void f() {}\n"
          "void g(void) {}\n"
          "void h(int depth = 3, bool strict = true) {}\n"
          "void t(std::map<int, int> m, int k) {}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    EXPECT_EQ(fnByName(fm, "f").params.size(), 0u);
    EXPECT_EQ(fnByName(fm, "g").params.size(), 0u);
    const auto &h = fnByName(fm, "h");
    ASSERT_EQ(h.params.size(), 2u);
    EXPECT_EQ(h.params[0].name, "depth");
    EXPECT_EQ(h.params[1].name, "strict");
    // The template comma must not split the first parameter.
    const auto &t = fnByName(fm, "t");
    ASSERT_EQ(t.params.size(), 2u);
    EXPECT_EQ(t.params[0].name, "m");
    EXPECT_EQ(t.params[1].name, "k");
}

// ---- engine: summaries ---------------------------------------------

TEST(AbflowSummary, ReturnOfRawReadIsTainted)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t readLen(Deserializer &d) {\n"
          "    return d.getU64();\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    const auto &f = fnByName(fm, "readLen");
    EXPECT_TRUE(f.summary.returnsTaint);
    EXPECT_NE(f.summary.returnTaintWhy.find("getU64"),
              std::string::npos);
}

TEST(AbflowSummary, GetCountIsCleanBecauseItChecks)
{
    // getCount's body compares the raw read against a bound before
    // returning it, so its summary must come out clean.
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t getCount(Deserializer &d,\n"
          "                       std::uint64_t maxCount) {\n"
          "    std::uint64_t count = d.getU64();\n"
          "    if (count > maxCount) { return 0; }\n"
          "    return count;\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    EXPECT_FALSE(fnByName(fm, "getCount").summary.returnsTaint);
}

TEST(AbflowSummary, ParamPassthroughAndParamToSink)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t ident(std::uint64_t n) { return n; }\n"
          "void grow(std::vector<int> &v, std::uint64_t n) {\n"
          "    v.resize(n);\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    const auto &id = fnByName(fm, "ident");
    ASSERT_EQ(id.summary.paramToReturn.size(), 1u);
    EXPECT_TRUE(id.summary.paramToReturn[0]);
    const auto &grow = fnByName(fm, "grow");
    ASSERT_EQ(grow.summary.paramToSink.size(), 2u);
    EXPECT_FALSE(grow.summary.paramToSink[0]);
    EXPECT_TRUE(grow.summary.paramToSink[1]);
}

TEST(AbflowSummary, TaintSurvivesBranches)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t f(Deserializer &d, bool alt) {\n"
          "    std::uint64_t n = 0;\n"
          "    if (alt) { n = d.getU64(); } else { n = 1; }\n"
          "    return n;\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    // One branch taints: the merged state must stay tainted.
    EXPECT_TRUE(fnByName(fm, "f").summary.returnsTaint);
}

TEST(AbflowSummary, LoopCarriedTaintConverges)
{
    // x picks up y's taint only on the second pass over the loop.
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t f(Deserializer &d) {\n"
          "    std::uint64_t x = 0;\n"
          "    std::uint64_t y = 0;\n"
          "    while (d.ok()) {\n"
          "        x = y;\n"
          "        y = d.getU64();\n"
          "    }\n"
          "    return x;\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    EXPECT_TRUE(fnByName(fm, "f").summary.returnsTaint);
}

TEST(AbflowSummary, MultiHopChainComposesAcrossThreeFunctions)
{
    // C returns a raw read, B passes it through, A sinks it: the
    // fixpoint must propagate the taint across both hops.
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "std::uint64_t readRaw(Deserializer &d) {\n"
          "    return d.getU64();\n"
          "}\n"
          "std::uint64_t relay(Deserializer &d) {\n"
          "    std::uint64_t n = readRaw(d);\n"
          "    return n;\n"
          "}\n"
          "void decode(Deserializer &d, std::vector<int> &v) {\n"
          "    v.resize(relay(d));\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    EXPECT_TRUE(fnByName(fm, "relay").summary.returnsTaint);
    const auto findings = lintFlow(
        {{"src/a.cc",
          "std::uint64_t readRaw(Deserializer &d) {\n"
          "    return d.getU64();\n"
          "}\n"
          "std::uint64_t relay(Deserializer &d) {\n"
          "    std::uint64_t n = readRaw(d);\n"
          "    return n;\n"
          "}\n"
          "void decode(Deserializer &d, std::vector<int> &v) {\n"
          "    v.resize(relay(d));\n"
          "}\n"}});
    ASSERT_EQ(countRule(findings, "taint-bound"), 1u);
    EXPECT_EQ(findings[0].line, 9);
}

TEST(AbflowSummary, CtorInitListBodyIsStillAnalyzed)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc",
          "Frame::Frame(std::uint64_t n)\n"
          "    : size(n), used(0)\n"
          "{\n"
          "    pixels.resize(n);\n"
          "}\n"}});
    const ablint::FlowModel fm = ablint::buildFlowModel(in);
    const auto &ctor = fnByName(fm, "Frame");
    ASSERT_EQ(ctor.summary.paramToSink.size(), 1u);
    EXPECT_TRUE(ctor.summary.paramToSink[0]);
}

// ---- taint-bound: known-bad / suppressed / sanitized -----------------

TEST(AbflowTaintBound, TwoFunctionChainIsFlaggedAtTheSink)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "std::uint64_t readLen(Deserializer &d) {\n"
          "    return d.getU64();\n"
          "}\n"
          "void decode(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = readLen(d);\n"
          "    v.resize(n);\n"
          "}\n"}});
    ASSERT_EQ(countRule(findings, "taint-bound"), 1u);
    EXPECT_EQ(findings[0].line, 6);
    // The message names the source, the hop and the sink.
    EXPECT_NE(findings[0].message.find("getU64"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("readLen"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("resize"),
              std::string::npos);
}

TEST(AbflowTaintBound, LoopBoundIndexAndNewAreSinks)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(Deserializer &d, int *table) {\n"
          "    const std::uint64_t n = d.getU64();\n"
          "    for (std::uint64_t i = 0; i < n; ++i) { use(i); }\n"
          "    int x = table[n];\n"
          "    int *buf = new int[n];\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "taint-bound"), 3u);
}

TEST(AbflowTaintBound, ParseCallsAreSourcesToo)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(const std::string &s, std::vector<int> &v) {\n"
          "    const std::size_t n = std::stoull(s);\n"
          "    v.reserve(n);\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "taint-bound"), 1u);
}

TEST(AbflowTaintBound, InlineAllowSuppresses)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void decode(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = d.getU64();\n"
          "    // ablint:allow(taint-bound): capped upstream\n"
          "    v.resize(n);\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "taint-bound"), 0u);
}

TEST(AbflowTaintBound, SanitizersMakeItClean)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void viaGetCount(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = d.getCount(4);\n"
          "    v.resize(n);\n"
          "}\n"
          "void viaCompare(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = d.getU64();\n"
          "    if (n > kMaxCells) { return; }\n"
          "    v.resize(n);\n"
          "}\n"
          "void viaClamp(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n =\n"
          "        std::min(d.getU64(), kMaxCells);\n"
          "    v.resize(n);\n"
          "}\n"
          // An explicit template argument list still reads as a
          // clamp, in a sink and as a strong kill inside a block.
          "void viaTemplateClamp(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = d.getU64();\n"
          "    v.assign(std::min<std::size_t>(n, 64), 0);\n"
          "}\n"
          "void viaBlockClamp(Deserializer &d, std::vector<int> &v) {\n"
          "    std::uint64_t n = d.getU64();\n"
          "    if (d.ok()) {\n"
          "        n = std::min<std::uint64_t>(n, kMaxCells);\n"
          "        v.resize(n);\n"
          "    }\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "taint-bound"), 0u);
}

TEST(AbflowTaintBound, SanitizedInCallerOfTaintedHelper)
{
    // The helper's return is tainted, but the caller checks it
    // before the sink: flow-sensitivity must see the kill.
    const auto findings = lintFlow(
        {{"src/a.cc",
          "std::uint64_t readLen(Deserializer &d) {\n"
          "    return d.getU64();\n"
          "}\n"
          "void decode(Deserializer &d, std::vector<int> &v) {\n"
          "    const std::uint64_t n = readLen(d);\n"
          "    if (n > kMax) { return; }\n"
          "    v.resize(n);\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "taint-bound"), 0u);
}

// ---- status-drop: known-bad / suppressed / clean ---------------------

TEST(AbflowStatusDrop, OverwrittenAndDyingStatusesAreFlagged)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(Writer &w) {\n"
          "    Status st = w.writeHeader();\n"
          "    st = w.writeBody();\n"
          "}\n"}});
    // writeHeader's status is overwritten unread; writeBody's dies.
    ASSERT_EQ(countRule(findings, "status-drop"), 2u);
    EXPECT_EQ(findings[0].line, 2);
    EXPECT_NE(findings[0].message.find("overwritten"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 3);
    EXPECT_NE(findings[1].message.find("dies"), std::string::npos);
}

TEST(AbflowStatusDrop, ResultLocalsAreTrackedToo)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(Parser &p) {\n"
          "    Result<std::int64_t> r = p.parseInt();\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "status-drop"), 1u);
}

TEST(AbflowStatusDrop, InlineAllowSuppresses)
{
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(Writer &w) {\n"
          "    // ablint:allow(status-drop): best-effort flush\n"
          "    Status st = w.flush();\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "status-drop"), 0u);
}

TEST(AbflowStatusDrop, BranchedPropagatedAndNeutralAreClean)
{
    const auto findings = lintFlow(
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
          "}\n"}});
    EXPECT_EQ(countRule(findings, "status-drop"), 0u);
}

TEST(AbflowStatusDrop, LoopCarriedUseIsClean)
{
    // The def at the loop tail is read at the head of the next
    // iteration: a use in the same loop keeps it alive.
    const auto findings = lintFlow(
        {{"src/a.cc",
          "void f(Stepper &s) {\n"
          "    Status st = okStatus();\n"
          "    while (st.ok()) {\n"
          "        st = s.step();\n"
          "    }\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "status-drop"), 0u);
}

// ---- profile plumbing ------------------------------------------------

TEST(AbflowProfile, PerRuleTimingsAreRecorded)
{
    const ablint::ScanInput in = makeInput(
        {{"src/a.cc", "int x = 0;\n"}});
    ablint::RuleProfile profile;
    ablint::runAllRules(in, &profile);
    EXPECT_EQ(profile.count("taint-bound"), 1u);
    EXPECT_EQ(profile.count("status-drop"), 1u);
    EXPECT_EQ(profile.count("flow-model-build"), 1u);
    for (const auto &[name, ms] : profile)
        EXPECT_GE(ms, 0.0) << name;
}

// ---- meta: the real checkout is clean with the flow rules on ---------

#ifdef ABLINT_REPO_ROOT
TEST(AbflowMeta, RepoIsFlowClean)
{
    const auto findings = ablint::runOnRepo(ABLINT_REPO_ROOT);
    std::size_t flowFindings = 0;
    for (const auto &f : findings) {
        if (f.rule == "taint-bound" || f.rule == "status-drop")
            ++flowFindings;
    }
    EXPECT_EQ(flowFindings, 0u)
        << "flow findings in the checkout: fix them or justify "
           "each with an inline allow";
}
#endif

} // namespace
