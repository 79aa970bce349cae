/**
 * @file
 * ablint's own test suite: every lexical rule gets a known-bad
 * snippet (positive), a suppressed variant, and an allowlisted/clean
 * variant; so does the serialization-registry guarantee, checked
 * through the full pass by serialize-coverage; and a meta-test locks
 * the real repo to lint-clean.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ablint/ablint.hh"

namespace ablint = biglittle::ablint;

namespace
{

/** Findings of @p rule in the rule pass over in-memory files. */
std::vector<ablint::Finding>
lint(const std::vector<std::pair<std::string, std::string>> &files,
     const std::string &docsText = "")
{
    ablint::ScanInput in;
    for (const auto &[path, text] : files)
        in.files.push_back(ablint::lexString(path, text));
    in.docsText = docsText;
    return ablint::runRules(in);
}

/** Findings of every pass (lexical and semantic). */
std::vector<ablint::Finding>
lintAll(const std::vector<std::pair<std::string, std::string>> &files,
        const std::string &registryText = "")
{
    ablint::ScanInput in;
    for (const auto &[path, text] : files)
        in.files.push_back(ablint::lexString(path, text));
    in.registryText = registryText;
    return ablint::runAllRules(in);
}

/** Lines of @p rule's findings, in report order. */
std::vector<int>
linesOf(const std::vector<ablint::Finding> &findings,
        const std::string &rule)
{
    std::vector<int> lines;
    for (const auto &f : findings)
        if (f.rule == rule)
            lines.push_back(f.line);
    return lines;
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

TEST(AblintLexer, TokenizesAndTracksLines)
{
    const auto f = ablint::lexString(
        "src/x.cc", "int a = 1;\n// comment\nfoo(\"lit\");\n");
    ASSERT_GE(f.tokens.size(), 8u);
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[0].line, 1);
    bool sawLit = false;
    for (const auto &t : f.tokens)
        if (t.kind == ablint::TokKind::str && t.text == "lit" &&
            t.line == 3)
            sawLit = true;
    EXPECT_TRUE(sawLit);
}

TEST(AblintLexer, AllowDirectiveCoversOwnAndNextLine)
{
    const auto f = ablint::lexString(
        "src/x.cc",
        "// ablint:allow(wall-clock): why\nint t = rand();\n");
    ASSERT_EQ(f.allows.count(1), 1u);
    ASSERT_EQ(f.allows.count(2), 1u);
    EXPECT_EQ(f.allows.at(2).count("wall-clock"), 1u);
}

TEST(AblintWallClock, FlagsEntropyAndClockCalls)
{
    const auto findings = lint(
        {{"src/a.cc",
          "int x = rand();\n"
          "auto t = std::chrono::steady_clock::now();\n"
          "std::random_device rd;\n"}});
    EXPECT_EQ(countRule(findings, "wall-clock"), 3u);
}

TEST(AblintWallClock, CallFormNamesNeedParens)
{
    // `timeout` and a member named `time` without a call must not
    // trip the short banned names.
    const auto findings =
        lint({{"src/a.cc",
               "int timeout = 5;\nint v = obj.time;\n"
               "auto t0 = time(nullptr);\n"}});
    ASSERT_EQ(countRule(findings, "wall-clock"), 1u);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(AblintWallClock, InlineAllowSuppresses)
{
    const auto findings = lint(
        {{"src/a.cc",
          "// ablint:allow(wall-clock): test fixture\n"
          "int x = rand();\n"}});
    EXPECT_EQ(countRule(findings, "wall-clock"), 0u);
}

TEST(AblintWallClock, WatchdogModuleIsAllowlisted)
{
    const auto findings = lint(
        {{"src/snapshot/watchdog.cc",
          "using clock = std::chrono::steady_clock;\n"}});
    EXPECT_EQ(countRule(findings, "wall-clock"), 0u);
}

TEST(AblintUnordered, FlagsDeclarationAndIteration)
{
    const auto findings = lint(
        {{"src/a.cc",
          "std::unordered_map<int, int> seen;\n"
          "for (const auto &kv : seen) { use(kv); }\n"
          "auto it = seen.begin();\n"}});
    EXPECT_EQ(countRule(findings, "unordered-iter"), 3u);
}

TEST(AblintUnordered, SuppressedAndTestScopedVariants)
{
    const auto suppressed = lint(
        {{"src/a.cc",
          "// ablint:allow(unordered-iter): lookup-only\n"
          "std::unordered_map<int, int> seen;\n"}});
    EXPECT_EQ(countRule(suppressed, "unordered-iter"), 0u);
    // The rule is scoped to stateful sim code (src/), not tests.
    const auto inTest = lint(
        {{"tests/a.cc", "std::unordered_set<int> ids;\n"}});
    EXPECT_EQ(countRule(inTest, "unordered-iter"), 0u);
}

TEST(AblintPointerKey, FlagsOrderedContainersKeyedByPointer)
{
    const auto findings = lint(
        {{"src/a.cc",
          "std::set<Task *> waiters;\n"
          "std::map<Core *, int> depth;\n"
          "std::multiset<Event *> pend;\n"
          "std::map<std::pair<Task *, int>, int> byPair;\n"}});
    EXPECT_EQ(countRule(findings, "pointer-key"), 4u);
}

TEST(AblintPointerKey, ValuePointersAndUnorderedAreFine)
{
    // Pointer *values* are harmless (iteration order still follows
    // the key); unordered containers are unordered-iter's business.
    const auto findings = lint(
        {{"src/a.cc",
          "std::map<int, Task *> byId;\n"
          "std::set<std::string> names;\n"
          "std::unordered_map<const Task *, int> seen;\n"}});
    EXPECT_EQ(countRule(findings, "pointer-key"), 0u);
}

TEST(AblintPointerKey, PointerAliasesNoLongerEscape)
{
    // A file-local `using Key = T *;` (or typedef) used to hide the
    // pointer from the key scan - the documented blind spot, now
    // closed via the alias harvest.
    const auto findings = lint(
        {{"src/a.cc",
          "using EventPtr = Event *;\n"
          "typedef Task *TaskRaw;\n"
          "std::set<EventPtr> pending;\n"
          "std::map<TaskRaw, int> ranks;\n"}});
    ASSERT_EQ(countRule(findings, "pointer-key"), 2u);
    EXPECT_NE(findings[0].message.find("EventPtr"),
              std::string::npos);
}

TEST(AblintPointerKey, ValueAliasesAreFine)
{
    const auto findings = lint(
        {{"src/a.cc",
          "using TaskId = std::uint32_t;\n"
          "typedef int Rank;\n"
          "std::set<TaskId> live;\n"
          "std::map<Rank, int> byRank;\n"}});
    EXPECT_EQ(countRule(findings, "pointer-key"), 0u);
}

TEST(AblintPointerKey, SuppressedAndTestScopedVariants)
{
    const auto suppressed = lint(
        {{"src/a.cc",
          "// ablint:allow(pointer-key): cmp orders by fields\n"
          "std::set<Event *, Cmp> queue;\n"}});
    EXPECT_EQ(countRule(suppressed, "pointer-key"), 0u);

    const auto inTest =
        lint({{"tests/a.cc", "std::set<Task *> waiters;\n"}});
    EXPECT_EQ(countRule(inTest, "pointer-key"), 0u);
}

TEST(AblintStaticMutable, FlagsMutableSkipsConstAndFunctions)
{
    const auto findings = lint(
        {{"src/a.cc",
          "void f() {\n"
          "    static int counter = 0;\n"
          "    static const int limit = 3;\n"
          "}\n"
          "static void helper();\n"
          "static constexpr double pi = 3.14;\n"}});
    ASSERT_EQ(countRule(findings, "static-mutable"), 1u);
    EXPECT_EQ(findings[0].line, 2);
}

TEST(AblintStaticMutable, CtorInitializedStaticsAreFlagged)
{
    // `static Foo foo(args);` used to escape as a function
    // declaration - the documented blind spot, now closed.
    const auto findings = lint(
        {{"src/a.cc",
          "void f(unsigned seed) {\n"
          "    static Histogram h(0.0, 1.0, 64);\n"
          "    static Rng rng(seed);\n"
          "    static Interner names(\"default\");\n"
          "}\n"}});
    EXPECT_EQ(countRule(findings, "static-mutable"), 3u);
}

TEST(AblintStaticMutable, FunctionDeclarationsStillEscape)
{
    const auto findings = lint(
        {{"src/a.cc",
          "static void helper(int);\n"
          "static int pick(const char *name, bool strict);\n"
          "static Status apply(Config cfg);\n"
          "static int parse(std::string s);\n"
          "static double scale(double x = 1.0);\n"
          "static Widget make();\n"}});
    EXPECT_EQ(countRule(findings, "static-mutable"), 0u);
}

TEST(AblintStaticMutable, InlineAllowSuppresses)
{
    const auto findings = lint(
        {{"src/a.cc",
          "// ablint:allow(static-mutable): intern table\n"
          "static int counter = 0;\n"}});
    EXPECT_EQ(countRule(findings, "static-mutable"), 0u);
}

TEST(AblintVoidDiscard, FlagsCastsOfCallsOnly)
{
    const auto findings = lint(
        {{"src/a.cc",
          "void f(int unused) {\n"
          "    (void)unused;\n" // unused-parameter idiom: fine
          "    (void)doWork();\n" // discarded call: flagged
          "    static_cast<void>(doWork());\n" // flagged
          "}\n"
          "int g(void);\n"}}); // (void) parameter list: fine
    EXPECT_EQ(countRule(findings, "void-discard"), 2u);
}

TEST(AblintVoidDiscard, TestsMayDiscardIntentionally)
{
    const auto findings =
        lint({{"tests/a.cc", "(void)d.requestFreq(0);\n"}});
    EXPECT_EQ(countRule(findings, "void-discard"), 0u);
}

// The serialization registry (tools/ablint/serialized_state.txt):
// serialize-coverage checks it against absema's class model, so the
// fixtures define their serializers.

TEST(AblintSerialize, PairAndRegistryEnforced)
{
    const std::string header =
        "class Widget {\n"
        "  public:\n"
        "    void serialize(Serializer &s) const { s.putU64(1); }\n"
        "};\n";
    // Unregistered: one finding, at the class.
    const auto bad = lintAll({{"src/w.hh", header}});
    EXPECT_EQ(linesOf(bad, "serialize-coverage"), (std::vector<int>{1}));

    // Registered against a live section literal: clean.
    const auto clean =
        lintAll({{"src/w.hh", header},
                 {"src/rig.cc", "section(\"widget\", fill);\n"}},
                "Widget widget\n");
    EXPECT_EQ(countRule(clean, "serialize-coverage"), 0u);
}

TEST(AblintSerialize, RegistryStalenessIsReported)
{
    // Entry names a class that does not exist, with a cover string
    // that is also nowhere in src: two findings on the entry's line.
    const auto findings =
        lintAll({{"src/empty.cc", "int x;\n"}},
                "Ghost missing-section\n");
    EXPECT_EQ(linesOf(findings, "serialize-coverage"),
              (std::vector<int>{1, 1}));
    for (const auto &f : findings)
        EXPECT_EQ(f.file, "tools/ablint/serialized_state.txt");
}

/** A serialize-only class shaped like EventQueue's digest. */
const char *const queueHeader =
    "class Queue {\n"
    "  public:\n"
    "    void serialize(Serializer &s) const\n"
    "    {\n"
    "        s.putU64(clock);\n"
    "        s.putU64(pending.size());\n"
    "    }\n"
    "  private:\n"
    "    std::vector<Event *> pending;\n"
    "    Tick clock = 0;\n"
    "};\n";

TEST(AblintSerialize, SerializeOnlyClassWritingEveryMemberIsClean)
{
    // No deserialize() twin and no inline allow: writing every
    // plain-value member is the whole contract.
    const auto findings = lintAll(
        {{"src/q.hh", queueHeader},
         {"src/rig.cc", "section(\"q\", fill);\n"}},
        "Queue q\n");
    EXPECT_EQ(countRule(findings, "serialize-coverage"), 0u);
    EXPECT_EQ(countRule(findings, "stale-allow"), 0u);
}

TEST(AblintSerialize, UnwrittenMemberOfSerializeOnlyClassIsFlagged)
{
    std::string header = queueHeader;
    header.insert(header.find("};"),
                  "    TieBreak mode = TieBreak::fifo;\n");
    const auto flagged = lintAll(
        {{"src/q.hh", header},
         {"src/rig.cc", "section(\"q\", fill);\n"}},
        "Queue q\n");
    EXPECT_EQ(linesOf(flagged, "serialize-coverage"),
              (std::vector<int>{11}));

    // An inline allow on the member clears it and counts as used.
    header.insert(header.find("    TieBreak"),
                  "    // ablint:allow(serialize-coverage): run config\n");
    const auto allowed = lintAll(
        {{"src/q.hh", header},
         {"src/rig.cc", "section(\"q\", fill);\n"}},
        "Queue q\n");
    EXPECT_EQ(countRule(allowed, "serialize-coverage"), 0u);
    EXPECT_EQ(countRule(allowed, "stale-allow"), 0u);
}

TEST(AblintConfigKey, UndocumentedKeyFlagged)
{
    const std::string parser =
        "if (key == \"snapshot.shiny_new_knob\") { }\n";
    const auto undocumented = lint({{"src/c.cc", parser}}, "docs");
    EXPECT_EQ(countRule(undocumented, "config-key"), 1u);
    const auto documented = lint(
        {{"src/c.cc", parser}},
        "| `snapshot.shiny_new_knob` | 0 | a knob |\n");
    EXPECT_EQ(countRule(documented, "config-key"), 0u);
}

TEST(AblintPostInitFatal, FlagsBareFatalCall)
{
    const auto findings = lint(
        {{"src/sched/a.cc",
          "void f() { fatal(\"cannot continue: %s\", why); }\n"}});
    EXPECT_EQ(countRule(findings, "post-init-fatal"), 1u);
}

TEST(AblintPostInitFatal, InlineAllowAndAllowlistSuppress)
{
    const auto allowed = lint(
        {{"src/platform/a.cc",
          "// ablint:allow(post-init-fatal): ctor validation\n"
          "fatal(\"no clusters\");\n"}});
    EXPECT_EQ(countRule(allowed, "post-init-fatal"), 0u);
    const auto allowlisted = lint(
        {{"src/workload/apps.cc", "fatal(\"unknown app\");\n"},
         {"src/base/logging.cc",
          "void fatal(const char *fmt, ...) { }\n"}});
    EXPECT_EQ(countRule(allowlisted, "post-init-fatal"), 0u);
}

TEST(AblintPostInitFatal, DeclarationsAndTestsAreClean)
{
    // A declaration of fatal itself (noreturn attribute or void
    // return type before the name) is not a call site.
    const auto decls = lint(
        {{"src/other/log2.hh",
          "[[noreturn]] void fatal(const char *fmt, ...);\n"}});
    EXPECT_EQ(countRule(decls, "post-init-fatal"), 0u);
    const auto tests = lint(
        {{"tests/sched/t.cc", "fatal(\"die\");\n"}});
    EXPECT_EQ(countRule(tests, "post-init-fatal"), 0u);
}

TEST(AblintFinding, FormatIsFileLineRuleMessage)
{
    const ablint::Finding f{"src/a.cc", 7, "wall-clock", "nope"};
    EXPECT_EQ(f.format(), "src/a.cc:7: error: [wall-clock] nope");
}

#ifdef ABLINT_REPO_ROOT
/** Meta-test: the checked-in tree is lint-clean. */
TEST(AblintRepo, TreeIsClean)
{
    const auto findings = ablint::runOnRepo(ABLINT_REPO_ROOT);
    for (const auto &f : findings)
        ADD_FAILURE() << f.format();
    EXPECT_TRUE(findings.empty());
}
#endif

} // namespace
