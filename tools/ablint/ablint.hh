/**
 * @file
 * ablint: the repo's determinism & error-discipline linter.
 *
 * A deliberately small static-analysis pass over src/ and tests/
 * that moves the guarantees PR 2 established at runtime (bit-exact
 * replay, attributable snapshots) to lint time:
 *
 *  - wall-clock      no rand()/random_device/time()/argless chrono
 *                    clocks outside the allowlisted wall-clock
 *                    module (snapshot/watchdog) and inline-justified
 *                    sites;
 *  - unordered-iter  no unordered_map/unordered_set in stateful sim
 *                    code (src/), where iteration order can leak
 *                    into event ordering;
 *  - static-mutable  no mutable `static` state in sim code;
 *  - void-discard    no `(void)` / static_cast<void> laundering of
 *                    a call's return value in src/ (Status/Result
 *                    are [[nodiscard]]; handle them for real);
 *  - config-key      every config key string compared against `key`
 *                    in src/ is documented in EXPERIMENTS.md or a
 *                    markdown file under docs/;
 *  - post-init-fatal every fatal() call in src/ outside the modules
 *                    whose contract it is carries an inline allow
 *                    naming why it cannot happen mid-run.
 *
 * On top of the token-scan rules sits absema, a semantic pass over a
 * parsed entity model of src/ (classes + data members, function
 * definitions, an #include graph - see model.hh):
 *
 *  - serialize-coverage  every class defining serialize()/
 *                    serializePolicy()/serializeState() is registered
 *                    in tools/ablint/serialized_state.txt against the
 *                    checkpoint section (or covering parent) that
 *                    captures it, every registry entry is live, and
 *                    every plain-value data member of a registered
 *                    class is written by one of its serialize
 *                    flavors;
 *  - rng-stream      every Rng constructed with an explicit seed in
 *                    sim code traces that seed to deriveStreamSeed()
 *                    / namedStream() / fork();
 *  - layer-cycle     the #include graph respects the layer order of
 *                    src/ (docs/STATIC_ANALYSIS.md) and is acyclic;
 *  - status-drop     a Status/Result local in a function body that
 *                    is assigned and then overwritten, or dies,
 *                    without ever being branched on, propagated, or
 *                    logged;
 *  - stale-allow     an inline allow directive that no longer
 *                    suppresses anything is itself a finding.
 *
 * Suppression: `// ablint:allow(rule[,rule]): why` on the violating
 * line or the line directly above it, and nowhere else.  A directive
 * that suppresses nothing is itself a stale-allow finding.
 *
 * The tool is standalone (no dependency on the simulation libraries)
 * so it can never be broken by the code it checks.
 */

#ifndef BIGLITTLE_TOOLS_ABLINT_HH
#define BIGLITTLE_TOOLS_ABLINT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace biglittle::ablint
{

/** Lexical class of one token. */
enum class TokKind
{
    identifier,
    number,
    str, ///< string literal, text is the (unescaped) raw body
    chr, ///< character literal
    punct, ///< single punctuation character
};

/** One token with its 1-based source line. */
struct Token
{
    TokKind kind;
    std::string text;
    int line = 0;
};

/** One `ablint:allow(...)` comment, for stale-allow accounting. */
struct AllowDirective
{
    int line = 0; ///< line the comment starts on
    std::set<std::string> rules;
};

/** A lexed translation unit plus its suppression directives. */
struct LexedFile
{
    /** Repo-relative path with forward slashes. */
    std::string path;

    std::vector<Token> tokens;

    /**
     * Rules allowed per line: an `ablint:allow(r1,r2)` comment on
     * line N grants {r1,r2} on lines N and N+1 (so the directive
     * can sit above the violating statement).
     */
    std::map<int, std::set<std::string>> allows;

    /** Every allow directive, one entry per comment. */
    std::vector<AllowDirective> directives;

    /** True for files under tests/ (some rules are src-only). */
    bool isTest = false;
};

/** Lex @p text as file @p path (no filesystem access). */
LexedFile lexString(const std::string &path, const std::string &text);

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    /** "file:line: error: [rule] message" */
    std::string format() const;

    /** "::error file=...,line=...,title=...::..." (CI annotation). */
    std::string formatGithub() const;

    /** One JSON object: {"file":...,"line":...,"rule":...,...}. */
    std::string formatJson() const;
};

/** Everything the rule pass needs, filesystem-free for testing. */
struct ScanInput
{
    std::vector<LexedFile> files;

    /** Concatenated EXPERIMENTS.md + docs markdown (config-key). */
    std::string docsText;

    /** tools/ablint/serialized_state.txt contents. */
    std::string registryText;
};

/**
 * Which inline allows actually suppressed something:
 * (file, suppressed-finding line) -> rules used there.  Fed by the
 * rule passes, consumed by staleAllowFindings().
 */
using AllowUse =
    std::map<std::pair<std::string, int>, std::set<std::string>>;

/**
 * Per-rule wall time in milliseconds, keyed by rule name (plus the
 * "sema-model-build" entry for the entity-model parse).  Filled by
 * the rule passes when non-null; rendered by `ablint --profile`.
 */
using RuleProfile = std::map<std::string, double>;

/**
 * Run the lexical (token-scan) rules; findings already filtered by
 * inline allows.  When @p uses is non-null, records which allows
 * fired (for stale-allow).  When @p profile is non-null, accumulates
 * per-rule wall time.
 */
std::vector<Finding> runRules(const ScanInput &in,
                              AllowUse *uses = nullptr,
                              RuleProfile *profile = nullptr);

/**
 * Run the semantic (entity-model) rules: serialize-coverage,
 * rng-stream, layer-cycle, status-drop.  Builds the model
 * (tools/ablint/model.hh) from @p in internally and feeds the same
 * Finding / inline-allow machinery as runRules().
 */
std::vector<Finding> runSemaRules(const ScanInput &in,
                                  AllowUse *uses = nullptr,
                                  RuleProfile *profile = nullptr);

/**
 * The stale-allow rule: every `ablint:allow` directive whose rule
 * suppressed nothing in @p uses (and every directive naming an
 * unknown rule) is itself a finding.
 */
std::vector<Finding> staleAllowFindings(const ScanInput &in,
                                        const AllowUse &uses);

/** runRules + runSemaRules + staleAllowFindings, sorted. */
std::vector<Finding> runAllRules(const ScanInput &in,
                                 RuleProfile *profile = nullptr);

/** Names of all rules, for --list-rules and directive validation. */
const std::vector<std::string> &ruleNames();

/**
 * Lex src/ and tests/ of a repo checkout and load the docs corpus
 * and the serialization registry (tools/ablint/serialized_state.txt).
 * I/O failures throw std::runtime_error.
 */
ScanInput loadRepo(const std::string &repoRoot);

/**
 * Scan a repo checkout: loadRepo(), then runAllRules().  Returns the
 * findings; I/O failures throw std::runtime_error.
 */
std::vector<Finding> runOnRepo(const std::string &repoRoot,
                               RuleProfile *profile = nullptr);

} // namespace biglittle::ablint

#endif // BIGLITTLE_TOOLS_ABLINT_HH
