/**
 * @file
 * ablint CLI.
 *
 *   ablint [--repo <root>] [--format=FMT] [--profile] [--list-rules]
 *
 * --format is text (default), github (::error workflow commands for
 * inline PR annotations) or json (one array of finding objects).
 * --profile prints per-rule wall time (ms, slowest first) to stderr
 * after the findings - CI budgets the lint step with it.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error (any
 * argument not listed above is a usage error).
 */

#include "ablint.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

int
main(int argc, char **argv)
{
    using namespace biglittle::ablint;

    std::string repo = ".";
    std::string format = "text";
    bool profile = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "ablint: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--repo") {
            repo = value();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--format") {
            format = value();
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
        } else if (arg == "--list-rules") {
            for (const auto &name : ruleNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: ablint [--repo ROOT] "
                "[--format=text|github|json]\n"
                "              [--profile] [--list-rules]\n"
                "\n"
                "Determinism & error-discipline lint over src/ and\n"
                "tests/ - lexical rules plus the absema semantic\n"
                "pass.  See docs/STATIC_ANALYSIS.md.\n");
            return 0;
        } else {
            std::fprintf(stderr, "ablint: unknown argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (format != "text" && format != "github" && format != "json") {
        std::fprintf(stderr,
                     "ablint: unknown format '%s' (text, github, "
                     "json)\n",
                     format.c_str());
        return 2;
    }

    std::vector<Finding> findings;
    RuleProfile ruleProfile;
    try {
        findings = runOnRepo(repo, profile ? &ruleProfile : nullptr);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    if (profile) {
        std::vector<std::pair<std::string, double>> timings(
            ruleProfile.begin(), ruleProfile.end());
        std::sort(timings.begin(), timings.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        double total = 0.0;
        for (const auto &[name, ms] : timings)
            total += ms;
        std::fprintf(stderr, "ablint: rule timings (ms)\n");
        for (const auto &[name, ms] : timings)
            std::fprintf(stderr, "  %10.3f  %s\n", ms,
                         name.c_str());
        std::fprintf(stderr, "  %10.3f  total\n", total);
    }

    if (format == "json") {
        std::printf("[");
        for (std::size_t i = 0; i < findings.size(); ++i)
            std::printf("%s%s", i == 0 ? "" : ",",
                        findings[i].formatJson().c_str());
        std::printf("]\n");
        return findings.empty() ? 0 : 1;
    }
    for (const auto &f : findings)
        std::printf("%s\n",
                    format == "github" ? f.formatGithub().c_str()
                                       : f.format().c_str());
    if (findings.empty()) {
        if (format == "text")
            std::printf("ablint: clean\n");
        return 0;
    }
    if (format == "text")
        std::printf("ablint: %zu finding(s)\n", findings.size());
    return 1;
}
