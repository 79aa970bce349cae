/**
 * @file
 * Filesystem side of ablint: walk the repo, lex every C++ file under
 * src/ and tests/, load the docs corpus and the serialization
 * registry, and run the rules.
 */

#include "ablint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fs = std::filesystem;

namespace biglittle::ablint
{

namespace
{

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("ablint: cannot read '" +
                                 path.string() + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
isCppFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".h" ||
           ext == ".cpp" || ext == ".hpp";
}

/** Path relative to @p root when under it, generic separators. */
std::string
repoRelative(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    if (ec || rel.empty() || rel.native()[0] == '.')
        return p.generic_string();
    return rel.generic_string();
}

void
collectDir(const fs::path &dir, std::vector<fs::path> &files)
{
    if (!fs::exists(dir))
        return;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() && isCppFile(entry.path()))
            files.push_back(entry.path());
    }
}

} // namespace

ScanInput
loadRepo(const std::string &repoRoot)
{
    const fs::path root(repoRoot);
    if (!fs::exists(root / "src"))
        throw std::runtime_error(
            "ablint: '" + repoRoot +
            "' does not look like the repo root (no src/)");

    std::vector<fs::path> files;
    collectDir(root / "src", files);
    collectDir(root / "tests", files);
    // The linter itself must be deterministic: directory iteration
    // order is filesystem-dependent, so sort by repo-relative path.
    std::sort(files.begin(), files.end(),
              [&](const fs::path &a, const fs::path &b) {
                  return repoRelative(root, a) < repoRelative(root, b);
              });

    ScanInput in;
    for (const auto &p : files)
        in.files.push_back(
            lexString(repoRelative(root, p), readFile(p)));

    if (fs::exists(root / "EXPERIMENTS.md"))
        in.docsText += readFile(root / "EXPERIMENTS.md");
    if (fs::exists(root / "docs")) {
        std::vector<fs::path> docs;
        for (const auto &entry :
             fs::directory_iterator(root / "docs")) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".md")
                docs.push_back(entry.path());
        }
        std::sort(docs.begin(), docs.end());
        for (const auto &d : docs)
            in.docsText += readFile(d);
    }

    const fs::path registry =
        root / "tools" / "ablint" / "serialized_state.txt";
    if (fs::exists(registry))
        in.registryText = readFile(registry);

    return in;
}

std::vector<Finding>
runOnRepo(const std::string &repoRoot, RuleProfile *profile)
{
    return runAllRules(loadRepo(repoRoot), profile);
}

} // namespace biglittle::ablint
