/**
 * @file
 * absema's entity model: a cross-declaration view of the lexed
 * sources that the semantic rules (sema_rules.cc) reason over.
 *
 * buildModel() parses the token streams produced by lexString() into
 *
 *  - classes with their non-static data members (name, declared
 *    type, line) - nested classes carry qualified names;
 *  - function definitions, both free and member (in-class or
 *    out-of-line `Cls::method(...) { ... }`), each with its body
 *    token range;
 *  - the `#include "..."` graph of the scanned files.
 *
 * Same zero-dependency philosophy as the lexer: no libclang, no
 * preprocessing.  The parser is a scope-stack walk tuned to this
 * codebase's idiom; its known blind spots (macro-generated members,
 * function-try-blocks, exotic operator definitions) are documented
 * in docs/STATIC_ANALYSIS.md.  Preprocessor directive lines
 * (including multi-line #define continuations) are skipped, with
 * `#include` targets harvested on the way past.
 */

#ifndef BIGLITTLE_TOOLS_ABLINT_MODEL_HH
#define BIGLITTLE_TOOLS_ABLINT_MODEL_HH

#include "ablint.hh"

#include <map>
#include <string>
#include <vector>

namespace biglittle::ablint
{

/** One non-static (unless flagged) data member of a class. */
struct Member
{
    std::string name;

    /**
     * Declared type as token text ("std :: uint64_t" style spacing),
     * including array extents, excluding initializers and the
     * static/mutable/inline specifiers.
     */
    std::string type;

    int line = 0;
    bool isStatic = false; ///< static or constexpr member
};

/** A class/struct definition. */
struct ClassInfo
{
    std::string name; ///< last component ("Inner")
    std::string qualName; ///< enclosing classes joined ("Outer::Inner")
    const LexedFile *file = nullptr;
    int line = 0;
    std::vector<Member> members;
};

/** A function definition (one with a body). */
struct FunctionDef
{
    std::string name; ///< last component ("serialize")
    std::string qualName; ///< "Task::serialize" / free-function name
    const LexedFile *file = nullptr;
    int line = 0;

    /** Body token range [bodyBegin, bodyEnd) into file->tokens. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
};

/** One `#include "..."` edge. */
struct IncludeEdge
{
    const LexedFile *file = nullptr;
    int line = 0;
    std::string target; ///< the quoted path, e.g. "sched/hmp.hh"
};

/** The parsed entity model of a ScanInput. */
struct Model
{
    std::vector<ClassInfo> classes;
    std::vector<FunctionDef> functions;
    std::vector<IncludeEdge> includes;

    /** Function indices by last-component name. */
    std::map<std::string, std::vector<std::size_t>> functionsByName;

    /**
     * Class by exact qualified name, else by unique last component;
     * nullptr when unknown or ambiguous-and-absent.
     */
    const ClassInfo *findClass(const std::string &name) const;
};

/** Parse every file of @p files into one model. */
Model buildModel(const std::vector<LexedFile> &files);

} // namespace biglittle::ablint

#endif // BIGLITTLE_TOOLS_ABLINT_MODEL_HH
