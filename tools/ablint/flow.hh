/**
 * @file
 * abflow: the dataflow layer on top of absema's entity model.
 *
 * buildFlowModel() parses each FunctionDef's parameter list and runs
 * an intraprocedural def-use taint analysis over its body, then
 * composes the per-function results bottom-up over the call graph as
 * summaries (param-in -> return/sink-out) iterated to a fixpoint:
 *
 *  - returnsTaint        the function can return a value derived
 *                        from an untrusted decode surface (a raw
 *                        Deserializer::getU64-family read or a
 *                        std::sto- / ato- / strto-family numeric
 *                        parse) without a sanitizing bound check;
 *  - paramToReturn[i]    parameter i can flow to the return value
 *                        unsanitized (taint passes through);
 *  - paramToSink[i]      parameter i can reach an allocation-size,
 *                        loop-bound or index sink in this function
 *                        (or transitively in a callee) unsanitized.
 *
 * Sanitizers kill taint: assignment from Deserializer::getCount()
 * (the bound is built in), a `<`/`>` comparison against the value
 * outside a loop header, a std::min/std::max/std::clamp wrap, or
 * reassignment from a clean expression.  The engine is token-level
 * and flow-ordered like the rest of ablint: writes inside a nested
 * block merge instead of overwriting (the branch may not execute),
 * and each braced loop body is walked twice back to back so
 * loop-carried flow converges.  Its blind spots are documented in
 * docs/STATIC_ANALYSIS.md.
 *
 * The rules built on the engine (flow_rules.cc): taint-bound and
 * status-drop - see ablint.hh.
 */

#ifndef BIGLITTLE_TOOLS_ABLINT_FLOW_HH
#define BIGLITTLE_TOOLS_ABLINT_FLOW_HH

#include "model.hh"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace biglittle::ablint
{

/** One declared parameter of a function definition. */
struct FlowParam
{
    /** Empty for an unnamed parameter, which still takes a slot. */
    std::string name;
};

/** Where a parameter's taint lands, for chain-aware messages. */
struct SinkNote
{
    int line = 0; ///< sink line in the function's own file
    std::string file; ///< repo-relative path of that file
    std::string what; ///< "a resize()", "a loop bound", ...
};

/** The interprocedural facts exported by one function. */
struct FlowSummary
{
    bool returnsTaint = false;

    /** Why the return is tainted (source description), if it is. */
    std::string returnTaintWhy;

    std::vector<bool> paramToReturn; ///< sized like params
    std::vector<bool> paramToSink; ///< sized like params
    std::vector<SinkNote> paramSink; ///< sink info per param
};

/** One function definition with its parsed params and summary. */
struct FlowFunction
{
    /** Points into FlowModel::model.functions. */
    const FunctionDef *def = nullptr;

    std::vector<FlowParam> params;
    FlowSummary summary;
};

/** The flow view of a ScanInput: entity model + summaries. */
struct FlowModel
{
    Model model;

    /** Parallel to model.functions. */
    std::vector<FlowFunction> functions;

    /** FlowFunction indices by last-component name. */
    std::map<std::string, std::vector<std::size_t>> byName;
};

/**
 * Build the flow model: parse parameter lists, then iterate the
 * per-function summaries to a fixpoint over the call graph.
 * @p in must outlive the returned model (token ranges point into
 * its files), matching buildModel().
 */
FlowModel buildFlowModel(const ScanInput &in);

/**
 * Parse a parameter-list token range (exposed for the engine's own
 * golden tests).  `()` and `(void)` both yield no parameters.
 */
std::vector<FlowParam> parseParams(const std::vector<Token> &toks,
                                   std::size_t begin,
                                   std::size_t end);

/** Emission callback for taint findings: (sink line, message). */
using TaintEmitter =
    std::function<void(int line, const std::string &message)>;

/**
 * Run the taint walk over one function body against the summaries
 * in @p fm.  Returns the function's own summary; when @p emit is
 * non-null, also reports source-derived taint reaching a sink (the
 * taint-bound rule's emission path, exposed for engine tests).
 */
FlowSummary analyzeTaint(const FlowFunction &fn, const FlowModel &fm,
                         const TaintEmitter *emit);

} // namespace biglittle::ablint

#endif // BIGLITTLE_TOOLS_ABLINT_FLOW_HH
