/**
 * @file
 * The entity-model builder: a scope-stack parse of the lexed token
 * streams into classes + members, function definitions, and the
 * include graph.  See model.hh for scope and blind spots.
 */

#include "model.hh"

#include "sink.hh"

#include <algorithm>

namespace biglittle::ablint
{

namespace
{

using detail::isIdent;
using detail::isPunct;

/** Specifiers stripped from member declarations. */
bool
isDeclSpecifier(const std::string &name)
{
    static const std::set<std::string> specs = {
        "static",   "mutable", "inline",       "constexpr",
        "constinit", "extern",  "thread_local", "volatile",
        "explicit", "virtual", "typename",
    };
    return specs.count(name) > 0;
}

class FileParser
{
  public:
    FileParser(const LexedFile &file, Model &model)
        : f(file), toks(file.tokens), n(file.tokens.size()), m(model)
    {
    }

    void
    run()
    {
        parseDecls(std::vector<std::string>(), false,
                   /*stopAtBrace=*/false);
    }

  private:
    const LexedFile &f;
    const std::vector<Token> &toks;
    const std::size_t n;
    Model &m;
    std::size_t i = 0;

    bool
    startsLine(std::size_t at) const
    {
        return at == 0 || toks[at - 1].line != toks[at].line;
    }

    /** Skip a preprocessor line (plus backslash continuations). */
    void
    skipDirective()
    {
        int dirLine = toks[i].line;
        ++i; // '#'
        // Harvest `#include "..."` while passing.
        if (i < n && isIdent(toks[i], "include") &&
            toks[i].line == dirLine) {
            if (i + 1 < n && toks[i + 1].kind == TokKind::str &&
                toks[i + 1].line == dirLine) {
                m.includes.push_back(
                    {&f, dirLine, toks[i + 1].text});
            }
        }
        bool lastWasBackslash = false;
        while (i < n) {
            if (toks[i].line == dirLine) {
                lastWasBackslash = isPunct(toks[i], '\\');
                ++i;
            } else if (lastWasBackslash) {
                dirLine = toks[i].line; // continuation line
                lastWasBackslash = false;
            } else {
                break;
            }
        }
    }

    /** From @p at (a '<'), step past the balanced angle list. */
    std::size_t
    skipAngles(std::size_t at) const
    {
        int depth = 0;
        while (at < n) {
            if (isPunct(toks[at], '<')) {
                ++depth;
            } else if (isPunct(toks[at], '>')) {
                if (--depth == 0)
                    return at + 1;
            } else if (isPunct(toks[at], ';')) {
                return at; // malformed; bail at the statement end
            }
            ++at;
        }
        return at;
    }

    /** From @p at (an open bracket), past the matching close. */
    std::size_t
    skipBalanced(std::size_t at, char open, char close) const
    {
        int depth = 0;
        while (at < n) {
            if (isPunct(toks[at], open))
                ++depth;
            else if (isPunct(toks[at], close) && --depth == 0)
                return at + 1;
            ++at;
        }
        return at;
    }

    /** Skip to just past the next ';' at brace/paren depth 0. */
    void
    skipStatement()
    {
        int depth = 0;
        while (i < n) {
            const Token &t = toks[i];
            if (isPunct(t, '{') || isPunct(t, '(') ||
                isPunct(t, '['))
                ++depth;
            else if (isPunct(t, '}') || isPunct(t, ')') ||
                     isPunct(t, ']'))
                --depth;
            else if (isPunct(t, ';') && depth <= 0) {
                ++i;
                return;
            }
            ++i;
        }
    }

    /** enum [class] [name] [: base] [{ ... }] [;] */
    void
    skipEnum()
    {
        ++i; // 'enum'
        while (i < n && !isPunct(toks[i], '{') &&
               !isPunct(toks[i], ';'))
            ++i;
        if (i < n && isPunct(toks[i], '{'))
            i = skipBalanced(i, '{', '}');
        if (i < n && isPunct(toks[i], ';'))
            ++i;
    }

    /**
     * Parse declarations until EOF or (when @p stopAtBrace) the '}'
     * closing the scope the caller opened.
     */
    void
    parseDecls(const std::vector<std::string> &classStack,
               bool inClass, bool stopAtBrace)
    {
        while (i < n) {
            const Token &t = toks[i];
            if (isPunct(t, '#') && startsLine(i)) {
                skipDirective();
                continue;
            }
            if (isPunct(t, '}')) {
                if (stopAtBrace)
                    return;
                ++i; // stray close (extern "C" etc.): ignore
                continue;
            }
            if (isPunct(t, ';')) {
                ++i;
                continue;
            }
            if (t.kind == TokKind::identifier) {
                if (t.text == "template") {
                    ++i;
                    if (i < n && isPunct(toks[i], '<'))
                        i = skipAngles(i);
                    continue;
                }
                if (t.text == "namespace") {
                    parseNamespace(classStack);
                    continue;
                }
                if (t.text == "class" || t.text == "struct" ||
                    t.text == "union") {
                    parseClass(classStack);
                    continue;
                }
                if (t.text == "enum") {
                    skipEnum();
                    continue;
                }
                if (t.text == "using" || t.text == "typedef" ||
                    t.text == "friend" ||
                    t.text == "static_assert") {
                    skipStatement();
                    continue;
                }
                if (inClass &&
                    (t.text == "public" || t.text == "private" ||
                     t.text == "protected") &&
                    i + 1 < n && isPunct(toks[i + 1], ':') &&
                    !(i + 2 < n && isPunct(toks[i + 2], ':'))) {
                    i += 2;
                    continue;
                }
                if (t.text == "extern" && i + 1 < n &&
                    toks[i + 1].kind == TokKind::str) {
                    // extern "C" { ... } or extern "C" decl
                    i += 2;
                    if (i < n && isPunct(toks[i], '{')) {
                        ++i;
                        parseDecls(classStack, inClass, true);
                        if (i < n)
                            ++i; // the '}'
                    }
                    continue;
                }
            }
            parseStatement(classStack, inClass);
        }
    }

    void
    parseNamespace(const std::vector<std::string> &classStack)
    {
        ++i; // 'namespace'
        while (i < n && (toks[i].kind == TokKind::identifier ||
                         isPunct(toks[i], ':')))
            ++i;
        if (i < n && isPunct(toks[i], '=')) {
            skipStatement(); // namespace alias
            return;
        }
        if (i < n && isPunct(toks[i], '{')) {
            ++i;
            // Namespaces are transparent for qualified names.
            parseDecls(classStack, false, true);
            if (i < n)
                ++i; // the '}'
        }
    }

    void
    parseClass(const std::vector<std::string> &classStack)
    {
        const int declLine = toks[i].line;
        ++i; // class/struct/union
        // Skip [[attributes]].
        while (i + 1 < n && isPunct(toks[i], '[') &&
               isPunct(toks[i + 1], '[')) {
            i += 2;
            while (i < n && !isPunct(toks[i], ']'))
                ++i;
            while (i < n && isPunct(toks[i], ']'))
                ++i;
        }
        // Collect the head up to '{' (definition), ';' (forward
        // declaration) or '=' (alias-like, not a class).
        std::vector<std::string> idents;
        int nameLine = declLine;
        while (i < n) {
            const Token &t = toks[i];
            if (isPunct(t, '{') || isPunct(t, ';') ||
                isPunct(t, '='))
                break;
            if (isPunct(t, ':') &&
                !(i + 1 < n && isPunct(toks[i + 1], ':')) &&
                !(i > 0 && isPunct(toks[i - 1], ':'))) {
                // Base clause: scan to the body '{' (angles okay:
                // template bases contain no braces).
                while (i < n && !isPunct(toks[i], '{') &&
                       !isPunct(toks[i], ';'))
                    ++i;
                break;
            }
            if (t.kind == TokKind::identifier && t.text != "final") {
                idents.push_back(t.text);
                nameLine = t.line;
            }
            if (isPunct(t, '<')) { // specialization args
                i = skipAngles(i);
                continue;
            }
            ++i;
        }
        if (i >= n || !isPunct(toks[i], '{')) {
            // Forward declaration or something stranger: consume
            // the statement and move on.
            skipStatement();
            return;
        }
        ++i; // '{'
        std::string name =
            idents.empty() ? std::string() : idents.back();
        std::vector<std::string> inner = classStack;
        ClassInfo rec;
        if (!name.empty()) {
            inner.push_back(name);
            rec.name = name;
            rec.qualName = joinQual(inner);
            rec.file = &f;
            rec.line = nameLine;
            m.classes.push_back(rec);
        }
        const std::size_t classIdx =
            name.empty() ? m.classes.size() : m.classes.size() - 1;
        parseClassBody(inner, name.empty() ? classStack : inner,
                       name.empty() ? static_cast<std::size_t>(-1)
                                    : classIdx);
        // Optional trailing declarator list: `} instance;`
        skipStatement();
    }

    static std::string
    joinQual(const std::vector<std::string> &parts)
    {
        std::string out;
        for (const auto &p : parts) {
            if (!out.empty())
                out += "::";
            out += p;
        }
        return out;
    }

    /**
     * Body of a class whose members land in m.classes[classIdx]
     * (npos for anonymous).  Consumes up to and including '}'.
     */
    void
    parseClassBody(const std::vector<std::string> &classStack,
                   const std::vector<std::string> &memberScope,
                   std::size_t classIdx)
    {
        (void)memberScope;
        while (i < n) {
            const Token &t = toks[i];
            if (isPunct(t, '}')) {
                ++i;
                return;
            }
            if (isPunct(t, '#') && startsLine(i)) {
                skipDirective();
                continue;
            }
            if (isPunct(t, ';')) {
                ++i;
                continue;
            }
            if (t.kind == TokKind::identifier) {
                if (t.text == "template") {
                    ++i;
                    if (i < n && isPunct(toks[i], '<'))
                        i = skipAngles(i);
                    continue;
                }
                if (t.text == "class" || t.text == "struct" ||
                    t.text == "union") {
                    parseClass(classStack);
                    continue;
                }
                if (t.text == "enum") {
                    skipEnum();
                    continue;
                }
                if (t.text == "using" || t.text == "typedef" ||
                    t.text == "friend" ||
                    t.text == "static_assert") {
                    skipStatement();
                    continue;
                }
                if ((t.text == "public" || t.text == "private" ||
                     t.text == "protected") &&
                    i + 1 < n && isPunct(toks[i + 1], ':') &&
                    !(i + 2 < n && isPunct(toks[i + 2], ':'))) {
                    i += 2;
                    continue;
                }
            }
            parseMemberStatement(classStack, classIdx);
        }
    }

    /**
     * Scan one statement from @p from, classifying it.  Returns the
     * index of the terminator (';' at depth 0, or the '{' of a
     * function body / braced initializer) plus what was seen on the
     * way: the first depth-0 '(' and whether '=' preceded it.
     */
    struct StmtShape
    {
        std::size_t end = 0; ///< index of ';' or '{'
        bool hitBrace = false;
        std::size_t firstParen = static_cast<std::size_t>(-1);
        bool eqBeforeParen = false;
        bool sawEq = false;
    };

    StmtShape
    scanStatement(std::size_t from) const
    {
        StmtShape s;
        int paren = 0;
        int bracket = 0;
        int angle = 0;
        std::size_t at = from;
        while (at < n) {
            const Token &t = toks[at];
            if (isPunct(t, '(')) {
                if (paren == 0 && bracket == 0 && angle == 0 &&
                    s.firstParen == static_cast<std::size_t>(-1)) {
                    s.firstParen = at;
                    s.eqBeforeParen = s.sawEq;
                }
                ++paren;
            } else if (isPunct(t, ')')) {
                --paren;
            } else if (isPunct(t, '[')) {
                ++bracket;
            } else if (isPunct(t, ']')) {
                --bracket;
            } else if (isPunct(t, '<')) {
                // Heuristic: angles open after an identifier
                // (template-id); `a < b` comparisons only occur in
                // initializers, where miscounting is harmless.
                if (at > from &&
                    toks[at - 1].kind == TokKind::identifier)
                    ++angle;
            } else if (isPunct(t, '>')) {
                if (angle > 0)
                    --angle;
            } else if (isPunct(t, '=') && paren == 0 &&
                       bracket == 0) {
                s.sawEq = true;
            } else if (isPunct(t, '{') && paren == 0 &&
                       bracket == 0) {
                s.end = at;
                s.hitBrace = true;
                return s;
            } else if (isPunct(t, ';') && paren == 0 &&
                       bracket == 0) {
                s.end = at;
                return s;
            }
            ++at;
        }
        s.end = n;
        return s;
    }

    /** One statement at class-body depth: member, method, or noise. */
    void
    parseMemberStatement(const std::vector<std::string> &classStack,
                         std::size_t classIdx)
    {
        const std::size_t start = i;
        const StmtShape s = scanStatement(start);
        const bool isFunction =
            s.firstParen != static_cast<std::size_t>(-1) &&
            !s.eqBeforeParen;
        if (s.hitBrace && isFunction) {
            parseFunctionFrom(start, s, classStack);
            return;
        }
        if (s.hitBrace) {
            // Member with braced initializer: `Rng tieRng{1};` or
            // `= { ... }`.  Members come from the tokens before the
            // '=' / '{'; then skip the braces and the ';'.
            if (classIdx != static_cast<std::size_t>(-1))
                recordMembers(start, s.end, classIdx);
            i = skipBalanced(s.end, '{', '}');
            if (i < n && isPunct(toks[i], ';'))
                ++i;
            return;
        }
        // Plain ';'-terminated statement.
        if (!isFunction &&
            classIdx != static_cast<std::size_t>(-1))
            recordMembers(start, s.end, classIdx);
        i = s.end < n ? s.end + 1 : n;
    }

    /**
     * Record the data member(s) declared in [start, end).  @p end is
     * the terminating ';' / '{' of the statement.
     */
    void
    recordMembers(std::size_t start, std::size_t end,
                  std::size_t classIdx)
    {
        // Strip declaration specifiers; note static/constexpr.
        bool isStatic = false;
        std::size_t at = start;
        while (at < end && toks[at].kind == TokKind::identifier &&
               isDeclSpecifier(toks[at].text)) {
            if (toks[at].text == "static" ||
                toks[at].text == "constexpr" ||
                toks[at].text == "constinit")
                isStatic = true;
            ++at;
        }
        if (at >= end)
            return;
        // Split into declarator chunks at depth-0 commas; the first
        // chunk carries the type.
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        {
            int paren = 0, bracket = 0, brace = 0, angle = 0;
            std::size_t chunkStart = at;
            for (std::size_t j = at; j < end; ++j) {
                const Token &t = toks[j];
                if (isPunct(t, '('))
                    ++paren;
                else if (isPunct(t, ')'))
                    --paren;
                else if (isPunct(t, '['))
                    ++bracket;
                else if (isPunct(t, ']'))
                    --bracket;
                else if (isPunct(t, '{'))
                    ++brace;
                else if (isPunct(t, '}'))
                    --brace;
                else if (isPunct(t, '<') && j > at &&
                         toks[j - 1].kind == TokKind::identifier)
                    ++angle;
                else if (isPunct(t, '>') && angle > 0)
                    --angle;
                else if (isPunct(t, ',') && paren == 0 &&
                         bracket == 0 && brace == 0 && angle == 0) {
                    chunks.push_back({chunkStart, j});
                    chunkStart = j + 1;
                }
            }
            chunks.push_back({chunkStart, end});
        }
        ClassInfo &cls = m.classes[classIdx];
        std::string typeText;
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const auto [cb, ce] = chunks[c];
            // Declarator name: last identifier before the first
            // depth-0 '=', '{' or bitfield ':' of the chunk.
            std::size_t nameIdx = static_cast<std::size_t>(-1);
            int paren = 0, bracket = 0;
            for (std::size_t j = cb; j < ce; ++j) {
                const Token &t = toks[j];
                if (isPunct(t, '('))
                    ++paren;
                else if (isPunct(t, ')'))
                    --paren;
                else if (isPunct(t, '['))
                    ++bracket;
                else if (isPunct(t, ']'))
                    --bracket;
                if (paren > 0 || bracket > 0)
                    continue;
                if (isPunct(t, '=') || isPunct(t, '{'))
                    break;
                if (isPunct(t, ':') &&
                    !(j + 1 < ce && isPunct(toks[j + 1], ':')) &&
                    !(j > cb && isPunct(toks[j - 1], ':')))
                    break; // bitfield width
                if (t.kind == TokKind::identifier &&
                    !isDeclSpecifier(t.text) && t.text != "const")
                    nameIdx = j;
            }
            if (nameIdx == static_cast<std::size_t>(-1))
                continue;
            // Type text: every non-initializer token of the chunk
            // except the name itself (array extents ride along so
            // `s[4] -> s[6]` changes the digest).  The first chunk
            // sets the shared base type for later declarators.
            std::string text;
            for (std::size_t j = cb; j < ce; ++j) {
                if (j == nameIdx)
                    continue;
                const Token &t = toks[j];
                if (isPunct(t, '=') || isPunct(t, '{'))
                    break;
                if (!text.empty())
                    text += ' ';
                text += t.text;
            }
            if (c == 0)
                typeText = text;
            else if (!typeText.empty())
                text = text.empty() ? typeText
                                    : typeText + " " + text;
            Member mem;
            mem.name = toks[nameIdx].text;
            mem.type = text;
            mem.line = toks[nameIdx].line;
            mem.isStatic = isStatic;
            cls.members.push_back(std::move(mem));
        }
    }

    /**
     * A statement at namespace depth: out-of-line member def, free
     * function def, or a declaration to skip.
     */
    void
    parseStatement(const std::vector<std::string> &classStack,
                   bool inClass)
    {
        if (inClass) {
            // Delegated from parseClassBody only.
            return;
        }
        const std::size_t start = i;
        const StmtShape s = scanStatement(start);
        const bool isFunction =
            s.firstParen != static_cast<std::size_t>(-1) &&
            !s.eqBeforeParen;
        if (s.hitBrace && isFunction) {
            parseFunctionFrom(start, s, classStack);
            return;
        }
        if (s.hitBrace) {
            i = skipBalanced(s.end, '{', '}');
            if (i < n && isPunct(toks[i], ';'))
                ++i;
            return;
        }
        i = s.end < n ? s.end + 1 : n;
    }

    /**
     * Record a function definition whose statement scan found the
     * parameter '(' at @p s.firstParen and a '{'.  The '{' in @p s
     * may be the body, or an initializer inside the ctor-init list;
     * resolve the real body, harvest calls, and step past it.
     */
    void
    parseFunctionFrom(std::size_t start, const StmtShape &s,
                      const std::vector<std::string> &classStack)
    {
        // Name: identifier chain directly before the '('.
        std::vector<std::string> qual;
        std::size_t at = s.firstParen;
        while (at > start) {
            if (toks[at - 1].kind == TokKind::identifier) {
                qual.push_back(toks[at - 1].text);
                if (at >= 3 && isPunct(toks[at - 2], ':') &&
                    isPunct(toks[at - 3], ':')) {
                    at -= 3;
                    continue;
                }
            }
            break;
        }
        std::reverse(qual.begin(), qual.end());

        // Find the body '{': after the parameter list, step over
        // qualifiers/trailing-return and a ctor-init list whose
        // initializers may themselves be braced.  A '{' can only be
        // an initializer (not the body) once a single ':' opened a
        // ctor-init list - `const`/`override` before the body brace
        // must not count.
        const std::size_t parenClose =
            skipBalanced(s.firstParen, '(', ')');
        std::size_t body = parenClose;
        bool inCtorInit = false;
        const auto walkToBrace = [&]() {
            while (body < n && !isPunct(toks[body], '{') &&
                   !isPunct(toks[body], ';')) {
                if (isPunct(toks[body], '(')) {
                    body = skipBalanced(body, '(', ')');
                    continue;
                }
                if (isPunct(toks[body], '<')) {
                    body = skipAngles(body);
                    continue;
                }
                if (isPunct(toks[body], ':') &&
                    !(body + 1 < n &&
                      isPunct(toks[body + 1], ':')) &&
                    !(body > 0 && isPunct(toks[body - 1], ':')))
                    inCtorInit = true;
                ++body;
            }
        };
        walkToBrace();
        while (inCtorInit && body < n && isPunct(toks[body], '{') &&
               body > 0 &&
               (toks[body - 1].kind == TokKind::identifier ||
                isPunct(toks[body - 1], '>'))) {
            body = skipBalanced(body, '{', '}');
            walkToBrace();
        }
        if (body >= n || !isPunct(toks[body], '{')) {
            // `= default;`-style or parse trouble: skip statement.
            i = body < n ? body + 1 : n;
            return;
        }
        const std::size_t bodyEnd = skipBalanced(body, '{', '}');

        if (!qual.empty()) {
            FunctionDef fn;
            fn.name = qual.back();
            std::vector<std::string> full = classStack;
            // Out-of-line definitions carry their own qualifiers.
            for (std::size_t q = 0; q + 1 < qual.size(); ++q)
                full.push_back(qual[q]);
            full.push_back(qual.back());
            fn.qualName = joinQual(full);
            fn.file = &f;
            fn.line = toks[s.firstParen].line;
            fn.bodyBegin = body + 1;
            fn.bodyEnd = bodyEnd > 0 ? bodyEnd - 1 : bodyEnd;
            m.functionsByName[fn.name].push_back(
                m.functions.size());
            m.functions.push_back(std::move(fn));
        }
        i = bodyEnd;
    }
};

} // namespace

const ClassInfo *
Model::findClass(const std::string &name) const
{
    const ClassInfo *byLast = nullptr;
    for (const auto &c : classes) {
        if (c.qualName == name)
            return &c;
        if (c.name == name && byLast == nullptr)
            byLast = &c;
    }
    return byLast;
}

Model
buildModel(const std::vector<LexedFile> &files)
{
    Model m;
    // Two passes so ClassInfo/FunctionDef vectors never reallocate
    // under a live FileParser... they may; FileParser only appends,
    // and holds no references across appends, so a single pass is
    // safe.
    for (const auto &f : files)
        FileParser(f, m).run();
    return m;
}

} // namespace biglittle::ablint
