/**
 * @file
 * A minimal C++ lexer: just enough to tell identifiers, literals and
 * punctuation apart, drop comments, and harvest ablint:allow
 * directives.  It does not preprocess; #include lines lex as
 * punctuation + identifiers, which is fine for every rule.
 */

#include "ablint.hh"

#include <algorithm>
#include <cctype>

namespace biglittle::ablint
{

namespace
{

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Parse `ablint:allow(r1,r2...)` out of one comment body and record
 * the rules for @p line and @p line + 1.
 */
void
harvestDirective(const std::string &comment, int line, LexedFile &out)
{
    const std::string tag = "ablint:allow(";
    const auto at = comment.find(tag);
    if (at == std::string::npos)
        return;
    const auto close = comment.find(')', at + tag.size());
    if (close == std::string::npos)
        return;
    std::string body = comment.substr(at + tag.size(),
                                      close - at - tag.size());
    body.erase(std::remove_if(body.begin(), body.end(),
                              [](char c) { return c == ' '; }),
               body.end());
    AllowDirective directive;
    directive.line = line;
    std::size_t pos = 0;
    while (pos < body.size()) {
        auto comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        const std::string rule = body.substr(pos, comma - pos);
        if (!rule.empty()) {
            out.allows[line].insert(rule);
            out.allows[line + 1].insert(rule);
            directive.rules.insert(rule);
        }
        pos = comma + 1;
    }
    if (!directive.rules.empty())
        out.directives.push_back(std::move(directive));
}

} // namespace

LexedFile
lexString(const std::string &path, const std::string &text)
{
    LexedFile out;
    out.path = path;
    out.isTest = path.rfind("tests/", 0) == 0 ||
                 path.find("/tests/") != std::string::npos;

    int line = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Line comment: may carry an allow directive.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            const auto eol = text.find('\n', i);
            const std::size_t end = eol == std::string::npos ? n : eol;
            harvestDirective(text.substr(i, end - i), line, out);
            i = end;
            continue;
        }
        // Block comment: directives honored per starting line.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            const auto close = text.find("*/", i + 2);
            const std::size_t end =
                close == std::string::npos ? n : close + 2;
            harvestDirective(text.substr(i, end - i), line, out);
            line += static_cast<int>(
                std::count(text.begin() + static_cast<long>(i),
                           text.begin() + static_cast<long>(end),
                           '\n'));
            i = end;
            continue;
        }
        // Raw string literal.
        if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
            const auto open = text.find('(', i + 2);
            if (open != std::string::npos) {
                std::string delim(")");
                delim.append(text, i + 2, open - i - 2);
                delim += '"';
                const auto close = text.find(delim, open + 1);
                const std::size_t end = close == std::string::npos
                                            ? n
                                            : close + delim.size();
                out.tokens.push_back(
                    {TokKind::str,
                     text.substr(open + 1,
                                 (close == std::string::npos
                                      ? n
                                      : close) -
                                     open - 1),
                     line});
                line += static_cast<int>(std::count(
                    text.begin() + static_cast<long>(i),
                    text.begin() + static_cast<long>(end), '\n'));
                i = end;
                continue;
            }
        }
        // String / char literal.
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::string body;
            ++i;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\' && i + 1 < n) {
                    body += text[i];
                    body += text[i + 1];
                    i += 2;
                    continue;
                }
                if (text[i] == '\n')
                    ++line; // unterminated; keep line count honest
                body += text[i];
                ++i;
            }
            ++i; // closing quote
            out.tokens.push_back({quote == '"' ? TokKind::str
                                               : TokKind::chr,
                                  body, line});
            continue;
        }
        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < n && identChar(text[j]))
                ++j;
            out.tokens.push_back(
                {TokKind::identifier, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i + 1;
            while (j < n &&
                   (identChar(text[j]) || text[j] == '.' ||
                    ((text[j] == '+' || text[j] == '-') &&
                     (text[j - 1] == 'e' || text[j - 1] == 'E'))))
                ++j;
            out.tokens.push_back(
                {TokKind::number, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        out.tokens.push_back({TokKind::punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

std::string
Finding::format() const
{
    return file + ":" + std::to_string(line) + ": error: [" + rule +
           "] " + message;
}

namespace
{

/** GitHub workflow-command escaping (property position). */
std::string
ghEscape(const std::string &s, bool property)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '%':
            out += "%25";
            break;
        case '\r':
            out += "%0D";
            break;
        case '\n':
            out += "%0A";
            break;
        case ':':
            out += property ? "%3A" : ":";
            break;
        case ',':
            out += property ? "%2C" : ",";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hexDigits[] = "0123456789abcdef";
                out += "\\u00";
                out += hexDigits[(c >> 4) & 0xf];
                out += hexDigits[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
Finding::formatGithub() const
{
    return "::error file=" + ghEscape(file, true) +
           ",line=" + std::to_string(line) +
           ",title=ablint " + ghEscape(rule, true) +
           "::" + ghEscape(message, false);
}

std::string
Finding::formatJson() const
{
    return "{\"file\":\"" + jsonEscape(file) +
           "\",\"line\":" + std::to_string(line) + ",\"rule\":\"" +
           jsonEscape(rule) + "\",\"message\":\"" +
           jsonEscape(message) + "\"}";
}

} // namespace biglittle::ablint
