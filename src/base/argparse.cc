#include "base/argparse.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "base/strutil.hh"

namespace biglittle
{

ArgParser::ArgParser(std::string program_in, std::string description_in)
    : program(std::move(program_in)), description(std::move(description_in))
{
}

void
ArgParser::declare(const std::string &name, Kind kind,
                   const std::string &def, const std::string &help)
{
    BL_ASSERT(!options.count(name));
    options[name] = Option{kind, help, def, def, false};
    order.push_back(name);
}

void
ArgParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    declare(name, Kind::string, def, help);
}

void
ArgParser::addInt(const std::string &name, std::int64_t def,
                  const std::string &help)
{
    declare(name, Kind::integer, std::to_string(def), help);
}

void
ArgParser::addDouble(const std::string &name, double def,
                     const std::string &help)
{
    declare(name, Kind::real, format("%g", def), help);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    declare(name, Kind::flag, "false", help);
}

Result<std::vector<std::string>>
ArgParser::tryParse(int argc, const char *const *argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            sawHelp = true;
            continue;
        }
        if (!startsWith(arg, "--")) {
            positional.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }
        const auto it = options.find(name);
        if (it == options.end())
            return invalidArgument(format("%s: unknown option '--%s'",
                                          program.c_str(), name.c_str()));
        Option &opt = it->second;
        if (opt.kind == Kind::flag) {
            if (have_value)
                return invalidArgument(
                    format("%s: flag '--%s' does not take a value",
                           program.c_str(), name.c_str()));
            opt.value = "true";
            opt.set = true;
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc)
                return invalidArgument(
                    format("%s: option '--%s' requires a value",
                           program.c_str(), name.c_str()));
            value = argv[++i];
        }
        opt.value = value;
        opt.set = true;
    }
    return positional;
}

std::vector<std::string>
ArgParser::parse(int argc, const char *const *argv)
{
    Result<std::vector<std::string>> parsed = tryParse(argc, argv);
    if (helpRequested()) {
        std::fputs(helpText().c_str(), stdout);
        std::exit(exitOk);
    }
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n(run %s --help for usage)\n",
                     parsed.status().message().c_str(), program.c_str());
        std::exit(exitUsage);
    }
    return std::move(parsed.value());
}

const ArgParser::Option &
ArgParser::lookup(const std::string &name, Kind kind) const
{
    const auto it = options.find(name);
    if (it == options.end())
        panic("option '--%s' was never declared", name.c_str());
    if (it->second.kind != kind)
        panic("option '--%s' accessed with the wrong type",
              name.c_str());
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return lookup(name, Kind::string).value;
}

Result<std::int64_t>
ArgParser::tryGetInt(const std::string &name) const
{
    const Option &opt = lookup(name, Kind::integer);
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(opt.value.c_str(), &end, 10);
    if (end == opt.value.c_str() || *end != '\0' || errno == ERANGE)
        return invalidArgument(
            format("option '--%s': '%s' is not an integer", name.c_str(),
                   opt.value.c_str()));
    return static_cast<std::int64_t>(v);
}

Result<double>
ArgParser::tryGetDouble(const std::string &name) const
{
    const Option &opt = lookup(name, Kind::real);
    char *end = nullptr;
    const double v = std::strtod(opt.value.c_str(), &end);
    if (end == opt.value.c_str() || *end != '\0')
        return invalidArgument(
            format("option '--%s': '%s' is not a number", name.c_str(),
                   opt.value.c_str()));
    return v;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    Result<std::int64_t> v = tryGetInt(name);
    if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(),
                     v.status().message().c_str());
        std::exit(exitUsage);
    }
    return v.value();
}

double
ArgParser::getDouble(const std::string &name) const
{
    Result<double> v = tryGetDouble(name);
    if (!v.ok()) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(),
                     v.status().message().c_str());
        std::exit(exitUsage);
    }
    return v.value();
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return lookup(name, Kind::flag).value == "true";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    const auto it = options.find(name);
    if (it == options.end())
        panic("option '--%s' was never declared", name.c_str());
    return it->second.set;
}

std::string
ArgParser::helpText() const
{
    std::string out = program + " - " + description + "\n\noptions:\n";
    for (const auto &name : order) {
        const Option &opt = options.at(name);
        std::string left = "  --" + name;
        if (opt.kind != Kind::flag)
            left += " <value>";
        // Help text starts at column 30, or two spaces after a
        // longer option.
        out += padRight(left + "  ", 30) + opt.help;
        if (opt.kind != Kind::flag)
            out += " (default: " + opt.def + ")";
        out += '\n';
    }
    out += padRight("  --help", 30);
    out += "show this message and exit\n";
    return out;
}

} // namespace biglittle
