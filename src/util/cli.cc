#include "util/cli.hh"

#include "util/logging.hh"
#include "util/parse.hh"

namespace retsim {
namespace util {

CliArgs::CliArgs(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            std::string body = arg.substr(2);
            auto eq = body.find('=');
            if (eq == std::string::npos) {
                options_[body] = "true";
            } else {
                options_[body.substr(0, eq)] = body.substr(eq + 1);
            }
        } else {
            positional_.push_back(arg);
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return options_.count(key) != 0;
}

std::string
CliArgs::getString(const std::string &key, const std::string &def) const
{
    auto it = options_.find(key);
    return it == options_.end() ? def : it->second;
}

long
CliArgs::getInt(const std::string &key, long def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    long v = 0;
    if (!parseLong(it->second, &v))
        RETSIM_FATAL("option --", key, " expects an integer, got '",
                     it->second, "'");
    return v;
}

long
CliArgs::getIntInRange(const std::string &key, long def, long lo,
                       long hi) const
{
    const long v = getInt(key, def);
    if (v < lo || v > hi)
        RETSIM_FATAL("--", key, "=", v, " is out of range [", lo, ", ",
                     hi, "]");
    return v;
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    double v = 0.0;
    if (!parseDouble(it->second, &v))
        RETSIM_FATAL("option --", key, " expects a finite number, got '",
                     it->second, "'");
    return v;
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    RETSIM_FATAL("option --", key, " expects a boolean, got '", v, "'");
}

} // namespace util
} // namespace retsim
