/**
 * @file
 * Minimal command-line option parser for the examples and benches.
 *
 * Accepts "--key=value" and "--flag" arguments; anything else is kept
 * as a positional argument.  Typed getters fall back to a default and
 * fatal() on malformed values so misconfiguration is loud.  Every key
 * has() or a getter asks for is recorded, so rejectUnread() can make a
 * flag that no code reads (a typo, or a removed option) fatal too.
 */

#ifndef RETSIM_UTIL_CLI_HH
#define RETSIM_UTIL_CLI_HH

#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace retsim {
namespace util {

class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    long getInt(const std::string &key, long def) const;
    /**
     * The checked read for a flag the caller narrows: --key as an
     * integer in [lo, T's maximum], returned as T.  A value outside
     * the range is fatal and names the flag and the value, so a huge
     * or negative count can never wrap into a small valid one on the
     * narrowing.  lo must be representable in T.
     */
    template <typename T = int>
    T getIntIn(const std::string &key, long def, long lo) const
    {
        constexpr long lmax = std::numeric_limits<long>::max();
        constexpr T tmax = std::numeric_limits<T>::max();
        constexpr long hi =
            std::cmp_less(lmax, tmax) ? lmax : static_cast<long>(tmax);
        return static_cast<T>(getIntInRange(key, def, lo, hi));
    }
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    const std::string &programName() const { return program_; }

    /**
     * Call once after the last flag read: fatal, naming the flag, when
     * the command line set a --key that neither has() nor a getter
     * asked for.
     */
    void rejectUnread() const;

  private:
    long getIntInRange(const std::string &key, long def, long lo,
                       long hi) const;

    std::string program_;
    /** Looks @p key up and records that it was read. */
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> options_;
    mutable std::set<std::string> read_;
    std::vector<std::string> positional_;
};

} // namespace util
} // namespace retsim

#endif // RETSIM_UTIL_CLI_HH
