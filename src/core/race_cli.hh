/**
 * @file
 * Glue between util::CliArgs and RaceMode: the
 * `--race-mode=race|fastpath|auto` override flag shared by the apps,
 * benches and verification tools.  Header-only so core's CLI surface
 * does not grow a util link dependency of its own — the caller
 * already links util.  Usage:
 *
 *     util::CliArgs args(argc, argv);
 *     core::RsuConfig cfg = core::RsuConfig::newDesign();
 *     cfg.raceMode = core::raceModeFromCli(args);
 *
 * `race` (the default) keeps the literal cycle-accurate race and its
 * byte-exact replay contracts; `fastpath` forces the alias-table
 * categorical draw (fatal if the config can't be tabulated); `auto`
 * uses the fast path wherever the race mode draws nothing but the
 * per-label exponentials (see RaceFastPath::autoEligible).
 */

#ifndef RETSIM_CORE_RACE_CLI_HH
#define RETSIM_CORE_RACE_CLI_HH

#include <string>

#include "core/rsu_config.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace retsim {
namespace core {

/** Parse `--race-mode=<spec>` when present, else @p fallback. */
inline RaceMode
raceModeFromCli(const util::CliArgs &args,
                RaceMode fallback = RaceMode::Race)
{
    const std::string spec = args.getString("race-mode", "");
    if (spec.empty())
        return fallback;
    if (spec == "race")
        return RaceMode::Race;
    if (spec == "fastpath")
        return RaceMode::FastPath;
    if (spec == "auto")
        return RaceMode::Auto;
    RETSIM_FATAL("unknown --race-mode '", spec,
                 "' (expected race|fastpath|auto)");
}

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_RACE_CLI_HH
