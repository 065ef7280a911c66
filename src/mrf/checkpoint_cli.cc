#include "mrf/checkpoint_cli.hh"

#include <memory>

#include "mrf/checkpoint.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {

void
checkpointFromCli(const util::CliArgs &args, SolverConfig *config,
                  const std::string &variant)
{
    auto decorate = [&](const std::string &p) {
        return variant.empty() ? p : p + "." + variant;
    };

    const std::string path = args.getString("checkpoint-path", "");
    const int every = args.getIntIn("checkpoint-every", 0, 0);
    if (!path.empty()) {
        config->checkpointPath = decorate(path);
        config->checkpointEvery = every > 0 ? every : 25;
    } else if (every > 0) {
        RETSIM_FATAL("--checkpoint-every requires --checkpoint-path");
    }

    const std::string resume = args.getString("resume", "");
    if (!resume.empty()) {
        auto cp = std::make_shared<SolverCheckpoint>();
        std::string error;
        if (!SolverCheckpoint::readFile(decorate(resume), cp.get(),
                                        &error))
            RETSIM_FATAL(error);
        config->resume = std::move(cp);
    }
}

} // namespace mrf
} // namespace retsim
