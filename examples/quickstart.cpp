/**
 * @file
 * Quickstart: sample from a parameterized distribution with an RSU-G.
 *
 * Builds a four-label energy vector, asks the new RSU-G design and
 * the software baseline for 100k samples each, and prints the label
 * marginals side by side — the RSU-G's first-to-fire race over
 * quantized decay rates reproduces the Gibbs conditional exp(-E/T).
 *
 *   ./quickstart [--temperature=8] [--draws=100000]
 */

#include <cstdio>
#include <vector>

#include "core/rsu_config.hh"
#include "core/sampler_rsu.hh"
#include "core/sampler_software.hh"
#include "rng/rng.hh"
#include "util/cli.hh"

using namespace retsim;

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const double temperature = args.getDouble("temperature", 8.0);
    const int draws = args.getIntIn("draws", 100000, 1);

    // Conditional energies of a 4-label random variable (Eq. 1
    // output): lower energy = more probable.
    std::vector<float> energies = {2.0f, 6.0f, 11.0f, 30.0f};

    // The paper's chosen design point: Energy 8, Lambda 4 (2^n,
    // scaled, cut-off), Time 5, Truncation 0.5.
    core::RsuConfig cfg = core::RsuConfig::newDesign();
    core::RsuSampler rsu(cfg);
    core::SoftwareSampler software;

    std::printf("Sampler under test: %s\n", rsu.name().c_str());
    std::printf("Temperature T = %.1f, %d draws per sampler\n\n",
                temperature, draws);

    rng::Xoshiro256 gen_rsu(1), gen_sw(2);
    std::vector<int> counts_rsu(energies.size(), 0);
    std::vector<int> counts_sw(energies.size(), 0);
    for (int i = 0; i < draws; ++i) {
        counts_rsu[rsu.sample(energies, temperature, 0, gen_rsu)]++;
        counts_sw[software.sample(energies, temperature, 0,
                                  gen_sw)]++;
    }

    std::printf("label  energy  P(software)  P(RSU-G)\n");
    std::printf("--------------------------------------\n");
    for (std::size_t l = 0; l < energies.size(); ++l) {
        std::printf("%5zu  %6.1f  %11.4f  %8.4f\n", l, energies[l],
                    counts_sw[l] / double(draws),
                    counts_rsu[l] / double(draws));
    }
    std::printf("\nRSU-G internals: %llu samples, %llu ties, "
                "%llu no-sample fallbacks, %llu table rebuilds\n",
                (unsigned long long)rsu.totalSamples(),
                (unsigned long long)rsu.tieEvents(),
                (unsigned long long)rsu.noSampleEvents(),
                (unsigned long long)rsu.conversionRebuilds());
    return 0;
}
