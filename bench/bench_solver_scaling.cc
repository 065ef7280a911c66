/**
 * @file
 * Serial vs. threaded chromatic-Gibbs sweep throughput.
 *
 * The paper's speedup claim rests on the chromatic schedule exposing
 * one-half of the grid as independent samples; this bench measures how
 * much of that parallelism the software substrate now captures.  It
 * times full checkerboard sweeps (pixels/s) on the denoising and
 * stereo workloads — the serial reference path, then the striped path
 * at 1/2/4/N threads with a fixed stripe count — and emits
 * machine-readable JSON (BENCH_solver_scaling.json) so later PRs have
 * a perf trajectory to regress against.
 *
 * The sampler under test is selectable (--sampler=software|cdf-lut|
 * rsu, --race-mode=race|fastpath|auto), and the default workload list
 * includes an rsu-new-design fast-path stereo run at the packed-lane
 * label count so the device pipeline's scaling is tracked alongside
 * the software baseline.
 *
 * Single solves on a shared machine vary by up to 5x, so every cell
 * is timed kRepeats times, each with a fresh sampler, and reports the
 * median and the median absolute deviation (MAD) of those runs.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "apps/denoising.hh"
#include "apps/stereo.hh"
#include "bench_common.hh"
#include "core/sampler_cdf.hh"
#include "core/sampler_rsu.hh"
#include "img/synthetic.hh"
#include "mrf/checkerboard.hh"
#include "simd/kernels.hh"

namespace {

using namespace retsim;

/** Timed solves per cell; the cell reports their median and MAD. */
constexpr int kRepeats = 5;

struct RunResult
{
    int threads = 0;
    int stripes = 0;
    double seconds = 0.0;    ///< median over kRepeats solves
    double madSeconds = 0.0; ///< median absolute deviation
    double pixelsPerSec = 0.0;
};

double
timeSolve(const mrf::MrfProblem &problem,
          const bench::SamplerFactory &factory,
          const mrf::SolverConfig &cfg)
{
    auto sampler = factory();
    auto start = std::chrono::steady_clock::now();
    mrf::CheckerboardGibbsSolver(cfg).run(problem, *sampler);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count();
}

RunResult
measure(const mrf::MrfProblem &problem,
        const bench::SamplerFactory &factory, mrf::SolverConfig cfg,
        int threads, int stripes)
{
    cfg.threads = threads;
    cfg.stripes = stripes;
    std::vector<double> times;
    for (int i = 0; i < kRepeats; ++i)
        times.push_back(timeSolve(problem, factory, cfg));
    RunResult r;
    r.threads = threads;
    r.stripes = stripes;
    r.seconds = bench::median(times);
    for (double &t : times)
        t = std::fabs(t - r.seconds);
    r.madSeconds = bench::median(times);
    double pixels = static_cast<double>(problem.width()) *
                    problem.height() * cfg.annealing.sweeps;
    r.pixelsPerSec = pixels / r.seconds;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliArgs args(argc, argv);
    const int size = args.getIntIn("size", 256, 1);
    const int sweeps = args.getIntIn("sweeps", 6, 1);
    const int stripes = args.getIntIn("stripes", 16, 1);
    const std::uint64_t seed = args.getIntIn<std::uint64_t>("seed", 1, 0);
    const std::string out =
        args.getString("out", "BENCH_solver_scaling.json");
    const std::string sampler_arg = args.getString("sampler", "");
    const std::string race_arg = args.getString("race-mode", "auto");
    args.rejectUnread();
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const char *backend =
        simd::backendName(simd::activeBackend());

    core::RaceMode race_mode = core::RaceMode::Auto;
    if (race_arg == "race")
        race_mode = core::RaceMode::Race;
    else if (race_arg == "fastpath")
        race_mode = core::RaceMode::FastPath;
    else if (race_arg != "auto")
        RETSIM_FATAL("unknown --race-mode=", race_arg,
                     " (race|fastpath|auto)");

    auto named_factory =
        [&](const std::string &name) -> bench::SamplerFactory {
        if (name == "software")
            return bench::softwareFactory();
        if (name == "cdf-lut")
            return [] {
                return std::make_unique<core::CdfLutSampler>(
                    std::make_unique<rng::Mt19937>(42), 64);
            };
        if (name == "rsu") {
            core::RsuConfig rc = core::RsuConfig::newDesign();
            rc.raceMode = race_mode;
            return bench::rsuFactory(rc);
        }
        RETSIM_FATAL("unknown --sampler=", name,
                     " (software|cdf-lut|rsu)");
        return {};
    };

    bench::printHeader(
        "Chromatic Gibbs sweep throughput: serial vs. row-striped "
        "threading",
        "software substrate of the concurrent RSU-G array (Sec. II-C)");
    std::printf("grid %dx%d, %d sweeps, %d hardware threads, simd "
                "backend %s, median (MAD) of %d runs per cell\n",
                size, size, sweeps, hw, backend, kRepeats);

    // Thread counts 1/2/4/N, deduplicated and capped at the machine.
    std::set<int> thread_set{1, 2, 4, hw};

    // Denoising: 32-level restoration of a noisy synthetic texture.
    img::ImageU8 clean(size, size);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            clean(x, y) = static_cast<std::uint8_t>(
                img::textureIntensity(x, y, 0xd5));
    img::ImageU8 noisy = apps::addGaussianNoise(clean, 10.0, seed);
    apps::DenoisingParams dp;
    mrf::MrfProblem denoise = apps::buildDenoisingProblem(noisy, dp);

    // Stereo: synthetic scene at the same grid size, 32 disparities.
    img::StereoSceneSpec sspec;
    sspec.width = size;
    sspec.height = size;
    sspec.numLabels = 32;
    img::StereoScene scene = img::makeStereoScene(sspec, seed + 17);
    mrf::MrfProblem stereo = apps::buildStereoProblem(scene);

    // Stereo at the RSU's packed-lane label count: the workload the
    // categorical fast path is built for.
    img::StereoSceneSpec fspec = sspec;
    fspec.numLabels = 16;
    img::StereoScene fscene = img::makeStereoScene(fspec, seed + 17);
    mrf::MrfProblem stereo16 = apps::buildStereoProblem(fscene);

    struct Workload
    {
        const char *name;
        const mrf::MrfProblem *problem;
        mrf::SolverConfig cfg;
        bench::SamplerFactory factory;
        const char *sampler;
        const char *raceMode;
    };
    mrf::SolverConfig dcfg = apps::defaultDenoisingSolver(sweeps, seed);
    mrf::SolverConfig scfg = apps::defaultStereoSolver(sweeps, seed);

    std::vector<Workload> workloads;
    if (!sampler_arg.empty()) {
        // Explicit sampler: run the two standard workloads with it.
        const char *rm =
            sampler_arg == "rsu" ? race_arg.c_str() : "n/a";
        workloads.push_back({"denoising", &denoise, dcfg,
                             named_factory(sampler_arg),
                             sampler_arg.c_str(), rm});
        workloads.push_back({"stereo", &stereo, scfg,
                             named_factory(sampler_arg),
                             sampler_arg.c_str(), rm});
    } else {
        core::RsuConfig frc = core::RsuConfig::newDesign();
        frc.raceMode = core::RaceMode::FastPath;
        workloads.push_back({"denoising", &denoise, dcfg,
                             bench::softwareFactory(),
                             "software-float", "n/a"});
        workloads.push_back({"stereo", &stereo, scfg,
                             bench::softwareFactory(),
                             "software-float", "n/a"});
        workloads.push_back({"stereo16-rsu-fastpath", &stereo16, scfg,
                             bench::rsuFactory(frc), "rsu-new-design",
                             "fastpath"});
    }

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        RETSIM_FATAL("cannot open ", out, " for writing");
    std::fprintf(f,
                 "{\n  \"bench\": \"solver_scaling\",\n"
                 "  \"batched\": true,\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"grid\": [%d, %d],\n  \"sweeps\": %d,\n"
                 "  \"seed\": %llu,\n  \"hardware_threads\": %d,\n"
                 "  \"repeats\": %d,\n"
                 "  \"workloads\": [",
                 backend, size, size, sweeps,
                 static_cast<unsigned long long>(seed), hw, kRepeats);

    bool first_workload = true;
    for (const Workload &w : workloads) {
        std::printf("\n[%s] %d labels, sampler %s, race mode %s\n",
                    w.name, w.problem->numLabels(), w.sampler,
                    w.raceMode);

        // Serial reference: the historical single-stream path.
        RunResult serial =
            measure(*w.problem, w.factory, w.cfg, 1, 0);
        std::printf("  serial (reference)   %8.3f s (MAD %.3f)  %12.0f "
                    "px/s\n",
                    serial.seconds, serial.madSeconds,
                    serial.pixelsPerSec);

        std::vector<RunResult> runs;
        for (int t : thread_set) {
            runs.push_back(
                measure(*w.problem, w.factory, w.cfg, t, stripes));
            const RunResult &r = runs.back();
            std::printf("  threads=%2d stripes=%2d  %8.3f s (MAD %.3f)  "
                        "%12.0f px/s  %.2fx\n",
                        r.threads, r.stripes, r.seconds, r.madSeconds,
                        r.pixelsPerSec, serial.seconds / r.seconds);
        }

        std::fprintf(
            f,
            "%s\n    {\n      \"name\": \"%s\",\n"
            "      \"labels\": %d,\n"
            "      \"sampler\": \"%s\",\n"
            "      \"race_mode\": \"%s\",\n"
            "      \"serial\": {\"seconds\": %.6f, "
            "\"mad_seconds\": %.6f, \"pixels_per_s\": %.1f},\n"
            "      \"runs\": [",
            first_workload ? "" : ",", w.name,
            w.problem->numLabels(), w.sampler, w.raceMode,
            serial.seconds, serial.madSeconds, serial.pixelsPerSec);
        first_workload = false;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunResult &r = runs[i];
            std::fprintf(
                f,
                "%s\n        {\"threads\": %d, \"stripes\": %d, "
                "\"seconds\": %.6f, \"mad_seconds\": %.6f, "
                "\"pixels_per_s\": %.1f, "
                "\"speedup_vs_serial\": %.3f}",
                i == 0 ? "" : ",", r.threads, r.stripes, r.seconds,
                r.madSeconds, r.pixelsPerSec,
                serial.seconds / r.seconds);
        }
        std::fprintf(f, "\n      ]\n    }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
