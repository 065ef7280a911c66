#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>

#include "apps/denoising.hh"
#include "apps/motion.hh"
#include "apps/segmentation.hh"
#include "apps/stereo.hh"
#include "core/sampler_rsu.hh"
#include "hw/cost_model.hh"
#include "img/synthetic.hh"
#include "metrics/motion_metrics.hh"
#include "metrics/segmentation_metrics.hh"
#include "metrics/stereo_metrics.hh"
#include "mrf/checkerboard.hh"
#include "mrf/checkpoint.hh"
#include "rng/rng.hh"
#include "shard/sharded_solver.hh"
#include "timing_sampler.hh"

namespace perfbench {

using namespace retsim;

namespace {

// ------------------------------------------------------------ helpers

/** FNV-1a over raw bytes, chained through @p h. */
std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Digest of a solve's output values and its per-sweep energies. */
std::uint64_t
digestOf(const std::vector<int> &values, const mrf::SolverTrace &trace)
{
    std::uint64_t h = fnv1a(values.data(), values.size() * sizeof(int));
    return fnv1a(trace.energyPerSweep.data(),
                 trace.energyPerSweep.size() * sizeof(double), h);
}

double
seconds(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

std::atomic<std::uint64_t> gConstructNs{0};
std::atomic<std::uint64_t> gConstructs{0};

/** Constructs an RsuSampler, timing the construction. */
std::unique_ptr<core::RsuSampler>
constructSampler(const core::RsuConfig &cfg, SpanRecorder *spans = nullptr,
                 std::uint64_t parent = 0, std::uint64_t solve = 0)
{
    ScopedSpan span(spans, "core.sampler.construct", parent, solve);
    const std::int64_t t0 = nowNs();
    auto sampler = std::make_unique<core::RsuSampler>(cfg);
    gConstructNs.fetch_add(static_cast<std::uint64_t>(nowNs() - t0));
    gConstructs.fetch_add(1);
    return sampler;
}

std::string
outOfBand(const char *metric, double value, double lo, double hi)
{
    if (value >= lo && value <= hi)
        return "";
    return std::string(metric) + " " + std::to_string(value) +
           " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
}

/**
 * In-memory checkpoint sink: serializes every snapshot the solver
 * emits, as the file writer would, and checks that serialize ->
 * deserialize -> serialize is byte-equal.
 */
struct CheckpointSink
{
    std::uint64_t emits = 0;
    std::uint64_t bytes = 0;
    std::string failure;

    /** Installs the sink on @p cfg, spanned under @p parent. */
    void
    install(mrf::SolverConfig &cfg, int every, SpanRecorder *spans,
            const std::uint64_t *parent, std::uint64_t solve)
    {
        cfg.checkpointEvery = every;
        cfg.checkpointSink = [this, spans, parent,
                              solve](const mrf::SolverCheckpoint &cp) {
            ScopedSpan span(spans, "mrf.checkpoint.serialize", *parent,
                            solve);
            const std::vector<unsigned char> raw = cp.serialize();
            mrf::SolverCheckpoint back;
            std::string error;
            if (!mrf::SolverCheckpoint::deserialize(raw, &back, &error))
                failure = "checkpoint does not deserialize: " + error;
            else if (back.serialize() != raw)
                failure = "checkpoint round trip is not byte-equal";
            ++emits;
            bytes += raw.size();
        };
    }
};

/**
 * Bookkeeping of one solve.  Untraced it does nothing; traced it
 * opens the solve's root span, hands the solver a decorated sampler,
 * clocks every sweep through sweepObserver and folds the solve's
 * figures into the tracer's totals.
 */
class SolveScope
{
  public:
    explicit SolveScope(Tracer *tracer)
        : tracer_(tracer), spans_(tracer ? &tracer->spans : nullptr),
          solveId_(spans_ ? spans_->newId() : 0),
          root_(spans_, "solve", 0, solveId_)
    {
        timing_.spans = spans_;
        timing_.solve = solveId_;
    }

    SpanRecorder *spans() const { return spans_; }
    std::uint64_t solveId() const { return solveId_; }
    std::uint64_t root() const { return root_.id(); }
    /** Where the mrf.solve span id lives while the solver runs. */
    const std::uint64_t *solveSpan() const { return &timing_.parent; }

    /** The sampler the solver is given: decorated when traced. */
    mrf::LabelSampler &
    wrap(mrf::LabelSampler &inner)
    {
        inner_ = &inner;
        statsBefore_ = inner.stats();
        if (!tracer_)
            return inner;
        decorated_.emplace(inner, timing_);
        return *decorated_;
    }

    /** Runs @p call, the solver entry point, inside an mrf.solve span. */
    template <class Call>
    auto
    solve(mrf::SolverConfig &cfg, Call &&call)
    {
        ScopedSpan span(spans_, "mrf.solve", root(), solveId_);
        timing_.parent = span.id();
        solveStartNs_ = nowNs();
        if (tracer_)
            cfg.sweepObserver = [this](int, double, const img::LabelMap &) {
                sweepEndsNs_.push_back(nowNs());
            };
        auto result = call();
        solveNs_ = nowNs() - solveStartNs_;
        return result;
    }

    /** Folds the solve, run by @p workers threads over @p ranks
     *  shard ranks, into the tracer's totals. */
    void
    finish(const mrf::SolverTrace &trace, int workers, int ranks = 1,
           std::uint64_t checkpointEmits = 0,
           std::uint64_t checkpointBytes = 0)
    {
        if (!tracer_)
            return;
        decorated_.reset(); // flushes its counts into timing_
        const mrf::SamplerStats delta = inner_->stats() - statsBefore_;
        std::lock_guard<std::mutex> lock(tracer_->mutex);
        LayerTotals &t = tracer_->totals;
        ++t.solves;
        t.workerSolveSeconds +=
            workers * static_cast<double>(solveNs_) * 1e-9;
        t.rankSolveSeconds += ranks * static_cast<double>(solveNs_) * 1e-9;
        const std::size_t n = sweepEndsNs_.size();
        if (n > 0) {
            // Mean sweep time over the first and last 10% of sweeps.
            const std::size_t k = std::max<std::size_t>(1, n / 10);
            auto meanMs = [&](std::size_t from) {
                const std::int64_t begin =
                    from == 0 ? solveStartNs_ : sweepEndsNs_[from - 1];
                return static_cast<double>(sweepEndsNs_[from + k - 1] -
                                           begin) *
                       1e-6 / static_cast<double>(k);
            };
            t.sweepHeadMs += meanMs(0);
            t.sweepTailMs += meanMs(n - k);
        }
        t.pixelUpdates += trace.pixelUpdates;
        t.labelChanges += trace.labelChanges;
        t.stats += delta;
        t.samplerBusyNs += timing_.busyNs.load();
        t.samplerCalls += timing_.calls.load();
        t.samplerLabelEvals += timing_.labelEvals.load();
        t.cloneNs += timing_.cloneNs.load();
        t.clones += timing_.clones.load();
        t.checkpointEmits += checkpointEmits;
        t.checkpointBytes += checkpointBytes;
    }

  private:
    Tracer *tracer_;
    SpanRecorder *spans_;
    std::uint64_t solveId_;
    ScopedSpan root_;
    SamplerTiming timing_;
    std::optional<TimingSampler> decorated_;
    mrf::LabelSampler *inner_ = nullptr;
    mrf::SamplerStats statsBefore_;
    std::int64_t solveStartNs_ = 0;
    std::int64_t solveNs_ = 0;
    std::vector<std::int64_t> sweepEndsNs_;
};

// ---------------------------------------------------------- paper-apps

/** What an application solve produced: its output values (labels, or
 *  restored pixels for denoising), its scores and its trace. */
struct AppOutput
{
    std::vector<int> values;
    std::vector<double> scores; ///< scores[0] is the checked metric
    mrf::SolverTrace trace;
};

/**
 * One application solve of the paper's Fig. 9 set.  run() is the
 * app's own entry point; build() and score() split it for the traced
 * run into problem build, mrf::runSolver and the metrics:: scorer.
 */
struct AppCase
{
    std::string key;
    const char *metric;
    double lo, hi; ///< band around the EXPERIMENTS.md value
    mrf::SolverConfig cfg;
    double labelEvals;
    std::function<AppOutput(mrf::LabelSampler &)> run;
    std::function<mrf::MrfProblem()> build;
    std::function<AppOutput(const img::LabelMap &)> score;
};

double
evalsOf(int width, int height, int labels, int sweeps)
{
    return static_cast<double>(width) * height * labels * sweeps;
}

AppCase
stereoCase(const img::StereoSceneSpec &spec, std::uint64_t sceneSeed,
           mrf::SolverConfig cfg, double lo, double hi)
{
    img::StereoScene scene = img::makeStereoScene(spec, sceneSeed);
    AppCase c{spec.name, "bad_pixel_percent", lo, hi, cfg,
              evalsOf(spec.width, spec.height, spec.numLabels,
                      cfg.annealing.sweeps),
              {}, {}, {}};
    c.run = [scene, cfg](mrf::LabelSampler &s) {
        apps::StereoResult r = apps::runStereo(scene, s, cfg);
        return AppOutput{r.disparity.data(),
                         {r.badPixelPercent, r.rmsError},
                         std::move(r.trace)};
    };
    c.build = [scene] { return apps::buildStereoProblem(scene); };
    c.score = [scene](const img::LabelMap &l) {
        return AppOutput{l.data(),
                         {metrics::badPixelPercent(l, scene.gtDisparity),
                          metrics::rmsError(l, scene.gtDisparity)},
                         {}};
    };
    return c;
}

AppCase
motionCase(const img::MotionSceneSpec &spec, std::uint64_t sceneSeed,
           mrf::SolverConfig cfg, double lo, double hi)
{
    img::MotionScene scene = img::makeMotionScene(spec, sceneSeed);
    const int side = 2 * spec.windowRadius + 1;
    AppCase c{spec.name, "end_point_error", lo, hi, cfg,
              evalsOf(spec.width, spec.height, side * side,
                      cfg.annealing.sweeps),
              {}, {}, {}};
    c.run = [scene, cfg](mrf::LabelSampler &s) {
        apps::MotionResult r = apps::runMotion(scene, s, cfg);
        return AppOutput{r.labels.data(), {r.endPointError},
                         std::move(r.trace)};
    };
    c.build = [scene] { return apps::buildMotionProblem(scene); };
    c.score = [scene](const img::LabelMap &l) {
        return AppOutput{
            l.data(),
            {metrics::endPointError(
                apps::labelsToFlow(l, scene.windowRadius), scene.gtMotion)},
            {}};
    };
    return c;
}

AppCase
segmentationCase(int segments, std::uint64_t sceneSeed,
                 mrf::SolverConfig cfg, double lo, double hi)
{
    img::SegmentationScene scene =
        img::standardSegmentationSuite(1, segments, sceneSeed).front();
    AppCase c{"segmentation" + std::to_string(segments), "voi", lo, hi,
              cfg,
              evalsOf(scene.image.width(), scene.image.height(), segments,
                      cfg.annealing.sweeps),
              {}, {}, {}};
    c.run = [scene, cfg](mrf::LabelSampler &s) {
        apps::SegmentationResult r = apps::runSegmentation(scene, s, cfg);
        return AppOutput{r.segments.data(),
                         {r.voi, r.pri, r.gce, r.bde},
                         std::move(r.trace)};
    };
    c.build = [scene] { return apps::buildSegmentationProblem(scene); };
    c.score = [scene](const img::LabelMap &l) {
        const img::LabelMap &gt = scene.gtSegments;
        return AppOutput{l.data(),
                         {metrics::variationOfInformation(l, gt),
                          metrics::probabilisticRandIndex(l, gt),
                          metrics::globalConsistencyError(l, gt),
                          metrics::boundaryDisplacementError(l, gt)},
                         {}};
    };
    return c;
}

/** The denoising example's test card: a clean segmentation scene
 *  under a mild illumination ramp. */
img::ImageU8
denoisingCard(std::uint64_t seed)
{
    img::SegmentationSceneSpec spec;
    spec.width = 96;
    spec.height = 80;
    spec.numSegments = 4;
    spec.noiseSigma = 0.0;
    img::ImageU8 image = img::makeSegmentationScene(spec, seed).image;
    for (int y = 0; y < image.height(); ++y)
        for (int x = 0; x < image.width(); ++x)
            image(x, y) = static_cast<std::uint8_t>(
                std::min(image(x, y) + 20 * x / image.width(), 255));
    return image;
}

std::vector<int>
pixelsOf(const img::ImageU8 &image)
{
    return std::vector<int>(image.data().begin(), image.data().end());
}

AppCase
denoisingCase(std::uint64_t sceneSeed, std::uint64_t noiseSeed,
              mrf::SolverConfig cfg, double lo, double hi)
{
    const img::ImageU8 clean = denoisingCard(sceneSeed);
    const img::ImageU8 noisy = apps::addGaussianNoise(clean, 25.0, noiseSeed);
    const apps::DenoisingParams params;
    AppCase c{"denoising", "psnr_db", lo, hi, cfg,
              evalsOf(clean.width(), clean.height(), params.levels,
                      cfg.annealing.sweeps),
              {}, {}, {}};
    c.run = [clean, noisy, cfg](mrf::LabelSampler &s) {
        apps::DenoisingResult r = apps::runDenoising(clean, noisy, s, cfg);
        return AppOutput{pixelsOf(r.restored),
                         {r.psnrRestored, r.psnrNoisy},
                         std::move(r.trace)};
    };
    c.build = [noisy] { return apps::buildDenoisingProblem(noisy); };
    c.score = [clean, noisy, params](const img::LabelMap &l) {
        img::ImageU8 restored = apps::levelsToImage(l, params.levels);
        return AppOutput{pixelsOf(restored),
                         {apps::psnrDb(restored, clean),
                          apps::psnrDb(noisy, clean)},
                         {}};
    };
    return c;
}

/** Runs one app solve, split into its layers when traced. */
SolveRecord
solveApp(const AppCase &c, mrf::LabelSampler &sampler, Tracer *tracer)
{
    SolveRecord rec;
    rec.key = c.key;
    rec.labelEvals = c.labelEvals;
    const std::int64_t t0 = nowNs();
    AppOutput out;
    {
        SolveScope scope(tracer);
        mrf::LabelSampler &s = scope.wrap(sampler);
        if (!tracer) {
            out = c.run(s);
        } else {
            std::optional<mrf::MrfProblem> problem;
            {
                ScopedSpan span(scope.spans(), "apps.build_problem",
                                scope.root(), scope.solveId());
                problem.emplace(c.build());
            }
            mrf::SolverConfig cfg = c.cfg;
            mrf::SolverTrace trace;
            img::LabelMap labels = scope.solve(cfg, [&] {
                return mrf::runSolver(cfg, *problem, s, &trace);
            });
            {
                ScopedSpan span(scope.spans(), "apps.score", scope.root(),
                                scope.solveId());
                out = c.score(labels);
            }
            out.trace = std::move(trace);
        }
        scope.finish(out.trace, 1);
    }
    rec.seconds = seconds(t0);
    rec.digest = digestOf(out.values, out.trace);
    rec.quality = out.scores.at(0);
    rec.failure = outOfBand(c.metric, rec.quality, c.lo, c.hi);
    return rec;
}

/**
 * paper-apps: the paper's Fig. 9 runs with the new RSU-G design and
 * the literal TTF race on the default raster GibbsSolver, 1 thread,
 * at the sweep counts of EXPERIMENTS.md.  Scenes are the suite's
 * analogs regenerated from the workload seed.
 */
class PaperApps final : public Workload
{
  public:
    explicit PaperApps(std::uint64_t seed) : seed_(seed) {}

    std::string
    setup() override
    {
        cases_.clear();
        std::uint64_t k = 0;
        auto cfgFor = [&](mrf::SolverConfig cfg) {
            cfg.seed = rng::streamSeed(seed_, 100 + k);
            return cfg;
        };
        // Quality bands bracket the EXPERIMENTS.md Fig. 9 values (BP%
        // teddy 19.2, poster 14.5, art 8.3; EPE 0.25-0.49; mean VoI
        // 0.075 at 4 segments; PSNR within tenths of a dB of software),
        // wide enough for the scene and chain variance of any seed:
        // across seeds 1-8 single solves ranged over BP 18-27 / 11-18 /
        // 11-17, EPE 0.11-0.54, VoI 0-0.33 and PSNR 24.6-25.3 dB.
        const double bp[3][2] = {{10, 35}, {7, 30}, {4, 25}};
        const img::StereoSceneSpec stereo[3] = {img::stereoTeddySpec(),
                                                img::stereoPosterSpec(),
                                                img::stereoArtSpec()};
        for (int i = 0; i < 3; ++i, ++k)
            cases_.push_back(stereoCase(
                stereo[i], rng::streamSeed(seed_, k),
                cfgFor(apps::defaultStereoSolver(200)), bp[i][0], bp[i][1]));
        const char *names[3] = {"venus", "rubberwhale", "dimetrodon"};
        const int objects[3] = {6, 8, 5};
        for (int i = 0; i < 3; ++i, ++k) {
            img::MotionSceneSpec spec;
            spec.name = names[i];
            spec.numObjects = objects[i];
            cases_.push_back(motionCase(spec, rng::streamSeed(seed_, k),
                                        cfgFor(apps::defaultMotionSolver(150)),
                                        0.0, 1.0));
        }
        // One segmentation scene, at Fig. 9d's middle segment count:
        // with all four counts the pass holds five tiny solves and its
        // median lands on the edge of the cluster of real-size ones.
        cases_.push_back(segmentationCase(
            4, rng::streamSeed(seed_, k),
            cfgFor(apps::defaultSegmentationSolver(30)), 0.0, 1.0));
        ++k;
        cases_.push_back(denoisingCase(
            rng::streamSeed(seed_, k), rng::streamSeed(seed_, k + 1),
            cfgFor(apps::defaultDenoisingSolver(40)), 22.0, 30.0));

        sampler_ = constructSampler(core::RsuConfig::newDesign());
        // Warm-up: the cheapest case (segmentation), checked like any
        // solve.
        return solveApp(cases_[6], *sampler_, nullptr).failure;
    }

    SolveRecord
    solve(std::size_t index, Tracer *tracer) override
    {
        return solveApp(cases_[index % cases_.size()], *sampler_, tracer);
    }

    std::size_t passLength() const override { return cases_.size(); }

  private:
    std::uint64_t seed_;
    std::vector<AppCase> cases_;
    std::unique_ptr<core::RsuSampler> sampler_;
};

// ---------------------------------------------------- stereo16-sharded

/**
 * stereo16-sharded: one 256x256, 16-label stereo problem (the size of
 * the RSU fast path's packed lane) solved with race_mode=fastpath on
 * the ShardedCheckerboardSolver: 2 loopback shards x 1 thread, the
 * default stripe count and halo schedule.  One thread per rank keeps
 * the run steady on a virtual machine: while the host stole a quarter
 * of its CPU time, 2 shards x 2 threads, which wait for the slowest
 * thread in every phase, ran 2.8x slower and 2 x 1 ran 1.3x slower.
 * Every solve has the same inputs.  Set-up solves them once on the
 * 1-thread CheckerboardGibbsSolver with the same stripe count (a
 * serial run with stripes=0 draws from other streams), and every
 * sharded solve must match that reference byte for byte.
 */
class Stereo16Sharded final : public Workload
{
  public:
    explicit Stereo16Sharded(std::uint64_t seed) : seed_(seed) {}

    std::string
    setup() override
    {
        img::StereoSceneSpec spec;
        spec.name = "stereo16";
        spec.width = kSize;
        spec.height = kSize;
        spec.numLabels = kLabels;
        scene_.emplace(
            img::makeStereoScene(spec, rng::streamSeed(seed_, 0)));
        problem_.emplace(apps::buildStereoProblem(*scene_));
        core::RsuConfig rsu = core::RsuConfig::newDesign();
        rsu.raceMode = core::RaceMode::FastPath;
        sampler_ = constructSampler(rsu);
        mrf::SolverConfig cfg = config();
        // The sharded solver's default: min(height, 16) stripes.
        cfg.stripes = std::min(kSize, 16);
        mrf::SolverTrace trace;
        const img::LabelMap labels =
            mrf::CheckerboardGibbsSolver(cfg).run(*problem_, *sampler_, &trace);
        reference_ = digestOf(labels.data(), trace);
        // Warm-up: the first sharded solve of a process runs up to 3x
        // slow.
        return solve(0, nullptr).failure;
    }

    SolveRecord
    solve(std::size_t, Tracer *tracer) override
    {
        mrf::SolverConfig cfg = config();
        SolveRecord rec;
        rec.key = "stereo16";
        rec.labelEvals = evalsOf(kSize, kSize, kLabels, kSweeps);
        const std::int64_t t0 = nowNs();
        img::LabelMap labels;
        mrf::SolverTrace trace;
        {
            SolveScope scope(tracer);
            mrf::LabelSampler &s = scope.wrap(*sampler_);
            labels = scope.solve(cfg, [&] {
                return shard::ShardedCheckerboardSolver(cfg, options())
                    .run(*problem_, s, &trace);
            });
            scope.finish(trace, kShards, kShards);
        }
        rec.seconds = seconds(t0);
        rec.digest = digestOf(labels.data(), trace);
        rec.quality = metrics::badPixelPercent(labels, scene_->gtDisparity);
        if (rec.digest != reference_)
            rec.failure = "labels or energy trace differ from the 1-thread "
                          "reference";
        else
            rec.failure = outOfBand("bad_pixel_percent", rec.quality,
                                    kBadPixelLo, kBadPixelHi);
        return rec;
    }

  private:
    static constexpr int kSize = 256;
    static constexpr int kLabels = 16;
    static constexpr int kSweeps = 100;
    static constexpr int kShards = 2;
    // Single solves of seeds 11-15 scored 3.0-5.1% bad pixels; a
    // uniformly random labelling of 16 disparities scores ~94%.
    static constexpr double kBadPixelLo = 1.0;
    static constexpr double kBadPixelHi = 15.0;

    mrf::SolverConfig
    config() const
    {
        return apps::defaultStereoSolver(kSweeps, rng::streamSeed(seed_, 100));
    }

    static shard::ShardOptions
    options()
    {
        shard::ShardOptions o;
        o.shards = kShards;
        return o;
    }

    std::uint64_t seed_;
    std::optional<img::StereoScene> scene_;
    std::optional<mrf::MrfProblem> problem_;
    std::unique_ptr<core::RsuSampler> sampler_;
    std::uint64_t reference_ = 0;
};

// -------------------------------------------------------- design-sweep

/**
 * design-sweep: a Fig. 8 style design-space walk on the poster scene
 * at 150 sweeps.  Each solve constructs a fresh RsuSampler for a new
 * design point drawn from the seed (Time_bits 3-8, Truncation in
 * [0.01, 0.9), Lambda_bits 3-7, First ties, ClampToLastBin,
 * race_mode=auto) and evaluates its hw::CostModel area and power;
 * four solves run at once.  An in-memory checkpoint sink takes a
 * snapshot every 50 sweeps.
 */
class DesignSweep final : public Workload
{
  public:
    explicit DesignSweep(std::uint64_t seed) : seed_(seed) {}

    std::string
    setup() override
    {
        scene_.emplace(img::makeStereoScene(img::stereoPosterSpec(),
                                            rng::streamSeed(seed_, 0)));
        // Table III anchor: the chosen point (5, 0.5) costs 2,903 um^2.
        const double area = hw::CostModel()
                                .newDesign(core::RsuConfig::newDesign())
                                .total()
                                .areaUm2;
        if (std::fabs(area - 2903.0) > 2.0)
            return "cost model: Table III point costs " +
                   std::to_string(area) + " um^2, not 2,903";
        // Warm-up: one solve at the anchor point.
        auto sampler =
            constructSampler(pointConfig(core::RsuConfig::newDesign()));
        apps::runStereo(*scene_, *sampler,
                        apps::defaultStereoSolver(kSweeps, seed_));
        return "";
    }

    SolveRecord
    solve(std::size_t index, Tracer *tracer) override
    {
        const core::RsuConfig cfg = point(index);
        mrf::SolverConfig solverCfg =
            apps::defaultStereoSolver(kSweeps, rng::streamSeed(seed_, index));
        CheckpointSink checkpoints;
        SolveRecord rec;
        rec.key = "point" + std::to_string(index);
        rec.labelEvals = evalsOf(scene_->left.width(), scene_->left.height(),
                                 scene_->numLabels, kSweeps);
        const std::int64_t t0 = nowNs();
        double bp = 0.0;
        hw::Cost cost;
        std::vector<int> labels;
        mrf::SolverTrace trace;
        {
            SolveScope scope(tracer);
            checkpoints.install(solverCfg, kCheckpointEvery, scope.spans(),
                                scope.solveSpan(), scope.solveId());
            auto sampler = constructSampler(cfg, scope.spans(), scope.root(),
                                            scope.solveId());
            mrf::LabelSampler &s = scope.wrap(*sampler);
            if (!tracer) {
                apps::StereoResult r = apps::runStereo(*scene_, s, solverCfg);
                labels = std::move(r.disparity.data());
                bp = r.badPixelPercent;
                trace = std::move(r.trace);
            } else {
                std::optional<mrf::MrfProblem> problem;
                {
                    ScopedSpan span(scope.spans(), "apps.build_problem",
                                    scope.root(), scope.solveId());
                    problem.emplace(apps::buildStereoProblem(*scene_));
                }
                mrf::SolverConfig c = solverCfg;
                img::LabelMap l = scope.solve(c, [&] {
                    return mrf::runSolver(c, *problem, s, &trace);
                });
                {
                    ScopedSpan span(scope.spans(), "apps.score", scope.root(),
                                    scope.solveId());
                    // Both scores apps::runStereo computes, so the
                    // span holds the app's whole scoring cost.
                    bp = metrics::badPixelPercent(l, scene_->gtDisparity);
                    metrics::rmsError(l, scene_->gtDisparity);
                }
                labels = std::move(l.data());
            }
            {
                ScopedSpan span(scope.spans(), "hw.cost_eval", scope.root(),
                                scope.solveId());
                cost = hw::CostModel().newDesign(cfg).total();
            }
            scope.finish(trace, 1, 1, checkpoints.emits, checkpoints.bytes);
        }
        rec.seconds = seconds(t0);
        rec.digest = digestOf(labels, trace);
        rec.quality = bp;
        if (!checkpoints.failure.empty()) {
            rec.failure = checkpoints.failure;
            return rec;
        }
        // Fig. 8 spans 11-31% BP at Lambda_bits 4.  With Lambda_bits
        // 3-7 on other seeds' scenes single points reach 53%; a
        // uniformly random labelling of 30 disparities scores ~90%.
        rec.failure = outOfBand("bad_pixel_percent", bp, 5.0, 80.0);
        if (rec.failure.empty() &&
            !(cost.areaUm2 > 0.0 && cost.powerMw > 0.0 &&
              std::isfinite(cost.areaUm2) && std::isfinite(cost.powerMw)))
            rec.failure = "cost model: non-positive area or power";
        return rec;
    }

    int executors() const override { return 4; }

  private:
    static constexpr int kSweeps = 150;
    static constexpr int kCheckpointEvery = 50;

    static core::RsuConfig
    pointConfig(core::RsuConfig cfg)
    {
        cfg.tieBreak = core::TieBreak::First;
        cfg.truncationPolicy = core::TruncationPolicy::ClampToLastBin;
        cfg.raceMode = core::RaceMode::Auto;
        return cfg;
    }

    /** Design point @p index, new to the process: the truncation is
     *  drawn from a continuum. */
    core::RsuConfig
    point(std::size_t index) const
    {
        rng::Xoshiro256 gen(rng::streamSeed(seed_, 1000000 + index));
        core::RsuConfig cfg = core::RsuConfig::newDesign();
        cfg.timeBits = 3 + static_cast<unsigned>(gen.nextBounded(6));
        cfg.lambdaBits = 3 + static_cast<unsigned>(gen.nextBounded(5));
        cfg.truncation = 0.01 + 0.89 * gen.nextDouble();
        return pointConfig(cfg);
    }

    std::uint64_t seed_;
    std::optional<img::StereoScene> scene_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper-apps")
        return std::make_unique<PaperApps>(seed);
    if (name == "stereo16-sharded")
        return std::make_unique<Stereo16Sharded>(seed);
    if (name == "design-sweep")
        return std::make_unique<DesignSweep>(seed);
    return nullptr;
}

double
samplerConstructSeconds()
{
    return static_cast<double>(gConstructNs.load()) * 1e-9;
}

std::uint64_t
samplerConstructs()
{
    return gConstructs.load();
}

} // namespace perfbench
