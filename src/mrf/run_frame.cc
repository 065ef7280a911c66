#include "mrf/run_frame.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace retsim {
namespace mrf {
namespace detail {

RunFrame::RunFrame(const char *kind, const SolverConfig &config,
                   const MrfProblem &problem, LabelSampler &sampler,
                   img::LabelMap &labels, SolverTrace *callerTrace,
                   int stripes)
    : gen(config.seed), telemetry(problem, sampler, kind), kind_(kind),
      config_(config), problem_(problem), sampler_(sampler),
      labels_(labels), stripes_(stripes)
{
    RETSIM_ASSERT(labels.width() == problem.width() &&
                      labels.height() == problem.height(),
                  "label map size mismatch");
    RETSIM_ASSERT(config.threads >= 0 && config.stripes >= 0,
                  "threads/stripes cannot be negative");
    const bool checkpointing = config.checkpointEvery > 0;
    if (checkpointing && !config.checkpointSink &&
        config.checkpointPath.empty())
        RETSIM_FATAL("checkpointEvery is set but neither "
                     "checkpointPath nor checkpointSink is configured");

    // Telemetry wants the per-sweep counters even when the caller
    // passed no trace; a run-local trace stands in.  Checkpoints carry
    // the trace too, so checkpointing also forces one — that keeps the
    // final snapshot byte-identical whether or not the caller asked
    // for a trace.  With none of the three the counting stays compiled
    // out of the pixel loop.
    trace = callerTrace ? callerTrace
                        : ((telemetry.active() || checkpointing)
                               ? &localTrace_
                               : nullptr);

    const int m = problem.numLabels();
    const SolverCheckpoint *resume = config.resume.get();
    if (resume) {
        validateResume(*resume, kind, config, problem.width(),
                       problem.height(), m, sampler.name(), stripes);
        labels = resume->labels;
        if (!gen.loadState(resume->solverGen))
            RETSIM_FATAL("resume snapshot: solver generator state "
                         "does not fit ", gen.name());
        if (!sampler.loadState(resume->samplerState))
            RETSIM_FATAL("resume snapshot: sampler state does not fit "
                         "sampler '", sampler.name(), "'");
        scanOrder = resume->scanOrder;
        if (trace)
            *trace = resume->trace;
        startSweep = resume->sweepsDone;
    } else if (config.randomInit) {
        for (int &l : labels.data())
            l = static_cast<int>(gen.nextBounded(m));
    } else {
        for (int l : labels.data()) {
            RETSIM_ASSERT(l >= 0 && l < m,
                          "initial label ", l, " out of range");
        }
    }

    if (trace)
        telemetry.setTraceBaseline(trace->pixelUpdates,
                                   trace->labelChanges);

    // Clones are made in ascending stripe order from the restored
    // caller sampler, whichever executor later runs them.
    clones.resize(static_cast<std::size_t>(stripes));
    for (int k = 0; k < stripes; ++k)
        clones[static_cast<std::size_t>(k)] =
            sampler.clone(static_cast<std::uint64_t>(k));
    if (resume) {
        // validateResume already matched the stripe count against the
        // snapshot; restore each clone's counters and entropy position.
        RETSIM_ASSERT(static_cast<int>(
                          resume->stripeSamplerState.size()) == stripes,
                      "stripe-state table size mismatch");
        for (int k = 0; k < stripes; ++k) {
            if (!clones[static_cast<std::size_t>(k)]->loadState(
                    resume->stripeSamplerState[static_cast<std::size_t>(
                        k)]))
                RETSIM_FATAL("resume snapshot: stripe ", k,
                             " sampler state does not fit sampler '",
                             clones[static_cast<std::size_t>(k)]->name(),
                             "'");
        }
    }
}

void
RunFrame::endSweep(int sweep, double temperature, double energy)
{
    if (trace) {
        trace->energyPerSweep.push_back(energy);
        trace->temperaturePerSweep.push_back(temperature);
    }
    if (telemetry.active()) {
        // Caller sampler plus every stripe clone: the run-cumulative
        // stats a telemetry record differences.
        SamplerStats cum = sampler_.stats();
        for (const std::unique_ptr<LabelSampler> &c : clones)
            cum += c->stats();
        telemetry.recordSweep(sweep, temperature, energy,
                              trace->pixelUpdates, trace->labelChanges,
                              cum);
    }
    if (config_.sweepObserver)
        config_.sweepObserver(sweep, temperature, labels_);
}

void
RunFrame::emitCheckpoint(int done) const
{
    SolverCheckpoint cp;
    cp.solverKind = kind_;
    cp.samplerName = sampler_.name();
    cp.seed = config_.seed;
    cp.t0 = config_.annealing.t0;
    cp.tEnd = config_.annealing.tEnd;
    cp.sweepsTotal = config_.annealing.sweeps;
    cp.width = problem_.width();
    cp.height = problem_.height();
    cp.numLabels = problem_.numLabels();
    cp.stripes = stripes_;
    cp.randomScan = config_.randomScan;
    cp.sweepsDone = done;
    cp.labels = labels_;
    gen.saveState(cp.solverGen);
    cp.scanOrder = scanOrder;
    sampler_.saveState(cp.samplerState);
    cp.stripeSamplerState.resize(clones.size());
    for (std::size_t k = 0; k < clones.size(); ++k)
        clones[k]->saveState(cp.stripeSamplerState[k]);
    if (trace)
        cp.trace = *trace;
    detail::emitCheckpoint(config_, cp);
}

void
RunFrame::finish()
{
    const SolverMetricIds &ids = SolverMetricIds::get();
    obs::Registry &reg = obs::Registry::global();
    reg.add(ids.runs, 1);
    reg.add(ids.sweeps,
            static_cast<std::uint64_t>(config_.annealing.sweeps -
                                       startSweep));
    // Striped runs report the same sampler totals (samples, no-sample
    // events, ties, rebuilds) as serial ones.
    for (const std::unique_ptr<LabelSampler> &c : clones)
        sampler_.mergeStats(*c);
}

} // namespace detail
} // namespace mrf
} // namespace retsim
