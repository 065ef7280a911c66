/**
 * @file
 * retsim end-to-end benchmark program (run it through run.py).
 *
 *   perfbench --workload=<name> [--seed=1] [--seconds=30] [--trace=0]
 *             [--digests=<pins.json>] [--pin=1] [--detail=<out.json>]
 *             [--trace-out=<trace.json>] [--commit=<id>]
 *
 * Times the workload's set-up cold, in this process and in forked
 * children that start from the same state (reporting the median),
 * then runs its closed loop for --seconds and prints one JSON result
 * line last on stdout.  Untraced, the line carries the end-to-end
 * metrics.  Traced, the first half of the time runs untraced and the
 * second half traced, and the line carries the per-layer metrics,
 * including the tracing overhead between the two halves.  Every
 * solve's output is checked; at the default seed its digest must also
 * match the pinned one.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "report.hh"
#include "simd/kernels.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

using namespace perfbench;
using retsim::util::JsonValue;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/** Cold set-ups timed per run: this process's own and the rest in
 *  forked children. */
constexpr int kSetups = 3;

/** One solve of a phase, and the executor that ran it. */
struct Entry
{
    std::size_t index;
    int executor;
    SolveRecord record;
};

struct Phase
{
    std::vector<Entry> records; ///< by index
    double wallSeconds = 0.0;
    std::map<std::string, double> registryBefore, registryAfter;
    ProcessCounters processBefore, processAfter;

    double
    labelEvalsPerSecond() const
    {
        double evals = 0.0;
        for (const Entry &e : records)
            if (e.record.failure.empty())
                evals += e.record.labelEvals;
        return evals / wallSeconds;
    }

    std::vector<double>
    solveSeconds() const
    {
        std::vector<double> s;
        for (const Entry &e : records)
            s.push_back(e.record.seconds);
        return s;
    }
};

/**
 * Runs the closed loop for @p seconds, starting at solve index
 * @p next.  Each executor starts its next solve when its previous one
 * ends and stops once the time is up; a workload with a fixed cycle
 * of inputs runs the whole number of cycles that comes closest to
 * the time, so that every run solves the same mix.
 */
Phase
runPhase(Workload &w, std::size_t &next, double seconds, Tracer *tracer)
{
    Phase p;
    std::mutex mutex;
    auto book = [&](std::size_t i, int executor, SolveRecord r) {
        std::lock_guard<std::mutex> lock(mutex);
        p.records.push_back({i, executor, std::move(r)});
    };
    p.registryBefore = registryValues();
    p.processBefore = ProcessCounters::now();
    const std::int64_t start = nowNs();
    auto elapsed = [&] { return static_cast<double>(nowNs() - start) * 1e-9; };

    if (w.executors() > 1) {
        std::atomic<std::size_t> index{next};
        retsim::util::ThreadPool pool(
            static_cast<std::size_t>(w.executors() - 1));
        pool.parallelFor(static_cast<std::size_t>(w.executors()),
                         [&](std::size_t executor) {
                             while (elapsed() < seconds) {
                                 const std::size_t i = index.fetch_add(1);
                                 book(i, static_cast<int>(executor),
                                      w.solve(i, tracer));
                             }
                         });
        next = index.load();
    } else {
        const std::size_t first = next;
        const std::size_t pass = w.passLength();
        for (;; ++next) {
            const std::size_t done = next - first;
            if (done > 0 && pass == 0 && elapsed() >= seconds)
                break;
            if (done > 0 && pass > 0 && done % pass == 0) {
                const double perPass = elapsed() / (done / pass);
                if (elapsed() + perPass / 2 > seconds)
                    break;
            }
            book(next, 0, w.solve(next, tracer));
        }
    }
    p.wallSeconds = elapsed();
    p.processAfter = ProcessCounters::now();
    p.registryAfter = registryValues();
    std::sort(p.records.begin(), p.records.end(),
              [](const Entry &a, const Entry &b) { return a.index < b.index; });
    return p;
}

/**
 * Keeps every hardware thread busy for @p seconds.  On a virtual
 * machine whose CPUs sat idle, the first second of full load can run
 * up to 3x slow; without this the first set-up would pay for it.
 */
void
warmCpus(double seconds)
{
    const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
         ++i)
        threads.emplace_back([end] {
            volatile std::uint64_t x = 1;
            while (nowNs() < end)
                for (int k = 0; k < 1000; ++k)
                    x = x * 6364136223846793005ULL + 1;
        });
    for (std::thread &t : threads)
        t.join();
}

/**
 * Times one set-up of @p w in a forked child.  The child starts from
 * this process's state before its own set-up, so the sample is as
 * cold as that one: no tables built, no pages touched.  Call it while
 * this process runs no other thread.  Returns the seconds, or a
 * negative value when the child's set-up failed.
 */
double
setupInChild(Workload &w)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        const std::int64_t t0 = nowNs();
        const bool ok = w.setup().empty();
        const double s =
            ok ? static_cast<double>(nowNs() - t0) * 1e-9 : -1.0;
        const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s)
        s = -1.0;
    close(fds[0]);
    int status = 0;
    if (pid > 0 && (waitpid(pid, &status, 0) != pid || status != 0))
        s = -1.0;
    return s;
}

/** Per-layer metrics of the traced phase @p t (see BENCHMARK.json). */
std::vector<Metric>
layerMetrics(const Phase &untraced, const Phase &t,
             Tracer &tracer)
{
    const LayerTotals &lt = tracer.totals;
    const double n = std::max<double>(1.0, static_cast<double>(lt.solves));
    auto reg = [&](const std::string &name) {
        return delta(t.registryBefore, t.registryAfter, name);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double solveSeconds = tracer.spans.totalSeconds("mrf.solve");
    const double busy = static_cast<double>(lt.samplerBusyNs) * 1e-9;
    const double cacheHits = reg("mrf.energy_cache.clean_hits");
    const double fastHits = reg("core.race_fastpath.hits");
    const double lutHits = reg("core.lambda_lut.hits");

    return {
        {"apps.build_problem_s",
         tracer.spans.totalSeconds("apps.build_problem") / n, "s"},
        {"apps.score_s", tracer.spans.totalSeconds("apps.score") / n, "s"},
        {"mrf.solve_s", solveSeconds / n, "s"},
        {"mrf.non_sampler_core_s", (lt.workerSolveSeconds - busy) / n, "s"},
        {"mrf.sweep_ms.head", lt.sweepHeadMs / n, "ms"},
        {"mrf.sweep_ms.tail", lt.sweepTailMs / n, "ms"},
        {"mrf.pixel_updates", static_cast<double>(lt.pixelUpdates) / n,
         "count"},
        {"mrf.label_change_ratio",
         ratio(static_cast<double>(lt.labelChanges),
               static_cast<double>(lt.pixelUpdates)),
         "ratio"},
        {"mrf.energy_cache.hit_rate",
         ratio(cacheHits, cacheHits + reg("mrf.energy_cache.recomputed")),
         "ratio"},
        {"mrf.energy_cache.invalidations",
         reg("mrf.energy_cache.invalidations") / n, "count"},
        {"mrf.checkpoint.emits", static_cast<double>(lt.checkpointEmits) / n,
         "count"},
        {"mrf.checkpoint.bytes", static_cast<double>(lt.checkpointBytes) / n,
         "B"},
        {"mrf.checkpoint.serialize_s",
         tracer.spans.totalSeconds("mrf.checkpoint.serialize") / n, "s"},
        {"core.sampler.busy_s", busy / n, "s"},
        {"core.sampler.calls", static_cast<double>(lt.samplerCalls) / n,
         "count"},
        {"core.sampler.ns_per_label_eval",
         ratio(static_cast<double>(lt.samplerBusyNs),
               static_cast<double>(lt.samplerLabelEvals)),
         "ns"},
        {"core.sampler.construct_s",
         ratio(samplerConstructSeconds(),
               static_cast<double>(samplerConstructs())),
         "s"},
        {"core.sampler.clone_s",
         ratio(static_cast<double>(lt.cloneNs) * 1e-9,
               static_cast<double>(lt.clones)),
         "s"},
        {"core.sampler.clones", static_cast<double>(lt.clones) / n, "count"},
        {"core.sampler.no_sample_ratio",
         ratio(static_cast<double>(lt.stats.noSample),
               static_cast<double>(lt.stats.samples)),
         "ratio"},
        {"core.sampler.tie_ratio",
         ratio(static_cast<double>(lt.stats.ties),
               static_cast<double>(lt.stats.samples)),
         "ratio"},
        {"core.race_fastpath.hit_rate",
         ratio(fastHits, fastHits + reg("core.race_fastpath.misses")),
         "ratio"},
        {"core.race_fastpath.tables", reg("core.race_fastpath.tables"),
         "count"},
        {"core.lambda_lut.hit_rate",
         ratio(lutHits, lutHits + reg("core.lambda_lut.misses")), "ratio"},
        {"core.lambda_lut.tables", reg("core.lambda_lut.tables"), "count"},
        {"shard.halo.wait_frac",
         ratio(reg("shard.halo.wait_ns") * 1e-9, lt.rankSolveSeconds),
         "ratio"},
        {"shard.halo.wait_ns", reg("shard.halo.wait_ns") / n, "ns"},
        {"shard.halo.send_ns", reg("shard.halo.send_ns") / n, "ns"},
        {"shard.halo.bytes_sent", reg("shard.halo.bytes_sent") / n, "B"},
        {"shard.phase.interior_ns", reg("shard.phase.interior_ns") / n,
         "ns"},
        {"util.thread_pool.parallel_for_calls",
         reg("util.thread_pool.parallel_for_calls") / n, "count"},
        {"util.thread_pool.tasks", reg("util.thread_pool.tasks") / n,
         "count"},
        {"proc.vol_ctx_switches",
         (t.processAfter.voluntarySwitches -
          t.processBefore.voluntarySwitches) /
             n,
         "count"},
        {"proc.cpu_util",
         (t.processAfter.cpuSeconds - t.processBefore.cpuSeconds) /
             t.wallSeconds,
         "ratio"},
        {"hw.cost_eval_s", tracer.spans.totalSeconds("hw.cost_eval") / n,
         "s"},
        {"proc.minor_faults",
         (t.processAfter.minorFaults - t.processBefore.minorFaults) / n,
         "count"},
        {"trace.overhead",
         ratio(t.labelEvalsPerSecond(), untraced.labelEvalsPerSecond()),
         "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    retsim::util::CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", kDefaultSeed));
    const double seconds = args.getDouble("seconds", 30.0);
    const bool traced = args.getInt("trace", 0) != 0;
    const bool pin = args.getBool("pin", false);
    const std::string digestsPath = args.getString("digests", "");

    std::unique_ptr<Workload> w = makeWorkload(name, seed);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s' (paper-apps, "
                             "stereo16-sharded, design-sweep)\n",
                     name.c_str());
        return 2;
    }
    if (pin && (seed != kDefaultSeed || digestsPath.empty())) {
        std::fprintf(stderr, "perfbench: --pin needs --digests and the "
                             "default seed\n");
        return 2;
    }
    DigestPins pins;
    std::string error;
    if (!digestsPath.empty() && !pins.load(digestsPath, &error)) {
        std::fprintf(stderr, "perfbench: %s: %s\n", digestsPath.c_str(),
                     error.c_str());
        return 2;
    }

    std::vector<std::string> problems; // run-level check failures
    std::vector<double> setupSeconds;
    warmCpus(1.0);
    for (int i = 1; i < kSetups; ++i) {
        const double s = setupInChild(*w);
        if (s < 0.0)
            problems.push_back("setup in a child process failed");
        else
            setupSeconds.push_back(s);
    }
    {
        const std::int64_t t0 = nowNs();
        const std::string failure = w->setup();
        setupSeconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        if (!failure.empty())
            problems.push_back("setup: " + failure);
    }

    std::size_t next = 0;
    Tracer tracer;
    Phase untraced = runPhase(*w, next, traced ? seconds / 2 : seconds,
                              nullptr);
    Phase tracedPhase;
    if (traced)
        tracedPhase = runPhase(*w, next, seconds / 2, &tracer);
    const Phase &last = traced ? tracedPhase : untraced;

    // Re-solve the last solve of every executor of the final phase,
    // and its first one too when solves ran concurrently, undecorated
    // and one at a time: after a traced phase this is the decorator's
    // byte-identity check, and on a workload with concurrent solves it
    // repeats them serially.
    {
        std::map<int, std::pair<const Entry *, const Entry *>> ends;
        for (const Entry &e : last.records) {
            auto [it, fresh] = ends.try_emplace(e.executor, &e, &e);
            if (!fresh)
                it->second.second = &e;
        }
        std::vector<const Entry *> picked;
        for (const auto &[executor, firstLast] : ends) {
            if (w->executors() > 1 && firstLast.first != firstLast.second)
                picked.push_back(firstLast.first);
            picked.push_back(firstLast.second);
        }
        for (const Entry *e : picked)
            if (w->solve(e->index, nullptr).digest != e->record.digest)
                problems.push_back("re-solve of " + e->record.key +
                                   " gave a different digest");
    }

    // Every solve of the same inputs must give the same digest, and at
    // the default seed the pinned one.
    std::vector<SolveRecord *> all;
    for (Phase *p : {&untraced, &tracedPhase})
        for (Entry &e : p->records)
            all.push_back(&e.record);
    std::map<std::string, std::string> seen;
    std::size_t pinChecked = 0;
    for (SolveRecord *r : all) {
        const std::string digest = hex64(r->digest);
        auto [it, fresh] = seen.emplace(r->key, digest);
        if (!fresh && it->second != digest && r->failure.empty())
            r->failure = "digest differs from an earlier solve of " + r->key;
        if (seed != kDefaultSeed || pin)
            continue;
        const std::string pinned = pins.find(name, r->key);
        if (pinned.empty())
            continue;
        ++pinChecked;
        if (pinned != digest && r->failure.empty())
            r->failure = "digest " + digest + " != pinned " + pinned;
    }
    if (seed == kDefaultSeed && !pin && pinChecked == 0)
        problems.push_back("no pinned digest checked at the default seed");
    if (pin && !pins.store(digestsPath, name, seen, &error))
        problems.push_back(error);

    std::uint64_t failed = 0;
    for (const SolveRecord *r : all)
        if (!r->failure.empty()) {
            ++failed;
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         r->key.c_str(), r->failure.c_str());
        }
    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());

    const std::vector<double> solveSeconds = untraced.solveSeconds();
    std::vector<Metric> metrics;
    if (traced)
        metrics = layerMetrics(untraced, tracedPhase, tracer);
    else
        metrics = {
            {"label_evals_per_s", untraced.labelEvalsPerSecond(), "1/s"},
            {"solve_s_p50", quantile(solveSeconds, 0.5), "s"},
            {"setup_s", quantile(setupSeconds, 0.5), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };

    auto number = [](double v) { return JsonValue(v); };
    JsonValue context = JsonValue::object();
    context.set("workload", JsonValue(name));
    context.set("seed", number(static_cast<double>(seed)));
    context.set("seconds", number(seconds));
    context.set("trace", JsonValue(traced));
    context.set("hardware_threads",
                number(std::thread::hardware_concurrency()));
    context.set("simd_backend",
                JsonValue(std::string(retsim::simd::backendName(
                    retsim::simd::activeBackend()))));
    context.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
    context.set("commit", JsonValue(args.getString("commit", "unknown")));
    context.set("setup_runs",
                number(static_cast<double>(setupSeconds.size())));
    context.set("percentile_samples",
                number(static_cast<double>(solveSeconds.size())));
    // Ungated: a 90th percentile needs ~100 solves a run, which only
    // design-sweep has (see BENCHMARK.json).
    JsonValue p90 = JsonValue::object();
    p90.set("value", number(quantile(solveSeconds, 0.9)));
    p90.set("unit", JsonValue(std::string("s")));
    context.set("solve_s_p90", std::move(p90));
    context.set("pinned_digests_checked",
                number(static_cast<double>(pinChecked)));

    const std::string detailPath = args.getString("detail", "");
    if (!detailPath.empty()) {
        JsonValue detail = JsonValue::object();
        detail.set("context", context);
        JsonValue setups = JsonValue::array();
        for (double s : setupSeconds)
            setups.append(number(s));
        detail.set("setup_seconds", std::move(setups));
        JsonValue solves = JsonValue::array();
        for (const SolveRecord *r : all) {
            JsonValue o = JsonValue::object();
            o.set("key", JsonValue(r->key));
            o.set("seconds", number(r->seconds));
            o.set("digest", JsonValue(hex64(r->digest)));
            o.set("quality", number(r->quality));
            o.set("failure", JsonValue(r->failure));
            solves.append(std::move(o));
        }
        detail.set("solves", std::move(solves));
        std::ofstream out(detailPath);
        out << detail.dump(1);
    }
    const std::string tracePath = args.getString("trace-out", "");
    if (traced && !tracePath.empty() && !tracer.spans.write(tracePath))
        std::fprintf(stderr, "perfbench: cannot write %s\n", tracePath.c_str());

    JsonValue contextLine = JsonValue::object();
    contextLine.set("context", std::move(context));
    std::printf("%s\n", contextLine.dump().c_str());
    std::printf("%s\n", resultLine(failed == 0 && problems.empty(),
                                   all.size(), failed, metrics)
                            .c_str());
    return 0;
}
