/**
 * @file
 * Alias-table categorical fast path for the TTF race.
 *
 * The first-to-fire race over per-label exponentials realizes a
 * categorical distribution: in continuous time P(win = i) = rate_i /
 * sum(rate) exactly (the min-of-exponentials identity documented in
 * ttf_race.hh), and in binned time the joint law of (winner, tie,
 * no-fire) is a closed-form function of the rate vector.  Wherever
 * the cycle-accurate timing behavior is not itself under study, the
 * race can therefore be replaced by a handful of uniform draws
 * against precomputed quantities: m exponential draws + argmin
 * collapse to one-or-two table lookups and O(m) arithmetic.
 *
 * The binned decomposition rests on memorylessness.  A label with
 * rate r has the geometric bin law f(b) = e^{-r(b-1)}(1 - e^{-r}),
 * so P(bin = b | bin >= b) = 1 - e^{-r} independent of b.  Hence:
 *
 *  1. The minimum bin over the pixel is one binned exponential draw
 *     at the total rate R = sum(rate_i) — P(min > b) = e^{-Rb} —
 *     including the no-fire check (min beyond the window under the
 *     InfiniteTtf policy).
 *  2. Conditioned on the minimum landing in an interior bin, each
 *     firing label is tied (shares the minimum) independently with
 *     probability p_i = 1 - e^{-rate_i}, conditioned on >= 1 success
 *     — the same law for every interior bin.  Under ClampToLastBin
 *     the window-end bin is the one special case: every firing label
 *     ties there with probability 1.
 *
 * A First/Last tie-break then needs NO tables at all: the winner is
 * the first (last) success of a conditional independent-Bernoulli
 * sequence, drawn exactly with one uniform by an O(m) prefix walk,
 * plus one uniform for the tie flag.  A Random tie-break picks
 * uniformly among the tied set, whose composition couples all
 * labels; its (winner class, tie) conditional law is tabulated per
 * rate multiset — exchangeability lets equal-rate labels share one
 * table slot, with the winner drawn uniformly inside the class — and
 * the tables are cached process-wide like LambdaLutCache.  Because
 * the quantized designs draw their rates from a tiny alphabet (the
 * lambda codes times lambda_0 — temperature only selects which codes
 * an energy maps to), the cache key is the (rate, count) multiset
 * itself: tables are shared across temperatures, stripes and sweeps.
 *
 * Correctness contract: the fast path is *distribution*-equivalent
 * to the literal race (chi-squared equivalence against a brute-force
 * enumeration of the exact joint law is asserted by
 * race_fastpath_test), not draw-for-draw equal — it consumes a
 * different, fixed number of uniforms per pixel.  That fixed draw
 * count makes every fastpath mode bulk-fillable, so the scalar and
 * batched row entries of RsuSampler remain bit-identical to each
 * other in fastpath mode, and runs checkpoint/replay byte-exactly.
 * Fastpath RaceOutcomes carry winner/tie/no-fire only; winningBin
 * and contenders (per-draw timing artifacts nothing downstream of
 * the samplers consumes) are reported as zero in binned mode.
 */

#ifndef RETSIM_CORE_RACE_FASTPATH_HH
#define RETSIM_CORE_RACE_FASTPATH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/rsu_config.hh"
#include "core/ttf_race.hh"
#include "simd/kernels.hh"

namespace retsim {
namespace core {

/**
 * One compiled Random-tie race conditional: the exact (winner class,
 * tie) pmf given that at least one label fired in an interior bin,
 * and its Walker alias table.  Outcome encoding: k in [0, 2*slots)
 * selects winner class slot k>>1 (key order) with tie flag k&1.  The
 * winner is drawn uniformly among the class's members by the caller;
 * no-fire and the ClampToLastBin window-end case are resolved by the
 * caller before the table is consulted.
 */
struct RaceTable
{
    std::size_t slots = 0;
    std::vector<double> pmf;          ///< exact conditional pmf
    std::vector<double> aliasProb;    ///< Walker acceptance thresholds
    std::vector<std::uint32_t> alias; ///< Walker alias targets

    std::size_t outcomes() const { return pmf.size(); }

    /** Alias draw from two uniforms in [0, 1). */
    std::size_t
    draw(double u1, double u2) const
    {
        const std::size_t k = outcomes();
        std::size_t j = static_cast<std::size_t>(
            u1 * static_cast<double>(k));
        if (j >= k)
            j = k - 1; // u1 < 1 makes this unreachable; belt+braces
        return u2 < aliasProb[j] ? j : alias[j];
    }
};

/**
 * Process-wide memoization of RaceTables, mirroring LambdaLutCache.
 *
 * The key is fully self-describing — word 0 packs the mode bits and
 * the remaining words carry ascending (rate bit pattern, count)
 * pairs over the firing classes — so the cache builds missing tables
 * from the key alone.  Temperature is deliberately NOT part of the
 * key: the rates already capture it, which is what lets revisited
 * annealing rungs and coinciding code vectors at different
 * temperatures share one build (asserted by the cross-temperature
 * cache test).
 */
class RaceTableCache
{
  public:
    using Key = std::vector<std::uint64_t>;

    /** The process-wide instance used by the samplers. */
    static RaceTableCache &global();

    /** Fetch-or-build the table for a canonical key. */
    std::shared_ptr<const RaceTable> get(const Key &key);

    /** Pack key word 0 from the config's race-relevant fields. */
    static std::uint64_t modeWord(const RsuConfig &cfg);

    /** Build a table directly from a canonical key (exposed so the
     *  statistical tests can inspect the exact conditional pmf
     *  without going through a sampler). */
    static RaceTable buildFromKey(const Key &key);

    /** Tables currently held. */
    std::size_t size() const;
    /** get() calls answered without building. */
    std::uint64_t hits() const;
    /** get() calls that had to build a new table. */
    std::uint64_t misses() const;

    /** Drop all tables and reset counters (tests, memory pressure). */
    void clear();

  private:
    /** Tables held before the cache wipes itself; a safety valve for
     *  workloads that never repeat a rate multiset. */
    static constexpr std::size_t kMaxEntries = 65536;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<const RaceTable>> tables_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Per-sampler fast-path state: the quantized-energy -> rate-class
 * mapping for the currently bound rate table, per-class tie
 * probabilities, a direct-mapped count-vector memo in front of the
 * global cache (no mutex, no canonical-key build on the per-pixel
 * hot path), and the per-pixel draw routines.  One instance per
 * RsuSampler; stripe clones each own theirs.
 */
class RaceFastPath
{
  public:
    explicit RaceFastPath(const RsuConfig &cfg);

    /** Can this config be served by the fast path at all?  Float
     *  time always can (on-the-fly CDF over the rates); binned time
     *  requires rates drawn from the finite quantized alphabet
     *  (!floatEnergy and a non-float lambda quantization), because
     *  continuous rates would defeat the class decomposition. */
    static bool supported(const RsuConfig &cfg);

    /** Race modes that draw nothing but the per-label exponentials
     *  (float time, or binned time with a deterministic tie-break) —
     *  what RaceMode::Auto additionally requires. */
    static bool autoEligible(const RsuConfig &cfg);

    /** Resolve cfg.raceMode to a concrete use-fastpath decision.
     *  Fatal when FastPath is requested explicitly for an unsupported
     *  config. */
    static bool resolve(const RsuConfig &cfg);

    /** Uniform draws consumed per pixel — fixed per config (binned
     *  First/Last: min-bin + winner walk + tie flag = 3; binned
     *  Random: min-bin + alias slot (whose fractional part doubles
     *  as the independent accept uniform) + class rank = 3; float
     *  time: 1), so rows bulk-fill and scalar/row stay
     *  bit-identical. */
    unsigned drawsPerPixel() const { return drawsPerPixel_; }

    /**
     * Bind the quantized-energy -> absolute-rate table the indices
     * passed to raceBinned() resolve through (RsuSampler's
     * rateTable_).  Rebuilds the rate alphabet, class map and tie
     * probabilities and resets the memo; cheap enough to call on
     * every temperature change (global cache entries survive — their
     * keys are canonical rate multisets).
     */
    void bindRateTable(std::span<const double> rate_table);

    /**
     * Binned-mode race over one pixel's quantized energies @p q
     * (doubles holding exact integers, as produced by the
     * quantizeEnergies kernel or util::quantizeUnsigned), offset by
     * @p base (the pixel's quantized minimum under decay-rate
     * scaling, 0 otherwise).  @p u must hold drawsPerPixel()
     * uniforms in [0, 1); all are consumed logically even when an
     * outcome ignores one (fixed draw layout).
     */
    RaceOutcome raceBinned(const double *q, double base,
                           std::size_t m, const double *u);

    /**
     * Row entry: races @p n pixels of @p m quantized energies each
     * (pixel p at @p q + p*m, its base at @p bases[p], or 0 when
     * @p bases is null), consuming drawsPerPixel() uniforms per
     * pixel from @p u.  Result-identical to n raceBinned() calls on
     * the same inputs — the speedup is structural: a classify pass
     * computes every pixel's count/class words first (prefetching
     * the memo entries), then a draw pass runs with the entries
     * already in cache, so one pixel's memo-probe latency overlaps
     * the next pixel's integer work instead of serializing with it.
     */
    void raceBinnedRow(const double *q, const double *bases,
                       std::size_t n, std::size_t m, const double *u,
                       RaceOutcome *out);

    /**
     * Fused row entry straight from the float energy plane: for each
     * pixel, quantize the energies to [0, @p top] and classify them
     * in one dispatched quantizeClassify kernel call (packed lane,
     * m <= 16 — no quantized plane ever materializes), then draw.
     * @p subtract_min applies decay-rate scaling (indexes the bound
     * rate table with q - min_j q).  Result-identical to quantizing
     * each pixel with the quantizeEnergies kernel and racing it
     * through raceBinned() with base = (subtract_min ? e_min : 0);
     * pixels outside the packed lane take exactly that fallback
     * internally.  @p u carries n * drawsPerPixel() uniforms.
     */
    void raceEnergiesRow(const float *energies, double top,
                         bool subtract_min, std::size_t n,
                         std::size_t m, const double *u,
                         RaceOutcome *out);

    /**
     * Float-time race over one pixel's absolute rates: one uniform
     * inverts the prefix-sum CDF, realizing P(i) = rate_i /
     * sum(rate) (rates <= 0 never win; winner -1 when none is
     * positive).  Stateless — float mode needs no tables.
     */
    static RaceOutcome raceFloat(const double *rates, std::size_t m,
                                 double u);

  private:
    /**
     * Fast lane for small pixels over small alphabets (<= 8 rate
     * classes, m <= 16 labels — every quantized design): the pixel's
     * per-class counts accumulate into one u64 (one byte per class,
     * one register add per label, no stores), which is simultaneously
     * the memo key, while the label -> class bytes accumulate into
     * two more words so the winner scans are branch-free SWAR
     * byte-compares.  A 2-way memo entry carries everything
     * transcendental the draw needs — the fired / window-end uniform
     * gate and e^{-R} — plus the class table's slot map and raw alias
     * arrays, so the steady-state pixel does no log/exp, no heap key,
     * no mutex, and no pointer-chasing through vector headers.
     * Entries depend only on the count multiset over a stable
     * alphabet, so they survive temperature rebinds.
     */
    RaceOutcome racePacked(const double *q, double base,
                           std::size_t m, const double *u);
    /** Classify one packed-lane pixel: per-class count word and the
     *  two label -> class byte words. */
    void packWords(const double *q, double base, std::size_t m,
                   std::uint64_t &word, std::uint64_t &cw0,
                   std::uint64_t &cw1) const;
    /** Draw one packed-lane pixel from its classify words.  @p slot
     *  is the pixel's memo pair index (packedSlot(word)) — hoisted so
     *  the row passes hash once, at prefetch time. */
    RaceOutcome drawPacked(std::uint64_t word, std::uint64_t cw0,
                           std::uint64_t cw1, std::size_t m,
                           const double *u, std::size_t slot);
    /** General lane (rare: huge alphabets or label counts): vector
     *  counts key and a per-pixel log for the window gates. */
    RaceOutcome raceGeneral(const double *q, double base,
                            std::size_t m, const double *u);
    /** Memoized fetch of the Random-tie class table for the current
     *  pixel's counts_ (alphabet-indexed label counts). */
    const RaceTable *lookupClassTable();

    RsuConfig cfg_;
    bool ordered_ = false; ///< First/Last (tableless) vs Random
    bool lastTie_ = false; ///< Last: winner walk runs high-to-low
    bool drop_ = false;    ///< InfiniteTtf truncation policy
    unsigned drawsPerPixel_ = 1;
    double tMax_ = 0.0; ///< window length in bins
    std::uint64_t modeWord_ = 0;
    /** Content of the last real bind, for the rebind early-out. */
    std::vector<double> boundTable_;

    // ---- bound alphabet (rebuilt by bindRateTable) -------------------
    std::vector<double> alphabet_;       ///< sorted distinct rates
    std::vector<std::uint16_t> classOf_; ///< table index -> class
    /** classOf_ as bytes, padded 8 past the end for the fused
     *  kernel's 32-bit gathers; built only for the packed lane. */
    std::vector<std::uint8_t> classBytes_;
    std::vector<double> tieP_;           ///< per class 1 - e^{-rate}
    bool packedOk_ = false;   ///< alphabet fits the packed lane
    int zeroClass_ = -1;      ///< alphabet index of the rate-0 class
    std::uint64_t firingMask_ = 0; ///< count-word bytes of rate>0 classes

    // ---- packed-lane memo --------------------------------------------
    struct alignas(64) PackedEntry
    {
        std::uint64_t key = 0; ///< per-class count bytes; 0 = empty
        double gate = 0.0;     ///< fired (drop) / interior (clamp) gate
        double qAll = 1.0;     ///< e^{-r_tot}
        // Random lane: a self-contained copy of the class table's
        // alias method (float thresholds, byte targets — a <= 8
        // class alphabet has <= 16 outcomes) plus its slot ->
        // alphabet-class map, so the hot draw touches no memory
        // outside this entry: two adjacent cache lines, no heap
        // hops, no ownership to track.  (Keeping the arrays by
        // pointer instead measures slower: the per-table heap
        // vectors scatter, and the draw picks up a dependent load.)
        double outcomes = 0.0; ///< table outcome count (2 * classes)
        std::uint8_t slotClass[8] = {};
        std::uint8_t alias[16] = {};
        float aliasProb[16] = {};
    };
    static constexpr std::size_t kPackedSlots = 65536;
    std::vector<PackedEntry> packedMemo_;
    PackedEntry &packedLookup(std::uint64_t word, std::size_t slot);
    /** Memo pair index of a count word (always even; the pair is
     *  {slot, slot + 1}). */
    static std::size_t packedSlot(std::uint64_t word);
    // Row-pass scratch: per-pixel classify words (word/cw0/cw1
    // triples, the quantizeClassifyRow kernel layout) + memo slots.
    std::vector<std::uint64_t> rowWords_;
    std::vector<std::uint32_t> rowSlot_;
    // raceEnergiesRow fallback scratch: one pixel's quantized plane.
    std::vector<double> quantScratch_;

    // ---- general-lane scratch and memo -------------------------------
    std::vector<std::uint32_t> counts_;  ///< per-class label counts
    std::vector<std::uint16_t> pixelClass_;
    RaceTableCache::Key key_;
    struct MemoEntry
    {
        std::vector<std::uint32_t> counts;
        std::shared_ptr<const RaceTable> table;
    };
    static constexpr std::size_t kMemoSlots = 4096;
    std::vector<MemoEntry> memo_;

    // ---- packed-fill accelerators ------------------------------------
    // High temperatures make the count word nearly unique per pixel,
    // so the packed memo refills constantly; these two memos cut the
    // refill cost itself.  Neither needs invalidation: the exp memo
    // is keyed by the exact r_tot bits (tMax_/drop_ are fixed per
    // instance) and the table memo compares the full canonical key.
    /** r_tot bit pattern -> the two transcendental gates. */
    struct ExpMemoEntry
    {
        std::uint64_t key = ~std::uint64_t{0}; ///< never a finite sum
        double qAll = 1.0;
        double gate = 0.0;
    };
    static constexpr std::size_t kExpMemoSlots = 16384;
    std::vector<ExpMemoEntry> expMemo_;
    /** Canonical table key -> shared table, bypassing the global
     *  cache's mutex + ordered map on the hot refill path. */
    struct TableMemoEntry
    {
        RaceTableCache::Key key; ///< empty = unused slot
        std::shared_ptr<const RaceTable> table;
    };
    static constexpr std::size_t kTableMemoSlots = 4096;
    std::vector<TableMemoEntry> tableMemo_;
    /** Fetch the race table for key_, through tableMemo_. */
    const RaceTable *fetchTable();
};

} // namespace core
} // namespace retsim

#endif // RETSIM_CORE_RACE_FASTPATH_HH
