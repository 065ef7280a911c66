/**
 * @file
 * A first-order MRF labeling problem on a pixel grid.
 *
 * The problem is fully described by a per-pixel singleton cost volume
 * (width x height x numLabels) and a doubleton table over label pairs
 * applied to the 4-neighborhood — exactly the model the RSU-G pipeline
 * evaluates (Fig. 1 / Eq. 1).  Applications build the cost volume from
 * images; solvers and samplers only see this structure.
 */

#ifndef RETSIM_MRF_PROBLEM_HH
#define RETSIM_MRF_PROBLEM_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "img/image.hh"
#include "mrf/energy.hh"

namespace retsim {
namespace mrf {

/** Grid connectivity of the doubleton term. */
enum class Neighborhood
{
    Four,  ///< first-order (the RSU-G pipeline's native model)
    Eight, ///< second-order; diagonal edges weighted 1/sqrt(2)
};

class MrfProblem
{
  public:
    MrfProblem(int width, int height, PairwiseTable pairwise,
               std::string name = "mrf",
               Neighborhood neighborhood = Neighborhood::Four);

    int width() const { return width_; }
    int height() const { return height_; }
    int numLabels() const { return pairwise_.numLabels(); }
    const std::string &name() const { return name_; }
    const PairwiseTable &pairwise() const { return pairwise_; }
    Neighborhood neighborhood() const { return neighborhood_; }

    /** Mutable singleton cost for (x, y, label). */
    float &
    singleton(int x, int y, int label)
    {
        return singleton_[index(x, y, label)];
    }

    float
    singleton(int x, int y, int label) const
    {
        return singleton_[index(x, y, label)];
    }

    /** Singleton costs for all labels of one pixel. */
    std::span<const float>
    singletonRow(int x, int y) const
    {
        return {singleton_.data() + index(x, y, 0),
                static_cast<std::size_t>(numLabels())};
    }

    /**
     * Conditional (Gibbs) energies of every label at pixel (x, y)
     * given the current labeling: singleton plus doubleton against the
     * 4 neighbors (Eq. 1).  @p out must hold numLabels entries.
     */
    void conditionalEnergies(const img::LabelMap &labels, int x, int y,
                             std::span<float> out) const;

    /**
     * Batched producer for the chromatic solvers: write the
     * conditional energies of pixels (x0, y), (x0 + xStep, y), ... of
     * one row into a caller-owned pixel-major arena (numLabels floats
     * per pixel, same layout LabelSampler::sampleRow consumes).  Each
     * pixel's energies are bit-identical to a conditionalEnergies()
     * call; interior rows run a fused kernel with the per-neighbor
     * bounds checks and the singleton/pairwise row addressing hoisted
     * out of the pixel loop.
     *
     * @return The number of pixels written (out must hold at least
     *         that many times numLabels entries).
     */
    int conditionalEnergiesRow(const img::LabelMap &labels, int y,
                               int x0, int xStep,
                               std::span<float> out) const;

    /**
     * Total energy of a complete labeling (for convergence checks).
     * Large grids are reduced as one partial sum per row (computed on
     * the global thread pool) accumulated in row order, so the value
     * is deterministic for a labeling regardless of thread count.
     */
    double totalEnergy(const img::LabelMap &labels) const;

    /** Largest possible conditional energy (8-bit budget checks). */
    double maxConditionalEnergy() const;

    /**
     * Energy owned by row @p y: its singletons + right/down edges
     * (each grid edge counted exactly once).  totalEnergy() is the
     * row-order sum of these partials; distributed solvers ship the
     * partials and reduce them in the same row order so the folded
     * total is bit-identical to the serial accumulation.
     */
    double rowEnergy(const img::LabelMap &labels, int y) const;

  private:
    std::size_t
    index(int x, int y, int label) const
    {
        return (static_cast<std::size_t>(y) * width_ + x) *
                   numLabels() +
               label;
    }

    int width_;
    int height_;
    PairwiseTable pairwise_;
    std::string name_;
    Neighborhood neighborhood_;
    std::vector<float> singleton_;
};

} // namespace mrf
} // namespace retsim

#endif // RETSIM_MRF_PROBLEM_HH
