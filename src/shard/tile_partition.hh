/**
 * @file
 * Row-tile domain decomposition for the sharded checkerboard solver.
 *
 * The grid's canonical stripe decomposition (detail::stripeRowStart,
 * S = effectiveStripes(height)) is the unit of RNG-stream identity:
 * stripe k always draws from the stream keyed (seed, sweep, color, k)
 * no matter who executes it.  A TilePartition assigns each of N
 * shards a CONTIGUOUS, STRIPE-ALIGNED run of those global stripes —
 * shard j owns stripes [S*j/N, S*(j+1)/N) and therefore the row range
 * they cover — so a run sharded N ways executes exactly the stripe
 * schedule of the serial striped run, just split across ranks.
 * That alignment is the whole determinism argument: stream keys and
 * per-stripe sampler clones are indexed by the GLOBAL stripe id,
 * which is independent of N.
 *
 * The 4-neighbor stencil reads at most one row beyond a tile, so each
 * tile carries one ghost row above and one below (when they exist);
 * ghost rows are refreshed from the owning neighbor at every
 * color-phase boundary.
 */

#ifndef RETSIM_SHARD_TILE_PARTITION_HH
#define RETSIM_SHARD_TILE_PARTITION_HH

namespace retsim {
namespace shard {

class TilePartition
{
  public:
    /**
     * Decompose @p height rows, already striped into @p stripes
     * canonical stripes, across @p shards shards.  More shards than
     * stripes leaves the surplus shards empty (they own no rows and
     * take no part in halo exchange).
     */
    TilePartition(int height, int stripes, int shards);

    int height() const { return height_; }
    int stripes() const { return stripes_; }
    int shards() const { return shards_; }

    /** First global stripe of shard @p j. */
    int stripeBegin(int j) const;
    /** One past the last global stripe of shard @p j. */
    int stripeEnd(int j) const;

    /** First row owned by shard @p j. */
    int rowBegin(int j) const;
    /** One past the last row owned by shard @p j. */
    int rowEnd(int j) const;

    /** True when shard @p j owns no stripes (shards > stripes). */
    bool empty(int j) const { return stripeBegin(j) == stripeEnd(j); }

    /** Global stripe owning row @p y. */
    int stripeOfRow(int y) const;

    /** Shard owning row @p y. */
    int ownerOfRow(int y) const;

    /**
     * Shard owning the ghost row above shard @p j's tile (rowBegin-1),
     * or -1 when the tile touches the top of the grid or is empty.
     */
    int neighborAbove(int j) const;

    /** Shard owning the ghost row below (rowEnd), or -1. */
    int neighborBelow(int j) const;

  private:
    int height_;
    int stripes_;
    int shards_;
};

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_TILE_PARTITION_HH
