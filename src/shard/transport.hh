/**
 * @file
 * In-process message transport between shard ranks.
 *
 * Every rank is a thread of one process and every ordered rank pair
 * (src, dst) has its own in-memory FIFO channel.  Ranks still keep
 * private label copies and exchange ghost rows, sweep counters and
 * gathered state as tagged byte messages, so the solver's protocol is
 * explicit and every cross-rank interaction is visible to gtest and
 * TSan.
 *
 * Channels are unbounded, so send() never blocks and the symmetric
 * halo exchange (all sends before any receive) cannot deadlock.
 * recv(peer, tag) is matched: receiving a frame whose tag differs
 * from the expectation is fatal, which turns any desynchronization
 * into an immediate diagnostic instead of silently misread bytes.
 */

#ifndef RETSIM_SHARD_TRANSPORT_HH
#define RETSIM_SHARD_TRANSPORT_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace retsim {
namespace shard {

/** Message tags of the shard protocol. */
namespace tag {
constexpr std::uint32_t kHalo = 1;   ///< ghost-row refresh
constexpr std::uint32_t kJoin = 2;   ///< per-sweep counter fold
constexpr std::uint32_t kGather = 3; ///< label rows + sampler state
} // namespace tag

/**
 * One mesh shared by all rank threads; endpoint(r) is rank r's view
 * of it.
 */
class LoopbackMesh
{
  public:
    class Endpoint
    {
      public:
        int rank() const { return rank_; }

        /** Append one frame to the channel to @p peer; never blocks. */
        void send(int peer, std::uint32_t tag,
                  std::vector<unsigned char> payload);

        /** Block until the next frame from @p peer arrives and return
         *  its payload; the frame's tag must equal @p tag. */
        std::vector<unsigned char> recv(int peer, std::uint32_t tag);

      private:
        friend class LoopbackMesh;
        Endpoint(LoopbackMesh *mesh, int rank)
            : mesh_(mesh), rank_(rank)
        {
        }

        LoopbackMesh *mesh_;
        int rank_;
    };

    explicit LoopbackMesh(int worldSize);
    // Endpoints and rank threads hold the mesh's address.
    LoopbackMesh(const LoopbackMesh &) = delete;
    LoopbackMesh &operator=(const LoopbackMesh &) = delete;

    Endpoint endpoint(int rank);

  private:
    struct Channel
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<std::pair<std::uint32_t,
                             std::vector<unsigned char>>>
            queue;
    };

    Channel &
    channel(int src, int dst)
    {
        return *channels_[static_cast<std::size_t>(src) * worldSize_ +
                          dst];
    }

    int worldSize_;
    std::vector<std::unique_ptr<Channel>> channels_; // [src*N + dst]
};

} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_TRANSPORT_HH
