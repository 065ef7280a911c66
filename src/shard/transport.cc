#include "shard/transport.hh"

#include "util/logging.hh"

namespace retsim {
namespace shard {

LoopbackMesh::LoopbackMesh(int worldSize) : worldSize_(worldSize)
{
    RETSIM_ASSERT(worldSize >= 1, "loopback: bad world size");
    channels_.resize(static_cast<std::size_t>(worldSize) * worldSize);
    for (auto &c : channels_)
        c = std::make_unique<Channel>();
}

LoopbackMesh::Endpoint
LoopbackMesh::endpoint(int rank)
{
    RETSIM_ASSERT(rank >= 0 && rank < worldSize_,
                  "loopback: bad rank");
    return Endpoint(this, rank);
}

void
LoopbackMesh::Endpoint::send(int peer, std::uint32_t tag,
                             std::vector<unsigned char> payload)
{
    Channel &ch = mesh_->channel(rank_, peer);
    {
        std::lock_guard<std::mutex> lock(ch.mutex);
        ch.queue.emplace_back(tag, std::move(payload));
    }
    ch.cv.notify_one();
}

std::vector<unsigned char>
LoopbackMesh::Endpoint::recv(int peer, std::uint32_t tag)
{
    Channel &ch = mesh_->channel(peer, rank_);
    std::unique_lock<std::mutex> lock(ch.mutex);
    ch.cv.wait(lock, [&ch] { return !ch.queue.empty(); });
    auto front = std::move(ch.queue.front());
    ch.queue.pop_front();
    RETSIM_ASSERT(front.first == tag, "loopback: rank ", rank_,
                  " expected tag ", tag, " from rank ", peer, ", got ",
                  front.first);
    return std::move(front.second);
}

} // namespace shard
} // namespace retsim
