#include "sim/sharded_engine.h"

#include <algorithm>
#include <barrier>
#include <thread>

#include "common/logging.h"

namespace pc {

ShardedEngine::ShardedEngine(int shards, SimTime lookahead)
    : lookahead_(lookahead)
{
    if (shards < 1)
        fatal("sharded engine needs at least one shard (got %d)",
              shards);
    if (lookahead <= SimTime::zero())
        fatal("sharded engine lookahead must be positive — it is the "
              "minimum cross-shard latency");
    sims_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i)
        sims_.push_back(std::make_unique<Simulator>());
    mailboxes_.resize(static_cast<std::size_t>(shards) *
                      static_cast<std::size_t>(shards));
}

void
ShardedEngine::post(int from, int to, SimTime at, Simulator::Callback fn)
{
    if (from < 0 || from >= numShards() || to < 0 || to >= numShards())
        fatal("post(%d -> %d) outside [0, %d)", from, to, numShards());
    if (from == to) {
        sims_[static_cast<std::size_t>(to)]->scheduleAt(at,
                                                        std::move(fn));
        return;
    }
    if (!running_)
        fatal("cross-shard post outside run(): setup must stay "
              "shard-local");
    // The conservative contract: the destination may already have
    // executed past any earlier instant. A delivery latency >= the
    // engine lookahead satisfies this by construction.
    if (at < windowEnd_)
        fatal("cross-shard post at %s violates the lookahead window "
              "ending at %s",
              at.toString().c_str(), windowEnd_.toString().c_str());
    Mailbox &box = mailbox(from, to);
    box.entries.push_back(MailboxEntry{at, std::move(fn)});
    ++box.posted;
}

std::uint64_t
ShardedEngine::crossShardEvents() const
{
    std::uint64_t total = 0;
    for (const Mailbox &box : mailboxes_)
        total += box.posted;
    return total;
}

void
ShardedEngine::run(SimTime deadline, int workers)
{
    if (deadline <= now_)
        return;
    const int shards = numShards();
    if (shards == 1) {
        // Nothing can post across shards, so there is no window to
        // synchronize: one shard is a plain simulator run.
        sims_.front()->runUntil(deadline);
        now_ = deadline;
        return;
    }
    workers = std::clamp(workers, 1, shards);

    deadline_ = deadline;
    windowEnd_ = std::min(now_ + lookahead_, deadline_);
    done_ = false;
    running_ = true;

    // Advancing the window runs exclusively in the drain barrier's
    // completion step; arrive_and_wait() publishes it to every worker.
    auto advance = [this]() noexcept {
        now_ = windowEnd_;
        if (now_ >= deadline_)
            done_ = true;
        else
            windowEnd_ = std::min(now_ + lookahead_, deadline_);
    };
    std::barrier<> execBarrier(workers);
    std::barrier<decltype(advance)> drainBarrier(workers,
                                                 std::move(advance));

    auto workerLoop = [&](int w) {
        while (true) {
            // Phase 1: execute the window on every owned shard. Only
            // this worker touches those simulators, and only it
            // appends to their outgoing mailboxes.
            const SimTime we = windowEnd_;
            for (int s = w; s < shards; s += workers)
                sims_[static_cast<std::size_t>(s)]->runUntil(we);
            execBarrier.arrive_and_wait();
            // Phase 2: drain the mailbox column of every owned shard,
            // ascending src order — a fixed order, so the destination
            // heap's tie-breaking sequence numbers are deterministic.
            for (int d = w; d < shards; d += workers) {
                Simulator &dst = *sims_[static_cast<std::size_t>(d)];
                for (int s = 0; s < shards; ++s) {
                    Mailbox &box = mailbox(s, d);
                    for (MailboxEntry &entry : box.entries)
                        dst.scheduleAt(entry.at, std::move(entry.fn));
                    box.entries.clear();
                }
            }
            drainBarrier.arrive_and_wait();
            if (done_)
                return;
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(workerLoop, w);
    workerLoop(0);
    for (std::thread &t : threads)
        t.join();
    running_ = false;
}

} // namespace pc
