/**
 * @file
 * Producer-local staging for requests into shared memory fabric.
 *
 * A StagedMemPort sits between each L1's memory side and the shared
 * downstream sink (an L2/L3 lane, the board-memory router). Pushes a
 * core makes during its tick land in a buffer the core owns, and the
 * Processor drains every buffer in core order at the end of the cycle
 * (Processor::commitCrossCore). Cross-core effects thus commit at the
 * cycle boundary, in core order: no core sees a sibling's same-cycle
 * request, whatever its index.
 *
 * Timing-model note: producers observe shared-sink occupancy as of the
 * start of the core phase rather than mid-phase, so under contention a
 * core may stage a request one cycle earlier than it would leave an L1
 * wired straight to the sink. test_golden pins the resulting cycles.
 */

#pragma once

#include <deque>

#include "mem/memtypes.h"

namespace vortex::mem {

/** A MemSink front that defers pushes to the end-of-cycle drain(). */
class StagedMemPort final : public MemSink
{
  public:
    /**
     * @param down  the shared downstream sink (owned elsewhere)
     * @param depth staging capacity cap; sized to the producer's
     *              memory-queue depth so staging never throttles below the
     *              downstream's own acceptance rate
     */
    StagedMemPort(MemSink* down, size_t depth) : down_(down), depth_(depth) {}

    // MemSink (called from the producer during its tick). Shared sinks
    // are only mutated outside the core phase, so every producer reads
    // the same start-of-cycle snapshot through down_->reqReady(). That
    // keeps downstream back-pressure visible to the producer in the same
    // cycle instead of adding a full staging buffer of slack.
    bool
    reqReady() const override
    {
        return staged_.size() < depth_ && down_->reqReady();
    }

    void reqPush(const MemReq& req) override { staged_.push_back(req); }

    /** Commit phase: forward staged requests while the sink accepts.
     *  Leftovers keep back-pressuring the producer via reqReady(). */
    void
    drain()
    {
        while (!staged_.empty() && down_->reqReady()) {
            down_->reqPush(staged_.front());
            staged_.pop_front();
        }
    }

    bool empty() const { return staged_.empty(); }

  private:
    MemSink* down_;
    size_t depth_;
    std::deque<MemReq> staged_;
};

} // namespace vortex::mem
