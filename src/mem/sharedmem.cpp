/**
 * @file
 * Shared-memory scratchpad implementation.
 */

#include "mem/sharedmem.h"

#include <algorithm>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::mem {

SharedMem::SharedMem(const SharedMemConfig& config)
    : config_(config), pipe_(config.latency), bankBusy_(config.numBanks, 0)
{
    if (!isPow2(config.numBanks))
        fatal("SharedMem: numBanks must be a power of two");
    lanes_.reserve(config.numLanes);
    for (uint32_t l = 0; l < config.numLanes; ++l)
        lanes_.emplace_back(config.laneQueueDepth, "sharedmem.lane");
}

void
SharedMem::lanePush(uint32_t lane, const CoreReq& req)
{
    lanes_.at(lane).push(req);
    ++pendingLaneReqs_;
    ctrs_.add(req.write ? Ctr::Writes : Ctr::Reads);
}

void
SharedMem::tick(Cycle now)
{
    // Emit matured responses.
    while (auto rsp = pipe_.dequeueReady(now)) {
        if (rspCallback_)
            rspCallback_(*rsp);
    }

    // Arbitrate: each bank services at most one lane per cycle. Skip
    // the lane scan entirely on the (common) cycles with nothing queued.
    if (pendingLaneReqs_ == 0)
        return;
    std::fill(bankBusy_.begin(), bankBusy_.end(), 0);
    for (auto& lane : lanes_) {
        if (lane.empty())
            continue;
        const CoreReq& req = lane.front();
        uint32_t b = bankOf(req.addr);
        ctrs_.add(Ctr::Candidates);
        if (bankBusy_[b]) {
            ctrs_.add(Ctr::BankConflicts);
            continue;
        }
        bankBusy_[b] = 1;
        pipe_.enqueue(CoreRsp{req.reqId, req.lane, req.write, req.tag}, now);
        ctrs_.add(Ctr::Accesses);
        lane.pop();
        --pendingLaneReqs_;
    }
}

bool
SharedMem::idle() const
{
    if (!pipe_.empty())
        return false;
    for (const auto& lane : lanes_) {
        if (!lane.empty())
            return false;
    }
    return true;
}

} // namespace vortex::mem
