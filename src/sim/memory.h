/**
 * @file
 * Functional global memory and a bandwidth/latency DRAM timing model.
 */
#ifndef RFV_SIM_MEMORY_H
#define RFV_SIM_MEMORY_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace rfv {

/**
 * Flat, word-granular global memory shared by the whole GPU.
 * Addresses are byte addresses and must be 4-byte aligned.
 *
 * SMs step one after another within a cycle, so a plain load/store
 * sees every earlier SM's writes of that cycle.  Atomics are the
 * exception: the GPU commits them at the end of the cycle in SM-id
 * order (see Sm::commitAtomics), the one modeled order for cross-CTA
 * communication.
 */
class GlobalMemory {
  public:
    /**
     * A zeroed image of @p bytes.  Large images are mapped from the
     * kernel, which zeroes each page on first touch: a scaled grid
     * touches a fraction of an image sized for the full problem, and
     * the untouched pages cost neither a memset nor resident memory.
     */
    explicit GlobalMemory(u32 bytes);

    u32 sizeBytes() const { return numWords_ * 4; }

    u32
    load(u32 byteAddr) const
    {
        return words_.get()[wordIndex(byteAddr, "load")];
    }
    void
    store(u32 byteAddr, u32 value)
    {
        words_.get()[wordIndex(byteAddr, "store")] = value;
    }

    /**
     * Convenience word accessors for workload setup/verification;
     * throw std::out_of_range past the end, as vector::at() does.
     */
    u32 word(u32 index) const { return words_.get()[checkedWord(index)]; }
    void
    setWord(u32 index, u32 value)
    {
        words_.get()[checkedWord(index)] = value;
    }

  private:
    u32
    wordIndex(u32 byteAddr, const char *what) const
    {
        const u32 w = byteAddr / 4;
        if (byteAddr % 4 != 0 || w >= numWords_) [[unlikely]]
            badAccess(byteAddr, what);
        return w;
    }
    u32
    checkedWord(u32 index) const
    {
        if (index >= numWords_) [[unlikely]]
            wordOutOfRange(index);
        return index;
    }
    // Cold paths: the message building stays out of load/store, so
    // they inline into the SM's lane loops.
    [[noreturn]] void badAccess(u32 byteAddr, const char *what) const;
    [[noreturn]] void wordOutOfRange(u32 index) const;

    /** Returns the image to where the constructor took it from. */
    struct Release {
        std::size_t bytes;
        void operator()(u32 *words) const;
    };

    u32 numWords_;
    std::unique_ptr<u32, Release> words_;
};

/** DRAM statistics. */
struct DramStats {
    u64 requests = 0;     //!< warp-level memory operations
    u64 transactions = 0; //!< 128-byte segments transferred
    u64 queueCycles = 0;  //!< total cycles requests waited for service

    bool operator==(const DramStats &) const = default;

    /** Accumulate another channel's counters (all additive). */
    DramStats &
    operator+=(const DramStats &o)
    {
        requests += o.requests;
        transactions += o.transactions;
        queueCycles += o.queueCycles;
        return *this;
    }
};

/**
 * One DRAM channel: a single service pipe with fixed per-128B
 * transaction occupancy and a base access latency.  Contention
 * appears as queueing delay — which is what lets CTA throttling
 * *improve* memory-bound kernels (paper's MUM observation, Fig. 11a).
 *
 * The Gpu shards DRAM one channel per SM so SMs never share mutable
 * timing state.  Each channel's service interval is scaled by the SM
 * count, so aggregate bandwidth is fixed and every SM owns a fair
 * share of it.  Channel stats are summed into SimResult::dram by
 * aggregateResults().
 */
class DramModel {
  public:
    DramModel(u32 baseLatency, u32 cyclesPerTransaction)
        : baseLatency_(baseLatency),
          cyclesPerTransaction_(cyclesPerTransaction)
    {
    }

    /**
     * Issue a request of @p transactions segments at @p now.
     * @return completion cycle.
     */
    Cycle
    access(Cycle now, u32 transactions)
    {
        const Cycle start = std::max(now, nextFree_);
        nextFree_ = start + static_cast<Cycle>(transactions) *
                                cyclesPerTransaction_;
        ++stats_.requests;
        stats_.transactions += transactions;
        stats_.queueCycles += start - now;
        return nextFree_ + baseLatency_;
    }

    const DramStats &stats() const { return stats_; }

  private:
    u32 baseLatency_;
    u32 cyclesPerTransaction_;
    Cycle nextFree_ = 0;
    DramStats stats_;
};

/** Count distinct 128-byte segments touched by a set of addresses. */
u32 coalescedTransactions(const std::vector<u32> &byteAddrs);

/**
 * Allocation-free variant for per-cycle hot paths: dedupes segment ids
 * in @p scratch (clobbered; capacity reused across calls so the cost
 * is one reserve per Sm, not one allocation per memory instruction).
 */
u32 coalescedTransactions(const std::vector<u32> &byteAddrs,
                          std::vector<u32> &scratch);

} // namespace rfv

#endif // RFV_SIM_MEMORY_H
