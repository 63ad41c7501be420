/**
 * @file
 * Per-SM instruction cache model.
 *
 * A direct-mapped line cache over the instruction stream.  Metadata
 * instructions occupy lines like regular instructions, so the static
 * code growth from pir/pbr insertion (paper Fig. 13) costs real fetch
 * misses when the kernel outgrows the cache.  Misses block the fetching
 * warp for a fixed refill latency.
 */
#ifndef RFV_SIM_ICACHE_H
#define RFV_SIM_ICACHE_H

#include <vector>

#include "common/types.h"

namespace rfv {

/** Hit/miss counters. */
struct ICacheStats {
    u64 hits = 0;
    u64 misses = 0;
};

/** Direct-mapped instruction cache indexed by instruction pc. */
class ICache {
  public:
    /**
     * @param totalInstrs  capacity in instructions (0 disables: every
     *                     access hits); a power of two
     * @param lineInstrs   instructions per line (64-bit words; a 64 B
     *                     line holds 8); a power of two
     *
     * Power-of-two geometry (GpuConfig::validate rejects anything
     * else) turns the per-fetch line and set computations into a
     * shift and a mask.
     */
    ICache(u32 totalInstrs, u32 lineInstrs);

    /**
     * Probe for the line containing @p pc; fills the line on a miss.
     * @return true on hit.
     */
    bool
    access(u32 pc)
    {
        if (numLines_ == 0) {
            ++stats_.hits; // disabled: ideal instruction supply
            return true;
        }
        const u32 line = pc >> lineShift_;
        const u32 idx = line & (numLines_ - 1);
        if (tags_[idx] == line) {
            ++stats_.hits;
            return true;
        }
        tags_[idx] = line;
        ++stats_.misses;
        return false;
    }

    /** Drop all lines (kernel switch). */
    void reset();

    const ICacheStats &stats() const { return stats_; }

  private:
    u32 numLines_;
    u32 lineShift_; //!< log2(instructions per line)
    std::vector<u32> tags_; //!< resident line address, kInvalidPc empty
    ICacheStats stats_;
};

} // namespace rfv

#endif // RFV_SIM_ICACHE_H
