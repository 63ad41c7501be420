/**
 * @file
 * Banked physical register file with subarray power gating.
 *
 * Warp-wide registers (32 x 4 bytes) are the allocation unit.  Each
 * bank keeps a free bitmap; allocation prefers the lowest free index so
 * active registers consolidate into few subarrays, which is what makes
 * subarray-level power gating effective (paper Section 8.2).
 */
#ifndef RFV_REGFILE_PHYS_REGFILE_H
#define RFV_REGFILE_PHYS_REGFILE_H

#include <array>
#include <vector>

#include "common/error.h"
#include "regfile/config.h"

namespace rfv {

/** Lane values of one warp-wide register. */
using WarpValue = std::array<u32, kWarpSize>;

/** Counters exported to the power model. */
struct PhysRegFileStats {
    std::vector<u64> bankReads;  //!< per-bank warp-wide read accesses
    std::vector<u64> bankWrites; //!< per-bank warp-wide write accesses
    u64 allocations = 0;
    u64 releases = 0;
    u64 wakeEvents = 0;
    /** Sum over sampled cycles of powered-on subarrays. */
    u64 activeSubarrayCycles = 0;
    /** Sampled cycles times total subarrays (for averaging). */
    u64 sampledCycles = 0;
    /**
     * Peak simultaneously-allocated registers.  A high-water mark,
     * not an event count: cross-SM aggregation takes the max (see
     * aggregateResults), unlike the additive counters above.
     */
    u32 allocWatermark = 0;
    /** Distinct physical registers touched at least once. */
    u32 touchedCount = 0;
    /** Allocations that reused a register released by another warp. */
    u64 crossWarpReuse = 0;
    /** Allocations that reused a register this warp itself released. */
    u64 sameWarpReuse = 0;

    bool operator==(const PhysRegFileStats &) const = default;
};

/** The physical register file of one SM. */
class PhysRegFile {
  public:
    explicit PhysRegFile(const RegFileConfig &cfg);

    /** Free every register, zero every value and clear the stats. */
    void reset();

    u32 numRegs() const { return cfg_.physRegs(); }
    u32 regsPerBank() const { return cfg_.regsPerBank(); }
    u32 numBanks() const { return cfg_.numBanks; }

    /** Bank that physical register @p phys lives in. */
    u32 bankOf(u32 phys) const { return bank_[phys]; }

    /**
     * Allocate the lowest free register in @p bank at in-bank index
     * >= @p fromIdx (used to keep dynamic allocations out of the
     * region reserved for renaming-exempt registers).
     * @param owner warp slot receiving the register (cross-warp reuse
     *        accounting; pass kNoOwner to skip).
     * @return physical register id, or kInvalidPhysReg if the bank is
     *         full.  @p wakeCycles receives the subarray wakeup penalty
     *         (0 when the subarray was already on).
     */
    u32 alloc(u32 bank, u32 fromIdx, u32 &wakeCycles,
              u32 owner = kNoOwner);

    /** Sentinel owner for reuse accounting. */
    static constexpr u32 kNoOwner = 0xffffffffu;

    /** Allocate a specific register (reservations). Must be free. */
    void allocAt(u32 phys, u32 &wakeCycles);

    /** True if @p phys is currently allocated. */
    bool
    isAllocated(u32 phys) const
    {
        return !((freeBits_[phys / 64] >> (phys % 64)) & 1);
    }

    /** Free @p phys; optionally poisons the value. */
    void release(u32 phys);

    /** Number of free registers in @p bank. */
    u32 freeInBank(u32 bank) const;

    /** Total free registers. */
    u32 freeTotal() const;

    /** Total allocated registers. */
    u32
    allocatedTotal() const
    {
        return numRegs() - freeTotal();
    }

    /** Lane values of an allocated register. */
    WarpValue &
    values(u32 phys)
    {
        panicIf(!isAllocated(phys), "value access to a free register");
        return values_[phys];
    }
    const WarpValue &
    values(u32 phys) const
    {
        panicIf(!isAllocated(phys), "value access to a free register");
        return values_[phys];
    }

    /** Count a warp-wide read access to @p phys 's bank. */
    void countRead(u32 phys) { ++stats_.bankReads[bankOf(phys)]; }

    /** Count a warp-wide write access to @p phys 's bank. */
    void countWrite(u32 phys) { ++stats_.bankWrites[bankOf(phys)]; }

    /** Integrate power-gating state for one elapsed cycle. */
    void sampleCycle();

    /**
     * Integrate @p n cycles of unchanged state at once (event-driven
     * fast-forward).  Subarray on/off state only changes at alloc and
     * release events, so sampleCycles(n) over a window with no such
     * events is exactly n sampleCycle() calls.
     */
    void sampleCycles(u64 n);

    /**
     * Rollback-only: restore a stats snapshot taken before a
     * speculative alloc sequence (failed CTA launch), so a failed
     * attempt leaves no trace and retrying it every cycle is a no-op.
     */
    void restoreStats(const PhysRegFileStats &s) { stats_ = s; }

    /** Number of currently powered-on subarrays. */
    u32 activeSubarrays() const;

    /** Allocated registers in subarray @p idx (bank-major order). */
    u32
    subarrayCount(u32 idx) const
    {
        return subarrayAllocCount_[idx];
    }

    /** True if subarray @p idx is powered on. */
    bool subarrayPowered(u32 idx) const { return subarrayOn_[idx]; }

    u32 totalSubarrays() const
    {
        return cfg_.numBanks * cfg_.subarraysPerBank;
    }

    const PhysRegFileStats &stats() const { return stats_; }

  private:
    u32 subarrayOf(u32 phys) const { return subarray_[phys]; }
    void onAlloc(u32 phys, u32 &wakeCycles, u32 owner = kNoOwner);

    RegFileConfig cfg_;
    /**
     * Bank and subarray (bank-major) of each physical register, looked
     * up instead of divided out: every operand read and write and
     * every allocation and release asks, and a bank need not hold a
     * power-of-two number of registers.
     */
    std::vector<u32> bank_;
    std::vector<u32> subarray_;
    std::vector<u64> freeBits_;            //!< one bit per phys reg; 1=free
    std::vector<WarpValue> values_;
    std::vector<u32> subarrayAllocCount_;  //!< per (bank,subarray)
    std::vector<bool> subarrayOn_;         //!< powered on?
    u32 activeCount_ = 0;                  //!< # of true subarrayOn_ bits
    u32 freeCount_ = 0;                    //!< # of set freeBits_ bits
    std::vector<bool> touched_;
    std::vector<u32> lastOwner_; //!< last warp slot that held each reg
    PhysRegFileStats stats_;
};

} // namespace rfv

#endif // RFV_REGFILE_PHYS_REGFILE_H
