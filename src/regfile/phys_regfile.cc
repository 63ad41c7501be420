#include "regfile/phys_regfile.h"

#include "common/bit_utils.h"

namespace rfv {

PhysRegFile::PhysRegFile(const RegFileConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    for (u32 b = 0; b < cfg_.numBanks; ++b) {
        for (u32 s = 0; s < cfg_.subarraysPerBank; ++s) {
            bank_.insert(bank_.end(), cfg_.regsPerSubarray(), b);
            subarray_.insert(subarray_.end(), cfg_.regsPerSubarray(),
                             b * cfg_.subarraysPerBank + s);
        }
    }
    reset();
}

void
PhysRegFile::reset()
{
    // assign() on vectors already at size n refills them in place.
    const u32 n = cfg_.physRegs();
    freeBits_.assign(ceilDiv(n, 64), ~0ull);
    // Clear padding bits beyond n.
    if (n % 64)
        freeBits_.back() = lowMask(n % 64);
    values_.assign(n, WarpValue{});
    subarrayAllocCount_.assign(totalSubarrays(), 0);
    // Without power gating every subarray is always on; with gating,
    // empty subarrays start gated.
    subarrayOn_.assign(totalSubarrays(), !cfg_.powerGating);
    activeCount_ = cfg_.powerGating ? 0 : totalSubarrays();
    freeCount_ = n;
    touched_.assign(n, false);
    lastOwner_.assign(n, kNoOwner);
    stats_ = PhysRegFileStats{};
    stats_.bankReads.assign(cfg_.numBanks, 0);
    stats_.bankWrites.assign(cfg_.numBanks, 0);
}

void
PhysRegFile::onAlloc(u32 phys, u32 &wakeCycles, u32 owner)
{
    if (owner != kNoOwner && lastOwner_[phys] != kNoOwner) {
        if (lastOwner_[phys] != owner)
            ++stats_.crossWarpReuse;
        else
            ++stats_.sameWarpReuse;
    }
    if (owner != kNoOwner)
        lastOwner_[phys] = owner;
    freeBits_[phys / 64] &= ~(1ull << (phys % 64));
    --freeCount_;
    const u32 sub = subarrayOf(phys);
    ++subarrayAllocCount_[sub];
    wakeCycles = 0;
    if (!subarrayOn_[sub]) {
        subarrayOn_[sub] = true;
        ++activeCount_;
        ++stats_.wakeEvents;
        wakeCycles = cfg_.wakeupLatency;
    }
    ++stats_.allocations;
    if (!touched_[phys]) {
        touched_[phys] = true;
        ++stats_.touchedCount;
    }
    stats_.allocWatermark = std::max(stats_.allocWatermark,
                                     allocatedTotal());
}

u32
PhysRegFile::alloc(u32 bank, u32 fromIdx, u32 &wakeCycles, u32 owner)
{
    panicIf(bank >= cfg_.numBanks, "bank out of range");
    const u32 per_bank = cfg_.regsPerBank();
    const u32 base = bank * per_bank;
    const u32 floor = base + std::min(fromIdx, per_bank);
    const u32 end = base + per_bank; // exclusive
    // Scan the 64-bit words overlapping [floor, end) for the lowest
    // free bit inside the range.
    for (u32 word = floor / 64; word * 64 < end; ++word) {
        const u32 word_lo = word * 64;
        const u32 range_lo = std::max(floor, word_lo);
        const u32 range_hi = std::min(end, word_lo + 64);
        if (range_lo >= range_hi)
            continue;
        u64 bits = freeBits_[word];
        if (range_lo > word_lo)
            bits &= ~lowMask(range_lo - word_lo);
        if (range_hi < word_lo + 64)
            bits &= lowMask(range_hi - word_lo);
        if (!bits)
            continue;
        const u32 phys = word_lo + findFirstSet(bits);
        onAlloc(phys, wakeCycles, owner);
        return phys;
    }
    return kInvalidPhysReg;
}

void
PhysRegFile::allocAt(u32 phys, u32 &wakeCycles)
{
    panicIf(phys >= numRegs(), "physical register out of range");
    panicIf(isAllocated(phys), "allocAt on an allocated register");
    onAlloc(phys, wakeCycles);
}

void
PhysRegFile::release(u32 phys)
{
    panicIf(!isAllocated(phys), "release of a free register");
    freeBits_[phys / 64] |= 1ull << (phys % 64);
    ++freeCount_;
    const u32 sub = subarrayOf(phys);
    panicIf(subarrayAllocCount_[sub] == 0, "subarray count underflow");
    if (--subarrayAllocCount_[sub] == 0 && cfg_.powerGating) {
        subarrayOn_[sub] = false;
        --activeCount_;
    }
    if (cfg_.poisonOnRelease)
        values_[phys].fill(0xdeadbeefu);
    ++stats_.releases;
}

u32
PhysRegFile::freeInBank(u32 bank) const
{
    const u32 per_bank = cfg_.regsPerBank();
    const u32 base = bank * per_bank;
    const u32 end = base + per_bank;
    u32 count = 0;
    for (u32 word = base / 64; word * 64 < end; ++word) {
        const u32 word_lo = word * 64;
        const u32 range_lo = std::max(base, word_lo);
        const u32 range_hi = std::min(end, word_lo + 64);
        u64 bits = freeBits_[word];
        if (range_lo > word_lo)
            bits &= ~lowMask(range_lo - word_lo);
        if (range_hi < word_lo + 64)
            bits &= lowMask(range_hi - word_lo);
        count += popcount64(bits);
    }
    return count;
}

u32
PhysRegFile::freeTotal() const
{
    // Maintained incrementally in onAlloc()/release(): the SM's
    // throttle evaluation reads this every cycle, so the bitmap
    // popcount scan (see freeInBank) would sit on the hot path.
    return freeCount_;
}

u32
PhysRegFile::activeSubarrays() const
{
    // Maintained incrementally on the gating transitions in onAlloc()
    // and release(): sampleCycle() reads this every simulated cycle,
    // so a scan over subarrayOn_ would sit on the hot path.
    return activeCount_;
}

void
PhysRegFile::sampleCycle()
{
    stats_.activeSubarrayCycles += activeSubarrays();
    stats_.sampledCycles += 1;
}

void
PhysRegFile::sampleCycles(u64 n)
{
    stats_.activeSubarrayCycles +=
        static_cast<u64>(activeSubarrays()) * n;
    stats_.sampledCycles += n;
}

} // namespace rfv
