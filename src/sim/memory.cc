#include "sim/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

namespace rfv {

namespace {

/**
 * Images at least this large are anonymous mappings.  malloc would
 * serve them from a recycled arena once a larger image has been freed
 * (glibc raises its mmap threshold to the largest freed mapping), and
 * calloc must then zero every byte; a fresh mapping is zeroed lazily.
 * Smaller images (generated kernels) are mostly touched by setup, so
 * calloc's recycled memory beats a page fault per page.
 */
constexpr std::size_t kMapBytes = std::size_t{1} << 20;

} // namespace

GlobalMemory::GlobalMemory(u32 bytes)
    : numWords_(bytes / 4), words_(nullptr, Release{bytes})
{
    fatalIf(bytes % 4 != 0, "global memory size must be word aligned");
    void *p = nullptr;
    if (bytes >= kMapBytes) {
        p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
    } else {
        p = std::calloc(std::max<std::size_t>(bytes, 4), 1);
        if (p == nullptr)
            throw std::bad_alloc();
    }
    words_.reset(static_cast<u32 *>(p));
}

void
GlobalMemory::Release::operator()(u32 *words) const
{
    if (bytes >= kMapBytes)
        munmap(words, bytes);
    else
        std::free(words);
}

void
GlobalMemory::badAccess(u32 byte_addr, const char *what) const
{
    if (byte_addr % 4 != 0)
        panic(std::string("unaligned global ") + what);
    panic(std::string("global ") + what + " out of bounds at byte " +
          std::to_string(byte_addr));
}

void
GlobalMemory::wordOutOfRange(u32 index) const
{
    throw std::out_of_range("global memory word " + std::to_string(index) +
                            " out of range (" + std::to_string(numWords_) +
                            " words)");
}

u32
coalescedTransactions(const std::vector<u32> &byte_addrs)
{
    std::vector<u32> scratch;
    return coalescedTransactions(byte_addrs, scratch);
}

u32
coalescedTransactions(const std::vector<u32> &byte_addrs,
                      std::vector<u32> &scratch)
{
    if (byte_addrs.empty())
        return 0;
    // Coalesced accesses (lane addresses that never step back to an
    // earlier segment) count segment changes in one pass; any other
    // order falls back to sort + unique.
    u32 count = 1;
    u32 prev = byte_addrs[0] / 128;
    for (std::size_t i = 1; i < byte_addrs.size(); ++i) {
        const u32 seg = byte_addrs[i] / 128;
        if (seg < prev) {
            scratch.clear();
            for (u32 a : byte_addrs)
                scratch.push_back(a / 128);
            std::sort(scratch.begin(), scratch.end());
            return static_cast<u32>(
                std::unique(scratch.begin(), scratch.end()) -
                scratch.begin());
        }
        count += seg != prev;
        prev = seg;
    }
    return count;
}

} // namespace rfv
