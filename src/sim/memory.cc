#include "sim/memory.h"

#include <algorithm>

namespace rfv {

GlobalMemory::GlobalMemory(u32 bytes)
{
    fatalIf(bytes % 4 != 0, "global memory size must be word aligned");
    words_.assign(bytes / 4, 0);
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
    scratch.clear();
    scratch.reserve(byte_addrs.size());
    for (u32 a : byte_addrs)
        scratch.push_back(a / 128);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    return static_cast<u32>(scratch.size());
}

} // namespace rfv
