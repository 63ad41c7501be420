#include "sim/icache.h"

#include <bit>

#include "common/error.h"

namespace rfv {

ICache::ICache(u32 total_instrs, u32 line_instrs)
{
    panicIf(!std::has_single_bit(line_instrs) ||
                (total_instrs & (total_instrs - 1)) != 0,
            "icache geometry must be powers of two");
    lineShift_ = static_cast<u32>(std::countr_zero(line_instrs));
    numLines_ = total_instrs >> lineShift_;
    reset();
}

void
ICache::reset()
{
    tags_.assign(numLines_, kInvalidPc);
}

} // namespace rfv
