#include "analysis/verifier.h"

#include <algorithm>
#include <sstream>

#include "common/bit_utils.h"
#include "compiler/cfg.h"
#include "compiler/dominators.h"
#include "isa/metadata.h"

namespace rfv {

const char *
verifyKindName(VerifyKind kind)
{
    switch (kind) {
      case VerifyKind::kUseAfterRelease:   return "use-after-release";
      case VerifyKind::kReleaseOfDef:      return "release-of-def";
      case VerifyKind::kSimtUnsafeRelease: return "simt-unsafe-release";
      case VerifyKind::kLoopUnsafeRelease: return "loop-unsafe-release";
      case VerifyKind::kDoubleRelease:     return "double-release";
      case VerifyKind::kVacuousRelease:    return "vacuous-release";
      case VerifyKind::kLeakedRegister:    return "leaked-register";
      case VerifyKind::kExemptRelease:     return "exempt-release";
      case VerifyKind::kBadEncoding:       return "bad-encoding";
      case VerifyKind::kBadMetadata:       return "bad-metadata";
    }
    return "unknown";
}

u64
VerifyDiag::key() const
{
    return (static_cast<u64>(kind) << 56) |
           (static_cast<u64>(reg & 0xff) << 48) | pc;
}

std::string
VerifyDiag::str() const
{
    std::ostringstream os;
    os << (severity == VerifySeverity::kError ? "error" : "warning") << '['
       << verifyKindName(kind) << ']';
    if (pc != kInvalidPc)
        os << " pc " << pc;
    if (reg != kInvalidPc)
        os << " r" << reg;
    os << ": " << message;
    return os.str();
}

std::string
VerifyResult::str() const
{
    std::string out;
    for (const auto &d : diags) {
        out += d.str();
        out += '\n';
    }
    return out;
}

std::string
VerifyResult::errorSummary() const
{
    std::string out;
    for (const auto &d : diags) {
        if (d.severity == VerifySeverity::kError) {
            out += d.str();
            out += '\n';
        }
    }
    out += std::to_string(numWarnings) + " warning(s)";
    return out;
}

namespace {

/** One release event: register @p reg is freed at program point @p pc. */
struct RelEvent {
    u32 pc;
    u32 reg;
    bool fromPbr; //!< release fires at the metadata point, not after a read
};

/**
 * The verifier's own dataflow state.  Everything here is re-derived
 * from the raw instruction stream; none of the compiler's analysis
 * results are consulted.
 */
struct Verify {
    const Program &prog;
    Cfg cfg;
    std::vector<i32> idom;
    std::vector<i32> ipdom;

    // Instruction-level liveness (registers only, u64 bit sets).
    std::vector<u64> liveBefore;
    std::vector<u64> liveAfter;

    // Release events, in program order, plus a per-pc release bit set.
    std::vector<RelEvent> events;
    std::vector<u64> relBits;

    std::vector<VerifyDiag> diags;

    explicit Verify(const Program &p)
        : prog(p), cfg(p, /*allowMetadata=*/true),
          idom(immediateDominators(cfg)),
          ipdom(immediatePostDominators(cfg))
    {
    }

    void
    diag(VerifyKind kind, VerifySeverity sev, u32 pc, u32 reg,
         std::string msg)
    {
        diags.push_back({kind, sev, pc, reg, std::move(msg)});
    }

    void
    error(VerifyKind kind, u32 pc, u32 reg, std::string msg)
    {
        diag(kind, VerifySeverity::kError, pc, reg, std::move(msg));
    }

    void
    warn(VerifyKind kind, u32 pc, u32 reg, std::string msg)
    {
        diag(kind, VerifySeverity::kWarning, pc, reg, std::move(msg));
    }

    // --- Independent use/def model --------------------------------------

    /**
     * Registers consumed by @p ins.  Besides the explicit sources, a
     * guarded destination consumes its own old value: lanes whose guard
     * is false must still observe it after the instruction, so for a
     * warp-wide register file the old value cannot be dead.
     */
    static u64
    vUse(const Instr &ins)
    {
        if (isMeta(ins.op))
            return 0;
        u64 m = 0;
        for (const auto &s : ins.src)
            if (s.isReg())
                m |= 1ull << s.value;
        if (ins.dst != kNoReg && ins.guardPred != kNoPred)
            m |= 1ull << static_cast<u32>(ins.dst);
        return m;
    }

    /** Registers (fully or partially) written by @p ins. */
    static u64
    vDef(const Instr &ins)
    {
        if (isMeta(ins.op) || ins.dst == kNoReg)
            return 0;
        return 1ull << static_cast<u32>(ins.dst);
    }

    // --- Liveness --------------------------------------------------------

    void
    computeLiveSets()
    {
        const u32 nb = cfg.numBlocks();
        const u32 n = static_cast<u32>(prog.code.size());

        // Upward-exposed uses / defs per block.
        std::vector<u64> ueUse(nb, 0), defs(nb, 0);
        for (const auto &bb : cfg.blocks()) {
            u64 ue = 0, d = 0;
            for (u32 pc = bb.first; pc <= bb.last; ++pc) {
                const Instr &ins = prog.code[pc];
                ue |= vUse(ins) & ~d;
                d |= vDef(ins);
            }
            ueUse[bb.id] = ue;
            defs[bb.id] = d;
        }

        // Backward worklist fixpoint.
        std::vector<u64> blockIn(nb, 0), blockOut(nb, 0);
        std::vector<bool> queued(nb, true);
        std::vector<u32> work(nb);
        for (u32 i = 0; i < nb; ++i)
            work[i] = nb - 1 - i; // reverse layout order first
        while (!work.empty()) {
            const u32 b = work.back();
            work.pop_back();
            queued[b] = false;
            u64 out = 0;
            for (u32 s : cfg.block(b).succs)
                out |= blockIn[s];
            const u64 in = ueUse[b] | (out & ~defs[b]);
            blockOut[b] = out;
            if (in == blockIn[b])
                continue;
            blockIn[b] = in;
            for (u32 p : cfg.block(b).preds) {
                if (!queued[p]) {
                    queued[p] = true;
                    work.push_back(p);
                }
            }
        }

        // Per-instruction sweep.
        liveBefore.assign(n, 0);
        liveAfter.assign(n, 0);
        for (const auto &bb : cfg.blocks()) {
            u64 cur = blockOut[bb.id];
            for (u32 pc = bb.last + 1; pc-- > bb.first;) {
                const Instr &ins = prog.code[pc];
                liveAfter[pc] = cur;
                cur = (cur & ~vDef(ins)) | vUse(ins);
                liveBefore[pc] = cur;
            }
        }
    }

    // --- Structural / encoding checks and event extraction ----------------

    void
    checkStructureAndCollectEvents()
    {
        const u32 n = static_cast<u32>(prog.code.size());
        relBits.assign(n, 0);

        bool anyMeta = false;
        for (const auto &ins : prog.code)
            anyMeta |= isMeta(ins.op) || ins.pirMask != 0;
        if (anyMeta && !prog.hasReleaseMetadata) {
            error(VerifyKind::kBadMetadata, 0, kInvalidPc,
                  "program carries release flags but is not marked as "
                  "having release metadata");
        }

        for (const auto &bb : cfg.blocks()) {
            // Walk the block tracking which pir covers each regular
            // instruction; the payload must agree with the authoritative
            // pirMask flags (the simulator releases from pirMask, so any
            // disagreement means fetch/decode and retire see different
            // release schedules).
            bool havePir = false;
            u32 pirPc = 0;
            std::array<u8, kPirSlots> slots{};
            u32 slot = 0;

            auto flushPir = [&]() {
                if (!havePir)
                    return;
                for (u32 i = slot; i < kPirSlots; ++i) {
                    if (slots[i] != 0) {
                        error(VerifyKind::kBadMetadata, pirPc, kInvalidPc,
                              "pir slot " + std::to_string(i) +
                                  " covers no instruction");
                        break;
                    }
                }
                havePir = false;
            };

            for (u32 pc = bb.first; pc <= bb.last; ++pc) {
                const Instr &ins = prog.code[pc];
                if (ins.op == Opcode::kPir) {
                    flushPir();
                    if (ins.metaPayload >> 54) {
                        error(VerifyKind::kBadEncoding, pc, kInvalidPc,
                              "pir payload wider than 54 bits");
                    }
                    havePir = true;
                    pirPc = pc;
                    slots = decodePir(ins.metaPayload);
                    slot = 0;
                    continue;
                }
                if (ins.op == Opcode::kPbr) {
                    flushPir();
                    checkPbr(pc, ins);
                    continue;
                }

                const u8 expected =
                    havePir && slot < kPirSlots ? slots[slot] : 0;
                if (havePir && slot < kPirSlots)
                    ++slot;
                if (ins.pirMask != expected) {
                    error(VerifyKind::kBadMetadata, pc, kInvalidPc,
                          "instruction release flags disagree with the "
                          "covering pir payload");
                }
                for (u32 b = 0; b < 3; ++b) {
                    if (((ins.pirMask >> b) & 1) == 0)
                        continue;
                    if (!ins.src[b].isReg()) {
                        error(VerifyKind::kBadMetadata, pc, kInvalidPc,
                              "pir release bit " + std::to_string(b) +
                                  " set on a non-register operand");
                        continue;
                    }
                    const u32 r = ins.src[b].value;
                    if (r >= prog.numRegs) {
                        error(VerifyKind::kBadEncoding, pc, r,
                              "release of out-of-range register");
                        continue;
                    }
                    events.push_back({pc, r, /*fromPbr=*/false});
                    relBits[pc] |= 1ull << r;
                }
            }
            flushPir();
        }
    }

    void
    checkPbr(u32 pc, const Instr &ins)
    {
        if (ins.metaPayload >> 54) {
            error(VerifyKind::kBadEncoding, pc, kInvalidPc,
                  "pbr payload wider than 54 bits");
        }
        const std::vector<u32> regs = decodePbr(ins.metaPayload);
        // Canonical form: used slots packed first, empties after.  A
        // hole in the middle means a flag bit got lost in transit.
        if (encodePbr(regs) != (ins.metaPayload & lowMask(54))) {
            error(VerifyKind::kBadEncoding, pc, kInvalidPc,
                  "pbr payload is not in canonical packed form");
        }
        std::vector<u32> sorted = regs;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end()) {
            error(VerifyKind::kBadEncoding, pc, kInvalidPc,
                  "pbr payload releases the same register twice");
        }
        for (u32 r : regs) {
            if (r >= prog.numRegs) {
                error(VerifyKind::kBadEncoding, pc, r,
                      "release of out-of-range register");
                continue;
            }
            events.push_back({pc, r, /*fromPbr=*/true});
            relBits[pc] |= 1ull << r;
        }
    }

    // --- Divergence regions and loops (independent re-derivation) ---------

    /** Per-block set of registers unsafe to release due to loops. */
    std::vector<u64>
    computeLoopUnsafe(const std::vector<u64> &blockLiveIn)
    {
        const u32 nb = cfg.numBlocks();
        std::vector<u64> unsafe(nb, 0);
        for (const auto &bb : cfg.blocks()) {
            for (u32 succ : bb.succs) {
                if (!Cfg::isBackedge(bb.id, succ, idom))
                    continue;
                // Natural loop of the backedge: header plus everything
                // that reaches the latch without leaving through the
                // header.
                std::vector<bool> inLoop(nb, false);
                inLoop[succ] = true;
                std::vector<u32> work;
                if (!inLoop[bb.id]) {
                    inLoop[bb.id] = true;
                    work.push_back(bb.id);
                }
                while (!work.empty()) {
                    const u32 node = work.back();
                    work.pop_back();
                    for (u32 p : cfg.block(node).preds) {
                        if (!inLoop[p]) {
                            inLoop[p] = true;
                            work.push_back(p);
                        }
                    }
                }
                // Lanes that exit a divergent loop early keep their last
                // value in the warp-wide register; anything live at an
                // exit must survive every in-loop point.
                u64 liveAtExit = 0;
                for (u32 b = 0; b < nb; ++b) {
                    if (!inLoop[b])
                        continue;
                    for (u32 s : cfg.block(b).succs)
                        if (!inLoop[s])
                            liveAtExit |= blockLiveIn[s];
                }
                for (u32 b = 0; b < nb; ++b)
                    if (inLoop[b])
                        unsafe[b] |= liveAtExit;
            }
        }
        return unsafe;
    }

    struct Region {
        i32 reconvBlock;
        std::vector<u32> succs;
        u64 succLiveIn[2] = {0, 0};
        std::vector<bool> sideContains[2];
    };

    /**
     * Forward divergent regions: every conditional non-backedge branch
     * with two distinct successors opens one; a side is the blocks
     * reachable from that successor without crossing the branch's
     * immediate post-dominator.
     */
    std::vector<Region>
    collectRegions(const std::vector<u64> &blockLiveIn,
                   std::vector<std::vector<u32>> &enclosing)
    {
        const u32 nb = cfg.numBlocks();
        std::vector<Region> regions;
        enclosing.assign(nb, {});
        for (const auto &bb : cfg.blocks()) {
            const Instr &tail = prog.code[bb.last];
            if (tail.op != Opcode::kBra || tail.guardPred == kNoPred)
                continue;
            if (bb.succs.size() < 2)
                continue;
            bool backedge = false;
            for (u32 s : bb.succs)
                if (Cfg::isBackedge(bb.id, s, idom))
                    backedge = true;
            if (backedge)
                continue;

            Region region;
            region.reconvBlock = ipdom[bb.id];
            region.succs = bb.succs;
            for (u32 i = 0; i < bb.succs.size() && i < 2; ++i) {
                region.succLiveIn[i] = blockLiveIn[bb.succs[i]];
                region.sideContains[i].assign(nb, false);
                markSide(bb.succs[i], region.reconvBlock,
                         region.sideContains[i]);
            }
            const u32 ridx = static_cast<u32>(regions.size());
            for (u32 b = 0; b < nb; ++b) {
                for (u32 i = 0; i < 2; ++i) {
                    if (i < region.succs.size() &&
                        region.sideContains[i][b]) {
                        enclosing[b].push_back(ridx);
                        break;
                    }
                }
            }
            regions.push_back(std::move(region));
        }
        return regions;
    }

    void
    markSide(u32 from, i32 stop, std::vector<bool> &seen)
    {
        if (stop >= 0 && from == static_cast<u32>(stop))
            return;
        seen[from] = true;
        std::vector<u32> work = {from};
        while (!work.empty()) {
            const u32 b = work.back();
            work.pop_back();
            for (u32 s : cfg.block(b).succs) {
                if (stop >= 0 && s == static_cast<u32>(stop))
                    continue;
                if (!seen[s]) {
                    seen[s] = true;
                    work.push_back(s);
                }
            }
        }
    }

    // --- Semantic checks over release events -------------------------------

    void
    checkEvents()
    {
        const u32 nb = cfg.numBlocks();
        std::vector<u64> blockLiveIn(nb, 0);
        for (const auto &bb : cfg.blocks())
            blockLiveIn[bb.id] = liveBefore[bb.first];

        const std::vector<u64> loopUnsafe = computeLoopUnsafe(blockLiveIn);
        std::vector<std::vector<u32>> enclosing;
        const std::vector<Region> regions =
            collectRegions(blockLiveIn, enclosing);

        for (const auto &ev : events) {
            const Instr &ins = prog.code[ev.pc];
            const u32 b = cfg.blockOf(ev.pc);
            const u64 bit = 1ull << ev.reg;

            if (ev.reg < prog.numExemptRegs) {
                error(VerifyKind::kExemptRelease, ev.pc, ev.reg,
                      "release metadata names a renaming-exempt register");
                continue;
            }

            if (!ev.fromPbr && (vDef(ins) & bit)) {
                error(VerifyKind::kReleaseOfDef, ev.pc, ev.reg,
                      "pir release frees the value its own instruction "
                      "writes");
            } else {
                const u64 live = ev.fromPbr ? liveBefore[ev.pc]
                                            : liveAfter[ev.pc];
                if (live & bit) {
                    error(VerifyKind::kUseAfterRelease, ev.pc, ev.reg,
                          "register is still live on a path from the "
                          "release point");
                }
            }

            if (loopUnsafe[b] & bit) {
                error(VerifyKind::kLoopUnsafeRelease, ev.pc, ev.reg,
                      "release inside a loop whose early-exited lanes "
                      "still hold the value");
            }

            // SIMT rule: under stack-based reconvergence the sibling
            // side of every enclosing branch may run *after* this point
            // while sharing the warp-wide register, so the released
            // register must be dead on every sibling entry and at every
            // enclosing reconvergence point.
            for (u32 ridx : enclosing[b]) {
                const Region &region = regions[ridx];
                bool unsafeRelease = false;
                for (u32 i = 0; i < region.succs.size() && i < 2; ++i) {
                    if (!region.sideContains[i][b] &&
                        (region.succLiveIn[i] & bit)) {
                        unsafeRelease = true;
                    }
                }
                if (region.reconvBlock >= 0 &&
                    (blockLiveIn[static_cast<u32>(region.reconvBlock)] &
                     bit)) {
                    unsafeRelease = true;
                }
                if (unsafeRelease) {
                    error(VerifyKind::kSimtUnsafeRelease, ev.pc, ev.reg,
                          "release inside a divergent region while a "
                          "sibling path or the reconvergence point still "
                          "carries the value");
                    break;
                }
            }
        }
    }

    // --- Double / vacuous release ------------------------------------------

    /**
     * Forward dataflow over three facts per register: may-released and
     * must-released (released since the last definition) and may-mapped
     * (some path wrote the register since the last release).  A release
     * in must-released is a definite double free; in may-released, a
     * path-dependent one (the hardware no-ops on unmapped registers, so
     * this is a warning); outside may-mapped entirely, the release can
     * never free anything.
     */
    void
    checkDoubleRelease()
    {
        const u32 nb = cfg.numBlocks();
        const u64 all = ~0ull;

        std::vector<u64> mayIn(nb, 0), mustIn(nb, all), mappedIn(nb, 0);
        // Entry: nothing released; upward-exposed registers behave as
        // launch-initialized (baseline mapping / driver-set arguments).
        mustIn[cfg.blockOf(0)] = 0;
        mappedIn[cfg.blockOf(0)] = liveBefore[0];

        auto transfer = [&](u32 blockId, u64 &may, u64 &must, u64 &mapped,
                            bool report) {
            const BasicBlock &bb = cfg.block(blockId);
            for (u32 pc = bb.first; pc <= bb.last; ++pc) {
                const Instr &ins = prog.code[pc];
                const u64 def = vDef(ins);
                may &= ~def;
                must &= ~def;
                mapped |= def;
                u64 rel = relBits[pc];
                while (rel) {
                    const u32 r = findFirstSet(rel);
                    const u64 bit = 1ull << r;
                    rel &= rel - 1;
                    if (report) {
                        if (must & bit) {
                            error(VerifyKind::kDoubleRelease, pc, r,
                                  "register is released again with no "
                                  "intervening definition on any path");
                        } else if (may & bit) {
                            warn(VerifyKind::kDoubleRelease, pc, r,
                                 "register may already be released on "
                                 "some path (hardware no-ops the second "
                                 "free)");
                        } else if (!(mapped & bit)) {
                            warn(VerifyKind::kVacuousRelease, pc, r,
                                 "release of a register that is never "
                                 "written on any path to this point");
                        }
                    }
                    may |= bit;
                    must |= bit;
                    mapped &= ~bit;
                }
            }
        };

        bool changed = true;
        while (changed) {
            changed = false;
            for (u32 b = 0; b < nb; ++b) {
                u64 may = mayIn[b], must = mustIn[b],
                    mapped = mappedIn[b];
                transfer(b, may, must, mapped, /*report=*/false);
                for (u32 s : cfg.block(b).succs) {
                    const u64 nmay = mayIn[s] | may;
                    const u64 nmust = mustIn[s] & must;
                    const u64 nmapped = mappedIn[s] | mapped;
                    if (nmay != mayIn[s] || nmust != mustIn[s] ||
                        nmapped != mappedIn[s]) {
                        mayIn[s] = nmay;
                        mustIn[s] = nmust;
                        mappedIn[s] = nmapped;
                        changed = true;
                    }
                }
            }
        }
        for (u32 b = 0; b < nb; ++b) {
            u64 may = mayIn[b], must = mustIn[b], mapped = mappedIn[b];
            transfer(b, may, must, mapped, /*report=*/true);
        }
    }

    // --- Leak detection -----------------------------------------------------

    /**
     * Backward must-analysis: coveredIn[b] holds the registers that, on
     * every path starting at block b, are released before being
     * redefined (or before the program exits).  A death point whose
     * register is not covered keeps its physical register allocated
     * until CTA teardown — an occupancy leak, reported as a warning.
     */
    void
    checkLeaks()
    {
        if (!prog.hasReleaseMetadata)
            return; // baseline programs release nothing by design

        const u32 nb = cfg.numBlocks();
        const u64 all = ~0ull;
        const u64 exempt = lowMask(prog.numExemptRegs);

        std::vector<u64> coveredIn(nb, all);

        auto blockTransfer = [&](u32 blockId, u64 out) {
            const BasicBlock &bb = cfg.block(blockId);
            u64 cur = out;
            for (u32 pc = bb.last + 1; pc-- > bb.first;) {
                const Instr &ins = prog.code[pc];
                cur = (cur | relBits[pc]) & ~vDef(ins);
            }
            return cur;
        };

        bool changed = true;
        while (changed) {
            changed = false;
            for (u32 b = nb; b-- > 0;) {
                const BasicBlock &bb = cfg.block(b);
                u64 out = bb.succs.empty() ? 0 : all;
                for (u32 s : bb.succs)
                    out &= coveredIn[s];
                const u64 in = blockTransfer(b, out);
                if (in != coveredIn[b]) {
                    coveredIn[b] = in;
                    changed = true;
                }
            }
        }

        // Read deaths: the operand's last use; covered by a release at
        // the very instruction (pir) or anywhere downstream.
        for (const auto &bb : cfg.blocks()) {
            u64 out = bb.succs.empty() ? 0 : all;
            for (u32 s : bb.succs)
                out &= coveredIn[s];
            u64 cur = out;
            for (u32 pc = bb.last + 1; pc-- > bb.first;) {
                const Instr &ins = prog.code[pc];
                u64 dead = vUse(ins) & ~liveAfter[pc] & ~vDef(ins) &
                           ~exempt;
                dead &= ~(cur | relBits[pc]);
                while (dead) {
                    const u32 r = findFirstSet(dead);
                    dead &= dead - 1;
                    warn(VerifyKind::kLeakedRegister, pc, r,
                         "register dies here but is not released on "
                         "every path (physical register held until CTA "
                         "completion)");
                }
                cur = (cur | relBits[pc]) & ~vDef(ins);
            }
        }

        // Edge deaths: live out of the predecessor, dead into the
        // successor; covered only by releases on/after the successor.
        for (const auto &bb : cfg.blocks()) {
            const u64 liveOut = liveAfter[bb.last];
            for (u32 s : bb.succs) {
                const BasicBlock &sb = cfg.block(s);
                u64 dead = liveOut & ~liveBefore[sb.first] & ~exempt &
                           ~coveredIn[s];
                while (dead) {
                    const u32 r = findFirstSet(dead);
                    dead &= dead - 1;
                    warn(VerifyKind::kLeakedRegister, sb.first, r,
                         "register dies on a branch edge but is not "
                         "released on every path (physical register "
                         "held until CTA completion)");
                }
            }
        }
    }
};

} // namespace

VerifyResult
verifyReleaseSoundness(const Program &prog)
{
    VerifyResult result;
    if (prog.code.empty())
        return result;
    if (prog.numRegs > kMaxArchRegs) {
        result.diags.push_back(
            {VerifyKind::kBadEncoding, VerifySeverity::kError, 0,
             kInvalidPc, "kernel register footprint exceeds 63"});
        result.numErrors = 1;
        return result;
    }

    Verify v(prog);
    v.computeLiveSets();
    v.checkStructureAndCollectEvents();
    v.checkEvents();
    v.checkDoubleRelease();
    v.checkLeaks();

    if (prog.numExemptRegs > prog.numRegs) {
        v.error(VerifyKind::kBadEncoding, 0, kInvalidPc,
                "exempt register count exceeds the register footprint");
    }

    // Dedupe by identity key (several passes can flag the same point)
    // and order by program position for readable reports.
    std::sort(v.diags.begin(), v.diags.end(),
              [](const VerifyDiag &a, const VerifyDiag &b) {
                  if (a.pc != b.pc)
                      return a.pc < b.pc;
                  return a.key() < b.key();
              });
    v.diags.erase(std::unique(v.diags.begin(), v.diags.end(),
                              [](const VerifyDiag &a, const VerifyDiag &b) {
                                  return a.key() == b.key();
                              }),
                  v.diags.end());

    result.diags = std::move(v.diags);
    result.releasesChecked = static_cast<u32>(v.events.size());
    for (const auto &d : result.diags) {
        if (d.severity == VerifySeverity::kError)
            ++result.numErrors;
        else
            ++result.numWarnings;
    }
    return result;
}

} // namespace rfv
