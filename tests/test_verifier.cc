/**
 * @file
 * Static release-flag verifier tests.
 *
 * Three layers:
 *  1. Every Table-1 workload, compiled baseline / conservative /
 *     aggressiveDiverged (and under a tight renaming-table budget that
 *     forces exemptions), must verify with zero errors.
 *  2. Hand-assembled programs seeded with one specific soundness bug
 *     each must produce exactly the matching diagnostic kind.
 *  3. Nested-divergence kernels (diverged-within-diverged, diverged
 *     inside a loop) must compile to pbr releases at reconvergence
 *     points, verify cleanly, and run to completion under the runtime
 *     register-lifecycle lint.
 */
#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "isa/builder.h"
#include "isa/metadata.h"
#include "sim/gpu.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

// --- Diagnostic helpers -------------------------------------------------

bool
hasKind(const VerifyResult &r, VerifyKind kind)
{
    for (const auto &d : r.diags)
        if (d.kind == kind)
            return true;
    return false;
}

bool
hasKind(const VerifyResult &r, VerifyKind kind, VerifySeverity sev)
{
    for (const auto &d : r.diags)
        if (d.kind == kind && d.severity == sev)
            return true;
    return false;
}

// --- Raw instruction helpers (bypass the builder to plant bugs) ---------

Instr
alu(Opcode op, i32 dst, Operand a, Operand b = Operand::none(),
    u8 pir_mask = 0)
{
    Instr i;
    i.op = op;
    i.dst = dst;
    i.src[0] = a;
    i.src[1] = b;
    i.pirMask = pir_mask;
    return i;
}

Instr
movI(u32 d, u32 v)
{
    return alu(Opcode::kMov, static_cast<i32>(d), I(v));
}

Instr
setpIns(i32 p, CmpOp c, Operand a, Operand b)
{
    Instr i;
    i.op = Opcode::kSetP;
    i.dstPred = p;
    i.src[0] = a;
    i.src[1] = b;
    i.cmp = c;
    return i;
}

Instr
braTo(u32 target, i32 guard = kNoPred, bool neg = false)
{
    Instr i;
    i.op = Opcode::kBra;
    i.target = target;
    i.guardPred = guard;
    i.guardNeg = neg;
    return i;
}

Instr
exitIns()
{
    Instr i;
    i.op = Opcode::kExit;
    return i;
}

/** pir whose payload is built from the leading slot masks given. */
Instr
pirIns(std::initializer_list<u8> leading)
{
    std::array<u8, kPirSlots> slots{};
    u32 n = 0;
    for (u8 m : leading)
        slots[n++] = m;
    Instr i;
    i.op = Opcode::kPir;
    i.metaPayload = encodePir(slots);
    return i;
}

Instr
pbrIns(const std::vector<u32> &regs)
{
    Instr i;
    i.op = Opcode::kPbr;
    i.metaPayload = encodePbr(regs);
    return i;
}

Program
makeProg(std::vector<Instr> code, u32 num_regs, u32 num_exempt = 0,
         bool has_meta = true)
{
    Program p;
    p.name = "handmade";
    p.code = std::move(code);
    p.numRegs = num_regs;
    p.numExemptRegs = num_exempt;
    p.hasReleaseMetadata = has_meta;
    return p;
}

// --- Layer 1: every workload, every compile mode ------------------------

void
sweepWorkloads(const CompileOptions &opts, bool expect_releases)
{
    u32 total_releases = 0;
    for (const auto &w : allWorkloads()) {
        const CompiledKernel ck = compileKernel(w->buildKernel(), opts);
        const VerifyResult r = verifyReleaseSoundness(ck.program);
        EXPECT_TRUE(r.ok()) << w->name() << ":\n" << r.str();
        total_releases += r.releasesChecked;
    }
    if (expect_releases)
        EXPECT_GT(total_releases, 0u);
    else
        EXPECT_EQ(total_releases, 0u);
}

TEST(VerifierWorkloads, BaselinePassesTrivially)
{
    CompileOptions opts;
    opts.virtualize = false;
    sweepWorkloads(opts, /*expect_releases=*/false);
}

TEST(VerifierWorkloads, ConservativePasses)
{
    CompileOptions opts;
    opts.virtualize = true;
    sweepWorkloads(opts, /*expect_releases=*/true);
}

TEST(VerifierWorkloads, AggressiveDivergedPasses)
{
    CompileOptions opts;
    opts.virtualize = true;
    opts.aggressiveDiverged = true;
    sweepWorkloads(opts, /*expect_releases=*/true);
}

TEST(VerifierWorkloads, TightRenamingTablePasses)
{
    // A small table budget forces register demotion (exemptions); the
    // verifier must agree that exempt registers never get released.
    CompileOptions opts;
    opts.virtualize = true;
    opts.renamingTableBytes = 256;
    sweepWorkloads(opts, /*expect_releases=*/true);
}

TEST(VerifierWorkloads, EmptyProgramPasses)
{
    const VerifyResult r = verifyReleaseSoundness(Program{});
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.diags.empty());
}

// --- Layer 2: one seeded bug per diagnostic kind ------------------------

TEST(VerifierDiagnostics, UseAfterRelease)
{
    // r0 released after its read at pc2, but pc3 reads it again.
    const Program p = makeProg(
        {
            pirIns({0, 1}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            alu(Opcode::kIAdd, 2, R(0), I(3)),
            exitIns(),
        },
        /*num_regs=*/3);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kUseAfterRelease));
}

TEST(VerifierDiagnostics, ReleaseOfDef)
{
    // pc2 both writes r0 and flags its own source r0 for release: the
    // release would free the value the instruction just produced.
    const Program p = makeProg(
        {
            pirIns({0, 1}),
            movI(0, 1),
            alu(Opcode::kIAdd, 0, R(0), I(1), /*pir_mask=*/1),
            exitIns(),
        },
        /*num_regs=*/1);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kReleaseOfDef));
}

TEST(VerifierDiagnostics, MustDoubleRelease)
{
    // r0 released by pir at pc2, then again by pbr at pc3 on the only
    // path, with no redefinition in between.
    const Program p = makeProg(
        {
            pirIns({0, 1}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            pbrIns({0}),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(
        hasKind(r, VerifyKind::kDoubleRelease, VerifySeverity::kError))
        << r.str();
}

TEST(VerifierDiagnostics, MayDoubleReleaseIsWarning)
{
    // Diamond: the then side releases r0 in place (SIMT-safe — the
    // sibling entry and the join are both dead for r0), the join pbr
    // releases r0 for the else path where it died on the branch edge.
    // On the then path the pbr is a second free; the hardware no-ops
    // it, so this is exactly the may-double *warning*, not an error.
    const Program p = makeProg(
        {
            /*0*/ alu(Opcode::kS2R, 1, Operand::none()),
            /*1*/ movI(0, 5),
            /*2*/ setpIns(0, CmpOp::kLt, R(1), I(16)),
            /*3*/ braTo(6, /*guard=*/0),
            /*4*/ movI(2, 11),
            /*5*/ braTo(8),
            /*6*/ pirIns({1}),
            /*7*/ alu(Opcode::kIAdd, 2, R(0), I(1), /*pir_mask=*/1),
            /*8*/ pbrIns({0}),
            /*9*/ alu(Opcode::kIAdd, 3, R(2), I(1)),
            /*10*/ exitIns(),
        },
        /*num_regs=*/4);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_TRUE(
        hasKind(r, VerifyKind::kDoubleRelease, VerifySeverity::kWarning))
        << r.str();
}

TEST(VerifierDiagnostics, VacuousRelease)
{
    // r1 is never written on any path, yet the pbr claims to free it.
    const Program p = makeProg(
        {
            movI(0, 1),
            pbrIns({1}),
            alu(Opcode::kIAdd, 0, R(0), I(1)),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kVacuousRelease,
                        VerifySeverity::kWarning));
}

TEST(VerifierDiagnostics, LeakedRegister)
{
    // r0 dies at pc1 and is never released: an occupancy leak, flagged
    // as a warning but never an error.
    const Program p = makeProg(
        {
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(1)),
            pbrIns({1}),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kLeakedRegister,
                        VerifySeverity::kWarning));
}

TEST(VerifierDiagnostics, ExemptRelease)
{
    // r0 is renaming-exempt (id < numExemptRegs); releasing it is
    // meaningless and indicates broken exemption renumbering.
    const Program p = makeProg(
        {
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(1)),
            pbrIns({0}),
            exitIns(),
        },
        /*num_regs=*/2, /*num_exempt=*/1);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kExemptRelease));
}

TEST(VerifierDiagnostics, SimtUnsafeRelease)
{
    // Diamond where the else side releases r2 while the then side (a
    // sibling that may execute *after* it under stack reconvergence)
    // still reads r2.  Dead on the else path itself, so plain liveness
    // cannot catch this — only the divergence rule can.
    const Program p = makeProg(
        {
            /*0*/ movI(0, 5),
            /*1*/ movI(2, 7),
            /*2*/ setpIns(0, CmpOp::kLt, R(0), I(3)),
            /*3*/ braTo(7, /*guard=*/0),
            /*4*/ pirIns({1}),
            /*5*/ alu(Opcode::kIAdd, 3, R(2), I(1), /*pir_mask=*/1),
            /*6*/ braTo(8),
            /*7*/ alu(Opcode::kIAdd, 3, R(2), I(2)),
            /*8*/ exitIns(),
        },
        /*num_regs=*/4);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kSimtUnsafeRelease));
}

TEST(VerifierDiagnostics, LoopUnsafeRelease)
{
    // Bottom-tested loop that releases r1 mid-body and redefines it
    // before the backedge.  r1 is dead at the release point on the
    // CFG, but lanes that exited the divergent loop early still hold
    // their last value in the shared warp-wide register, and r1 is
    // live at the loop exit.
    const Program p = makeProg(
        {
            /*0*/ movI(0, 0),
            /*1*/ movI(1, 99),
            /*2*/ pirIns({1}), // loop-header leader; slot 0 covers pc3
            /*3*/ alu(Opcode::kIAdd, 2, R(1), I(1), /*pir_mask=*/1),
            /*4*/ movI(1, 5),
            /*5*/ alu(Opcode::kIAdd, 0, R(0), I(1)),
            /*6*/ setpIns(0, CmpOp::kLt, R(0), I(10)),
            /*7*/ braTo(2, /*guard=*/0),
            /*8*/ alu(Opcode::kIAdd, 3, R(1), I(1)),
            /*9*/ exitIns(),
        },
        /*num_regs=*/4);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kLoopUnsafeRelease));
}

TEST(VerifierDiagnostics, PirPayloadDisagreesWithFlags)
{
    // Payload says slot 1 releases nothing, the instruction's
    // authoritative pirMask says it releases src0: decode and retire
    // would follow different schedules.
    const Program p = makeProg(
        {
            pirIns({0, 0}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadMetadata)) << r.str();
}

TEST(VerifierDiagnostics, DanglingPirSlot)
{
    // Slot 7 carries flags but only two regular instructions follow
    // the pir in its block.
    std::array<u8, kPirSlots> slots{};
    slots[1] = 1;
    slots[7] = 5;
    Instr pir;
    pir.op = Opcode::kPir;
    pir.metaPayload = encodePir(slots);
    const Program p = makeProg(
        {
            pir,
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadMetadata)) << r.str();
}

TEST(VerifierDiagnostics, PirBitOnNonRegisterOperand)
{
    // pirMask bit 1 set, but src1 is an immediate.
    const Program p = makeProg(
        {
            pirIns({0, 2}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/2),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadMetadata)) << r.str();
}

TEST(VerifierDiagnostics, PayloadWiderThan54Bits)
{
    Instr pir;
    pir.op = Opcode::kPir;
    pir.metaPayload = 1ull << 54;
    const Program p = makeProg(
        {
            pir,
            movI(0, 1),
            exitIns(),
        },
        /*num_regs=*/1);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding));
}

TEST(VerifierDiagnostics, DuplicatePbrRegister)
{
    const Program p = makeProg(
        {
            movI(0, 1),
            movI(1, 2),
            alu(Opcode::kIAdd, 0, R(1), I(1)),
            pbrIns({1, 1}),
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding)) << r.str();
}

TEST(VerifierDiagnostics, NonCanonicalPbrPayload)
{
    // Slot 0 empty (63) but slot 1 used: a hole in the packing, which
    // the encoder never produces — some flag bit got corrupted.
    Instr pbr;
    pbr.op = Opcode::kPbr;
    u64 payload = 0;
    for (u32 s = 0; s < kPbrSlots; ++s)
        payload |= static_cast<u64>(kPbrEmptySlot) << (6 * s);
    payload &= ~(63ull << 6);
    payload |= 1ull << 6; // slot 1 = r1
    pbr.metaPayload = payload;
    const Program p = makeProg(
        {
            movI(1, 2),
            alu(Opcode::kIAdd, 0, R(1), I(1)),
            pbr,
            exitIns(),
        },
        /*num_regs=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u) << r.str();
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding));
}

TEST(VerifierDiagnostics, PbrRegisterOutOfRange)
{
    const Program p = makeProg(
        {
            movI(0, 1),
            pbrIns({5}),
            exitIns(),
        },
        /*num_regs=*/1);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding)) << r.str();
}

TEST(VerifierDiagnostics, MetadataWithoutFlagInProgram)
{
    const Program p = makeProg(
        {
            movI(0, 1),
            pbrIns({0}),
            exitIns(),
        },
        /*num_regs=*/1, /*num_exempt=*/0, /*has_meta=*/false);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadMetadata)) << r.str();
}

TEST(VerifierDiagnostics, ExemptCountExceedsFootprint)
{
    const Program p = makeProg({movI(0, 1), exitIns()},
                               /*num_regs=*/1, /*num_exempt=*/2);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding)) << r.str();
}

TEST(VerifierDiagnostics, FootprintExceedsArchLimit)
{
    Program p = makeProg({movI(0, 1), exitIns()}, /*num_regs=*/64);
    const VerifyResult r = verifyReleaseSoundness(p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.numErrors, 1u);
    EXPECT_TRUE(hasKind(r, VerifyKind::kBadEncoding));
}

TEST(VerifierDiagnostics, ErrorSummaryPutsErrorsFirst)
{
    // Warnings precede the error in program order; the summary leads
    // with the error and only counts the warnings.
    VerifyResult r;
    for (u32 pc : {1u, 2u})
        r.diags.push_back({VerifyKind::kLeakedRegister,
                           VerifySeverity::kWarning, pc, 3, "leak"});
    r.diags.push_back({VerifyKind::kSimtUnsafeRelease,
                       VerifySeverity::kError, 7, 4, "live sibling"});
    r.numWarnings = 2;
    r.numErrors = 1;
    EXPECT_EQ(r.errorSummary(),
              "error[simt-unsafe-release] pc 7 r4: live sibling\n"
              "2 warning(s)");
    EXPECT_EQ(VerifyResult{}.errorSummary(), "0 warning(s)");
}

// --- Layer 3: nested reconvergence + runtime lint -----------------------

/** if (tid < 16) { if (tid < 8) { last use of a } } — the value `a`
 *  dies inside the inner divergent region, so its release must defer
 *  through *both* regions to the outer reconvergence point. */
Program
nestedIfKernel()
{
    KernelBuilder b("nested_if");
    const u32 tid = b.reg(), a = b.reg(), x = b.reg(), y = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.mov(a, I(7));
    b.mov(x, I(1));
    b.setp(0, CmpOp::kLt, R(tid), I(16));
    b.guard(0, /*negated=*/true).bra("outer_join");
    b.setp(1, CmpOp::kLt, R(tid), I(8));
    b.guard(1, /*negated=*/true).bra("inner_join");
    b.iadd(x, R(a), R(tid)); // last use of a, nested two regions deep
    b.label("inner_join");
    b.iadd(x, R(x), I(3));
    b.label("outer_join");
    b.iadd(y, R(x), I(1));
    b.exit();
    return b.build();
}

/** for (i = 0..3) { if (tid < 16) { t = tid + i; acc += t } } — a
 *  temporary dying inside a divergent region nested in a loop. */
Program
loopIfKernel()
{
    KernelBuilder b("loop_if");
    const u32 tid = b.reg(), i = b.reg(), acc = b.reg(), t = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.mov(i, I(0));
    b.mov(acc, I(0));
    b.label("head");
    b.setp(0, CmpOp::kGe, R(i), I(4));
    b.guard(0).bra("done");
    b.setp(1, CmpOp::kLt, R(tid), I(16));
    b.guard(1, /*negated=*/true).bra("join");
    b.iadd(t, R(tid), R(i));
    b.iadd(acc, R(acc), R(t)); // last use of t, inside the diamond
    b.label("join");
    b.iadd(acc, R(acc), I(1));
    b.iadd(i, R(i), I(1));
    b.bra("head");
    b.label("done");
    b.iadd(acc, R(acc), I(1));
    b.exit();
    return b.build();
}

/** Registers released by any pbr instruction in @p prog. */
std::vector<u32>
pbrReleasedRegs(const Program &prog)
{
    std::vector<u32> regs;
    for (const auto &ins : prog.code) {
        if (ins.op != Opcode::kPbr)
            continue;
        for (u32 r : decodePbr(ins.metaPayload))
            regs.push_back(r);
    }
    return regs;
}

/** Run @p prog to completion on one SM with the lifecycle lint armed. */
void
runUnderLint(const Program &prog, RegFileMode mode)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = mode;
    cfg.regFile.lifecycleLint = true;
    cfg.maxCycles = 1'000'000;
    LaunchParams launch;
    launch.gridCtas = 2;
    launch.threadsPerCta = 64;
    GlobalMemory mem(256);
    Gpu gpu(cfg, prog, launch, mem);
    const SimResult res = gpu.run();
    EXPECT_EQ(res.completedCtas, launch.gridCtas);
}

void
checkNestedKernel(const Program &input)
{
    for (const bool aggressive : {false, true}) {
        CompileOptions opts;
        opts.virtualize = true;
        opts.aggressiveDiverged = aggressive;
        const CompiledKernel ck = compileKernel(input, opts);
        const VerifyResult r = verifyReleaseSoundness(ck.program);
        EXPECT_TRUE(r.ok())
            << input.name << (aggressive ? " aggressive" : "") << ":\n"
            << r.str() << ck.program.disassemble();
        EXPECT_GT(r.releasesChecked, 0u) << input.name;
        runUnderLint(ck.program, RegFileMode::kVirtualized);
    }
    // Baseline path of the same kernel, also under the lint.
    runUnderLint(input, RegFileMode::kBaseline);
}

TEST(VerifierNestedDivergence, NestedIfDefersThroughBothRegions)
{
    const Program input = nestedIfKernel();

    // Conservative mode must carry the nested value's release to a
    // reconvergence point via a pbr (never a pir inside the region).
    CompileOptions opts;
    opts.virtualize = true;
    const CompiledKernel ck = compileKernel(input, opts);
    EXPECT_GT(ck.stats.numPbrInstrs, 0u) << ck.program.disassemble();
    EXPECT_FALSE(pbrReleasedRegs(ck.program).empty());

    checkNestedKernel(input);
}

TEST(VerifierNestedDivergence, DivergedInsideLoop)
{
    const Program input = loopIfKernel();

    CompileOptions opts;
    opts.virtualize = true;
    const CompiledKernel ck = compileKernel(input, opts);
    EXPECT_GT(ck.stats.numPbrInstrs + ck.stats.numPirBits, 0u)
        << ck.program.disassemble();

    checkNestedKernel(input);
}

// --- Runtime lifecycle lint ---------------------------------------------

TEST(LifecycleLint, TrapsReadOfNeverWrittenRegister)
{
    Program p = makeProg(
        {
            alu(Opcode::kIAdd, 1, R(0), I(1)), // r0 never written
            exitIns(),
        },
        /*num_regs=*/2, /*num_exempt=*/0, /*has_meta=*/false);

    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.lifecycleLint = true;
    LaunchParams launch;
    GlobalMemory mem(64);
    Gpu gpu(cfg, p, launch, mem);
    try {
        gpu.run();
        FAIL() << "lint did not trap the never-written read";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("never-written"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LifecycleLint, TrapsReadAfterRelease)
{
    // The compiled stream releases r0 at pc2 and reads it at pc3: the
    // lint must name the exact pc, register and warp slot.
    const Program p = makeProg(
        {
            pirIns({0, 1}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            alu(Opcode::kIAdd, 2, R(0), I(3)),
            exitIns(),
        },
        /*num_regs=*/3);

    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFile.mode = RegFileMode::kVirtualized;
    cfg.regFile.lifecycleLint = true;
    LaunchParams launch;
    GlobalMemory mem(64);
    Gpu gpu(cfg, p, launch, mem);
    try {
        gpu.run();
        FAIL() << "lint did not trap the read-after-release";
    } catch (const InternalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("released"), std::string::npos) << msg;
        EXPECT_NE(msg.find("r0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pc 3"), std::string::npos) << msg;
    }
}

TEST(LifecycleLint, RedefinitionAfterReleaseIsClean)
{
    // Release, redefine, read: a legal lifetime cycle that must not
    // trap and must run to completion.
    const Program p = makeProg(
        {
            pirIns({0, 1}),
            movI(0, 1),
            alu(Opcode::kIAdd, 1, R(0), I(2), /*pir_mask=*/1),
            movI(0, 9),
            alu(Opcode::kIAdd, 2, R(0), I(3)),
            exitIns(),
        },
        /*num_regs=*/3);
    runUnderLint(p, RegFileMode::kVirtualized);
}

} // namespace
} // namespace rfv
