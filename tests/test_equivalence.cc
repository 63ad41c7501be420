/**
 * @file
 * Release-safety equivalence over generated kernels.
 *
 * The paper's correctness claim is that the compiler's pir/pbr
 * releases are SIMT-safe and that GPU-shrink's throttle and spill path
 * never change a result.  A fixed corpus of `gen:` kernels (nested
 * divergence, counted and divergent loops, loads, shared-memory
 * exchanges, barriers, early exits) runs against a matrix of
 * register-file configurations, and every (spec, config) pair goes
 * through the fuzz driver's checkScenario:
 *   - self-check: the output image matches the host reference,
 *   - soundness:  the static release-flag verifier reports no error,
 *   - diff-loop:  the event-driven and naive loops agree bit for bit.
 *
 * Every config sets verifyReleases, so released registers are poisoned
 * and the runtime lifecycle lint traps any read of one.  Every config
 * runs one SM, so the whole grid's register pressure lands on it; the
 * reach assertions check that the small files really spill, throttle
 * and demote.
 */
#include <gtest/gtest.h>

#include "gen/fuzz.h"
#include "gen/kernel_generator.h"

namespace rfv {
namespace {

GenSpec
specFor(u64 seed, u32 ctas, u32 threadsPerCta, u32 concCtasPerSm)
{
    GenSpec s;
    s.seed = seed;
    s.ctas = ctas;
    s.threadsPerCta = threadsPerCta;
    s.concCtasPerSm = concCtasPerSm;
    return s;
}

/** 59 kernels: plain, shared-exchange and deep-nesting shapes. */
std::vector<GenSpec>
corpus()
{
    std::vector<GenSpec> out;
    for (u32 seed = 1; seed <= 40; ++seed) {
        GenSpec s = specFor(seed, 3, 96, 3);
        s.regs = 10 + seed % 9;
        s.blocks = 5 + seed % 4;
        out.push_back(s);
    }
    for (u32 seed = 500; seed <= 515; ++seed) {
        GenSpec s = specFor(seed, 2, 64, 2);
        s.exchanges = true;
        s.blocks = 8;
        out.push_back(s);
    }
    for (u32 seed : {101u, 202u, 303u}) {
        GenSpec s = specFor(seed, 2, 64, 2);
        s.depth = 3;
        s.blocks = 8;
        s.regs = 22;
        out.push_back(s);
    }
    return out;
}

// Columns of matrix() the reach assertions read.
constexpr size_t kRf16 = 6, kRf8 = 7, kCompilerSpill = 8;

std::vector<RunConfig>
matrix()
{
    RunConfig aggressive = RunConfig::virtualized();
    aggressive.label = "virtualized-aggressive";
    aggressive.aggressiveDiverged = true;
    RunConfig table = RunConfig::virtualized();
    table.label = "virtualized-256B-table";
    table.renamingTableBytes = 256;
    RunConfig rf16 = RunConfig::virtualized();
    rf16.label = "virtualized-16KB";
    rf16.rfSizeBytes = 16 * 1024;
    RunConfig rf8 = RunConfig::virtualized();
    rf8.label = "virtualized-8KB";
    rf8.rfSizeBytes = 8 * 1024;
    // At 8 KiB some specs have no spill budget left (ConfigError).
    RunConfig spill = RunConfig::compilerSpillShrink(50);
    spill.label = "compiler-spill-16KB";
    spill.rfSizeBytes = 16 * 1024;

    std::vector<RunConfig> out = {
        RunConfig::baseline(), RunConfig::virtualized(),
        RunConfig::gpuShrink(50), RunConfig::hardwareOnly(),
        aggressive, table, rf16, rf8, spill,
    };
    for (RunConfig &cfg : out) {
        cfg.numSms = 1;
        cfg.verifyReleases = true;
    }
    return out;
}

TEST(Equivalence, CorpusPassesEveryOracleAcrossTheMatrix)
{
    const std::vector<GenSpec> specs = corpus();
    const std::vector<RunConfig> configs = matrix();
    ASSERT_EQ(specs.size(), 59u);
    ASSERT_EQ(configs[kRf16].label, "virtualized-16KB");
    ASSERT_EQ(configs[kRf8].label, "virtualized-8KB");
    ASSERT_EQ(configs[kCompilerSpill].label, "compiler-spill-16KB");

    struct Reach {
        u64 spillEvents = 0, throttledRuns = 0, demotingRuns = 0;
    };
    std::vector<Reach> reach(configs.size());
    SweepEngine engine;
    for (const GenSpec &spec : specs) {
        for (size_t c = 0; c < configs.size(); ++c) {
            FuzzScenario sc;
            sc.spec = spec;
            sc.config = configs[c];
            if (const auto f = checkScenario(engine, sc)) {
                ADD_FAILURE() << spec.name() << " under "
                              << configs[c].label << ": "
                              << fuzzOracleName(f->oracle)
                              << " oracle: " << f->detail;
                continue;
            }
            // A memory hit: the self-check oracle stored this outcome.
            const RunOutcome o =
                engine.execute({spec.name(), configs[c]}).outcome;
            reach[c].spillEvents += o.sim.spillEvents;
            reach[c].throttledRuns += o.sim.throttleActiveCycles > 0;
            reach[c].demotingRuns += o.compile.demotedRegs > 0;
        }
    }

    // The small files must actually exercise what they are here for.
    EXPECT_GT(reach[kRf16].spillEvents, 0u);
    EXPECT_GT(reach[kRf8].spillEvents, 0u);
    EXPECT_EQ(reach[kRf8].throttledRuns, specs.size());
    EXPECT_GT(reach[kCompilerSpill].demotingRuns, 0u);
}

TEST(Equivalence, CorpusLowersToEveryConstructKind)
{
    u32 branches = 0, loads = 0, barriers = 0, sharedLoads = 0;
    for (const GenSpec &spec : corpus()) {
        for (const Instr &ins : lowerGenIr(buildGenIr(spec)).code) {
            branches += ins.op == Opcode::kBra;
            loads += ins.op == Opcode::kLdGlobal;
            barriers += ins.op == Opcode::kBar;
            sharedLoads += ins.op == Opcode::kLdShared;
        }
    }
    EXPECT_GT(branches, 0u);
    EXPECT_GT(loads, 0u);
    EXPECT_GT(barriers, 0u);
    EXPECT_GT(sharedLoads, 0u);
}

} // namespace
} // namespace rfv
