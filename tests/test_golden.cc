/**
 * @file
 * Golden RunOutcomes: pins every simulated bit across commits.
 *
 * tests/golden/run_outcomes.txt records kSimulatorVersion and one
 * Hash128 per job, taken over ResultCache::serialize(outcome), for
 * the 128-job paper matrix (16 Table-1 workloads x 8 named configs) at
 * numSms=2 roundsPerSm=1 and the first 64 fuzz-driver scenarios of a
 * fixed root.  The other equivalence suites compare two runs of one
 * build; this one compares against the commit that wrote the file.
 * A change that moves any outcome must bump kSimulatorVersion, or
 * result caches would replay stale entries, and replace the file with
 * the regenerated one the failure prints.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "gen/fuzz.h"
#include "service/hash.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "service/sweep.h"
#include "service/version.h"
#include "workloads/workload.h"

namespace rfv {
namespace {

const char *const kGoldenPath =
    RFV_SOURCE_DIR "/tests/golden/run_outcomes.txt";

/** Root of the fuzz-palette scenarios (no fault injection). */
constexpr u64 kFuzzRoot = 1;
constexpr u64 kFuzzScenarios = 64;

std::vector<SweepJob>
goldenJobs()
{
    std::vector<SweepJob> jobs;
    for (const auto &w : allWorkloads()) {
        for (const std::string &name : runConfigNames()) {
            SweepJob job;
            job.workload = w->name();
            runConfigByName(name, job.config);
            job.config.numSms = 2;
            job.config.roundsPerSm = 1;
            jobs.push_back(std::move(job));
        }
    }
    for (u64 i = 0; i < kFuzzScenarios; ++i) {
        const FuzzScenario sc = deriveScenario(kFuzzRoot, i, 0);
        SweepJob job;
        job.workload = sc.spec.name();
        job.config = sc.config;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** The golden file as this build produces it. */
std::string
regenerate()
{
    const std::vector<SweepJob> jobs = goldenJobs();
    SweepOptions opts;
    opts.useCache = false;
    opts.jobs = 2;
    SweepEngine engine(opts);
    const std::vector<SweepJobResult> results = engine.run(jobs);

    std::string out = std::string("version ") + kSimulatorVersion + "\n";
    for (const SweepJobResult &r : results) {
        std::string digest = "failed";
        if (r.ok()) {
            std::ostringstream bytes;
            ResultCache::serialize(bytes, r.outcome);
            Hasher h;
            h.str(bytes.str());
            digest = h.digest().hex();
        }
        out += digest + " " + r.job.workload + " " + r.job.config.label +
               "\n";
    }
    return out;
}

TEST(Golden, RunOutcomesMatchTheCommittedDigests)
{
    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in) << "cannot open " << kGoldenPath;
    std::stringstream committed;
    committed << in.rdbuf();

    const std::string now = regenerate();
    EXPECT_EQ(now.find("failed"), std::string::npos) << now;
    if (now != committed.str()) {
        ADD_FAILURE()
            << "RunOutcomes differ from " << kGoldenPath
            << ".  If the change is meant to alter simulated results, "
               "bump kSimulatorVersion (src/service/version.h) and "
               "replace the file with this build's:\n"
            << now;
    }
}

} // namespace
} // namespace rfv
