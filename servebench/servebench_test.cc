/**
 * @file
 * The benchmark's own tests: seeded request sequences, failure
 * accounting, cleanup, span self times, and the fidelity reference.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "reference.h"
#include "served.h"
#include "trace.h"

namespace servebench {
namespace {

bool
sameRequest(const Request &a, const Request &b)
{
    return a.key == b.key && a.naming.workload == b.naming.workload &&
           a.naming.configName == b.naming.configName &&
           a.naming.overrides == b.naming.overrides;
}

/** A directory under the system temp dir, removed afterwards. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("servebench-test-" + tag + "-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

TEST(Requests, SameSeedSameSequenceOtherSeedOther)
{
    for (Workload w : {Workload::kPaperMatrix, Workload::kWarmReplay,
                       Workload::kFuzzStream}) {
        SCOPED_TRACE(workloadName(w));
        const RequestStream a(w, 7), again(w, 7), other(w, 8);
        u64 differ = 0;
        for (u64 i = 0; i < 300; ++i) {
            EXPECT_TRUE(sameRequest(a.at(i), again.at(i))) << "request " << i;
            differ += !sameRequest(a.at(i), other.at(i));
        }
        EXPECT_GT(differ, 0u);
    }
}

TEST(Requests, PaperMatrixPassesCoverEveryJobOnce)
{
    const RequestStream s(Workload::kPaperMatrix, 3);
    ASSERT_EQ(s.keys().size(), 128u);
    for (u64 pass = 0; pass < 3; ++pass) {
        std::vector<int> seen(128, 0);
        for (u64 i = 0; i < 128; ++i)
            ++seen[s.at(pass * 128 + i).key];
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 128);
    }
}

TEST(Requests, WarmReplayDrawsOnlyItsKeysMostPopularMostOften)
{
    const RequestStream s(Workload::kWarmReplay, 5);
    ASSERT_EQ(s.keys().size(), RequestStream::kReplayKeys);
    std::vector<u64> hits(RequestStream::kReplayKeys, 0);
    for (u64 i = 0; i < 20000; ++i) {
        const Request r = s.at(i);
        ASSERT_LT(r.key, hits.size());
        ++hits[r.key];
    }
    const std::vector<Request> order = s.coldToHot();
    EXPECT_GT(hits[order.back().key], hits[order.front().key]);
    // Zipf(1) over 256 ranks: the top rank draws 1/H(256), about 16%.
    EXPECT_NEAR(static_cast<double>(hits[order.back().key]) / 20000, 0.16,
                0.02);
}

TEST(Requests, FuzzWarmupIsOnePerPaletteConfigForEverySeed)
{
    const RequestStream a(Workload::kFuzzStream, 7), b(Workload::kFuzzStream, 8);
    const std::vector<Request> &warm = a.fuzzWarmup();
    ASSERT_EQ(warm.size(), 4u);
    std::vector<std::string> configs;
    for (size_t j = 0; j < warm.size(); ++j) {
        EXPECT_TRUE(sameRequest(warm[j], b.fuzzWarmup()[j])) << "request " << j;
        EXPECT_EQ(warm[j].key, RequestStream::kFuzzWarmupKey + j);
        EXPECT_TRUE(sameRequest(a.byKey(warm[j].key), warm[j]));
        configs.push_back(warm[j].naming.configName);
    }
    std::sort(configs.begin(), configs.end());
    EXPECT_EQ(configs, (std::vector<std::string>{"baseline", "shrink50",
                                                 "virtualized",
                                                 "virtualized-gating"}));
    EXPECT_TRUE(sameRequest(a.byKey(5), a.at(5)));
}

TEST(Served, UnknownWorkloadIsAFailedAttemptNotFatal)
{
    TempDir dir("unknown");
    const RequestStream stream(Workload::kPaperMatrix, 1);
    AnswerBook book(true);
    ServerRig rig(stream, (dir.path / "cache").string(), book);

    Request good;
    good.naming.workload = "Gaussian";
    good.naming.overrides = {{"numSms", "1"}, {"roundsPerSm", "1"}};
    good.key = 0;
    Request unknown;
    unknown.naming.workload = "NoSuchKernel";
    unknown.key = 1;
    const std::vector<Request> list = {good, unknown, good, good};

    const ServedPass pass = serveClosedLoop(
        rig, [&](u64 i) { return list[i]; }, {list.size(), 0}, book);
    EXPECT_EQ(pass.attempted, list.size());
    EXPECT_EQ(pass.failed, 1u);
    EXPECT_EQ(book.answers(0), 3u);
    ASSERT_EQ(pass.errors.size(), 1u);
    EXPECT_NE(pass.errors[0].find("NoSuchKernel"), std::string::npos);
}

TEST(Served, RunLeavesNoCacheDirectoryBehind)
{
    TempDir work("cleanup");
    const std::string out = (work.path / "out.txt").string();
    const std::string cmd = std::string(SERVEBENCH_EXE) +
                            " --workload warm-replay --seed 2 --seconds 0.5"
                            " --trace 0 --work-dir " +
                            work.path.string() + " > " + out;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    std::ifstream in(out);
    std::string line, last;
    while (std::getline(in, line))
        last = line;
    EXPECT_NE(last.find("\"correct\": true"), std::string::npos) << last;
    for (const auto &entry : std::filesystem::directory_iterator(work.path))
        EXPECT_NE(entry.path().filename().string().rfind("run-", 0), 0u)
            << "left behind: " << entry.path();
}

TEST(Trace, SelfTimeIsDurationMinusChildren)
{
    std::vector<Span> spans = {
        {"request", 0, 0, 100, -1},
        {"a", 0, 10, 30, 0},
        {"b", 0, 40, 90, 0},
        {"b.inner", 0, 50, 60, 2},
    };
    const std::vector<i64> self = Tracer::selfNs(spans);
    EXPECT_EQ(self[0], 100 - 20 - 50);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 50 - 10);
    EXPECT_EQ(self[3], 10);
}

TEST(Fidelity, MatchesWhatTheFigureBenchesPrint)
{
    const std::vector<rfv::RunOutcome> matrix = matrixOutcomes(4, 3, 4);
    const Fidelity f = fidelityOf(
        [&](u64 key) -> const rfv::RunOutcome & { return matrix[key]; });
    // fig11a_shrink_vs_spill prints 2 decimals, fig12 prints 3.
    EXPECT_DOUBLE_EQ(std::round(f.shrinkSlowdownPct * 100) / 100,
                     kModelShrinkSlowdownPct);
    EXPECT_DOUBLE_EQ(std::round(f.rfEnergyRatio * 1000) / 1000,
                     kModelRfEnergyRatio);
}

} // namespace
} // namespace servebench
