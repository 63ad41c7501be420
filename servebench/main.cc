/**
 * @file
 * servebench: one served workload, end to end (--trace 0) or per layer
 * (--trace 1).  See README.md for the metrics and the workloads.
 *
 *   servebench --workload paper-matrix --seed 1 --seconds 10 --trace 0
 *
 * The last line of standard output is the result: one JSON object
 * with the keys correct, attempted, failed and metrics.
 */
#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/sync.h"
#include "replay.h"
#include "reference.h"
#include "report.h"
#include "requests.h"
#include "served.h"
#include "service/version.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/**
 * setup_s is the median of several setups, each in a fresh process and
 * timed from its main(): the measured run's own, and more by this
 * program run with --setup-only, at least kMinSetups in all and more
 * while they add up to less than kSetupBudgetSeconds.
 */
constexpr u32 kMinSetups = 9;
constexpr u32 kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 3.0;

/**
 * The measured phase is cut into blocks of this many consecutive
 * requests, and the rate, latency and CPU metrics are medians over the
 * blocks: a burst of contention on the shared host that covers less
 * than half of a run does not move them.  A paper-matrix block is one
 * shuffled pass, so every block holds the same jobs; the others hold
 * about 1 s of requests.
 */
u64
blockRequests(Workload w)
{
    switch (w) {
      case Workload::kPaperMatrix: return 128;
      case Workload::kWarmReplay: return 8192;
      case Workload::kFuzzStream: return 512;
    }
    return 0;
}

/** peak_rss_mb is read when this many answers have arrived. */
constexpr u64 kRssAfterAnswers = 2048;

/** Threads for the oracle, which runs outside the timed phase. */
u32
oracleThreads()
{
    return std::min<u32>(4, rfv::hardwareConcurrency());
}

/**
 * Requests of each pass in a traced run.  Fixed, not timed, so that
 * the traced run's counters repeat exactly for a seed.
 */
u64
tracedRequests(Workload w)
{
    switch (w) {
      case Workload::kPaperMatrix: return 128; // one shuffled pass
      case Workload::kWarmReplay: return 16384;
      case Workload::kFuzzStream: return 512;
    }
    return 0;
}

struct Args {
    Workload workload = Workload::kPaperMatrix;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/servebench-work";
    bool setupOnly = false; //!< set up, print the setup seconds, exit
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "servebench: " << why
              << "\nusage: servebench --workload "
                 "paper-matrix|warm-replay|fuzz-stream --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--setup-only]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                if (!parseWorkload(value, a.workload))
                    usage("unknown workload '" + value + "'");
                haveWorkload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else if (flag == "--work-dir") {
                a.workDir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** The run's own directory under --work-dir; removed with its contents. */
class RunDir {
  public:
    explicit RunDir(const std::string &workDir)
        : path_(workDir + "/run-" + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~RunDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    std::string
    sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

struct Result {
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
keepOutcomes(Workload w)
{
    return w != Workload::kFuzzStream; // fuzz keys never repeat
}

/**
 * --setup-only: set up as a measured run does (registry, server,
 * connections, warm-up) and print the seconds from @p processStart to
 * the end of setup.
 */
void
setUpOnly(const Args &args, Clock::time_point processStart)
{
    // A setup process does not outlive the run that started it.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    const RunDir dir(args.workDir);
    const RequestStream stream(args.workload, args.seed);
    AnswerBook book(keepOutcomes(args.workload));
    const ServerRig rig(stream, dir.sub("cache"), book);
    std::cout << std::setprecision(9) << secondsSince(processStart)
              << std::endl;
}

/**
 * Setup seconds of a fresh process: this program run with --setup-only
 * and the same workload, seed and work directory.
 */
double
freshSetupSeconds(const Args &args)
{
    const std::vector<std::string> words = {
        std::filesystem::read_symlink("/proc/self/exe").string(),
        "--workload", workloadName(args.workload),
        "--seed", std::to_string(args.seed),
        "--seconds", "1", "--trace", "0",
        "--work-dir", args.workDir, "--setup-only"};
    std::vector<char *> argv;
    for (const std::string &w : words)
        argv.push_back(const_cast<char *>(w.c_str()));
    argv.push_back(nullptr);

    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
        throw std::runtime_error("servebench: pipe failed");
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                      argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    std::string text;
    char buf[256];
    while (spawned == 0) {
        const ssize_t n = ::read(out[0], buf, sizeof buf);
        if (n > 0)
            text.append(buf, static_cast<size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(out[0]);
    int status = 0;
    while (spawned == 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("servebench: setup process failed");
    return std::stod(text);
}

/**
 * The matrix at 4 SMs x 3 rounds, by Simulator::runWorkload: paper-matrix's
 * oracle, and on every workload the outcomes behind the two fidelity
 * figures, so that those read the same as the figure benches everywhere.
 */
std::vector<rfv::RunOutcome>
referenceMatrix()
{
    return matrixOutcomes(4, 3, oracleThreads());
}

Fidelity
fidelity(const std::vector<rfv::RunOutcome> &matrix)
{
    return fidelityOf(
        [&](u64 key) -> const rfv::RunOutcome & { return matrix[key]; });
}

void
printErrors(const ServedPass &pass)
{
    for (const std::string &e : pass.errors)
        std::cout << "# failed: " << e << "\n";
}

void
printFidelity(const Fidelity &f)
{
    std::cout << "# fidelity: shrink50 cycles "
              << (f.shrinkSlowdownPct >= 0 ? "+" : "") << f.shrinkSlowdownPct
              << "% (paper +" << kPaperShrinkSlowdownPct
              << "%), shrink50-gating RF energy " << f.rfEnergyRatio
              << "x baseline (paper saving " << kPaperRfEnergySavingPct
              << "%)\n";
}

/** One block of a timed pass (see blockRequests). */
struct Block {
    u64 replies = 0;
    u64 ok = 0;
    double jobsPerS = 0;    //!< OK answers / block length
    double p50Ms = 0;       //!< latency quantiles of the block's replies
    double p90Ms = 0;
    double cpuMsPerJob = 0; //!< process CPU / OK answers
    double stealPct = 0;    //!< host CPU time the hypervisor gave to others
};

/**
 * The blocks that were handed out in full.  When none was, as in a
 * run much shorter than a block, the whole pass is one block.
 */
std::vector<Block>
blocks(const ServedPass &pass, u64 size)
{
    std::vector<Sample> edge = pass.blockStarts;
    if (edge.empty())
        return {};
    const bool whole = edge.size() == 1;
    if (whole)
        edge.push_back(pass.end);
    const size_t count = edge.size() - 1;
    std::vector<std::vector<double>> latency(count);
    std::vector<Block> out(count);
    for (const Answer &a : pass.answers) {
        const u64 k = whole ? 0 : a.request / size;
        if (k >= count)
            continue; // in the block the deadline cut short
        latency[k].push_back(a.latencyMs);
        out[k].ok += a.ok;
    }
    for (size_t k = 0; k < count; ++k) {
        Block &b = out[k];
        const Sample &t0 = edge[k], &t1 = edge[k + 1];
        b.replies = latency[k].size();
        b.jobsPerS = static_cast<double>(b.ok) / (t1.seconds - t0.seconds);
        b.p50Ms = quantile(latency[k], 0.5);
        b.p90Ms = quantile(latency[k], 0.9);
        if (b.ok > 0)
            b.cpuMsPerJob = 1e3 * (t1.cpuSeconds - t0.cpuSeconds) /
                            static_cast<double>(b.ok);
        if (t1.host.total > t0.host.total)
            b.stealPct = 100.0 *
                         static_cast<double>(t1.host.steal - t0.host.steal) /
                         static_cast<double>(t1.host.total - t0.host.total);
    }
    return out;
}

Result
measure(const RequestStream &stream, const Args &args, const RunDir &dir,
        Clock::time_point processStart)
{
    const Workload w = stream.workload();
    // This process's own setup serves the measured phase; the other
    // setups run in processes of their own after measuring.
    AnswerBook book(keepOutcomes(w));
    auto rig = std::make_unique<ServerRig>(stream, dir.sub("cache"), book);
    std::vector<double> setupSeconds = {secondsSince(processStart)};

    PassLimit limit;
    limit.seconds = args.seconds;
    limit.block = blockRequests(w);
    limit.rssAfter = kRssAfterAnswers;
    const ServedPass pass = serveClosedLoop(
        *rig, [&](u64 i) { return stream.at(i); }, limit, book);
    const double rss = pass.rssMiB > 0 ? pass.rssMiB : peakRssMiB();
    rig->stop();
    const std::vector<Block> perBlock = blocks(pass, limit.block);
    std::vector<double> rate, p50, p90, cpuPerJob;
    for (const Block &b : perBlock) {
        rate.push_back(b.jobsPerS);
        if (b.replies > 0) {
            p50.push_back(b.p50Ms);
            p90.push_back(b.p90Ms);
        }
        if (b.ok > 0)
            cpuPerJob.push_back(b.cpuMsPerJob);
    }

    const std::vector<rfv::RunOutcome> matrix = referenceMatrix();
    const u64 differ = checkOracle(stream, book, matrix, oracleThreads());
    const Fidelity fid = fidelity(matrix);
    rig.reset();
    const auto spent = [&] {
        return std::accumulate(setupSeconds.begin(), setupSeconds.end(), 0.0);
    };
    while (setupSeconds.size() < kMinSetups ||
           (setupSeconds.size() < kMaxSetups && spent() < kSetupBudgetSeconds))
        setupSeconds.push_back(freshSetupSeconds(args));

    Result r;
    r.attempted = pass.attempted;
    r.failed = std::min(pass.attempted, pass.failed + differ);
    r.correct = r.failed == 0;
    printErrors(pass);
    if (differ)
        std::cout << "# failed: " << differ
                  << " answers differ from the oracle\n";
    std::cout << "# blocks (jobs/s p50_ms p90_ms cpu_ms/job host_steal%):";
    for (const Block &b : perBlock)
        std::cout << " [" << b.jobsPerS << " " << b.p50Ms << " " << b.p90Ms
                  << " " << b.cpuMsPerJob << " " << b.stealPct << "]";
    std::cout << "\n";
    std::cout << "# " << pass.attempted << " requests in " << pass.wallSeconds
              << " s, " << perBlock.size() << " blocks of " << limit.block
              << "; setups (s):";
    for (double s : setupSeconds)
        std::cout << " " << s;
    std::cout << "\n";
    printFidelity(fid);

    r.metrics = {
        {"jobs_per_s", median(rate), "jobs/s"},
        {"latency_p50_ms", median(p50), "ms"},
        {"latency_p90_ms", median(p90), "ms"},
        {"cpu_ms_per_job", median(cpuPerJob), "ms"},
        {"peak_rss_mb", rss, "MiB"},
        {"setup_s", median(setupSeconds), "s"},
        {"fig11a_shrink_err_pp",
         std::abs(fid.shrinkSlowdownPct - kPaperShrinkSlowdownPct), "pp"},
        {"fig12_saving_err_pp",
         std::abs(100.0 * (1.0 - fid.rfEnergyRatio) - kPaperRfEnergySavingPct),
         "pp"},
    };
    return r;
}

/** Self times (us) of the spans named @p name. */
std::vector<double>
selfUs(const std::vector<Span> &spans, const std::vector<i64> &self,
       const std::string &name)
{
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        if (name == spans[i].name)
            out.push_back(static_cast<double>(self[i]) * 1e-3);
    return out;
}

double
totalUs(const std::vector<Span> &spans, const std::string &name)
{
    double sum = 0;
    for (const Span &s : spans)
        if (name == s.name)
            sum += static_cast<double>(s.endNs - s.startNs) * 1e-3;
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Deltas of the counters the traced run reconciles. */
struct Counts {
    rfv::ResultCache::Stats cache;
    rfv::ArtifactStore::Stats artifacts;
    rfv::LoopStats simulated;
};

Counts
delta(const rfv::ResultCache::Stats &c0, const rfv::ResultCache::Stats &c1,
      const rfv::ArtifactStore::Stats &a0, const rfv::ArtifactStore::Stats &a1,
      const rfv::LoopStats &simulated)
{
    Counts d;
    d.cache.memoryHits = c1.memoryHits - c0.memoryHits;
    d.cache.diskHits = c1.diskHits - c0.diskHits;
    d.cache.misses = c1.misses - c0.misses;
    d.cache.stores = c1.stores - c0.stores;
    d.cache.evictions = c1.evictions - c0.evictions;
    d.cache.writeBehindDrops = c1.writeBehindDrops - c0.writeBehindDrops;
    d.artifacts.programsBuilt = a1.programsBuilt - a0.programsBuilt;
    d.artifacts.programsReused = a1.programsReused - a0.programsReused;
    d.artifacts.compilesBuilt = a1.compilesBuilt - a0.compilesBuilt;
    d.artifacts.compilesReused = a1.compilesReused - a0.compilesReused;
    d.artifacts.verifiesBuilt = a1.verifiesBuilt - a0.verifiesBuilt;
    d.artifacts.verifiesReused = a1.verifiesReused - a0.verifiesReused;
    d.artifacts.decodesBuilt = a1.decodesBuilt - a0.decodesBuilt;
    d.artifacts.decodesReused = a1.decodesReused - a0.decodesReused;
    d.simulated = simulated;
    return d;
}

/**
 * Compare the served run's counters with the replay's.  Counters that
 * do not depend on how the two clients' requests interleave must be
 * equal.  Which of two concurrent lookups on one cache shard counts as
 * more recent can differ, so the memory/disk split of hits and the
 * evictions are printed, not required to match.
 */
bool
reconcile(const Counts &served, const Counts &replay)
{
    bool ok = true;
    const auto exact = [&](const char *name, u64 s, u64 r) {
        if (s != r) {
            std::cout << "# reconcile: " << name << " served " << s
                      << " != replay " << r << "\n";
            ok = false;
        }
    };
    exact("cache hits", served.cache.memoryHits + served.cache.diskHits,
          replay.cache.memoryHits + replay.cache.diskHits);
    exact("cache.misses", served.cache.misses, replay.cache.misses);
    exact("cache.stores", served.cache.stores, replay.cache.stores);
    exact("cache.write_behind_drops", served.cache.writeBehindDrops,
          replay.cache.writeBehindDrops);
    const rfv::ArtifactStore::Stats &sa = served.artifacts;
    const rfv::ArtifactStore::Stats &ra = replay.artifacts;
    exact("artifacts.programs_built", sa.programsBuilt, ra.programsBuilt);
    exact("artifacts.programs_reused", sa.programsReused, ra.programsReused);
    exact("artifacts.compiles_built", sa.compilesBuilt, ra.compilesBuilt);
    exact("artifacts.compiles_reused", sa.compilesReused, ra.compilesReused);
    exact("artifacts.verifies_built", sa.verifiesBuilt, ra.verifiesBuilt);
    exact("artifacts.verifies_reused", sa.verifiesReused, ra.verifiesReused);
    exact("artifacts.decodes_built", sa.decodesBuilt, ra.decodesBuilt);
    exact("artifacts.decodes_reused", sa.decodesReused, ra.decodesReused);
    exact("sim.stepped_cycles", served.simulated.steppedCycles,
          replay.simulated.steppedCycles);
    exact("sim.skipped_cycles", served.simulated.skippedCycles,
          replay.simulated.skippedCycles);
    exact("sim.sm_steps_elided", served.simulated.smStepsElided,
          replay.simulated.smStepsElided);
    std::cout << "# reconcile: hits memory/disk served "
              << served.cache.memoryHits << "/" << served.cache.diskHits
              << " replay " << replay.cache.memoryHits << "/"
              << replay.cache.diskHits << ", evictions served "
              << served.cache.evictions << " replay "
              << replay.cache.evictions << "\n";
    return ok;
}

std::string
headerJson(const Args &args)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << workloadName(args.workload)
       << "\", \"seed\": " << args.seed << ", \"trace\": "
       << (args.trace ? 1 : 0) << ", \"simulator_version\": \""
       << rfv::kSimulatorVersion << "\", \"hardware_concurrency\": "
       << rfv::hardwareConcurrency() << "}";
    return os.str();
}

Result
traced(const RequestStream &stream, const Args &args, const RunDir &dir)
{
    const Workload w = stream.workload();
    const u64 n = tracedRequests(w);
    const auto requestAt = [&](u64 i) { return stream.at(i); };

    // 1. Untraced passes, one before and one after the traced pass, so
    //    that the overhead ratio does not charge process warm-up or a
    //    drift of the host to the tracing.  The first one's public
    //    counters are the base of the reconciliation.
    AnswerBook untracedBook(keepOutcomes(w));
    struct Untraced {
        ServedPass pass;
        Counts counts; //!< the server's counters over the pass
        u64 queueHighWater = 0;
        u64 shed = 0;
    };
    const auto untracedPass = [&](const std::string &name) {
        Untraced u;
        ServerRig rig(stream, dir.sub(name), untracedBook);
        const ServerCounters c0 = rig.counters();
        u.pass = serveClosedLoop(rig, requestAt, {n}, untracedBook);
        const ServerCounters c1 = rig.counters();
        u.counts = delta(c0.cache, c1.cache, c0.artifacts, c1.artifacts,
                         u.pass.simulated);
        u.queueHighWater = c1.server.queueHighWater;
        u.shed = c1.server.requestsShed - c0.server.requestsShed;
        return u;
    };
    const Untraced before = untracedPass("untraced");

    // 2. The traced pass: same sequence and load, SimdClient::run spans
    //    and executeHook pickups.
    Tracer tracer;
    PickupLog pickups(tracer);
    AnswerBook book(keepOutcomes(w));
    auto rig = std::make_unique<ServerRig>(stream, dir.sub("traced"), book,
                                           &pickups);
    const ServedPass pass =
        serveClosedLoop(*rig, requestAt, {n}, book, &tracer, &pickups);
    rig->stop();
    const Untraced after = untracedPass("untraced-after");

    // 3. The replay: every request again, in process, call by call.
    rfv::SweepOptions replayOpts = rig->sweepOptions();
    if (w == Workload::kFuzzStream) {
        // Its keys are in the traced server's directory now.
        replayOpts.cacheDir = dir.sub("replay");
        std::filesystem::create_directories(replayOpts.cacheDir);
    }
    Replayer replayer(replayOpts, tracer);
    replayer.warmUp(stream);
    const auto rc0 = replayer.engine().results().stats();
    const auto ra0 = replayer.engine().artifacts().stats();
    u64 replayDiffers = 0;
    std::vector<Request> simulatedJobs;
    std::map<u64, rfv::RunOutcome> distinct;
    for (u64 i = 0; i < n; ++i) {
        const Request r = stream.at(i);
        const rfv::SweepJobResult res = replayer.replay(r, i);
        if (!res.ok() || !book.matches(r.key, res.outcome)) {
            ++replayDiffers;
            continue;
        }
        if (distinct.emplace(r.key, res.outcome).second && !res.fromCache)
            simulatedJobs.push_back(r);
    }
    replayer.engine().results().drain();
    const Counts replayed =
        delta(rc0, replayer.engine().results().stats(), ra0,
              replayer.engine().artifacts().stats(), replayer.simulated());
    rig.reset();

    // 4. The step-phase profile, on its own pass.
    const rfv::LoopProfile prof = replayer.profile(simulatedJobs);

    // 5. Oracle and fidelity, outside every timed pass.
    const std::vector<rfv::RunOutcome> matrix = referenceMatrix();
    const u64 differ =
        checkOracle(stream, untracedBook, matrix, oracleThreads()) +
        checkOracle(stream, book, matrix, oracleThreads());
    const Fidelity fid = fidelity(matrix);
    const bool reconciled = reconcile(before.counts, replayed);

    Result r;
    r.attempted =
        before.pass.attempted + pass.attempted + after.pass.attempted;
    r.failed = std::min(r.attempted, before.pass.failed + pass.failed +
                                         after.pass.failed + differ);
    r.correct = r.failed == 0 && replayDiffers == 0 && reconciled;
    printErrors(before.pass);
    printErrors(pass);
    printErrors(after.pass);
    if (differ)
        std::cout << "# failed: " << differ
                  << " answers differ from the oracle\n";
    if (replayDiffers)
        std::cout << "# failed: " << replayDiffers
                  << " replayed answers differ from the served ones\n";
    printFidelity(fid);

    // Per-layer figures from the spans.
    const std::vector<Span> spans = tracer.spans();
    const std::vector<i64> self = Tracer::selfNs(spans);
    const auto p50 = [&](const char *name) {
        return median(selfUs(spans, self, name));
    };
    std::map<u64, i64> sent;
    for (const Span &s : spans)
        if (std::string("net.run") == s.name)
            sent[s.request] = s.startNs;
    std::vector<double> pickupUs;
    for (const Mark &m : tracer.marks())
        if (sent.count(m.request))
            pickupUs.push_back(
                static_cast<double>(m.atNs - sent[m.request]) * 1e-3);

    const rfv::ResultCache::Stats &cache = replayed.cache;
    const rfv::ArtifactStore::Stats &art = replayed.artifacts;
    const u64 built = art.programsBuilt + art.compilesBuilt +
                      art.verifiesBuilt + art.decodesBuilt;
    const u64 reused = art.programsReused + art.compilesReused +
                       art.verifiesReused + art.decodesReused;
    const auto mcps = [&](const char *config) {
        const auto it = replayer.runRates().find(config);
        if (it == replayer.runRates().end())
            return 0.0;
        return ratio(static_cast<double>(it->second.cycles) * 1e3,
                     static_cast<double>(it->second.runNs));
    };
    u64 cycles = 0, allocStalls = 0, throttle = 0, bankConflicts = 0;
    u64 flagHits = 0, flagLookups = 0;
    for (const auto &[key, o] : distinct) {
        cycles += o.sim.cycles;
        allocStalls += o.sim.allocStallEvents;
        throttle += o.sim.throttleActiveCycles;
        bankConflicts += o.sim.bankConflictCycles;
        flagHits += o.sim.flagCacheHits;
        flagLookups += o.sim.flagCacheHits + o.sim.flagCacheMisses;
    }
    const auto perStep = [&](u64 ns) {
        return ratio(static_cast<double>(ns), static_cast<double>(prof.steps));
    };
    const auto count = [](u64 v) { return static_cast<double>(v); };
    const rfv::LoopStats &loop = replayed.simulated;

    r.metrics = {
        {"net.rtt_us.p50", p50("net.run"), "us"},
        {"net.pickup_wait_us.p50", median(pickupUs), "us"},
        {"net.codec_us.p50", p50("net.codec"), "us"},
        {"net.result_bytes.mean",
         ratio(count(replayer.resultBytes()), count(replayer.answers())), "B"},
        {"net.queue_high_water", count(before.queueHighWater), "count"},
        {"net.requests_shed", count(before.shed), "count"},
        {"cache.memory_hits", count(cache.memoryHits), "count"},
        {"cache.disk_hits", count(cache.diskHits), "count"},
        {"cache.misses", count(cache.misses), "count"},
        {"cache.stores", count(cache.stores), "count"},
        {"cache.evictions", count(cache.evictions), "count"},
        {"cache.write_behind_drops", count(cache.writeBehindDrops), "count"},
        {"cache.memory_hit_ratio",
         ratio(count(cache.memoryHits),
               count(cache.memoryHits + cache.diskHits)),
         "ratio"},
        {"cache.lookup_memory_us.p50", p50("cache.lookup_memory"), "us"},
        {"cache.lookup_disk_us.p50", p50("cache.lookup_disk"), "us"},
        {"cache.lookup_miss_us.p50", p50("cache.lookup_miss"), "us"},
        {"cache.store_us.p50", p50("cache.store"), "us"},
        {"artifacts.programs_built", count(art.programsBuilt), "count"},
        {"artifacts.compiles_built", count(art.compilesBuilt), "count"},
        {"artifacts.verifies_built", count(art.verifiesBuilt), "count"},
        {"artifacts.decodes_built", count(art.decodesBuilt), "count"},
        {"artifacts.reuse_ratio", ratio(count(reused), count(built + reused)),
         "ratio"},
        {"isa.program_us.p50", p50("isa.program"), "us"},
        {"compiler.compile_us.p50", p50("compiler.compile"), "us"},
        {"analysis.verify_us.p50", p50("analysis.verify"), "us"},
        {"sim.decode_build_us.p50", p50("sim.decode_build"), "us"},
        {"workloads.find_us.p50", p50("workloads.find"), "us"},
        {"workloads.setup_us.p50", p50("workloads.setup"), "us"},
        {"workloads.verify_us.p50", p50("workloads.verify"), "us"},
        {"sim.gpu_ctor_us.p50", p50("sim.gpu_ctor"), "us"},
        {"sim.run_share",
         ratio(totalUs(spans, "sim.run"), totalUs(spans, "request")),
         "ratio"},
        {"sim.run_mcps.baseline", mcps("baseline"), "Mcycles/s"},
        {"sim.run_mcps.virtualized", mcps("virtualized"), "Mcycles/s"},
        {"sim.run_mcps.shrink50", mcps("shrink50"), "Mcycles/s"},
        {"sim.stepped_cycles", count(loop.steppedCycles), "count"},
        {"sim.skipped_cycles", count(loop.skippedCycles), "count"},
        {"sim.sm_steps_elided", count(loop.smStepsElided), "count"},
        {"sim.step.fetch_ns", perStep(prof.fetchNs), "ns"},
        {"sim.step.schedule_ns", perStep(prof.scheduleNs), "ns"},
        {"sim.step.execute_ns", perStep(prof.executeNs), "ns"},
        {"sim.step.commit_ns", perStep(prof.commitNs), "ns"},
        {"power.energy_us.p50", p50("power.energy"), "us"},
        {"model.sim_cycles_total", count(cycles), "count"},
        {"model.shrink50_slowdown_pct", fid.shrinkSlowdownPct, "%"},
        {"power.rf_energy_ratio", fid.rfEnergyRatio, "ratio"},
        {"regfile.alloc_stall_events", count(allocStalls), "count"},
        {"regfile.throttle_active_cycles", count(throttle), "count"},
        {"regfile.bank_conflict_cycles", count(bankConflicts), "count"},
        {"regfile.flag_cache_hit_ratio",
         ratio(count(flagHits), count(flagLookups)), "ratio"},
        {"trace.overhead_ratio",
         ratio(2 * pass.wallSeconds,
               before.pass.wallSeconds + after.pass.wallSeconds),
         "ratio"},
    };

    const std::string traceDir = args.workDir + "/traces";
    std::filesystem::create_directories(traceDir);
    const std::string path = traceDir + "/" + workloadName(w) + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (tracer.write(path, headerJson(args)))
        std::cout << "# trace: " << spans.size() << " spans written to " << path
                  << "\n";
    return r;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    using namespace servebench;
    const Clock::time_point processStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    if (args.setupOnly) {
        try {
            setUpOnly(args, processStart);
        } catch (const std::exception &e) {
            std::cerr << "servebench: setup: " << e.what() << "\n";
            return 1;
        }
        return 0;
    }
    std::cout << "# servebench " << headerJson(args) << "\n";
    try {
        const RunDir dir(args.workDir);
        const RequestStream stream(args.workload, args.seed);
        const Result r = args.trace ? traced(stream, args, dir)
                                    : measure(stream, args, dir, processStart);
        std::cout << resultJson(r.correct, r.attempted, r.failed, r.metrics)
                  << std::endl;
    } catch (const std::exception &e) {
        std::cout.flush();
        std::cerr << "servebench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
