#include "served.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"
#include "core/simulator.h"

namespace servebench {
namespace {

constexpr u32 kExecutors = 2;
constexpr u32 kClients = 2;

/** Share of warm-replay's key-set bytes the memory tier may hold. */
constexpr double kReplayMemoryShare = 0.4;

/** Diagnostics kept per pass; the counts cover the rest. */
constexpr size_t kMaxErrors = 8;

/** Keys checked per oracle engine, which bounds its artifact store. */
constexpr size_t kOracleChunk = 1024;

rfv::SweepJob
jobFor(const rfv::ServiceRequest &naming)
{
    rfv::SweepJob job;
    std::string error;
    if (rfv::buildJob(naming, job, error) != rfv::ServiceStatus::kOk)
        throw std::runtime_error("servebench: bad request " +
                                 naming.workload + ": " + error);
    return job;
}

/** Exact digest of an outcome: a hash of its RESULT codec bytes. */
rfv::Hash128
outcomeDigest(const rfv::RunOutcome &o)
{
    std::ostringstream os;
    rfv::ResultCache::serialize(os, o);
    rfv::Hasher h;
    h.str(os.str());
    return h.digest();
}

} // namespace

bool
AnswerBook::record(u64 key, const rfv::RunOutcome &o)
{
    rfv::MutexLock lk(mu_);
    ++answers_[key];
    if (keepOutcomes_) {
        const auto [it, inserted] = outcomes_.try_emplace(key, o);
        return inserted || it->second == o;
    }
    const auto [it, inserted] = digests_.try_emplace(key, outcomeDigest(o));
    return inserted || it->second == outcomeDigest(o);
}

bool
AnswerBook::matches(u64 key, const rfv::RunOutcome &o) const
{
    rfv::MutexLock lk(mu_);
    if (keepOutcomes_) {
        const auto it = outcomes_.find(key);
        return it != outcomes_.end() && it->second == o;
    }
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == outcomeDigest(o);
}

std::vector<u64>
AnswerBook::keys() const
{
    rfv::MutexLock lk(mu_);
    std::vector<u64> out;
    for (const auto &entry : answers_)
        out.push_back(entry.first);
    return out;
}

u64
AnswerBook::answers(u64 key) const
{
    rfv::MutexLock lk(mu_);
    const auto it = answers_.find(key);
    return it == answers_.end() ? 0 : it->second;
}

void
PickupLog::sending(u64 request)
{
    rfv::MutexLock lk(mu_);
    waiting_.push_back(request);
}

void
PickupLog::executing()
{
    const i64 at = t_.now();
    rfv::MutexLock lk(mu_);
    if (waiting_.empty())
        return; // a warm-up request
    t_.mark("net.pickup", waiting_.front(), at);
    waiting_.pop_front();
}

void
PickupLog::answered(u64 request)
{
    rfv::MutexLock lk(mu_);
    const auto it = std::find(waiting_.begin(), waiting_.end(), request);
    if (it != waiting_.end())
        waiting_.erase(it); // answered without reaching an executor
}

ServerRig::ServerRig(const RequestStream &stream, std::string cacheDir,
                     AnswerBook &book, PickupLog *pickups)
    : cacheDir_(std::move(cacheDir)), book_(book)
{
    std::filesystem::create_directories(cacheDir_);
    sweep_.cacheDir = cacheDir_;
    switch (stream.workload()) {
      case Workload::kPaperMatrix:
        sweep_.useCache = false;
        startServer(pickups);
        connectClients();
        for (const Request &r : stream.keys())
            server_->engine().prepare(jobFor(r.naming));
        break;
      case Workload::kWarmReplay: {
        sweep_.cacheMemoryBudget = 0; // unbounded while filling
        startServer(nullptr);
        connectClients();
        u64 keySetBytes = 0;
        for (const Request &r : stream.keys())
            keySetBytes += rfv::ResultCache::entryBytes(warmRequest(r));
        server_->engine().results().drain();
        clients_.clear();
        server_.reset(); // stops the first server

        sweep_.cacheMemoryBudget = std::max<u64>(
            1, static_cast<u64>(kReplayMemoryShare *
                                static_cast<double>(keySetBytes)));
        startServer(pickups);
        connectClients();
        for (const Request &r : stream.coldToHot())
            warmRequest(r);
        break;
      }
      case Workload::kFuzzStream:
        startServer(pickups);
        connectClients();
        for (const Request &r : stream.fuzzWarmup())
            warmRequest(r);
        break;
    }
}

ServerRig::~ServerRig()
{
    clients_.clear();
    stop();
    std::error_code ec;
    std::filesystem::remove_all(cacheDir_, ec);
}

void
ServerRig::startServer(PickupLog *pickups)
{
    rfv::ServerOptions opts;
    opts.executors = kExecutors;
    opts.sweep = sweep_;
    if (pickups)
        opts.executeHook = [pickups] { pickups->executing(); };
    server_ = std::make_unique<rfv::SimdServer>(std::move(opts));
    server_->start();
}

void
ServerRig::connectClients()
{
    for (u32 i = 0; i < kClients; ++i) {
        rfv::ClientOptions opts;
        opts.port = server_->port();
        auto client = std::make_unique<rfv::SimdClient>(opts);
        std::string error;
        if (client->connect(error) != rfv::ServiceStatus::kOk)
            throw std::runtime_error("servebench: connect failed: " + error);
        clients_.push_back(std::move(client));
    }
}

rfv::RunOutcome
ServerRig::warmRequest(const Request &r)
{
    rfv::SweepJobResult res;
    std::string error;
    const rfv::ServiceStatus s = clients_[0]->run(r.naming, res, error);
    if (s != rfv::ServiceStatus::kOk || !res.ok())
        throw std::runtime_error("servebench: warm-up request " +
                                 r.naming.workload + " failed: " + error +
                                 res.error);
    if (!book_.record(r.key, res.outcome))
        throw std::runtime_error("servebench: warm-up answer for " +
                                 r.naming.workload +
                                 " differs from its first answer");
    return res.outcome;
}

ServerCounters
ServerRig::counters()
{
    ServerCounters c;
    c.cache = server_->engine().results().stats();
    c.artifacts = server_->engine().artifacts().stats();
    c.server = server_->statsSnapshot();
    return c;
}

void
ServerRig::stop()
{
    if (server_)
        server_->stop();
}

ServedPass
serveClosedLoop(ServerRig &rig, const std::function<Request(u64)> &requestAt,
                PassLimit limit, AnswerBook &book, Tracer *tracer,
                PickupLog *pickups)
{
    using Clock = std::chrono::steady_clock;
    std::atomic<u64> next{0};
    std::atomic<u64> replies{0};
    std::atomic<u32> ready{0};
    std::vector<ServedPass> perClient(kClients);
    std::vector<std::vector<std::pair<u64, Sample>>> starts(kClients);
    ServedPass out;
    Clock::time_point start, deadline;
    const auto sample = [&] {
        Sample s;
        s.cpuSeconds = cpuSeconds();
        s.host = hostTicks();
        s.seconds = std::chrono::duration<double>(Clock::now() - start).count();
        return s;
    };

    const auto clientLoop = [&](u32 c) {
        ServedPass &mine = perClient[c];
        rfv::SimdClient &client = rig.client(c);
        // Start together: both clients' first requests meet the server
        // at once, as they do whenever a pass begins.
        ready.fetch_add(1);
        while (ready.load() < kClients)
            std::this_thread::yield();
        for (;;) {
            const u64 i = next.fetch_add(1);
            if ((limit.requests && i >= limit.requests) ||
                (limit.seconds > 0 && Clock::now() >= deadline))
                break;
            if (limit.block && i % limit.block == 0)
                starts[c].emplace_back(i / limit.block, sample());
            ++mine.attempted;
            Answer answer;
            answer.request = i;
            try {
                const Request r = requestAt(i);
                rfv::SweepJobResult res;
                std::string error;
                if (pickups)
                    pickups->sending(i);
                const i64 span = tracer ? tracer->open("net.run", i) : -1;
                const auto t0 = Clock::now();
                const rfv::ServiceStatus s =
                    client.run(r.naming, res, error);
                const auto t1 = Clock::now();
                if (tracer)
                    tracer->close(span);
                if (pickups)
                    pickups->answered(i);

                answer.latencyMs =
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count();
                if (replies.fetch_add(1) + 1 == limit.rssAfter)
                    mine.rssMiB = peakRssMiB();
                if (s != rfv::ServiceStatus::kOk || !res.ok()) {
                    throw std::runtime_error(
                        r.naming.workload + " " + r.naming.configName +
                        ": " + rfv::serviceStatusName(s) + " " + error +
                        res.error);
                }
                if (!book.record(r.key, res.outcome))
                    throw std::runtime_error(r.naming.workload + " " +
                                             r.naming.configName +
                                             ": answer differs");
                answer.ok = true;
                if (!res.fromCache) {
                    const rfv::LoopStats &l = res.outcome.loop;
                    mine.simulated.steppedCycles += l.steppedCycles;
                    mine.simulated.skippedCycles += l.skippedCycles;
                    mine.simulated.smStepsElided += l.smStepsElided;
                }
            } catch (const std::exception &e) {
                ++mine.failed;
                if (mine.errors.size() < kMaxErrors)
                    mine.errors.push_back(e.what());
            }
            if (answer.latencyMs > 0)
                mine.answers.push_back(answer);
        }
    };

    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(limit.seconds));
    {
        std::vector<rfv::Thread> threads;
        for (u32 c = 0; c < kClients; ++c)
            threads.emplace_back(clientLoop, c);
    }
    out.end = sample();
    out.wallSeconds = out.end.seconds;
    std::vector<std::pair<u64, Sample>> merged;
    for (u32 c = 0; c < kClients; ++c) {
        const ServedPass &p = perClient[c];
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.answers.insert(out.answers.end(), p.answers.begin(),
                           p.answers.end());
        out.rssMiB = std::max(out.rssMiB, p.rssMiB);
        out.simulated.steppedCycles += p.simulated.steppedCycles;
        out.simulated.skippedCycles += p.simulated.skippedCycles;
        out.simulated.smStepsElided += p.simulated.smStepsElided;
        for (const std::string &e : p.errors)
            if (out.errors.size() < kMaxErrors)
                out.errors.push_back(e);
        merged.insert(merged.end(), starts[c].begin(), starts[c].end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &entry : merged)
        out.blockStarts.push_back(entry.second);
    return out;
}

std::vector<rfv::RunOutcome>
matrixOutcomes(u32 numSms, u32 rounds, u32 threads)
{
    const std::vector<Request> jobs = matrixRequests(numSms, rounds);
    std::vector<rfv::RunOutcome> out(jobs.size());
    rfv::WorkStealingPool pool(threads);
    pool.run(static_cast<u32>(jobs.size()), [&](u32 i, u32) {
        const rfv::SweepJob job = jobFor(jobs[i].naming);
        out[i] = rfv::Simulator(job.config)
                     .runWorkload(*rfv::findWorkload(job.workload));
    });
    return out;
}

u64
checkOracle(const RequestStream &stream, const AnswerBook &book,
            const std::vector<rfv::RunOutcome> &matrix, u32 threads)
{
    const std::vector<u64> keys = book.keys();
    std::atomic<u64> differ{0};
    switch (stream.workload()) {
      case Workload::kPaperMatrix:
        for (const u64 k : keys)
            if (k >= matrix.size() || !book.matches(k, matrix[k]))
                differ.fetch_add(book.answers(k));
        break;
      case Workload::kWarmReplay:
        break;
      case Workload::kFuzzStream:
        for (size_t base = 0; base < keys.size(); base += kOracleChunk) {
            rfv::SweepOptions opts;
            opts.useCache = false;
            rfv::SweepEngine engine(opts);
            rfv::WorkStealingPool pool(threads);
            const size_t n = std::min(kOracleChunk, keys.size() - base);
            pool.run(static_cast<u32>(n), [&](u32 i, u32) {
                const u64 k = keys[base + i];
                const rfv::SweepJobResult res =
                    engine.execute(jobFor(stream.byKey(k).naming));
                if (!res.ok() || !book.matches(k, res.outcome))
                    differ.fetch_add(book.answers(k));
            });
        }
        break;
    }
    return differ.load();
}

Fidelity
fidelityOf(const std::function<const rfv::RunOutcome &(u64 key)> &outcome)
{
    const std::vector<std::string> &names = rfv::runConfigNames();
    const auto column = [&](const char *name) {
        return static_cast<u64>(
            std::find(names.begin(), names.end(), name) - names.begin());
    };
    const u64 base = column("baseline");
    const u64 shrink = column("shrink50");
    const u64 gating = column("shrink50-gating");
    const u64 kernels = rfv::allWorkloads().size();
    double slowdown = 0, energy = 0;
    for (u64 w = 0; w < kernels; ++w) {
        const u64 row = w * names.size();
        const rfv::RunOutcome &b = outcome(row + base);
        slowdown += 100.0 * (static_cast<double>(
                                 outcome(row + shrink).sim.cycles) /
                                 static_cast<double>(b.sim.cycles) -
                             1.0);
        energy += outcome(row + gating).energy.totalJ() / b.energy.totalJ();
    }
    const double n = static_cast<double>(kernels);
    return {slowdown / n, energy / n};
}

} // namespace servebench
