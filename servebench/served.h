/**
 * @file
 * The served path: an in-process SimdServer with 2 executors, 2
 * closed-loop SimdClient connections, each workload's warm-up, and the
 * answer checks.
 */
#ifndef SERVEBENCH_SERVED_H
#define SERVEBENCH_SERVED_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "report.h"
#include "requests.h"
#include "trace.h"

namespace servebench {

/**
 * Expected answers.  The first answer recorded for a key is kept (in
 * full, or as a digest of its RESULT codec bytes when keys never
 * repeat); every later answer for the key must equal it.
 */
class AnswerBook {
  public:
    explicit AnswerBook(bool keepOutcomes) : keepOutcomes_(keepOutcomes) {}

    /** Record @p o for @p key, or compare it with the recorded answer. */
    bool record(u64 key, const rfv::RunOutcome &o);

    /** True when @p o equals the answer recorded for @p key. */
    bool matches(u64 key, const rfv::RunOutcome &o) const;

    std::vector<u64> keys() const;

    /** Answers recorded for @p key, the first included. */
    u64 answers(u64 key) const;

  private:
    const bool keepOutcomes_;
    mutable rfv::Mutex mu_;
    std::map<u64, u64> answers_ RFV_GUARDED_BY(mu_);
    std::map<u64, rfv::RunOutcome> outcomes_ RFV_GUARDED_BY(mu_);
    std::map<u64, rfv::Hash128> digests_ RFV_GUARDED_BY(mu_);
};

/**
 * Attributes executeHook calls to requests.  The hook carries no job,
 * so pickups are matched first-in first-out to the requests clients
 * are waiting on: exact with one request in flight, and with two sent
 * together at worst swapped between those two.
 */
class PickupLog {
  public:
    explicit PickupLog(Tracer &t) : t_(t) {}

    void sending(u64 request);  //!< client: about to send RUN
    void executing();           //!< executeHook
    void answered(u64 request); //!< client: answer arrived

  private:
    Tracer &t_;
    rfv::Mutex mu_;
    std::deque<u64> waiting_ RFV_GUARDED_BY(mu_);
};

/** A server's public counters at one moment. */
struct ServerCounters {
    rfv::ResultCache::Stats cache;
    rfv::ArtifactStore::Stats artifacts;
    rfv::SimdServer::Stats server;
};

/**
 * One set-up server with 2 executors and 2 connected clients: created,
 * started, connected and warmed up by the constructor, stopped and its
 * cache directory removed by the destructor.
 *
 * Warm-up per workload:
 *  - paper-matrix: engine().prepare on all 128 jobs;
 *  - warm-replay: a first server (unbounded memory tier) answers every
 *    key once, and those answers become the oracle; its write-behind
 *    queue is drained and it stops.  The measured server opens the
 *    same directory with a memory tier of 40% of the key set's
 *    bytes, and answers every key once more, least popular
 *    first;
 *  - fuzz-stream: one scenario per palette config, the same for every
 *    seed and never among the measured ones.
 */
class ServerRig {
  public:
    ServerRig(const RequestStream &stream, std::string cacheDir,
              AnswerBook &book, PickupLog *pickups = nullptr);
    ~ServerRig();

    ServerRig(const ServerRig &) = delete;
    ServerRig &operator=(const ServerRig &) = delete;

    rfv::SimdClient &client(u32 i) { return *clients_[i]; }

    /** The measured server's engine options (a replay engine's too). */
    const rfv::SweepOptions &sweepOptions() const { return sweep_; }

    ServerCounters counters();

    /** Stop the server: admitted jobs finish, disk publishes land. */
    void stop();

  private:
    void startServer(PickupLog *pickups);
    void connectClients();
    rfv::RunOutcome warmRequest(const Request &r);

    std::string cacheDir_;
    AnswerBook &book_;
    rfv::SweepOptions sweep_;
    std::unique_ptr<rfv::SimdServer> server_;
    std::vector<std::unique_ptr<rfv::SimdClient>> clients_;
};

/** One reply as the client saw it. */
struct Answer {
    u64 request = 0;      //!< index in the sequence
    double latencyMs = 0; //!< RUN sent -> RESULT decoded
    bool ok = false;      //!< status OK and equal to the book
};

/** Clocks read at one moment of a pass. */
struct Sample {
    double seconds = 0;    //!< since the pass started
    double cpuSeconds = 0; //!< process CPU
    HostTicks host;        //!< host-wide counters
};

/** Outcome of one closed-loop pass. */
struct ServedPass {
    u64 attempted = 0;
    u64 failed = 0;
    double wallSeconds = 0;
    std::vector<Answer> answers; //!< one per reply, in no fixed order
    /**
     * With PassLimit::block: sample k was read when request k * block
     * was handed out.  Block k runs from sample k to sample k + 1.
     */
    std::vector<Sample> blockStarts;
    Sample end;                      //!< read after the last reply
    double rssMiB = 0;               //!< VmHWM at answer PassLimit::rssAfter
    rfv::LoopStats simulated;        //!< summed over answers not from cache
    std::vector<std::string> errors; //!< first few failure diagnostics
};

/** When a pass stops taking new requests, and what it samples. */
struct PassLimit {
    u64 requests = 0;   //!< 0 = no count limit
    double seconds = 0; //!< 0 = no time limit
    u64 block = 0;      //!< sample at every this many requests (0 = never)
    u64 rssAfter = 0;   //!< read VmHWM when this many answers arrived
};

/**
 * Closed loop: each of the rig's clients sends request i (a shared
 * counter hands out i = 0, 1, 2, ...) and sends the next only after
 * the answer arrived.  An answer fails when its status is not OK or
 * it differs from @p book.  With @p tracer, each SimdClient::run is a
 * "net.run" span.
 */
ServedPass serveClosedLoop(ServerRig &rig,
                           const std::function<Request(u64)> &requestAt,
                           PassLimit limit, AnswerBook &book,
                           Tracer *tracer = nullptr,
                           PickupLog *pickups = nullptr);

/** Simulator::runWorkload of every matrix job, indexed by key. */
std::vector<rfv::RunOutcome> matrixOutcomes(u32 numSms, u32 rounds,
                                            u32 threads);

/**
 * Compare every answer in @p book with the workload's oracle:
 * paper-matrix with @p matrix (Simulator::runWorkload per job),
 * fuzz-stream with an in-process SweepEngine::execute of the same job.
 * warm-replay's book already is its oracle.  Returns the number of
 * recorded answers whose key's answer differs from the oracle.
 */
u64 checkOracle(const RequestStream &stream, const AnswerBook &book,
                const std::vector<rfv::RunOutcome> &matrix, u32 threads);

/** The paper's two headline figures, as this model reproduces them. */
struct Fidelity {
    /** Fig. 11(a): mean shrink50 cycle increase over baseline, in %. */
    double shrinkSlowdownPct = 0;
    /** Fig. 12: mean shrink50-gating energy / baseline energy. */
    double rfEnergyRatio = 0;
};

/** Fidelity of matrix outcomes given by key (matrixRequests order). */
Fidelity fidelityOf(
    const std::function<const rfv::RunOutcome &(u64 key)> &outcome);

} // namespace servebench

#endif // SERVEBENCH_SERVED_H
