/**
 * @file
 * In-process replay of served requests through the calls the served
 * path is made of, each one a span.
 *
 * The replay issues, in SweepEngine::execute/runOne's order:
 * findWorkload (existence check), findWorkload, the ArtifactStore
 * input-program getter, ResultCache::lookup, then on a miss the
 * prepare sequence (findWorkload, the input-program, compiled,
 * verifyFor and decode getters), GlobalMemory + Workload::setup, the
 * Gpu constructor, Gpu::run, computeEnergy, Workload::verify and
 * ResultCache::store; then the RESULT codec (encodeResult,
 * Message::encode, Message::decode, decodeResult).  The engine is
 * configured like the server's, so the ArtifactStore and ResultCache
 * counters of a replay are those of the served run.
 */
#ifndef SERVEBENCH_REPLAY_H
#define SERVEBENCH_REPLAY_H

#include <map>
#include <string>
#include <vector>

#include "requests.h"
#include "service/sweep.h"
#include "sim/loop_profiler.h"
#include "trace.h"

namespace servebench {

/** Host time of Gpu::run and the cycles it simulated, per config. */
struct RunRate {
    u64 cycles = 0;
    i64 runNs = 0;
};

class Replayer {
  public:
    /** @p opts: the served engine's options (cache dir, budget, ...). */
    Replayer(const rfv::SweepOptions &opts, Tracer &tracer);

    /** The in-process twin of ServerRig's warm-up for @p stream. */
    void warmUp(const RequestStream &stream);

    /**
     * Replay @p r as request @p id under a "request" root span and
     * return the decoded answer, as a client would receive it.
     */
    rfv::SweepJobResult replay(const Request &r, u64 id);

    /**
     * Run each job once more with a LoopProfile attached (its own
     * pass: the profile reads the clock in every Sm::step).
     */
    rfv::LoopProfile profile(const std::vector<Request> &jobs);

    rfv::SweepEngine &engine() { return engine_; }

    const rfv::LoopStats &simulated() const { return simulated_; }
    const std::map<std::string, RunRate> &runRates() const
    {
        return runRates_;
    }
    u64 resultBytes() const { return resultBytes_; }
    u64 answers() const { return answers_; }

  private:
    rfv::SweepJobResult runOne(const rfv::SweepJob &job,
                               const std::string &configName, u64 id,
                               i64 root);

    const bool useCache_;
    rfv::SweepEngine engine_;
    Tracer &t_;
    rfv::LoopStats simulated_;
    std::map<std::string, RunRate> runRates_;
    u64 resultBytes_ = 0;
    u64 answers_ = 0;
};

} // namespace servebench

#endif // SERVEBENCH_REPLAY_H
