/**
 * @file
 * The benchmark's workloads: seeded request sequences for the `simd`
 * daemon.
 *
 *  - paper-matrix: the 16 Table-1 kernels x the 8 named configs at
 *    4 SMs x 3 rounds, repeated in passes, each pass shuffled by the
 *    seed.  The server's result cache is off, so every request
 *    simulates.
 *  - warm-replay: 256 keys (the 128 matrix jobs at 1 SM x 1 round plus
 *    128 fuzz-driver `gen:` scenarios), drawn Zipf(1) over a
 *    permutation chosen by the seed.  Every request is a cache hit.
 *  - fuzz-stream: fuzz-driver scenario i as request i.  Every request
 *    is a new program and a new key.
 *
 * The server receives only the generated requests; the sequences are
 * pure functions of (workload, seed, index).
 */
#ifndef SERVEBENCH_REQUESTS_H
#define SERVEBENCH_REQUESTS_H

#include <string>
#include <vector>

#include "service/request.h"

namespace servebench {

using rfv::u32;
using rfv::u64;

enum class Workload { kPaperMatrix, kWarmReplay, kFuzzStream };

/** Parse a --workload name; false when it names no workload. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** One request of a workload's sequence. */
struct Request {
    rfv::ServiceRequest naming;
    /** Distinct-job id: requests with equal keys get equal answers. */
    u64 key = 0;
};

/** The 16 Table-1 kernels x runConfigNames() at numSms x rounds. */
std::vector<Request> matrixRequests(u32 numSms, u32 rounds);

/**
 * A workload's request sequence.  at() is const and pure, so the
 * client threads share one stream.
 */
class RequestStream {
  public:
    RequestStream(Workload w, u64 seed);

    Workload workload() const { return workload_; }
    u64 seed() const { return seed_; }

    /** Request @p i of the sequence. */
    Request at(u64 i) const;

    /**
     * The distinct jobs behind the keys: the 128 matrix jobs
     * (paper-matrix) or the 256 replay keys (warm-replay), indexed by
     * key.  Empty for fuzz-stream, whose keys never repeat.
     */
    const std::vector<Request> &keys() const { return keys_; }

    /**
     * warm-replay only: every key once, least popular first, so the
     * most popular keys are the ones resident in the memory tier when
     * measuring starts.
     */
    std::vector<Request> coldToHot() const;

    /**
     * fuzz-stream only: the scenarios sent before measuring, one per
     * palette config, from a fixed root rather than the seed, so every
     * seed sets up the same work.  Their keys start at kFuzzWarmupKey.
     */
    const std::vector<Request> &fuzzWarmup() const { return warmup_; }

    /** The request behind @p key, fuzz-stream's warm-up keys included. */
    Request byKey(u64 key) const;

    /** Number of keys in warm-replay's key set. */
    static constexpr u32 kReplayKeys = 256;

    /** First key of fuzz-stream's warm-up; measuring never gets there. */
    static constexpr u64 kFuzzWarmupKey = 1ull << 40;

  private:
    Workload workload_;
    u64 seed_;
    std::vector<Request> keys_;
    std::vector<Request> warmup_; //!< fuzz-stream warm-up
    std::vector<u32> rankToKey_; //!< warm-replay popularity permutation
    std::vector<double> zipfCdf_; //!< warm-replay rank CDF
};

} // namespace servebench

#endif // SERVEBENCH_REQUESTS_H
