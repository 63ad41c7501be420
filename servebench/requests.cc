#include "requests.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "gen/fuzz.h"
#include "workloads/workload.h"

namespace servebench {
namespace {

/**
 * fuzz-stream's warm-up scenarios come from this fixed root, not from
 * the run's seed, so every seed sets up the same work.
 */
constexpr u64 kFuzzWarmupRoot = 0x5e7b;

/** The four configs of the fuzz driver's palette. */
constexpr const char *kPaletteNames[] = {"baseline", "virtualized",
                                         "virtualized-gating", "shrink50"};

/** warm-replay draws its popularity permutation and ranks from these. */
constexpr u64 kStreamPermutation = 0;
constexpr u64 kStreamDraws = 1;

/** The named config whose RunConfig the fuzz palette picked. */
std::string
paletteName(const rfv::RunConfig &cfg)
{
    for (const char *name : kPaletteNames) {
        rfv::RunConfig named;
        rfv::runConfigByName(name, named);
        if (named.label == cfg.label)
            return name;
    }
    rfv::fatal("servebench: fuzz palette config '" + cfg.label +
               "' has no named config");
}

/**
 * Scenario @p index of root @p seed exactly as the fuzz driver derives
 * it (no fault injection): its `gen:` name, its palette config, and
 * verifyReleases=1 wherever the fuzzer sets it.
 */
rfv::ServiceRequest
fuzzRequest(u64 seed, u64 index)
{
    const rfv::FuzzScenario sc = rfv::deriveScenario(seed, index, 0);
    rfv::ServiceRequest req;
    req.workload = sc.spec.name();
    req.configName = paletteName(sc.config);
    if (sc.config.verifyReleases)
        req.overrides.emplace_back("verifyReleases", "1");
    return req;
}

/** Fisher-Yates shuffle of 0..n-1 driven by @p rng. */
std::vector<u32>
permutation(u32 n, rfv::Rng rng)
{
    std::vector<u32> p(n);
    for (u32 i = 0; i < n; ++i)
        p[i] = i;
    for (u32 i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::kPaperMatrix, Workload::kWarmReplay,
                       Workload::kFuzzStream}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::kPaperMatrix: return "paper-matrix";
      case Workload::kWarmReplay: return "warm-replay";
      case Workload::kFuzzStream: return "fuzz-stream";
    }
    return "?";
}

std::vector<Request>
matrixRequests(u32 numSms, u32 rounds)
{
    std::vector<Request> out;
    for (const auto &w : rfv::allWorkloads()) {
        for (const std::string &config : rfv::runConfigNames()) {
            Request r;
            r.naming.workload = w->name();
            r.naming.configName = config;
            r.naming.overrides = {{"numSms", std::to_string(numSms)},
                                  {"roundsPerSm", std::to_string(rounds)}};
            r.key = out.size();
            out.push_back(std::move(r));
        }
    }
    return out;
}

RequestStream::RequestStream(Workload w, u64 seed)
    : workload_(w), seed_(seed)
{
    if (w == Workload::kPaperMatrix) {
        keys_ = matrixRequests(4, 3);
    } else if (w == Workload::kWarmReplay) {
        keys_ = matrixRequests(1, 1);
        const u64 matrixKeys = keys_.size();
        while (keys_.size() < kReplayKeys) {
            Request r;
            r.naming = fuzzRequest(seed, keys_.size() - matrixKeys);
            r.key = keys_.size();
            keys_.push_back(std::move(r));
        }
        const rfv::SeedSeq root(seed);
        rankToKey_ = permutation(kReplayKeys,
                                 root.child(kStreamPermutation).rng());
        // Zipf(1): rank r (1-based) has weight 1/r.
        double sum = 0;
        for (u32 r = 1; r <= kReplayKeys; ++r) {
            sum += 1.0 / r;
            zipfCdf_.push_back(sum);
        }
        for (double &c : zipfCdf_)
            c /= sum;
    } else {
        // The first scenario of each palette config in the fixed root's
        // sequence.
        for (const char *name : kPaletteNames) {
            for (u64 j = 0;; ++j) {
                Request r;
                r.naming = fuzzRequest(kFuzzWarmupRoot, j);
                if (r.naming.configName != name)
                    continue;
                r.key = kFuzzWarmupKey + warmup_.size();
                warmup_.push_back(std::move(r));
                break;
            }
        }
    }
}

Request
RequestStream::at(u64 i) const
{
    switch (workload_) {
      case Workload::kPaperMatrix: {
        const u64 n = keys_.size();
        const auto order = permutation(
            static_cast<u32>(n), rfv::SeedSeq(seed_).child(i / n).rng());
        return keys_[order[i % n]];
      }
      case Workload::kWarmReplay: {
        rfv::Rng rng =
            rfv::SeedSeq(seed_).child(kStreamDraws).child(i).rng();
        const double u =
            static_cast<double>(rng.next64() >> 11) * 0x1.0p-53;
        const auto it =
            std::upper_bound(zipfCdf_.begin(), zipfCdf_.end(), u);
        const size_t rank = std::min<size_t>(it - zipfCdf_.begin(),
                                             zipfCdf_.size() - 1);
        return keys_[rankToKey_[rank]];
      }
      case Workload::kFuzzStream:
        break;
    }
    Request r;
    r.naming = fuzzRequest(seed_, i);
    r.key = i;
    return r;
}

std::vector<Request>
RequestStream::coldToHot() const
{
    std::vector<Request> out;
    for (u32 rank = kReplayKeys; rank-- > 0;)
        out.push_back(keys_[rankToKey_[rank]]);
    return out;
}

Request
RequestStream::byKey(u64 key) const
{
    if (workload_ != Workload::kFuzzStream)
        return keys_.at(key);
    if (key >= kFuzzWarmupKey)
        return warmup_.at(key - kFuzzWarmupKey);
    return at(key);
}

} // namespace servebench
