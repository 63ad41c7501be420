#include "replay.h"

#include <optional>

#include "common/error.h"
#include "core/simulator.h"
#include "net/protocol.h"
#include "service/version.h"
#include "sim/gpu.h"

namespace servebench {

Replayer::Replayer(const rfv::SweepOptions &opts, Tracer &tracer)
    : useCache_(opts.useCache), engine_(opts), t_(tracer)
{
}

void
Replayer::warmUp(const RequestStream &stream)
{
    std::vector<Request> warm;
    switch (stream.workload()) {
      case Workload::kPaperMatrix:
        for (const Request &r : stream.keys()) {
            rfv::SweepJob job;
            std::string error;
            rfv::buildJob(r.naming, job, error);
            engine_.prepare(job);
        }
        return;
      case Workload::kWarmReplay:
        // The disk tier was filled by the served warm-up in the same
        // directory; only the measured server's own pass remains.
        warm = stream.coldToHot();
        break;
      case Workload::kFuzzStream:
        warm = stream.fuzzWarmup();
        break;
    }
    for (const Request &r : warm) {
        rfv::SweepJob job;
        std::string error;
        rfv::buildJob(r.naming, job, error);
        engine_.execute(job);
    }
}

rfv::SweepJobResult
Replayer::replay(const Request &r, u64 id)
{
    const ScopedSpan root(t_, "request", id, -1);
    rfv::SweepJobResult res;
    std::string error;
    rfv::SweepJob job;
    const rfv::ServiceStatus s = rfv::buildJob(r.naming, job, error);
    if (s != rfv::ServiceStatus::kOk) {
        res.status = s;
        res.error = error;
    } else {
        // SweepEngine::execute's classification, around runOne.
        try {
            const ScopedSpan find(t_, "workloads.find", id, root.id());
            rfv::findWorkload(job.workload);
        } catch (const rfv::ConfigError &e) {
            res.job = job;
            res.status = rfv::ServiceStatus::kUnknownWorkload;
            res.error = e.what();
        }
        if (res.ok()) {
            try {
                res = runOne(job, r.naming.configName, id, root.id());
            } catch (const rfv::ConfigError &e) {
                res.job = job;
                res.status = rfv::ServiceStatus::kBadConfig;
                res.error = e.what();
            } catch (const std::exception &e) {
                res.job = job;
                res.status = rfv::ServiceStatus::kInternalError;
                res.error = e.what();
            }
        }
    }

    // The RESULT codec, both directions, as server and client run it.
    rfv::SweepJobResult answer;
    {
        const ScopedSpan codec(t_, "net.codec", id, root.id());
        const std::string payload = rfv::encodeResult(res).encode();
        rfv::Message msg;
        if (!rfv::Message::decode(payload, msg, error) ||
            rfv::decodeResult(msg, answer, error) ==
                rfv::ServiceStatus::kBadRequest) {
            answer.status = rfv::ServiceStatus::kInternalError;
            answer.error = "RESULT codec: " + error;
        }
        resultBytes_ += payload.size();
    }
    ++answers_;
    return answer;
}

rfv::SweepJobResult
Replayer::runOne(const rfv::SweepJob &job, const std::string &configName,
                 u64 id, i64 root)
{
    rfv::ArtifactStore &store = engine_.artifacts();
    rfv::ResultCache &cache = engine_.results();
    const auto span = [&](const char *name, i64 parent) {
        return ScopedSpan(t_, name, id, parent);
    };

    rfv::SweepJobResult res;
    res.job = job;

    std::shared_ptr<rfv::Workload> wl;
    {
        const auto s = span("workloads.find", root);
        wl = rfv::findWorkload(job.workload);
    }
    const rfv::GpuConfig gpu = rfv::Simulator(job.config).gpuConfig();
    const rfv::LaunchParams launch =
        wl->scaledLaunch(job.config.numSms, job.config.roundsPerSm);
    std::shared_ptr<const rfv::InputArtifact> input;
    {
        const auto s = span("isa.program", root);
        input = store.inputProgram(wl->name(),
                                   [&wl]() { return wl->buildKernel(); });
    }
    const rfv::Hash128 key =
        rfv::resultKey(wl->name(), input->hash,
                       rfv::canonicalConfigHash(job.config, gpu), launch,
                       rfv::kSimulatorVersion);
    res.key = key.hex();

    if (useCache_) {
        const rfv::ResultCache::Stats before = cache.stats();
        const i64 lookup = t_.open("cache.lookup", id, root);
        std::optional<rfv::RunOutcome> hit = cache.lookup(key);
        t_.close(lookup);
        const rfv::ResultCache::Stats after = cache.stats();
        t_.rename(lookup, after.memoryHits > before.memoryHits
                              ? "cache.lookup_memory"
                          : after.diskHits > before.diskHits
                              ? "cache.lookup_disk"
                              : "cache.lookup_miss");
        if (hit) {
            res.outcome = std::move(*hit);
            res.outcome.workload = wl->name();
            res.outcome.configLabel = job.config.label;
            res.fromCache = true;
            return res;
        }
    }

    // SweepEngine::prepare, call by call.
    rfv::PreparedJob p;
    {
        const auto prep = span("service.prepare", root);
        const i64 parent = prep.id();
        p.job = job;
        {
            const auto s = span("workloads.find", parent);
            p.workload = rfv::findWorkload(job.workload);
        }
        const rfv::Simulator sim(job.config);
        p.gpu = sim.gpuConfig();
        p.launch = p.workload->scaledLaunch(job.config.numSms,
                                            job.config.roundsPerSm);
        const rfv::Workload &w = *p.workload;
        {
            const auto s = span("isa.program", parent);
            p.input = store.inputProgram(
                w.name(), [&w]() { return w.buildKernel(); });
        }
        p.key = rfv::resultKey(w.name(), p.input->hash,
                               rfv::canonicalConfigHash(job.config, p.gpu),
                               p.launch, rfv::kSimulatorVersion);
        const u32 resident =
            p.launch.warpsPerCta() *
            std::min(p.launch.concCtasPerSm, p.gpu.maxCtasPerSm);
        rfv::CompileOptions copts = sim.compileOptions(resident);
        if (job.config.compilerSpill)
            copts.spillRegBudget =
                sim.spillBudget(p.input->program.numRegs, p.launch);
        {
            const auto s = span("compiler.compile", parent);
            p.compiled = store.compiled(p.input, copts);
        }
        if (job.config.verifyReleases) {
            const auto s = span("analysis.verify", parent);
            p.verify = store.verifyFor(p.compiled);
        }
        {
            const auto s = span("sim.decode_build", parent);
            p.decode = store.decode(p.compiled, p.gpu);
        }
    }

    // SweepEngine::executeLive, call by call.
    rfv::RunOutcome &out = res.outcome;
    out.workload = p.workload->name();
    out.configLabel = job.config.label;
    out.launch = p.launch;
    out.compile = p.compiled->kernel.stats;
    if (p.verify) {
        out.verified = true;
        out.verify = *p.verify;
    }
    std::optional<rfv::GlobalMemory> mem;
    {
        const auto s = span("workloads.setup", root);
        mem.emplace(p.workload->memoryBytes(p.launch));
        p.workload->setup(*mem, p.launch);
    }
    std::optional<rfv::Gpu> machine;
    {
        const auto s = span("sim.gpu_ctor", root);
        machine.emplace(p.gpu, p.compiled->kernel.program, p.launch, *mem,
                        rfv::TraceHooks{}, &p.decode->cache);
    }
    {
        const i64 run = t_.open("sim.run", id, root);
        const i64 t0 = t_.now();
        out.sim = machine->run();
        RunRate &rate = runRates_[configName];
        rate.runNs += t_.now() - t0;
        rate.cycles += out.sim.cycles;
        t_.close(run);
    }
    out.loop = machine->loopStats();
    simulated_.steppedCycles += out.loop.steppedCycles;
    simulated_.skippedCycles += out.loop.skippedCycles;
    simulated_.smStepsElided += out.loop.smStepsElided;
    {
        const auto s = span("power.energy", root);
        rfv::EnergyParams ep;
        ep.clockGhz = p.gpu.clockGhz;
        out.energy = rfv::computeEnergy(out.sim, p.gpu, ep);
    }
    {
        const auto s = span("workloads.verify", root);
        p.workload->verify(*mem, p.launch);
    }
    if (useCache_) {
        const auto s = span("cache.store", root);
        cache.store(key, out);
    }
    return res;
}

rfv::LoopProfile
Replayer::profile(const std::vector<Request> &jobs)
{
    rfv::LoopProfile prof;
    for (const Request &r : jobs) {
        rfv::SweepJob job;
        std::string error;
        if (rfv::buildJob(r.naming, job, error) != rfv::ServiceStatus::kOk)
            continue;
        const rfv::PreparedJob p = engine_.prepare(job);
        rfv::GlobalMemory mem(p.workload->memoryBytes(p.launch));
        p.workload->setup(mem, p.launch);
        rfv::TraceHooks hooks;
        hooks.loopProfile = &prof;
        rfv::Gpu machine(p.gpu, p.compiled->kernel.program, p.launch, mem,
                         hooks, &p.decode->cache);
        machine.run();
    }
    return prof;
}

} // namespace servebench
