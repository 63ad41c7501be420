#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace servebench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0;
}

HostTicks
hostTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    HostTicks t;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        u64 v = 0;
        if (!(stat >> v))
            return {};
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

std::string
resultJson(bool correct, u64 attempted, u64 failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace servebench
