/**
 * @file
 * Statistics, process counters and the result line.
 */
#ifndef SERVEBENCH_REPORT_H
#define SERVEBENCH_REPORT_H

#include <string>
#include <vector>

#include "common/types.h"

namespace servebench {

using rfv::u64;

/** Quantile @p q in [0, 1], interpolating between ranks; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Process user + system CPU seconds so far (getrusage). */
double cpuSeconds();

/** Peak resident set of the process (VmHWM) in MiB; 0 if unreadable. */
double peakRssMiB();

/** Host-wide CPU time counters from /proc/stat, in clock ticks. */
struct HostTicks {
    u64 steal = 0; //!< time the hypervisor ran something else
    u64 total = 0;
};

/** Current host-wide ticks; zeros if unreadable. */
HostTicks hostTicks();

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The result line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * with every value printed to full precision.
 */
std::string resultJson(bool correct, u64 attempted, u64 failed,
                       const std::vector<Metric> &metrics);

} // namespace servebench

#endif // SERVEBENCH_REPORT_H
