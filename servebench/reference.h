/**
 * @file
 * Fidelity reference: the paper's two headline results and what this
 * model reproduces for them.
 *
 * Source: H. Jeon, G. S. Ravi, N. S. Kim, M. Annavaram, "GPU Register
 * File Virtualization", MICRO-48 (2015), DOI 10.1145/2830772.2830784.
 */
#ifndef SERVEBENCH_REFERENCE_H
#define SERVEBENCH_REFERENCE_H

namespace servebench {

/**
 * Paper Fig. 11(a): GPU-shrink with a 64 KB register file (half the
 * 128 KB baseline) increases execution cycles by 0.58% on average.
 */
inline constexpr double kPaperShrinkSlowdownPct = 0.58;

/**
 * Paper Fig. 12: GPU-shrink plus subarray power gating saves 42% of
 * register-file energy on average against the 128 KB baseline.
 */
inline constexpr double kPaperRfEnergySavingPct = 42.0;

/**
 * What bench/fig11a_shrink_vs_spill prints as the GPU-shrink AVG (%)
 * at its default 4 SMs x 3 rounds, to the 2 decimals it prints.
 */
inline constexpr double kModelShrinkSlowdownPct = 2.90;

/**
 * What bench/fig12_energy_breakdown prints as the AVG total of
 * "64KB (50%) RF w/ PG" at 4 SMs x 3 rounds, to the 3 decimals it
 * prints.
 */
inline constexpr double kModelRfEnergyRatio = 0.298;

} // namespace servebench

#endif // SERVEBENCH_REFERENCE_H
