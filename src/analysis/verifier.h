/**
 * @file
 * Static release-flag soundness verifier.
 *
 * The virtualization scheme is only correct if the compiler's pir/pbr
 * release flags are *sound*: one early release and the renamer frees a
 * physical register that a straggler lane still reads.  This verifier
 * independently re-derives register liveness from a compiled program —
 * its own backward dataflow, deliberately sharing no code with the
 * compiler's liveness pass — and checks every release point against
 * the soundness invariants:
 *
 *  1. No pir/pbr release frees a register that is still live on any
 *     CFG path from the release point (use-after-release).
 *  2. No release frees a register inside the divergent region of a
 *     forward branch when a sibling path or the reconvergence point
 *     still carries the value (SIMT serial re-execution hazard), and
 *     no release inside a natural loop frees a register that is live
 *     at any loop exit (early-exited lanes keep their value in the
 *     same warp-wide physical register).
 *  3. No register is released twice on a path without an intervening
 *     redefinition (a definite double release is an error; a possible
 *     one — on some but not all paths — is reported as a warning, as
 *     the hardware treats releasing an absent mapping as a no-op).
 *  4. Renaming-exempt registers (ids below Program::numExemptRegs)
 *     never appear in release metadata.
 *  5. Metadata payloads are canonical: pir/pbr encodings round-trip
 *     through the 18x3-bit / 9x6-bit slot limits, every pir slot
 *     agrees with the authoritative Instr::pirMask of the instruction
 *     it covers, and no slot points past its basic block.
 *
 * Registers that die without ever being released leak until CTA
 * completion; leaks cost occupancy, not correctness, so they are
 * reported as diagnostics (warnings), never errors.
 */
#ifndef RFV_ANALYSIS_VERIFIER_H
#define RFV_ANALYSIS_VERIFIER_H

#include <string>
#include <vector>

#include "isa/program.h"

namespace rfv {

/** What a diagnostic is about. */
enum class VerifyKind : u8 {
    kUseAfterRelease,   //!< released register still live on some path
    kReleaseOfDef,      //!< pir frees the value its own instruction writes
    kSimtUnsafeRelease, //!< divergent-region release with a live sibling/join
    kLoopUnsafeRelease, //!< in-loop release of a register live at a loop exit
    kDoubleRelease,     //!< released again without intervening redefinition
    kVacuousRelease,    //!< release of a register never written on any path
    kLeakedRegister,    //!< dead register never released on some path
    kExemptRelease,     //!< release metadata names a renaming-exempt register
    kBadEncoding,       //!< payload fails round-trip / slot-limit checks
    kBadMetadata,       //!< pir slots disagree with instruction flags
};

/** Errors make the program unsound; warnings are quality diagnostics. */
enum class VerifySeverity : u8 { kError, kWarning };

/** Name of a diagnostic kind (stable, used in reports). */
const char *verifyKindName(VerifyKind kind);

/** One finding, anchored to a release or metadata point. */
struct VerifyDiag {
    VerifyKind kind;
    VerifySeverity severity;
    u32 pc = kInvalidPc;  //!< program counter of the finding
    u32 reg = kInvalidPc; //!< architected register involved (or none)
    std::string message;

    /** Stable identity for diffing runs (mutation testing). */
    u64 key() const;

    /** One-line rendering: "error[use-after-release] pc 12 r3: ...". */
    std::string str() const;

    bool operator==(const VerifyDiag &) const = default;
};

/** Outcome of one verification run. */
struct VerifyResult {
    std::vector<VerifyDiag> diags;
    u32 releasesChecked = 0; //!< release events examined
    u32 numErrors = 0;
    u32 numWarnings = 0;

    /** True when no *error* was found (warnings allowed). */
    bool ok() const { return numErrors == 0; }

    /** All diagnostics, one per line (empty string when clean). */
    std::string str() const;

    /**
     * The error diagnostics, one per line, then the number of
     * warnings: a failure report that leads with what made the
     * program unsound, however many warnings precede it in program
     * order.
     */
    std::string errorSummary() const;

    bool operator==(const VerifyResult &) const = default;
};

/**
 * Verify a compiled program's release metadata.  Programs without
 * release metadata (baseline compilation) pass trivially: there is
 * nothing to release and nothing that can leak early.
 */
VerifyResult verifyReleaseSoundness(const Program &prog);

} // namespace rfv

#endif // RFV_ANALYSIS_VERIFIER_H
