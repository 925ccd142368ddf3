/**
 * @file
 * Pulse libraries: the mapping from native gates to pulse programs.
 *
 * The paper compiles to the IBMQ native set {Rz(theta), Rx(pi/2),
 * Rzx(pi/2)} plus an explicit identity I = Rx(2 pi) used for
 * crosstalk-suppressing supplementation (Sec. 7.1.2).  Rz is virtual
 * (software frame change) and has no pulses; the three physical gates
 * each get a PulseProgram.
 *
 * gaussianLibrary() builds the unoptimized baseline used on current
 * devices; the optimizers in qzz::core fill libraries for OptCtrl,
 * Pert and DCG.
 */

#ifndef QZZ_PULSE_LIBRARY_H
#define QZZ_PULSE_LIBRARY_H

#include <map>
#include <string>

#include "pulse/program.h"

namespace qzz::pulse {

/** The physical (pulse-backed) native gates. */
enum class PulseGate
{
    /** Rx(pi/2), the sqrt-X gate. */
    SX,
    /** The explicit identity Rx(2 pi) used for supplementation. */
    Identity,
    /** Rzx(pi/2), the cross-resonance two-qubit gate. */
    RZX,
};

/** Human-readable gate name. */
std::string pulseGateName(PulseGate g);

/** A named collection of pulse programs, one per physical gate. */
class PulseLibrary
{
  public:
    PulseLibrary() = default;
    explicit PulseLibrary(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Install/replace the program for a gate. */
    void set(PulseGate g, PulseProgram p);

    /** True if the gate has a program installed. */
    bool has(PulseGate g) const { return programs_.count(g) > 0; }

    /** Fetch a program; fatal() if missing. */
    const PulseProgram &get(PulseGate g) const;

    /**
     * The baseline library: Gaussian envelopes (sigma = T/4),
     * calibrated by pulse area.  Not optimized for ZZ crosstalk.
     *
     * @param t_gate gate duration in ns (paper: 20 ns).
     */
    static PulseLibrary gaussian(double t_gate = 20.0);

  private:
    std::string name_;
    std::map<PulseGate, PulseProgram> programs_;
};

} // namespace qzz::pulse

#endif // QZZ_PULSE_LIBRARY_H
