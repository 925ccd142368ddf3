#include "pulse/library.h"

#include "common/error.h"
#include "common/units.h"

namespace qzz::pulse {

std::string
pulseGateName(PulseGate g)
{
    switch (g) {
    case PulseGate::SX:
        return "Rx(pi/2)";
    case PulseGate::Identity:
        return "I";
    case PulseGate::RZX:
        return "Rzx(pi/2)";
    }
    return "?";
}

void
PulseLibrary::set(PulseGate g, PulseProgram p)
{
    programs_[g] = std::move(p);
}

const PulseProgram &
PulseLibrary::get(PulseGate g) const
{
    auto it = programs_.find(g);
    // Message built only on failure: get() sits on simulator hot
    // paths, and eager concatenation allocated several strings per
    // successful lookup.
    if (it == programs_.end())
        fatal("PulseLibrary '" + name_ + "': no program for " +
              pulseGateName(g));
    return it->second;
}

PulseLibrary
PulseLibrary::gaussian(double t_gate)
{
    require(t_gate > 0.0, "gaussian library: bad duration");
    PulseLibrary lib("Gaussian");
    const double sigma = t_gate / 4.0;

    // Rotation angle theta = 2 * integral(Omega) for H = Omega sigma_x.
    auto envelope = [&](double angle) {
        return std::make_shared<GaussianWaveform>(
            GaussianWaveform::withArea(angle / 2.0, t_gate, sigma));
    };

    lib.set(PulseGate::SX,
            PulseProgram::singleQubit(envelope(kPi / 2.0), nullptr));
    lib.set(PulseGate::Identity,
            PulseProgram::singleQubit(envelope(2.0 * kPi), nullptr));
    // Rzx(pi/2) = exp(-i pi/4 Z(x)X): coupling channel area pi/4.
    lib.set(PulseGate::RZX,
            PulseProgram::twoQubit(nullptr, nullptr, nullptr, nullptr,
                                   envelope(kPi / 2.0)));
    return lib;
}

} // namespace qzz::pulse
