#include "core/framework.h"

#include "common/error.h"
#include "common/strings.h"

namespace qzz::core {

std::string
schedPolicyName(SchedPolicy p)
{
    switch (p) {
    case SchedPolicy::Par:
        return "ParSched";
    case SchedPolicy::Zzx:
        return "ZZXSched";
    case SchedPolicy::ZzxWeighted:
        return "ZzxWeighted";
    case SchedPolicy::Exact:
        return "ExactSched";
    case SchedPolicy::CycleAware:
        return "CycleAware";
    }
    panic("schedPolicyName: unknown policy");
}

std::optional<SchedPolicy>
schedPolicyFromName(std::string_view name)
{
    if (iequalsAscii(name, "ParSched") || iequalsAscii(name, "Par"))
        return SchedPolicy::Par;
    if (iequalsAscii(name, "ZZXSched") || iequalsAscii(name, "Zzx"))
        return SchedPolicy::Zzx;
    if (iequalsAscii(name, "ZzxWeighted") ||
        iequalsAscii(name, "Weighted"))
        return SchedPolicy::ZzxWeighted;
    if (iequalsAscii(name, "ExactSched") || iequalsAscii(name, "Exact"))
        return SchedPolicy::Exact;
    if (iequalsAscii(name, "CycleAware") || iequalsAscii(name, "Cycle"))
        return SchedPolicy::CycleAware;
    return std::nullopt;
}

const std::vector<std::string> &
schedPolicyNames()
{
    static const std::vector<std::string> names = {
        schedPolicyName(SchedPolicy::Par),
        schedPolicyName(SchedPolicy::Zzx),
        schedPolicyName(SchedPolicy::ZzxWeighted),
        schedPolicyName(SchedPolicy::Exact),
        schedPolicyName(SchedPolicy::CycleAware)};
    return names;
}

pulse::PulseLibrary
substituteIdentity(const pulse::PulseLibrary &base,
                   pulse::PulseProgram dd_identity)
{
    pulse::PulseLibrary lib(base.name() + "+DD");
    for (pulse::PulseGate g :
         {pulse::PulseGate::SX, pulse::PulseGate::RZX}) {
        if (base.has(g))
            lib.set(g, base.get(g));
    }
    lib.set(pulse::PulseGate::Identity, std::move(dd_identity));
    return lib;
}

} // namespace qzz::core
