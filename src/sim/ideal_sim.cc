#include "sim/ideal_sim.h"

#include "common/error.h"

namespace qzz::sim {

void
applyGateIdeal(const ckt::Gate &g, StateVector &psi)
{
    if (g.kind == ckt::GateKind::RZ) {
        psi.applyRz(g.qubits[0], g.params[0]);
        return;
    }
    const la::CMatrix u = ckt::gateMatrix(g);
    if (g.isTwoQubit())
        psi.apply2Q(la::toMat4(u), g.qubits[0], g.qubits[1]);
    else
        psi.apply1Q(la::toMat2(u), g.qubits[0]);
}

StateVector
runIdealCircuit(const ckt::QuantumCircuit &circuit)
{
    StateVector psi(circuit.numQubits());
    for (const ckt::Gate &g : circuit.gates())
        applyGateIdeal(g, psi);
    return psi;
}

StateVector
runIdealSchedule(const core::Schedule &schedule)
{
    StateVector psi(schedule.num_qubits);
    for (const core::Layer &layer : schedule.layers)
        for (const core::ScheduledGate &sg : layer.gates)
            applyGateIdeal(sg.gate, psi);
    return psi;
}

} // namespace qzz::sim
