#include "circuit/circuit.h"

#include "common/error.h"

namespace qzz::ckt {

QuantumCircuit::QuantumCircuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name))
{
    require(num_qubits >= 1, "QuantumCircuit: need at least one qubit");
}

void
QuantumCircuit::add(Gate g)
{
    // Messages are formatted on failure only: add() runs once per
    // gate in every compile pass.
    if (int(g.qubits.size()) != gateArity(g.kind))
        fatal("QuantumCircuit::add: wrong operand count for " +
              gateKindName(g.kind));
    for (size_t i = 0; i < g.qubits.size(); ++i) {
        if (g.qubits[i] < 0 || g.qubits[i] >= num_qubits_)
            fatal("QuantumCircuit::add: qubit out of range in " +
                  g.toString());
        for (size_t j = i + 1; j < g.qubits.size(); ++j)
            if (g.qubits[i] == g.qubits[j])
                fatal("QuantumCircuit::add: duplicate operand in " +
                      g.toString());
    }
    gates_.push_back(std::move(g));
}

int
QuantumCircuit::twoQubitCount() const
{
    int n = 0;
    for (const Gate &g : gates_)
        if (g.isTwoQubit())
            ++n;
    return n;
}

bool
QuantumCircuit::isNative() const
{
    for (const Gate &g : gates_)
        if (!g.isNative())
            return false;
    return true;
}

la::CMatrix
QuantumCircuit::unitary() const
{
    require(num_qubits_ <= 12,
            "QuantumCircuit::unitary: register too large");
    la::CMatrix u = la::CMatrix::identity(size_t(1) << num_qubits_);
    for (const Gate &g : gates_) {
        la::CMatrix gm =
            la::embed(gateMatrix(g), g.qubits, num_qubits_);
        u = gm * u;
    }
    return u;
}

} // namespace qzz::ckt
