#include "core/zzx_sched.h"

#include <algorithm>

namespace qzz::core {

using ckt::Gate;

ZzxOptions
resolveZzxOptions(ZzxOptions opt, const dev::Device &dev)
{
    const graph::Graph &g = dev.graph();
    if (opt.nq_max < 0) {
        int maxdeg = 0;
        for (int v = 0; v < g.numVertices(); ++v)
            maxdeg = std::max(maxdeg, g.degree(v));
        opt.nq_max = std::max(2, maxdeg - 1); // NQ < max degree
    }
    if (opt.nc_max < 0)
        opt.nc_max = g.numEdges() / 2;
    return opt;
}

int
gateDistance(const Gate &a, const Gate &b,
             const std::vector<std::vector<int>> &dist)
{
    int d = 0;
    for (int qa : a.qubits)
        for (int qb : b.qubits)
            d += dist[qa][qb];
    return d;
}

} // namespace qzz::core
