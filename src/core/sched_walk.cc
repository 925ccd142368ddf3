#include "core/sched_walk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/dag.h"
#include "common/error.h"

namespace qzz::core {

using ckt::Gate;
using ckt::GateKind;
using ckt::QuantumCircuit;

namespace {

/**
 * Supplies the cut for each layer the walk builds.  cutFor() may be
 * called several times per layer (TwoQSchedule probes candidate gate
 * groups); onLayerCommitted() is called once per appended *physical*
 * layer, after its metrics and side are final, so stateful policies
 * can carry information across layer boundaries.
 */
class LayerCutOracle
{
  public:
    virtual ~LayerCutOracle() = default;

    /**
     * A cut with all of @p q inside one partition (empty @p q means
     * unconstrained).  Implementations must be deterministic and must
     * guarantee the constraint (via a trivial fallback if needed), as
     * SuppressionSolver::solve() does.
     */
    virtual SuppressionResult cutFor(const std::vector<int> &q) = 0;

    /** Hook run after each physical layer is appended. */
    virtual void
    onLayerCommitted(const Layer &layer)
    {
        (void)layer;
    }
};

/**
 * Cut source of Zzx and ZzxWeighted: every cut comes from one
 * alpha-optimal SuppressionSolver run.  The Case-1 cut constrains no
 * qubits, so it is the same for every 1Q-only frontier: solve it once
 * per schedule on first need.  Deep circuits alternate 1Q layers with
 * 2Q layers, and the solve (matching plus greedy path relaxation,
 * fully deterministic — so reuse is bit-identical) dominated their
 * compile time.
 */
class HeuristicCutOracle final : public LayerCutOracle
{
  public:
    HeuristicCutOracle(const SuppressionSolver &solver,
                       const SuppressionOptions &sopt)
        : solver_(solver), sopt_(sopt)
    {
    }

    SuppressionResult
    cutFor(const std::vector<int> &q) override
    {
        if (q.empty()) {
            if (!have_case1_) {
                case1_ = solver_.solve({}, sopt_);
                have_case1_ = true;
            }
            return case1_;
        }
        return solver_.solve(q, sopt_);
    }

  private:
    const SuppressionSolver &solver_;
    SuppressionOptions sopt_;
    SuppressionResult case1_;
    bool have_case1_ = false;
};

/** Cut source of Exact: every cut comes from the exact solver. */
class ExactCutOracle final : public LayerCutOracle
{
  public:
    ExactCutOracle(const ExactCutSolver &solver,
                   const SuppressionOptions &sopt)
        : solver_(solver), sopt_(sopt)
    {
    }

    SuppressionResult
    cutFor(const std::vector<int> &q) override
    {
        ExactCutResult r = solver_.solve(q, sopt_);
        SuppressionResult res;
        res.side = std::move(r.side);
        res.metrics = std::move(r.metrics);
        res.constraint_ok = true; // Q side 1 is enforced by the search
        res.used_fallback = r.status == ExactStatus::BudgetExhausted;
        return res;
    }

  private:
    const ExactCutSolver &solver_;
    SuppressionOptions sopt_;
};

/** Add @p layer's unsuppressed |zz[e]| x duration to @p acc. */
void
accumulateLayerZz(const Layer &layer, const std::vector<double> &zz,
                  std::vector<double> &acc)
{
    if (layer.is_virtual)
        return;
    require(layer.metrics.unsuppressed_edge.size() == zz.size(),
            "accumulatedZz: layer/device edge count mismatch");
    for (size_t e = 0; e < zz.size(); ++e)
        if (layer.metrics.unsuppressed_edge[e])
            acc[e] += std::abs(zz[e]) * layer.duration;
}

/**
 * Cut source of CycleAware: the weighted search with per-edge
 * accumulated-ZZ state.  Within a layer the weights are frozen (every
 * TwoQSchedule probe of that layer sees the same objective); they are
 * recomputed lazily after each committed physical layer.
 */
class CycleCutOracle final : public LayerCutOracle
{
  public:
    CycleCutOracle(const SuppressionSolver &solver,
                   const SuppressionOptions &sopt,
                   const std::vector<double> &zz)
        : solver_(solver), sopt_(sopt), zz_(zz), acc_(zz.size(), 0.0),
          weights_(zz.size(), 0.0)
    {
        sopt_.edge_zz = &weights_;
    }

    SuppressionResult
    cutFor(const std::vector<int> &q) override
    {
        if (dirty_)
            refresh();
        return solver_.solve(q, sopt_);
    }

    void
    onLayerCommitted(const Layer &layer) override
    {
        accumulateLayerZz(layer, zz_, acc_);
        dirty_ = true;
    }

  private:
    /** Strength of the cross-layer term: an edge holding the largest
     *  accumulated phase weighs 1 + kHistoryWeight times its rate. */
    static constexpr double kHistoryWeight = 1.0;

    void
    refresh()
    {
        double max_acc = 0.0;
        for (double a : acc_)
            max_acc = std::max(max_acc, a);
        for (size_t e = 0; e < zz_.size(); ++e) {
            const double boost =
                max_acc > 0.0
                    ? 1.0 + kHistoryWeight * acc_[e] / max_acc
                    : 1.0;
            weights_[e] = std::abs(zz_[e]) * boost;
        }
        dirty_ = false;
    }

    const SuppressionSolver &solver_;
    SuppressionOptions sopt_;
    const std::vector<double> &zz_;
    std::vector<double> acc_;
    std::vector<double> weights_;
    bool dirty_ = true; ///< weights need (re)computation before use
};

/** All qubits touched by the given gates (by frontier index list). */
std::vector<int>
gateQubits(const QuantumCircuit &c, const std::vector<int> &gate_ids)
{
    std::vector<int> q;
    for (int gi : gate_ids)
        for (int v : c.gates()[gi].qubits)
            q.push_back(v);
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    return q;
}

/** Does a cut satisfy the suppression requirement R? */
bool
satisfiesR(const SuppressionResult &res, const ZzxOptions &opt)
{
    return res.constraint_ok && res.metrics.nq <= opt.nq_max &&
           res.metrics.nc <= opt.nc_max;
}

/** Min distance between a gate and a group (Definition 6.2). */
int
gateGroupDistance(const QuantumCircuit &c, int gate,
                  const std::vector<int> &group,
                  const std::vector<std::vector<int>> &dist)
{
    int best = std::numeric_limits<int>::max();
    for (int member : group)
        best = std::min(best, gateDistance(c.gates()[gate],
                                           c.gates()[member], dist));
    return best;
}

/** TwoQSchedule outcome: the cut plus the qubits it constrains. */
struct TwoQResult
{
    SuppressionResult cut;
    std::vector<int> q; ///< qubits of the chosen gates (inside S)
};

/**
 * Procedure TwoQSchedule (Algorithm 2, lines 15-28): returns the S
 * partition to drive this layer.
 */
TwoQResult
twoQSchedule(const QuantumCircuit &c, const std::vector<int> &sg2,
             LayerCutOracle &oracle,
             const std::vector<std::vector<int>> &dist,
             const ZzxOptions &opt)
{
    // Try all two-qubit gates at once.
    std::vector<int> all_q = gateQubits(c, sg2);
    SuppressionResult all = oracle.cutFor(all_q);
    if (satisfiesR(all, opt) || sg2.size() == 1)
        return {std::move(all), std::move(all_q)};

    // Heuristic: separate the two closest gates, then grow the groups
    // farthest-gate-first while R holds.
    int seed_a = -1, seed_b = -1;
    int best_d = std::numeric_limits<int>::max();
    for (size_t i = 0; i < sg2.size(); ++i)
        for (size_t j = i + 1; j < sg2.size(); ++j) {
            const int d = gateDistance(c.gates()[sg2[i]],
                                       c.gates()[sg2[j]], dist);
            if (d < best_d) {
                best_d = d;
                seed_a = sg2[i];
                seed_b = sg2[j];
            }
        }

    std::vector<int> group_a{seed_a}, group_b{seed_b};
    std::vector<int> rest;
    for (int gi : sg2)
        if (gi != seed_a && gi != seed_b)
            rest.push_back(gi);

    while (!rest.empty()) {
        // The (gate, group) pair with maximum distance.
        int pick = -1;
        int pick_group = 0; // 0 = A, 1 = B
        int pick_d = -1;
        for (int gi : rest) {
            const int da = gateGroupDistance(c, gi, group_a, dist);
            const int db = gateGroupDistance(c, gi, group_b, dist);
            const int d = std::max(da, db);
            if (d > pick_d) {
                pick_d = d;
                pick = gi;
                pick_group = da >= db ? 0 : 1;
            }
        }
        std::vector<int> &group = pick_group == 0 ? group_a : group_b;
        std::vector<int> trial = group;
        trial.push_back(pick);
        SuppressionResult res = oracle.cutFor(gateQubits(c, trial));
        if (!satisfiesR(res, opt))
            break;
        group.push_back(pick);
        rest.erase(std::find(rest.begin(), rest.end(), pick));
    }

    const std::vector<int> &chosen =
        group_a.size() >= group_b.size() ? group_a : group_b;
    std::vector<int> chosen_q = gateQubits(c, chosen);
    SuppressionResult res = oracle.cutFor(chosen_q);
    return {std::move(res), std::move(chosen_q)};
}

/**
 * The frontier walk over @p native, drawing every cut from @p oracle;
 * @p opt must be resolved (resolveZzxOptions()).
 */
Schedule
scheduleByCuts(const QuantumCircuit &native, const dev::Device &dev,
               const GateDurations &durations, const ZzxOptions &opt,
               const std::vector<std::vector<int>> &dist,
               LayerCutOracle &oracle)
{
    require(native.isNative(),
            "scheduleByCuts: circuit must be native");
    require(native.numQubits() == dev.numQubits(),
            "scheduleByCuts: circuit/device size mismatch");

    Schedule sched;
    sched.num_qubits = native.numQubits();
    ckt::DagFrontier frontier(native);

    while (!frontier.done()) {
        const std::vector<int> ready = frontier.schedulable();
        ensure(!ready.empty(), "scheduleByCuts: stalled frontier");

        // Flush virtual RZ gates into a zero-duration layer.
        std::vector<int> virt, phys;
        for (int gi : ready) {
            if (native.gates()[gi].isVirtual())
                virt.push_back(gi);
            else
                phys.push_back(gi);
        }
        if (!virt.empty()) {
            Layer layer;
            layer.is_virtual = true;
            for (int gi : virt) {
                layer.gates.push_back({native.gates()[gi], false});
                frontier.markScheduled(gi);
            }
            sched.layers.push_back(std::move(layer));
            continue;
        }
        if (phys.empty())
            continue;

        // Case analysis on the schedulable set.
        std::vector<int> sg2;
        for (int gi : phys)
            if (native.gates()[gi].isTwoQubit())
                sg2.push_back(gi);

        SuppressionResult cut;
        std::vector<char> s_mask;
        if (sg2.empty()) {
            // Case 1: unconstrained cut; S = side with more gates.
            cut = oracle.cutFor({});
            int count[2] = {0, 0};
            for (int gi : phys)
                ++count[cut.side[native.gates()[gi].qubits[0]]];
            const int s_value = count[1] >= count[0] ? 1 : 0;
            s_mask.assign(cut.side.size(), 0);
            for (size_t v = 0; v < cut.side.size(); ++v)
                s_mask[v] = cut.side[v] == s_value ? 1 : 0;
        } else {
            // Case 2: two-qubit gates present.  S is the partition
            // holding the chosen group's qubits (the oracle
            // guarantees they share a side, via fallback if needed).
            TwoQResult two = twoQSchedule(native, sg2, oracle, dist, opt);
            cut = std::move(two.cut);
            ensure(!two.q.empty(), "twoQSchedule returned no qubits");
            const int s_value = cut.side[two.q[0]];
            s_mask.assign(cut.side.size(), 0);
            for (size_t v = 0; v < cut.side.size(); ++v)
                s_mask[v] = cut.side[v] == s_value ? 1 : 0;
        }

        // Procedure Schedule: place every frontier gate fully in S.
        Layer layer;
        std::vector<char> used(size_t(sched.num_qubits), 0);
        for (int gi : phys) {
            const Gate &g = native.gates()[gi];
            bool in_s = true;
            for (int q : g.qubits)
                in_s = in_s && s_mask[q];
            if (!in_s)
                continue;
            layer.gates.push_back({g, false});
            layer.duration = std::max(layer.duration, durations.of(g));
            for (int q : g.qubits)
                used[q] = 1;
            frontier.markScheduled(gi);
        }
        ensure(!layer.gates.empty(),
               "scheduleByCuts: layer would be empty (cut excluded "
               "every schedulable gate)");

        // Supplement the rest of S with identity gates so the driven
        // set equals S exactly.
        for (int q = 0; q < sched.num_qubits; ++q) {
            if (s_mask[q] && !used[q]) {
                layer.gates.push_back({Gate(GateKind::I, {q}), true});
                layer.duration =
                    std::max(layer.duration, durations.identity);
            }
        }

        std::vector<int> side(size_t(sched.num_qubits), 0);
        for (int q = 0; q < sched.num_qubits; ++q)
            side[q] = s_mask[q] ? 1 : 0;
        layer.metrics = evaluateCut(dev.graph(), side);
        layer.side = std::move(side);
        sched.layers.push_back(std::move(layer));
        oracle.onLayerCommitted(sched.layers.back());
    }
    return sched;
}

} // namespace

CutTables::CutTables(const dev::Device &dev, SchedPolicy policy)
    : dist(dev.graph().allPairsDistances()), zz(dev.couplings())
{
    if (policy == SchedPolicy::Exact)
        exact.emplace(dev.graph());
    else
        heuristic.emplace(dev.topology());
}

Schedule
schedule(SchedPolicy policy, const QuantumCircuit &native,
         const dev::Device &dev, const GateDurations &durations,
         const ZzxOptions &opt_in, const CutTables *tables)
{
    if (policy != SchedPolicy::Par && tables == nullptr) {
        const CutTables own(dev, policy);
        return schedule(policy, native, dev, durations, opt_in, &own);
    }
    const ZzxOptions opt = resolveZzxOptions(opt_in, dev);
    auto walk = [&](LayerCutOracle &&oracle) {
        return scheduleByCuts(native, dev, durations, opt, tables->dist,
                              oracle);
    };
    auto heuristic = [&]() -> const SuppressionSolver & {
        require(tables->heuristic.has_value(),
                "schedule: tables were built for ExactSched");
        return *tables->heuristic;
    };
    switch (policy) {
    case SchedPolicy::Par:
        return parSchedule(native, dev, durations);
    case SchedPolicy::Zzx:
        return walk(HeuristicCutOracle(heuristic(), opt.suppression));
    case SchedPolicy::ZzxWeighted: {
        SuppressionOptions weighted = opt.suppression;
        weighted.edge_zz = &tables->zz;
        return walk(HeuristicCutOracle(heuristic(), weighted));
    }
    case SchedPolicy::Exact:
        require(tables->exact.has_value(),
                "schedule: ExactSched needs tables built for it");
        return walk(ExactCutOracle(*tables->exact, opt.suppression));
    case SchedPolicy::CycleAware:
        return walk(
            CycleCutOracle(heuristic(), opt.suppression, tables->zz));
    }
    panic("schedule: unknown policy");
}

std::vector<double>
accumulatedZz(const Schedule &schedule, const std::vector<double> &zz)
{
    std::vector<double> acc(zz.size(), 0.0);
    for (const Layer &layer : schedule.layers)
        accumulateLayerZz(layer, zz, acc);
    return acc;
}

} // namespace qzz::core
