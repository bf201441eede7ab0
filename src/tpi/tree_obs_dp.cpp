#include "tpi/tree_obs_dp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace tpi {

using netlist::NodeId;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

TreeObsDp::TreeObsDp(const netlist::Circuit& circuit,
                     const netlist::FanoutFreeRegion& region,
                     const testability::CopResult& cop,
                     const fault::CollapsedFaults& faults,
                     std::span<const std::uint32_t> fault_weight,
                     const Objective& objective, const Params& params,
                     const std::vector<bool>& allowed)
    : region_(region),
      params_(params),
      quant_(params.delta_bits, params.max_bucket),
      buckets_(quant_.bucket_count()),
      objective_(objective) {
    require(params_.max_budget >= 0, "TreeObsDp: negative budget");
    require(params_.observe_cost >= 1, "TreeObsDp: observe_cost must be >= 1");
    require(fault_weight.size() == faults.size(),
            "TreeObsDp: fault_weight size mismatch");

    const std::size_t m = region.members.size();
    local_of_.assign(circuit.node_count(), 0);
    for (std::uint32_t k = 0; k < m; ++k)
        local_of_[region.members[k].v] = k + 1;

    // Children: fanins of each member that are themselves members.
    children_.resize(m);
    op_allowed_.resize(m);
    for (std::uint32_t k = 0; k < m; ++k) {
        const NodeId v = region.members[k];
        op_allowed_[k] =
            (allowed.empty() || allowed[v.v]) && !zero_gain(cop, v);
        const auto fanins = circuit.fanins(v);
        for (std::size_t slot = 0; slot < fanins.size(); ++slot) {
            const std::uint32_t cl = local_of_[fanins[slot].v];
            if (cl == 0) continue;  // external leaf input
            const double sens = testability::sensitization_probability(
                circuit, v, slot, cop.c1);
            const int cost = quant_.to_bucket(sens);
            // A duplicated fanin must contribute one child only.
            const auto dup = std::find_if(
                children_[k].begin(), children_[k].end(),
                [&](const Child& c) { return c.local == cl - 1; });
            if (dup != children_[k].end())
                dup->edge_cost = std::min(dup->edge_cost, cost);
            else
                children_[k].push_back({cl - 1, cost});
        }
    }

    // Resident fault classes per member (located at their representative).
    site_faults_.resize(m);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (fault_weight[i] == 0) continue;
        const fault::Fault f = faults.representatives[i];
        const std::uint32_t lk = local_of_[f.node.v];
        if (lk == 0) continue;
        const double excitation =
            f.stuck_at1 ? (1.0 - cop.c1[f.node.v]) : cop.c1[f.node.v];
        site_faults_[lk - 1].emplace_back(
            excitation, static_cast<double>(fault_weight[i]));
    }

    root_d_ = quant_.to_bucket(cop.obs[region.root.v]);
    solve();
}

double TreeObsDp::fault_benefit(std::uint32_t local, int d) const {
    double sum = 0.0;
    const double path = quant_.to_probability(d);
    for (const auto& [excitation, weight] : site_faults_[local])
        sum += weight * objective_.benefit(excitation * path);
    return sum;
}

template <typename DChildFn>
void TreeObsDp::child_knapsack(std::span<const Child> children,
                               DChildFn d_child,
                               std::vector<std::vector<double>>& value) const {
    const int K = params_.max_budget;
    value.assign(children.size() + 1, std::vector<double>(K + 1, 0.0));
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
        const Child& ch = children[ci];
        const int dc = d_child(ch);
        for (int j = 0; j <= K; ++j) {
            double best = kNegInf;
            for (int s = 0; s <= j; ++s) {
                const double v = value[ci][j - s] + dp(ch.local, s, dc);
                best = std::max(best, v);
            }
            value[ci + 1][j] = best;
        }
    }
}

void TreeObsDp::solve() {
    const std::size_t m = region_.members.size();
    const int K = params_.max_budget;
    table_.assign(m, std::vector<double>(
                         static_cast<std::size_t>(K + 1) * buckets_, 0.0));

    std::vector<std::vector<double>> knap;
    for (std::uint32_t k = 0; k < m; ++k) {
        const auto& children = children_[k];

        // Variant B: observation point at this node (children observed
        // through their edge only; faults here at cost 0).
        std::vector<double> variant_b(K + 1, kNegInf);
        if (op_allowed_[k]) {
            child_knapsack(children, [](const Child& c) { return c.edge_cost; },
                           knap);
            const double fb0 = fault_benefit(k, 0);
            for (int j = params_.observe_cost; j <= K; ++j)
                variant_b[j] = knap[children.size()]
                                   [j - params_.observe_cost] + fb0;
        }

        // Variant A: no point here; everything is charged d + edge.
        for (int d = 0; d < buckets_; ++d) {
            child_knapsack(children,
                           [&](const Child& c) {
                               return quant_.add(d, c.edge_cost);
                           },
                           knap);
            const double fb = fault_benefit(k, d);
            for (int j = 0; j <= K; ++j) {
                dp(k, j, d) =
                    std::max(knap[children.size()][j] + fb, variant_b[j]);
            }
        }
        // Enforce monotonicity in budget ("at most j" semantics).
        for (int j = 1; j <= K; ++j)
            for (int d = 0; d < buckets_; ++d)
                dp(k, j, d) = std::max(dp(k, j, d), dp(k, j - 1, d));
    }
}

double TreeObsDp::best(int budget) const {
    require(budget >= 0, "TreeObsDp::best: negative budget");
    const int j = std::min(budget, params_.max_budget);
    const auto root_local =
        static_cast<std::uint32_t>(region_.members.size() - 1);
    return dp(root_local, j, root_d_);
}

void TreeObsDp::backtrack(std::uint32_t local, int j, int d,
                          std::vector<NodeId>& out) const {
    // Shrink to the smallest budget achieving the same value (monotone
    // table), so ties are resolved towards fewer points.
    while (j > 0 && dp(local, j - 1, d) >= dp(local, j, d)) --j;

    const auto& children = children_[local];
    std::vector<std::vector<double>> knap;

    // Re-derive which variant produced dp(local, j, d).
    double variant_b = kNegInf;
    if (op_allowed_[local] && j >= params_.observe_cost) {
        child_knapsack(children, [](const Child& c) { return c.edge_cost; },
                       knap);
        variant_b =
            knap[children.size()][j - params_.observe_cost] +
            fault_benefit(local, 0);
    }
    std::vector<std::vector<double>> knap_a;
    child_knapsack(children,
                   [&](const Child& c) { return quant_.add(d, c.edge_cost); },
                   knap_a);
    const double variant_a =
        knap_a[children.size()][j] + fault_benefit(local, d);

    const bool take_op = variant_b > variant_a;
    if (take_op) out.push_back(region_.members[local]);

    // Recover the child budget split of the chosen variant by walking the
    // prefix knapsack backwards.
    const auto& value = take_op ? knap : knap_a;
    int remaining = take_op ? j - params_.observe_cost : j;
    std::vector<int> split(children.size(), 0);
    for (std::size_t ci = children.size(); ci-- > 0;) {
        const Child& ch = children[ci];
        const int dc = take_op ? ch.edge_cost : quant_.add(d, ch.edge_cost);
        for (int s = 0; s <= remaining; ++s) {
            if (value[ci][remaining - s] + dp(ch.local, s, dc) >=
                value[ci + 1][remaining] - 1e-12) {
                split[ci] = s;
                remaining -= s;
                break;
            }
        }
    }
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
        const Child& ch = children[ci];
        const int dc = take_op ? ch.edge_cost : quant_.add(d, ch.edge_cost);
        backtrack(ch.local, split[ci], dc, out);
    }
}

std::vector<NodeId> TreeObsDp::placements(int budget) const {
    std::vector<NodeId> out;
    const int j = std::min(std::max(budget, 0), params_.max_budget);
    const auto root_local =
        static_cast<std::uint32_t>(region_.members.size() - 1);
    backtrack(root_local, j, root_d_, out);
    return out;
}

}  // namespace tpi
