#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "netlist/ffr.hpp"
#include "testability/cop.hpp"
#include "tpi/objective.hpp"
#include "util/quantize.hpp"

namespace tpi {

/// The paper's dynamic program, observation-point variant, run on one
/// fanout-free region (a tree rooted at a stem).
///
/// In a tree the probability that a fault effect reaches its *nearest*
/// observation point is the product of edge sensitisation probabilities on
/// the path, and detection at the nearest observer dominates detection
/// anywhere further downstream. With path products mapped to additive
/// integer costs by a log-domain quantiser, the optimal placement of at
/// most K observation points decomposes over subtrees:
///
///   dp[v][j][d] = best benefit in subtree(v) using j budget units, given
///                 cost d from v's output to its nearest observer,
///
/// combining children with a knapsack over the budget. The root's d is the
/// quantised cost of the stem's external observability. The DP is optimal
/// on the region up to quantisation (Table 2 verifies this against
/// exhaustive enumeration).
///
/// Complexity: O(n_region * K^2 * D) time, O(n_region * K * D) space.
class TreeObsDp {
public:
    struct Params {
        double delta_bits = 0.25;  ///< cost grid resolution
        int max_bucket = 120;      ///< cost saturation cap
        int max_budget = 6;        ///< K: budget units explored
        int observe_cost = 1;      ///< budget units per observation point
    };

    /// `fault_weight` (parallel to faults.representatives) selects and
    /// weights the faults to optimise for; zero-weight faults are ignored.
    /// `allowed` (indexed by NodeId, may be empty = everywhere) restricts
    /// where observation points may be placed; a zero_gain() member is
    /// never a placement, whatever `allowed` says.
    ///
    /// Lifetimes: `circuit`, `cop`, `faults`, `fault_weight` and
    /// `allowed` are read during construction only. `region` is retained
    /// by reference — it must outlive the DP (best/placements read its
    /// member list). The DP planner's cross-round cache relies on this
    /// split: it keeps a private copy of the region alive next to the
    /// tables while the round's transformed circuit and COP are dropped.
    TreeObsDp(const netlist::Circuit& circuit,
              const netlist::FanoutFreeRegion& region,
              const testability::CopResult& cop,
              const fault::CollapsedFaults& faults,
              std::span<const std::uint32_t> fault_weight,
              const Objective& objective, const Params& params,
              const std::vector<bool>& allowed = {});

    /// The zero-gain rule: a net whose COP observability is exactly 1.0
    /// gains nothing from an observation point. Every factor of the COP
    /// observability product lies in [0, 1] and rounding is monotone,
    /// so obs == 1.0 certifies a fully transparent chain to an output
    /// (analysis::transparent_chain walks it). A point there adds a
    /// branch of observability 1.0 to a net already at 1.0, so the
    /// transformed circuit's COP, and with it every fault's detection
    /// probability and every score, is bitwise unchanged. Dropping such
    /// members therefore never changes a plan or a score; it only skips
    /// table work (and whole regions the DP planner finds without any
    /// other placement).
    static bool zero_gain(const testability::CopResult& cop,
                          netlist::NodeId v) {
        return cop.obs[v.v] == 1.0;
    }

    int max_budget() const { return params_.max_budget; }

    /// Best achievable benefit using at most `budget` units.
    double best(int budget) const;

    /// Benefit with no test points (the j = 0 baseline).
    double baseline() const { return best(0); }

    /// Reconstruct an optimal placement for `budget` units: the nets to
    /// observe (in original circuit id space).
    std::vector<netlist::NodeId> placements(int budget) const;

    /// DP table cells materialised by the solve (per-region work
    /// measure; feeds obs::Counter::DpCellsFilled).
    std::uint64_t cells() const {
        std::uint64_t n = 0;
        for (const auto& row : table_) n += row.size();
        return n;
    }

private:
    struct Child {
        std::uint32_t local;  ///< child member (local index)
        int edge_cost;        ///< quantised -log2 sensitisation
    };

    double& dp(std::uint32_t local, int j, int d) {
        return table_[local][static_cast<std::size_t>(j) * buckets_ + d];
    }
    double dp(std::uint32_t local, int j, int d) const {
        return table_[local][static_cast<std::size_t>(j) * buckets_ + d];
    }

    double fault_benefit(std::uint32_t local, int d) const;
    void solve();
    void backtrack(std::uint32_t local, int j, int d,
                   std::vector<netlist::NodeId>& out) const;

    /// Sequential knapsack over `children` with per-child observer cost
    /// `d_child(child)`; fills value table value[ci][j] for child prefixes.
    template <typename DChildFn>
    void child_knapsack(std::span<const Child> children, DChildFn d_child,
                        std::vector<std::vector<double>>& value) const;

    const netlist::FanoutFreeRegion& region_;
    Params params_;
    util::LogQuantizer quant_;
    int buckets_;
    Objective objective_;

    std::vector<std::uint32_t> local_of_;       // node id -> local + 1 (0 = absent)
    std::vector<std::vector<Child>> children_;  // per local
    std::vector<bool> op_allowed_;              // per local
    // Per local, list of (excitation, weight) of resident fault classes.
    std::vector<std::vector<std::pair<double, double>>> site_faults_;
    std::vector<std::vector<double>> table_;    // per local: (K+1)x(D+1)
    int root_d_ = 0;
};

}  // namespace tpi
