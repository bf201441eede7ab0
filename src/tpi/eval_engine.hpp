#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "netlist/ffr.hpp"
#include "netlist/test_point.hpp"
#include "obs/obs.hpp"
#include "testability/incremental_cop.hpp"
#include "tpi/evaluate.hpp"

namespace tpi {

/// Incremental plan-evaluation engine: the planners' replacement for the
/// `apply_test_points` + `compute_cop` + rescore cycle of
/// `evaluate_plan`.
///
/// The engine pairs an IncrementalCop (delta-COP state on the base
/// circuit) with a dense per-fault detection-probability vector and a
/// per-fault benefit cache. Applying a test point updates only the
/// faults whose site's controllability or observability actually moved;
/// the objective is then an ordered weighted sum over the benefit cache
/// — the same values in the same summation order as
/// `Objective::score`, so every score is bit-identical to the
/// `evaluate_plan` oracle on the materialised plan (asserted by
/// tests/test_incremental.cpp).
///
/// Points stack like a DFS: `push` applies a point as an undo frame,
/// `pop` rolls the newest frame back exactly, and `commit` (only at
/// depth 1) absorbs the frame into the committed base state — the shape
/// the greedy step loop (score candidates, commit the winner), the
/// exhaustive recursion (push/recurse/pop), and the DP planner's
/// round-committed state all map onto directly.
///
/// `score_block` scores many candidates against the committed state in
/// one lane-parallel sweep per block; each candidate's score is a pure
/// function of the committed state, so results are independent of lane
/// assignment and thread count, and the caller may reduce them
/// deterministically (the greedy planner replays its sequential argmax
/// loop over the score vector).
class EvalEngine {
public:
    /// `faults` and `circuit` are borrowed for the engine's lifetime.
    EvalEngine(const netlist::Circuit& circuit,
               const fault::CollapsedFaults& faults,
               const Objective& objective, obs::Sink* sink = nullptr);
    ~EvalEngine();

    // ---- delta stack ---------------------------------------------------

    void push(const netlist::TestPoint& point);
    void pop();
    void commit();
    std::size_t depth() const { return cop_.depth(); }

    // ---- scoring -------------------------------------------------------

    /// Objective value of the current state (committed + open frames).
    double score() const;

    /// Full evaluation of the current state; field-for-field identical
    /// to `evaluate_plan` on the materialised equivalent plan.
    PlanEvaluation evaluation() const;

    /// Detection probability per fault of the current state.
    std::span<const double> detection_probability() const { return p_; }

    /// Push + score + pop: the per-candidate scalar path, kept as the
    /// reference score_block is tested against.
    double score_candidate(const netlist::TestPoint& point);

    /// Lane-parallel batch scoring against the committed state: groups
    /// candidates by FFR/cone locality into blocks of eval_lanes(),
    /// sweeps each block's union frontier once with per-lane masks
    /// (testability::CopLaneSweep), and reduces per lane in the exact
    /// Objective::score order — every score bit-identical to
    /// score_candidate. Requires no open frames; threads block-level
    /// parallelism composes on top of the lanes (threads x lanes).
    std::vector<double> score_block(
        std::span<const netlist::TestPoint> candidates, unsigned threads);

    /// Candidates per block for score_block: 0 (default) resolves to
    /// sim::preferred_eval_lanes() at the first block; explicit values
    /// must satisfy testability::cop_lanes_supported. Changing the
    /// width drops the block scratch (rebuilt lazily).
    void set_eval_lanes(unsigned lanes);
    unsigned eval_lanes() const { return eval_lanes_; }

    // ---- projection ----------------------------------------------------

    const testability::IncrementalCop& cop() const { return cop_; }

    /// See IncrementalCop::export_cop: the transformed circuit's
    /// CopResult without traversing the transformed netlist.
    testability::CopResult export_cop(
        const netlist::TransformResult& dft) const {
        return cop_.export_cop(dft);
    }

private:
    struct FaultUndo {
        std::uint32_t index;
        double p;
        double benefit;
    };

    void refresh_changed_faults(std::vector<FaultUndo>& undo);

    const netlist::Circuit& circuit_;
    const fault::CollapsedFaults& faults_;
    Objective objective_;
    obs::Sink* sink_;
    testability::IncrementalCop cop_;

    std::vector<double> p_;        ///< per-fault detection probability
    std::vector<double> benefit_;  ///< objective.benefit(p_), cached

    // node -> fault indices, CSR (at most two faults per node).
    std::vector<std::uint32_t> fault_offset_;
    std::vector<std::uint32_t> fault_index_;

    std::vector<std::vector<FaultUndo>> fault_frames_;

    // Lane-parallel block scorer: one CopLaneSweep + query buffer per
    // pool worker, reused across planner rounds (the sweeps borrow
    // cop_'s committed state in place, so commits need no resync).
    struct BlockScratch;
    unsigned eval_lanes_ = 0;  ///< 0 = auto (preferred_eval_lanes)
    std::vector<std::unique_ptr<BlockScratch>> block_scratch_;
    std::vector<std::uint32_t> block_order_;
    std::unique_ptr<netlist::FfrDecomposition> ffr_;  ///< lazy
};

}  // namespace tpi
