#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/test_point.hpp"
#include "netlist/transform.hpp"
#include "testability/cop.hpp"

namespace tpi::testability {

/// Gate type of the override gate a control-point kind splices in.
/// Throws tpi::Error for Observe.
netlist::GateType cp_gate(netlist::TpKind kind);

/// Sensitisation of the overridden net through its override gate: the
/// probability the equiprobable test signal is non-controlling. Matches
/// sensitization_probability on the 2-input override gate bit-for-bit
/// (the only other fanin has c1 = 0.5).
double cp_sens(netlist::TpKind kind);

/// Incrementally maintained COP state of a base circuit under a stack of
/// *virtual* test points.
///
/// The exact estimator (`tpi::evaluate_plan`) materialises every plan
/// with `netlist::apply_test_points` and recomputes COP over the whole
/// transformed netlist — O(circuit) per candidate, paid in the innermost
/// loop of every planner. This class maintains the same quantities on
/// the *original* topology and applies a test point as an in-place
/// delta, so `apply -> read -> rollback` costs O(nodes actually touched)
/// and never copies the circuit.
///
/// State per original node v:
///
///  * `c1(v)`  — 1-controllability of the node's own output, *before*
///    any control-point override gate (the net fault excitation reads:
///    the transformed circuit's `c1[node_map[v]]`).
///  * `drv_obs(v)` — observability of the net v's consumers read (the
///    transformed circuit's `obs[driver_map[v]]`): the output of the
///    override gate where a control point is present, v itself where
///    not.
///  * `site_obs(v)` — observability of the fault site itself (the
///    transformed circuit's `obs[node_map[v]]`): `drv_obs(v)` times the
///    sensitisation of the override gate (0.5 for CP-AND / CP-OR with an
///    equiprobable test signal, 1 for CP-XOR), or plain `drv_obs(v)`
///    with no control point.
///
/// The update rules are the compute_cop recursions restricted to the
/// touched cones, evaluated with the *same* helper functions in the
/// *same* operand order, so every maintained value is bit-identical to a
/// from-scratch `compute_cop(apply_test_points(...))` — the differential
/// suite (tests/test_incremental.cpp) asserts exact equality. A
/// controllability change propagates *down* the fanout cone in level
/// order; an observability change propagates *up* the fanin cone in
/// reverse level order. Each applied point pushes an undo frame (old
/// values of every touched node), so points stack: `apply` / `rollback`
/// nest like a DFS, and `commit` collapses the newest frame into the
/// committed state.
class IncrementalCop {
public:
    explicit IncrementalCop(const netlist::Circuit& circuit);

    const netlist::Circuit& circuit() const { return circuit_; }

    // ---- state ---------------------------------------------------------

    double c1(netlist::NodeId v) const { return c1_[v.v]; }
    double drv_obs(netlist::NodeId v) const { return drv_obs_[v.v]; }
    double site_obs(netlist::NodeId v) const;

    /// 1-controllability of the net v's consumers read (post-override).
    double eff_c1(netlist::NodeId v) const { return eff_[v.v]; }

    /// Control-point kind at v, or -1 when none (committed + open frames).
    int control_kind(netlist::NodeId v) const { return control_[v.v]; }
    bool observed(netlist::NodeId v) const { return observe_[v.v] != 0; }

    // ---- raw dense views (borrowed by the lane-parallel sweep) ---------

    std::span<const double> c1_data() const { return c1_; }
    std::span<const double> eff_data() const { return eff_; }
    std::span<const double> drv_obs_data() const { return drv_obs_; }
    std::span<const std::int8_t> control_data() const { return control_; }
    std::span<const std::uint8_t> observe_data() const { return observe_; }

    // ---- delta application ---------------------------------------------

    /// Apply `point` as a new undo frame on top of the current state.
    /// Throws tpi::Error on a duplicate control/observation point on the
    /// same net (the apply_test_points contract).
    void apply(const netlist::TestPoint& point);

    /// Undo the newest frame, restoring the previous state exactly.
    void rollback();

    /// Keep the newest frame's effect and discard its undo data. Only
    /// the newest frame can be committed; committing out of order would
    /// leave older frames' undo data stale.
    void commit();

    /// Open (uncommitted) frames.
    std::size_t depth() const { return frames_.size(); }

    /// Monotonic counter bumped whenever the COP state arrays mutate
    /// (apply, rollback — commit only discards undo data).
    /// Lets borrowers (the lane sweep's dense mirror) cache derived
    /// state and revalidate in O(1).
    std::uint64_t state_version() const { return state_version_; }

    /// Nodes whose c1, site_obs, or test-point flags changed in the
    /// newest frame (deduplicated; includes the point's own site). Valid
    /// until the next apply/rollback/commit.
    std::span<const std::uint32_t> frame_changed_nodes() const;

    /// Nodes touched (recomputed) by the last apply() — the O(touched)
    /// work measure reported to the observability layer.
    std::uint64_t last_touched() const { return last_touched_; }

    /// Project the maintained state onto a materialised transform of the
    /// same base circuit carrying exactly the committed points: returns
    /// the CopResult `compute_cop(dft.circuit)` would produce,
    /// bit-identically, without traversing the transformed netlist.
    CopResult export_cop(const netlist::TransformResult& dft) const;

private:
    struct Frame {
        netlist::TestPoint point;
        std::vector<std::pair<std::uint32_t, double>> c1_undo;
        std::vector<std::pair<std::uint32_t, double>> obs_undo;
        std::vector<std::uint32_t> changed;  ///< dedup'd fault-site set
    };

    double eff_of(std::uint32_t v) const;
    double recompute_c1(std::uint32_t v);
    double recompute_drv_obs(std::uint32_t v) const;
    void schedule(std::uint32_t node, int& lo, int& hi);
    void mark_changed(Frame& frame, std::uint32_t node);

    const netlist::Circuit& circuit_;

    // The circuit's own frozen CSR topology. The cone walks are the
    // innermost loop of every planner; before the flat layout became the
    // primary Circuit representation this class kept private CSR copies
    // of the same arrays — now there is exactly one, shared with every
    // other engine. The fanout CSR carries one (gate, slot) entry per
    // consuming fanin slot, so multi-slot consumers appear once per slot
    // exactly like the reference scan, and the fanins sit in the exact
    // same order — every product the walks form is bit-identical to one
    // formed through the Circuit accessors.
    netlist::CsrView csr_;

    std::vector<double> c1_;
    std::vector<double> eff_;  ///< post-override c1, dense (what
                               ///< consumers' sensitisation reads)
    std::vector<double> drv_obs_;
    std::vector<std::int8_t> control_;  ///< TpKind as int, -1 = none
    std::vector<std::uint8_t> observe_;
    std::size_t committed_or_open_controls_ = 0;
    std::size_t committed_or_open_observes_ = 0;

    std::vector<Frame> frames_;
    /// Retired frames kept for their vector capacity: apply() recycles
    /// one instead of allocating three fresh undo vectors per point —
    /// planner rounds apply/rollback thousands of frames of similar
    /// size, so steady state allocates nothing.
    std::vector<Frame> spare_frames_;
    std::uint64_t last_touched_ = 0;
    std::uint64_t state_version_ = 1;

    // Worklist scratch: per-level buckets plus stamp-based dedup, reused
    // across applies (no steady-state allocation).
    std::vector<std::vector<std::uint32_t>> bucket_;
    std::vector<std::uint32_t> sched_stamp_;
    std::vector<std::uint32_t> changed_stamp_;
    std::uint32_t stamp_ = 0;
    std::uint32_t change_epoch_ = 0;
    std::vector<double> fanin_scratch_;
};

}  // namespace tpi::testability
