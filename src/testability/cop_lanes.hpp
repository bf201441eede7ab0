#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/test_point.hpp"
#include "testability/incremental_cop.hpp"

namespace tpi::testability {

/// Widest lane count any kernel variant is compiled for: one AVX-512
/// word of doubles (or two AVX2 words).
inline constexpr unsigned kMaxCopLanes = 8;

/// True for the lane counts the batched sweep accepts: 1, 2, 4, 8.
bool cop_lanes_supported(unsigned lanes);

/// Kernel tier that will serve `lanes` candidates on this host
/// ("portable", "avx2" or "avx512"). Runtime dispatch: the portable
/// loops compute the same bits, so the host level only steers which
/// compiled variant runs, exactly like sim::detect_simd_level.
std::string_view cop_lane_isa(unsigned lanes);

/// Raw-pointer view of everything the stamped lane kernels read: the
/// circuit's frozen CSR topology, the IncrementalCop's committed state,
/// the sweep's structure-of-arrays lane block (`CopLanes`: K doubles
/// per touched node per quantity, K = `lanes`), and the per-lane
/// candidate sites. Plain-old-data on purpose — the kernels are
/// compiled under `#pragma GCC target` regions and must not pull
/// std templates across the ISA boundary.
struct LaneCtx {
    // Topology (borrowed from netlist::CsrView).
    const netlist::GateType* type = nullptr;
    const std::uint8_t* output_flag = nullptr;
    const std::uint32_t* fanin_offset = nullptr;
    const netlist::NodeId* fanin = nullptr;
    const std::uint32_t* fanout_offset = nullptr;
    const netlist::NodeId* fanout = nullptr;
    const std::uint32_t* fanout_slot = nullptr;

    // Committed base state (borrowed from the IncrementalCop).
    const double* base_c1 = nullptr;
    const double* base_eff = nullptr;
    const double* base_drv_obs = nullptr;
    const std::int8_t* base_control = nullptr;
    const std::uint8_t* base_observe = nullptr;

    // Lane block (owned by the sweep): slot-compacted SoA with the
    // three quantities interleaved per slot — slot s owns the 3*lanes
    // doubles at lane_rows + s*3*lanes, laid out [c1 | eff | drv_obs]
    // with `lanes` doubles each. One fault refresh then reads one
    // contiguous row, the dense-mode restore writes one contiguous
    // run, and phases C and O share the lines they both touch.
    // Unstamped nodes implicitly carry the broadcast base value in
    // every lane.
    const std::uint32_t* slot_of = nullptr;
    const std::uint32_t* slot_stamp = nullptr;
    std::uint32_t block_epoch = 0;
    double* lane_rows = nullptr;

    // Per-lane candidate sites (kMaxCopLanes entries; idle lanes carry
    // site_node = kNoLaneSite).
    const std::uint32_t* site_node = nullptr;
    const std::int8_t* site_control = nullptr;  ///< TpKind, -1 = none
    const std::uint8_t* site_observe = nullptr;
    /// Per-node lane bitmask: bit l set iff site_node[l] == v. Lets the
    /// kernels skip the per-lane site scans on the (vast) majority of
    /// visits — a block has at most kMaxCopLanes site nodes.
    const std::uint8_t* site_mask = nullptr;

    unsigned lanes = 0;
};

inline constexpr std::uint32_t kNoLaneSite = 0xffffffffu;

/// Objective parameters the benefit kernel replicates; must mirror
/// tpi::Objective::benefit op-for-op (asserted by the differential
/// suite). Plain data so the stamped kernels can take it directly.
struct BenefitParams {
    bool threshold_linear = false;
    double threshold = 0.0;
    std::uint64_t num_patterns = 0;
};

/// One fault whose detection probability the sweep should re-derive
/// lane-wise against the block state. `fault` is an opaque caller index
/// (the engine's fault universe index); queries must be sorted
/// ascending by it so the emitted override rows come out sorted.
struct LaneFaultQuery {
    std::uint32_t fault = 0;
    std::uint32_t node = 0;
    bool stuck_at1 = false;
    double committed_p = 0.0;
};

/// One fault whose benefit differs from the committed cache in at least
/// one lane; bit l of `mask` flags the diverging lanes.
struct LaneOverride {
    std::uint32_t fault = 0;
    std::uint32_t mask = 0;
};

struct LaneKernels;  // per-ISA function table, internal to cop_lanes.cpp

/// Batched delta-COP sweep: scores up to `lanes` candidate test points
/// against one IncrementalCop's *committed* state by walking the union
/// fanout/fanin frontier once. One SIMD word of doubles carries all
/// lanes through the shared CSR traversal, so scheduling, level
/// buckets and cache misses are paid once per group instead of once
/// per candidate.
///
/// Correctness rests on one invariant: recomputing a (lane, node) pair
/// whose inputs did not move is a bitwise no-op, so visiting the union
/// frontier is exactly equivalent to K independent scalar sweeps — the
/// per-lane change masks keep unchanged lanes' stored values untouched.
/// Every lane value, override and score is bit-identical to what
/// IncrementalCop::apply / EvalEngine::score_candidate produce for
/// that lane's point alone (see DESIGN.md §17).
///
/// The block state is throwaway: apply_block overwrites the previous
/// block, and the borrowed IncrementalCop is never mutated. All
/// scratch (slot map, buckets, lane arrays) is member state reused
/// across blocks — no steady-state allocation.
class CopLaneSweep {
public:
    /// Borrows `cop` (which must outlive the sweep and have no open
    /// frames whenever a block is applied). `lanes` must satisfy
    /// cop_lanes_supported.
    CopLaneSweep(const IncrementalCop& cop, unsigned lanes);

    unsigned lanes() const { return lanes_; }

    /// ISA tier actually serving this sweep's kernels.
    std::string_view isa() const;

    /// Apply up to lanes() candidate points, one per lane, against the
    /// committed state. Throws tpi::Error on a point duplicating a
    /// committed control/observation point (the IncrementalCop::apply
    /// contract); two lanes may carry the same net — lanes are
    /// independent hypotheses, not a joint plan.
    void apply_block(std::span<const netlist::TestPoint> points);

    /// Lanes occupied by the last block.
    unsigned active() const { return active_; }

    /// Union of nodes whose c1, site observability or test-point flags
    /// changed in at least one lane (deduplicated; includes every
    /// lane's site). Valid until the next apply_block.
    std::span<const std::uint32_t> changed_nodes() const {
        return changed_;
    }

    /// True iff `node` is in changed_nodes() for the current block.
    /// O(1) — lets callers walk an already-ordered universe (e.g. the
    /// fault list) instead of sorting changed_nodes().
    bool node_changed(std::uint32_t node) const {
        return changed_stamp_[node] == epoch_;
    }

    /// Union-frontier visits of the last block (the work measure the
    /// scalar engine reports per candidate, paid here once per group).
    std::uint64_t last_touched() const { return last_touched_; }

    /// Sum over visited nodes of (scheduling lanes - 1): how many
    /// per-candidate visits the union walk amortised away.
    std::uint64_t shared_frontier_nodes() const { return shared_; }

    // ---- lane reads ----------------------------------------------------

    double lane_c1(std::uint32_t node, unsigned lane) const;
    double lane_site_obs(std::uint32_t node, unsigned lane) const;

    // ---- fault refresh + scoring ---------------------------------------

    /// Re-derive detection probability and benefit lane-wise for each
    /// query (sorted ascending by `fault`), recording an override row
    /// per fault that diverges from its committed value in any lane.
    /// Lanes whose state at the fault site equals the committed state
    /// reproduce `committed_p` bitwise and are masked out — the same
    /// skip the scalar engine's refresh applies.
    void refresh_faults(std::span<const LaneFaultQuery> queries,
                        const BenefitParams& params);

    std::span<const LaneOverride> overrides() const {
        return {overrides_.data(), n_overrides_};
    }

    /// Per-lane objective totals over the full fault universe: the
    /// exact Objective::score accumulation order, with the committed
    /// benefit cache overridden at the rows recorded by the last
    /// refresh_faults. out_scores must hold lanes() doubles.
    void ordered_scores(std::span<const std::uint32_t> weight,
                        std::span<const double> committed_benefit,
                        double* out_scores) const;

private:
    std::uint32_t ensure_slot(std::uint32_t node);
    void schedule(std::uint32_t node, std::uint32_t lane_mask, int& lo,
                  int& hi);
    void mark_changed(std::uint32_t node);

    const IncrementalCop* cop_;
    netlist::CsrView csr_;
    unsigned lanes_;
    unsigned active_ = 0;
    const LaneKernels* kernels_;
    LaneCtx ctx_;

    /// Dense mirror mode: lane rows indexed by node (slot_of_ is the
    /// identity, every row valid), kept equal to the committed base
    /// between blocks. Buys sequential row access in the fault refresh
    /// (queries arrive in node order) and kills the slot indirection on
    /// every kernel load; gated on memory so huge circuits keep the
    /// slot-compacted representation.
    bool dense_ = false;
    std::uint64_t base_version_ = 0;  ///< cop state the mirror reflects
    void refresh_dense_base();
    void restore_dense_rows();

    // Slot-compacted lane block (CopLanes): stamp-guarded dense map
    // node -> slot, plus the SoA payload (slot-major, lane-minor).
    std::vector<std::uint32_t> slot_of_;
    std::vector<std::uint32_t> slot_stamp_;
    std::uint32_t epoch_ = 0;
    std::uint32_t slot_count_ = 0;
    /// Interleaved payload: slot s owns lane_rows_[s*3*lanes_ ..) as
    /// [c1 | eff | drv_obs], lanes_ doubles each (see LaneCtx).
    std::vector<double> lane_rows_;

    // Per-lane candidate sites of the current block, plus the inverse
    // map (node -> lane bitmask; nonzero on at most active_ nodes,
    // cleared lazily when the next block replaces the sites).
    std::uint32_t site_node_[kMaxCopLanes];
    std::int8_t site_control_[kMaxCopLanes];
    std::uint8_t site_observe_[kMaxCopLanes];
    std::vector<std::uint8_t> site_mask_;

    // Union worklist: per-level buckets + stamped dedup, with the
    // requesting-lane mask per scheduled node (drives the shared-
    // frontier counter; correctness never needs it — every visit
    // recomputes all lanes). Stamp and mask pack into one word
    // ((epoch << 8) | lane_mask) so the hot schedule() path is one
    // load and one store.
    std::vector<std::vector<std::uint32_t>> bucket_;
    std::vector<std::uint64_t> sched_;
    std::uint32_t sched_epoch_ = 0;
    std::vector<std::uint32_t> moved_buf_;  ///< per-bucket kernel output

    // Union changed set + per-phase bookkeeping.
    std::vector<std::uint32_t> changed_;
    std::vector<std::uint32_t> changed_stamp_;
    /// (node, lane mask) pairs whose post-override c1 moved — the
    /// phase-O seed source, mirroring the scalar frame's c1_undo walk.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> c1_moved_;

    std::uint64_t last_touched_ = 0;
    std::uint64_t shared_ = 0;

    // Override rows from the last refresh_faults. Both buffers are
    // grow-only worst-case pools the batch kernel compacts into;
    // n_overrides_ is the live row count (resizing the vectors down and
    // up again would re-zero them every block).
    std::vector<LaneOverride> overrides_;
    std::vector<double> override_benefit_;  ///< lanes() doubles per row
    std::size_t n_overrides_ = 0;
};

}  // namespace tpi::testability
