#include "testability/cop_lanes.hpp"

#include <algorithm>
#include <bit>

#include "sim/simd.hpp"
#include "testability/cop.hpp"
#include "util/error.hpp"

namespace tpi::testability {

/// Per-ISA function table the sweep dispatches through. One indirect
/// call per level bucket / fault batch / block — the hot per-visit
/// loops run inside the stamped target regions — keeps the sweep
/// skeleton (scheduling, slot map, buckets) in ordinary base-ISA code.
struct LaneKernels {
    void (*run_c1_bucket)(const LaneCtx&, const std::uint32_t*,
                          std::size_t, std::uint32_t*);
    void (*run_obs_bucket)(const LaneCtx&, const std::uint32_t*,
                           std::size_t, std::uint32_t*);
    std::size_t (*refresh_fault_batch)(const LaneCtx&,
                                       const LaneFaultQuery*, std::size_t,
                                       const BenefitParams&, LaneOverride*,
                                       double*);
    void (*ordered_scores)(const LaneCtx&, const std::uint32_t*,
                           const double*, std::size_t,
                           const LaneOverride*, const double*,
                           std::size_t, double*);
};

namespace {

constexpr std::uint32_t kNoLaneSlot = 0xffffffffu;

inline std::uint32_t lane_slot(const LaneCtx& ctx, std::uint32_t v) {
    return ctx.slot_stamp[v] == ctx.block_epoch ? ctx.slot_of[v]
                                                : kNoLaneSlot;
}

/// cp_sens, reproduced file-locally (internal linkage) so the stamped
/// kernels can inline it. Calling the out-of-line original from inside
/// the per-edge loops made every vector register caller-saved across
/// the (dynamically never-taken) control-point branch — GCC spilled
/// the whole live set around it, roughly doubling the per-visit cost.
/// Exactness: both return the literals 1.0 / 0.5 (asserted against the
/// scalar engine by the differential suite).
inline double lane_cp_sens(std::int8_t kind) {
    return static_cast<netlist::TpKind>(kind) ==
                   netlist::TpKind::ControlXor
               ? 1.0
               : 0.5;
}

/// Post-override c1 at a control site: the exact IncrementalCop::eff_of
/// computation — gate_output_c1 on the override gate with the
/// equiprobable test-signal fanin — so a seeded lane value is
/// bit-identical to the scalar engine's. Replicated op-for-op instead
/// of calling gate_output_c1 for the same reason as lane_cp_sens: a
/// call inside the kernels' store path spills the live vector set.
inline double lane_cp_eff(std::int8_t kind, double c1) {
    switch (static_cast<netlist::TpKind>(kind)) {
        case netlist::TpKind::ControlAnd: {
            double p = 1.0;  // gate_output_c1(And, {c1, 0.5})
            p *= c1;
            p *= 0.5;
            return p;
        }
        case netlist::TpKind::ControlOr: {
            double p = 1.0;  // gate_output_c1(Or, {c1, 0.5})
            p *= 1.0 - c1;
            p *= 1.0 - 0.5;
            return 1.0 - p;
        }
        case netlist::TpKind::ControlXor: {
            double p = 0.0;  // gate_output_c1(Xor, {c1, 0.5})
            p = p * (1.0 - c1) + (1.0 - p) * c1;
            p = p * (1.0 - 0.5) + (1.0 - p) * 0.5;
            return p;
        }
        case netlist::TpKind::Observe:
            break;  // unreachable: callers guard on a control kind
    }
    return c1;
}

// ---- kernel stamps ---------------------------------------------------
// Portable variant: runtime lane count, base ISA. Compiled everywhere,
// computes the same bits as the vector stamps (the differential suite
// and the TPIDP_SIMD=OFF CI leg assert it).
#define LK_FN(name) name##_portable
#define LK_LANES(ctx) ((ctx).lanes)
#include "testability/cop_lane_kernels.inc"  // NOLINT(bugprone-suspicious-include)
#undef LK_FN
#undef LK_LANES

// Vector variants: the same kernel math with a literal lane count
// (LK_K), expressed on GCC vector-extension types under `#pragma GCC
// target` so every elementwise step is one AVX2 / AVX-512 word
// operation. This is how one binary carries every tier — runtime
// detection then only picks a function table, exactly like
// sim::detect_simd_level steering the simulation word width. Note:
// target("avx2") does not enable FMA, and strict ISO FP forbids
// contraction anyway — vector-extension arithmetic is elementwise
// IEEE, so vector lanes stay bit-identical to the scalar op sequence.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(TPIDP_NO_SIMD)
#define TPIDP_COP_LANE_STAMPS 1

#pragma GCC push_options
#pragma GCC target("avx2")
#define LK_FN(name) name##_avx2_k4
#define LK_LANES(ctx) 4u
#define LK_K 4
#include "testability/cop_lane_kernels.inc"  // NOLINT(bugprone-suspicious-include)
#undef LK_FN
#undef LK_LANES
#undef LK_K
#define LK_FN(name) name##_avx2_k8
#define LK_LANES(ctx) 8u
#define LK_K 8
#include "testability/cop_lane_kernels.inc"  // NOLINT(bugprone-suspicious-include)
#undef LK_FN
#undef LK_LANES
#undef LK_K
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define LK_FN(name) name##_avx512_k8
#define LK_LANES(ctx) 8u
#define LK_K 8
#include "testability/cop_lane_kernels.inc"  // NOLINT(bugprone-suspicious-include)
#undef LK_FN
#undef LK_LANES
#undef LK_K
#pragma GCC pop_options

#endif  // stamp support

constexpr LaneKernels kPortableKernels = {
    lk_run_c1_bucket_portable,
    lk_run_obs_bucket_portable,
    lk_refresh_fault_batch_portable,
    lk_ordered_scores_portable,
};

#ifdef TPIDP_COP_LANE_STAMPS
constexpr LaneKernels kAvx2K4Kernels = {
    lk_run_c1_bucket_avx2_k4,
    lk_run_obs_bucket_avx2_k4,
    lk_refresh_fault_batch_avx2_k4,
    lk_ordered_scores_avx2_k4,
};
constexpr LaneKernels kAvx2K8Kernels = {
    lk_run_c1_bucket_avx2_k8,
    lk_run_obs_bucket_avx2_k8,
    lk_refresh_fault_batch_avx2_k8,
    lk_ordered_scores_avx2_k8,
};
constexpr LaneKernels kAvx512K8Kernels = {
    lk_run_c1_bucket_avx512_k8,
    lk_run_obs_bucket_avx512_k8,
    lk_refresh_fault_batch_avx512_k8,
    lk_ordered_scores_avx512_k8,
};
#endif

struct SelectedKernels {
    const LaneKernels* table;
    std::string_view isa;
};

/// Runtime dispatch, mirroring sim::detect_simd_level: every variant
/// computes the same bits, so the host level only picks the fastest
/// compiled table for the requested lane count.
SelectedKernels select_kernels(unsigned lanes) {
#ifdef TPIDP_COP_LANE_STAMPS
    const int level = static_cast<int>(sim::detect_simd_level());
    if (lanes == 8 && level >= static_cast<int>(sim::SimdLevel::Avx512))
        return {&kAvx512K8Kernels, "avx512"};
    if (lanes == 8 && level >= static_cast<int>(sim::SimdLevel::Avx2))
        return {&kAvx2K8Kernels, "avx2"};
    if (lanes == 4 && level >= static_cast<int>(sim::SimdLevel::Avx2))
        return {&kAvx2K4Kernels, "avx2"};
#endif
    (void)lanes;
    return {&kPortableKernels, "portable"};
}

}  // namespace

bool cop_lanes_supported(unsigned lanes) {
    return lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8;
}

std::string_view cop_lane_isa(unsigned lanes) {
    return select_kernels(lanes).isa;
}

CopLaneSweep::CopLaneSweep(const IncrementalCop& cop, unsigned lanes)
    : cop_(&cop),
      csr_(cop.circuit().topology()),
      lanes_(lanes),
      kernels_(select_kernels(lanes).table) {
    require(cop_lanes_supported(lanes),
            "CopLaneSweep: unsupported lane count");
    const std::size_t n = csr_.node_count;
    slot_of_.assign(n, 0);
    slot_stamp_.assign(n, 0);
    sched_.assign(n, 0);
    changed_stamp_.assign(n, 0);
    site_mask_.assign(n, 0);
    bucket_.resize(static_cast<std::size_t>(csr_.depth) + 1);
    for (unsigned l = 0; l < kMaxCopLanes; ++l) {
        site_node_[l] = kNoLaneSite;
        site_control_[l] = -1;
        site_observe_[l] = 0;
    }

    ctx_.type = csr_.type.data();
    ctx_.output_flag = csr_.output_flag.data();
    ctx_.fanin_offset = csr_.fanin_offset.data();
    ctx_.fanin = csr_.fanin.data();
    ctx_.fanout_offset = csr_.fanout_offset.data();
    ctx_.fanout = csr_.fanout.data();
    ctx_.fanout_slot = csr_.fanout_slot.data();
    ctx_.base_c1 = cop.c1_data().data();
    ctx_.base_eff = cop.eff_data().data();
    ctx_.base_drv_obs = cop.drv_obs_data().data();
    ctx_.base_control = cop.control_data().data();
    ctx_.base_observe = cop.observe_data().data();
    ctx_.slot_of = slot_of_.data();
    ctx_.slot_stamp = slot_stamp_.data();
    ctx_.site_node = site_node_;
    ctx_.site_control = site_control_;
    ctx_.site_observe = site_observe_;
    ctx_.site_mask = site_mask_.data();
    ctx_.lanes = lanes_;

    // Dense mirror when the full node-indexed lane block fits a modest
    // budget (fault queries then stream rows sequentially and kernel
    // loads skip the slot indirection); above it, the slot-compacted
    // block bounds memory to the touched frontier.
    constexpr std::size_t kDenseLaneBudgetBytes = std::size_t{48} << 20;
    dense_ = n * lanes_ * 3 * sizeof(double) <= kDenseLaneBudgetBytes;
    if (dense_) {
        lane_rows_.resize(n * 3 * lanes_);
        ctx_.lane_rows = lane_rows_.data();
        for (std::uint32_t v = 0; v < n; ++v) slot_of_[v] = v;
        std::fill(slot_stamp_.begin(), slot_stamp_.end(), 1u);
        ctx_.block_epoch = 1;  // every node permanently owns its slot
        refresh_dense_base();
    }
}

/// Rebroadcast the whole committed base into the dense rows; runs when
/// the borrowed cop's state moved (once per planner commit, amortised
/// over every block scored against that state).
void CopLaneSweep::refresh_dense_base() {
    const std::size_t n = csr_.node_count;
    for (std::size_t v = 0; v < n; ++v) {
        double* row = lane_rows_.data() + v * 3 * lanes_;
        const double c1 = ctx_.base_c1[v];
        const double eff = ctx_.base_eff[v];
        const double obs = ctx_.base_drv_obs[v];
        for (unsigned l = 0; l < lanes_; ++l) {
            row[l] = c1;
            row[lanes_ + l] = eff;
            row[2 * lanes_ + l] = obs;
        }
    }
    base_version_ = cop_->state_version();
}

/// Undo the previous block: every row it wrote is on its changed list,
/// so rebroadcasting those from base restores the between-blocks
/// invariant (dense rows == committed state).
void CopLaneSweep::restore_dense_rows() {
    // Wide blocks change most of the circuit; an ascending full sweep
    // then streams the row arrays instead of scattering through the
    // discovery-ordered changed list.
    if (changed_.size() * 4 >= csr_.node_count) {
        const std::uint32_t n = csr_.node_count;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (changed_stamp_[v] != epoch_) continue;
            double* row = lane_rows_.data() + std::size_t{v} * 3 * lanes_;
            const double c1 = ctx_.base_c1[v];
            const double eff = ctx_.base_eff[v];
            const double obs = ctx_.base_drv_obs[v];
            for (unsigned l = 0; l < lanes_; ++l) {
                row[l] = c1;
                row[lanes_ + l] = eff;
                row[2 * lanes_ + l] = obs;
            }
        }
        return;
    }
    for (const std::uint32_t v : changed_) {
        double* row = lane_rows_.data() + std::size_t{v} * 3 * lanes_;
        const double c1 = ctx_.base_c1[v];
        const double eff = ctx_.base_eff[v];
        const double obs = ctx_.base_drv_obs[v];
        for (unsigned l = 0; l < lanes_; ++l) {
            row[l] = c1;
            row[lanes_ + l] = eff;
            row[2 * lanes_ + l] = obs;
        }
    }
}

std::string_view CopLaneSweep::isa() const {
    return select_kernels(lanes_).isa;
}

std::uint32_t CopLaneSweep::ensure_slot(std::uint32_t node) {
    if (dense_) return node;  // identity slots, rows always valid
    if (slot_stamp_[node] == epoch_) return slot_of_[node];
    const std::uint32_t slot = slot_count_++;
    slot_of_[node] = slot;
    slot_stamp_[node] = epoch_;
    const std::size_t need = std::size_t{slot_count_} * 3 * lanes_;
    if (lane_rows_.size() < need) {
        lane_rows_.resize(std::max(need, lane_rows_.size() * 2));
        ctx_.lane_rows = lane_rows_.data();
    }
    double* row = lane_rows_.data() + std::size_t{slot} * 3 * lanes_;
    const double c1 = ctx_.base_c1[node];
    const double eff = ctx_.base_eff[node];
    const double obs = ctx_.base_drv_obs[node];
    for (unsigned l = 0; l < lanes_; ++l) {
        row[l] = c1;
        row[lanes_ + l] = eff;
        row[2 * lanes_ + l] = obs;
    }
    return slot;
}

void CopLaneSweep::schedule(std::uint32_t node, std::uint32_t lane_mask,
                            int& lo, int& hi) {
    const std::uint64_t w = sched_[node];
    const std::uint64_t tag = std::uint64_t{sched_epoch_} << 8;
    if ((w >> 8) == sched_epoch_) {
        sched_[node] = w | lane_mask;
        return;
    }
    sched_[node] = tag | lane_mask;
    const int lv = csr_.level[node];
    bucket_[static_cast<std::size_t>(lv)].push_back(node);
    lo = std::min(lo, lv);
    hi = std::max(hi, lv);
}

void CopLaneSweep::mark_changed(std::uint32_t node) {
    if (changed_stamp_[node] == epoch_) return;
    changed_stamp_[node] = epoch_;
    changed_.push_back(node);
}

void CopLaneSweep::apply_block(
    std::span<const netlist::TestPoint> points) {
    require(!points.empty() && points.size() <= lanes_,
            "CopLaneSweep: block size must be 1..lanes()");
    require(cop_->depth() == 0,
            "CopLaneSweep: cop has open frames");
    if (dense_) {
        // Restore the between-blocks invariant (rows == committed
        // base) before anything reads them: full rebroadcast if the
        // cop moved underneath us, else undo just the previous
        // block's rows.
        if (base_version_ != cop_->state_version())
            refresh_dense_base();
        else
            restore_dense_rows();
    }
    ++epoch_;
    slot_count_ = 0;
    active_ = static_cast<unsigned>(points.size());
    changed_.clear();
    c1_moved_.clear();
    n_overrides_ = 0;
    shared_ = 0;
    if (!dense_) ctx_.block_epoch = epoch_;

    for (unsigned l = 0; l < kMaxCopLanes; ++l) {
        if (site_node_[l] != kNoLaneSite) site_mask_[site_node_[l]] = 0;
        site_node_[l] = kNoLaneSite;
        site_control_[l] = -1;
        site_observe_[l] = 0;
    }
    for (unsigned l = 0; l < active_; ++l) {
        const netlist::TestPoint& tp = points[l];
        const netlist::NodeId n = tp.node;
        require(n.valid() && n.v < csr_.node_count,
                "CopLaneSweep: invalid node");
        site_node_[l] = n.v;
        site_mask_[n.v] |= static_cast<std::uint8_t>(1u << l);
        if (netlist::is_control(tp.kind)) {
            require(cop_->control_kind(n) < 0,
                    "IncrementalCop: duplicate control point on net '" +
                        std::string(cop_->circuit().node_name(n)) + "'");
            site_control_[l] = static_cast<std::int8_t>(tp.kind);
        } else {
            require(!cop_->observed(n),
                    "IncrementalCop: duplicate observation point on "
                    "net '" +
                        std::string(cop_->circuit().node_name(n)) + "'");
            site_observe_[l] = 1;
        }
    }

    // Seed: every site is changed (its flags or override moved); a
    // control site additionally gets its lane's post-override eff and
    // feeds phase-O seeding exactly like the scalar frame's c1_undo
    // walk (the site's consumers read the overridden value).
    last_touched_ = active_;
    for (unsigned l = 0; l < active_; ++l) {
        const std::uint32_t s = site_node_[l];
        mark_changed(s);
        if (site_control_[l] >= 0) {
            const std::uint32_t slot = ensure_slot(s);
            lane_rows_[std::size_t{slot} * 3 * lanes_ + lanes_ + l] =
                lane_cp_eff(site_control_[l], ctx_.base_c1[s]);
            c1_moved_.emplace_back(s, 1u << l);
        }
    }

    // ---- phase C: controllability, down the union fanout cone -------
    ++sched_epoch_;
    int lo = static_cast<int>(bucket_.size());
    int hi = -1;
    for (unsigned l = 0; l < active_; ++l) {
        if (site_control_[l] < 0) continue;
        const std::uint32_t s = site_node_[l];
        for (std::uint32_t t = csr_.fanout_offset[s];
             t < csr_.fanout_offset[s + 1]; ++t)
            schedule(csr_.fanout[t].v, 1u << l, lo, hi);
    }
    // Fanout edges strictly increase the topological level, so no node
    // lands in the bucket currently being processed — each bucket can
    // run through the kernel whole before its results are rescheduled.
    for (int lv = std::max(lo, 0); lv <= hi; ++lv) {
        auto& nodes = bucket_[static_cast<std::size_t>(lv)];
        if (nodes.empty()) continue;
        last_touched_ += nodes.size();
        if (!dense_)
            for (const std::uint32_t v : nodes) ensure_slot(v);
        if (moved_buf_.size() < nodes.size())
            moved_buf_.resize(nodes.size());
        kernels_->run_c1_bucket(ctx_, nodes.data(), nodes.size(),
                                moved_buf_.data());
        for (std::size_t k = 0; k < nodes.size(); ++k) {
            const std::uint32_t v = nodes[k];
            shared_ += std::popcount(sched_[v] & 0xffu) - 1;
            const std::uint32_t moved = moved_buf_[k];
            if (moved == 0) continue;
            mark_changed(v);
            c1_moved_.emplace_back(v, moved);
            for (std::uint32_t t = csr_.fanout_offset[v];
                 t < csr_.fanout_offset[v + 1]; ++t)
                schedule(csr_.fanout[t].v, moved, lo, hi);
        }
        nodes.clear();
    }

    // ---- phase O: observability, up the union fanin cone ------------
    ++sched_epoch_;
    lo = static_cast<int>(bucket_.size());
    hi = -1;
    for (unsigned l = 0; l < active_; ++l) {
        const std::uint32_t s = site_node_[l];
        schedule(s, 1u << l, lo, hi);
        if (site_control_[l] < 0) continue;
        for (std::uint32_t i = csr_.fanin_offset[s];
             i < csr_.fanin_offset[s + 1]; ++i)
            schedule(csr_.fanin[i].v, 1u << l, lo, hi);
    }
    for (const auto& [x, m] : c1_moved_) {
        for (std::uint32_t t = csr_.fanout_offset[x];
             t < csr_.fanout_offset[x + 1]; ++t) {
            const std::uint32_t g = csr_.fanout[t].v;
            for (std::uint32_t i = csr_.fanin_offset[g];
                 i < csr_.fanin_offset[g + 1]; ++i)
                schedule(csr_.fanin[i].v, m, lo, hi);
        }
    }
    // Fanin edges strictly decrease the level — same whole-bucket
    // kernel dispatch as phase C, walking the levels downward.
    for (int lv = hi; lv >= std::max(lo, 0); --lv) {
        auto& nodes = bucket_[static_cast<std::size_t>(lv)];
        if (nodes.empty()) continue;
        last_touched_ += nodes.size();
        if (!dense_)
            for (const std::uint32_t v : nodes) ensure_slot(v);
        if (moved_buf_.size() < nodes.size())
            moved_buf_.resize(nodes.size());
        kernels_->run_obs_bucket(ctx_, nodes.data(), nodes.size(),
                                 moved_buf_.data());
        for (std::size_t k = 0; k < nodes.size(); ++k) {
            const std::uint32_t v = nodes[k];
            shared_ += std::popcount(sched_[v] & 0xffu) - 1;
            const std::uint32_t moved = moved_buf_[k];
            if (moved == 0) continue;
            mark_changed(v);
            for (std::uint32_t i = csr_.fanin_offset[v];
                 i < csr_.fanin_offset[v + 1]; ++i)
                schedule(csr_.fanin[i].v, moved, lo, hi);
        }
        nodes.clear();
    }
}

double CopLaneSweep::lane_c1(std::uint32_t node, unsigned lane) const {
    const std::uint32_t slot = lane_slot(ctx_, node);
    if (slot == kNoLaneSlot) return ctx_.base_c1[node];
    return lane_rows_[std::size_t{slot} * 3 * lanes_ + lane];
}

double CopLaneSweep::lane_site_obs(std::uint32_t node,
                                   unsigned lane) const {
    const std::uint32_t slot = lane_slot(ctx_, node);
    const double drv =
        slot == kNoLaneSlot
            ? ctx_.base_drv_obs[node]
            : lane_rows_[std::size_t{slot} * 3 * lanes_ + 2 * lanes_ +
                         lane];
    std::int8_t kind = ctx_.base_control[node];
    if (site_node_[lane] == node && site_control_[lane] >= 0)
        kind = site_control_[lane];
    if (kind < 0) return drv;
    return drv * cp_sens(static_cast<netlist::TpKind>(kind));
}

void CopLaneSweep::refresh_faults(
    std::span<const LaneFaultQuery> queries,
    const BenefitParams& params) {
    for (std::size_t i = 1; i < queries.size(); ++i)
        require(queries[i].fault > queries[i - 1].fault,
                "CopLaneSweep: queries must be sorted by fault index");
    // Worst-case pools (every query diverges); the batch kernel
    // compacts into them and returns the live row count. Grow-only, so
    // steady state never reallocates or zero-fills.
    if (overrides_.size() < queries.size())
        overrides_.resize(queries.size());
    if (override_benefit_.size() < queries.size() * lanes_)
        override_benefit_.resize(queries.size() * lanes_);
    n_overrides_ = kernels_->refresh_fault_batch(
        ctx_, queries.data(), queries.size(), params, overrides_.data(),
        override_benefit_.data());
}

void CopLaneSweep::ordered_scores(
    std::span<const std::uint32_t> weight,
    std::span<const double> committed_benefit,
    double* out_scores) const {
    require(weight.size() == committed_benefit.size(),
            "CopLaneSweep: weight/benefit size mismatch");
    kernels_->ordered_scores(ctx_, weight.data(),
                             committed_benefit.data(), weight.size(),
                             overrides_.data(), override_benefit_.data(),
                             n_overrides_, out_scores);
}

}  // namespace tpi::testability
