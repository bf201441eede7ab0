#include "testability/incremental_cop.hpp"

#include <algorithm>

#include "netlist/transform.hpp"
#include "util/error.hpp"

namespace tpi::testability {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

/// Gate type of the override gate a control-point kind splices in.
GateType cp_gate(TpKind kind) {
    switch (kind) {
        case TpKind::ControlAnd: return GateType::And;
        case TpKind::ControlOr: return GateType::Or;
        case TpKind::ControlXor: return GateType::Xor;
        case TpKind::Observe: break;
    }
    throw Error("IncrementalCop: not a control kind");
}

/// Sensitisation of the overridden net through its override gate: the
/// probability the equiprobable test signal is non-controlling. Matches
/// sensitization_probability on the 2-input override gate bit-for-bit
/// (the only other fanin has c1 = 0.5).
double cp_sens(TpKind kind) {
    return kind == TpKind::ControlXor ? 1.0 : 0.5;
}

IncrementalCop::IncrementalCop(const Circuit& circuit)
    : circuit_(circuit), csr_(circuit.topology()) {
    const std::size_t n = circuit.node_count();
    const CopResult base = compute_cop(circuit);
    c1_ = base.c1;
    eff_ = base.c1;  // no control points yet: post-override == own c1
    drv_obs_ = base.obs;
    control_.assign(n, -1);
    observe_.assign(n, 0);
    bucket_.resize(static_cast<std::size_t>(csr_.depth) + 1);
    sched_stamp_.assign(n, 0);
    changed_stamp_.assign(n, 0);
}

double IncrementalCop::site_obs(NodeId v) const {
    const std::int8_t kind = control_[v.v];
    if (kind < 0) return drv_obs_[v.v];
    return drv_obs_[v.v] * cp_sens(static_cast<TpKind>(kind));
}

double IncrementalCop::eff_of(std::uint32_t v) const {
    const std::int8_t kind = control_[v];
    if (kind < 0) return c1_[v];
    const double fanin_c1[2] = {c1_[v], 0.5};
    return gate_output_c1(cp_gate(static_cast<TpKind>(kind)), fanin_c1);
}

double IncrementalCop::recompute_c1(std::uint32_t v) {
    const std::uint32_t b = csr_.fanin_offset[v];
    const std::uint32_t e = csr_.fanin_offset[v + 1];
    fanin_scratch_.resize(e - b);
    for (std::uint32_t i = b; i < e; ++i)
        fanin_scratch_[i - b] = eff_[csr_.fanin[i].v];
    return gate_output_c1(csr_.type[v], fanin_scratch_);
}

double IncrementalCop::recompute_drv_obs(std::uint32_t v) const {
    double o = (csr_.output_flag[v] != 0 || observe_[v] != 0) ? 1.0 : 0.0;
    for (std::uint32_t k = csr_.fanout_offset[v];
         k < csr_.fanout_offset[v + 1]; ++k) {
        const std::uint32_t g = csr_.fanout[k].v;
        const std::uint32_t slot = csr_.fanout_slot[k];
        const double gate_obs = site_obs(NodeId{g});
        // Sensitisation through slot `slot` of gate g: the
        // sensitization_probability recursion over the CSR fanins, same
        // operands in the same order (the max-reduction itself is
        // order-insensitive).
        double sens = 1.0;
        const std::uint32_t b = csr_.fanin_offset[g];
        const std::uint32_t e = csr_.fanin_offset[g + 1];
        switch (csr_.type[g]) {
            case GateType::And:
            case GateType::Nand:
                for (std::uint32_t i = b; i < e; ++i)
                    if (i - b != slot) sens *= eff_[csr_.fanin[i].v];
                break;
            case GateType::Or:
            case GateType::Nor:
                for (std::uint32_t i = b; i < e; ++i)
                    if (i - b != slot) sens *= 1.0 - eff_[csr_.fanin[i].v];
                break;
            default:
                break;  // Buf/Not/Xor/Xnor always propagate: sens = 1
        }
        o = std::max(o, gate_obs * sens);
    }
    return o;
}

void IncrementalCop::schedule(std::uint32_t node, int& lo, int& hi) {
    if (sched_stamp_[node] == stamp_) return;
    sched_stamp_[node] = stamp_;
    const int lv = csr_.level[node];
    bucket_[static_cast<std::size_t>(lv)].push_back(node);
    lo = std::min(lo, lv);
    hi = std::max(hi, lv);
}

void IncrementalCop::mark_changed(Frame& frame, std::uint32_t node) {
    if (changed_stamp_[node] == change_epoch_) return;
    changed_stamp_[node] = change_epoch_;
    frame.changed.push_back(node);
}

void IncrementalCop::apply(const TestPoint& point) {
    const NodeId n = point.node;
    require(n.valid() && n.v < circuit_.node_count(),
            "IncrementalCop: invalid node");
    Frame frame;
    if (!spare_frames_.empty()) {
        frame = std::move(spare_frames_.back());
        spare_frames_.pop_back();
        frame.c1_undo.clear();
        frame.obs_undo.clear();
        frame.changed.clear();
    }
    frame.point = point;
    ++change_epoch_;
    ++state_version_;
    last_touched_ = 1;

    if (netlist::is_control(point.kind)) {
        require(control_[n.v] < 0,
                "IncrementalCop: duplicate control point on net '" +
                    std::string(circuit_.node_name(n)) + "'");
        control_[n.v] = static_cast<std::int8_t>(point.kind);
        ++committed_or_open_controls_;
        // The node's own c1 is untouched (excitation reads the net
        // before the override), but the value consumers read changes.
        frame.c1_undo.emplace_back(n.v, c1_[n.v]);
        eff_[n.v] = eff_of(n.v);
    } else {
        require(observe_[n.v] == 0,
                "IncrementalCop: duplicate observation point on net '" +
                    std::string(circuit_.node_name(n)) + "'");
        observe_[n.v] = 1;
        ++committed_or_open_observes_;
    }
    mark_changed(frame, n.v);

    // ---- phase C: controllability, down the fanout cone -------------
    if (netlist::is_control(point.kind)) {
        ++stamp_;
        int lo = static_cast<int>(bucket_.size());
        int hi = -1;
        for (std::uint32_t k = csr_.fanout_offset[n.v];
             k < csr_.fanout_offset[n.v + 1]; ++k)
            schedule(csr_.fanout[k].v, lo, hi);
        for (int lv = std::max(lo, 0); lv <= hi; ++lv) {
            auto& nodes = bucket_[static_cast<std::size_t>(lv)];
            for (std::size_t k = 0; k < nodes.size(); ++k) {
                const std::uint32_t v = nodes[k];
                ++last_touched_;
                const double next = recompute_c1(v);
                if (next == c1_[v]) continue;
                frame.c1_undo.emplace_back(v, c1_[v]);
                c1_[v] = next;
                eff_[v] = eff_of(v);
                mark_changed(frame, v);
                for (std::uint32_t u = csr_.fanout_offset[v];
                     u < csr_.fanout_offset[v + 1]; ++u)
                    schedule(csr_.fanout[u].v, lo, hi);
            }
            nodes.clear();
        }
    }

    // ---- phase O: observability, up the fanin cone ------------------
    ++stamp_;
    int lo = static_cast<int>(bucket_.size());
    int hi = -1;
    // Seeds: the site itself (its output flag or override sensitisation
    // changed), the site's fanins when a control point was added (their
    // propagation now crosses the override gate), and every fanin of
    // every consumer of a net whose post-override c1 moved (their
    // sensitisation products read it).
    schedule(n.v, lo, hi);
    if (netlist::is_control(point.kind))
        for (std::uint32_t i = csr_.fanin_offset[n.v];
             i < csr_.fanin_offset[n.v + 1]; ++i)
            schedule(csr_.fanin[i].v, lo, hi);
    for (const auto& [x, old_c1] : frame.c1_undo) {
        for (std::uint32_t k = csr_.fanout_offset[x];
             k < csr_.fanout_offset[x + 1]; ++k) {
            const std::uint32_t g = csr_.fanout[k].v;
            for (std::uint32_t i = csr_.fanin_offset[g];
                 i < csr_.fanin_offset[g + 1]; ++i)
                schedule(csr_.fanin[i].v, lo, hi);
        }
    }
    for (int lv = hi; lv >= std::max(lo, 0); --lv) {
        auto& nodes = bucket_[static_cast<std::size_t>(lv)];
        for (std::size_t k = 0; k < nodes.size(); ++k) {
            const std::uint32_t v = nodes[k];
            ++last_touched_;
            const double next = recompute_drv_obs(v);
            if (next == drv_obs_[v]) continue;
            frame.obs_undo.emplace_back(v, drv_obs_[v]);
            drv_obs_[v] = next;
            mark_changed(frame, v);
            for (std::uint32_t i = csr_.fanin_offset[v];
                 i < csr_.fanin_offset[v + 1]; ++i) {
                // Fanins sit at strictly lower levels, so the bucket
                // sweep (strictly descending) visits them after every
                // consumer has settled.
                schedule(csr_.fanin[i].v, lo, hi);
            }
        }
        nodes.clear();
    }

    frames_.push_back(std::move(frame));
}

void IncrementalCop::rollback() {
    require(!frames_.empty(), "IncrementalCop: rollback with no frame");
    ++state_version_;
    const Frame& frame = frames_.back();
    const NodeId n = frame.point.node;
    if (netlist::is_control(frame.point.kind)) {
        control_[n.v] = -1;
        --committed_or_open_controls_;
    } else {
        observe_[n.v] = 0;
        --committed_or_open_observes_;
    }
    for (const auto& [v, old_c1] : frame.c1_undo) c1_[v] = old_c1;
    // eff is a pure function of (c1, control); recomputing it from the
    // restored inputs reproduces the pre-apply value bit-for-bit.
    for (const auto& [v, old_c1] : frame.c1_undo) eff_[v] = eff_of(v);
    for (const auto& [v, old_obs] : frame.obs_undo) drv_obs_[v] = old_obs;
    spare_frames_.push_back(std::move(frames_.back()));
    frames_.pop_back();
}

void IncrementalCop::commit() {
    require(frames_.size() == 1,
            "IncrementalCop: commit requires exactly one open frame");
    spare_frames_.push_back(std::move(frames_.back()));
    frames_.pop_back();
}

std::span<const std::uint32_t> IncrementalCop::frame_changed_nodes()
    const {
    require(!frames_.empty(),
            "IncrementalCop: no open frame to inspect");
    return frames_.back().changed;
}

CopResult IncrementalCop::export_cop(
    const netlist::TransformResult& dft) const {
    require(dft.node_map.size() == circuit_.node_count(),
            "IncrementalCop: transform of a different circuit");
    require(dft.control_points.size() == committed_or_open_controls_ &&
                dft.observation_points.size() ==
                    committed_or_open_observes_,
            "IncrementalCop: transform carries a different plan");

    CopResult out;
    out.c1.assign(dft.circuit.node_count(), 0.0);
    out.obs.assign(dft.circuit.node_count(), 0.0);
    for (NodeId v : circuit_.all_nodes()) {
        const NodeId copy = dft.node_map[v.v];
        out.c1[copy.v] = c1_[v.v];
        out.obs[copy.v] = site_obs(v);
    }
    for (std::size_t k = 0; k < dft.control_points.size(); ++k) {
        const TestPoint& tp = dft.control_points[k];
        const NodeId v = tp.node;
        require(control_[v.v] == static_cast<std::int8_t>(tp.kind),
                "IncrementalCop: control point mismatch on net '" +
                    std::string(circuit_.node_name(v)) + "'");
        const NodeId cp = dft.driver_map[v.v];
        const NodeId ctl = dft.control_inputs[k];
        out.c1[cp.v] = eff_[v.v];
        out.obs[cp.v] = drv_obs_[v.v];
        out.c1[ctl.v] = 0.5;
        // Sensitisation of the test signal through the override gate
        // (the only other fanin is the overridden net).
        double sens = 1.0;
        if (tp.kind == TpKind::ControlAnd)
            sens *= c1_[v.v];
        else if (tp.kind == TpKind::ControlOr)
            sens *= 1.0 - c1_[v.v];
        out.obs[ctl.v] = drv_obs_[v.v] * sens;
    }
    for (const TestPoint& tp : dft.observation_points)
        require(observe_[tp.node.v] != 0,
                "IncrementalCop: observation point mismatch on net '" +
                    std::string(circuit_.node_name(tp.node)) + "'");
    return out;
}

}  // namespace tpi::testability
