#include "tpi/eval_engine.hpp"

#include <algorithm>

#include "sim/simd.hpp"
#include "testability/cop_lanes.hpp"
#include "testability/detect.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tpi {

using netlist::NodeId;
using netlist::TestPoint;

/// Per-pool-worker scratch of the block scorer: the lane sweep (which
/// owns all per-block state) plus the fault-query staging buffer.
/// Constructed lazily at the first score_block and reused across every
/// planner round — steady state allocates nothing.
struct EvalEngine::BlockScratch {
    testability::CopLaneSweep sweep;
    std::vector<testability::LaneFaultQuery> queries;
    double scores[testability::kMaxCopLanes] = {};

    BlockScratch(const testability::IncrementalCop& cop, unsigned lanes)
        : sweep(cop, lanes) {}
};

EvalEngine::EvalEngine(const netlist::Circuit& circuit,
                       const fault::CollapsedFaults& faults,
                       const Objective& objective, obs::Sink* sink)
    : circuit_(circuit),
      faults_(faults),
      objective_(objective),
      sink_(sink),
      cop_(circuit) {
    // CSR of resident faults per node (a node carries at most its s-a-0
    // and s-a-1 representative).
    const std::size_t n = circuit.node_count();
    fault_offset_.assign(n + 1, 0);
    for (const fault::Fault& f : faults.representatives)
        ++fault_offset_[f.node.v + 1];
    for (std::size_t v = 0; v < n; ++v)
        fault_offset_[v + 1] += fault_offset_[v];
    fault_index_.resize(faults.size());
    {
        std::vector<std::uint32_t> cursor(fault_offset_.begin(),
                                          fault_offset_.end() - 1);
        for (std::size_t i = 0; i < faults.size(); ++i)
            fault_index_[cursor[faults.representatives[i].node.v]++] =
                static_cast<std::uint32_t>(i);
    }

    p_.resize(faults.size());
    benefit_.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const fault::Fault f = faults.representatives[i];
        const double excitation = f.stuck_at1 ? (1.0 - cop_.c1(f.node))
                                              : cop_.c1(f.node);
        p_[i] = excitation * cop_.site_obs(f.node);
        benefit_[i] = objective_.benefit(p_[i]);
    }
}

EvalEngine::~EvalEngine() = default;

void EvalEngine::set_eval_lanes(unsigned lanes) {
    require(lanes == 0 || testability::cop_lanes_supported(lanes),
            "EvalEngine: unsupported eval lane count");
    if (lanes == eval_lanes_) return;
    eval_lanes_ = lanes;
    block_scratch_.clear();
}

void EvalEngine::refresh_changed_faults(std::vector<FaultUndo>& undo) {
    for (const std::uint32_t node : cop_.frame_changed_nodes()) {
        for (std::uint32_t k = fault_offset_[node];
             k < fault_offset_[node + 1]; ++k) {
            const std::uint32_t i = fault_index_[k];
            const fault::Fault f = faults_.representatives[i];
            const double excitation = f.stuck_at1
                                          ? (1.0 - cop_.c1(f.node))
                                          : cop_.c1(f.node);
            const double next = excitation * cop_.site_obs(f.node);
            if (next == p_[i]) continue;
            undo.push_back({i, p_[i], benefit_[i]});
            p_[i] = next;
            benefit_[i] = objective_.benefit(next);
        }
    }
}

void EvalEngine::push(const TestPoint& point) {
    cop_.apply(point);
    obs::add(sink_, obs::Counter::EngineNodesTouched, cop_.last_touched());
    fault_frames_.emplace_back();
    refresh_changed_faults(fault_frames_.back());
}

void EvalEngine::pop() {
    require(!fault_frames_.empty(), "EvalEngine: pop with no frame");
    const auto& undo = fault_frames_.back();
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        p_[it->index] = it->p;
        benefit_[it->index] = it->benefit;
    }
    fault_frames_.pop_back();
    cop_.rollback();
    obs::add(sink_, obs::Counter::EngineRollbacks);
}

void EvalEngine::commit() {
    require(fault_frames_.size() == 1,
            "EvalEngine: commit requires exactly one open frame");
    fault_frames_.pop_back();
    cop_.commit();
    obs::add(sink_, obs::Counter::EngineCommits);
}

double EvalEngine::score() const {
    // Same accumulation order as Objective::score over the same values
    // (benefit_[i] is objective.benefit(p_[i]) by construction), so the
    // total matches the oracle bit-for-bit.
    double total = 0.0;
    for (std::size_t i = 0; i < benefit_.size(); ++i)
        total += faults_.class_size[i] * benefit_[i];
    return total;
}

PlanEvaluation EvalEngine::evaluation() const {
    PlanEvaluation eval;
    eval.detection_probability = p_;
    eval.score = score();
    eval.estimated_coverage = testability::estimated_coverage(
        p_, faults_.class_size, objective_.num_patterns);
    eval.min_detection_probability =
        testability::min_detection_probability(p_);
    return eval;
}

double EvalEngine::score_candidate(const TestPoint& point) {
    push(point);
    const double s = score();
    pop();
    obs::add(sink_, obs::Counter::EngineEvaluations);
    return s;
}

std::vector<double> EvalEngine::score_block(
    std::span<const TestPoint> candidates, unsigned threads) {
    std::vector<double> scores(candidates.size());
    if (candidates.empty()) return scores;
    require(fault_frames_.empty(),
            "EvalEngine: score_block with open frames");
    const unsigned k = eval_lanes_ != 0 ? eval_lanes_
                                        : sim::preferred_eval_lanes();

    // Group candidates by FFR, then level, so block-mates share most of
    // their update cones — the union frontier of a block then costs
    // barely more than one candidate's. The node/kind tie-breaks make
    // the block composition a pure function of the candidate set
    // (stable sort over deterministic keys), independent of threads.
    if (!ffr_)
        ffr_ = std::make_unique<netlist::FfrDecomposition>(
            netlist::decompose_ffr(circuit_));
    const netlist::CsrView csr = circuit_.topology();
    block_order_.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        block_order_[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(
        block_order_.begin(), block_order_.end(),
        [&](std::uint32_t a, std::uint32_t b) {
            const TestPoint& ta = candidates[a];
            const TestPoint& tb = candidates[b];
            const std::uint32_t ra = ffr_->region_of[ta.node.v];
            const std::uint32_t rb = ffr_->region_of[tb.node.v];
            if (ra != rb) return ra < rb;
            if (csr.level[ta.node.v] != csr.level[tb.node.v])
                return csr.level[ta.node.v] < csr.level[tb.node.v];
            if (ta.node.v != tb.node.v) return ta.node.v < tb.node.v;
            return static_cast<int>(ta.kind) < static_cast<int>(tb.kind);
        });

    const std::size_t blocks = (candidates.size() + k - 1) / k;
    const unsigned pool = std::min<unsigned>(
        util::ThreadPool::resolve(threads),
        static_cast<unsigned>(std::max<std::size_t>(blocks, 1)));
    while (block_scratch_.size() < pool)
        block_scratch_.push_back(
            std::make_unique<BlockScratch>(cop_, k));

    testability::BenefitParams params;
    params.threshold_linear =
        objective_.kind == Objective::Kind::ThresholdLinear;
    params.threshold = objective_.threshold;
    params.num_patterns = objective_.num_patterns;

    auto run_block = [&](std::size_t b, unsigned lane) {
        BlockScratch& bs = *block_scratch_[lane];
        const std::size_t begin = b * k;
        const unsigned used = static_cast<unsigned>(
            std::min<std::size_t>(k, candidates.size() - begin));
        TestPoint points[testability::kMaxCopLanes];
        for (unsigned l = 0; l < used; ++l)
            points[l] = candidates[block_order_[begin + l]];
        bs.sweep.apply_block(std::span<const TestPoint>(points, used));

        // Every fault resident on a node the block touched in any lane;
        // lanes whose state at the site is unchanged reproduce the
        // committed p bitwise and mask themselves out in the kernel.
        // One ascending scan of the (already fault-ordered) universe
        // with an O(1) membership test beats gather-then-sort: the
        // changed set is a large fraction of the circuit on wide
        // blocks, and sorting it was the single hottest step.
        bs.queries.clear();
        const std::size_t n_faults = faults_.representatives.size();
        for (std::size_t i = 0; i < n_faults; ++i) {
            const fault::Fault f = faults_.representatives[i];
            if (!bs.sweep.node_changed(f.node.v)) continue;
            bs.queries.push_back({static_cast<std::uint32_t>(i),
                                  f.node.v, f.stuck_at1, p_[i]});
        }
        bs.sweep.refresh_faults(bs.queries, params);
        bs.sweep.ordered_scores(faults_.class_size, benefit_,
                                bs.scores);
        for (unsigned l = 0; l < used; ++l)
            scores[block_order_[begin + l]] = bs.scores[l];

        obs::add(sink_, obs::Counter::ScoreBlocks);
        obs::add(sink_, obs::Counter::LanesActive, used);
        obs::add(sink_, obs::Counter::FrontierNodesShared,
                 bs.sweep.shared_frontier_nodes());
        obs::add(sink_, obs::Counter::EngineNodesTouched,
                 bs.sweep.last_touched());
        obs::add(sink_, obs::Counter::EngineEvaluations, used);
    };
    if (pool <= 1) {
        for (std::size_t b = 0; b < blocks; ++b) run_block(b, 0);
    } else {
        util::ThreadPool::shared().for_each(blocks, pool, run_block);
    }
    return scores;
}

}  // namespace tpi
