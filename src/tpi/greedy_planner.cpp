#include <algorithm>

#include "fault/fault.hpp"
#include "lint/lint.hpp"
#include "netlist/transform.hpp"
#include "obs/obs.hpp"
#include "testability/cop.hpp"
#include "testability/profile.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/planners.hpp"
#include "util/error.hpp"

namespace tpi {

using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

Plan GreedyPlanner::plan(const netlist::Circuit& circuit,
                         const PlannerOptions& options) {
    validate_planner_options(options, "GreedyPlanner");
    obs::Sink* sink = options.sink;
    obs::Span plan_span(sink, "plan/greedy");
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);

    // Internal proxy universe: identical to `faults` unless lint pruning
    // zero-weights the provably redundant classes. Exact evaluations
    // (and the returned score) always use the full universe.
    fault::CollapsedFaults plan_faults = faults;
    std::vector<bool> condemned;
    std::size_t candidate_count = 0;
    std::size_t pruned_count = 0;
    if (options.prune_via_lint) {
        obs::Span prune_span(sink, "plan/lint-prune");
        lint::Pruning pruning = lint::compute_pruning(circuit);
        condemned = std::move(pruning.drop_candidate);
        for (const fault::Fault& f : pruning.redundant_faults) {
            const std::int32_t idx = plan_faults.class_index(f);
            if (idx >= 0) plan_faults.class_size[idx] = 0;
        }
    }
    const auto is_condemned = [&](NodeId v) {
        return !condemned.empty() && condemned[v.v];
    };
    for (NodeId v : circuit.all_nodes()) {
        if (is_condemned(v))
            ++pruned_count;
        else
            ++candidate_count;
    }

    std::vector<TestPoint> points;
    std::vector<bool> has_point(circuit.node_count(), false);
    int remaining = options.budget;
    bool truncated = false;
    // Every unit of work here is a profile build or a batch of exact
    // evaluations, so poll the clock on every check rather than
    // amortised.
    const auto out_of_time = [&] {
        return options.deadline != nullptr &&
               options.deadline->expired_now();
    };

    // Incremental engine: committed state mirrors `points` throughout,
    // and every score it produces is bit-identical to evaluate_plan on
    // the materialised plan (the differential suite asserts it) without
    // paying a full transform + COP per candidate.
    EvalEngine engine(circuit, faults, options.objective, sink);
    PlanEvaluation current = engine.evaluation();

    // Per-step scratch, hoisted: the mapped fault universe is rebuilt in
    // place (only the representative node ids change between steps), and
    // the affordable-candidate batch reuses its capacity across steps.
    fault::CollapsedFaults mapped = plan_faults;
    std::vector<TestPoint> batch;
    std::vector<std::size_t> batch_of;

    while (remaining > 0) {
        if (out_of_time()) {
            truncated = true;
            break;
        }
        obs::Span step_span(sink, "plan/greedy-step");
        // Analyse the circuit with the points selected so far.
        const netlist::TransformResult dft =
            netlist::apply_test_points(circuit, points);
        const testability::CopResult cop = engine.export_cop(dft);

        for (std::size_t i = 0; i < mapped.size(); ++i)
            mapped.representatives[i].node =
                dft.node_map[plan_faults.representatives[i].node.v];

        // ---- candidate generation ----
        struct Candidate {
            TestPoint point;  // on original node ids
            double proxy;
        };
        std::vector<Candidate> observe_cands;
        std::vector<Candidate> control_cands;

        if (options.allow_observe && options.greedy_flow_proxy) {
            // Deficit-flow proxy, O(nodes + edges) per step: each hard
            // fault injects its weighted benefit deficit at its site,
            // scaled by excitation, and the deficit flows down the best
            // single-path sensitisation product (a max-plus sweep over
            // the fanout CSR in topological order). Ranking only — the
            // shortlist survivors are still scored exactly — but unlike
            // the covering proxy its cost does not grow with the number
            // of faults times their cone sizes, which is what makes
            // greedy planning tractable on million-gate circuits.
            const netlist::CsrView& view = dft.circuit.topology();
            std::vector<double> flow(dft.circuit.node_count(), 0.0);
            for (std::size_t fi = 0; fi < mapped.size(); ++fi) {
                if (plan_faults.class_size[fi] == 0) continue;
                const double have = options.objective.benefit(
                    current.detection_probability[fi]);
                if (have >= 1.0) continue;
                const fault::Fault f = mapped.representatives[fi];
                const double excitation =
                    f.stuck_at1 ? (1.0 - cop.c1[f.node.v])
                                : cop.c1[f.node.v];
                const double deficit =
                    static_cast<double>(plan_faults.class_size[fi]) *
                    (1.0 - have) * excitation;
                flow[f.node.v] = std::max(flow[f.node.v], deficit);
            }
            for (NodeId v : dft.circuit.topo_order()) {
                const double fv = flow[v.v];
                if (fv <= 0.0) continue;
                const std::uint32_t begin = view.fanout_offset[v.v];
                const std::uint32_t end = view.fanout_offset[v.v + 1];
                for (std::uint32_t e = begin; e != end; ++e) {
                    const NodeId m = view.fanout[e];
                    const double via =
                        fv * testability::sensitization_probability(
                                 dft.circuit, m, view.fanout_slot[e],
                                 cop.c1);
                    flow[m.v] = std::max(flow[m.v], via);
                }
            }
            for (NodeId orig : circuit.all_nodes()) {
                if (has_point[orig.v] || is_condemned(orig)) continue;
                const NodeId cur = dft.node_map[orig.v];
                // Weight by how badly the net needs an observation
                // point: a deficit arriving at an already perfectly
                // observable net gains nothing from observing there.
                const double proxy =
                    flow[cur.v] * (1.0 - cop.obs[cur.v]);
                if (proxy > 0.0)
                    observe_cands.push_back(
                        {{orig, TpKind::Observe}, proxy});
            }
            std::sort(observe_cands.begin(), observe_cands.end(),
                      [](const Candidate& a, const Candidate& b) {
                          return a.proxy > b.proxy;
                      });
        } else if (options.allow_observe) {
            // Covering-style proxy: the benefit gain if each fault were
            // observed exactly where its effect arrives. Only the
            // *unsaturated* faults can contribute: benefit() is capped
            // at 1, so a fault whose current benefit is exactly 1.0
            // can never satisfy `would > have`, and a zero-weight class
            // adds exactly 0. Restricting the profile to the remaining
            // hard faults leaves every gain value bitwise unchanged
            // while skipping the per-fault cone walks that dominate
            // this phase on large circuits.
            fault::CollapsedFaults hard;
            std::vector<std::size_t> hard_of;
            for (std::size_t fi = 0; fi < mapped.size(); ++fi) {
                if (plan_faults.class_size[fi] == 0) continue;
                if (options.objective.benefit(
                        current.detection_probability[fi]) >= 1.0)
                    continue;
                hard.representatives.push_back(mapped.representatives[fi]);
                hard.class_size.push_back(plan_faults.class_size[fi]);
                hard_of.push_back(fi);
            }
            const testability::PropagationProfile profile =
                testability::compute_profile(dft.circuit, cop, hard,
                                             1e-9, options.deadline);
            if (out_of_time()) {
                truncated = true;
                break;
            }
            std::vector<double> gain(dft.circuit.node_count(), 0.0);
            for (std::size_t h = 0; h < profile.rows.size(); ++h) {
                const std::size_t fi = hard_of[h];
                const double have = options.objective.benefit(
                    current.detection_probability[fi]);
                const double weight = plan_faults.class_size[fi];
                for (const auto& entry : profile.rows[h]) {
                    const double would =
                        options.objective.benefit(entry.probability);
                    if (would > have)
                        gain[entry.node.v] += weight * (would - have);
                }
            }
            for (NodeId orig : circuit.all_nodes()) {
                if (has_point[orig.v] || is_condemned(orig)) continue;
                const NodeId cur = dft.node_map[orig.v];
                if (gain[cur.v] > 0.0)
                    observe_cands.push_back(
                        {{orig, TpKind::Observe}, gain[cur.v]});
            }
            std::sort(observe_cands.begin(), observe_cands.end(),
                      [](const Candidate& a, const Candidate& b) {
                          return a.proxy > b.proxy;
                      });
        }

        if (!options.control_kinds.empty()) {
            // Extremeness proxy: nets stuck near 0 or 1 starve both
            // excitation and propagation downstream.
            for (NodeId orig : circuit.all_nodes()) {
                if (has_point[orig.v] || is_condemned(orig)) continue;
                const NodeId cur = dft.node_map[orig.v];
                const double c1 = cop.c1[cur.v];
                const double balance = std::min(c1, 1.0 - c1);
                const double weight =
                    static_cast<double>(circuit.fanout_count(orig));
                const double proxy = (0.5 - balance) * (1.0 + weight);
                for (TpKind kind : options.control_kinds)
                    control_cands.push_back({{orig, kind}, proxy});
            }
            std::sort(control_cands.begin(), control_cands.end(),
                      [](const Candidate& a, const Candidate& b) {
                          return a.proxy > b.proxy;
                      });
        }

        // ---- exact evaluation of the pool ----
        const int pool = std::max(2, options.greedy_pool);
        std::vector<Candidate> shortlist;
        for (std::size_t i = 0;
             i < observe_cands.size() && i < static_cast<std::size_t>(pool);
             ++i)
            shortlist.push_back(observe_cands[i]);
        for (std::size_t i = 0;
             i < control_cands.size() && i < static_cast<std::size_t>(pool);
             ++i)
            shortlist.push_back(control_cands[i]);

        // Batch-score the affordable candidates (lane blocks, parallel
        // when options.threads > 1; scores are lane- and
        // thread-independent), then run a sequential argmax over the
        // score vector in shortlist order.
        batch.clear();
        batch_of.clear();
        batch.reserve(shortlist.size());
        for (std::size_t i = 0; i < shortlist.size(); ++i) {
            if (options.cost.cost(shortlist[i].point.kind) > remaining)
                continue;
            batch.push_back(shortlist[i].point);
            batch_of.push_back(i);
        }
        obs::add(sink, obs::Counter::GreedyEvaluations, batch.size());
        const std::vector<double> scores =
            engine.score_block(batch, options.threads);
        double best_rate = 0.0;
        int best_index = -1;
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const std::size_t i = batch_of[k];
            const int cost = options.cost.cost(shortlist[i].point.kind);
            const double rate = (scores[k] - current.score) / cost;
            if (rate > best_rate + 1e-12) {
                best_rate = rate;
                best_index = static_cast<int>(i);
            }
        }
        if (best_index < 0) break;  // no candidate improves the objective

        const TestPoint chosen = shortlist[best_index].point;
        points.push_back(chosen);
        has_point[chosen.node.v] = true;
        remaining -= options.cost.cost(chosen.kind);
        engine.push(chosen);
        engine.commit();
        current = engine.evaluation();
    }

    Plan result;
    result.points = std::move(points);
    result.truncated = truncated;
    result.candidates_considered = candidate_count;
    result.candidates_pruned = pruned_count;
    result.predicted_score = current.score;
    obs::add(sink, obs::Counter::PlanPoints, result.points.size());
    obs::add(sink, obs::Counter::CandidatesConsidered, candidate_count);
    obs::add(sink, obs::Counter::CandidatesPruned, pruned_count);
    if (truncated) obs::add(sink, obs::Counter::DeadlineExpiries);
    return result;
}

}  // namespace tpi
