#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "fault/fault.hpp"
#include "lint/lint.hpp"
#include "netlist/ffr.hpp"
#include "netlist/transform.hpp"
#include "obs/obs.hpp"
#include "testability/cop.hpp"
#include "tpi/eval_engine.hpp"
#include "tpi/planners.hpp"
#include "tpi/tree_joint_dp.hpp"
#include "tpi/tree_obs_dp.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tpi {

using netlist::NodeId;
using netlist::TestPoint;
using netlist::TpKind;

namespace {

/// One region's DP, either variant, behind a common interface.
class RegionDp {
public:
    virtual ~RegionDp() = default;
    virtual double gain(int budget) const = 0;
    virtual std::vector<TestPoint> placements(int budget) const = 0;
    virtual std::uint64_t cells() const = 0;
};

class ObsRegionDp final : public RegionDp {
public:
    template <typename... Args>
    explicit ObsRegionDp(Args&&... args)
        : dp_(std::forward<Args>(args)...) {}

    double gain(int budget) const override {
        return dp_.best(budget) - dp_.baseline();
    }
    std::vector<TestPoint> placements(int budget) const override {
        std::vector<TestPoint> out;
        for (NodeId v : dp_.placements(budget))
            out.push_back({v, TpKind::Observe});
        return out;
    }
    std::uint64_t cells() const override { return dp_.cells(); }

private:
    TreeObsDp dp_;
};

class JointRegionDp final : public RegionDp {
public:
    template <typename... Args>
    explicit JointRegionDp(Args&&... args)
        : dp_(std::forward<Args>(args)...) {}

    double gain(int budget) const override {
        return dp_.best(budget) - dp_.baseline();
    }
    std::vector<TestPoint> placements(int budget) const override {
        return dp_.placements(budget);
    }
    std::uint64_t cells() const override { return dp_.cells(); }

private:
    TreeJointDp dp_;
};

/// One cached per-FFR DP, reusable across planning rounds (observe-only
/// fast path; see PlannerOptions::dp_reuse_regions). The entry owns a
/// copy of the region it was built against — TreeObsDp retains only
/// that reference after construction, so the round's transformed
/// circuit and COP can be dropped while the tables live on.
struct RegionCacheEntry {
    netlist::FanoutFreeRegion region;
    std::unique_ptr<RegionDp> dp;
    int built_cap = 0;  ///< max_budget the tables were solved to
};

/// True when every member of the region has at most two in-region fanins
/// (the joint DP's structural requirement).
bool joint_compatible(const netlist::Circuit& circuit,
                      const netlist::FanoutFreeRegion& region,
                      std::span<const std::uint32_t> region_of) {
    const std::uint32_t rid = region_of[region.root.v];
    for (NodeId v : region.members) {
        int in_region = 0;
        for (NodeId f : circuit.fanins(v))
            if (region_of[f.v] == rid) ++in_region;
        if (in_region > 2) return false;
    }
    return true;
}

}  // namespace

Plan DpPlanner::plan(const netlist::Circuit& circuit,
                     const PlannerOptions& options) {
    validate_planner_options(options, "DpPlanner");
    obs::Sink* sink = options.sink;
    obs::Span plan_span(sink, "plan/dp");
    const fault::CollapsedFaults faults = fault::singleton_faults(circuit);

    // Internal optimisation universe: identical to `faults` unless lint
    // pruning zero-weights the provably redundant classes. The final
    // predicted_score is always taken over the full universe.
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

    std::vector<TestPoint> points;
    std::vector<bool> has_point(circuit.node_count(), false);
    int remaining = options.budget;
    const int rounds = std::max(1, options.dp_rounds);
    const int chunk = std::max(1, (options.budget + rounds - 1) / rounds);
    const bool use_control = !options.control_kinds.empty();
    const unsigned threads = util::ThreadPool::resolve(options.threads);
    bool truncated = false;
    const auto out_of_time = [&] {
        // Units of work here are whole per-region DP builds — expensive
        // enough to poll the clock every time.
        return options.deadline != nullptr &&
               options.deadline->expired_now();
    };

    // Incremental engine: its committed state mirrors `points` (every
    // placement applied below is pushed + committed), so each round's
    // COP comes from export_cop — bit-identical to compute_cop over the
    // freshly transformed netlist — and the final predicted_score from
    // the engine's ordered benefit sum over the full universe.
    EvalEngine engine(circuit, faults, options.objective, sink);

    // Cross-round region reuse (the FFR-sharded fast path): observation
    // points add no nodes, so dft.node_map — and with it the transformed
    // numbering every round-local structure is expressed in — is
    // identical in every round. A region's DP tables are a pure function
    // of its member list, the COP on its members and their fanins, the
    // placement mask on its members, and the (round-invariant) mapped
    // fault universe. All of those change only inside the update cones
    // of the points committed since the tables were built, which the
    // engine's per-commit changed-node sets cover exactly; regions
    // outside them re-solve to bitwise-identical tables, so serving the
    // cached tables cannot change any plan or score. Restricted to the
    // observe-only configuration: a control point rewires fanins
    // (TreeJointDp also reads C1 everywhere, so its inputs are not
    // localised to the changed cones).
    const bool reuse_regions = options.dp_reuse_regions && !use_control &&
                               options.allow_observe;
    // Keyed by region root (stable: stems only ever appear at committed
    // points, which dirty their old region). Indexed in transformed ids,
    // which equal one fixed renumbering of the base circuit.
    std::vector<std::unique_ptr<RegionCacheEntry>> region_cache(
        reuse_regions ? circuit.node_count() : 0);
    // Transformed-id nodes whose COP changed since the last sweep
    // (accumulated from the engine between push and commit).
    std::vector<std::uint8_t> cop_dirty(
        reuse_regions ? circuit.node_count() : 0, std::uint8_t{0});
    // The fast path's persistent transform: with observe-only points the
    // per-round apply_test_points differs from the previous round's
    // result ONLY in output flags (and the observation bookkeeping), so
    // the round-0 transform is updated in place at commit time instead
    // of re-copying the circuit every round. mark_output does not thaw a
    // frozen circuit, so the shared CsrView stays valid throughout.
    // (outputs() *order* can differ from a fresh transform's — nothing
    // in the planning pipeline reads it; regions, COP and the DPs are
    // driven by output_flag and the invariant numbering.)
    std::optional<netlist::TransformResult> fast_dft;

    // Per-round scratch, hoisted out of the loop: the transformed node
    // count changes between rounds, so these are re-assigned (reusing
    // capacity), not reallocated.
    std::vector<NodeId> orig_of;
    std::vector<bool> allowed;
    fault::CollapsedFaults mapped = plan_faults;

    for (int round = 0; round < rounds && remaining > 0; ++round) {
        if (out_of_time()) {
            truncated = true;
            break;
        }
        obs::Span round_span(sink, "plan/round");
        obs::add(sink, obs::Counter::DpRounds);
        const int budget_round =
            (round == rounds - 1) ? remaining : std::min(remaining, chunk);

        // Materialise the points selected so far and re-analyse.
        obs::Span analyse_span(sink, "plan/analyse");
        netlist::TransformResult dft_round;
        if (reuse_regions) {
            if (!fast_dft.has_value())
                fast_dft = netlist::apply_test_points(circuit, points);
            // else: the committed points already marked their transformed
            // nets as outputs in place (see the placement loop below).
        } else {
            dft_round = netlist::apply_test_points(circuit, points);
        }
        const netlist::TransformResult& dft =
            reuse_regions ? *fast_dft : dft_round;
        const std::size_t cur_n = dft.circuit.node_count();

        orig_of.assign(cur_n, netlist::kNullNode);
        for (NodeId v : circuit.all_nodes())
            orig_of[dft.node_map[v.v].v] = v;
        allowed.assign(cur_n, false);
        for (std::size_t i = 0; i < cur_n; ++i) {
            const NodeId orig = orig_of[i];
            allowed[i] = orig.valid() && !has_point[orig.v] &&
                         (condemned.empty() || !condemned[orig.v]);
        }
        if (round == 0) {
            for (std::size_t i = 0; i < cur_n; ++i)
                if (allowed[i]) ++candidate_count;
            for (std::size_t i = 0; i < cur_n; ++i) {
                const NodeId orig = orig_of[i];
                if (orig.valid() && !has_point[orig.v] &&
                    !condemned.empty() && condemned[orig.v])
                    ++pruned_count;
            }
        }

        const testability::CopResult cop = engine.export_cop(dft);

        // Fault universe of the original circuit, relocated onto the
        // current netlist (the copies of the original gate outputs).
        for (std::size_t i = 0; i < mapped.size(); ++i)
            mapped.representatives[i].node =
                dft.node_map[plan_faults.representatives[i].node.v];

        const netlist::FfrDecomposition ffr =
            netlist::decompose_ffr(dft.circuit);
        analyse_span.close();
        const int region_cap =
            std::min(options.dp_region_budget, budget_round);

        if (reuse_regions) {
            // Evict every cached region the last round's commits
            // touched: any member or leaf input in a changed cone means
            // the COP a rebuild would read differs somewhere the tables
            // depend on. A placed point always dirties its own site, so
            // member-list changes (new stems) are covered too —
            // surviving entries are bitwise reusable.
            for (auto& entry : region_cache) {
                if (!entry) continue;
                bool dirty = false;
                for (NodeId v : entry->region.members)
                    if (cop_dirty[v.v]) {
                        dirty = true;
                        break;
                    }
                if (!dirty)
                    for (NodeId v : entry->region.leaf_inputs)
                        if (cop_dirty[v.v]) {
                            dirty = true;
                            break;
                        }
                if (dirty) entry.reset();
            }
            std::fill(cop_dirty.begin(), cop_dirty.end(),
                      std::uint8_t{0});
        }

        // Build the per-region DP tables. `dps` are non-owning views:
        // fresh builds live in `built` until they are installed into the
        // cache (or discarded at end of round when reuse is off).
        std::vector<RegionDp*> dps(ffr.regions.size(), nullptr);
        std::vector<std::unique_ptr<RegionCacheEntry>> built(
            ffr.regions.size());
        std::vector<bool> has_faults(ffr.regions.size(), false);
        for (std::size_t i = 0; i < mapped.size(); ++i) {
            if (mapped.class_size[i] == 0) continue;
            has_faults[ffr.region_of[mapped.representatives[i].node.v]] =
                true;
        }
        // Independent per-region builds: everything they read (the
        // transformed circuit, COP, the mapped fault universe, the
        // allowed mask) is shared read-only, and each build writes only
        // its own dps[r] slot.
        const auto build_region = [&](std::size_t r) {
            // One span per built region: the count is thread-invariant
            // (the set of fault-bearing regions is), so the report's
            // span table matches across thread counts, while the trace
            // shows which lane ran which region.
            obs::Span region_span(sink, "plan/region-dp");
            const auto& region = ffr.regions[r];
            if (reuse_regions) {
                const RegionCacheEntry* cached =
                    region_cache[region.root.v].get();
                // The member check is belt-and-suspenders (a membership
                // change implies a dirtied placed site, already
                // evicted); the cap check keeps a final round with a
                // larger per-region budget from reading past the solved
                // tables. Smaller queries against a wider table are
                // exact: dp(·, j, ·) only ever reads budgets <= j.
                if (cached != nullptr && cached->built_cap >= region_cap &&
                    cached->region.members.size() ==
                        region.members.size() &&
                    std::equal(cached->region.members.begin(),
                               cached->region.members.end(),
                               region.members.begin(),
                               [](NodeId a, NodeId b) {
                                   return a.v == b.v;
                               })) {
                    dps[r] = cached->dp.get();
                    obs::add(sink, obs::Counter::DpRegionsReused);
                    return;
                }
            }
            const bool joint =
                use_control &&
                static_cast<int>(region.members.size()) <=
                    options.dp_joint_max_region &&
                joint_compatible(dft.circuit, region, ffr.region_of);
            if (joint) {
                TreeJointDp::Params params;
                params.delta_bits = options.dp_delta_bits;
                params.max_bucket = options.dp_max_cost_bucket;
                params.max_budget = region_cap;
                params.observe_cost = options.cost.observe;
                params.control_cost = options.cost.control;
                params.c1_grid = options.dp_joint_c1_grid;
                params.allow_observe = options.allow_observe;
                params.control_kinds = options.control_kinds;
                built[r] = std::make_unique<RegionCacheEntry>();
                built[r]->dp = std::make_unique<JointRegionDp>(
                    dft.circuit, region, cop, mapped,
                    std::span<const std::uint32_t>(mapped.class_size),
                    options.objective, params,
                    allowed);
                dps[r] = built[r]->dp.get();
            } else if (options.allow_observe) {
                // The DP drops TreeObsDp::zero_gain members from its
                // placements. A region left with no other placement
                // could only return gain 0 at every budget, which the
                // knapsack's 1e-9 guard would discard anyway, so it is
                // not built. The joint DP above keeps such members: a
                // control point can make a transparent chain opaque.
                std::uint64_t zero_gain = 0;
                bool any = false;
                for (NodeId v : region.members) {
                    if (!allowed[v.v]) continue;
                    if (TreeObsDp::zero_gain(cop, v))
                        ++zero_gain;
                    else
                        any = true;
                }
                obs::add(sink, obs::Counter::CandidatesPrunedAnalysis,
                         zero_gain);
                if (!any) return;
                TreeObsDp::Params params;
                params.delta_bits = options.dp_delta_bits;
                params.max_bucket = options.dp_max_cost_bucket;
                params.max_budget = region_cap;
                params.observe_cost = options.cost.observe;
                built[r] = std::make_unique<RegionCacheEntry>();
                built[r]->built_cap = region_cap;
                // When the entry may be cached, the DP must reference
                // the entry's own region copy — the round's `ffr` dies
                // with the round.
                if (reuse_regions) built[r]->region = region;
                const netlist::FanoutFreeRegion& dp_region =
                    reuse_regions ? built[r]->region : region;
                built[r]->dp = std::make_unique<ObsRegionDp>(
                    dft.circuit, dp_region, cop, mapped,
                    std::span<const std::uint32_t>(mapped.class_size),
                    options.objective, params,
                    allowed);
                dps[r] = built[r]->dp.get();
            }
            if (dps[r]) {
                obs::add(sink, obs::Counter::DpRegionsBuilt);
                obs::add(sink, obs::Counter::DpCellsFilled,
                         dps[r]->cells());
            }
        };

        obs::Span regions_span(sink, "plan/regions");

        if (threads <= 1) {
            for (std::size_t r = 0; r < ffr.regions.size(); ++r) {
                if (!has_faults[r]) continue;
                if (out_of_time()) {
                    truncated = true;
                    break;
                }
                build_region(r);
            }
        } else {
            // Region-parallel: solve the independent FFR DPs on the
            // shared pool. The first deadline expiry (observed on any
            // lane) stops the remaining builds; the round is then
            // discarded below exactly as in the serial path, so the
            // plan never depends on which builds happened to finish.
            std::atomic<bool> expired{false};
            util::ThreadPool::shared().for_each(
                ffr.regions.size(), threads,
                [&](std::size_t r, unsigned) {
                    if (!has_faults[r]) return;
                    if (expired.load(std::memory_order_relaxed)) return;
                    if (options.deadline != nullptr &&
                        options.deadline->expired_now()) {
                        expired.store(true, std::memory_order_relaxed);
                        return;
                    }
                    build_region(r);
                });
            if (expired.load(std::memory_order_relaxed)) truncated = true;
        }
        regions_span.close();

        // Deadline hit while building region tables: the round's DP set
        // is incomplete, so stop with the points of the earlier rounds.
        if (truncated) break;

        if (reuse_regions) {
            // Install this round's fresh tables; `dps` keeps pointing at
            // the same DP objects (only ownership moves). A replaced
            // slot can only belong to a rebuilt region, never one served
            // from the cache this round, so nothing dangles.
            for (std::size_t r = 0; r < built.size(); ++r) {
                if (!built[r]) continue;
                region_cache[ffr.regions[r].root.v] = std::move(built[r]);
            }
        }

        // Outer knapsack: allocate budget_round units across regions.
        obs::Span knapsack_span(sink, "plan/knapsack");
        const int B = budget_round;
        obs::add(sink, obs::Counter::DpCellsFilled,
                 (static_cast<std::uint64_t>(dps.size()) + 1) *
                     (static_cast<std::uint64_t>(B) + 1));
        std::vector<std::vector<double>> table(
            dps.size() + 1, std::vector<double>(B + 1, 0.0));
        for (std::size_t r = 0; r < dps.size(); ++r) {
            for (int j = 0; j <= B; ++j) {
                double best = table[r][j];
                if (dps[r]) {
                    for (int s = 1; s <= std::min(j, region_cap); ++s)
                        best = std::max(best,
                                        table[r][j - s] + dps[r]->gain(s));
                }
                table[r + 1][j] = best;
            }
        }
        if (table[dps.size()][B] < 1e-9) break;  // nothing left to gain

        // Recover the allocation and apply the regions' placements.
        int used_units = 0;
        {
            int j = B;
            for (std::size_t r = dps.size(); r-- > 0;) {
                int pick = 0;
                if (dps[r]) {
                    for (int s = 0; s <= std::min(j, region_cap); ++s) {
                        if (table[r][j - s] +
                                (s > 0 ? dps[r]->gain(s) : 0.0) >=
                            table[r + 1][j] - 1e-12) {
                            pick = s;
                            break;
                        }
                    }
                }
                if (pick > 0 && dps[r]->gain(pick) > 1e-9) {
                    for (const TestPoint& tp : dps[r]->placements(pick)) {
                        const NodeId orig = orig_of[tp.node.v];
                        require(orig.valid(),
                                "DpPlanner: placement on a non-original net");
                        points.push_back({orig, tp.kind});
                        if (reuse_regions) {
                            // Mirror what next round's apply_test_points
                            // would do to the persistent transform: mark
                            // the observed net (nets already driving an
                            // output keep their single mark) and extend
                            // the observation bookkeeping export_cop
                            // cross-checks against the engine.
                            const NodeId t = fast_dft->node_map[orig.v];
                            if (!fast_dft->circuit.is_output(t))
                                fast_dft->circuit.mark_output(t);
                            fast_dft->observed_nets.push_back(t);
                            fast_dft->observation_points.push_back(
                                {orig, TpKind::Observe});
                        }
                        engine.push({orig, tp.kind});
                        if (reuse_regions) {
                            // Dirty the commit's update cone (read
                            // between push and commit, mapped into the
                            // round-invariant transformed ids) plus the
                            // site itself, whose allowed / stem status
                            // flips even when its COP value happens not
                            // to move.
                            for (const std::uint32_t c :
                                 engine.cop().frame_changed_nodes())
                                cop_dirty[dft.node_map[c].v] = 1;
                            cop_dirty[dft.node_map[orig.v].v] = 1;
                        }
                        engine.commit();
                        has_point[orig.v] = true;
                        used_units += options.cost.cost(tp.kind);
                    }
                }
                j -= pick;
            }
        }
        if (used_units == 0) break;
        remaining -= used_units;
    }

    Plan result;
    result.points = std::move(points);
    result.truncated = truncated;
    result.candidates_considered = candidate_count;
    result.candidates_pruned = pruned_count;
    result.predicted_score = engine.score();
    obs::add(sink, obs::Counter::PlanPoints, result.points.size());
    obs::add(sink, obs::Counter::CandidatesConsidered, candidate_count);
    obs::add(sink, obs::Counter::CandidatesPruned, pruned_count);
    if (truncated) obs::add(sink, obs::Counter::DeadlineExpiries);
    return result;
}

}  // namespace tpi
