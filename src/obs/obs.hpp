#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tpi::obs {

/// Process-wide counters recorded by the instrumented engines.
///
/// Two classes, split by what a re-run is allowed to change:
///
///  * *deterministic* counters measure work whose total is a pure
///    function of (circuit, options, seed) — identical for every thread
///    count and on every machine. The determinism tests and the golden
///    metrics files assert on them byte-for-byte.
///  * *diagnostic* counters measure scheduling accidents (work-stealing
///    steals, pool batches, wall-clock deadline expiries). They are
///    emitted under the report's "diag" key and normalised away by every
///    differential comparison.
enum class Counter : std::uint8_t {
    // Deterministic.
    SimBlocks,             ///< 64-pattern blocks simulated
    SimPatterns,           ///< stimulus patterns applied
    FaultsSimulated,       ///< single-fault propagations run
    DpRounds,              ///< DP planner allocate/recompute rounds
    DpRegionsBuilt,        ///< per-FFR DP tables built
    DpRegionsReused,       ///< per-FFR DP tables served from the
                           ///< cross-round cache instead of rebuilt
    DpCellsFilled,         ///< DP table cells (tree DPs + outer knapsack)
    PlanPoints,            ///< test points committed by a planner
    CandidatesConsidered,  ///< candidate nets admitted to planning
    CandidatesPruned,      ///< candidate nets dropped by lint pruning
    GreedyEvaluations,     ///< exact plan evaluations in the greedy loop
    EngineEvaluations,     ///< incremental-engine candidate scorings
    EngineNodesTouched,    ///< nodes recomputed by engine deltas
    EngineRollbacks,       ///< engine undo-frame rollbacks
    EngineCommits,         ///< engine deltas committed into the base
    LintRulesRun,          ///< lint rules executed to completion
    LintFindings,          ///< lint findings emitted
    AtpgFaults,            ///< faults attempted by PODEM
    AtpgBacktracks,        ///< PODEM backtracks summed over all faults
    SimWidth,              ///< widest pattern width used, in bits
                           ///< (high-water mark via note_max, not a sum)
    FaultsDropped,         ///< faults removed from the active list by
                           ///< fault dropping
    FfrBatches,            ///< per-FFR stem observability masks computed
                           ///< by batched propagation
    ImplicationsLearned,   ///< literals stored in the static implication
                           ///< database
    FaultsProvedUntestable,  ///< faults proved untestable by conflicting
                             ///< mandatory assignments
    CandidatesPrunedAnalysis,  ///< observe-DP members dropped as provably
                               ///< zero-gain (COP observability 1.0)
    ScoreBlocks,           ///< lane-parallel candidate blocks swept
    LanesActive,           ///< candidates carried by those blocks (the
                           ///< occupied lanes; blocks * K minus padding)
    FrontierNodesShared,   ///< per-candidate frontier visits amortised
                           ///< away by the union sweep: the sum over
                           ///< visited nodes of (scheduling lanes - 1)
    // Diagnostic (thread- or wall-clock-dependent).
    DeadlineExpiries,      ///< engines stopped by an expired deadline
    PoolBatches,           ///< parallel for_each batches dispatched
    PoolTasks,             ///< indices executed by pool batches
    PoolSteals,            ///< work-stealing range steals
    kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kFirstDiagCounter =
    static_cast<std::size_t>(Counter::DeadlineExpiries);

/// Stable snake_case name of a counter (the report's JSON key).
std::string_view counter_name(Counter counter);

/// True for the counters whose totals are independent of thread count
/// and wall clock.
bool counter_deterministic(Counter counter);

/// One closed span, recorded by ~Span.
struct SpanRecord {
    std::string name;
    std::uint64_t seq = 0;    ///< global open order (atomic ticket)
    std::uint32_t tid = 0;    ///< process-wide sequential thread id
    std::uint32_t depth = 0;  ///< nesting depth on the opening thread
    double start_us = 0.0;    ///< offset from the sink epoch
    double dur_us = 0.0;
    bool detail = false;      ///< per-lane event: trace-only, excluded
                              ///< from the aggregated report
};

/// Collector for one run: a counter array (lock-free relaxed atomics on
/// the hot path) plus a span log (mutex-guarded; spans are opened at
/// coarse phase boundaries, so the lock is cold).
///
/// Engines take a `Sink*` and treat nullptr as "observability off"; the
/// free helpers below fold the null check into the call so a disabled
/// run costs one predicted-not-taken branch per instrumentation site and
/// allocates nothing (asserted by test_obs).
class Sink {
public:
    using Clock = std::chrono::steady_clock;

    Sink() : epoch_(Clock::now()) {}

    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;

    /// Add `n` to a counter. Thread-safe, lock-free, order-free: totals
    /// are sums, so any interleaving yields the same value.
    void add(Counter counter, std::uint64_t n = 1) noexcept {
        counters_[static_cast<std::size_t>(counter)].fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t value(Counter counter) const noexcept {
        return counters_[static_cast<std::size_t>(counter)].load(
            std::memory_order_relaxed);
    }

    /// Raise a counter to at least `n` (lock-free fetch-max). For
    /// counters that record a configuration high-water mark — e.g.
    /// SimWidth, where several runs against one sink must not sum their
    /// widths — rather than accumulated work.
    void note_max(Counter counter, std::uint64_t n) noexcept {
        auto& cell = counters_[static_cast<std::size_t>(counter)];
        std::uint64_t seen = cell.load(std::memory_order_relaxed);
        while (seen < n && !cell.compare_exchange_weak(
                               seen, n, std::memory_order_relaxed)) {
        }
    }

    /// Microseconds since the sink was constructed.
    double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    /// Closed spans in close order. Call after the run has quiesced (no
    /// concurrent spans still open).
    std::vector<SpanRecord> spans() const {
        std::lock_guard lock(span_mutex_);
        return spans_;
    }

    /// Process-wide sequential id of the calling thread, assigned on
    /// first use (0 is whichever thread asked first — in practice the
    /// main thread).
    static std::uint32_t thread_id();

private:
    friend class Span;

    std::uint64_t next_seq() noexcept {
        return seq_.fetch_add(1, std::memory_order_relaxed);
    }

    void record(SpanRecord&& record) {
        std::lock_guard lock(span_mutex_);
        spans_.push_back(std::move(record));
    }

    Clock::time_point epoch_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint64_t> counters_[kCounterCount] = {};
    mutable std::mutex span_mutex_;
    std::vector<SpanRecord> spans_;
};

/// RAII tracing span. Opening stamps a global sequence ticket, the
/// calling thread's id and its current nesting depth; destruction
/// records the closed span into the sink. A null sink makes both ends
/// no-ops (no clock read, no allocation).
///
/// `detail` spans are per-lane events (one per shard/worker): they show
/// up in the Chrome trace with their thread ids but are excluded from
/// the aggregated RunReport, whose span table must be identical for
/// every thread count (see DESIGN.md §11).
class Span {
public:
    Span(Sink* sink, std::string_view name, bool detail = false);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close early (idempotent; the destructor then does nothing).
    void close();

private:
    Sink* sink_;
    SpanRecord record_;
};

/// Null-tolerant counter add: the disabled path is a single branch.
inline void add(Sink* sink, Counter counter, std::uint64_t n = 1) noexcept {
    if (sink != nullptr) sink->add(counter, n);
}

/// Null-tolerant fetch-max (see Sink::note_max).
inline void note_max(Sink* sink, Counter counter, std::uint64_t n) noexcept {
    if (sink != nullptr) sink->note_max(counter, n);
}

}  // namespace tpi::obs
