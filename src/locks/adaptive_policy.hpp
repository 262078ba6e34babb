/**
 * @file
 * Gear-switch policy for AdaptiveLock (locks/adaptive.hpp): decides *when*
 * to morph between the TATAS, HBO_GT and timed-queue gears; the lock
 * decides *how* (always-safe gear CAS, see adaptive.hpp).
 *
 * The policy is deliberately decoupled from the observability layer: it
 * samples its own epoch-bucketed counters (fed by the lock from facts it
 * already knows — was the acquire contended, did the lock arrive from a
 * remote node, how busy was the global link) rather than reading probe
 * state, so installing or removing a ProbeSink cannot change lock
 * behaviour (the probe-independence invariant pinned by tests/obs_test.cpp
 * and nucabench's debug-build tripwire).
 *
 * Decision discipline:
 *  - Voluntary switches (Contention/NucaTraffic/Quiet) are evaluated only
 *    at epoch boundaries, only by the current holder (so the evaluation is
 *    serialized by the lock itself), and only outside the post-switch
 *    cooldown — that is the hysteresis that prevents oscillation.
 *  - Degradation (TimeoutStorm) is evaluated by *any* thread whose timed
 *    acquire abandons, because a timeout storm is exactly the situation in
 *    which there may be no live holder to run policy (FaultKind::
 *    HolderDeath). It bypasses the cooldown: bounded handoff beats
 *    stability when waiters are already timing out.
 *  - Promotion out of degraded mode (Recovery) requires a run of fully
 *    quiet epochs, so one good epoch after a storm does not bounce the
 *    lock straight back into the gear that starved.
 *
 * Counters are relaxed atomics (the AbandonCounters convention): the
 * abandonment path is cross-thread, and torn epoch samples merely cost a
 * slightly late or early switch — never safety, which the lock word alone
 * provides.
 */
#ifndef NUCALOCK_LOCKS_ADAPTIVE_POLICY_HPP
#define NUCALOCK_LOCKS_ADAPTIVE_POLICY_HPP

#include <atomic>
#include <cstdint>
#include <optional>

#include "locks/params.hpp"

namespace nucalock::locks {

/** The three gears AdaptiveLock morphs between. Values are wire-stable:
 *  they appear in the gear word and in AdaptSwitch probe payloads. */
enum class AdaptGear : std::uint8_t
{
    Tatas = 0, ///< TATAS_EXP on the word: best at low contention
    Hbo = 1,   ///< HBO_GT arrival shaping: NUCA-contended, link-saturated
    Queue = 2, ///< timed MCS in front of the word: fairness / degraded
};

/** Why the policy ordered a switch (AdaptSwitch probe a1). */
enum class AdaptReason : std::uint8_t
{
    Contention = 0,   ///< epoch contended fraction crossed spin_up
    NucaTraffic = 1,  ///< remote handovers / link utilisation dominate
    Quiet = 2,        ///< epoch contended fraction fell to spin_down
    TimeoutStorm = 3, ///< abandonment storm: degrade to bounded handoff
    Recovery = 4,     ///< quiet period after degradation: promote back
};

inline constexpr int kAdaptGearCount = 3;
inline constexpr int kAdaptReasonCount = 5;

const char* adapt_gear_name(AdaptGear gear);
const char* adapt_reason_name(AdaptReason reason);

/** A switch order: apply with a gear-word CAS and, on winning, report back
 *  via AdaptivePolicy::on_switch. */
struct AdaptDecision
{
    AdaptGear to = AdaptGear::Tatas;
    AdaptReason reason = AdaptReason::Quiet;
};

class AdaptivePolicy
{
  public:
    explicit AdaptivePolicy(const AdaptiveParams& params = AdaptiveParams{});

    /**
     * Holder-side sample, called once per acquisition while the caller
     * still holds the lock. @p contended: the acquire needed more than one
     * attempt at the word. @p remote: the previous holder ran on another
     * node. @p link_util_pct: global-link utilisation percent over the
     * trailing window, or -1 when unavailable (native backend).
     * Returns a switch order at epoch boundaries, when warranted.
     */
    std::optional<AdaptDecision> on_acquire(AdaptGear gear, bool contended,
                                            bool remote, int link_util_pct);

    /** Any-thread abandonment notification (every timed-acquire timeout).
     *  Returns a demotion order when the storm threshold trips. */
    std::optional<AdaptDecision> on_abandon(AdaptGear gear);

    /** The caller won the gear CAS for @p reason and emitted the probe. */
    void on_switch(AdaptGear to, AdaptReason reason);

    /** In degraded (post-storm) mode: promotion requires quiet epochs. */
    bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

    /** Total gear switches applied (all reasons). */
    std::uint64_t switches() const
    {
        return switches_.load(std::memory_order_relaxed);
    }

    /** Abandonments counted toward the current storm window. */
    std::uint64_t storm_abandons() const
    {
        return storm_.load(std::memory_order_relaxed);
    }

  private:
    AdaptiveParams params_;
    // Epoch accumulators, written only under the lock (holder side).
    std::atomic<std::uint32_t> epoch_len_{0};
    std::atomic<std::uint32_t> epoch_contended_{0};
    std::atomic<std::uint32_t> epoch_remote_{0};
    std::atomic<std::uint32_t> cooldown_{0};
    std::atomic<std::uint32_t> quiet_streak_{0};
    // Storm accumulator, written from abandoning threads (any side).
    std::atomic<std::uint32_t> storm_{0};
    std::atomic<bool> degraded_{false};
    std::atomic<std::uint64_t> switches_{0};
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_ADAPTIVE_POLICY_HPP
