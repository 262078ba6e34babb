/**
 * @file
 * Timed acquisition: one uniform entry point over every lock.
 *
 * Locks that implement native timed abandonment expose
 * `try_acquire_for(ctx, timeout_ns)` (MCS, CLH_TRY, COHORT, HBO_GT,
 * HBO_GT_SD, HBO_HIER, REACTIVE and ADAPTIVE — see docs/robustness.md
 * for the per-family abandonment semantics). `acquire_for` dispatches to
 * that when present and falls back to a try_acquire/backoff loop
 * otherwise, so callers never need to know which family they hold. The
 * fallback's overshoot is bounded by one backoff period plus one attempt;
 * native paths document their own (tighter) bounds.
 *
 * The gated and word-spinning locks (HBO_GT, HBO_GT_SD, HBO_HIER,
 * REACTIVE, ADAPTIVE) write each wait loop once, templated on a deadline
 * type: acquire() instantiates it with NoDeadline, try_acquire_for() with
 * a Deadline. gate_wait(), open_gate() and abandon_clean() below are the
 * pieces those loops share.
 */
#ifndef NUCALOCK_LOCKS_TIMED_HPP
#define NUCALOCK_LOCKS_TIMED_HPP

#include <atomic>
#include <cstdint>
#include <limits>

#include "locks/context.hpp"
#include "locks/params.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

/** Poll quantum between deadline checks in native timed paths (matches
 *  CLH_TRY: coarse enough not to hammer the word, fine enough that the
 *  overshoot bound is dominated by the backoff cap, not the poll). */
inline constexpr std::uint32_t kTimedPollQuantum = 64;

/** Snapshot of a lock's host-side abandonment accounting. */
struct AbandonStats
{
    /** try_acquire_for calls that returned false at the deadline. */
    std::uint64_t abandons = 0;
    /** Of those, abandonments that left a marker node in the queue (MCS). */
    std::uint64_t parked = 0;
    /** Deadline hit but the handover won the abandon race; lock accepted. */
    std::uint64_t grant_races = 0;
    /** Abandoned nodes unlinked and recovered by a releaser's walk. */
    std::uint64_t reclaims = 0;
    /** Abandoned nodes resumed in place by their returning owner. */
    std::uint64_t rejoins = 0;
    /** Already-reclaimed nodes found parked and reused by their owner. */
    std::uint64_t unparks = 0;

    /** Abandoned nodes still linked into the queue = the leak audit.
     *  Non-zero at quiescence is only legitimate behind a dead holder. */
    std::uint64_t linked_abandoned() const
    {
        const std::uint64_t recovered = reclaims + rejoins;
        return parked > recovered ? parked - recovered : 0;
    }
};

/**
 * Atomic backing store for AbandonStats. Host-side state (never simulated
 * memory): relaxed increments cannot perturb a sim run and are safe from
 * the native backend's real threads.
 */
class AbandonCounters
{
  public:
    void on_abandon() { bump(abandons_); }
    void on_park() { bump(parked_); }
    void on_grant_race() { bump(grant_races_); }
    void on_reclaim() { bump(reclaims_); }
    void on_rejoin() { bump(rejoins_); }
    void on_unpark() { bump(unparks_); }

    AbandonStats
    snapshot() const
    {
        AbandonStats s;
        s.abandons = abandons_.load(std::memory_order_relaxed);
        s.parked = parked_.load(std::memory_order_relaxed);
        s.grant_races = grant_races_.load(std::memory_order_relaxed);
        s.reclaims = reclaims_.load(std::memory_order_relaxed);
        s.rejoins = rejoins_.load(std::memory_order_relaxed);
        s.unparks = unparks_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    static void
    bump(std::atomic<std::uint64_t>& counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> abandons_{0};
    std::atomic<std::uint64_t> parked_{0};
    std::atomic<std::uint64_t> grant_races_{0};
    std::atomic<std::uint64_t> reclaims_{0};
    std::atomic<std::uint64_t> rejoins_{0};
    std::atomic<std::uint64_t> unparks_{0};
};

namespace detail {

/**
 * now + timeout, saturated at UINT64_MAX. Sentinel "infinite" timeouts
 * (UINT64_MAX and friends) must clamp to the end of time, not wrap to a
 * deadline in the past that makes every acquire_for fail instantly.
 */
inline std::uint64_t
saturating_deadline(std::uint64_t now_ns, std::uint64_t timeout_ns)
{
    const std::uint64_t headroom =
        std::numeric_limits<std::uint64_t>::max() - now_ns;
    return timeout_ns >= headroom
               ? std::numeric_limits<std::uint64_t>::max()
               : now_ns + timeout_ns;
}

/** Absolute deadline for a relative timeout on this context's clock. */
template <typename Ctx>
inline std::uint64_t
deadline_after(Ctx& ctx, std::uint64_t timeout_ns)
{
    return saturating_deadline(lock_clock_ns(ctx), timeout_ns);
}

/** The undo of an abandonment that published nothing. */
struct NothingToUndo
{
    void operator()() const {}
};

} // namespace detail

/**
 * Deadline type of an untimed acquire: it never expires, so a wait loop
 * instantiated with it compiles to the plain (untimed) loop. A type, not
 * a sentinel time: an untimed wait must not read the clock, and its gate
 * wait must stay a watcher wait rather than a poll (see gate_wait).
 */
struct NoDeadline
{
    static constexpr bool kTimed = false;

    template <typename Ctx>
    constexpr bool
    expired(Ctx&) const
    {
        return false;
    }
};

/** An absolute deadline on the lock clock (detail::lock_clock_ns). */
class Deadline
{
  public:
    static constexpr bool kTimed = true;

    /** now + @p timeout_ns, saturated (detail::saturating_deadline). */
    template <typename Ctx>
    static Deadline
    after(Ctx& ctx, std::uint64_t timeout_ns)
    {
        return Deadline(detail::deadline_after(ctx, timeout_ns));
    }

    template <typename Ctx>
    bool
    expired(Ctx& ctx) const
    {
        return detail::lock_clock_ns(ctx) >= at_ns_;
    }

    /** Budget left (0 once expired), for an embedded lock's own
     *  try_acquire_for. */
    template <typename Ctx>
    std::uint64_t
    remaining_ns(Ctx& ctx) const
    {
        const std::uint64_t now = detail::lock_clock_ns(ctx);
        return at_ns_ > now ? at_ns_ - now : 0;
    }

  private:
    explicit Deadline(std::uint64_t at_ns) : at_ns_(at_ns) {}

    std::uint64_t at_ns_;
};

/**
 * The GT gate wait (Figure 1 line 5, and again at "restart"): wait while
 * this node's @p gate names the lock (@p token). Untimed it is
 * spin_while_equal, which the simulator turns into a watcher wait; the
 * watcher has no timeout, so a timed wait polls the gate every
 * kTimedPollQuantum instead. Both emit the one GateBlocked/GatePassed
 * probe first.
 * @return false when @p deadline expired with the gate still closed.
 */
template <LockContext Ctx, typename D>
bool
gate_wait(Ctx& ctx, typename Ctx::Ref gate, std::uint64_t token,
          std::uint64_t lock_id, [[maybe_unused]] const D& deadline)
{
    obs::probe_gate(ctx, gate, token, lock_id);
    if constexpr (D::kTimed) {
        while (ctx.load(gate) == token) {
            if (deadline.expired(ctx))
                return false;
            ctx.delay(kTimedPollQuantum);
        }
    } else {
        ctx.spin_while_equal(gate, token);
    }
    return true;
}

/**
 * Re-open a gate this thread closed (Figure 1's "gate := dummy"): the
 * one GateOpen probe, then the store of @p dummy. Called on the success
 * path and from abandon_clean's undo, so both leave the gate the same.
 */
template <LockContext Ctx>
void
open_gate(Ctx& ctx, typename Ctx::Ref gate, std::uint64_t lock_id,
          std::uint64_t dummy)
{
    obs::probe(ctx, obs::LockEvent::GateOpen, lock_id, 1);
    ctx.store(gate, dummy);
}

/**
 * A timed attempt's clean exit, when nothing it leaves behind is still
 * linked: count the abandonment in @p counters (null when an embedded
 * lock's own try_acquire_for already counted it), then run @p undo —
 * the caller re-opening what it closed, e.g. its node's gate — between
 * AbandonStart and AbandonDone(Clean), so the abandon latency covers it.
 * @return false, the timed attempt's result.
 */
template <LockContext Ctx, typename Undo = detail::NothingToUndo>
bool
abandon_clean(Ctx& ctx, AbandonCounters* counters, std::uint64_t lock_id,
              Undo&& undo = Undo{})
{
    if (counters != nullptr)
        counters->on_abandon();
    obs::probe(ctx, obs::LockEvent::AbandonStart, lock_id);
    undo();
    obs::probe(ctx, obs::LockEvent::AbandonDone, lock_id,
               static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
    return false;
}

/**
 * Fallback timed acquisition for locks without native abandonment:
 * bounded-wait locking with exponential backoff between try_acquire
 * attempts. (Scott, PODC 2002 — cited by the paper — covers why queue
 * locks need more than this; those now implement try_acquire_for.)
 *
 * @return true when acquired (caller must release), false on timeout.
 */
template <typename Lock, LockContext Ctx>
bool
acquire_for_polling(Lock& lock, Ctx& ctx, std::uint64_t timeout_ns,
                    const BackoffParams& backoff_params = BackoffParams{})
{
    const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
    std::uint32_t b = backoff_params.base;
    while (true) {
        if (lock.try_acquire(ctx))
            return true;
        if (detail::lock_clock_ns(ctx) >= deadline)
            return false;
        ctx.delay(b);
        b = std::min(b * backoff_params.factor, backoff_params.cap);
    }
}

/**
 * Try to acquire @p lock within roughly @p timeout_ns, preferring the
 * lock's native timed-abandonment path when it has one.
 * @return true when acquired (caller must release), false on timeout.
 */
template <typename Lock, LockContext Ctx>
bool
acquire_for(Lock& lock, Ctx& ctx, std::uint64_t timeout_ns,
            const BackoffParams& backoff_params = BackoffParams{})
{
    if constexpr (requires { lock.try_acquire_for(ctx, timeout_ns); }) {
        (void)backoff_params;
        return lock.try_acquire_for(ctx, timeout_ns);
    } else {
        return acquire_for_polling(lock, ctx, timeout_ns, backoff_params);
    }
}

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_TIMED_HPP
