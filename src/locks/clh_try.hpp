/**
 * @file
 * CLH_TRY: a CLH queue lock with timeout (in the spirit of Scott &
 * Scherer, PPoPP 2001, and Scott, PODC 2002 — the paper's references
 * [22, 23], its own pointer for fixing queue locks' multiprogramming
 * fragility).
 *
 * A waiter that gives up marks its own node with a *redirect* to its
 * predecessor; its successor follows the redirect chain and inherits the
 * predecessor, so departures never break the queue. The published
 * protocols need several handshake states because nodes are recycled; we
 * allocate a fresh node per acquisition from the machine's arena (nothing
 * is ever freed), which removes reclamation races entirely at the cost of
 * one word per acquisition — a deliberate simplification, documented in
 * docs/locks.md.
 *
 * Node word values: kAvailable (grant), kWaiting, or kPtrBase + token
 * (redirect to the node with that token).
 *
 * Checker view (sim/scheduler.hpp): the timeout path makes this the most
 * schedule-sensitive lock in the suite — a waiter's redirect store races
 * with its successor's chain-following loads, and the bounded checker
 * (check/) explores both orders. The bounded-abort caveat: try_acquire
 * still executes the enqueue swap (a visible decision point) before
 * giving up, so a "failed" try is not a no-op in the schedule — replayed
 * traces include those aborted enqueues.
 */
#ifndef NUCALOCK_LOCKS_CLH_TRY_HPP
#define NUCALOCK_LOCKS_CLH_TRY_HPP

#include <vector>

#include "common/logging.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class ClhTryLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "CLH_TRY";

    explicit ClhTryLock(Machine& machine, const LockParams& = LockParams{},
                        int home_node = 0)
        : machine_(&machine),
          held_(static_cast<std::size_t>(machine.max_threads()))
    {
        const Ref dummy = machine.alloc(kAvailable, home_node);
        tail_ = machine.alloc(dummy.token(), home_node);
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token());
        const bool ok =
            acquire_deadline(ctx, /*has_deadline=*/false, 0, /*timed=*/false);
        NUCA_ASSERT(ok, "untimed acquire cannot fail");
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token());
    }

    /**
     * Acquire with a bounded wait.
     * @return true when the lock is held (release() required), false when
     *         the wait timed out (the queue slot was abandoned safely).
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), 1);
        if (!acquire_deadline(ctx, /*has_deadline=*/true,
                              detail::deadline_after(ctx, timeout_ns),
                              /*timed=*/true))
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), 1);
        return true;
    }

    /**
     * Bounded-abort try: enqueue, poll the predecessor once (following any
     * redirect chain), and abandon the slot via a redirect on a miss. Not
     * wait-free — enqueueing is mandatory in CLH — but the abort path is a
     * constant number of memory operations.
     */
    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), 1);
        if (!acquire_deadline(ctx, /*has_deadline=*/true,
                              detail::lock_clock_ns(ctx), /*timed=*/false))
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, tail_.token());
        const Ref mine = held_[static_cast<std::size_t>(ctx.thread_id())];
        NUCA_ASSERT(mine.valid(), "release without acquire");
        held_[static_cast<std::size_t>(ctx.thread_id())] = Ref{};
        ctx.store(mine, kAvailable);
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). "Parked"
     *  counts redirect markers left behind (timed and bounded-abort
     *  departures); "reclaims" counts redirects consumed by a successor's
     *  chain walk. */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return tail_.token(); }

  private:
    static constexpr std::uint64_t kAvailable = 1;
    static constexpr std::uint64_t kWaiting = 2;
    /** Values >= kPtrBase encode a redirect to node (value - kPtrBase). */
    static constexpr std::uint64_t kPtrBase = 16;

    bool
    acquire_deadline(Ctx& ctx, bool has_deadline, std::uint64_t deadline,
                     bool timed)
    {
        // Fresh node every time: no recycling, no reclamation races.
        const Ref mine = machine_->alloc(kWaiting, ctx.node());
        Ref pred = Machine::ref_from_token(ctx.swap(tail_, mine.token()));

        while (true) {
            const std::uint64_t v = ctx.load(pred);
            if (v == kAvailable) {
                held_[static_cast<std::size_t>(ctx.thread_id())] = mine;
                return true;
            }
            if (v >= kPtrBase) {
                // Predecessor abandoned its slot; inherit its predecessor.
                counters_.on_reclaim();
                obs::probe(ctx, obs::LockEvent::QueueReclaim, tail_.token(),
                           static_cast<std::uint64_t>(
                               obs::ReclaimKind::Unlinked));
                pred = Machine::ref_from_token(v - kPtrBase);
                continue;
            }
            if (has_deadline && detail::lock_clock_ns(ctx) >= deadline) {
                // Leave: redirect our successor (present or future) past
                // us. A grant that lands in pred afterwards is picked up
                // by whoever inherits pred through this redirect.
                if (timed) {
                    counters_.on_abandon();
                    obs::probe(ctx, obs::LockEvent::AbandonStart,
                               tail_.token());
                }
                counters_.on_park();
                ctx.store(mine, kPtrBase + pred.token());
                if (timed)
                    obs::probe(ctx, obs::LockEvent::AbandonDone, tail_.token(),
                               static_cast<std::uint64_t>(
                                   obs::AbandonOutcome::Parked));
                return false;
            }
            if (has_deadline)
                ctx.delay(kTimedPollQuantum); // bounded poll for the deadline
            else
                ctx.spin_while_equal(pred, kWaiting);
        }
    }

    Machine* machine_;
    Ref tail_;
    std::vector<Ref> held_; // node to mark available at release, per thread
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_CLH_TRY_HPP
