/**
 * @file
 * HBO_GT: HBO with global traffic throttling (paper section 4.2, the
 * emphasized lines of Figure 1).
 *
 * Each node has one `is_spinning` gate word. A thread that must spin on a
 * lock held in a *remote* node first publishes the lock's identity in its
 * own node's gate; other threads in that node poll the gate before even
 * attempting a cas, so normally only one thread per node generates
 * cross-node lock traffic. The winner clears the gate (the paper's "dummy
 * value") as soon as the lock arrives.
 */
#ifndef NUCALOCK_LOCKS_HBO_GT_HPP
#define NUCALOCK_LOCKS_HBO_GT_HPP

#include <vector>

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class HboGtLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO_GT";

    explicit HboGtLock(Machine& machine, const LockParams& params = LockParams{},
                       int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
        const int nodes = machine.topology().num_nodes();
        gates_.reserve(static_cast<std::size_t>(nodes));
        for (int n = 0; n < nodes; ++n)
            gates_.push_back(machine.node_gate(n));
        gate_token_ = word_.token();
    }

    void
    acquire(Ctx& ctx)
    {
        (void)acquire_until(ctx, NoDeadline{});
    }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.load(my_gate(ctx)) == gate_token_) {
            obs::probe(ctx, obs::LockEvent::GateBlocked, word_.token());
            return false;
        }
        if (ctx.cas(word_, kHboFree, hbo_node_token(ctx.node())) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition (the HMCS-T discipline applied to gates): the
     * same loop as acquire() with every wait — the entry gate, both
     * backoff loops, the restart gate — deadline-bounded. A thread that
     * times out after *closing* its node's gate must re-open it before
     * leaving or the node wedges behind a gate nobody will clear (exactly
     * the window the `spinner` fault preset targets). Timeouts in the
     * local branch or while gate-blocked have nothing to undo: a blocked
     * gate was closed by some other, still-active waiter of this node.
     * Overshoot is bounded by one backoff period (remote cap at worst)
     * plus one poll.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        return acquire_until(ctx, Deadline::after(ctx, timeout_ns));
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        ctx.store(word_, kHboFree);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    /**
     * Figure 1's acquire, untimed (NoDeadline) or timed (Deadline).
     * @return false only when @p deadline expired (abandonment accounted).
     */
    template <typename D>
    bool
    acquire_until(Ctx& ctx, const D& deadline)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(),
                   D::kTimed);
        const std::uint64_t mine = hbo_node_token(ctx.node());
        // Figure 1 line 5: wait while our node's gate names this lock.
        if (!gate_wait(ctx, my_gate(ctx), gate_token_, word_.token(), deadline))
            return abandon_clean(ctx, &counters_, word_.token());
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            if (tmp == mine) {
                // Local holder: small backoff, gate untouched (Figure 1
                // lines 23-35).
                std::uint32_t b = params_.hbo_local.base;
                bool migrated = false;
                while (!migrated && tmp != kHboFree) {
                    if (deadline.expired(ctx))
                        return abandon_clean(ctx, &counters_, word_.token());
                    backoff(ctx, &b, params_.hbo_local.factor,
                            params_.hbo_local.cap, params_.jitter,
                            obs::BackoffClass::Local);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp != kHboFree && tmp != mine) {
                        // The lock migrated away. Only the untimed loop
                        // backs off once more before re-dispatching: the
                        // fault campaign's overshoot bound and its pinned
                        // report were measured without that backoff.
                        if constexpr (!D::kTimed)
                            backoff(ctx, &b, params_.hbo_local.factor,
                                    params_.hbo_local.cap, params_.jitter,
                                    obs::BackoffClass::Local);
                        migrated = true;
                    }
                }
            } else {
                // Remote holder: close our node's gate — and own the
                // obligation to re-open it on every exit from this loop —
                // then back off hard (Figure 1 lines 37-52).
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                const auto reopen = [&] {
                    open_gate(ctx, my_gate(ctx), word_.token(), kGateDummyValue);
                };
                while (true) {
                    if (deadline.expired(ctx))
                        return abandon_clean(ctx, &counters_, word_.token(),
                                             reopen);
                    backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                            obs::BackoffClass::Remote);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp == kHboFree || tmp == mine) {
                        reopen();
                        break;
                    }
                }
            }
            if (tmp == kHboFree)
                break;
            // Figure 1 lines 55-60 ("restart"): re-gate, retry, re-dispatch.
            if (!gate_wait(ctx, my_gate(ctx), gate_token_, word_.token(),
                           deadline))
                return abandon_clean(ctx, &counters_, word_.token());
            tmp = hbo_poll(ctx, word_, mine);
        }
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), D::kTimed);
        return true;
    }

    Ref word_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    LockParams params_;
    AbandonCounters counters_;

  public:
    /** The paper's "dummy value": the gate is open. */
    static constexpr std::uint64_t kGateDummyValue = 0;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_GT_HPP
