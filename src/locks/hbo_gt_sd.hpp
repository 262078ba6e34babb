/**
 * @file
 * HBO_GT_SD: HBO_GT with node-centric starvation detection (paper section
 * 4.3, Figure 2).
 *
 * A node winner that keeps losing remote handovers "gets angry" after
 * GET_ANGRY_LIMIT failures: it (1) spins more frequently (drops back to the
 * local backoff constants) and (2) writes the lock's identity into the
 * *winning* nodes' is_spinning gates, stopping new threads there from even
 * attempting the lock. Once the angry winner finally acquires (or the lock
 * migrates home), it re-opens every gate it closed.
 *
 * Figure 2 stops the single node observed at the limit; we generalize
 * slightly: past the limit, any newly observed holding node is stopped too
 * (the lock may migrate between third-party nodes on >2-node machines).
 */
#ifndef NUCALOCK_LOCKS_HBO_GT_SD_HPP
#define NUCALOCK_LOCKS_HBO_GT_SD_HPP

#include <array>
#include <vector>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/hbo_gt.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class HboGtSdLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO_GT_SD";
    static constexpr int kMaxNodes = 64;

    explicit HboGtSdLock(Machine& machine, const LockParams& params = LockParams{},
                         int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
        const int nodes = machine.topology().num_nodes();
        NUCA_ASSERT(nodes <= kMaxNodes);
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
     * Timed acquisition: acquire()'s loop, deadline-bounded. Same gate
     * obligations as HboGtLock plus the anger set: a timed-out angry
     * waiter has closed up to kMaxNodes *other* nodes' gates and must
     * re-open every one of them (via the same open_gates path the success
     * exits use) or those nodes wedge. Overshoot is bounded by one
     * backoff period plus one poll.
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
    enum class RemoteSpinOutcome
    {
        Acquired,
        MigratedHome,
        TimedOut,
    };

    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    /**
     * HBO_GT's acquire with remote_spin in the remote branch, untimed
     * (NoDeadline) or timed (Deadline).
     * @return false only when @p deadline expired (abandonment accounted).
     */
    template <typename D>
    bool
    acquire_until(Ctx& ctx, const D& deadline)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(),
                   D::kTimed);
        const std::uint64_t mine = hbo_node_token(ctx.node());
        if (!gate_wait(ctx, my_gate(ctx), gate_token_, word_.token(), deadline))
            return abandon_clean(ctx, &counters_, word_.token());
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            if (tmp == mine) {
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
                        // Migrated away: as in HboGtLock, only the untimed
                        // loop backs off once more (the fault campaign's
                        // overshoot bound and its pinned report were
                        // measured without it).
                        if constexpr (!D::kTimed)
                            backoff(ctx, &b, params_.hbo_local.factor,
                                    params_.hbo_local.cap, params_.jitter,
                                    obs::BackoffClass::Local);
                        migrated = true;
                    }
                }
            } else {
                const RemoteSpinOutcome outcome =
                    remote_spin(ctx, mine, deadline);
                if (outcome == RemoteSpinOutcome::TimedOut)
                    return false; // abandonment accounted inside
                tmp = outcome == RemoteSpinOutcome::Acquired ? kHboFree
                                                             : mine;
            }
            if (tmp == kHboFree)
                break;
            if (!gate_wait(ctx, my_gate(ctx), gate_token_, word_.token(),
                           deadline))
                return abandon_clean(ctx, &counters_, word_.token());
            tmp = hbo_poll(ctx, word_, mine);
        }
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), D::kTimed);
        return true;
    }

    /**
     * Remote spinning with starvation detection (Figure 2). Every exit —
     * acquired, migrated home (the caller re-dispatches through
     * "restart"), or timed out — re-opens our gate and the whole anger
     * set. The timeout exit runs that re-open inside the abandonment, so
     * the abandon-latency metric covers it.
     */
    template <typename D>
    RemoteSpinOutcome
    remote_spin(Ctx& ctx, std::uint64_t mine, const D& deadline)
    {
        std::uint32_t b = params_.hbo_remote_base;
        std::uint32_t get_angry = 0;
        bool angry = false;
        std::array<bool, kMaxNodes> stopped{};
        int stopped_count = 0;

        obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                   static_cast<std::uint64_t>(ctx.node()));
        ctx.store(my_gate(ctx), gate_token_);
        while (true) {
            if (deadline.expired(ctx)) {
                abandon_clean(ctx, &counters_, word_.token(), [&] {
                    if (angry)
                        obs::probe(ctx, obs::LockEvent::AngryExit,
                                   word_.token());
                    open_gates(ctx, stopped, stopped_count);
                });
                return RemoteSpinOutcome::TimedOut;
            }
            if (angry) {
                // Measure (1): spin more frequently.
                std::uint32_t fast = params_.hbo_local.base;
                backoff(ctx, &fast, params_.hbo_local.factor,
                        params_.hbo_local.cap, params_.jitter,
                        obs::BackoffClass::Local);
            } else {
                backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                        obs::BackoffClass::Remote);
            }

            const std::uint64_t tmp = hbo_poll(ctx, word_, mine);
            if (tmp == kHboFree || tmp == mine) {
                if (angry)
                    obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
                open_gates(ctx, stopped, stopped_count);
                return tmp == kHboFree ? RemoteSpinOutcome::Acquired
                                       : RemoteSpinOutcome::MigratedHome;
            }

            // The lock is still in some remote node.
            ++get_angry;
            if (get_angry >= params_.get_angry_limit) {
                if (!angry)
                    obs::probe(ctx, obs::LockEvent::AngryEnter, word_.token(),
                               tmp - 1);
                angry = true;
                // Measure (2): stop the holding node's threads.
                const int holder = static_cast<int>(tmp) - 1;
                if (holder >= 0 && holder < static_cast<int>(gates_.size()) &&
                    !stopped[static_cast<std::size_t>(holder)]) {
                    stopped[static_cast<std::size_t>(holder)] = true;
                    ++stopped_count;
                    obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                               static_cast<std::uint64_t>(holder), 1);
                    ctx.store(gates_[static_cast<std::size_t>(holder)],
                              gate_token_);
                }
            }
        }
    }

    /** Release our own node's gate and every gate we closed in anger. */
    void
    open_gates(Ctx& ctx, const std::array<bool, kMaxNodes>& stopped,
               int stopped_count)
    {
        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(),
                   static_cast<std::uint64_t>(stopped_count) + 1);
        ctx.store(my_gate(ctx), HboGtLock<Ctx>::kGateDummyValue);
        if (stopped_count == 0)
            return;
        for (std::size_t n = 0; n < gates_.size(); ++n)
            if (stopped[n])
                ctx.store(gates_[n], HboGtLock<Ctx>::kGateDummyValue);
    }

    Ref word_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    LockParams params_;
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_GT_SD_HPP
