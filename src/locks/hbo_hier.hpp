/**
 * @file
 * HBO_HIER: the paper's proposed extension of HBO to hierarchical NUCAs
 * (section 4.1: "This scheme can be expanded in a hierarchical way, using
 * more than two sets of constants").
 *
 * The cas-ed token identifies the holder's *chip*; a loser picks one of
 * three backoff sets depending on whether the holder shares its chip, its
 * node, or neither. Remote-node spinning is gated per node like HBO_GT.
 * On a flat (one chip per node) topology this degenerates to HBO_GT.
 */
#ifndef NUCALOCK_LOCKS_HBO_HIER_HPP
#define NUCALOCK_LOCKS_HBO_HIER_HPP

#include <vector>

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/hbo_gt.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class HboHierLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO_HIER";

    explicit HboHierLock(Machine& machine, const LockParams& params = LockParams{},
                         int home_node = 0)
        : machine_(&machine), word_(machine.alloc(kHboFree, home_node)),
          params_(params)
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
        if (ctx.cas(word_, kHboFree, chip_token(ctx)) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition: acquire()'s loop, deadline-bounded, with the
     * same obligations as HboGtLock::try_acquire_for: a timeout inside
     * the remote branch re-opens the gate this thread closed. Only the
     * remote branch touches the gate, so chip- and node-level timeouts
     * have nothing to undo.
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
    enum class Level
    {
        SameChip,
        SameNode,
        Remote,
    };

    static std::uint64_t
    chip_token(Ctx& ctx)
    {
        return static_cast<std::uint64_t>(ctx.chip()) + 1;
    }

    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    Level
    level_of(Ctx& ctx, std::uint64_t tmp) const
    {
        const int holder_chip = static_cast<int>(tmp) - 1;
        if (holder_chip == ctx.chip())
            return Level::SameChip;
        if (machine_->topology().node_of_chip(holder_chip) == ctx.node())
            return Level::SameNode;
        return Level::Remote;
    }

    /**
     * Dispatch on the holder's distance, untimed (NoDeadline) or timed
     * (Deadline). Unlike HBO_GT, no extra backoff when the holder moves.
     * @return false only when @p deadline expired (abandonment accounted).
     */
    template <typename D>
    bool
    acquire_until(Ctx& ctx, const D& deadline)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(),
                   D::kTimed);
        const std::uint64_t mine = chip_token(ctx);
        if (!gate_wait(ctx, my_gate(ctx), gate_token_, word_.token(), deadline))
            return abandon_clean(ctx, &counters_, word_.token());
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            const Level level = level_of(ctx, tmp);
            if (level == Level::Remote) {
                // Gated remote spinning, exactly as HBO_GT.
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                const auto reopen = [&] {
                    open_gate(ctx, my_gate(ctx), word_.token(),
                              HboGtLock<Ctx>::kGateDummyValue);
                };
                while (true) {
                    if (deadline.expired(ctx))
                        return abandon_clean(ctx, &counters_, word_.token(),
                                             reopen);
                    backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                            obs::BackoffClass::Remote);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp == kHboFree ||
                        level_of(ctx, tmp) != Level::Remote) {
                        reopen();
                        break;
                    }
                }
            } else {
                const BackoffParams& bp = level == Level::SameChip
                                              ? params_.hier_chip
                                              : params_.hbo_local;
                std::uint32_t b = bp.base;
                bool moved = false;
                while (!moved && tmp != kHboFree) {
                    if (deadline.expired(ctx))
                        return abandon_clean(ctx, &counters_, word_.token());
                    backoff(ctx, &b, bp.factor, bp.cap, params_.jitter,
                            obs::BackoffClass::Local);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp != kHboFree && level_of(ctx, tmp) != level)
                        moved = true; // holder distance changed; re-dispatch
                }
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

    Machine* machine_;
    Ref word_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    LockParams params_;
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_HIER_HPP
