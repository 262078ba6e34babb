/**
 * @file
 * Unit tests for the fiber layer: resume/yield, direct fiber-to-fiber
 * handover (switch_to), and misuse diagnostics.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"

namespace {

using nucalock::sim::Fiber;

TEST(Fiber, RunsToCompletionOnFirstResume)
{
    int ran = 0;
    Fiber f([&] { ran = 1; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(ran, 1);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber* self = nullptr;
    Fiber f([&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
        self->yield();
        order.push_back(5);
    });
    self = &f;

    f.resume();
    order.push_back(2);
    f.resume();
    order.push_back(4);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalsSurviveAcrossYields)
{
    Fiber* self = nullptr;
    long captured = 0;
    Fiber f([&] {
        long local = 42;
        self->yield();
        local *= 2;
        self->yield();
        captured = local;
    });
    self = &f;
    f.resume();
    f.resume();
    f.resume();
    EXPECT_EQ(captured, 84);
}

TEST(Fiber, ManyFibersInterleave)
{
    constexpr int kFibers = 50;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> counts(kFibers, 0);
    for (int i = 0; i < kFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>(
            [&, i] {
                for (int round = 0; round < 3; ++round) {
                    ++counts[static_cast<std::size_t>(i)];
                    fibers[static_cast<std::size_t>(i)]->yield();
                }
            },
            64 * 1024));
    }
    for (int round = 0; round < 4; ++round)
        for (auto& f : fibers)
            if (!f->finished())
                f->resume();
    for (int c : counts)
        EXPECT_EQ(c, 3);
    for (auto& f : fibers)
        EXPECT_TRUE(f->finished());
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion touching ~100 KiB of stack must fit in the default stack.
    std::function<int(int)> burn = [&](int depth) -> int {
        volatile char pad[1024] = {};
        pad[0] = static_cast<char>(depth);
        return depth == 0 ? pad[0] : burn(depth - 1) + 1;
    };
    int result = -1;
    Fiber f([&] { result = burn(100); });
    f.resume();
    EXPECT_EQ(result, 100);
}

TEST(Fiber, SwitchToChainsAndYieldReturnsToResumer)
{
    // resume(A) -> A switch_to B -> B switch_to C -> C yields: the yield
    // lands in the resume(A) caller, because each switch_to hands its
    // resumer on. A later resume(A) continues right after A's switch_to.
    std::vector<std::string> order;
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    Fiber* c = nullptr;
    Fiber fa([&] {
        order.push_back("A");
        a->switch_to(*b);
        order.push_back("A after switch_to");
    });
    Fiber fb([&] {
        order.push_back("B");
        b->switch_to(*c);
        order.push_back("B after switch_to");
    });
    Fiber fc([&] {
        order.push_back("C");
        c->yield();
        order.push_back("C after yield");
    });
    a = &fa;
    b = &fb;
    c = &fc;

    fa.resume();
    order.push_back("host: resume(A) returned");
    fa.resume();
    order.push_back("host: A finished");
    EXPECT_TRUE(fa.finished());
    EXPECT_FALSE(fb.finished());
    EXPECT_FALSE(fc.finished());
    // The suspended fibers resume where they switched out or yielded.
    fb.resume();
    fc.resume();
    EXPECT_TRUE(fb.finished());
    EXPECT_TRUE(fc.finished());
    EXPECT_EQ(order, (std::vector<std::string>{
                         "A", "B", "C", "host: resume(A) returned",
                         "A after switch_to", "host: A finished",
                         "B after switch_to", "C after yield"}));
}

TEST(Fiber, FiberEnteredBySwitchToFinishesIntoResumer)
{
    // B is never resumed: it is entered by A's switch_to, and its entry
    // function returning must land in the host's resume(A) call.
    std::vector<int> order;
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    Fiber fa([&] {
        order.push_back(1);
        a->switch_to(*b);
        order.push_back(4);
    });
    Fiber fb([&] { order.push_back(2); });
    a = &fa;
    b = &fb;

    fa.resume();
    order.push_back(3);
    EXPECT_TRUE(fb.finished());
    EXPECT_FALSE(fa.finished());
    fa.resume();
    EXPECT_TRUE(fa.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(FiberDeathTest, SwitchToFinishedFiberPanics)
{
    Fiber done([] {});
    done.resume();
    Fiber* self = nullptr;
    Fiber f([&] { self->switch_to(done); });
    self = &f;
    EXPECT_DEATH(f.resume(), "switch_to a finished fiber");
}

TEST(FiberDeathTest, SwitchToFromOutsideFiberPanics)
{
    Fiber a([] {});
    Fiber b([] {});
    EXPECT_DEATH(a.switch_to(b), "switch_to outside of fiber");
}

TEST(FiberDeathTest, ResumeAfterFinishPanics)
{
    Fiber f([] {});
    f.resume();
    EXPECT_DEATH(f.resume(), "resume of finished fiber");
}

TEST(FiberDeathTest, TinyStackRejected)
{
    EXPECT_DEATH(Fiber([] {}, 1024), "fiber stack too small");
}

} // namespace
