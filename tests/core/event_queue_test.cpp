#include "src/core/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/core/error.hpp"

namespace csim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> log;
  q.schedule(30, [&] { log.push_back(3); });
  q.schedule(10, [&] { log.push_back(1); });
  q.schedule(20, [&] { log.push_back(2); });
  q.run_to_completion();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&log, i] { log.push_back(i); });
  }
  q.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTime) {
  EventQueue q;
  Cycles seen = 0;
  q.schedule(42, [&] { seen = q.now(); });
  q.run_one();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(q.now(), 42u);
}

TEST(EventQueue, SchedulingIntoThePastClampsToNow) {
  EventQueue q;
  q.schedule(100, [] {});
  q.run_one();
  Cycles seen = 0;
  q.schedule(10, [&] { seen = q.now(); });  // in the past
  q.run_one();
  EXPECT_EQ(seen, 100u) << "past events must be clamped to now()";
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) q.schedule(q.now() + 1, chain);
  };
  q.schedule(0, chain);
  const Cycles end = q.run_to_completion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(end, 4u);
}

TEST(EventQueue, RunOneOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_one(), std::logic_error);
}

TEST(EventQueue, SizeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.run_to_completion();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountsEventsRun) {
  EventQueue q;
  for (Cycles t = 0; t < 7; ++t) q.schedule(t, [] {});
  q.run_to_completion();
  EXPECT_EQ(q.events_run(), 7u);
}

TEST(EventQueueBudget, SelfReschedulingEventTripsMaxEvents) {
  EventQueue q;
  q.set_budget({0, 100, 0});
  std::function<void()> forever = [&] { q.schedule(q.now() + 1, forever); };
  q.schedule(0, forever);
  EXPECT_THROW(q.run_to_completion(), LivelockError);
  EXPECT_EQ(q.events_run(), 101u);  // first event past the budget
}

TEST(EventQueueBudget, MaxCyclesTripsOnceTimePassesBudget) {
  EventQueue q;
  q.set_budget({500, 0, 0});
  std::function<void()> forever = [&] { q.schedule(q.now() + 10, forever); };
  q.schedule(0, forever);
  try {
    q.run_to_completion();
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_GT(q.now(), 500u);
    EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos);
    EXPECT_EQ(e.snapshot().cycle, q.now());
  }
}

TEST(EventQueueBudget, NoProgressDetectorTripsOnSameCycleChurn) {
  EventQueue q;
  q.set_budget({0, 0, 50});
  std::function<void()> spin = [&] { q.schedule(q.now(), spin); };  // never advances
  q.schedule(7, spin);
  EXPECT_THROW(q.run_to_completion(), LivelockError);
  EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueueBudget, NoProgressDetectorResetsWhenTimeAdvances) {
  EventQueue q;
  q.set_budget({0, 0, 50});
  // 40 same-cycle events, then advance, repeatedly: never trips.
  int rounds = 0;
  std::function<void()> burst = [&] {
    for (int i = 0; i < 40; ++i) q.schedule(q.now(), [] {});
    if (++rounds < 5) q.schedule(q.now() + 1, burst);
  };
  q.schedule(0, burst);
  EXPECT_NO_THROW(q.run_to_completion());
  EXPECT_EQ(rounds, 5);
}

TEST(EventQueueBudget, UnsetBudgetNeverTrips) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.schedule(0, [] {});
  EXPECT_NO_THROW(q.run_to_completion());
  EXPECT_FALSE(q.budget_violation().has_value());
}

}  // namespace
}  // namespace csim
