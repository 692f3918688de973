// Unit tests for the simulation kit: RNG, event queue, simulation driver, statistics, and
// command-line flags.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/simkit/event_queue.h"
#include "src/simkit/flags.h"
#include "src/simkit/logging.h"
#include "src/simkit/rng.h"
#include "src/simkit/simulation.h"
#include "src/simkit/stats.h"
#include "src/simkit/time.h"

namespace {

using simkit::EventQueue;
using simkit::Rng;
using simkit::Simulation;

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(simkit::Microseconds(1), 1000);
  EXPECT_EQ(simkit::Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(simkit::Seconds(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(simkit::ToMilliseconds(simkit::Milliseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(simkit::ToSeconds(simkit::Seconds(3)), 3.0);
  EXPECT_EQ(simkit::kPerceivableDelay, simkit::Milliseconds(100));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42, 7);
  Rng b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(42, 7);
  Rng b(43, 7);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU32() == b.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkIsIndependentOfDrawOrder) {
  Rng parent1(9, 1);
  Rng parent2(9, 1);
  // Drawing from the parent must not change what a forked child produces.
  parent2.NextU64();
  Rng child1 = parent1.Fork(5);
  Rng child2 = parent2.Fork(5);
  EXPECT_EQ(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1, 2);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3, 4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5, 6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5, 6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11, 12);
  simkit::RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Normal(10.0, 3.0));
  }
  EXPECT_NEAR(stat.Mean(), 10.0, 0.15);
  EXPECT_NEAR(stat.StdDev(), 3.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13, 14);
  simkit::RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Exponential(5.0));
  }
  EXPECT_NEAR(stat.Mean(), 5.0, 0.25);
}

TEST(RngTest, LogNormalMedianNearOne) {
  Rng rng(15, 16);
  std::vector<double> xs;
  for (int i = 0; i < 10001; ++i) {
    xs.push_back(rng.LogNormal(0.0, 0.5));
  }
  EXPECT_NEAR(simkit::Percentile(xs, 50), 1.0, 0.06);
}

TEST(RngTest, PoissonMean) {
  Rng rng(17, 18);
  simkit::RunningStat small;
  simkit::RunningStat large;
  for (int i = 0; i < 5000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(small.Mean(), 3.0, 0.2);
  EXPECT_NEAR(large.Mean(), 100.0, 1.5);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30, [&] { order.push_back(3); });
  queue.ScheduleAt(10, [&] { order.push_back(1); });
  queue.ScheduleAt(20, [&] { order.push_back(2); });
  while (!queue.Empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreak) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(10, [&] { order.push_back(1); });
  queue.ScheduleAt(10, [&] { order.push_back(2); });
  queue.ScheduleAt(10, [&] { order.push_back(3); });
  while (!queue.Empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  simkit::EventId id = queue.ScheduleAt(5, [&] { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.Empty());
  EXPECT_FALSE(ran);
  // Double cancel fails.
  EXPECT_FALSE(queue.Cancel(id));
  // Unknown id fails.
  EXPECT_FALSE(queue.Cancel(999));
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(1, [&] { order.push_back(1); });
  simkit::EventId id = queue.ScheduleAt(2, [&] { order.push_back(2); });
  queue.ScheduleAt(3, [&] { order.push_back(3); });
  queue.Cancel(id);
  EXPECT_EQ(queue.Size(), 2u);
  while (!queue.Empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeReflectsHead) {
  EventQueue queue;
  EXPECT_EQ(queue.NextTime(), simkit::kSimTimeNever);
  queue.ScheduleAt(42, [] {});
  EXPECT_EQ(queue.NextTime(), 42);
}

TEST(SimulationTest, ClockAdvancesWithEvents) {
  Simulation sim;
  simkit::SimTime seen = -1;
  sim.ScheduleAfter(100, [&] { seen = sim.Now(); });
  sim.RunUntil(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulationTest, RunUntilStopsBeforeLaterEvents) {
  Simulation sim;
  int ran = 0;
  sim.ScheduleAt(100, [&] { ++ran; });
  sim.ScheduleAt(200, [&] { ++ran; });
  sim.RunUntil(150);
  EXPECT_EQ(ran, 1);
  sim.RunUntil(250);
  EXPECT_EQ(ran, 2);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAfter(10, chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.ScheduleAt(100, [] {});
  sim.RunUntil(100);
  bool ran = false;
  sim.ScheduleAfter(-50, [&] { ran = true; });
  sim.RunUntil(100);
  EXPECT_TRUE(ran);
}

TEST(SimulationTest, StepRunsOneEvent) {
  Simulation sim;
  int ran = 0;
  sim.ScheduleAt(1, [&] { ++ran; });
  sim.ScheduleAt(2, [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(StatsTest, RunningStatBasics) {
  simkit::RunningStat stat;
  for (double x : {2.0, 4.0, 6.0, 8.0}) {
    stat.Add(x);
  }
  EXPECT_DOUBLE_EQ(stat.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.Max(), 8.0);
  EXPECT_NEAR(stat.Variance(), 20.0 / 3.0, 1e-9);
  EXPECT_EQ(stat.Count(), 4u);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(simkit::Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(simkit::Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(simkit::Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(simkit::Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(simkit::Percentile({}, 50), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(simkit::PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(simkit::PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerateInputs) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(simkit::PearsonCorrelation(xs, ys), 0.0);  // zero variance
  EXPECT_DOUBLE_EQ(simkit::PearsonCorrelation({}, {}), 0.0);
  std::vector<double> short_x = {1, 2};
  std::vector<double> mismatched = {1, 2, 3};
  EXPECT_DOUBLE_EQ(simkit::PearsonCorrelation(short_x, mismatched), 0.0);
}

TEST(StatsTest, PearsonKnownValue) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 1, 4, 3, 5};
  // Hand-computed: r = 0.8.
  EXPECT_NEAR(simkit::PearsonCorrelation(xs, ys), 0.8, 1e-12);
}

TEST(StatsTest, HistogramBinsAndClamping) {
  simkit::Histogram histogram(0.0, 10.0, 5);
  histogram.Add(-1.0);  // clamps into bin 0
  histogram.Add(0.5);
  histogram.Add(9.9);
  histogram.Add(25.0);  // clamps into last bin
  EXPECT_EQ(histogram.BinCount(0), 2u);
  EXPECT_EQ(histogram.BinCount(4), 2u);
  EXPECT_EQ(histogram.Total(), 4u);
  EXPECT_FALSE(histogram.Render().empty());
}

TEST(LoggingTest, LevelFiltering) {
  simkit::SetLogLevel(simkit::LogLevel::kError);
  EXPECT_EQ(simkit::GetLogLevel(), simkit::LogLevel::kError);
  SIMKIT_LOG(simkit::LogLevel::kDebug) << "should not crash nor print";
  simkit::SetLogLevel(simkit::LogLevel::kWarning);
}

TEST(FlagsTest, StrictNumbersFallBackWhenAbsentAndNameTheFlagWhenMalformed) {
  const char* args[] = {"bin",      "--x=12",   "--rate=0.25", "--bad=12abc",
                        "--empty=", "--big=9223372036854775808", "--file=a",
                        "--file=b", "--chaos"};
  auto argv = const_cast<char**>(args);
  const int argc = static_cast<int>(std::size(args));

  EXPECT_EQ(simkit::FlagInt(argc, argv, "--x=", 7), 12);
  EXPECT_EQ(simkit::FlagInt(argc, argv, "--missing=", 7), 7);
  EXPECT_EQ(simkit::FlagDouble(argc, argv, "--rate=", 1.0), 0.25);
  EXPECT_EQ(simkit::FlagDouble(argc, argv, "--missing=", 1.5), 1.5);
  EXPECT_TRUE(simkit::HasFlag(argc, argv, "--chaos"));
  EXPECT_FALSE(simkit::HasFlag(argc, argv, "--cha"));
  EXPECT_EQ(simkit::FlagString(argc, argv, "--file=").value_or(""), "a");
  EXPECT_EQ(simkit::FlagStrings(argc, argv, "--file="),
            (std::vector<std::string_view>{"a", "b"}));
  EXPECT_FALSE(simkit::FlagString(argc, argv, "--missing=").has_value());

  auto error_of = [&](const char* prefix) -> std::string {
    try {
      simkit::FlagInt(argc, argv, prefix, 0);
    } catch (const simkit::FlagError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of("--bad="), "--bad=12abc: not a number");
  EXPECT_EQ(error_of("--empty="), "--empty=: not a number");
  EXPECT_EQ(error_of("--big="), "--big=9223372036854775808: out of range");
  EXPECT_THROW(simkit::FlagDouble(argc, argv, "--bad=", 0.0), simkit::FlagError);
  EXPECT_THROW(simkit::ParseFlag<uint16_t>("--port=", "70000"), simkit::FlagError);
}

}  // namespace
