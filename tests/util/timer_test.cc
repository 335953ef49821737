#include <thread>

#include <gtest/gtest.h>

#include "util/timer.h"

namespace comx {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = sw.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);  // generous upper bound for loaded CI machines
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const int64_t nanos = sw.ElapsedNanos();
  const double micros = sw.ElapsedMicros();
  const double millis = sw.ElapsedMillis();
  EXPECT_NEAR(micros, static_cast<double>(nanos) / 1e3, micros * 0.5 + 100);
  EXPECT_NEAR(millis, micros / 1e3, millis * 0.5 + 1);
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.Reset();
  EXPECT_LT(sw.ElapsedMillis(), 10.0);
}

TEST(StopwatchTest, MonotonicallyNonDecreasing) {
  Stopwatch sw;
  int64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t now = sw.ElapsedNanos();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace comx
