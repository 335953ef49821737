#include "kernels/dispatch.h"

#include <gtest/gtest.h>

namespace comx {
namespace kernels {
namespace {

using internal::TableFor;

// Every test that pins the backend restores the cpuid-resolved dispatch on
// exit so test order never leaks between cases.
class DispatchTest : public ::testing::Test {
 protected:
  ~DispatchTest() override { ResetDispatchForTesting(); }
};

TEST_F(DispatchTest, BackendNames) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
}

TEST_F(DispatchTest, TableAvailability) {
  EXPECT_NE(TableFor(Backend::kScalar), nullptr);
  if (Avx2Supported()) {
    EXPECT_NE(TableFor(Backend::kAvx2), nullptr);
  } else {
    EXPECT_EQ(TableFor(Backend::kAvx2), nullptr);
  }
}

TEST_F(DispatchTest, ForceAndReset) {
  ASSERT_TRUE(ForceBackendForTesting(Backend::kScalar));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  if (Avx2Supported()) {
    ASSERT_TRUE(ForceBackendForTesting(Backend::kAvx2));
    EXPECT_EQ(ActiveBackend(), Backend::kAvx2);
  } else {
    EXPECT_FALSE(ForceBackendForTesting(Backend::kAvx2));
  }
  ResetDispatchForTesting();
  // After reset cpuid alone picks the backend again.
  EXPECT_EQ(ActiveBackend(),
            Avx2Supported() ? Backend::kAvx2 : Backend::kScalar);
}

TEST_F(DispatchTest, ActiveTableMatchesActiveBackend) {
  ASSERT_TRUE(ForceBackendForTesting(Backend::kScalar));
  EXPECT_EQ(&internal::Active(), TableFor(Backend::kScalar));
  if (Avx2Supported()) {
    ASSERT_TRUE(ForceBackendForTesting(Backend::kAvx2));
    EXPECT_EQ(&internal::Active(), TableFor(Backend::kAvx2));
  }
}

}  // namespace
}  // namespace kernels
}  // namespace comx
