// Unit tests for XOR and Von Neumann post-processing (Section 4.5). The
// XOR post-processor of a whole stream is common::BitStream::xor_fold; the
// XorCompressedSource decorator is covered in test_bit_source.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/postprocess.hpp"

namespace trng::core {
namespace {

TEST(XorPostProcessor, RejectsZeroRate) {
  EXPECT_THROW((void)common::BitStream::from_string("1").xor_fold(0),
               std::invalid_argument);
}

TEST(XorPostProcessor, Np1PassesThrough) {
  const auto raw = common::BitStream::from_string("10");
  EXPECT_TRUE(raw.xor_fold(1) == raw);
}

TEST(XorPostProcessor, KnownFold) {
  const auto out = common::BitStream::from_string("110" "011" "1").xor_fold(3);
  EXPECT_EQ(out.to_string(), "00");  // trailing partial group dropped
}

TEST(XorPostProcessor, PilingUpLemma) {
  // Empirical bias after np-fold XOR must follow Eq. 7:
  // b_pp = 2^(np-1) * b^np.
  common::Xoshiro256StarStar rng(2);
  common::BitStream biased;
  const double b = 0.25;  // P(1) = 0.75
  for (int i = 0; i < 600000; ++i) {
    biased.push_back(rng.next_double() < 0.5 + b);
  }
  for (unsigned np : {2u, 3u, 4u}) {
    const auto out = biased.xor_fold(np);
    const double expected =
        std::exp2(static_cast<double>(np) - 1.0) * std::pow(b, np);
    const double measured = std::fabs(out.ones_fraction() - 0.5);
    EXPECT_NEAR(measured, expected, 0.004) << "np = " << np;
  }
}

TEST(VonNeumann, MappingIsCorrect) {
  VonNeumannPostProcessor vn;
  bool out = false;
  EXPECT_FALSE(vn.feed(true, out));   // first of pair
  EXPECT_TRUE(vn.feed(false, out));   // "10" -> 1
  EXPECT_TRUE(out);
  EXPECT_FALSE(vn.feed(false, out));
  EXPECT_TRUE(vn.feed(true, out));    // "01" -> 0
  EXPECT_FALSE(out);
  EXPECT_FALSE(vn.feed(true, out));
  EXPECT_FALSE(vn.feed(true, out));   // "11" -> nothing
  EXPECT_FALSE(vn.feed(false, out));
  EXPECT_FALSE(vn.feed(false, out));  // "00" -> nothing
}

TEST(VonNeumann, RemovesBiasCompletely) {
  common::Xoshiro256StarStar rng(3);
  common::BitStream biased;
  for (int i = 0; i < 400000; ++i) {
    biased.push_back(rng.next_double() < 0.8);
  }
  VonNeumannPostProcessor vn;
  const auto out = vn.process(biased);
  EXPECT_NEAR(out.ones_fraction(), 0.5, 0.01);
  // Expected rate p(1-p) = 0.16 outputs per input bit.
  EXPECT_NEAR(static_cast<double>(out.size()) /
                  static_cast<double>(biased.size()),
              0.16, 0.01);
}

TEST(VonNeumann, ExpectedRate) {
  EXPECT_DOUBLE_EQ(VonNeumannPostProcessor::expected_rate(0.5), 0.25);
  EXPECT_DOUBLE_EQ(VonNeumannPostProcessor::expected_rate(0.0), 0.0);
  EXPECT_THROW(VonNeumannPostProcessor::expected_rate(1.5), std::domain_error);
}

TEST(VonNeumann, ProcessIsStateless) {
  VonNeumannPostProcessor vn;
  const auto raw = common::BitStream::from_string("10011100");
  const auto once = vn.process(raw);
  const auto twice = vn.process(raw);
  EXPECT_TRUE(once == twice);
}

}  // namespace
}  // namespace trng::core
