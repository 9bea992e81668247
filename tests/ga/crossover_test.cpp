#include "ga/crossover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace drep::ga {
namespace {

/// Position-wise conservation: each child position holds one of the two
/// parent values and the children are complementary.
void expect_conserved(const Chromosome& pa, const Chromosome& pb,
                      const Chromosome& ca, const Chromosome& cb) {
  ASSERT_EQ(ca.size(), pa.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const bool straight = ca[i] == pa[i] && cb[i] == pb[i];
    const bool swapped = ca[i] == pb[i] && cb[i] == pa[i];
    EXPECT_TRUE(straight || swapped) << "position " << i;
  }
}

TEST(TwoPoint, ConservesGenesAcrossManyDraws) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Chromosome pa(37), pb(37);
    for (std::size_t i = 0; i < 37; ++i) {
      pa[i] = rng.bernoulli(0.5);
      pb[i] = rng.bernoulli(0.5);
    }
    Chromosome ca = pa, cb = pb;
    (void)two_point_crossover(ca, cb, rng);
    expect_conserved(pa, pb, ca, cb);
  }
}

TEST(TwoPoint, CutDescriptorMatchesEffect) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome pa(20, 0), pb(20, 1);
    Chromosome ca = pa, cb = pb;
    const CrossoverCut cut = two_point_crossover(ca, cb, rng);
    ASSERT_LE(cut.lo, cut.hi);
    ASSERT_LE(cut.hi, 20u);
    for (std::size_t i = 0; i < 20; ++i) {
      const bool inside = i >= cut.lo && i < cut.hi;
      const bool exchanged = cut.middle ? inside : !inside;
      EXPECT_EQ(ca[i], exchanged ? 1 : 0) << "trial " << trial << " pos " << i;
      EXPECT_EQ(cb[i], exchanged ? 0 : 1);
    }
  }
}

TEST(TwoPoint, NeverDrawsADegenerateCut) {
  // lo == hi and {0, size} both leave the pair with the parents' genomes
  // (possibly wholesale-swapped) — a silent no-op crossover. The operator
  // redraws those cuts for any chromosome with a non-degenerate cut (size
  // >= 2), so every returned cut exchanges a strict, non-empty subset.
  util::Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    Chromosome a(5, 0), b(5, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    EXPECT_NE(cut.lo, cut.hi) << "trial " << trial;
    EXPECT_FALSE(cut.lo == 0 && cut.hi == 5) << "trial " << trial;
  }
}

TEST(TwoPoint, AlwaysMixesFullyDifferingParents) {
  // Complementary parents: a non-degenerate cut means each child must end
  // up holding genes from BOTH parents.
  util::Rng rng(18);
  for (int trial = 0; trial < 500; ++trial) {
    Chromosome a(8, 0), b(8, 1);
    (void)two_point_crossover(a, b, rng);
    int a_ones = 0, b_ones = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      a_ones += a[i];
      b_ones += b[i];
    }
    EXPECT_GT(a_ones, 0) << "trial " << trial;
    EXPECT_LT(a_ones, 8) << "trial " << trial;
    EXPECT_GT(b_ones, 0) << "trial " << trial;
    EXPECT_LT(b_ones, 8) << "trial " << trial;
  }
}

TEST(TwoPoint, SizeOneChromosomesStillWork) {
  // No non-degenerate cut exists for a single gene; the operator must not
  // spin forever and must still conserve genes.
  util::Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    Chromosome a(1, 0), b(1, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    EXPECT_LE(cut.lo, cut.hi);
    EXPECT_LE(cut.hi, 1u);
    EXPECT_EQ(a[0] + b[0], 1);  // genes conserved
  }
}

TEST(TwoPoint, BothSwapDirectionsOccur) {
  util::Rng rng(3);
  int middle = 0, outer = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a(10, 0), b(10, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    (cut.middle ? middle : outer)++;
  }
  EXPECT_GT(middle, 50);
  EXPECT_GT(outer, 50);
}

TEST(OnePoint, SwapsPrefixOrSuffix) {
  util::Rng rng(4);
  int prefix = 0, suffix = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a(12, 0), b(12, 1);
    const CrossoverCut cut = one_point_crossover(a, b, rng);
    EXPECT_TRUE(cut.middle);
    if (cut.lo == 0) {
      ++prefix;
      for (std::size_t i = 0; i < cut.hi; ++i) EXPECT_EQ(a[i], 1);
      for (std::size_t i = cut.hi; i < 12; ++i) EXPECT_EQ(a[i], 0);
    } else {
      ++suffix;
      EXPECT_EQ(cut.hi, 12u);
      for (std::size_t i = 0; i < cut.lo; ++i) EXPECT_EQ(a[i], 0);
      for (std::size_t i = cut.lo; i < 12; ++i) EXPECT_EQ(a[i], 1);
    }
  }
  EXPECT_GT(prefix, 50);
  EXPECT_GT(suffix, 50);
}

TEST(Uniform, MixesRoughlyHalf) {
  util::Rng rng(5);
  Chromosome a(10000, 0), b(10000, 1);
  (void)uniform_crossover(a, b, rng);
  EXPECT_NEAR(static_cast<double>(count_ones(a)), 5000.0, 300.0);
  // Complementarity.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]);
}

/// Reference for differing_columns: every differing position's column, in
/// ascending order without duplicates.
std::vector<std::size_t> naive_differing_columns(const Chromosome& a,
                                                 const Chromosome& b,
                                                 std::size_t stride) {
  std::vector<std::size_t> columns;
  for (std::size_t pos = 0; pos < a.size(); ++pos) {
    if (a[pos] != b[pos]) columns.push_back(pos % stride);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

TEST(DifferingColumns, EqualInputsHaveNoColumns) {
  const Chromosome a{1, 0, 1, 1, 0, 0, 1, 0, 1};
  EXPECT_TRUE(differing_columns(a, a, 3).empty());
  EXPECT_TRUE(differing_columns(a, a, 1).empty());
  EXPECT_TRUE(differing_columns(Chromosome{}, Chromosome{}, 4).empty());
}

TEST(DifferingColumns, OneDifferencePerRow) {
  // A 4×5 string: row r differs only in column (2r + 1) mod 5.
  Chromosome a(20, 0), b(20, 0);
  for (std::size_t row = 0; row < 4; ++row) b[row * 5 + (2 * row + 1) % 5] = 1;
  EXPECT_EQ(differing_columns(a, b, 5),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  // The same column differing in every row is reported once.
  Chromosome c(20, 0);
  for (std::size_t row = 0; row < 4; ++row) c[row * 5 + 4] = 1;
  EXPECT_EQ(differing_columns(a, c, 5), (std::vector<std::size_t>{4}));
}

TEST(DifferingColumns, LengthNotAMultipleOfTheStride) {
  // 11 positions over stride 4: the last row holds columns 0..2 only.
  Chromosome a(11, 0), b(11, 0);
  b[9] = 1;  // row 2, column 1
  EXPECT_EQ(differing_columns(a, b, 4), (std::vector<std::size_t>{1}));
  b[10] = 1;  // row 2, column 2
  b[3] = 1;   // row 0, column 3
  EXPECT_EQ(differing_columns(a, b, 4),
            (std::vector<std::size_t>{1, 2, 3}));
  // A stride longer than the string: every position is its own column.
  Chromosome c(3, 0), d{0, 1, 1};
  EXPECT_EQ(differing_columns(c, d, 7), (std::vector<std::size_t>{1, 2}));
}

TEST(DifferingColumns, MatchesNaiveReferenceOnRandomStrings) {
  util::Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = rng.index(60);
    const std::size_t stride = 1 + rng.index(13);
    Chromosome a(size), b(size);
    for (std::size_t i = 0; i < size; ++i) {
      a[i] = rng.bernoulli(0.5);
      b[i] = rng.bernoulli(0.1) ? 1 - a[i] : a[i];
    }
    EXPECT_EQ(differing_columns(a, b, stride),
              naive_differing_columns(a, b, stride))
        << "trial " << trial << " size " << size << " stride " << stride;
  }
}

TEST(DifferingColumns, RejectsMismatchedLengthsAndZeroStride) {
  const Chromosome a(6, 0), b(7, 0);
  EXPECT_THROW((void)differing_columns(a, b, 3), std::invalid_argument);
  EXPECT_THROW((void)differing_columns(a, a, 0), std::invalid_argument);
}

TEST(Crossover, Validation) {
  util::Rng rng(6);
  Chromosome a(5, 0), b(6, 0), empty_a, empty_b;
  EXPECT_THROW((void)two_point_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)one_point_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)uniform_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)two_point_crossover(empty_a, empty_b, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace drep::ga
