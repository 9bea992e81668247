// Property/differential harness for DeltaEvaluator: after ANY sequence of
// incremental operations the cached total must equal a fresh full
// CostEvaluator::total_cost of the same matrix. The evaluator is designed to
// be bit-for-bit exact (sorted replica lists, shared kernel, object-order
// re-summation), so the 1e-9 relative tolerance used here carries a wide
// safety margin.
#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "testing/builders.hpp"

namespace drep::core {
namespace {

void expect_rel_near(double expected, double actual, double rel = 1e-9) {
  const double scale = std::max(1.0, std::abs(expected));
  EXPECT_NEAR(expected, actual, rel * scale);
}

/// A random matrix with primary bits set and every other cell i.i.d.
std::vector<std::uint8_t> random_matrix(const Problem& p, util::Rng& rng,
                                        double density = 0.3) {
  std::vector<std::uint8_t> matrix(p.sites() * p.objects(), 0);
  for (std::size_t cell = 0; cell < matrix.size(); ++cell)
    matrix[cell] = rng.bernoulli(density) ? 1 : 0;
  for (ObjectId k = 0; k < p.objects(); ++k)
    matrix[static_cast<std::size_t>(p.primary(k)) * p.objects() + k] = 1;
  return matrix;
}

/// A random non-primary cell of the matrix.
std::pair<SiteId, ObjectId> random_free_cell(const Problem& p, util::Rng& rng) {
  for (;;) {
    const auto i = static_cast<SiteId>(rng.index(p.sites()));
    const auto k = static_cast<ObjectId>(rng.index(p.objects()));
    if (p.primary(k) != i) return {i, k};
  }
}

TEST(DeltaEvaluator, RandomFlipSequencesMatchFullRecompute) {
  // 25 instances × 60 flips = 1500 randomized steps, each checked against a
  // fresh full evaluation.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed * 977);
    const std::size_t sites = 4 + rng.index(10);
    const std::size_t objects = 3 + rng.index(13);
    const Problem p = testing::small_random_problem(seed, sites, objects);
    CostEvaluator full(p);
    DeltaEvaluator delta(p);

    auto matrix = random_matrix(p, rng);
    double total = delta.rebase(matrix);
    expect_rel_near(full.total_cost(matrix), total);

    for (int step = 0; step < 60; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double peeked = delta.peek_flip(i, k);
      total = delta.apply_flip(i, k);
      matrix[static_cast<std::size_t>(i) * p.objects() + k] =
          delta.has_replica(i, k) ? 1 : 0;
      const double fresh = full.total_cost(matrix);
      expect_rel_near(fresh, total);
      expect_rel_near(fresh, peeked);
      expect_rel_near(fresh, delta.total());
    }
  }
}

TEST(DeltaEvaluator, FlipTotalsAreBitExact) {
  // Stronger than the 1e-9 contract: the design promises bit-for-bit
  // equality with the full evaluation.
  const Problem p = testing::small_random_problem(7, 10, 12);
  util::Rng rng(71);
  CostEvaluator full(p);
  DeltaEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  delta.rebase(matrix);
  for (int step = 0; step < 200; ++step) {
    const auto [i, k] = random_free_cell(p, rng);
    const double total = delta.apply_flip(i, k);
    matrix[static_cast<std::size_t>(i) * p.objects() + k] =
        delta.has_replica(i, k) ? 1 : 0;
    ASSERT_EQ(full.total_cost(matrix), total) << "drift after step " << step;
  }
}

TEST(DeltaEvaluator, PerObjectCostsMatchMaskEvaluation) {
  const Problem p = testing::small_random_problem(3, 8, 9);
  util::Rng rng(31);
  DeltaEvaluator delta(p);
  CostEvaluator full(p);
  auto matrix = random_matrix(p, rng);
  delta.rebase(matrix);
  for (int step = 0; step < 40; ++step) {
    const auto [i, k] = random_free_cell(p, rng);
    delta.apply_flip(i, k);
  }
  std::vector<std::uint8_t> mask(p.sites(), 0);
  for (ObjectId k = 0; k < p.objects(); ++k) {
    for (SiteId i = 0; i < p.sites(); ++i)
      mask[i] = delta.has_replica(i, k) ? 1 : 0;
    expect_rel_near(full.object_cost(k, mask), delta.object_cost(k));
  }
}

TEST(DeltaEvaluator, RebaseMidSequenceAdoptsNewBaseline) {
  const Problem p = testing::small_random_problem(11, 9, 11);
  util::Rng rng(113);
  CostEvaluator full(p);
  DeltaEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  delta.rebase(matrix);
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 15; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double total = delta.apply_flip(i, k);
      matrix[static_cast<std::size_t>(i) * p.objects() + k] =
          delta.has_replica(i, k) ? 1 : 0;
      expect_rel_near(full.total_cost(matrix), total);
    }
    // Adopt a completely different baseline and keep flipping.
    matrix = random_matrix(p, rng, 0.2 + 0.1 * round);
    const double rebased = delta.rebase(matrix);
    expect_rel_near(full.total_cost(matrix), rebased);
  }
}

TEST(DeltaEvaluator, GeneExchangeMatchesFullRecompute) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const Problem p = testing::small_random_problem(seed, 7, 10);
    util::Rng rng(seed);
    CostEvaluator full(p);
    DeltaEvaluator delta(p);
    auto matrix = random_matrix(p, rng);
    delta.rebase(matrix);
    const std::size_t n = p.objects();
    for (int step = 0; step < 20; ++step) {
      const auto site = static_cast<SiteId>(rng.index(p.sites()));
      std::vector<std::uint8_t> row(n, 0);
      for (auto& bit : row) bit = rng.bernoulli(0.4) ? 1 : 0;
      const double total = delta.apply_gene_exchange(site, row);
      for (ObjectId k = 0; k < n; ++k) {
        matrix[static_cast<std::size_t>(site) * n + k] =
            (row[k] != 0 || p.primary(k) == site) ? 1 : 0;
      }
      expect_rel_near(full.total_cost(matrix), total);
    }
  }
}

TEST(DeltaEvaluator, RefreshAfterPatternMutation) {
  Problem p = testing::small_random_problem(21, 8, 10);
  util::Rng rng(211);
  DeltaEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  delta.rebase(matrix);
  for (int round = 0; round < 5; ++round) {
    // Mutate the request patterns, then refresh and keep delta-evaluating.
    for (int change = 0; change < 10; ++change) {
      const auto i = static_cast<SiteId>(rng.index(p.sites()));
      const auto k = static_cast<ObjectId>(rng.index(p.objects()));
      if (rng.bernoulli(0.5)) {
        p.set_reads(i, k, static_cast<double>(rng.index(50)));
      } else {
        p.set_writes(i, k, static_cast<double>(rng.index(20)));
      }
    }
    delta.refresh();
    CostEvaluator fresh(p);
    expect_rel_near(fresh.total_cost(matrix), delta.total());
    for (int step = 0; step < 10; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double total = delta.apply_flip(i, k);
      matrix[static_cast<std::size_t>(i) * p.objects() + k] =
          delta.has_replica(i, k) ? 1 : 0;
      expect_rel_near(fresh.total_cost(matrix), total);
    }
  }
}

TEST(DeltaEvaluator, StatelessFullAndDeltaCostAgree) {
  // The population-evaluation path: evaluate a parent fully, mutate the
  // matrix, re-derive only the changed objects.
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    const Problem p = testing::small_random_problem(seed, 9, 12);
    util::Rng rng(seed * 3);
    DeltaEvaluator delta(p);
    CostEvaluator full(p);
    auto matrix = random_matrix(p, rng);
    std::vector<double> v(p.objects(), 0.0);
    const double base = delta.full_cost(matrix, v);
    expect_rel_near(full.total_cost(matrix), base);

    std::vector<ObjectId> changed;
    for (int flip = 0; flip < 8; ++flip) {
      const auto [i, k] = random_free_cell(p, rng);
      auto& cell = matrix[static_cast<std::size_t>(i) * p.objects() + k];
      cell = cell != 0 ? 0 : 1;
      changed.push_back(k);
      changed.push_back(k);  // duplicates must be harmless
    }
    const double updated = delta.delta_cost(matrix, changed, v);
    ASSERT_EQ(full.total_cost(matrix), updated) << "delta_cost not exact";
  }
}

TEST(DeltaEvaluator, PrimaryFlipsAreRejected) {
  const Problem p = testing::small_random_problem(5, 6, 6);
  util::Rng rng(55);
  DeltaEvaluator delta(p);
  delta.rebase(random_matrix(p, rng));
  const ObjectId k = 2;
  const SiteId sp = p.primary(k);
  EXPECT_THROW((void)delta.apply_flip(sp, k), std::invalid_argument);
  EXPECT_THROW((void)delta.peek_flip(sp, k), std::invalid_argument);
  // A gene exchange carrying a zero primary bit keeps the primary copy.
  std::vector<std::uint8_t> row(p.objects(), 0);
  delta.apply_gene_exchange(sp, row);
  EXPECT_TRUE(delta.has_replica(sp, k));
}

TEST(DeltaEvaluator, RequiresBaselineAndValidShapes) {
  const Problem p = testing::small_random_problem(6, 5, 5);
  DeltaEvaluator delta(p);
  EXPECT_FALSE(delta.has_baseline());
  EXPECT_THROW((void)delta.total(), std::logic_error);
  EXPECT_THROW((void)delta.apply_flip(1, 1), std::logic_error);
  EXPECT_THROW((void)delta.rebase(std::vector<std::uint8_t>(3, 0)),
               std::invalid_argument);
  util::Rng rng(66);
  delta.rebase(random_matrix(p, rng));
  EXPECT_TRUE(delta.has_baseline());
  EXPECT_THROW((void)delta.apply_flip(static_cast<SiteId>(p.sites()), 0),
               std::out_of_range);
  EXPECT_THROW(
      (void)delta.apply_gene_exchange(0, std::vector<std::uint8_t>(2, 0)),
      std::invalid_argument);
}

TEST(DeltaEvaluator, FitnessMatchesCostEvaluator) {
  const Problem p = testing::small_random_problem(8, 8, 8);
  util::Rng rng(88);
  CostEvaluator full(p);
  DeltaEvaluator delta(p);
  const auto matrix = random_matrix(p, rng);
  delta.rebase(matrix);
  expect_rel_near(full.fitness(matrix), delta.fitness());
  EXPECT_DOUBLE_EQ(full.primary_only_cost(), delta.primary_only_cost());
}

// --- Brute-force kernel reference -------------------------------------------
//
// The per-object kernel is free to reorder its loops for speed, but its
// result must stay bit-identical to the naive Eq. 4 evaluation below: every
// site's nearest replica is a plain min over all replicas in site order, the
// read terms are added over ALL sites in site order (a zero-read site adds
// exactly +0.0), then the write base, then the per-replica surcharges.

double reference_object_cost(const Problem& p, ObjectId k,
                             const std::vector<SiteId>& replicas) {
  const SiteId sp = p.primary(k);
  double read_sum = 0.0;
  for (SiteId i = 0; i < p.sites(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const SiteId rep : replicas) best = std::min(best, p.cost(rep, i));
    read_sum += p.reads(i, k) * best;
  }
  double base = 0.0;
  for (SiteId i = 0; i < p.sites(); ++i) base += p.writes(i, k) * p.cost(sp, i);
  double surcharge = 0.0;
  for (const SiteId rep : replicas)
    surcharge += (p.total_writes(k) - p.writes(rep, k)) * p.cost(sp, rep);
  return p.object_size(k) * (read_sum + base + surcharge);
}

/// Replica list of object k in `matrix` (primary forced), ascending.
std::vector<SiteId> column_replicas(const Problem& p,
                                    const std::vector<std::uint8_t>& matrix,
                                    ObjectId k) {
  std::vector<SiteId> replicas;
  for (SiteId i = 0; i < p.sites(); ++i) {
    if (i == p.primary(k) ||
        matrix[static_cast<std::size_t>(i) * p.objects() + k] != 0)
      replicas.push_back(i);
  }
  return replicas;
}

double reference_total(const Problem& p,
                       const std::vector<std::uint8_t>& matrix) {
  double total = 0.0;
  for (ObjectId k = 0; k < p.objects(); ++k)
    total += reference_object_cost(p, k, column_replicas(p, matrix, k));
  return total;
}

/// A matrix in which object k holds (k + shift) mod M + 1 replicas: the
/// primary plus randomly chosen other sites. Sweeping shift over 0..M-1
/// gives every object every replica count from 1 to M.
std::vector<std::uint8_t> matrix_with_counts(const Problem& p, util::Rng& rng,
                                             std::size_t shift) {
  const std::size_t m = p.sites();
  const std::size_t n = p.objects();
  std::vector<std::uint8_t> matrix(m * n, 0);
  std::vector<std::size_t> order(m);
  for (ObjectId k = 0; k < n; ++k) {
    const std::size_t count = (k + shift) % m + 1;
    for (std::size_t i = 0; i < m; ++i) order[i] = i;
    rng.shuffle(order);
    matrix[static_cast<std::size_t>(p.primary(k)) * n + k] = 1;
    std::size_t placed = 1;
    for (const std::size_t i : order) {
      if (placed == count) break;
      if (i == p.primary(k)) continue;
      matrix[i * n + k] = 1;
      ++placed;
    }
  }
  return matrix;
}

/// Checks object_cost_with_replicas, full_cost and delta_cost against the
/// reference, bit for bit, over every replica count from 1 to M.
void expect_kernel_matches_reference(const Problem& p, std::uint64_t seed) {
  util::Rng rng(seed);
  CostEvaluator full(p);
  DeltaEvaluator delta(p);
  const std::size_t n = p.objects();
  std::vector<double> parent_v(n, 0.0);
  auto parent = matrix_with_counts(p, rng, 0);
  (void)delta.full_cost(parent, parent_v);
  for (std::size_t shift = 0; shift < p.sites(); ++shift) {
    const auto matrix = matrix_with_counts(p, rng, shift);
    std::vector<double> v(n, 0.0);
    const double expected = reference_total(p, matrix);
    ASSERT_EQ(expected, delta.full_cost(matrix, v)) << "shift " << shift;
    ASSERT_EQ(expected, full.total_cost(matrix)) << "shift " << shift;
    std::vector<ObjectId> changed;
    for (ObjectId k = 0; k < n; ++k) {
      const auto replicas = column_replicas(p, matrix, k);
      const double reference = reference_object_cost(p, k, replicas);
      ASSERT_EQ(reference, v[k]) << "object " << k << " shift " << shift;
      ASSERT_EQ(reference, full.object_cost_with_replicas(k, replicas))
          << "object " << k << " replicas " << replicas.size();
      if (replicas != column_replicas(p, parent, k)) changed.push_back(k);
    }
    ASSERT_EQ(expected, delta.delta_cost(matrix, changed, parent_v))
        << "shift " << shift;
    parent = matrix;
  }
}

TEST(KernelReference, EverySiteReads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = testing::small_random_problem(seed, 3 + 2 * seed, 9);
    for (SiteId i = 0; i < p.sites(); ++i) {
      for (ObjectId k = 0; k < p.objects(); ++k)
        ASSERT_GT(p.reads(i, k), 0.0) << "fixture must read everywhere";
    }
    expect_kernel_matches_reference(p, seed * 101);
  }
}

TEST(KernelReference, SomeZeroReadSites) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Problem p = testing::small_random_problem(seed + 10, 4 + seed, 10);
    util::Rng rng(seed);
    for (SiteId i = 0; i < p.sites(); ++i) {
      for (ObjectId k = 0; k < p.objects(); ++k) {
        if (rng.bernoulli(0.4)) p.set_reads(i, k, 0.0);
      }
    }
    expect_kernel_matches_reference(p, seed * 103);
  }
}

TEST(KernelReference, WriteOnlyObjects) {
  Problem p = testing::small_random_problem(31, 8, 12, 20.0);
  for (ObjectId k = 0; k < p.objects(); k += 2) {
    for (SiteId i = 0; i < p.sites(); ++i) {
      p.set_reads(i, k, 0.0);
      p.set_writes(i, k, static_cast<double>((i + k) % 3));
    }
  }
  expect_kernel_matches_reference(p, 107);
}

TEST(KernelReference, EqualCostTies) {
  // Every link costs 1 or 2, so most sites have several equally near
  // replicas.
  const std::size_t m = 9;
  const std::size_t n = 11;
  util::Rng rng(109);
  net::CostMatrix costs(m, 1.0);
  for (SiteId i = 0; i < m; ++i) {
    for (SiteId j = static_cast<SiteId>(i + 1); j < m; ++j) {
      if (rng.bernoulli(0.3)) costs.set(i, j, 2.0);
    }
  }
  std::vector<SiteId> primaries(n);
  for (ObjectId k = 0; k < n; ++k) primaries[k] = static_cast<SiteId>(k % m);
  Problem p(std::move(costs), std::vector<double>(n, 3.0), primaries,
            std::vector<double>(m, 100.0));
  for (SiteId i = 0; i < m; ++i) {
    for (ObjectId k = 0; k < n; ++k) {
      p.set_reads(i, k, static_cast<double>(rng.index(5)));
      p.set_writes(i, k, static_cast<double>(rng.index(2)));
    }
  }
  expect_kernel_matches_reference(p, 113);
}

TEST(DeltaEvaluator, WorkAccountingCountsObjectKernels) {
  const Problem p = testing::small_random_problem(9, 6, 10);
  util::Rng rng(99);
  DeltaEvaluator delta(p);
  delta.rebase(random_matrix(p, rng));
  EXPECT_EQ(delta.objects_recomputed(), p.objects());
  EXPECT_DOUBLE_EQ(delta.full_equivalents(), 1.0);
  const auto [i, k] = random_free_cell(p, rng);
  delta.apply_flip(i, k);
  EXPECT_EQ(delta.objects_recomputed(), p.objects() + 1);
}

}  // namespace
}  // namespace drep::core
