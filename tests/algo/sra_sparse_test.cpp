// Sparse SRA conformance: solve_sra_sparse must reproduce the dense
// solve_sra trajectory bit-for-bit on the materialized instance — final
// cost/savings/replica count, the per-run statistics (site visits and
// benefit evaluations, including the dead-candidate emulation), and the
// full scheme state.

#include "algo/sra_sparse.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "algo/sra.hpp"
#include "audit/invariants.hpp"
#include "core/sparse_scheme.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace drep::algo {
namespace {

struct Case {
  std::uint64_t seed;
  SraConfig::SiteOrder order;
};

/// Names the case, e.g. seed61_RoundRobin. gtest_discover_tests builds the
/// ctest name from the printed parameter, and gtest's fallback printer dumps
/// the struct's bytes, padding included, so the names changed between
/// builds.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "seed" << c.seed
      << (c.order == SraConfig::SiteOrder::kRoundRobin ? "_RoundRobin"
                                                       : "_Random");
}

class SparseSraDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(SparseSraDifferential, MatchesDenseSraBitForBit) {
  workload::StreamConfig config;
  config.sites = 11;
  config.objects = 60;
  config.seed = GetParam().seed;
  const core::SparseInstance inst = workload::build_sparse_instance(config);
  const core::Problem dense_problem = inst.materialize();

  SraConfig sra_config;
  sra_config.site_order = GetParam().order;

  util::Rng sparse_rng(GetParam().seed * 3 + 1);
  util::Rng dense_rng = sparse_rng;
  SraStats sparse_stats;
  SraStats dense_stats;
  const SparseSraResult sparse =
      solve_sra_sparse(inst, sra_config, sparse_rng, &sparse_stats);
  const AlgorithmResult dense =
      solve_sra(dense_problem, sra_config, dense_rng, &dense_stats);

  EXPECT_EQ(sparse.cost, dense.cost);
  EXPECT_EQ(sparse.savings_percent, dense.savings_percent);
  EXPECT_EQ(sparse.extra_replicas, dense.extra_replicas);
  EXPECT_EQ(sparse_stats.site_visits, dense_stats.site_visits);
  EXPECT_EQ(sparse_stats.benefit_evaluations, dense_stats.benefit_evaluations);
  EXPECT_EQ(sparse_stats.replicas_created, dense_stats.replicas_created);
  EXPECT_TRUE(audit::check_sparse_scheme(sparse.scheme).empty());
  EXPECT_TRUE(audit::check_sparse_dense(sparse.scheme, dense.scheme).empty());
  // The two rngs must also have consumed identical stream positions.
  EXPECT_EQ(sparse_rng.next(), dense_rng.next());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOrders, SparseSraDifferential,
    ::testing::Values(Case{61, SraConfig::SiteOrder::kRoundRobin},
                      Case{62, SraConfig::SiteOrder::kRoundRobin},
                      Case{63, SraConfig::SiteOrder::kRoundRobin},
                      Case{64, SraConfig::SiteOrder::kRandom},
                      Case{65, SraConfig::SiteOrder::kRandom},
                      Case{66, SraConfig::SiteOrder::kRandom}));

TEST(SparseSra, DeterministicAcrossRuns) {
  workload::StreamConfig config;
  config.sites = 10;
  config.objects = 50;
  config.seed = 71;
  const core::SparseInstance inst = workload::build_sparse_instance(config);
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const SparseSraResult a = solve_sra_sparse(inst, SraConfig{}, rng_a);
  const SparseSraResult b = solve_sra_sparse(inst, SraConfig{}, rng_b);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.extra_replicas, b.extra_replicas);
  for (core::ObjectId k = 0; k < inst.objects(); ++k)
    EXPECT_EQ(a.scheme.replicas(k), b.scheme.replicas(k));
}

TEST(SparseSra, ImprovesOnPrimaryOnlyWhenBeneficial) {
  workload::StreamConfig config;
  config.sites = 12;
  config.objects = 80;
  config.seed = 73;
  const core::SparseInstance inst = workload::build_sparse_instance(config);
  const SparseSraResult result = solve_sra_sparse(inst);
  EXPECT_LE(result.cost, core::primary_only_cost(inst));
  EXPECT_GE(result.savings_percent, 0.0);
  EXPECT_GT(result.iterations, 0u);
}

}  // namespace
}  // namespace drep::algo
