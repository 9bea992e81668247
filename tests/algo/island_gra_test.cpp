// Determinism suite for the island-model GRA and the batched AGRA
// micro-GA pass (DESIGN.md Section 10).
//
// The contract under test: every solve is a pure function of
// (problem, config, seed) — islands=1 reproduces the single-population GRA
// bit-for-bit (pinned against pre-island golden values), and islands=K /
// batched AGRA are bit-identical across runs and across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "algo/agra.hpp"
#include "algo/gra.hpp"
#include "algo/gra_engine.hpp"
#include "audit/invariants.hpp"
#include "testing/builders.hpp"

namespace drep::algo {
namespace {

/// FNV-1a over the scheme matrix — a compact bit-exact fingerprint.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t population_hash(const std::vector<Individual>& population) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Individual& ind : population) {
    for (const std::uint8_t b : ind.genes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

GraConfig island_config() {
  GraConfig config;
  config.population = 16;
  config.generations = 15;
  config.islands = 4;
  config.migration_interval = 5;
  config.migration_count = 1;
  return config;
}

// islands=1 must stay bit-exactly the pre-island single-population GRA.
// Golden values were recorded on the commit before the island driver landed
// (same problem, config, and seed); any drift here is a compat break.
TEST(IslandGra, IslandsOneReproducesLegacyGolden) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config;
  config.population = 12;
  config.generations = 15;
  util::Rng rng(14);
  const GraResult result = solve_gra(problem, config, rng);

  EXPECT_DOUBLE_EQ(result.best.cost, 197401.0);
  EXPECT_EQ(result.evaluations, 356u);
  EXPECT_DOUBLE_EQ(result.full_equivalent_evaluations, 100.73333333333333);
  EXPECT_EQ(fnv1a(result.best.scheme.matrix()), 16513427745741207910ULL);
  ASSERT_EQ(result.best_fitness_history.size(), 16u);
  for (const double f : result.best_fitness_history)
    EXPECT_DOUBLE_EQ(f, 0.51463465009122067);
  EXPECT_EQ(result.best.iterations, 15u);
}

// Same seed, same config -> identical everything, run to run.
TEST(IslandGra, SameSeedIsBitIdenticalAcrossRuns) {
  const core::Problem problem = testing::small_random_problem(13);
  const GraConfig config = island_config();
  util::Rng rng_a(14);
  util::Rng rng_b(14);
  const GraResult a = solve_gra(problem, config, rng_a);
  const GraResult b = solve_gra(problem, config, rng_b);

  EXPECT_DOUBLE_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.best.scheme.matrix(), b.best.scheme.matrix());
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.best_fitness_history, b.best_fitness_history);
  ASSERT_EQ(a.population.size(), b.population.size());
  EXPECT_EQ(population_hash(a.population), population_hash(b.population));
  // Both runs must advance the caller's stream identically too.
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

// The thread count is pure scheduling: serial (threads=1), capped waves
// (threads=2), and the full pool (threads=0) all produce the same bits.
TEST(IslandGra, ThreadCountDoesNotChangeResults) {
  const core::Problem problem = testing::small_random_problem(13);
  std::vector<GraResult> results;
  for (const std::size_t threads : {1u, 2u, 0u}) {
    GraConfig config = island_config();
    config.common.threads = threads;
    util::Rng rng(14);
    results.push_back(solve_gra(problem, config, rng));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].best.cost, results[0].best.cost);
    EXPECT_EQ(results[i].best.scheme.matrix(),
              results[0].best.scheme.matrix());
    EXPECT_EQ(results[i].evaluations, results[0].evaluations);
    EXPECT_EQ(results[i].best_fitness_history,
              results[0].best_fitness_history);
    EXPECT_EQ(population_hash(results[i].population),
              population_hash(results[0].population));
  }
}

// The merged result must carry the full population (all islands, in island
// order) and a non-decreasing history of length generations+1.
TEST(IslandGra, MergeKeepsPopulationAndHistoryShape) {
  const core::Problem problem = testing::small_random_problem(13);
  const GraConfig config = island_config();
  util::Rng rng(14);
  const GraResult result = solve_gra(problem, config, rng);

  EXPECT_EQ(result.population.size(), config.population);
  ASSERT_EQ(result.best_fitness_history.size(), config.generations + 1);
  for (std::size_t g = 1; g < result.best_fitness_history.size(); ++g) {
    EXPECT_GE(result.best_fitness_history[g],
              result.best_fitness_history[g - 1]);
  }
  // The winner's fitness is the history's final entry.
  EXPECT_EQ(result.best.iterations, config.generations);
}

// Migration disabled (migration_count = 0): islands evolve independently
// and the run is still deterministic.
TEST(IslandGra, ZeroMigrationIsDeterministic) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  config.migration_count = 0;
  util::Rng rng_a(14);
  util::Rng rng_b(14);
  const GraResult a = solve_gra(problem, config, rng_a);
  const GraResult b = solve_gra(problem, config, rng_b);
  EXPECT_EQ(a.best.scheme.matrix(), b.best.scheme.matrix());
  EXPECT_EQ(a.best_fitness_history, b.best_fitness_history);
}

TEST(IslandGra, ConfigValidation) {
  GraConfig config = island_config();
  config.islands = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.population = 6;  // 6/4 = 1 per island: too small
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.migration_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.migration_count = 4;  // == share of 16/4: would replace everyone
  EXPECT_THROW(config.validate(), std::invalid_argument);

  EXPECT_NO_THROW(island_config().validate());
}

TEST(IslandGra, EvolvePopulationNeedsTwoChromosomesPerIsland) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  config.population = 16;
  util::Rng seed_rng(5);
  std::vector<ga::Chromosome> tiny =
      random_population(problem, 2 * config.islands - 1, seed_rng);
  util::Rng rng(14);
  EXPECT_THROW((void)evolve_population(problem, tiny, config, rng),
               std::invalid_argument);
}

// evolve_population with islands: deterministic and bit-identical across
// thread counts, same contract as solve_gra.
TEST(IslandGra, EvolvePopulationIslandsDeterministic) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  util::Rng seed_rng(5);
  const std::vector<ga::Chromosome> initial =
      random_population(problem, config.population, seed_rng);

  std::vector<GraResult> results;
  for (const std::size_t threads : {1u, 0u}) {
    config.common.threads = threads;
    util::Rng rng(14);
    results.push_back(evolve_population(problem, initial, config, rng));
  }
  EXPECT_EQ(results[0].best.scheme.matrix(), results[1].best.scheme.matrix());
  EXPECT_EQ(results[0].best_fitness_history,
            results[1].best_fitness_history);
  EXPECT_EQ(population_hash(results[0].population),
            population_hash(results[1].population));
}

// --- Carried site loads ------------------------------------------------------
//
// Every individual carries its per-site storage loads, updated by the
// mutation veto's add/subtract and inherited gene by gene across crossover
// and migration. On whole-number object sizes they must equal a fresh
// chromosome_loads rescan of the genes bit for bit, in every generation.

/// Tight capacity, so mutations hit the storage veto and crossovers need
/// boundary-gene repairs.
core::Problem tight_problem() {
  return testing::small_random_problem(29, 10, 24, 5.0, 12.0);
}

void expect_loads_exact(const core::Problem& problem, const GraEngine& engine,
                        std::size_t population, const std::string& where) {
  for (const auto& e : engine.emigrants(population)) {
    const audit::Violations violations =
        audit::check_site_loads(problem, e.ind.genes, e.loads);
    ASSERT_TRUE(violations.empty())
        << where << ": " << violations.front().detail;
  }
}

TEST(GraCarriedLoads, SingleIslandMatchesRescanEveryGeneration) {
  const core::Problem problem = tight_problem();
  using Kind = GraConfig::CrossoverKind;
  using Selection = GraConfig::SelectionScheme;
  for (const Kind kind :
       {Kind::kTwoPointRepair, Kind::kOnePoint, Kind::kUniform}) {
    for (const Selection selection :
         {Selection::kMuPlusLambdaRemainder, Selection::kSgaRoulette}) {
      GraConfig config;
      config.population = 10;
      config.mutation_rate = 0.05;
      config.crossover = kind;
      config.selection = selection;
      util::Rng rng(31);
      auto initial = sra_seeded_population(problem, config.population,
                                           config.perturb_fraction, rng);
      GraEngine engine(problem, config, rng);
      engine.init(std::move(initial));
      const std::string where = "crossover " +
                                std::to_string(static_cast<int>(kind)) +
                                ", selection " +
                                std::to_string(static_cast<int>(selection));
      expect_loads_exact(problem, engine, config.population, where);
      for (int generation = 1; generation <= 25; ++generation) {
        ASSERT_EQ(engine.advance(1), 1u);
        expect_loads_exact(problem, engine, config.population,
                           where + ", generation " +
                               std::to_string(generation));
      }
      (void)engine.finish();  // audit-armed builds re-check the survivors
    }
  }
}

TEST(GraCarriedLoads, FourIslandsKeepLoadsAcrossMigration) {
  const core::Problem problem = tight_problem();
  GraConfig config = island_config();
  config.mutation_rate = 0.05;
  util::Rng rng(37);
  std::vector<util::Rng> rngs = fork_island_rngs(rng, config.islands);
  const std::vector<GraConfig> configs = island_plan_configs(config);
  std::vector<std::unique_ptr<GraEngine>> engines;
  for (std::size_t i = 0; i < config.islands; ++i) {
    engines.push_back(
        std::make_unique<GraEngine>(problem, configs[i], rngs[i]));
    engines.back()->init(sra_seeded_population(problem, configs[i].population,
                                               configs[i].perturb_fraction,
                                               rngs[i]));
  }
  for (std::size_t epoch = 1; epoch <= 4; ++epoch) {
    for (auto& engine : engines)
      (void)engine->advance(config.migration_interval);
    std::vector<std::vector<GraEngine::EvalIndividual>> migrants;
    for (auto& engine : engines)
      migrants.push_back(engine->emigrants(config.migration_count));
    for (std::size_t i = 0; i < engines.size(); ++i)
      engines[(i + 1) % engines.size()]->immigrate(std::move(migrants[i]));
    for (std::size_t i = 0; i < engines.size(); ++i) {
      expect_loads_exact(problem, *engines[i], configs[i].population,
                         "island " + std::to_string(i) + ", epoch " +
                             std::to_string(epoch));
    }
  }
  for (auto& engine : engines) (void)engine->finish();
}

TEST(GraCarriedLoads, FractionalSizesStayWithinCapacity) {
  // Sizes like 0.7 do not add exactly, so the engine rescans each parent's
  // loads before mutating it instead of carrying them.
  const std::size_t m = 6;
  const std::size_t n = 14;
  net::CostMatrix costs(m);
  for (core::SiteId i = 0; i < m; ++i) {
    for (core::SiteId j = static_cast<core::SiteId>(i + 1); j < m; ++j)
      costs.set(i, j, static_cast<double>(1 + (i * 7 + j * 3) % 5));
  }
  std::vector<double> sizes(n);
  std::vector<core::SiteId> primaries(n);
  for (core::ObjectId k = 0; k < n; ++k) {
    sizes[k] = 0.3 + 0.1 * static_cast<double>(k % 7);
    primaries[k] = static_cast<core::SiteId>(k % m);
  }
  // Every load is a multiple of 0.1 up to rounding; a capacity of 3.15
  // keeps them all clear of the boundary, where seeding's add/subtract
  // ledger and adopt()'s rescan could disagree by an ulp.
  core::Problem problem(std::move(costs), sizes, primaries,
                        std::vector<double>(m, 3.15));
  util::Rng pattern_rng(43);
  for (core::SiteId i = 0; i < m; ++i) {
    for (core::ObjectId k = 0; k < n; ++k) {
      problem.set_reads(i, k, static_cast<double>(1 + pattern_rng.below(40)));
      problem.set_writes(i, k, static_cast<double>(pattern_rng.below(3)));
    }
  }
  GraConfig config;
  config.population = 10;
  config.generations = 20;
  config.mutation_rate = 0.1;
  util::Rng rng(47);
  const GraResult result = solve_gra(problem, config, rng);
  for (const Individual& ind : result.population)
    EXPECT_TRUE(chromosome_valid(problem, ind.genes));
  util::Rng again(47);
  EXPECT_EQ(solve_gra(problem, config, again).best.scheme.matrix(),
            result.best.scheme.matrix());
}

// Batched AGRA: the parallel micro-GA batch (threads=0/2) must be
// bit-identical to the sequential pass (threads=1) on a capacity-tight
// problem where transcription repairs actually fire.
TEST(AgraBatch, ThreadCountDoesNotChangeResults) {
  const core::Problem problem = testing::small_random_problem(
      21, /*sites=*/10, /*objects=*/12, /*update_percent=*/5.0,
      /*capacity_percent=*/12.0);
  const ga::Chromosome current = primary_chromosome(problem);
  std::vector<core::ObjectId> changed(problem.objects());
  std::iota(changed.begin(), changed.end(), core::ObjectId{0});

  AgraConfig config;
  config.population = 6;
  config.generations = 8;

  std::vector<AgraResult> results;
  for (const std::size_t threads : {1u, 0u, 2u}) {
    config.common.threads = threads;
    util::Rng rng(7);
    results.push_back(
        solve_agra(problem, current, {}, changed, config, rng));
  }
  ASSERT_GT(results[0].repairs, 0u) << "problem not tight enough to repair";
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].best.cost, results[0].best.cost);
    EXPECT_EQ(results[i].best.scheme.matrix(),
              results[0].best.scheme.matrix());
    EXPECT_EQ(results[i].repairs, results[0].repairs);
    EXPECT_EQ(results[i].best.iterations, results[0].best.iterations);
    EXPECT_EQ(population_hash(results[i].population),
              population_hash(results[0].population));
  }
}

// The caller's RNG stream must advance identically regardless of threads —
// otherwise downstream draws (the monitor's next adapt) would diverge.
TEST(AgraBatch, CallerStreamAdvancesIdentically) {
  const core::Problem problem = testing::small_random_problem(
      21, /*sites=*/10, /*objects=*/12, /*update_percent=*/5.0,
      /*capacity_percent=*/12.0);
  const ga::Chromosome current = primary_chromosome(problem);
  std::vector<core::ObjectId> changed(problem.objects());
  std::iota(changed.begin(), changed.end(), core::ObjectId{0});

  AgraConfig config;
  config.population = 6;
  config.generations = 8;

  std::vector<std::uint64_t> next_draws;
  for (const std::size_t threads : {1u, 0u}) {
    config.common.threads = threads;
    util::Rng rng(7);
    (void)solve_agra(problem, current, {}, changed, config, rng);
    next_draws.push_back(rng.next());
  }
  EXPECT_EQ(next_draws[0], next_draws[1]);
}

}  // namespace
}  // namespace drep::algo
