// Isomorphism dedup of the inverse-chase merge (core/inverse_chase.cc) and
// the sub-universal class collapse (core/cq_subuniversal.cc): both keep
// the first representative of each AreIsomorphic class, but only search
// inside buckets of equal IsomorphismInvariant. The oracle is the plain
// first-representative loop that compares every candidate with every kept
// instance; the bucketed dedup must return exactly its indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chase/homomorphism.h"
#include "core/engine.h"
#include "datagen/generators.h"
#include "datagen/random.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "relational/instance_ops.h"

namespace dxrec {
namespace {

DependencySet Sigma(const char* text) {
  Result<DependencySet> parsed = ParseTgdSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

// The O(n^2) first-representative loop: instance i is kept unless it is
// isomorphic to an instance kept before it.
std::vector<size_t> OracleRepresentatives(
    const std::vector<Instance>& instances) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < instances.size(); ++i) {
    bool duplicate = false;
    for (size_t k : kept) {
      if (AreIsomorphic(instances[i], instances[k])) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(i);
  }
  return kept;
}

std::vector<size_t> BucketedRepresentatives(
    const std::vector<Instance>& instances, size_t* iso_checks = nullptr) {
  std::vector<IsoInvariant> invariants;
  for (const Instance& instance : instances) {
    invariants.push_back(IsomorphismInvariant(instance));
  }
  return IsomorphismRepresentatives(instances, invariants, iso_checks);
}

// --- Invariant property ------------------------------------------------
// A bijective null renaming plus an atom shuffle is an isomorphism, so
// it must leave the invariant unchanged and AreIsomorphic true.

Instance RandomInstance(Rng* rng) {
  const std::vector<std::string> relations = {"IdA", "IdB", "IdC"};
  const uint32_t arities[] = {1, 2, 3};
  Instance out;
  const size_t num_atoms = 1 + rng->Index(7);
  for (size_t i = 0; i < num_atoms; ++i) {
    const size_t r = rng->Index(relations.size());
    std::vector<Term> args;
    for (uint32_t pos = 0; pos < arities[r]; ++pos) {
      if (rng->Chance(0.5)) {
        args.push_back(Term::Constant("idc" + std::to_string(rng->Index(3))));
      } else {
        args.push_back(Term::Null(900000 + rng->Index(5)));
      }
    }
    out.Add(Atom::Make(relations[r], std::move(args)));
  }
  return out;
}

TEST(IsomorphismInvariant, StableUnderNullRenamingAndShuffle) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 31 + 7);
    Instance original = RandomInstance(&rng);
    // A random bijection from the original nulls onto fresh labels.
    std::vector<Term> nulls = original.TermsOfKind(TermKind::kNull);
    std::vector<uint32_t> labels(nulls.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = 910000 + static_cast<uint32_t>(i);
    }
    std::shuffle(labels.begin(), labels.end(), rng.engine());
    Substitution renaming;
    for (size_t i = 0; i < nulls.size(); ++i) {
      renaming.Set(nulls[i], Term::Null(labels[i]));
    }
    std::vector<Atom> atoms = original.Apply(renaming).atoms();
    std::shuffle(atoms.begin(), atoms.end(), rng.engine());
    Instance renamed;
    renamed.AddAll(atoms);

    EXPECT_EQ(IsomorphismInvariant(original), IsomorphismInvariant(renamed))
        << "seed=" << seed << " " << original.ToString() << " vs "
        << renamed.ToString();
    EXPECT_FALSE(IsomorphismInvariant(original).has_variables);
    EXPECT_TRUE(AreIsomorphic(renamed, original)) << "seed=" << seed;
    EXPECT_EQ(BucketedRepresentatives({original, renamed}),
              std::vector<size_t>{0})
        << "seed=" << seed;
  }
}

// --- A pair only the isomorphism stage can collapse --------------------

TEST(IsomorphismDedup, HandBuiltPairWithDistinctCanonicalStrings) {
  // The canonical relabeling numbers nulls in sorted-atom order, and the
  // sort compares null labels first here, so the swapped labels render
  // differently although the instances are isomorphic.
  Instance a;
  a.Add(Atom::Make("IdP", {Term::Null(920001), Term::Constant("ida")}));
  a.Add(Atom::Make("IdP", {Term::Null(920002), Term::Constant("idb")}));
  Instance b;
  b.Add(Atom::Make("IdP", {Term::Null(920002), Term::Constant("ida")}));
  b.Add(Atom::Make("IdP", {Term::Null(920001), Term::Constant("idb")}));
  ASSERT_NE(CanonicalString(a), CanonicalString(b));
  ASSERT_TRUE(AreIsomorphic(b, a));
  EXPECT_EQ(IsomorphismInvariant(a), IsomorphismInvariant(b));
  size_t checks = 0;
  EXPECT_EQ(BucketedRepresentatives({a, b}, &checks),
            std::vector<size_t>{0});
  EXPECT_EQ(checks, 1u);
}

// Counts recovery.deduped events by stage while the run is in scope.
class ScopedEvents {
 public:
  ScopedEvents()
      : was_enabled_(obs::Enabled()),
        were_events_enabled_(obs::EventsEnabled()) {
    obs::SetEnabled(true);
    obs::SetEventsEnabled(true);
    obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
  }
  ~ScopedEvents() {
    obs::SetEnabled(was_enabled_);
    obs::SetEventsEnabled(were_events_enabled_);
  }

  static size_t Deduped(const std::string& stage) {
    size_t n = 0;
    for (const obs::Event& e : obs::EventSink::Global().Snapshot()) {
      if (std::string(e.type) != "recovery.deduped") continue;
      for (const auto& [key, value] : e.str_args) {
        if (std::string(key) == "stage" && value == stage) ++n;
      }
    }
    return n;
  }

 private:
  bool was_enabled_;
  bool were_events_enabled_;
};

// What the merge emits for one input: canonical recoveries in order, the
// dedup counters, and the recovery.deduped{stage=isomorphism} count.
struct MergeSnapshot {
  bool ok = false;
  std::vector<std::string> recoveries;
  size_t dedup_exact = 0;
  size_t dedup_isomorphic = 0;
  size_t iso_checks = 0;
  size_t iso_events = 0;
};

MergeSnapshot RunMerge(const DependencySet& sigma, const Instance& target,
                  bool dedup_isomorphic, size_t threads,
                  EngineOptions options = EngineOptions()) {
  ScopedEvents events;
  options.algorithms.dedup_isomorphic = dedup_isomorphic;
  options.parallel.threads = threads;
  Engine engine(DependencySet(sigma), options);
  Result<InverseChaseResult> result = engine.Recover(target);
  MergeSnapshot out;
  out.ok = result.ok();
  if (!result.ok()) return out;
  for (const Instance& recovery : result->recoveries) {
    out.recoveries.push_back(CanonicalString(recovery));
  }
  out.dedup_exact = result->stats.num_dedup_exact;
  out.dedup_isomorphic = result->stats.num_dedup_isomorphic;
  out.iso_checks = result->stats.num_iso_checks;
  out.iso_events = ScopedEvents::Deduped("isomorphism");
  EXPECT_EQ(ScopedEvents::Deduped("exact"), out.dedup_exact);
  // Unverified candidates are counted among the rejected ones.
  EXPECT_EQ(result->stats.num_recoveries_before_dedup -
                result->stats.num_candidates_rejected,
            result->recoveries.size() + out.dedup_exact +
                out.dedup_isomorphic);
  return out;
}

// Runs (sigma, target) without the isomorphism stage, applies the oracle
// and the bucketed dedup to that list, and checks the engine's own merge
// against the oracle at threads 1 and 4. Returns the oracle's removals.
size_t ExpectMergeMatchesOracle(const DependencySet& sigma,
                                const Instance& target,
                                EngineOptions options = EngineOptions()) {
  EngineOptions undeduped = options;
  undeduped.algorithms.dedup_isomorphic = false;
  undeduped.parallel.threads = 1;
  Result<InverseChaseResult> before =
      Engine(DependencySet(sigma), undeduped).Recover(target);
  if (!before.ok()) {
    EXPECT_FALSE(RunMerge(sigma, target, true, 1, options).ok);
    return 0;
  }
  const std::vector<Instance>& candidates = before->recoveries;
  // The exact stage left no two candidates with one canonical string.
  std::set<std::string> distinct;
  for (const Instance& c : candidates) distinct.insert(CanonicalString(c));
  EXPECT_EQ(distinct.size(), candidates.size());
  const std::vector<size_t> oracle = OracleRepresentatives(candidates);
  EXPECT_EQ(BucketedRepresentatives(candidates), oracle);
  std::vector<std::string> expected;
  for (size_t i : oracle) expected.push_back(CanonicalString(candidates[i]));
  const size_t removed = candidates.size() - oracle.size();
  for (size_t threads : {1u, 4u}) {
    MergeSnapshot merged = RunMerge(sigma, target, true, threads, options);
    EXPECT_TRUE(merged.ok) << "threads=" << threads;
    EXPECT_EQ(merged.recoveries, expected) << "threads=" << threads;
    EXPECT_EQ(merged.dedup_isomorphic, removed) << "threads=" << threads;
    EXPECT_EQ(merged.iso_events, removed) << "threads=" << threads;
  }
  return removed;
}

TEST(IsomorphismDedup, StageFiresInTheEngineMerge) {
  // Two copies of one projection: a covering of {S(a), S(b)} picks a copy
  // per tuple, and each body-only variable becomes a fresh null in the
  // covering's hom order, so coverings that pick different copies yield
  // isomorphic recoveries whose nulls sort in different orders. SUB(Sigma)
  // would keep only the covering that uses every hom, so the (purely
  // optimizing) filter is off.
  DependencySet sigma = Sigma("IdP(y, x) -> IdS(x); IdP(z, x) -> IdS(x)");
  Result<Instance> target = ParseInstance("{IdS(ida), IdS(idb)}");
  ASSERT_TRUE(target.ok());
  EngineOptions options;
  options.algorithms.use_subsumption_filter = false;
  EXPECT_EQ(ExpectMergeMatchesOracle(sigma, *target, options), 3u);
  MergeSnapshot merged = RunMerge(sigma, *target, true, 1, options);
  EXPECT_EQ(merged.dedup_isomorphic, 3u);
  EXPECT_EQ(merged.iso_events, 3u);
  EXPECT_GT(merged.iso_checks, 0u);
}

// --- Variables: one bucket, compared against every kept instance ------

TEST(IsomorphismDedup, VariablesGoThroughTheSingleBucketPath) {
  const Term x = Term::Variable("idx");
  const Term a = Term::Constant("ida");
  const Term b = Term::Constant("idb");
  Instance ground({Atom::Make("IdR", {a, b})});
  Instance with_var({Atom::Make("IdR", {x, b})});
  Instance with_null({Atom::Make("IdR", {Term::Null(930001), b})});
  ASSERT_TRUE(IsomorphismInvariant(with_var).has_variables);
  ASSERT_NE(IsomorphismInvariant(with_var).hash,
            IsomorphismInvariant(ground).hash);

  // A variable may map onto a constant: R(x, b) collapses onto a kept
  // R(a, b) although their invariant hashes differ.
  std::vector<Instance> var_after_ground = {ground, with_var};
  size_t checks = 0;
  EXPECT_EQ(BucketedRepresentatives(var_after_ground, &checks),
            OracleRepresentatives(var_after_ground));
  EXPECT_EQ(BucketedRepresentatives(var_after_ground),
            std::vector<size_t>{0});
  EXPECT_EQ(checks, 1u);

  // The converse is no isomorphism (a constant is fixed), and a
  // variable-free candidate is never compared with a kept instance that
  // has variables.
  std::vector<Instance> ground_after_var = {with_var, ground, with_null};
  EXPECT_EQ(BucketedRepresentatives(ground_after_var, &checks),
            OracleRepresentatives(ground_after_var));
  EXPECT_EQ(checks, 0u);

  // Variable candidates scan every kept instance in kept order: each
  // R(x, b) maps onto the first kept instance, R(_, b), so it costs one
  // check, while R(a, b) in its own bucket costs none.
  std::vector<Instance> mixed = {with_null, ground, with_var, with_var};
  EXPECT_EQ(BucketedRepresentatives(mixed, &checks),
            OracleRepresentatives(mixed));
  EXPECT_EQ(BucketedRepresentatives(mixed), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(checks, 2u);
}

// --- The differential corpus -------------------------------------------
// The named workloads and paper examples of columnar_diff_test plus
// generated mapping/source pairs: the engine's merge must equal the
// oracle applied to the undeduplicated recoveries.

TEST(IsomorphismDedupCorpus, NamedScenarios) {
  ExpectMergeMatchesOracle(
      Sigma("Order(id, cust, item) -> Ledger(cust, id), Shipment(id, item); "
            "Stock(item, wh) -> Available(item)"),
      *ParseInstance("{Ledger(ann, o1), Shipment(o1, tea), Ledger(bob, o2), "
                     "Shipment(o2, mugs), Available(tea)}"));
  ExpectMergeMatchesOracle(TriangleScenario::Sigma(),
                           TriangleScenario::Target(2, 3));
  ExpectMergeMatchesOracle(EmployeeScenario::Sigma(),
                           EmployeeScenario::Target(2, 2, 2));
  ExpectMergeMatchesOracle(ProjectionScenario::Sigma(),
                           ProjectionScenario::Target(3));
  ExpectMergeMatchesOracle(DiamondScenario::Sigma(),
                           DiamondScenario::ValidTarget(3));
  ExpectMergeMatchesOracle(SelfJoinScenario::Sigma(),
                           SelfJoinScenario::Target(2, 2));
  ExpectMergeMatchesOracle(PairScenario::Sigma(),
                           PairScenario::Target(2, 2));
  ExpectMergeMatchesOracle(FanScenario::Sigma(), FanScenario::Target(3));
  ExpectMergeMatchesOracle(OverlapScenario::Sigma(),
                           OverlapScenario::Target(2, 2));
  ExpectMergeMatchesOracle(BlowupScenario::Sigma(),
                           BlowupScenario::Target(2, 2));
}

EngineOptions TightBudgets() {
  EngineOptions options;
  options.budgets.max_covers = 64;
  options.budgets.max_cover_nodes = 1u << 16;
  options.budgets.max_g_homs_per_cover = 128;
  options.budgets.max_recoveries = 128;
  return options;
}

class IsomorphismDedupGenerated : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IsomorphismDedupGenerated, MergeMatchesOracle) {
  // Same generator and seeds as ColumnarDiffGenerated.
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  std::string tag = "cdg" + std::to_string(seed) + "_";
  MappingSpec spec;
  spec.num_tgds = 2 + rng.Index(2);
  spec.num_source_relations = 2;
  spec.num_target_relations = 2;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  DependencySet sigma = RandomMapping(spec, tag, &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 3 + rng.Index(3);
  source_spec.num_constants = 4;
  Instance source = RandomSource(sigma, source_spec, tag, &rng);
  for (bool ground : {true, false}) {
    Instance target = ChaseTarget(sigma, source, ground);
    if (target.size() == 0 || target.size() > 8) continue;
    if (!ground && target.TermsOfKind(TermKind::kNull).size() > 1) continue;
    ExpectMergeMatchesOracle(sigma, target, TightBudgets());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsomorphismDedupGenerated,
                         ::testing::Range<uint64_t>(1, 121));

}  // namespace
}  // namespace dxrec
