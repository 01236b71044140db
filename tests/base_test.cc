// Unit tests for the base layer: Status/Result, interning, terms,
// substitutions, fresh-null sources.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "base/fresh.h"
#include "base/status.h"
#include "base/substitution.h"
#include "base/symbol_table.h"
#include "base/term.h"

namespace dxrec {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tgd");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tgd");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tgd");
}

TEST(Status, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable table;
  uint32_t a = table.Intern("alpha");
  uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTable, LookupMissReturnsMinusOne) {
  SymbolTable table;
  EXPECT_EQ(table.Lookup("ghost"), -1);
  table.Intern("ghost");
  EXPECT_GE(table.Lookup("ghost"), 0);
}

TEST(SymbolTable, ConcurrentInterningIsConsistent) {
  SymbolTable table;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table] {
      for (int i = 0; i < 200; ++i) {
        table.Intern("sym" + std::to_string(i % 50));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.size(), 50u);
}

TEST(Term, KindsAreDisjoint) {
  Term c = Term::Constant("a");
  Term v = Term::Variable("a");
  Term n = Term::Null(0);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(v.is_variable());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, v);
  EXPECT_NE(c, n);
  EXPECT_NE(v, n);
}

TEST(Term, InterningGivesIdentity) {
  EXPECT_EQ(Term::Constant("joe"), Term::Constant("joe"));
  EXPECT_EQ(Term::Variable("x"), Term::Variable("x"));
  EXPECT_NE(Term::Constant("joe"), Term::Constant("sue"));
}

TEST(Term, ToStringRoundTrips) {
  EXPECT_EQ(Term::Constant("a").ToString(), "a");
  EXPECT_EQ(Term::Variable("x1").ToString(), "x1");
  EXPECT_EQ(Term::Null(7).ToString(), "_N7");
}

TEST(Term, OrderingIsTotal) {
  std::set<Term> terms = {Term::Constant("a"), Term::Variable("a"),
                          Term::Null(1), Term::Null(2)};
  EXPECT_EQ(terms.size(), 4u);
}

TEST(Term, DefaultIsInvalid) {
  Term t;
  EXPECT_FALSE(t.is_valid());
  EXPECT_TRUE(Term::Constant("a").is_valid());
}

TEST(Fresh, NullSourceNeverRepeats) {
  NullSource source(100);
  std::set<Term> seen;
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(seen.insert(source.Fresh()).second);
  }
}

TEST(Fresh, GlobalSourceAdvances) {
  Term a = FreshNulls().Fresh();
  Term b = FreshNulls().Fresh();
  EXPECT_NE(a, b);
}

TEST(Fresh, FreshVariablesAreDistinct) {
  Term a = FreshVariable();
  Term b = FreshVariable();
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.is_variable());
  EXPECT_NE(a, Term::Variable(a.ToString()));  // parsed names stay apart
}

TEST(Fresh, FreshVariablesAreNotInterned) {
  const size_t before = Symbols().variables.size();
  for (int i = 0; i < 100; ++i) FreshVariable();
  EXPECT_EQ(Symbols().variables.size(), before);
  EXPECT_EQ(FreshVariable().ToString()[0], '$');
}

TEST(Substitution, ApplyDefaultsToIdentity) {
  Substitution s;
  Term x = Term::Variable("x");
  EXPECT_EQ(s.Apply(x), x);
  s.Set(x, Term::Constant("a"));
  EXPECT_EQ(s.Apply(x), Term::Constant("a"));
  EXPECT_EQ(s.Apply(Term::Variable("y")), Term::Variable("y"));
}

TEST(Substitution, UnifyDetectsConflicts) {
  Substitution s;
  Term x = Term::Variable("x");
  EXPECT_TRUE(s.Unify(x, Term::Constant("a")));
  EXPECT_TRUE(s.Unify(x, Term::Constant("a")));
  EXPECT_FALSE(s.Unify(x, Term::Constant("b")));
}

TEST(Substitution, ComposeMatchesPaperConvention) {
  // (f o g)(x) = f(g(x)).
  Term x = Term::Variable("x");
  Term y = Term::Variable("y");
  Substitution g{{x, y}};
  Substitution f{{y, Term::Constant("a")}};
  Substitution fg = f.Compose(g);
  EXPECT_EQ(fg.Apply(x), Term::Constant("a"));
  // f's own bindings survive where g is silent.
  EXPECT_EQ(fg.Apply(y), Term::Constant("a"));
}

TEST(Substitution, RestrictKeepsOnlyRequestedDomain) {
  Term x = Term::Variable("x");
  Term y = Term::Variable("y");
  Substitution s{{x, Term::Constant("a")}, {y, Term::Constant("b")}};
  Substitution r = s.Restrict({x});
  EXPECT_TRUE(r.Binds(x));
  EXPECT_FALSE(r.Binds(y));
}

TEST(Substitution, ExtendsAndMerge) {
  Term x = Term::Variable("x");
  Term y = Term::Variable("y");
  Substitution small{{x, Term::Constant("a")}};
  Substitution big{{x, Term::Constant("a")}, {y, Term::Constant("b")}};
  EXPECT_TRUE(big.Extends(small));
  EXPECT_FALSE(small.Extends(big));
  Substitution merged = small;
  EXPECT_TRUE(merged.MergeFrom(big));
  EXPECT_TRUE(merged.Extends(big));
  Substitution conflict{{x, Term::Constant("c")}};
  EXPECT_FALSE(merged.MergeFrom(conflict));
}

TEST(Substitution, ToStringIsDeterministic) {
  Substitution s{{Term::Variable("x"), Term::Constant("a")},
                 {Term::Variable("y"), Term::Constant("b")}};
  std::string first = s.ToString();
  EXPECT_EQ(first, s.ToString());
  EXPECT_NE(first.find("/"), std::string::npos);
}

}  // namespace
}  // namespace dxrec
