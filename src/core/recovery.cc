#include "core/recovery.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <vector>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "obs/events.h"

namespace dxrec {

bool SatisfiesPair(const DependencySet& sigma, const Instance& source,
                   const Instance& target) {
  return Satisfies(sigma, source, target);
}

namespace {

// True if `fact` is the image of `pattern` under `s`.
bool IsImage(const Atom& pattern, const Substitution& s, const Atom& fact) {
  if (pattern.relation() != fact.relation() ||
      pattern.arity() != fact.arity()) {
    return false;
  }
  for (uint32_t pos = 0; pos < pattern.arity(); ++pos) {
    if (s.Apply(pattern.arg(pos)) != fact.arg(pos)) return false;
  }
  return true;
}

// Collects into *forced (cleared first) the target atoms that every match
// of the trigger (tgd, h) maps the head onto; false when the head has no
// match in `target` (the trigger is unsatisfied). A full tgd's head is
// fixed by h, so its only possible match is h itself and containment
// decides. Otherwise the matches are enumerated and intersected (heads
// are a few atoms, so a small vector filtered in place), stopping once
// nothing is forced.
bool ForcedHeadAtoms(const Tgd& tgd, const Substitution& h,
                     const Instance& target, HomSearchOptions* head_options,
                     std::vector<Atom>* forced) {
  forced->clear();
  if (tgd.IsFull()) {
    for (const Atom& a : tgd.head()) {
      Atom image = a.Apply(h);
      if (!target.Contains(image)) return false;
      if (std::find(forced->begin(), forced->end(), image) == forced->end()) {
        forced->push_back(std::move(image));
      }
    }
    return true;
  }
  head_options->fixed = h;
  bool matched = false;
  ForEachHomomorphism(
      tgd.head(), target, *head_options, [&](const Substitution& match) {
        if (!matched) {
          matched = true;
          for (const Atom& a : tgd.head()) {
            Atom image = a.Apply(match);
            if (std::find(forced->begin(), forced->end(), image) ==
                forced->end()) {
              forced->push_back(std::move(image));
            }
          }
        } else {
          std::erase_if(*forced, [&](const Atom& c) {
            for (const Atom& a : tgd.head()) {
              if (IsImage(a, match, c)) return false;
            }
            return true;
          });
        }
        return !forced->empty();
      });
  return matched;
}

}  // namespace

bool IsMinimalSolution(const DependencySet& sigma, const Instance& source,
                       const Instance& target, InstanceLayout layout) {
  // J is minimal iff removing any single tuple breaks satisfaction
  // (satisfaction is monotone in the target). Equivalently: a tuple t is
  // non-removable iff some trigger's head matches *all* contain t, so J
  // is minimal iff every tuple lies in the match-intersection of some
  // trigger. Computing those intersections directly (with early exit
  // once an intersection empties) avoids |J| full re-checks. The search
  // options and the intersection buffer are built once, not per trigger.
  std::unordered_set<Atom, AtomHash> needed;
  HomSearchOptions body_options;
  body_options.layout = layout;
  HomSearchOptions head_options;
  head_options.layout = layout;
  std::vector<Atom> forced;
  for (TgdId id = 0; id < sigma.size(); ++id) {
    const Tgd& tgd = sigma.at(id);
    bool all_triggers_satisfied = true;
    ForEachHomomorphism(
        tgd.body(), source, body_options, [&](const Substitution& h) {
          if (!ForcedHeadAtoms(tgd, h, target, &head_options, &forced)) {
            // No head match at all: (I, J) violates Sigma.
            all_triggers_satisfied = false;
            return false;
          }
          for (Atom& a : forced) needed.insert(std::move(a));
          return true;
        });
    if (!all_triggers_satisfied) return false;
  }
  for (const Atom& tuple : target.atoms()) {
    if (needed.count(tuple) == 0) return false;  // removable
  }
  return true;
}

namespace {

// Enumerates substitutions e on `nulls` with images in `codomain`,
// invoking `visit` per complete assignment. Returns false if the budget
// ran out.
bool EnumerateSubstitutions(
    const std::vector<Term>& nulls, const std::vector<Term>& codomain,
    obs::BudgetMeter* budget, Substitution* current,
    const std::function<bool(const Substitution&)>& visit, size_t depth) {
  if (!budget->Consume()) return false;
  if (depth == nulls.size()) {
    return visit(*current);
  }
  for (Term value : codomain) {
    current->Set(nulls[depth], value);
    if (!EnumerateSubstitutions(nulls, codomain, budget, current, visit,
                                depth + 1)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> IsJustifiedSolution(const DependencySet& sigma,
                                 const Instance& source,
                                 const Instance& target,
                                 const JustificationOptions& options) {
  if (!Satisfies(sigma, source, target, options.layout)) return false;
  // Fast path: if J is itself a minimal solution, it witnesses Def. 2 via
  // the identity homomorphism.
  if (IsMinimalSolution(sigma, source, target, options.layout)) return true;
  // For a ground J the converse also holds: any minimal M with J -> M has
  // J as a subset, and a tuple removable from J stays removable in every
  // superset, so M >= J minimal forces J minimal. No search needed.
  if (target.IsGround()) return false;
  Instance chase =
      Chase(sigma, source, &FreshNulls(), nullptr, options.layout);

  // Fresh chase nulls: nulls of the chase result not already in dom(I).
  std::unordered_set<Term, TermHash> source_terms;
  for (Term t : source.Dom()) source_terms.insert(t);
  std::vector<Term> fresh;
  for (Term t : chase.TermsOfKind(TermKind::kNull)) {
    if (source_terms.count(t) == 0) fresh.push_back(t);
  }

  // Codomain: dom(chase) u dom(J); mapping a null "to itself" covers the
  // choice of an arbitrary fresh value (any value outside the codomain is
  // isomorphic to keeping the null).
  std::vector<Term> codomain = chase.Dom();
  {
    std::unordered_set<Term, TermHash> seen(codomain.begin(),
                                            codomain.end());
    for (Term t : target.Dom()) {
      if (seen.insert(t).second) codomain.push_back(t);
    }
  }

  bool found = false;
  obs::BudgetMeter budget("justification.assignments", "verify",
                          options.max_assignments, options.context);
  Substitution current;
  bool finished = EnumerateSubstitutions(
      fresh, codomain, &budget, &current,
      [&](const Substitution& e) {
        Instance candidate = chase.Apply(e);
        // Every minimal solution equals e(Chase) for some e; check that
        // this candidate is minimal and that J maps into it.
        if (IsMinimalSolution(sigma, source, candidate, options.layout) &&
            HasInstanceHomomorphism(target, candidate, options.layout)) {
          found = true;
          return false;  // stop
        }
        return true;
      },
      0);
  if (found) return true;
  if (!finished) return budget.Exhausted();
  return false;
}

Result<bool> IsRecovery(const DependencySet& sigma, const Instance& source,
                        const Instance& target,
                        const JustificationOptions& options) {
  // Note the empty source is only a recovery of the empty target: a
  // non-empty J has no minimal solution w.r.t. an empty I that J could map
  // into, so Def. 2's second condition already excludes it.
  return IsJustifiedSolution(sigma, source, target, options);
}

bool IsUniversalSolutionFor(const DependencySet& sigma,
                            const Instance& source,
                            const Instance& target) {
  if (!Satisfies(sigma, source, target)) return false;
  Instance chase = Chase(sigma, source, &FreshNulls());
  return HasInstanceHomomorphism(target, chase);
}

bool IsCanonicalSolutionFor(const DependencySet& sigma,
                            const Instance& source,
                            const Instance& target) {
  Instance chase = Chase(sigma, source, &FreshNulls());
  return AreIsomorphic(target, chase);
}

}  // namespace dxrec
