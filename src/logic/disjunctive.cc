#include "logic/disjunctive.h"

#include <set>

#include "chase/homomorphism.h"
#include "obs/events.h"
#include "relational/instance_ops.h"
#include "resilience/execution_context.h"

namespace dxrec {

namespace {

// Variables of `atoms`, deduplicated.
std::vector<Term> VarsOf(const std::vector<Atom>& atoms) {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (t.is_variable() && seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

}  // namespace

Result<DisjunctiveTgd> DisjunctiveTgd::Make(
    std::vector<Atom> body, std::vector<std::vector<Atom>> alternatives) {
  if (body.empty()) {
    return Status::InvalidArgument("disjunctive tgd needs a body");
  }
  if (alternatives.empty()) {
    return Status::InvalidArgument(
        "disjunctive tgd needs at least one head alternative");
  }
  for (const std::vector<Atom>& alt : alternatives) {
    if (alt.empty()) {
      return Status::InvalidArgument("empty head alternative");
    }
  }
  DisjunctiveTgd out;
  out.body_ = std::move(body);
  out.alternatives_ = std::move(alternatives);
  return out;
}

std::string DisjunctiveTgd::ToString() const {
  std::string out;
  bool first = true;
  for (const Atom& a : body_) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString();
  }
  out += " -> ";
  for (size_t i = 0; i < alternatives_.size(); ++i) {
    if (i > 0) out += " | ";
    bool first_atom = true;
    for (const Atom& a : alternatives_[i]) {
      if (!first_atom) out += ", ";
      first_atom = false;
      out += a.ToString();
    }
  }
  return out;
}

size_t DisjunctiveMapping::Add(DisjunctiveTgd tgd) {
  // Rename colliding variables apart, mirroring DependencySet.
  Substitution renaming;
  std::vector<Term> vars = VarsOf(tgd.body());
  for (const std::vector<Atom>& alt : tgd.alternatives()) {
    for (Term v : VarsOf(alt)) {
      bool known = false;
      for (Term u : vars) {
        if (u == v) known = true;
      }
      if (!known) vars.push_back(v);
    }
  }
  for (Term v : vars) {
    if (used_vars_.count(v) > 0) {
      renaming.Set(v, FreshVariable());
    }
  }
  if (!renaming.empty()) {
    std::vector<Atom> body;
    for (const Atom& a : tgd.body()) body.push_back(a.Apply(renaming));
    std::vector<std::vector<Atom>> alts;
    for (const std::vector<Atom>& alt : tgd.alternatives()) {
      std::vector<Atom> renamed;
      for (const Atom& a : alt) renamed.push_back(a.Apply(renaming));
      alts.push_back(std::move(renamed));
    }
    tgd = std::move(*DisjunctiveTgd::Make(std::move(body), std::move(alts)));
  }
  for (Term v : VarsOf(tgd.body())) used_vars_.insert(v);
  for (const std::vector<Atom>& alt : tgd.alternatives()) {
    for (Term v : VarsOf(alt)) used_vars_.insert(v);
  }
  tgds_.push_back(std::move(tgd));
  return tgds_.size() - 1;
}

std::string DisjunctiveMapping::ToString() const {
  std::string out;
  for (const DisjunctiveTgd& tgd : tgds_) {
    out += tgd.ToString();
    out += "\n";
  }
  return out;
}

Result<std::vector<Instance>> DisjunctiveChase(
    const DisjunctiveMapping& mapping, const Instance& input,
    NullSource* nulls, const DisjunctiveChaseOptions& options) {
  // Collect triggers across all disjunctive tgds.
  struct DisTrigger {
    size_t tgd;
    Substitution hom;
  };
  std::vector<DisTrigger> triggers;
  for (size_t i = 0; i < mapping.size(); ++i) {
    for (Substitution& h :
         FindHomomorphisms(mapping.at(i).body(), input)) {
      triggers.push_back(DisTrigger{i, std::move(h)});
    }
  }

  // Worlds = choice functions: expand trigger by trigger.
  std::vector<Instance> worlds(1);
  for (const DisTrigger& trigger : triggers) {
    Status checkpoint = resilience::CheckPoint(
        options.context, "disjunctive.trigger", "disjunctive_chase");
    if (!checkpoint.ok()) return checkpoint;
    const DisjunctiveTgd& tgd = mapping.at(trigger.tgd);
    std::vector<Instance> expanded;
    expanded.reserve(worlds.size() * tgd.num_alternatives());
    for (const Instance& world : worlds) {
      for (const std::vector<Atom>& alt : tgd.alternatives()) {
        // Per-alternative existentials get fresh nulls per world branch.
        Substitution extended = trigger.hom;
        for (Term v : VarsOf(alt)) {
          if (!extended.Binds(v)) extended.Set(v, nulls->Fresh());
        }
        Instance next = world;
        for (const Atom& a : alt) next.Add(a.Apply(extended));
        expanded.push_back(std::move(next));
        if (expanded.size() > options.max_worlds) {
          return obs::BudgetExhausted({"disjunctive.worlds",
                                       options.max_worlds, expanded.size(),
                                       "disjunctive_chase"});
        }
      }
    }
    worlds = std::move(expanded);
  }

  // Dedup exact duplicates (different choices can coincide).
  std::vector<Instance> unique;
  std::set<std::string> seen;
  for (Instance& world : worlds) {
    if (seen.insert(CanonicalString(world)).second) {
      unique.push_back(std::move(world));
    }
  }
  return unique;
}

}  // namespace dxrec
