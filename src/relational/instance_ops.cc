#include "relational/instance_ops.h"

#include <algorithm>
#include <atomic>

namespace dxrec {

RenamedInstance RenameNullsFresh(const Instance& input, NullSource* source) {
  Substitution renaming;
  for (Term t : input.TermsOfKind(TermKind::kNull)) {
    renaming.Set(t, source->Fresh());
  }
  return RenamedInstance{input.Apply(renaming), std::move(renaming)};
}

RenamedInstance FreezeNulls(const Instance& input) {
  static std::atomic<uint64_t>& counter = *new std::atomic<uint64_t>(0);
  Substitution freezing;
  for (Term t : input.TermsOfKind(TermKind::kNull)) {
    freezing.Set(
        t, Term::Constant("@N" + std::to_string(counter.fetch_add(1))));
  }
  return RenamedInstance{input.Apply(freezing), std::move(freezing)};
}

RenamedInstance VariablesToNulls(const Instance& input, NullSource* source) {
  Substitution renaming;
  for (Term t : input.TermsOfKind(TermKind::kVariable)) {
    renaming.Set(t, source->Fresh());
  }
  return RenamedInstance{input.Apply(renaming), std::move(renaming)};
}

Instance CanonicalizeNullLabels(const Instance& input) {
  std::vector<Atom> sorted = input.atoms();
  std::sort(sorted.begin(), sorted.end());
  Substitution renumbering;
  uint32_t next = 0;
  for (const Atom& a : sorted) {
    for (Term t : a.args()) {
      if (t.is_null() && !renumbering.Binds(t)) {
        renumbering.Set(t, Term::Null(next++));
      }
    }
  }
  Instance out;
  for (const Atom& a : sorted) out.Add(a.Apply(renumbering));
  return out;
}

std::string CanonicalString(const Instance& input) {
  return CanonicalizeNullLabels(input).ToString();
}

namespace {

// splitmix64 finalizer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Sum of per-atom hashes (order-independent), each atom hashed with its
// arguments passed through `key`, finished with the atom count.
template <typename Key>
uint64_t MultisetHash(const std::vector<Atom>& atoms, const Key& key) {
  uint64_t total = 0;
  for (const Atom& a : atoms) {
    uint64_t h = Mix64((static_cast<uint64_t>(a.arity()) << 32) |
                       a.relation());
    for (Term t : a.args()) h = Mix64(h ^ key(t));
    total += h;
  }
  return Mix64(total ^ atoms.size());
}

bool HasNulls(const Instance& input) {
  for (const Atom& a : input.atoms()) {
    for (Term t : a.args()) {
      if (t.is_null()) return true;
    }
  }
  return false;
}

}  // namespace

uint64_t CanonicalHash(const Instance& input) {
  const auto key = [](Term t) { return t.Key(); };
  if (!HasNulls(input)) return MultisetHash(input.atoms(), key);
  return MultisetHash(CanonicalizeNullLabels(input).atoms(), key);
}

bool SameCanonicalForm(const Instance& a, const Instance& b) {
  if (a.size() != b.size()) return false;
  const bool a_nulls = HasNulls(a);
  if (a_nulls != HasNulls(b)) return false;
  if (!a_nulls) return a == b;
  return CanonicalizeNullLabels(a) == CanonicalizeNullLabels(b);
}

IsoInvariant IsomorphismInvariant(const Instance& input) {
  // Term keys are (kind << 32 | id) < 2^40, so this never names a term.
  constexpr uint64_t kNullWildcard = uint64_t{1} << 63;
  IsoInvariant out;
  out.hash = MultisetHash(input.atoms(), [&out](Term t) {
    if (t.is_variable()) out.has_variables = true;
    return t.is_null() ? kNullWildcard : t.Key();
  });
  return out;
}

}  // namespace dxrec
