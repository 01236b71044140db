// Null-management utilities on instances: renaming apart, freezing, and
// deterministic canonical renumbering.
#ifndef DXREC_RELATIONAL_INSTANCE_OPS_H_
#define DXREC_RELATIONAL_INSTANCE_OPS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "base/fresh.h"
#include "base/substitution.h"
#include "relational/instance.h"

namespace dxrec {

// An instance together with the substitution that produced it.
struct RenamedInstance {
  Instance instance;
  Substitution renaming;
};

// Replaces every null of `input` by a fresh null from `source`, so the
// result shares no nulls with any other instance.
RenamedInstance RenameNullsFresh(const Instance& input, NullSource* source);

// Replaces every null by a distinct fresh *constant* ("@N<k>"). Freezing
// turns an instance with nulls into a ground instance whose hom-structure
// is preserved; the classical trick behind certain-answer and containment
// arguments.
RenamedInstance FreezeNulls(const Instance& input);

// Replaces every variable by a distinct fresh null, i.e. reads a
// conjunction of atoms as an instance (paper Sec. 2: "we will often view a
// conjunction of atoms as a set of atoms, i.e. as an instance where each
// variable corresponds to a null value").
RenamedInstance VariablesToNulls(const Instance& input, NullSource* source);

// Renumbers nulls as _N0, _N1, ... in order of first occurrence when atoms
// are sorted; purely for stable golden-text output. Not a canonical form
// under instance automorphisms.
Instance CanonicalizeNullLabels(const Instance& input);

// A deterministic string for `input` after CanonicalizeNullLabels; two
// calls on equal-up-to-chosen-labels instances with the same atom ordering
// yield the same string.
std::string CanonicalString(const Instance& input);

// Order-independent 64-bit hash of the atom set of
// CanonicalizeNullLabels(input): instances with the same canonical form
// hash alike, so it buckets candidates before SameCanonicalForm decides.
// Null-free instances skip the relabeling (it is the identity on them).
uint64_t CanonicalHash(const Instance& input);

// CanonicalizeNullLabels(a) == CanonicalizeNullLabels(b), comparing
// null-free instances directly.
bool SameCanonicalForm(const Instance& a, const Instance& b);

// A cheap isomorphism invariant: an order-independent 64-bit hash of the
// multiset of atoms with every null replaced by one wildcard (relations,
// arities, constants and positions kept). An isomorphism renames nulls
// bijectively onto nulls and fixes constants, so it maps each atom onto
// one with the same wildcard image: isomorphic null/constant instances
// have equal hashes, and only instances with equal hashes need the
// exact search. Variables are different: AreIsomorphic may map a
// variable onto a constant, so an instance containing one is flagged
// (and its hash carries no isomorphism guarantee).
struct IsoInvariant {
  uint64_t hash = 0;
  bool has_variables = false;

  friend bool operator==(const IsoInvariant& a, const IsoInvariant& b) {
    return a.hash == b.hash && a.has_variables == b.has_variables;
  }
};
IsoInvariant IsomorphismInvariant(const Instance& input);

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_INSTANCE_OPS_H_
