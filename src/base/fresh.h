// Factories for fresh labeled nulls and fresh variables.
//
// The chase and the subsumption machinery repeatedly need values "that were
// not used before" (paper, Sec. 2). A NullSource hands out labels from a
// monotone counter; the global FreshNulls() source is shared so labels never
// collide across operations, while tests may construct local sources for
// deterministic labels.
#ifndef DXREC_BASE_FRESH_H_
#define DXREC_BASE_FRESH_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "base/term.h"

namespace dxrec {

// Hands out fresh null labels. Thread-safe.
class NullSource {
 public:
  explicit NullSource(uint32_t first_label = 0) : next_(first_label) {}

  // Returns a null with a label never before returned by this source.
  Term Fresh() { return Term::Null(next_.fetch_add(1)); }

  uint32_t next_label() const { return next_.load(); }

 private:
  std::atomic<uint32_t> next_;
};

// The process-wide null source used by default throughout the library.
NullSource& FreshNulls();

// Hands out a fresh variable "$<n>", distinct from every parsed variable
// and from the last 2^31 - 1 fresh ones (a process-wide counter feeds n).
// Fresh variables are not interned, so renaming apart (done per call by
// the subsumption, composition and recovery-mapping constructions) does
// not grow the symbol table.
Term FreshVariable();

}  // namespace dxrec

#endif  // DXREC_BASE_FRESH_H_
