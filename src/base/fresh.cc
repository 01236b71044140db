#include "base/fresh.h"

namespace dxrec {

NullSource& FreshNulls() {
  static NullSource& source = *new NullSource();
  return source;
}

Term FreshVariable() {
  static std::atomic<uint64_t>& counter = *new std::atomic<uint64_t>(0);
  return Term::FreshVariable(counter.fetch_add(1));
}

}  // namespace dxrec
