#include "chase/homomorphism.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/alloc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "resilience/execution_context.h"
#include "util/thread_pool.h"

namespace dxrec {

namespace {

// One search's worth of tallies flushed to the metrics registry. Shared
// by the sequential Matcher and the parallel driver (which aggregates
// its chunks into a single logical search before flushing).
void FlushSearchCounters(uint64_t candidates_tried, uint64_t backtracks,
                         uint64_t results, bool truncated) {
  if (truncated && obs::EventsEnabled()) {
    obs::Emit("homs.truncated",
              {{"results", static_cast<int64_t>(results)}});
  }
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* searches = registry.GetCounter("hom.searches");
  static obs::Counter* candidates =
      registry.GetCounter("hom.candidates_tried");
  static obs::Counter* backtracks_counter =
      registry.GetCounter("hom.backtracks");
  static obs::Counter* results_counter = registry.GetCounter("hom.results");
  static obs::Counter* truncations = registry.GetCounter("hom.truncated");
  searches->Add(1);
  candidates->Add(candidates_tried);
  backtracks_counter->Add(backtracks);
  results_counter->Add(results);
  if (truncated) truncations->Add(1);
}

// Greedy static atom order shared by both matchers: repeatedly pick the
// atom with the most terms that are constants or already-bound
// placeholders (`is_bound` reports the placeholders seeded before the
// search starts). The greedy selection is quadratic in the pattern size,
// so very large patterns (e.g. whole-instance containment checks) fall
// back to insertion order -- their atoms are mostly ground and
// candidate lists are index-driven anyway. A pattern of at most one atom
// has a single order and skips the scoring. Both layouts must call this
// with the same bound placeholders so they explore in the same order.
template <typename IsBound>
std::vector<size_t> ChooseAtomOrder(const std::vector<Atom>& pattern,
                                    bool map_nulls, const IsBound& is_bound) {
  const auto is_placeholder = [map_nulls](Term t) {
    return t.is_variable() || (map_nulls && t.is_null());
  };
  if (pattern.size() <= 1 || pattern.size() > 192) {
    std::vector<size_t> order(pattern.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return order;
  }
  std::vector<size_t> order;
  order.reserve(pattern.size());
  std::vector<bool> chosen(pattern.size(), false);
  // Placeholders bound by the atoms chosen so far.
  std::unordered_set<Term, TermHash> seen;
  for (size_t step = 0; step < pattern.size(); ++step) {
    size_t best = pattern.size();
    int best_score = -1;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (chosen[i]) continue;
      int score = 0;
      for (Term t : pattern[i].args()) {
        if (!is_placeholder(t) || is_bound(t) || seen.count(t) > 0) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    chosen[best] = true;
    order.push_back(best);
    for (Term t : pattern[best].args()) {
      if (is_placeholder(t)) seen.insert(t);
    }
  }
  return order;
}

// Backtracking matcher over a greedily chosen atom ordering with
// index-driven candidate selection.
class Matcher {
 public:
  static constexpr bool kColumnar = false;
  // Pre-builds the shared read-only structure concurrent chunk matchers
  // probe (docs/PARALLELISM.md).
  static void Warm(const Instance& target) { target.WarmIndex(); }

  Matcher(const std::vector<Atom>& pattern, const Instance& target,
          const HomSearchOptions& options,
          const std::function<bool(const Substitution&)>& callback)
      : pattern_(pattern),
        target_(target),
        options_(options),
        callback_(callback) {}

  void Run() {
    if (!SeedFixed()) {
      FlushCounters();
      FlushStats();
      return;
    }
    order_ = ChooseOrder();
    BuildDepthSlots();
    Recurse(0);
    FlushCounters();
    FlushStats();
  }

  // Parallel-driver entry points. Both run quiet: no counter flush or
  // telemetry from this matcher; the driver aggregates across chunks so
  // the whole fan-out still reads as one logical search.
  //
  // Seeds fixed bindings, fixes the atom order, and copies out the root
  // candidate list Recurse(0) would scan. False when a fixed binding is
  // inadmissible (the search has no results).
  bool PlanRoot(std::vector<uint32_t>* roots) {
    quiet_ = true;
    if (!SeedFixed()) return false;
    order_ = ChooseOrder();
    *roots = *CandidatesFor(0, &root_indexed_);
    root_relation_ = pattern_[order_[0]].relation();
    return true;
  }

  // Explores only the given slice of root candidates (a contiguous run
  // of PlanRoot's list, so slice-order concatenation across chunks
  // reproduces the sequential enumeration order).
  void RunChunk(const std::vector<uint32_t>& root_slice) {
    quiet_ = true;
    if (!SeedFixed()) return;
    order_ = ChooseOrder();
    BuildDepthSlots();
    root_slice_ = &root_slice;
    Recurse(0);
  }

  uint64_t candidates_tried() const { return candidates_tried_; }
  uint64_t backtracks() const { return backtracks_; }
  size_t results() const { return results_; }
  bool truncated() const { return truncated_; }

  // Root-list access-path facts from PlanRoot (stats attribution: the
  // driver records the list acquisition exactly once, since every chunk
  // scans a slice of the same list).
  RelationId root_relation() const { return root_relation_; }
  bool root_indexed() const { return root_indexed_; }

  // Chunk mode: hands the per-relation access rows accumulated during
  // RunChunk to the driver, which merges chunks in slice order and
  // reports the fan-out as one logical search.
  obs::stats::SearchStats TakeRelationStats() { return std::move(stats_); }

 private:
  bool IsPlaceholder(Term t) const {
    return t.is_variable() || (options_.map_nulls && t.is_null());
  }

  // Seeds bindings from options.fixed for placeholders occurring in the
  // pattern; false when a seed is inadmissible (no results possible).
  bool SeedFixed() {
    for (const Atom& a : pattern_) {
      for (Term t : a.args()) {
        if (!IsPlaceholder(t) || binding_.count(t) > 0) continue;
        if (options_.fixed.Binds(t) &&
            !TryBind(t, options_.fixed.Apply(t))) {
          return false;
        }
      }
    }
    return true;
  }

  // Local tallies are kept unconditionally (an increment is noise next to
  // the per-candidate map work) and flushed to the registry only when
  // observability is on, so the disabled path stays counter-free.
  void FlushCounters() const {
    FlushSearchCounters(candidates_tried_, backtracks_, results_,
                        truncated_);
  }

  // Per-depth slots into stats_.relations, resolved once per search so
  // the inner loop pays plain increments when stats are on (std::map
  // nodes are stable, so the pointers survive later insertions).
  void BuildDepthSlots() {
    if (!stats_on_) return;
    depth_slots_.resize(order_.size());
    for (size_t d = 0; d < order_.size(); ++d) {
      depth_slots_[d] = &stats_.relations[pattern_[order_[d]].relation()];
    }
  }

  // One logical (non-chunked) search's access-path stats: merged into
  // the thread's sink and the `stats.*` registry families.
  void FlushStats() {
    if (!stats_on_ || quiet_) return;
    stats_.searches = 1;
    stats_.candidates_tried = candidates_tried_;
    stats_.backtracks = backtracks_;
    stats_.results = results_;
    stats_.truncated = truncated_ ? 1 : 0;
    obs::stats::RecordSearch(stats_);
  }

  // Rare-path pulse: progress work units and, even less often, a search
  // milestone event. Called every 2^16 candidates. Chunk matchers keep
  // the progress pulse (the watchdog must see parallel work) but skip
  // the milestone — a per-chunk candidate count is not the sequential
  // search's cadence, and emitting it would make event streams depend
  // on the chunking.
  void Pulse() const {
    if (obs::ProgressActive()) obs::NoteWork(1u << 16);
    if (!quiet_ && obs::EventsEnabled() &&
        (candidates_tried_ & ((1u << 20) - 1)) == 0) {
      obs::Emit("hom.milestone",
                {{"candidates", static_cast<int64_t>(candidates_tried_)},
                 {"results", static_cast<int64_t>(results_)}});
    }
  }

  // Binds placeholder -> image if admissible; returns whether it bound.
  bool TryBind(Term placeholder, Term image) {
    if (options_.nulls_to_nulls && placeholder.is_null() &&
        !image.is_null()) {
      return false;
    }
    if (options_.injective && used_images_.count(image) > 0) return false;
    if (options_.injective) used_images_.insert(image);
    binding_.emplace(placeholder, image);
    return true;
  }

  void Unbind(Term placeholder, Term image) {
    if (options_.injective) used_images_.erase(image);
    binding_.erase(placeholder);
  }

  // Fixed-seeded placeholders feed the shared greedy ordering, so the
  // chosen order matches the columnar matcher's for the same inputs.
  std::vector<size_t> ChooseOrder() const {
    return ChooseAtomOrder(pattern_, options_.map_nulls, [this](Term t) {
      return binding_.count(t) > 0;
    });
  }

  // Current image of a pattern term; invalid term if unbound placeholder.
  Term ImageOf(Term t) const {
    if (!IsPlaceholder(t)) return t;
    auto it = binding_.find(t);
    return it == binding_.end() ? Term() : it->second;
  }

  // Candidate tuples for the atom at order_[depth]: the tightest index
  // among bound positions, else the whole relation. *indexed reports
  // which of the two access paths won.
  const std::vector<uint32_t>* CandidatesFor(size_t depth,
                                             bool* indexed) const {
    const Atom& atom = pattern_[order_[depth]];
    const std::vector<uint32_t>* candidates = nullptr;
    if (options_.use_index) {
      for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
        Term image = ImageOf(atom.arg(pos));
        if (!image.is_valid()) continue;
        const std::vector<uint32_t>& list =
            target_.AtomsWith(atom.relation(), pos, image);
        if (candidates == nullptr || list.size() < candidates->size()) {
          candidates = &list;
        }
      }
    }
    *indexed = candidates != nullptr;
    if (candidates == nullptr) {
      candidates = &target_.AtomsFor(atom.relation());
    }
    return candidates;
  }

  void Recurse(size_t depth) {
    if (stopped_) return;
    if (depth == pattern_.size()) {
      Substitution result;
      for (const auto& [from, to] : binding_) result.Set(from, to);
      ++results_;
      if (!callback_(result)) {
        stopped_ = true;  // caller asked to stop; not a truncation
      } else if (results_ >= options_.max_results) {
        // Silent cutoff made visible: the caller sees max_results homs
        // and has no way to tell "that's all" from "that's the cap".
        stopped_ = true;
        truncated_ = true;
      }
      return;
    }
    const Atom& atom = pattern_[order_[depth]];
    const std::vector<uint32_t>* candidates;
    if (depth == 0 && root_slice_ != nullptr) {
      candidates = root_slice_;
      // Chunk mode: the driver records the root list acquisition once;
      // each chunk accounts only the candidates its slice feeds it, so
      // slice-order merging reproduces the sequential scan counts.
      if (stats_on_) depth_slots_[0]->tuples_scanned += candidates->size();
    } else {
      bool indexed = false;
      candidates = CandidatesFor(depth, &indexed);
      if (stats_on_) {
        obs::stats::RelationAccess* slot = depth_slots_[depth];
        ++slot->lists;
        if (indexed) ++slot->indexed_lists;
        slot->tuples_scanned += candidates->size();
      }
    }

    for (uint32_t idx : *candidates) {
      const Atom& tuple = target_.atoms()[idx];
      if (tuple.arity() != atom.arity()) continue;
      ++candidates_tried_;
      if ((candidates_tried_ & 0xFFFF) == 0) {
        Pulse();
        // Deadline/cancellation at pulse cadence. Stopping here is a
        // truncation: everything emitted so far is a genuine hom, some
        // may be missing — exactly the max_results contract.
        if (options_.context != nullptr &&
            options_.context->Check() != resilience::StopCause::kNone) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
        // Shared cross-search work budget: draw the next batch of
        // candidates; a dry pool also truncates.
        if (options_.shared_budget != nullptr &&
            !options_.shared_budget->TryConsume(
                obs::SharedBudget::kBatch)) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
      }
      std::vector<std::pair<Term, Term>> newly_bound;
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.arity() && ok; ++pos) {
        Term p = atom.arg(pos);
        Term t = tuple.arg(pos);
        Term image = ImageOf(p);
        if (image.is_valid()) {
          ok = (image == t);
        } else if (TryBind(p, t)) {
          newly_bound.emplace_back(p, t);
        } else {
          ok = false;
        }
      }
      if (ok) {
        if (stats_on_) ++depth_slots_[depth]->tuples_matched;
        Recurse(depth + 1);
      } else {
        ++backtracks_;
      }
      for (auto it = newly_bound.rbegin(); it != newly_bound.rend(); ++it) {
        Unbind(it->first, it->second);
      }
      if (stopped_) return;
    }
  }

  const std::vector<Atom>& pattern_;
  const Instance& target_;
  const HomSearchOptions& options_;
  const std::function<bool(const Substitution&)>& callback_;

  std::vector<size_t> order_;
  const std::vector<uint32_t>* root_slice_ = nullptr;
  bool quiet_ = false;  // chunk mode: driver owns telemetry
  // Access-path stats: the gate is sampled once per search (one relaxed
  // load), so the disabled inner loop pays a predictable branch only.
  const bool stats_on_ = obs::stats::Enabled();
  obs::stats::SearchStats stats_;
  std::vector<obs::stats::RelationAccess*> depth_slots_;
  RelationId root_relation_ = 0;
  bool root_indexed_ = false;
  std::unordered_map<Term, Term, TermHash> binding_;
  std::unordered_set<Term, TermHash> used_images_;
  size_t results_ = 0;
  uint64_t candidates_tried_ = 0;
  uint64_t backtracks_ = 0;
  bool stopped_ = false;
  bool truncated_ = false;  // stopped by max_results, not by the caller
};

// Code-space matcher over the columnar snapshot: the same backtracking
// join as Matcher, but the pattern is compiled once into dictionary
// codes and slot indices, candidate selection walks per-(position,
// code) postings lists, and unification compares uint32 codes instead
// of Terms — an index-nested-loop join that never touches Atom storage
// until results are decoded. Enumeration order, access-path stats,
// pulse cadence, and truncation semantics mirror Matcher exactly
// (postings lists hold local rows in insertion order, which is the
// order AtomsWith enumerates); tests/columnar_diff_test.cc holds the
// two layouts to byte-identical output.
class ColumnarMatcher {
 public:
  static constexpr bool kColumnar = true;
  static void Warm(const Instance& target) { target.WarmColumnar(); }

  ColumnarMatcher(const std::vector<Atom>& pattern, const Instance& target,
                  const HomSearchOptions& options,
                  const std::function<bool(const Substitution&)>& callback)
      : pattern_(pattern),
        columnar_(target.Columnar()),
        options_(options),
        callback_(callback) {
    Compile();
  }

  void Run() {
    if (!SeedFixed()) {
      FlushCounters();
      FlushStats();
      return;
    }
    order_ = ChooseOrder();
    BuildDepthSlots();
    Recurse(0);
    FlushCounters();
    FlushStats();
  }

  // Chunk-mode entry points; see Matcher::PlanRoot/RunChunk. The root
  // lists hold *local* rows of the root relation (the columnar analogue
  // of global atom indices) — opaque to the parallel driver, which only
  // slices and hands them back.
  bool PlanRoot(std::vector<uint32_t>* roots) {
    quiet_ = true;
    if (!SeedFixed()) return false;
    order_ = ChooseOrder();
    *roots = *CandidatesFor(0, &root_indexed_);
    root_relation_ = compiled_[order_[0]].rel;
    return true;
  }

  void RunChunk(const std::vector<uint32_t>& root_slice) {
    quiet_ = true;
    if (!SeedFixed()) return;
    order_ = ChooseOrder();
    BuildDepthSlots();
    root_slice_ = &root_slice;
    Recurse(0);
  }

  uint64_t candidates_tried() const { return candidates_tried_; }
  uint64_t backtracks() const { return backtracks_; }
  size_t results() const { return results_; }
  bool truncated() const { return truncated_; }
  RelationId root_relation() const { return root_relation_; }
  bool root_indexed() const { return root_indexed_; }
  obs::stats::SearchStats TakeRelationStats() { return std::move(stats_); }

 private:
  // Unbound slot sentinel; dictionary codes are dense and synthetic
  // codes extend them upward, so no real code collides with it.
  static constexpr uint32_t kUnbound = TermDictionary::kNoCode;

  struct ArgRef {
    bool is_slot;    // true: value is a slot index; false: a code
    uint32_t value;
  };
  struct CompiledAtom {
    RelationId rel = 0;
    uint32_t arity = 0;
    const ColumnarRelation* crel = nullptr;  // null when rel is empty
    std::vector<ArgRef> args;
  };

  bool IsPlaceholder(Term t) const {
    return t.is_variable() || (options_.map_nulls && t.is_null());
  }

  uint32_t SlotFor(Term t) {
    auto [it, inserted] =
        slot_of_.try_emplace(t, static_cast<uint32_t>(slot_terms_.size()));
    if (inserted) slot_terms_.push_back(t);
    return it->second;
  }

  // Code for a term that must compare against target codes: the
  // dictionary code when the term occurs in the target, else a fresh
  // synthetic code past the dictionary (distinct per distinct term, so
  // equality, injectivity, and fixed-seed semantics are preserved; a
  // synthetic code matches no stored tuple, exactly like a term absent
  // from the target).
  uint32_t CodeFor(Term t) {
    uint32_t code = columnar_.dict().Find(t);
    if (code != TermDictionary::kNoCode) return code;
    auto [it, inserted] = extra_of_.try_emplace(
        t,
        static_cast<uint32_t>(columnar_.dict().size() + extra_terms_.size()));
    if (inserted) extra_terms_.push_back(t);
    return it->second;
  }

  Term TermForCode(uint32_t code) const {
    const size_t n = columnar_.dict().size();
    return code < n ? columnar_.dict().Decode(code) : extra_terms_[code - n];
  }

  void Compile() {
    compiled_.reserve(pattern_.size());
    for (const Atom& a : pattern_) {
      CompiledAtom c;
      c.rel = a.relation();
      c.arity = a.arity();
      c.crel = columnar_.Relation(a.relation());
      c.args.reserve(a.arity());
      for (Term t : a.args()) {
        if (IsPlaceholder(t)) {
          c.args.push_back({true, SlotFor(t)});
        } else {
          c.args.push_back({false, CodeFor(t)});
        }
      }
      compiled_.push_back(std::move(c));
    }
    slot_values_.assign(slot_terms_.size(), kUnbound);
  }

  bool SeedFixed() {
    for (const Atom& a : pattern_) {
      for (Term t : a.args()) {
        if (!IsPlaceholder(t)) continue;
        const uint32_t slot = slot_of_.at(t);
        if (slot_values_[slot] != kUnbound) continue;
        if (options_.fixed.Binds(t) &&
            !TryBindSlot(slot, CodeFor(options_.fixed.Apply(t)))) {
          return false;
        }
      }
    }
    return true;
  }

  void FlushCounters() const {
    FlushSearchCounters(candidates_tried_, backtracks_, results_,
                        truncated_);
  }

  void BuildDepthSlots() {
    if (!stats_on_) return;
    depth_slots_.resize(order_.size());
    for (size_t d = 0; d < order_.size(); ++d) {
      depth_slots_[d] = &stats_.relations[compiled_[order_[d]].rel];
    }
  }

  void FlushStats() {
    if (!stats_on_ || quiet_) return;
    stats_.searches = 1;
    stats_.columnar_searches = 1;
    stats_.candidates_tried = candidates_tried_;
    stats_.backtracks = backtracks_;
    stats_.results = results_;
    stats_.truncated = truncated_ ? 1 : 0;
    obs::stats::RecordSearch(stats_);
  }

  void Pulse() const {
    if (obs::ProgressActive()) obs::NoteWork(1u << 16);
    if (!quiet_ && obs::EventsEnabled() &&
        (candidates_tried_ & ((1u << 20) - 1)) == 0) {
      obs::Emit("hom.milestone",
                {{"candidates", static_cast<int64_t>(candidates_tried_)},
                 {"results", static_cast<int64_t>(results_)}});
    }
  }

  bool TryBindSlot(uint32_t slot, uint32_t image) {
    if (options_.nulls_to_nulls && slot_terms_[slot].is_null() &&
        !TermForCode(image).is_null()) {
      return false;
    }
    if (options_.injective && used_codes_.count(image) > 0) return false;
    if (options_.injective) used_codes_.insert(image);
    slot_values_[slot] = image;
    return true;
  }

  void UnbindSlot(uint32_t slot) {
    if (options_.injective) used_codes_.erase(slot_values_[slot]);
    slot_values_[slot] = kUnbound;
  }

  std::vector<size_t> ChooseOrder() const {
    return ChooseAtomOrder(pattern_, options_.map_nulls, [this](Term t) {
      auto it = slot_of_.find(t);
      return it != slot_of_.end() && slot_values_[it->second] != kUnbound;
    });
  }

  // Tightest postings list among bound argument positions (every bound
  // position is probed, same attribution as the row path), else the
  // whole relation.
  const std::vector<uint32_t>* CandidatesFor(size_t depth,
                                             bool* indexed) const {
    const CompiledAtom& atom = compiled_[order_[depth]];
    const std::vector<uint32_t>* candidates = nullptr;
    if (options_.use_index) {
      for (uint32_t pos = 0; pos < atom.arity; ++pos) {
        const ArgRef arg = atom.args[pos];
        const uint32_t image =
            arg.is_slot ? slot_values_[arg.value] : arg.value;
        if (image == kUnbound) continue;
        const std::vector<uint32_t>& list =
            columnar_.Probe(atom.rel, pos, image);
        if (candidates == nullptr || list.size() < candidates->size()) {
          candidates = &list;
        }
      }
    }
    *indexed = candidates != nullptr;
    if (candidates == nullptr) candidates = &columnar_.Rows(atom.rel);
    return candidates;
  }

  void Recurse(size_t depth) {
    if (stopped_) return;
    if (depth == compiled_.size()) {
      Substitution result;
      for (size_t i = 0; i < slot_terms_.size(); ++i) {
        result.Set(slot_terms_[i], TermForCode(slot_values_[i]));
      }
      ++results_;
      if (!callback_(result)) {
        stopped_ = true;  // caller asked to stop; not a truncation
      } else if (results_ >= options_.max_results) {
        stopped_ = true;
        truncated_ = true;
      }
      return;
    }
    const CompiledAtom& atom = compiled_[order_[depth]];
    const std::vector<uint32_t>* candidates;
    if (depth == 0 && root_slice_ != nullptr) {
      candidates = root_slice_;
      if (stats_on_) depth_slots_[0]->tuples_scanned += candidates->size();
    } else {
      bool indexed = false;
      candidates = CandidatesFor(depth, &indexed);
      if (stats_on_) {
        obs::stats::RelationAccess* slot = depth_slots_[depth];
        ++slot->lists;
        if (indexed) ++slot->indexed_lists;
        slot->tuples_scanned += candidates->size();
      }
    }

    std::vector<uint32_t> newly_bound;
    for (uint32_t row : *candidates) {
      if (atom.crel->arity(row) != atom.arity) continue;
      ++candidates_tried_;
      if ((candidates_tried_ & 0xFFFF) == 0) {
        Pulse();
        if (options_.context != nullptr &&
            options_.context->Check() != resilience::StopCause::kNone) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
        if (options_.shared_budget != nullptr &&
            !options_.shared_budget->TryConsume(
                obs::SharedBudget::kBatch)) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
      }
      newly_bound.clear();
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.arity && ok; ++pos) {
        const ArgRef arg = atom.args[pos];
        const uint32_t tuple_code = atom.crel->code(pos, row);
        if (!arg.is_slot) {
          ok = (arg.value == tuple_code);
        } else {
          const uint32_t image = slot_values_[arg.value];
          if (image != kUnbound) {
            ok = (image == tuple_code);
          } else if (TryBindSlot(arg.value, tuple_code)) {
            newly_bound.push_back(arg.value);
          } else {
            ok = false;
          }
        }
      }
      if (ok) {
        if (stats_on_) ++depth_slots_[depth]->tuples_matched;
        Recurse(depth + 1);
      } else {
        ++backtracks_;
      }
      for (auto it = newly_bound.rbegin(); it != newly_bound.rend(); ++it) {
        UnbindSlot(*it);
      }
      if (stopped_) return;
    }
  }

  const std::vector<Atom>& pattern_;
  const ColumnarInstance& columnar_;
  const HomSearchOptions& options_;
  const std::function<bool(const Substitution&)>& callback_;

  // Compiled pattern: slots are distinct placeholders in first-occurrence
  // order; fixed args are pre-encoded.
  std::vector<CompiledAtom> compiled_;
  std::vector<Term> slot_terms_;
  std::unordered_map<Term, uint32_t, TermHash> slot_of_;
  std::vector<Term> extra_terms_;
  std::unordered_map<Term, uint32_t, TermHash> extra_of_;
  std::vector<uint32_t> slot_values_;

  std::vector<size_t> order_;
  const std::vector<uint32_t>* root_slice_ = nullptr;
  bool quiet_ = false;
  const bool stats_on_ = obs::stats::Enabled();
  obs::stats::SearchStats stats_;
  std::vector<obs::stats::RelationAccess*> depth_slots_;
  RelationId root_relation_ = 0;
  bool root_indexed_ = false;
  std::unordered_set<uint32_t> used_codes_;
  size_t results_ = 0;
  uint64_t candidates_tried_ = 0;
  uint64_t backtracks_ = 0;
  bool stopped_ = false;
  bool truncated_ = false;
};

// Fans the search out over contiguous slices of the root candidate
// list. Each chunk is a full sequential search below its slice (same
// atom order, same per-chunk max_results cap), so concatenating chunk
// results in slice order and trimming to max_results reproduces the
// sequential result list byte for byte — regardless of the chunk count,
// which is why it may depend on the thread count. Only the internal
// work tallies (candidates tried past a cap) can differ, and only on
// truncated searches. Parameterized over the matcher (row or columnar);
// root candidate lists are opaque to the driver — it only slices them.
template <typename M>
HomSearchResult SearchParallel(const std::vector<Atom>& pattern,
                               const Instance& target,
                               const HomSearchOptions& options,
                               const std::vector<uint32_t>& roots,
                               RelationId root_relation, bool root_indexed) {
  util::ThreadPool* pool = options.pool;
  const size_t num_chunks =
      std::min(roots.size(), (pool->num_threads() + 1) * 4);
  std::vector<std::vector<uint32_t>> slices(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = roots.size() * c / num_chunks;
    const size_t hi = roots.size() * (c + 1) / num_chunks;
    slices[c].assign(roots.begin() + lo, roots.begin() + hi);
  }

  struct ChunkResult {
    std::vector<Substitution> homs;
    uint64_t candidates_tried = 0;
    uint64_t backtracks = 0;
    bool truncated = false;
    obs::stats::SearchStats stats;  // per-relation rows only
  };
  std::vector<ChunkResult> chunks(num_chunks);
  M::Warm(target);  // concurrent readers need the shared structure built
  {
    util::TaskGroup group(pool, options.context);
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Run([&pattern, &target, &options, &slices, &chunks, c] {
        ChunkResult& chunk = chunks[c];
        const std::function<bool(const Substitution&)> collect =
            [&chunk](const Substitution& h) {
              chunk.homs.push_back(h);
              return true;
            };
        M matcher(pattern, target, options, collect);
        matcher.RunChunk(slices[c]);
        chunk.candidates_tried = matcher.candidates_tried();
        chunk.backtracks = matcher.backtracks();
        chunk.truncated = matcher.truncated();
        chunk.stats = matcher.TakeRelationStats();
      });
    }
  }

  HomSearchResult out;
  uint64_t candidates_tried = 0;
  uint64_t backtracks = 0;
  for (ChunkResult& chunk : chunks) {
    candidates_tried += chunk.candidates_tried;
    backtracks += chunk.backtracks;
    out.truncated = out.truncated || chunk.truncated;
    if (out.homs.size() < options.max_results) {
      const size_t room = options.max_results - out.homs.size();
      const size_t take = std::min(room, chunk.homs.size());
      out.homs.insert(out.homs.end(),
                      std::make_move_iterator(chunk.homs.begin()),
                      std::make_move_iterator(chunk.homs.begin() + take));
    }
  }
  if (out.homs.size() >= options.max_results) out.truncated = true;
  FlushSearchCounters(candidates_tried, backtracks, out.homs.size(),
                      out.truncated);
  if (obs::stats::Enabled()) {
    // Merge chunk access rows in slice order and report them as one
    // logical search; the root-list acquisition (probed once by
    // PlanRoot, scanned slice-wise by the chunks) is recorded here
    // exactly once, so the counts match the sequential search's on
    // complete (non-truncated) searches regardless of chunking.
    obs::stats::SearchStats agg;
    for (ChunkResult& chunk : chunks) agg.Merge(chunk.stats);
    agg.searches = 1;
    agg.columnar_searches = M::kColumnar ? 1 : 0;
    agg.candidates_tried = candidates_tried;
    agg.backtracks = backtracks;
    agg.results = out.homs.size();
    agg.truncated = out.truncated ? 1 : 0;
    obs::stats::RelationAccess& root_access = agg.relations[root_relation];
    ++root_access.lists;
    if (root_indexed) ++root_access.indexed_lists;
    obs::stats::RecordSearch(agg);
  }
  return out;
}

// The checked entry point, parameterized over the matcher: probe the
// root candidate list, fan out when it is large enough, else run the
// plain sequential search.
template <typename M>
HomSearchResult FindHomomorphismsCheckedT(const std::vector<Atom>& pattern,
                                          const Instance& target,
                                          const HomSearchOptions& options) {
  const std::function<bool(const Substitution&)> no_op =
      [](const Substitution&) { return true; };
  if (options.pool != nullptr && options.pool->num_threads() > 0 &&
      !pattern.empty()) {
    // Probe: seed + order + root candidate list, no search yet.
    std::vector<uint32_t> roots;
    M probe(pattern, target, options, no_op);
    if (probe.PlanRoot(&roots) &&
        roots.size() >= options.parallel_min_candidates) {
      return SearchParallel<M>(pattern, target, options, roots,
                               probe.root_relation(), probe.root_indexed());
    }
    // Conflicting seed or a small root set: fall through to the
    // sequential search (which redoes the cheap seeding).
  }
  HomSearchResult out;
  const std::function<bool(const Substitution&)> collect =
      [&out](const Substitution& h) {
        out.homs.push_back(h);
        return true;
      };
  M matcher(pattern, target, options, collect);
  matcher.Run();
  out.truncated = matcher.truncated();
  return out;
}

}  // namespace

void ForEachHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options,
    const std::function<bool(const Substitution&)>& callback) {
  obs::alloc::AllocScope alloc_scope("hom_search");
  if (options.layout == InstanceLayout::kColumnar) {
    ColumnarMatcher(pattern, target, options, callback).Run();
  } else {
    Matcher(pattern, target, options, callback).Run();
  }
}

HomSearchResult FindHomomorphismsChecked(const std::vector<Atom>& pattern,
                                         const Instance& target,
                                         const HomSearchOptions& options) {
  obs::alloc::AllocScope alloc_scope("hom_search");
  if (options.layout == InstanceLayout::kColumnar) {
    return FindHomomorphismsCheckedT<ColumnarMatcher>(pattern, target,
                                                      options);
  }
  return FindHomomorphismsCheckedT<Matcher>(pattern, target, options);
}

std::vector<Substitution> FindHomomorphisms(const std::vector<Atom>& pattern,
                                            const Instance& target,
                                            const HomSearchOptions& options) {
  return FindHomomorphismsChecked(pattern, target, options).homs;
}

std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options) {
  std::optional<Substitution> out;
  ForEachHomomorphism(pattern, target, options,
                      [&out](const Substitution& h) {
                        out = h;
                        return false;
                      });
  return out;
}

bool HasInstanceHomomorphism(const Instance& from, const Instance& to,
                             InstanceLayout layout) {
  return FindInstanceHomomorphism(from, to, layout).has_value();
}

std::optional<Substitution> FindInstanceHomomorphism(const Instance& from,
                                                     const Instance& to,
                                                     InstanceLayout layout) {
  HomSearchOptions options;
  options.map_nulls = true;
  options.layout = layout;
  return FindHomomorphism(from.atoms(), to, options);
}

std::optional<Substitution> FindIsomorphism(const Instance& a,
                                            const Instance& b) {
  if (a.size() != b.size()) return std::nullopt;
  HomSearchOptions options;
  options.map_nulls = true;
  options.injective = true;
  options.nulls_to_nulls = true;
  std::optional<Substitution> h = FindHomomorphism(a.atoms(), b, options);
  if (!h.has_value()) return std::nullopt;
  // Injective on terms => no atom merging, so |h(a)| = |a| = |b| and
  // h(a) subset of b implies h(a) = b.
  return h;
}

bool AreIsomorphic(const Instance& a, const Instance& b) {
  return FindIsomorphism(a, b).has_value();
}

std::vector<size_t> IsomorphismRepresentatives(
    const std::vector<Instance>& instances,
    const std::vector<IsoInvariant>& invariants, size_t* iso_checks) {
  std::vector<size_t> kept;
  // Variable-free kept instances by invariant hash, in kept order.
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  size_t checks = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    const IsoInvariant& invariant = invariants[i];
    const std::vector<size_t>* scan = &kept;
    if (!invariant.has_variables) {
      auto it = buckets.find(invariant.hash);
      scan = it == buckets.end() ? nullptr : &it->second;
    }
    bool duplicate = false;
    if (scan != nullptr) {
      for (size_t k : *scan) {
        ++checks;
        if (AreIsomorphic(instances[i], instances[k])) {
          duplicate = true;
          break;
        }
      }
    }
    if (duplicate) continue;
    kept.push_back(i);
    if (!invariant.has_variables) buckets[invariant.hash].push_back(i);
  }
  if (iso_checks != nullptr) *iso_checks = checks;
  return kept;
}

}  // namespace dxrec
