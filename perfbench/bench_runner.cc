// bench_runner: the compiled half of the benchmark (perfbench/run.py
// is the other half). Every mode prints one JSON object on stdout; run.py
// turns it into metrics and checks every output against its golden.
//
// Modes:
//   engine   One engine workload through dxrec::Engine: timed set-ups
//            alternating with a closed loop of one caller. With
//            --trace=1: an untraced closed loop, then a traced one whose
//            spans go to --spans.
//   loadgen  Open-loop client for a running dxrecd: sends each request of
//            a schedule at its due time, pipelined over a few
//            connections, and records due / sent / received times.
//   expect   Reference answers for served sessions from a direct
//            in-process Engine run on each session's (Sigma, J).
//   replay   Times dxrecd's per-request layers out of band: ParseRequest,
//            the per-request Engine + CertainAnswersDegraded, OkResponse,
//            SessionRegistry::Open.
//
// Layers are timed from outside: spans wrap calls into each module's
// public functions, and phase times / counts come from what those calls
// already return (InverseChaseStats, the obs metrics registry).
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chase/evaluation.h"
#include "core/engine.h"
#include "logic/io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace {

using namespace dxrec;  // NOLINT: single-file tool
using serve::JsonArray;
using serve::JsonObject;
using serve::JsonValue;
using serve::ParseJson;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t MicrosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - origin)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_runner: %s\n", message.c_str());
  std::exit(2);
}

// A fixed job of the kinds of work the engine does (hash-map build and
// probe, small allocations, a string sort) that shares no code with
// dxrec. Returns its wall ms (~15 ms on the VM the benchmark was built
// on).
double ReferenceKernelMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> groups;
  for (uint32_t i = 0; i < 40000; ++i) groups[next() % 20000].push_back(i);
  std::vector<std::string> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("k" + std::to_string(next() % 100000));
  }
  std::sort(keys.begin(), keys.end());
  size_t hits = 0;
  for (int i = 0; i < 80000; ++i) {
    auto it = groups.find(next() % 40000);
    if (it != groups.end()) hits += it->second.size();
  }
  const double ms = SecondsSince(t0) * 1e3;
  if (hits + keys.size() == 0) Die("reference kernel did no work");
  return ms;
}

// Timed ops in blocks of kBlockSeconds, each block on one CPU. A block
// ends with one ReferenceKernelMs() on the same CPU, then the thread moves
// to the next CPU it may run on; it gets every CPU back when this is
// destroyed. Why: on a shared host a co-tenant on the same physical core
// slows one CPU's work ~1.6-1.8x, for seconds to minutes, on some CPUs
// and not others. Moving keeps a share of every run's ops on a free core,
// and the kernel, timed in the same block, slows with the ops, so a
// block's mean op time over its kernel time keeps the op's cost and drops
// most of the host's. Threads started while this is alive inherit its
// single-CPU mask, so construct engines with a pool first.
constexpr double kBlockSeconds = 0.1;

class CpuBlocks {
 public:
  CpuBlocks() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
    MoveToNextCpu();
  }
  ~CpuBlocks() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuBlocks(const CpuBlocks&) = delete;
  CpuBlocks& operator=(const CpuBlocks&) = delete;

  // Call after each timed op with its wall ms.
  void Add(double ms) {
    op_ms_.push_back(ms);
    block_ms_ += ms;
    ++block_ops_;
    if (SecondsSince(block_start_) < kBlockSeconds) return;
    ratios_.push_back(block_ms_ / block_ops_ / ReferenceKernelMs());
    MoveToNextCpu();
  }

  const std::vector<double>& op_ms() const { return op_ms_; }
  // One per finished block: mean op ms / reference kernel ms.
  const std::vector<double>& ratios() const { return ratios_; }

 private:
  void MoveToNextCpu() {
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next_++ % cpus_.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    block_ms_ = 0;
    block_ops_ = 0;
    block_start_ = Clock::now();
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  std::vector<double> op_ms_, ratios_;
  double block_ms_ = 0;
  size_t block_ops_ = 0;
  Clock::time_point block_start_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

// --name=value flags; every flag a mode reads must be present.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad flag '" + arg + "'");
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) Die("missing --" + name);
    return it->second;
  }
  double Num(const std::string& name) const {
    return std::strtod(Str(name).c_str(), nullptr);
  }
  size_t Count(const std::string& name) const {
    return static_cast<size_t>(std::strtoull(Str(name).c_str(), nullptr, 10));
  }

 private:
  std::map<std::string, std::string> values_;
};

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

JsonArray AnswersJson(const AnswerSet& answers) {
  JsonArray out;
  for (const AnswerTuple& tuple : answers) out.push_back(JsonValue(ToString(tuple)));
  return out;
}

JsonArray NumbersJson(const std::vector<double>& values) {
  JsonArray out;
  out.reserve(values.size());
  for (double v : values) out.push_back(JsonValue(v));
  return out;
}

JsonValue Int(size_t v) { return JsonValue(static_cast<int64_t>(v)); }

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and
// written out when the run ends. Single-threaded (the traced caller).

struct SpanRecord {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t parent = -1;  // index into the log, -1 for a root
  int64_t request = 0;
  JsonObject attrs;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  size_t Open(const std::string& name, int64_t request) {
    SpanRecord span;
    span.name = name;
    span.start_us = MicrosSince(origin_);
    span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    span.request = request;
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_us = MicrosSince(origin_);
    stack_.pop_back();
  }
  JsonObject& Attrs(size_t index) { return spans_[index].attrs; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) Die("cannot write " + path);
    for (const SpanRecord& span : spans_) {
      JsonObject o;
      o["name"] = JsonValue(span.name);
      o["start_us"] = JsonValue(span.start_us);
      o["end_us"] = JsonValue(span.end_us);
      o["parent"] = JsonValue(span.parent);
      o["request"] = JsonValue(span.request);
      o["attrs"] = JsonValue(span.attrs);
      out << JsonValue(std::move(o)).Serialize() << "\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> stack_;
};

// RAII span; a null log makes it free.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int64_t request)
      : log_(log), index_(log ? log->Open(name, request) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  JsonObject* attrs() { return log_ ? &log_->Attrs(index_) : nullptr; }

 private:
  SpanLog* log_;
  size_t index_;
};

// ---------------------------------------------------------------------------
// engine mode

// Timed set-ups before the first round and in each round; setup_s is the
// median of all of them, so one slow boot of the allocator or the pool
// does not move it.
constexpr size_t kSetupsPerRound = 10;
// The measured seconds are split into this many rounds, each preceded by
// kSetupsPerRound timed set-ups (see EngineMode).
constexpr size_t kRounds = 10;
// Untimed ops before the first timed one: lazy state, allocator pools and
// the CPU's clock settle first.
constexpr double kWarmupSeconds = 1.0;

struct Inputs {
  DependencySet sigma;
  Instance target;
  UnionQuery query;
  ConjunctiveQuery cq;
};

struct InputTexts {
  std::string sigma, target, query, cq;
};

// Registry counters read around each traced op. The hom/pool ones need
// obs collection on, which the traced engine's WithStats() turns on.
const char* const kCounters[] = {
    "hom.searches",         "hom.candidates_tried",
    "hom.backtracks",       "stats.search.tuples_scanned",
    "stats.search.tuples_matched", "stats.instance.index_probes",
    "stats.instance.full_scans",   "pool.steals",
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  for (const char* name : kCounters) {
    out[name] = obs::MetricsRegistry::Global().GetCounter(name)->Get();
  }
  return out;
}

JsonObject StatsJson(const InverseChaseResult& result) {
  const InverseChaseStats& s = result.stats;
  JsonObject o;
  o["hom_enum_ms"] = JsonValue(s.seconds_hom_enum * 1e3);
  o["cover_enum_ms"] = JsonValue(s.seconds_cover_enum * 1e3);
  o["subsumption_ms"] = JsonValue(s.seconds_subsumption * 1e3);
  o["reverse_chase_ms"] = JsonValue(s.seconds_reverse_chase * 1e3);
  o["forward_chase_ms"] = JsonValue(s.seconds_forward_chase * 1e3);
  o["g_hom_ms"] = JsonValue(s.seconds_g_hom_search * 1e3);
  o["verify_ms"] = JsonValue(s.seconds_verify * 1e3);
  o["merge_ms"] = JsonValue(s.seconds_merge * 1e3);
  o["total_ms"] = JsonValue(s.seconds_total * 1e3);
  o["homs"] = Int(s.num_homs);
  o["covers"] = Int(s.num_covers);
  o["covers_passing_sub"] = Int(s.num_covers_passing_sub);
  o["candidates"] = Int(s.num_g_homs);
  o["candidates_rejected"] = Int(s.num_candidates_rejected);
  o["recoveries_before_dedup"] = Int(s.num_recoveries_before_dedup);
  o["recoveries"] = Int(result.recoveries.size());
  return o;
}

class EngineWorkload {
 public:
  EngineWorkload(std::string name, const Inputs& inputs)
      : name_(std::move(name)), in_(inputs) {}

  // One op; returns its output as canonical JSON, or an "error" object.
  // With a span log the exact-CERT step runs as its two public calls
  // (Engine::Recover, then CertainAnswersOver over the recoveries) so
  // the inverse-chase phases become visible.
  std::string Run(const Engine& engine, SpanLog* log, int64_t request) const {
    JsonObject out;
    if (name_ == "recover-blowup") {
      Scope span(log, "engine.recover", request);
      Result<InverseChaseResult> r = engine.Recover(in_.target);
      if (!r.ok()) return Error(r.status());
      if (span.attrs() != nullptr) *span.attrs() = StatsJson(*r);
      out["recoveries"] = Int(r->recoveries.size());
      out["covers"] = Int(r->stats.num_covers);
      out["candidates"] = Int(r->stats.num_g_homs);
    } else if (name_ == "certain-triangle") {
      Result<AnswerSet> cert = Exact(engine, log, request);
      if (!cert.ok()) return Error(cert.status());
      out["exact"] = JsonValue(AnswersJson(*cert));
    } else if (name_ == "employee-large") {
      Result<TractabilityReport> report = [&] {
        Scope span(log, "tractable.analyze", request);
        return engine.Analyze(in_.target);
      }();
      if (!report.ok()) return Error(report.status());
      Result<AnswerSet> cert = Exact(engine, log, request);
      if (!cert.ok()) return Error(cert.status());
      AnswerSet sound_ucq = [&] {
        Scope span(log, "tractable.sound_ucq", request);
        return engine.SoundUcqAnswers(in_.query, in_.target);
      }();
      Result<SubUniversalResult> sub = [&] {
        Scope span(log, "subuniversal.build", request);
        Result<SubUniversalResult> built = engine.SubUniversal(in_.target);
        if (built.ok() && span.attrs() != nullptr) {
          (*span.attrs())["atoms"] = Int(built->instance.size());
        }
        return built;
      }();
      if (!sub.ok()) return Error(sub.status());
      Result<AnswerSet> sound_cq = [&] {
        Scope span(log, "subuniversal.sound_cq", request);
        return engine.SoundCqAnswers(in_.cq, in_.target);
      }();
      if (!sound_cq.ok()) return Error(sound_cq.status());
      JsonObject analyze;
      analyze["all_coverable"] = JsonValue(report->all_coverable);
      analyze["unique_cover"] = JsonValue(report->unique_cover);
      analyze["quasi_guarded_safe"] = JsonValue(report->quasi_guarded_safe);
      out["analyze"] = JsonValue(std::move(analyze));
      out["exact"] = JsonValue(AnswersJson(*cert));
      out["sound_ucq"] = JsonValue(AnswersJson(sound_ucq));
      out["sound_cq"] = JsonValue(AnswersJson(*sound_cq));
      out["subuniversal_atoms"] = Int(sub->instance.size());
    } else {
      Die("unknown engine workload " + name_);
    }
    return JsonValue(std::move(out)).Serialize();
  }

 private:
  static std::string Error(const Status& status) {
    JsonObject o;
    o["error"] = JsonValue(status.ToString());
    return JsonValue(std::move(o)).Serialize();
  }

  Result<AnswerSet> Exact(const Engine& engine, SpanLog* log,
                          int64_t request) const {
    if (log == nullptr) return engine.CertainAnswers(in_.query, in_.target);
    Scope exact(log, "certain.exact", request);
    Result<InverseChaseResult> r = [&] {
      Scope span(log, "engine.recover", request);
      Result<InverseChaseResult> inner = engine.Recover(in_.target);
      if (inner.ok() && span.attrs() != nullptr) {
        *span.attrs() = StatsJson(*inner);
      }
      return inner;
    }();
    if (!r.ok()) return r.status();
    if (!r->valid_for_recovery()) {
      return Status::FailedPrecondition("target not valid for recovery");
    }
    Scope eval(log, "certain.eval", request);
    return CertainAnswersOver(in_.query, r->recoveries,
                              engine.options().algorithms.layout);
  }

  std::string name_;
  const Inputs& in_;
};

Inputs ParseInputs(const InputTexts& texts) {
  Inputs in;
  in.sigma = Must(ParseTgdSet(texts.sigma), "sigma");
  in.target = Must(ParseInstance(texts.target), "target");
  if (!texts.query.empty()) {
    in.query = Must(ParseUnionQuery(texts.query), "query");
  }
  if (!texts.cq.empty()) in.cq = Must(ParseQuery(texts.cq), "cq");
  return in;
}

// Closed loop with one caller owning an Engine built from `options`,
// until `seconds` pass (at least one op), in CPU blocks. Outputs are
// tallied into *outputs.
void ClosedLoop(const EngineWorkload& workload, const Inputs& in,
                const EngineOptions& options, double seconds,
                std::map<std::string, size_t>* outputs,
                std::vector<double>* op_ms, std::vector<double>* ratios) {
  const Engine engine(in.sigma, options);
  CpuBlocks blocks;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds || blocks.op_ms().empty()) {
    Clock::time_point t0 = Clock::now();
    ++(*outputs)[workload.Run(engine, nullptr, 0)];
    blocks.Add(SecondsSince(t0) * 1e3);
  }
  op_ms->insert(op_ms->end(), blocks.op_ms().begin(), blocks.op_ms().end());
  ratios->insert(ratios->end(), blocks.ratios().begin(),
                 blocks.ratios().end());
}

JsonValue OutputsJson(const std::map<std::string, size_t>& outputs) {
  JsonArray out;
  for (const auto& [text, count] : outputs) {
    JsonObject o;
    o["output"] = Must(ParseJson(text), "output json");
    o["count"] = Int(count);
    out.push_back(JsonValue(std::move(o)));
  }
  return JsonValue(std::move(out));
}

int EngineMode(const Flags& flags) {
  const std::string dir = flags.Str("inputs");
  const std::string workload_name = flags.Str("workload");
  const size_t threads = std::max<size_t>(1, flags.Count("threads"));
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Count("trace") != 0;

  InputTexts texts;
  texts.sigma = ReadFile(dir + "/sigma.txt");
  texts.target = ReadFile(dir + "/target.txt");
  if (FileExists(dir + "/query.txt")) texts.query = ReadFile(dir + "/query.txt");
  if (FileExists(dir + "/cq.txt")) texts.cq = ReadFile(dir + "/cq.txt");

  // One set-up: parse, Engine construction (pool spin-up), columnar
  // warm-up of J. Timed kSetupsPerRound times up front and again in every
  // round, so setup_s samples the same stretch of the run as the ops.
  const EngineOptions options = EngineOptions().WithThreads(threads);
  std::vector<double> setup_s, parse_ms, warm_ms;
  auto set_up = [&] {
    Clock::time_point t0 = Clock::now();
    auto parsed = std::make_unique<Inputs>(ParseInputs(texts));
    const double parse_s = SecondsSince(t0);
    auto built = std::make_unique<Engine>(parsed->sigma, options);
    Clock::time_point w0 = Clock::now();
    parsed->target.WarmColumnar();
    warm_ms.push_back(SecondsSince(w0) * 1e3);
    parse_ms.push_back(parse_s * 1e3);
    setup_s.push_back(SecondsSince(t0));
    return std::make_pair(std::move(parsed), std::move(built));
  };
  auto set_ups = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) set_up();
  };
  auto [in, engine] = set_up();
  set_ups(kSetupsPerRound - 1);
  EngineWorkload workload(workload_name, *in);

  JsonObject out;
  // Sanity row (recover-blowup): the paper's small instance.
  if (FileExists(dir + "/sanity_target.txt")) {
    Instance small =
        Must(ParseInstance(ReadFile(dir + "/sanity_target.txt")), "sanity");
    Result<InverseChaseResult> r = engine->Recover(small);
    out["sanity_recoveries"] =
        r.ok() ? Int(r->recoveries.size()) : JsonValue(int64_t{-1});
  }

  std::map<std::string, size_t> outputs;
  // Warm-up: let lazy state and allocator pools settle; not timed.
  {
    Clock::time_point w = Clock::now();
    while (SecondsSince(w) < kWarmupSeconds) {
      ++outputs[workload.Run(*engine, nullptr, 0)];
    }
  }
  engine.reset();

  if (!trace) {
    // Set-ups and ops alternate in rounds, so both spread their samples
    // over the whole run rather than one window of the host's load.
    std::vector<double> op_ms, ratios;
    for (size_t r = 0; r < kRounds; ++r) {
      set_ups(kSetupsPerRound);
      ClosedLoop(workload, *in, options, seconds / kRounds, &outputs, &op_ms,
                 &ratios);
    }
    out["op_ms"] = JsonValue(NumbersJson(op_ms));
    out["ref_ratios"] = JsonValue(NumbersJson(ratios));
  } else {
    // Untraced baseline first: obs collection, once on, stays on.
    std::vector<double> untraced_ms, ratios;
    ClosedLoop(workload, *in, options, seconds * 0.4, &outputs, &untraced_ms,
               &ratios);
    out["untraced_ms"] = JsonValue(NumbersJson(untraced_ms));
    out["ref_ratios"] = JsonValue(NumbersJson(ratios));
    Engine traced(in->sigma, EngineOptions(options).WithStats());
    const Clock::time_point origin = Clock::now();
    SpanLog log(origin);
    int64_t request = 0;
    CpuBlocks blocks;
    while (SecondsSince(origin) < seconds * 0.6 || blocks.op_ms().empty()) {
      std::map<std::string, uint64_t> before = ReadCounters();
      ++request;
      Clock::time_point t0 = Clock::now();
      size_t op = log.Open("op", request);
      ++outputs[workload.Run(traced, &log, request)];
      log.Close(op);
      const double ms = SecondsSince(t0) * 1e3;
      JsonObject counters;
      for (const auto& [name, value] : ReadCounters()) {
        counters[name] = JsonValue(static_cast<int64_t>(value - before[name]));
      }
      log.Attrs(op)["counters"] = JsonValue(std::move(counters));
      obs::Tracer::Global().Clear();  // the engine's own spans: unbounded
      blocks.Add(ms);
    }
    out["traced_ms"] = JsonValue(NumbersJson(blocks.op_ms()));
    log.Write(flags.Str("spans"));
  }
  out["setup_s"] = JsonValue(NumbersJson(setup_s));
  out["parse_ms"] = JsonValue(NumbersJson(parse_ms));
  out["warm_columnar_ms"] = JsonValue(NumbersJson(warm_ms));
  out["outputs"] = OutputsJson(outputs);
  std::printf("%s\n", JsonValue(std::move(out)).Serialize().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// loadgen mode

// The decimal request index carried in a response's "id" field, or -1.
int64_t ResponseIndex(const std::string& line) {
  static const std::string kKey = "\"id\":\"";
  size_t at = line.find(kKey);
  if (at == std::string::npos) return -1;
  at += kKey.size();
  int64_t value = 0;
  bool any = false;
  for (; at < line.size() && line[at] >= '0' && line[at] <= '9'; ++at) {
    value = value * 10 + (line[at] - '0');
    any = true;
  }
  return any && at < line.size() && line[at] == '"' ? value : -1;
}

struct Scheduled {
  int64_t due_us = 0;
  size_t conn = 0;
  std::string line;
  // Written by the sender (sent_us) and one reader (recv_us, response);
  // read only after every thread is joined.
  int64_t sent_us = -1;
  int64_t recv_us = -1;
  std::string response;
};

// How long the client waits for the last answers after the last send.
constexpr double kDrainSeconds = 5.0;

int LoadgenMode(const Flags& flags) {
  const int port = static_cast<int>(flags.Count("port"));
  const size_t conns = std::max<size_t>(1, flags.Count("conns"));

  // Schedule: one "due_us <TAB> connection <TAB> request line" per line;
  // request ids are the line's index.
  std::vector<Scheduled> schedule;
  {
    std::istringstream in(ReadFile(flags.Str("schedule")));
    std::string row;
    while (std::getline(in, row)) {
      if (row.empty()) continue;
      size_t a = row.find('\t');
      size_t b = row.find('\t', a + 1);
      if (a == std::string::npos || b == std::string::npos) Die("bad schedule row");
      Scheduled s;
      s.due_us = std::strtoll(row.substr(0, a).c_str(), nullptr, 10);
      s.conn = std::strtoull(row.substr(a + 1, b - a - 1).c_str(), nullptr, 10) %
               conns;
      s.line = row.substr(b + 1);
      schedule.push_back(std::move(s));
    }
  }

  std::vector<std::unique_ptr<serve::Connection>> connections;
  for (size_t c = 0; c < conns; ++c) {
    connections.push_back(Must(serve::TcpConnect(port), "connect"));
  }
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(20);
  std::atomic<size_t> received{0};
  std::atomic<size_t> unmatched{0};
  std::vector<std::thread> readers;
  for (size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      while (true) {
        Result<std::string> line = connections[c]->ReadLine();
        if (!line.ok()) return;
        int64_t recv = MicrosSince(origin);
        int64_t index = ResponseIndex(*line);
        if (index < 0 || static_cast<size_t>(index) >= schedule.size() ||
            schedule[index].recv_us >= 0) {
          unmatched.fetch_add(1);
          continue;
        }
        schedule[index].recv_us = recv;
        schedule[index].response = std::move(*line);
        received.fetch_add(1);
      }
    });
  }

  size_t send_errors = 0;
  for (Scheduled& s : schedule) {
    std::this_thread::sleep_until(origin + std::chrono::microseconds(s.due_us));
    s.sent_us = MicrosSince(origin);
    if (!connections[s.conn]->WriteLine(s.line).ok()) ++send_errors;
  }
  const Clock::time_point last_sent = Clock::now();
  while (received.load() < schedule.size() &&
         SecondsSince(last_sent) < kDrainSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& conn : connections) conn->Close();
  for (std::thread& t : readers) t.join();

  std::ofstream out(flags.Str("out"));
  if (!out) Die("cannot write results");
  for (const Scheduled& s : schedule) {
    out << s.due_us << '\t' << s.sent_us << '\t' << s.recv_us << '\t'
        << s.response << '\n';
  }
  JsonObject summary;
  summary["scheduled"] = Int(schedule.size());
  summary["received"] = Int(received.load());
  summary["unmatched"] = Int(unmatched.load());
  summary["send_errors"] = Int(send_errors);
  std::printf("%s\n", JsonValue(std::move(summary)).Serialize().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// expect / replay modes. Session files hold one
// "name <TAB> sigma <TAB> target <TAB> query" per line.

struct SessionSpec {
  std::string name, sigma, target, query;
};

std::vector<SessionSpec> ReadSessions(const std::string& path) {
  std::vector<SessionSpec> out;
  std::istringstream in(ReadFile(path));
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    std::vector<std::string> cols;
    size_t start = 0;
    for (size_t tab; (tab = row.find('\t', start)) != std::string::npos;
         start = tab + 1) {
      cols.push_back(row.substr(start, tab - start));
    }
    cols.push_back(row.substr(start));
    if (cols.size() != 4) Die("bad session row");
    out.push_back({cols[0], cols[1], cols[2], cols[3]});
  }
  return out;
}

// Each session's exact answers and recoveries, the recoveries serialized
// as dxrecd serializes them (SerializeInstance), engine sequential as in
// dxrecd's per-request runs.
int ExpectMode(const Flags& flags) {
  JsonObject out;
  for (const SessionSpec& spec : ReadSessions(flags.Str("sessions"))) {
    Engine engine(Must(ParseTgdSet(spec.sigma), "sigma"),
                  EngineOptions().WithThreads(1));
    Instance target = Must(ParseInstance(spec.target), "target");
    JsonObject o;
    o["target_atoms"] = Int(target.size());
    JsonArray recoveries;
    for (const Instance& instance :
         Must(engine.Recover(target), "recover").recoveries) {
      recoveries.push_back(JsonValue(SerializeInstance(instance)));
    }
    o["recoveries"] = JsonValue(std::move(recoveries));
    if (!spec.query.empty()) {
      UnionQuery query = Must(ParseUnionQuery(spec.query), "query");
      o["answers"] = JsonValue(
          AnswersJson(Must(engine.CertainAnswers(query, target), "certain")));
    }
    out[spec.name] = JsonValue(std::move(o));
  }
  std::printf("%s\n", JsonValue(std::move(out)).Serialize().c_str());
  return 0;
}

double MedianMicros(size_t reps, const std::function<void(size_t)>& body) {
  std::vector<double> us;
  for (size_t i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    body(i);
    us.push_back(SecondsSince(t0) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// Repetitions of each replayed layer; each reports its median.
constexpr size_t kReplayReps = 200;

// A projection `certain` request on the first session of --sessions, and
// what dxrecd holds and builds to answer it.
struct ReplayedRequest {
  SessionSpec spec;
  std::string line;
  DependencySet sigma;
  Instance target;
  UnionQuery query;
  EngineOptions options;
};

ReplayedRequest LoadReplayedRequest(const Flags& flags) {
  const SessionSpec spec = ReadSessions(flags.Str("sessions")).at(0);
  JsonObject request;
  request["id"] = JsonValue("1");
  request["op"] = JsonValue("certain");
  request["session"] = JsonValue(spec.name);
  request["query"] = JsonValue(spec.query);
  ReplayedRequest r;
  r.spec = spec;
  r.line = JsonValue(std::move(request)).Serialize();
  r.sigma = Must(ParseTgdSet(spec.sigma), "sigma");
  r.target = Must(ParseInstance(spec.target), "target");
  r.target.WarmColumnar();
  r.query = Must(ParseUnionQuery(spec.query), "query");
  // The server's per-request engine options (serve/server.cc): sequential
  // engine, default 5 s deadline, drain cancel token, degradation on.
  r.options.parallel.threads = 1;
  r.options.resilience.deadline_seconds = 5.0;
  r.options.resilience.cancel = std::make_shared<resilience::CancelToken>();
  r.options.resilience.degrade = true;
  return r;
}

// request mode: dxrecd's whole path for one `certain` request, in process
// and without the wire (ParseRequest, query parse, the per-request Engine,
// CertainAnswersDegraded, OkResponse), in a closed loop for --seconds,
// in CPU blocks.
// Prints per-request ms and each distinct response with its count.
int RequestMode(const Flags& flags) {
  const ReplayedRequest r = LoadReplayedRequest(flags);
  const double seconds = flags.Num("seconds");
  std::map<std::string, size_t> responses;
  CpuBlocks blocks;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds || blocks.op_ms().empty()) {
    Clock::time_point t0 = Clock::now();
    std::string id;
    const serve::Request request =
        Must(serve::ParseRequest(r.line, &id), "request");
    const UnionQuery query = Must(ParseUnionQuery(request.query), "query");
    Engine engine(r.sigma, r.options);
    resilience::Degraded<AnswerSet> answers =
        Must(engine.CertainAnswersDegraded(query, r.target), "certain");
    JsonObject fields;
    fields["rung"] = JsonValue(answers.info.rung);
    fields["completeness"] = JsonValue(std::string(
        resilience::CompletenessName(answers.info.completeness)));
    fields["answers"] = JsonValue(AnswersJson(answers.value));
    std::string response = serve::OkResponse(id, std::move(fields));
    blocks.Add(SecondsSince(t0) * 1e3);
    ++responses[response];
  }
  JsonArray outputs;
  for (const auto& [response, count] : responses) {
    JsonObject o;
    o["response"] = Must(ParseJson(response), "response json");
    o["count"] = Int(count);
    outputs.push_back(JsonValue(std::move(o)));
  }
  JsonObject out;
  out["op_ms"] = JsonValue(NumbersJson(blocks.op_ms()));
  out["ref_ratios"] = JsonValue(NumbersJson(blocks.ratios()));
  out["outputs"] = JsonValue(std::move(outputs));
  std::printf("%s\n", JsonValue(std::move(out)).Serialize().c_str());
  return 0;
}

int ReplayMode(const Flags& flags) {
  const size_t reps = kReplayReps;
  const ReplayedRequest r = LoadReplayedRequest(flags);
  const SessionSpec& spec = r.spec;
  const std::string& line = r.line;
  const DependencySet& sigma = r.sigma;
  const Instance& target = r.target;
  const UnionQuery& query = r.query;
  const EngineOptions& options = r.options;

  JsonObject out;
  size_t sink = 0;
  out["parse_request_us"] = JsonValue(MedianMicros(reps, [&](size_t) {
    std::string id;
    sink += Must(serve::ParseRequest(line, &id), "request").query.size();
  }));
  AnswerSet answers;
  out["engine_certain_us"] = JsonValue(MedianMicros(reps, [&](size_t) {
    Engine engine(sigma, options);
    answers = Must(engine.CertainAnswersDegraded(query, target), "certain")
                  .value;
  }));
  out["serialize_us"] = JsonValue(MedianMicros(reps, [&](size_t) {
    JsonObject fields;
    fields["rung"] = JsonValue("exact");
    fields["completeness"] = JsonValue("exact");
    fields["answers"] = JsonValue(AnswersJson(answers));
    sink += serve::OkResponse("1", std::move(fields)).size();
  }));
  serve::SessionRegistry registry;
  out["session_open_us"] = JsonValue(MedianMicros(reps, [&](size_t i) {
    std::string name = "replay" + std::to_string(i);
    Must(registry.Open(name, spec.sigma, spec.target), "open");
    Status closed = registry.Close(name);
    if (!closed.ok()) Die("close: " + closed.ToString());
  }));
  // The inverse chase each projection `certain` request recomputes: mean
  // phase times and counts of Engine::Recover under the same options.
  std::map<std::string, double> sums;
  for (size_t i = 0; i < reps; ++i) {
    Engine engine(sigma, options);
    for (const auto& [key, value] :
         StatsJson(Must(engine.Recover(target), "recover"))) {
      sums[key] += value.AsDouble();
    }
  }
  JsonObject stats;
  for (const auto& [key, sum] : sums) {
    stats[key] = JsonValue(sum / static_cast<double>(reps));
  }
  out["recover_stats"] = JsonValue(std::move(stats));
  out["answers"] = JsonValue(AnswersJson(answers));
  out["sink"] = Int(sink);
  std::printf("%s\n", JsonValue(std::move(out)).Serialize().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: bench_runner engine|loadgen|expect|replay|request --flag=value...");
  const std::string mode = argv[1];
  const Flags flags(argc, argv);
  if (mode == "engine") return EngineMode(flags);
  if (mode == "loadgen") return LoadgenMode(flags);
  if (mode == "expect") return ExpectMode(flags);
  if (mode == "replay") return ReplayMode(flags);
  if (mode == "request") return RequestMode(flags);
  Die("unknown mode " + mode);
}
