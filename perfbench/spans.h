// Host-time spans for the benchmark's traced run, recorded from the
// benchmark's own code around its calls into the library.
//
// Spans nest run -> setup | iteration -> gc_cycle -> phase. They are kept in
// memory and written out once the run ends, so recording costs one clock read
// and one vector append per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gc/parallel_lisp2.h"
#include "runtime/jvm.h"

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  using Id = std::uint32_t;  // 1-based; 0 = no parent

  struct Span {
    const char* name;
    Id parent;
    double start_s;
    double end_s;
    double dur() const { return end_s - start_s; }
  };

  // Opens a span whose parent is the innermost span still open.
  Id Open(const char* name) {
    const Id parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{name, parent, Now(), 0});
    stack_.push_back(static_cast<Id>(spans_.size()));
    return stack_.back();
  }
  void Close(Id id) {
    spans_[id - 1].end_s = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(Id id) const { return spans_[id - 1]; }

  // Writes the spans as a JSON array of {id, parent, name, start_s, dur_s}.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"dur_s\": %.9f}%s\n",
                   i + 1, s.parent, s.name, s.start_s, s.dur(),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Id> stack_;
};

// RAII span that does nothing when `log` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

// Collector the traced run installs in place of the tenant's own: it runs the
// real stop-the-world collector one phase at a time through the public
// PhaseEngine steps (exactly the loop ParallelLisp2::Collect runs) and opens
// a span around the cycle and each phase. The wrapped collector keeps its own
// GcLog; Release() hands it back so the run can be harvested as usual.
class TracingCollector final : public svagc::rt::CollectorIface {
 public:
  TracingCollector(std::unique_ptr<svagc::gc::ParallelLisp2> inner,
                   SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const char* name() const override { return inner_->name(); }

  void Collect(svagc::rt::Jvm& jvm) override {
    const ScopedSpan cycle(&spans_, "gc_cycle");
    inner_->BeginCycle(jvm);
    while (inner_->cycle_active()) {
      const ScopedSpan phase(&spans_,
                             svagc::gc::GcPhaseName(inner_->next_phase()));
      inner_->StepPhase();
    }
  }

  std::unique_ptr<svagc::gc::ParallelLisp2> Release() {
    return std::move(inner_);
  }

 private:
  std::unique_ptr<svagc::gc::ParallelLisp2> inner_;
  SpanLog& spans_;
};

}  // namespace perfbench
