// perfbench: the repository benchmark program. Runs one named workload with a
// seed, checks the result, and prints every metric by name and unit, the
// last line being one JSON object. README.md explains the workloads, the
// metrics and which clock each one uses.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 repeats the workload on the seed for about --seconds and prints
// the end-to-end metrics (modeled ones from the first run, host ones as
// medians over the runs; on lru_concurrent each run's host times are scaled
// by a machine-speed probe timed right after it, see MachineProbe). --trace 1 makes one untraced and one traced run and
// prints the per-layer metrics of the traced one, spans written to
// <trace-dir>. Every run is checked: heap verifier, reachable-graph digest
// equal to the memmove collector's on the same seed, and modeled numbers
// identical across runs of the seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/svagc_collector.h"
#include "fleet/fleet_runner.h"
#include "gc/concurrent_svagc.h"
#include "runtime/heap_verifier.h"
#include "simkernel/phys_mem.h"
#include "simkernel/swapva.h"
#include "support/rng.h"
#include "telemetry/trace_recorder.h"
#include "verify/graph_digest.h"
#include "workloads/runner.h"

#include "spans.h"

namespace perfbench {
namespace {

using namespace svagc;
using workloads::CollectorKind;
using workloads::RunConfig;
using workloads::RunResult;
using Clock = std::chrono::steady_clock;

struct WorkloadSpec {
  const char* name;
  const char* program;  // registry name of the workload
  CollectorKind collector;
  unsigned gc_threads;
  unsigned iterations;  // per tenant; sized for >= 1000 pause samples
  unsigned tenants;     // 1 = single JVM, more = fleet under the arbiter
  double slo_budget_ms;  // pause SLO; the seed's miss ratio sits inside (0, 1)
  bool probe_scaled;     // host times scaled by the MachineProbe
};

// All at 1.2x minimum heap, Xeon Gold 6130 profile, radix page tables (the
// RunConfig defaults). At most 4 GC worker threads in all: every collector
// owns one host thread per gc_thread.
//
// Only lru_concurrent's host times are probe-scaled. Its loop time follows
// the probe (correlation 0.74 over 95 runs) and swings by up to 1.5x with the
// neighbours' load; the other loops follow it weakly (sparse_swap 0.50,
// bisort_copy 0.21) and are steadier than the probe itself, so scaling them
// would only add the probe's noise.
constexpr WorkloadSpec kWorkloads[] = {
    {"sparse_swap", "sparse.large", CollectorKind::kSvagc, 4, 2200, 1, 0.145,
     false},
    {"bisort_copy", "bisort", CollectorKind::kSvagc, 4, 1100, 1, 2.9, false},
    {"lru_concurrent", "lrucache", CollectorKind::kConcurrentSvagc, 4, 2000, 1,
     0.0375, true},
    // Fleet iterations are drawn per seed; see FleetRequests.
    {"lru_fleet", "lrucache", CollectorKind::kSvagc, 1, 0, 4, 0.60, false},
};

// Fleet load: open-loop arrivals per tenant at this mean gap over a fixed
// modeled window, at most this many tenants admitted per GC epoch, and the
// SLO budget doubling as the arbiter's pause budget (as fig20 runs it).
constexpr double kFleetArrivalGapMs = 0.5;
constexpr double kFleetWindowMs = 950;
constexpr unsigned kFleetAdmission = 2;

// Modeled end-to-end metrics; the percentiles are taken at report time.
constexpr std::string_view kModeledEndToEnd[] = {"gc_ms", "app_ops_per_s",
                                                 "slo_miss_ratio"};

constexpr unsigned kMinRuns = 2;        // runs compared for determinism
constexpr unsigned kMinSetups = 11;     // set-ups timed for setup_s
constexpr double kMinBeyond = 10;       // samples required past a percentile

// The machine-speed probe: pointer chases through one cache-sized and one
// memory-sized ring, and the probe time host timings are scaled to.
constexpr std::size_t kProbeCacheBytes = 4ULL << 20;
constexpr std::size_t kProbeMemoryBytes = 64ULL << 20;
constexpr unsigned kProbeCacheSteps = 1000000;
constexpr unsigned kProbeMemorySteps = 400000;
constexpr double kProbeReferenceS = 0.090;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Ms(double cycles) {
  return cycles / (sim::ProfileXeonGold6130().ghz * 1e6);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Interpolated percentile, the rule LatencyRecorder::Percentile uses.
double Percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double MaxRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Times a fixed amount of memory-latency-bound work that does not depend on
// the program. The simulator's host time is dominated by cache and memory
// latency, and on a shared host that latency moves with the neighbours' load
// over tens of seconds, by as much as 1.5x. A host timing taken next to a
// probe and multiplied by kProbeReferenceS / probe time reads as if the
// machine ran at the reference speed; a change to the program still moves it
// in full, because the probe runs none of the program's code.
class MachineProbe {
 public:
  MachineProbe()
      : cache_ring_(Ring(kProbeCacheBytes)),
        memory_ring_(Ring(kProbeMemoryBytes)) {}

  // Seconds for one pass over both chases.
  double Time() {
    const Clock::time_point start = Clock::now();
    const std::uint64_t end = Chase(cache_ring_, kProbeCacheSteps) +
                              Chase(memory_ring_, kProbeMemorySteps);
    const double seconds = Seconds(start);
    sink_ += end;  // keeps the chases from being optimised away
    return seconds;
  }

 private:
  // One cycle through every slot in a seeded random order, so each step is a
  // dependent load the prefetchers cannot predict.
  static std::vector<std::uint64_t> Ring(std::size_t bytes) {
    const std::size_t n = bytes / sizeof(std::uint64_t);
    std::vector<std::uint64_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    Rng rng(1);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    std::vector<std::uint64_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }

  static std::uint64_t Chase(const std::vector<std::uint64_t>& ring,
                             unsigned steps) {
    std::uint64_t at = 0;
    for (unsigned i = 0; i < steps; ++i) at = ring[at];
    return at;
  }

  std::vector<std::uint64_t> cache_ring_;
  std::vector<std::uint64_t> memory_ring_;
  std::uint64_t sink_ = 0;
};

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

double Counter(const Counters& counters, std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

// One execution of a workload on a seed.
struct Run {
  // Every modeled number this run reports — end-to-end and per-layer. Pure
  // functions of the seed, so runs of one seed must agree exactly.
  std::map<std::string, double> modeled;
  std::vector<double> pauses;  // modeled cycles, sorted
  std::vector<std::uint64_t> digests;  // one per tenant
  std::string error;                   // empty = the run's own checks passed
  std::uint64_t ops = 0;               // iterations, summed over tenants
  double setup_s = 0;
  double loop_s = 0;
  std::map<std::string, double> host_layers;  // traced runs only
};

// Requests each fleet tenant is offered: the arrivals of a seeded Poisson
// process with the fleet's mean gap within the fixed window. RunFleet seeds
// every tenant's workload stream by tenant slot alone, so this and the
// arrival times are what the seed changes in the fleet's input.
unsigned FleetRequests(std::uint64_t seed) {
  Rng rng(seed);
  double t = 0;
  unsigned n = 0;
  while (true) {
    t -= kFleetArrivalGapMs * std::log(1.0 - rng.NextDouble());
    if (t > kFleetWindowMs) return n;
    ++n;
  }
}

unsigned Iterations(const WorkloadSpec& spec, std::uint64_t seed) {
  return spec.tenants > 1 ? FleetRequests(seed) : spec.iterations;
}

RunConfig MakeRunConfig(const WorkloadSpec& spec, CollectorKind kind,
                        std::uint64_t seed) {
  RunConfig config;
  config.workload = spec.program;
  config.collector = kind;
  config.gc_threads = spec.gc_threads;
  config.iterations = Iterations(spec, seed);
  return config;
}

fleet::FleetConfig MakeFleetConfig(const WorkloadSpec& spec,
                                   CollectorKind kind, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.run = MakeRunConfig(spec, kind, seed);
  config.tenants = spec.tenants;
  const double budget_cycles =
      spec.slo_budget_ms * sim::ProfileXeonGold6130().ghz * 1e6;
  config.arbiter =
      fleet::ArbiterBatchAdmission(kFleetAdmission, budget_cycles);
  config.arrival_interval_ms = kFleetArrivalGapMs;
  config.arrival_seed = seed;
  config.slo_budget_ms = spec.slo_budget_ms;
  return config;
}

std::uint64_t HeapBytes(const RunConfig& config) {
  return static_cast<std::uint64_t>(
      static_cast<double>(
          workloads::MakeWorkload(config.workload)->info().min_heap_bytes) *
      config.heap_factor);
}

// SATB enqueues reset at every BeginCycle. Sampled at iteration boundaries, a
// cycle counts with its last sample before the next cycle starts.
class SatbTally {
 public:
  void Sample(const gc::ConcurrentSvagc& collector) {
    const std::uint64_t started =
        collector.log().collections + (collector.cycle_active() ? 1 : 0);
    if (started != started_) {
      closed_ += current_;
      started_ = started;
    }
    current_ = collector.satb_enqueued();
  }
  std::uint64_t total() const { return closed_ + current_; }

 private:
  std::uint64_t started_ = 0;
  std::uint64_t current_ = 0;
  std::uint64_t closed_ = 0;
};

// Per-layer modeled numbers shared by the single-JVM and fleet paths.
void AddLayerCounts(Run& run, const std::vector<RunResult>& tenants) {
  auto& m = run.modeled;
  rt::GcCycleRecord phases;
  double mutator = 0, disturbance = 0, swapped = 0, copied = 0, calls = 0;
  for (const RunResult& r : tenants) {
    mutator += r.mutator_cycles;
    disturbance += r.disturbance_cycles;
    phases.mark += r.phase_sum.mark;
    phases.forward += r.phase_sum.forward;
    phases.adjust += r.phase_sum.adjust;
    phases.compact += r.phase_sum.compact;
    phases.other += r.phase_sum.other;
    swapped += static_cast<double>(r.bytes_swapped);
    copied += static_cast<double>(r.bytes_copied);
    calls += static_cast<double>(r.swap_calls);
  }
  auto gc_sum = [&tenants](std::string_view name) {
    double total = 0;
    for (const RunResult& r : tenants) total += Counter(r.gc_counters, name);
    return total;
  };
  m["mutator.model_ms"] = Ms(mutator);
  m["mutator.disturbance_ms"] = Ms(disturbance);
  m["gc.cycles"] = static_cast<double>(run.pauses.size());
  m["gc.mark_ms"] = Ms(phases.mark);
  m["gc.forward_ms"] = Ms(phases.forward);
  m["gc.adjust_ms"] = Ms(phases.adjust);
  m["gc.compact_ms"] = Ms(phases.compact);
  m["gc.other_ms"] = Ms(phases.other);
  m["gc.objects_moved"] = gc_sum("gc.objects_moved");
  m["gc.compact_regions"] = gc_sum("gc.compact_regions");
  m["gc.compact_dep_edges"] = gc_sum("gc.compact_dep_edges");
  m["gc.concurrent_cycles"] = gc_sum("gc.concurrent_cycles");
  m["core.bytes_swapped"] = swapped;
  m["core.bytes_copied"] = copied;
  m["core.swap_calls"] = calls;
  m["core.pin_refusals"] = gc_sum("gc.pin_refusals");
  m["core.swap_faults_recovered"] = gc_sum("gc.swap_faults_recovered");
  m["core.swap_share"] = Ratio(swapped, swapped + copied);

  // Machine counters are machine-wide: every tenant sees the same machine,
  // and the first tenant is harvested before any heap check runs.
  const Counters& mc = tenants.front().machine_counters;
  const double swapva_calls = Counter(mc, "swapva.calls");
  const double pmd_hits = Counter(mc, "pmd.hits");
  const double tlb_hits = Counter(mc, "tlb.hits");
  const double tlb_misses = Counter(mc, "tlb.misses");
  m["simkernel.swapva.calls"] = swapva_calls;
  m["simkernel.swapva.pages_per_call"] =
      Ratio(Counter(mc, "swapva.pages_swapped"), swapva_calls);
  m["simkernel.pmd.hit_ratio"] =
      Ratio(pmd_hits, pmd_hits + Counter(mc, "pmd.misses"));
  m["simkernel.tlb.hit_ratio"] = Ratio(tlb_hits, tlb_hits + tlb_misses);
  m["simkernel.tlb.misses"] = tlb_misses;
  m["simkernel.translation.walks"] = Counter(mc, "kernel.translation.walks");
  m["simkernel.ipi.sent"] = Counter(mc, "ipi.sent");
  m["simkernel.ipi.broadcasts"] = Counter(mc, "ipi.broadcasts");

  // Layers only some workloads run; their paths overwrite these.
  for (const char* key :
       {"fleet.epochs", "fleet.epoch_broadcasts", "fleet.broadcast_fallbacks",
        "fleet.solo_epochs", "fleet.max_epoch_size", "fleet.arbiter_ms",
        "fleet.wait_max_ms", "fleet.wait_mean_ms", "fleet.emergency_gcs",
        "concurrent.stw_windows", "concurrent.satb_enqueued"}) {
    m[key] = 0;
  }
}

// The end-to-end modeled metrics.
void AddModeledEndToEnd(Run& run, const std::vector<RunResult>& tenants,
                        double slo_misses) {
  double gc = 0, ops = 0;
  for (const RunResult& r : tenants) {
    gc += r.gc_total_cycles;
    ops += r.throughput_ops;
  }
  run.modeled["gc_ms"] = Ms(gc);
  run.modeled["app_ops_per_s"] = ops;
  run.modeled["slo_miss_ratio"] =
      Ratio(slo_misses, static_cast<double>(run.pauses.size()));
}

// --- single JVM ------------------------------------------------------------

// One JVM on its own machine, built as RunWorkload builds it. The seed picks
// the tenant slot, i.e. the workload's RNG stream. Setup has not run.
struct SingleJvm {
  SingleJvm(const RunConfig& config, std::uint64_t seed)
      : machine(config.machine_cores, sim::ProfileXeonGold6130(),
                config.translation_backend),
        kernel(machine),
        phys(HeapBytes(config) + (8ULL << 20)),
        bundle(workloads::MakeTenant(
            config, machine, phys, kernel, static_cast<unsigned>(seed),
            /*mutator_core=*/0, /*gc_first_core=*/0,
            /*heap_base=*/1ULL << 32)) {}

  sim::Machine machine;
  sim::Kernel kernel;
  sim::PhysicalMemory phys;
  workloads::TenantBundle bundle;  // last: the JVM refers to the others
};

Run RunSingle(const WorkloadSpec& spec, std::uint64_t seed, CollectorKind kind,
              SpanLog* spans) {
  const RunConfig config = MakeRunConfig(spec, kind, seed);
  Run run;
  const ScopedSpan run_span(spans, "run");

  const Clock::time_point setup_start = Clock::now();
  const SpanLog::Id setup_span = spans != nullptr ? spans->Open("setup") : 0;
  SingleJvm env(config, seed);
  sim::Machine& machine = env.machine;
  workloads::TenantBundle& bundle = env.bundle;
  rt::Jvm& jvm = *bundle.jvm;
  TracingCollector* tracing = nullptr;
  if (spans != nullptr && kind == CollectorKind::kSvagc) {
    // Installed before Setup, which already collects. Configured as the
    // tenant factory configures kSvagc; the determinism check against the
    // untraced run proves the two collectors behave identically.
    core::SvagcConfig svagc;
    svagc.move.threshold_pages = config.swap_threshold_pages;
    auto inner = std::make_unique<core::SvagcCollector>(
        machine, config.gc_threads, /*first_core=*/0, svagc);
    inner->set_forwarding_mode(config.forwarding);
    inner->set_compaction_scheduler(config.compaction_scheduler);
    inner->set_plan_optimizer(config.plan_optimizer);
    auto wrapper = std::make_unique<TracingCollector>(std::move(inner), *spans);
    tracing = wrapper.get();
    jvm.set_collector(std::move(wrapper));
  }
  bundle.workload->Setup(jvm);
  if (spans != nullptr) spans->Close(setup_span);
  run.setup_s = Seconds(setup_start);

  auto* concurrent = dynamic_cast<gc::ConcurrentSvagc*>(&jvm.collector());
  SatbTally satb;
  const Clock::time_point loop_start = Clock::now();
  for (unsigned i = 0; i < config.iterations; ++i) {
    const ScopedSpan iteration(spans, "iteration");
    bundle.workload->Iterate(jvm);
    if (concurrent != nullptr) satb.Sample(*concurrent);
  }
  run.loop_s = Seconds(loop_start);
  run.ops = config.iterations;

  if (tracing != nullptr) jvm.set_collector(tracing->Release());
  const RunResult result =
      workloads::HarvestTenant(config, machine, bundle, config.iterations);
  for (const std::uint64_t p : jvm.collector().log().pauses.samples()) {
    run.pauses.push_back(static_cast<double>(p));
  }
  std::sort(run.pauses.begin(), run.pauses.end());
  const double budget =
      spec.slo_budget_ms * sim::ProfileXeonGold6130().ghz * 1e6;
  const double misses = static_cast<double>(
      run.pauses.end() -
      std::upper_bound(run.pauses.begin(), run.pauses.end(), budget));
  AddModeledEndToEnd(run, {result}, misses);
  AddLayerCounts(run, {result});
  run.modeled["concurrent.stw_windows"] =
      concurrent != nullptr
          ? static_cast<double>(concurrent->stw_windows().size())
          : 0;
  run.modeled["concurrent.satb_enqueued"] =
      static_cast<double>(satb.total());

  // Checks, outside the timed sections. A concurrent cycle may still be in
  // flight; the graph digest needs it finished.
  if (auto* engine = dynamic_cast<gc::PhaseEngine*>(&jvm.collector());
      engine != nullptr && engine->cycle_active()) {
    engine->FinishCycle();
  }
  const rt::VerifyResult verify = rt::VerifyHeap(jvm);
  if (!verify.ok) run.error = verify.error;
  run.digests.push_back(verify::DigestReachableGraph(jvm));
  return run;
}

// Machine + the fleet's tenants + Workload::Setup, timed alone: RunFleet
// builds its tenants the same way but does not separate its set-up.
double TimeFleetSetup(const fleet::FleetConfig& config) {
  const Clock::time_point start = Clock::now();
  sim::Machine machine(config.run.machine_cores, sim::ProfileXeonGold6130());
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys((HeapBytes(config.run) + (8ULL << 20)) *
                           config.tenants);
  std::vector<workloads::TenantBundle> tenants;
  for (unsigned j = 0; j < config.tenants; ++j) {
    tenants.push_back(workloads::MakeTenant(
        config.run, machine, phys, kernel, j, j % config.run.machine_cores,
        (j * config.run.gc_threads) % config.run.machine_cores,
        (1ULL << 32) + j * (1ULL << 36)));
    tenants.back().workload->Setup(*tenants.back().jvm);
  }
  const double seconds = Seconds(start);
  tenants.clear();  // the JVMs hold references into phys
  return seconds;
}

// `checked` runs fill heap digests and run the heap verifier inside RunFleet
// (it aborts the process on a failure), so only unchecked runs are timed.
Run RunFleetOnce(const WorkloadSpec& spec, std::uint64_t seed,
                 CollectorKind kind, SpanLog* spans, bool checked) {
  fleet::FleetConfig config = MakeFleetConfig(spec, kind, seed);
  // Per-cycle pauses come from the collectors' modeled-clock cycle spans;
  // RunResult keeps only per-tenant summaries.
  telemetry::TraceRecorder recorder;
  config.run.trace_recorder = &recorder;
  config.run.verify_heap = checked;
  config.digest_heaps = checked;

  Run run;
  const ScopedSpan run_span(spans, "run");
  {
    const ScopedSpan setup(spans, "setup");
    run.setup_s = TimeFleetSetup(config);
  }
  const Clock::time_point start = Clock::now();
  fleet::FleetResult result;
  {
    const ScopedSpan loop(spans, "fleet");
    result = fleet::RunFleet(config);
  }
  run.loop_s = Seconds(start) - run.setup_s;

  for (const telemetry::TraceEvent& event : recorder.Snapshot()) {
    if (event.cat == "gc" && event.name == "cycle") {
      run.pauses.push_back(event.dur);
    }
  }
  std::sort(run.pauses.begin(), run.pauses.end());
  double waits = 0, wait_max = 0, cycles = 0;
  for (const RunResult& r : result.tenants) {
    run.ops += r.iterations;
    waits += r.gc_wait_cycles;
    wait_max = std::max(wait_max, r.gc_wait_max_cycles);
    cycles += static_cast<double>(r.gc_count);
    run.digests.push_back(r.heap_digest);
  }
  if (cycles != static_cast<double>(run.pauses.size())) {
    run.error = "cycle spans do not match the collectors' GC counts";
  }
  AddModeledEndToEnd(run, result.tenants,
                     static_cast<double>(result.slo_violations));
  AddLayerCounts(run, result.tenants);
  auto& m = run.modeled;
  m["fleet.epochs"] = static_cast<double>(result.epochs);
  m["fleet.epoch_broadcasts"] = static_cast<double>(result.epoch_broadcasts);
  m["fleet.broadcast_fallbacks"] =
      static_cast<double>(result.broadcast_fallbacks);
  m["fleet.solo_epochs"] = static_cast<double>(result.solo_epochs);
  m["fleet.max_epoch_size"] = static_cast<double>(result.max_epoch_size);
  m["fleet.arbiter_ms"] = Ms(result.arbiter_cycles);
  m["fleet.wait_max_ms"] = Ms(wait_max);
  m["fleet.wait_mean_ms"] = Ms(Ratio(waits, cycles));
  m["fleet.emergency_gcs"] = static_cast<double>(result.emergency_gcs);
  return run;
}

// One set-up of the workload on the seed, timed and discarded.
double TimeSetup(const WorkloadSpec& spec, std::uint64_t seed) {
  if (spec.tenants > 1) {
    return TimeFleetSetup(MakeFleetConfig(spec, spec.collector, seed));
  }
  const Clock::time_point start = Clock::now();
  SingleJvm env(MakeRunConfig(spec, spec.collector, seed), seed);
  env.bundle.workload->Setup(*env.bundle.jvm);
  return Seconds(start);
}

Run RunWorkloadOnce(const WorkloadSpec& spec, std::uint64_t seed,
                    CollectorKind kind, SpanLog* spans, bool checked) {
  return spec.tenants > 1 ? RunFleetOnce(spec, seed, kind, spans, checked)
                          : RunSingle(spec, seed, kind, spans);
}

// Host time per layer, from a traced single-JVM STW run: iteration self time
// outside GC, and each phase's time over every cycle (set-up's included, as
// in the modeled phase sums).
void AddHostLayers(Run& traced, const SpanLog& spans, double untraced_loop_s) {
  auto& h = traced.host_layers;
  double iterations = 0, gc_in_loop = 0, gc_all = 0;
  std::map<std::string, double> phases;
  for (const SpanLog::Span& span : spans.spans()) {
    const std::string_view name = span.name;
    if (name == "iteration") {
      iterations += span.dur();
    } else if (name == "gc_cycle") {
      gc_all += span.dur();
      if (span.parent != 0 &&
          std::string_view(spans.at(span.parent).name) == "iteration") {
        gc_in_loop += span.dur();
      }
    } else if (span.parent != 0 &&
               std::string_view(spans.at(span.parent).name) == "gc_cycle") {
      phases[span.name] += span.dur();
    }
  }
  const bool split = !phases.empty();  // STW phases seen
  h["mutator.host_s"] = split ? iterations - gc_in_loop : 0;
  for (const char* phase : {"mark", "forward", "adjust", "compact"}) {
    h[std::string("gc.") + phase + ".host_s"] = phases[phase];
  }
  const double moved_mib = (traced.modeled["core.bytes_swapped"] +
                            traced.modeled["core.bytes_copied"]) /
                           (1024.0 * 1024.0);
  h["gc.host_ms_per_mib_moved"] = split ? gc_all * 1e3 / moved_mib : 0;
  h["run.host_s"] = traced.loop_s;
  h["trace.overhead_pct"] = (traced.loop_s / untraced_loop_s - 1) * 100;
}

// --- reporting -------------------------------------------------------------

// Empty when `run` passed: heap verifier (when `heap_checked`), graph digest
// equal to the memmove reference's, and every modeled number equal to the
// seed's first run.
std::string CheckRun(const Run& run, const Run& first, const Run& reference,
                     bool heap_checked) {
  if (!run.error.empty()) return run.error;
  if (!reference.error.empty()) {
    return "memmove reference: " + reference.error;
  }
  for (const auto& [key, value] : run.modeled) {
    if (first.modeled.at(key) != value) {
      return "modeled " + key + " differs from the seed's first run";
    }
  }
  if (heap_checked && run.digests != reference.digests) {
    return "heap digest differs from the memmove collector's";
  }
  return "";
}

// A metric's unit follows from its name's suffix, as BENCHMARK.json lists it.
const char* Unit(std::string_view name) {
  auto ends_with = [name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (ends_with("_ms") || ends_with("_mib_moved")) return "ms";
  if (ends_with("ops_per_s")) return "ops/s";
  if (ends_with("_s")) return "s";
  if (ends_with("_mib")) return "MiB";
  if (ends_with("_pct")) return "%";
  if (ends_with("ratio") || ends_with("share")) return "ratio";
  if (ends_with("bytes_swapped") || ends_with("bytes_copied")) return "bytes";
  if (ends_with("pages_per_call")) return "pages";
  if (ends_with("concurrent_cycles")) return "cycles";
  return "count";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Adds percentile `p` of the pause samples and prints its sample count, or
// refuses (false) when fewer than kMinBeyond samples lie beyond it.
bool AddPercentile(std::vector<Metric>& out, const char* name, double p,
                   const std::vector<double>& pauses) {
  const double n = static_cast<double>(pauses.size());
  const double beyond = n * (100 - p) / 100;
  if (beyond < kMinBeyond) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: %.0f pause samples leave %.1f beyond "
                 "p%g, fewer than %.0f\n",
                 name, n, beyond, p, kMinBeyond);
    return false;
  }
  std::printf("  %s: p%g of %.0f pause samples, %.1f beyond it\n", name, p,
              n, beyond);
  out.push_back({name, Ms(Percentile(pauses, p)), Unit(name)});
  return true;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\nworkloads:");
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || seed > UINT32_MAX) return Usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1
              : std::strcmp(value, "0") == 0 ? 0
                                             : -1;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || trace < 0 || seconds <= 0) return Usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) return Usage();

  std::printf("perfbench: workload %s (%s x%u, %s, gc_threads=%u, %u "
              "iterations per tenant), seed %llu, trace %d\n",
              spec->name, spec->program, spec->tenants,
              workloads::CollectorKindName(spec->collector), spec->gc_threads,
              Iterations(*spec, seed), static_cast<unsigned long long>(seed),
              trace);

  // Measured runs on the seed. Untraced: as many as fit in --seconds (at
  // least kMinRuns), on a probe-scaled workload each followed by a probe.
  // Traced: one untraced run, then the traced one.
  std::vector<Run> runs;
  SpanLog spans;
  std::unique_ptr<MachineProbe> probe;
  std::vector<double> probes;  // seconds: one per run, one after extras
  std::vector<double> rates;   // ops per host second, one per untraced run
  std::vector<double> setups;
  double rss_mib = 0;
  // Machine slowness relative to the reference: 1 when not probe-scaled.
  auto slowness = [&] {
    if (!spec->probe_scaled) return 1.0;
    probes.push_back(probe->Time());
    return probes.back() / kProbeReferenceS;
  };
  const Clock::time_point start = Clock::now();
  if (trace == 0) {
    while (true) {
      runs.push_back(
          RunWorkloadOnce(*spec, seed, spec->collector, nullptr, false));
      if (runs.size() == 1) {
        // Peak after the first run, before the probe's rings exist:
        // allocator fragmentation from later runs would tie the figure to
        // how many runs fit in --seconds.
        rss_mib = MaxRssMib();
        if (spec->probe_scaled) probe = std::make_unique<MachineProbe>();
      }
      const Run& run = runs.back();
      const double slow = slowness();
      rates.push_back(static_cast<double>(run.ops) / run.loop_s * slow);
      setups.push_back(run.setup_s / slow);
      const double elapsed = Seconds(start);
      const double per_run = elapsed / static_cast<double>(runs.size());
      if (runs.size() >= kMinRuns && elapsed + per_run > seconds) break;
    }
    // Extra set-ups, so setup_s is a median of several, scaled by one probe
    // after the batch.
    std::vector<double> extra;
    while (setups.size() + extra.size() < kMinSetups) {
      extra.push_back(TimeSetup(*spec, seed));
    }
    const double slow = slowness();
    for (const double s : extra) setups.push_back(s / slow);
  } else {
    runs.push_back(
        RunWorkloadOnce(*spec, seed, spec->collector, nullptr, false));
    runs.push_back(
        RunWorkloadOnce(*spec, seed, spec->collector, &spans, false));
    AddHostLayers(runs.back(), spans, runs.front().loop_s);
  }

  // Reference: the memmove collector on the same seed must reach the same
  // graph. The fleet's measured runs skip the in-run checks, so one checked
  // run of the seed is added and compared like the others.
  if (spec->tenants > 1) {
    runs.push_back(
        RunWorkloadOnce(*spec, seed, spec->collector, nullptr, true));
  }
  const Run reference = RunWorkloadOnce(
      *spec, seed, CollectorKind::kSvagcNoSwap, nullptr, true);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Single-JVM runs are all heap-checked; of the fleet's, the last one.
    const bool heap_checked = spec->tenants == 1 || i + 1 == runs.size();
    const std::string error =
        CheckRun(runs[i], runs.front(), reference, heap_checked);
    std::printf("  run %zu: set-up %.4f s, loop %.4f s; %s\n", i + 1,
                runs[i].setup_s, runs[i].loop_s,
                !error.empty() ? error.c_str()
                : heap_checked
                    ? "heap verified, graph digest = memmove collector's, "
                      "modeled numbers identical to run 1"
                    : "modeled numbers identical to run 1");
    failed += error.empty() ? 0 : 1;
  }

  const Run& first = runs.front();
  std::vector<Metric> metrics;
  auto add = [&metrics](std::string_view name, double value) {
    metrics.push_back({std::string(name), value, Unit(name)});
  };
  std::printf("  %u %s run(s) of the seed\n",
              static_cast<unsigned>(spec->tenants > 1 ? runs.size() - 1
                                                      : runs.size()),
              trace == 0 ? "measured" : "untraced+traced");
  if (trace == 0) {
    if (!AddPercentile(metrics, "pause_p50_ms", 50, first.pauses) ||
        !AddPercentile(metrics, "pause_p99_ms", 99, first.pauses)) {
      return 3;
    }
    for (const std::string_view key : kModeledEndToEnd) {
      add(key, first.modeled.at(std::string(key)));
    }
    std::printf("  %zu set-ups timed\n", setups.size());
    if (spec->probe_scaled) {
      // Probe i follows run i; the last one follows the extra set-ups.
      for (std::size_t i = 0; i < probes.size(); ++i) {
        std::printf("  probe %zu: %.4f s\n", i + 1, probes[i]);
      }
      std::printf("  host times scaled by probe / %.3f s (probe median %.4f "
                  "s)\n",
                  kProbeReferenceS, Median(probes));
    }
    add("host_ops_per_s", Median(rates));
    add("setup_s", Median(setups));
    add("host_rss_mib", rss_mib);
  } else {
    const Run& traced = runs[1];
    for (const auto& [key, value] : traced.modeled) {
      if (std::find(std::begin(kModeledEndToEnd), std::end(kModeledEndToEnd),
                    key) == std::end(kModeledEndToEnd)) {
        add(key, value);
      }
    }
    for (const auto& [key, value] : traced.host_layers) add(key, value);
    const std::string path = trace_dir + "/" + spec->name + "-seed" +
                             std::to_string(seed) + ".spans.json";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 3;
    }
    std::printf("  spans written to %s; tracing overhead %.2f%% of the "
                "untraced loop\n",
                path.c_str(), traced.host_layers.at("trace.overhead_pct"));
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  PrintJson(failed == 0, runs.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
