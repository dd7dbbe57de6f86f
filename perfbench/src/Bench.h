//===- perfbench/src/Bench.h - Workload stages and their inputs -*- C++ -*-===//
///
/// \file
/// The three stages every benchmark round is made of, and the inputs
/// set-up builds for them:
///
///   evaluate  the paper's offline evaluation (Sec. 7): preparation
///             pipeline, every profiler spec, flow estimation;
///   online    what the profiled program sees: clean / PPP / PP /
///             trace-recording runs and adaptive sessions;
///   collect   offline profile collection: trace decode, counts export
///             and encoding, loopback ingest, hot-path queries.
///
/// A workload (online, collect) is a mix: one stage dominates its round
/// and the other two run at a small fixed share, so that every
/// end-to-end metric is measured on every workload. All timing is done here, from outside,
/// around the benchmark's own calls into each layer's public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Checks.h"
#include "Spans.h"

#include "adapt/AdaptiveSession.h"
#include "pass/AnalysisManager.h"
#include "pass/Pass.h"
#include "serve/Server.h"
#include "trace/TraceDecoder.h"
#include "workload/Suite.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// How much of each stage one round of a workload runs.
struct Mix {
  const char *Name = "";
  /// Online stage: every OnlineStride-th recipe, OnlineReps passes of
  /// the clean/ppp/pp/trace order; each pass ends with one run of each
  /// of AdaptSubjects phased programs.
  unsigned OnlineStride = 1;
  unsigned OnlineReps = 1;
  unsigned AdaptSubjects = 1;
  /// Collect stage: every recipe at CollectVariants seeds, each
  /// recording decoded DecodeReps times; each message is sent
  /// IngestRepeat times per round, and Queries hottestPaths(HotK) calls
  /// follow each ingest round.
  /// The evaluate stage always runs variant 0 of the small-path recipes.
  unsigned CollectVariants = 1;
  unsigned DecodeReps = 1;
  unsigned IngestRepeat = 1;
  unsigned Queries = 1;
};

/// The workloads, by name; nullptr for an unknown name.
const Mix *findMix(const std::string &Name);

/// The recipe \p Spec with its generator seed perturbed by the workload
/// seed and a variant number; the program sees only the generated
/// module.
ppp::BenchmarkSpec seededSpec(const ppp::BenchmarkSpec &Spec, uint64_t Seed,
                              unsigned Variant);

/// One module after the preparation pipeline. Heap-allocated and never
/// moved: the analysis manager points at Expanded and at the newest
/// profile snapshot in Ctx.
struct Prepared {
  std::string Name;
  ppp::Module Expanded;
  ppp::PassContext Ctx;
  std::unique_ptr<ppp::FunctionAnalysisManager> FAM;
  uint64_t ProfiledInstrs = 0; ///< Dynamic instructions of profile passes.

  const ppp::EdgeProfile &ep() const { return Ctx.Profiles.back().EP; }
  const ppp::PathProfile &oracle() const {
    return Ctx.Profiles.back().Oracle;
  }
};

/// Timings of a fixed set of items (a module in one mode, a recording,
/// a query), each timed one or more times per round. An item's time is
/// its fastest sample: interference from the rest of the host only ever
/// adds time, and on the reference host it moved a run's per-item
/// medians by up to 18% while the per-item minimum moved by 6%. The
/// figure of the whole set is the sum of the item times, or its work
/// divided by that sum.
class ItemTimes {
public:
  void add(size_t Item, double Work, double Seconds);
  double seconds() const; ///< Sum of the item times.
  double rate() const { return seconds() > 0 ? work() / seconds() : 0; }
  double work() const;

private:
  std::vector<double> Work;
  std::vector<std::vector<double>> Samples;
};

/// Sums and samples the stages record.
struct Results {
  // End-to-end samples; work in millions (instructions, events, entries).
  ItemTimes Evaluate, Clean, Ppp, Pp, Trace, Adaptive, Decode, TimedDecode,
      Ingest, Query;
  // Counts, per round (deterministic; the last round's value).
  uint64_t ExpandedInstrs = 0, CountSitesPpp = 0, CountSitesPp = 0,
           PpLost = 0, PpStored = 0, PppExtra = 0, PpExtra = 0,
           FlowPaths = 0, RecordBytes = 0, RecordEvents = 0, FrameBytes = 0,
           ProfiledInstrs = 0;
  // Aggregator statistics over the whole timed section.
  uint64_t Merges = 0, OverflowMerges = 0, Probes = 0;
  // Adaptive controller statistics over the whole timed section.
  uint64_t Epochs = 0, Installed = 0, Reverted = 0;
  // Operations attempted and failed (an error returned by the program).
  uint64_t Attempted = 0, Failed = 0;
};

/// The checks, one tally per kind.
struct Tallies {
  CheckTally SameResult{"instrumented/traced/adaptive run == clean run"};
  CheckTally OracleTotals{"oracle path total == invocations + back edges"};
  CheckTally PpExact{"PP measured == oracle (no lost counts)"};
  CheckTally FlowBounds{"definite <= oracle <= potential"};
  CheckTally UnitRange{"accuracy/coverage/fraction in [0, 1]"};
  CheckTally Repeat{"counts and trace bytes repeat from rep to rep"};
  CheckTally Decoded{"decoded counters == counter-backend run"};
  CheckTally Conserved{"attributed + unattributed == clean cost"};
  CheckTally Snapshot{"server snapshot == sequential mergeCounts fold"};
  CheckTally TopK{"hottestPaths(K) == top K of the fold"};

  std::vector<CheckTally *> all() {
    return {&SameResult, &OracleTotals, &PpExact, &FlowBounds, &UnitRange,
            &Repeat,     &Decoded,      &Conserved, &Snapshot, &TopK};
  }
};

/// The benchmark for one workload: set-up builds every stage's inputs;
/// runRound() runs one whole round of every stage.
class Bench {
public:
  Bench(const Mix &M, uint64_t Seed, SpanRecorder &Spans);
  ~Bench();
  Bench(const Bench &) = delete;
  Bench &operator=(const Bench &) = delete;

  /// Builds every input. False (with \p Error) if set-up failed.
  bool setUp(std::string &Error);

  void runRound();

  /// Stops the in-process server and joins its threads.
  void tearDown();

  const Results &results() const { return R; }
  Tallies &tallies() { return T; }
  double buildSeconds() const { return BuildS; }
  uint64_t staticInstrs() const { return StaticInstrs; }
  double adaptEpochSeconds() const { return EpochS; }

private:
  struct OnlineModule;
  struct AdaptSubject;
  struct CollectModule;

  /// Adaptive runs made in set-up before any is timed.
  static constexpr unsigned WarmupReps = 4;

  /// Runs \p Fn inside a layer span named \p Name; returns its result.
  template <typename Fn> auto timed(const char *Name, Fn &&F) {
    Scope S(Spans, Name);
    return F();
  }

  /// Runs output check \p F, timed apart so no stage metric includes it.
  template <typename Fn> void check(Fn &&F) {
    Scope S(Spans, "bench.check");
    Clock::time_point T0 = Clock::now();
    F();
    CheckS += secondsSince(T0);
  }

  /// Counts one operation of the timed section; false if it failed.
  bool op(bool Ok);

  std::unique_ptr<ppp::Interpreter> construct(const ppp::Module &Mod);
  ppp::RunResult runTimed(const char *SpanName, ppp::Interpreter &I,
                          double &Seconds);
  std::unique_ptr<Prepared> prepare(const ppp::BenchmarkSpec &Spec,
                                    const ppp::Module &Original);
  void evaluateModule(const ppp::BenchmarkSpec &Spec,
                      const ppp::Module &Original);
  void evaluateStage();
  void onlineStage();
  void collectStage();
  bool ingest(const std::vector<std::string> &Frames);

  const Mix &M;
  uint64_t Seed;
  SpanRecorder &Spans;
  Results R;
  Tallies T;
  double BuildS = 0;
  uint64_t StaticInstrs = 0;
  double EpochS = 0;
  double CheckS = 0;

  std::vector<std::pair<ppp::BenchmarkSpec, ppp::Module>> EvalInputs;
  std::vector<std::unique_ptr<Prepared>> Pool;
  std::vector<std::unique_ptr<OnlineModule>> Online;
  std::vector<std::unique_ptr<AdaptSubject>> Adapt;
  std::vector<std::unique_ptr<CollectModule>> Collect;

  std::unique_ptr<ppp::serve::ProfileServer> Server;
  SequentialFold Fold;
  uint64_t SessionsSent = 0;
  int IngestCpu = -1; ///< The CPU every ingest thread runs on.
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
