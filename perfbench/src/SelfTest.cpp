//===- perfbench/src/SelfTest.cpp - Planted-fault self-test -----------------===//

#include "SelfTest.h"

#include "Bench.h"

#include "metrics/Metrics.h"
#include "pass/Pipeline.h"
#include "trace/PathTiming.h"
#include "trace/TraceRecorder.h"

#include <cstdio>
#include <functional>

using namespace ppp;
using namespace perfbench;

namespace {

/// Drops the last recorded path of the first function that has one.
void dropOnePath(PathProfile &P) {
  for (FunctionPathProfile &F : P.Funcs)
    if (!F.Paths.empty()) {
      F.Index.erase(F.Paths.back().Key);
      F.Paths.pop_back();
      return;
    }
}

/// Adds one to the first path count of \p M.
void bumpOneCount(CountsMessage &M) {
  for (FunctionCounts &F : M.Funcs)
    if (!F.PathCounts.empty()) {
      ++F.PathCounts.front().second;
      return;
    }
}

} // namespace

int perfbench::runSelfTest() {
  // Real outputs: one recipe, prepared, PP-profiled, flow-estimated,
  // trace-recorded and decoded, and aggregated.
  BenchmarkSpec Spec = seededSpec(spec2000Suite().front(), 1, 0);
  Module E = buildCalibrated(Spec);
  FunctionAnalysisManager FAM(E);
  PassContext Ctx;
  Ctx.AllowInlining = Spec.AllowInlining;
  ModulePassManager MPM;
  std::string Error;
  if (!parsePipeline(DefaultPreparePipelineSpec, MPM, Error) ||
      !MPM.run(E, FAM, Ctx)) {
    fprintf(stderr, "error: self-test preparation failed\n");
    return 1;
  }
  const EdgeProfile &EP = Ctx.Profiles.back().EP;
  const PathProfile &Oracle = Ctx.Profiles.back().Oracle;
  RunResult Ref = Interpreter(E).run();

  InstrumentationResult PpIR =
      instrumentModule(E, EP, mustParseProfilerSpec("pp"), FAM);
  ProfileRuntime PpRT = PpIR.makeRuntime();
  Interpreter PpI(PpIR.Instrumented);
  PpI.setProfileRuntime(&PpRT);
  RunResult PpGot = PpI.run();
  ProfilerRunData PpRun = buildEstimatedProfile(E, EP, PpIR, PpRT);
  CountsMessage PpMsg = countsFromRun(Spec.Name + ".pp", PpIR, PpRT);
  AccuracyResult Acc =
      computeAccuracy(Oracle, PpRun.Estimated, FlowMetric::Branch);

  PathProfile Potential = estimateFromEdgeProfile(
      E, EP, FlowKind::Potential, 0, FlowMetric::Branch);
  PathProfile Definite = estimateFromEdgeProfile(E, EP, FlowKind::Definite, 0,
                                                 FlowMetric::Branch);

  InstrumentationResult TrIR =
      instrumentModule(E, EP, ProfilerOptions::traceTimed(), FAM);
  trace::TraceRecorder Rec(trace::DefaultTraceChunkBytes, true);
  Interpreter TrI(E);
  TrI.setTraceRecorder(&Rec);
  TrI.run();
  ProfileRuntime TrRT = TrIR.makeRuntime();
  trace::DecodeStats DS;
  trace::PathTimingProfile Timing;
  trace::TraceDecoder Dec(E, TrIR);
  ProfileRuntime Truth = TrIR.makeRuntime();
  Interpreter Counted(TrIR.Instrumented);
  Counted.setProfileRuntime(&Truth);
  Counted.run();
  if (!Dec.decode(Rec.recording(), TrRT, DS, Error, &Timing)) {
    fprintf(stderr, "error: self-test decode failed: %s\n", Error.c_str());
    return 1;
  }
  CountsMessage Decoded = countsFromRun(Spec.Name, TrIR, TrRT);
  CountsMessage TruthMsg = countsFromRun(Spec.Name, TrIR, Truth);

  serve::Aggregator Agg;
  std::vector<CountsMessage> Sent = {Decoded, PpMsg, Decoded};
  for (const CountsMessage &Msg : Sent)
    Agg.ingest(Agg.internBenchmark(Msg.Benchmark), Msg);
  std::vector<serve::NamedRow> Snap = Agg.snapshotRows();
  sortRows(Snap);
  std::vector<serve::NamedRow> Top = Agg.hottestPaths(20);

  struct Case {
    const char *Check;
    const char *Fault;
    std::function<void(CheckTally &, bool)> Run;
  };
  const Case Cases[] = {
      {"same result as clean", "checksum bit flipped",
       [&](CheckTally &T, bool Plant) {
         RunResult G = PpGot;
         G.MemChecksum ^= Plant ? 1 : 0;
         checkSameResult(T, "pp", Ref, G);
       }},
      {"oracle total", "path dropped",
       [&](CheckTally &T, bool Plant) {
         PathProfile O = Oracle;
         if (Plant)
           dropOnePath(O);
         checkOracleTotals(T, Spec.Name, E, EP, O);
       }},
      {"PP measured == oracle", "count +1",
       [&](CheckTally &T, bool Plant) {
         ProfilerRunData Run = PpRun;
         for (size_t FI = 0; Plant && FI < Run.Measured.Funcs.size(); ++FI)
           if (!Run.Measured.Funcs[FI].Paths.empty() && !Run.FuncLost[FI]) {
             ++Run.Measured.Funcs[FI].Paths.front().Freq;
             break;
           }
         checkPpExact(T, "pp", PpIR, Run, Oracle);
       }},
      {"definite <= oracle <= potential", "count +1 over the oracle",
       [&](CheckTally &T, bool Plant) {
         PathProfile D = Definite;
         for (size_t FI = 0; Plant && FI < D.Funcs.size(); ++FI)
           if (!D.Funcs[FI].Paths.empty()) {
             PathRecord &P = D.Funcs[FI].Paths.front();
             const PathRecord *O = Oracle.Funcs[FI].find(P.Key);
             P.Freq = (O ? O->Freq : 0) + 1;
             break;
           }
         checkFlowBounds(T, Spec.Name, D, Potential, Oracle);
       }},
      {"accuracy in [0, 1]", "value +1",
       [&](CheckTally &T, bool Plant) {
         checkUnit(T, "pp accuracy", Acc.Accuracy + (Plant ? 1.0 : 0.0));
       }},
      {"counts repeat", "count +1",
       [&](CheckTally &T, bool Plant) {
         CountsMessage Again = PpMsg;
         if (Plant)
           bumpOneCount(Again);
         checkCountsEqual(T, "pp", PpMsg, Again);
       }},
      {"decoded == counter backend", "count +1",
       [&](CheckTally &T, bool Plant) {
         CountsMessage D = Decoded;
         if (Plant)
           bumpOneCount(D);
         checkCountsEqual(T, "decode", TruthMsg, D);
       }},
      {"attributed + unattributed == clean", "count +1",
       [&](CheckTally &T, bool Plant) {
         checkCostConserved(T, "timing", Timing.attributedCost() + Plant,
                            Timing.unattributedCost(), Ref.Cost);
       }},
      {"snapshot == sequential fold", "merge skipped",
       [&](CheckTally &T, bool Plant) {
         SequentialFold Fold;
         for (size_t I = Plant ? 1 : 0; I < Sent.size(); ++I)
           Fold.add(Sent[I]);
         checkRowsEqual(T, "aggregate", Fold.rows(), Snap);
       }},
      {"hottestPaths == top K of fold", "count +1",
       [&](CheckTally &T, bool Plant) {
         SequentialFold Fold;
         for (const CountsMessage &Msg : Sent)
           Fold.add(Msg);
         std::vector<serve::NamedRow> Got = Top;
         if (Plant && !Got.empty())
           ++Got.front().Count;
         checkRowsEqual(T, "hottestPaths", Fold.topPaths(20), Got);
       }},
  };

  int Bad = 0;
  for (const Case &C : Cases) {
    CheckTally Real(C.Check), Planted(C.Check);
    C.Run(Real, false);
    C.Run(Planted, true);
    bool Ok = Real.ok() && Real.Checked > 0 && !Planted.ok();
    printf("selftest %-38s real output %s; %s: %s\n", C.Check,
           Real.ok() ? "accepted" : "REJECTED", C.Fault,
           Planted.ok() ? "NOT CAUGHT" : "rejected");
    if (!Real.ok())
      printf("  real output: %s\n", Real.First.c_str());
    Bad += !Ok;
  }
  printf("selftest %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}
