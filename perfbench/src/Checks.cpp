//===- perfbench/src/Checks.cpp - Output checks made apart from the program -===//

#include "Checks.h"

#include "analysis/LoopInfo.h"

#include <algorithm>
#include <tuple>

using namespace ppp;
using namespace perfbench;

void CheckTally::fail(const std::string &What, uint64_t N) {
  if (Violations == 0)
    First = What;
  Checked += N;
  Violations += N;
}

void perfbench::checkSameResult(CheckTally &T, const std::string &What,
                                const RunResult &Ref, const RunResult &Got) {
  if (Got.FuelExhausted || Got.ReturnValue != Ref.ReturnValue ||
      Got.MemChecksum != Ref.MemChecksum)
    T.fail(What + ": result differs from the clean run (ret " +
           std::to_string(Got.ReturnValue) + " vs " +
           std::to_string(Ref.ReturnValue) + ", checksum " +
           std::to_string(Got.MemChecksum) + " vs " +
           std::to_string(Ref.MemChecksum) + ")");
  else
    T.pass();
}

void perfbench::checkOracleTotals(CheckTally &T, const std::string &What,
                                  const Module &M, const EdgeProfile &EP,
                                  const PathProfile &Oracle) {
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FuncId F = static_cast<FuncId>(FI);
    CfgView Cfg(M.function(F));
    LoopInfo LI = LoopInfo::compute(Cfg);
    const FunctionEdgeProfile &FP = EP.func(F);
    uint64_t Want = static_cast<uint64_t>(FP.Invocations);
    for (int E : LI.backEdges())
      Want += static_cast<uint64_t>(FP.EdgeFreq[static_cast<size_t>(E)]);
    uint64_t Got = FI < Oracle.Funcs.size() ? Oracle.Funcs[FI].totalFreq() : 0;
    if (Got != Want)
      T.fail(What + ": function " + std::to_string(FI) + " oracle total " +
             std::to_string(Got) + " != invocations + back edges " +
             std::to_string(Want));
    else
      T.pass();
  }
}

void perfbench::checkPpExact(CheckTally &T, const std::string &What,
                             const InstrumentationResult &IR,
                             const ProfilerRunData &Run,
                             const PathProfile &Oracle) {
  for (size_t FI = 0; FI < IR.Plans.size(); ++FI) {
    if (!IR.Plans[FI].Instrumented || Run.FuncLost[FI] || Run.FuncCold[FI] ||
        Run.FuncInvalid[FI])
      continue;
    const FunctionPathProfile &Got = Run.Measured.Funcs[FI];
    const FunctionPathProfile &Want = Oracle.Funcs[FI];
    bool Same = Got.Paths.size() == Want.Paths.size();
    for (size_t I = 0; Same && I < Got.Paths.size(); ++I) {
      const PathRecord *W = Want.find(Got.Paths[I].Key);
      Same = W && W->Freq == Got.Paths[I].Freq;
    }
    if (!Same)
      T.fail(What + ": function " + std::to_string(FI) +
             " measured PP profile differs from the oracle (" +
             std::to_string(Got.Paths.size()) + " vs " +
             std::to_string(Want.Paths.size()) + " paths)");
    else
      T.pass();
  }
}

void perfbench::checkFlowBounds(CheckTally &T, const std::string &What,
                                const PathProfile &Definite,
                                const PathProfile &Potential,
                                const PathProfile &Oracle) {
  auto OracleFreq = [&](size_t FI, const PathKey &K) -> uint64_t {
    const PathRecord *R = Oracle.Funcs[FI].find(K);
    return R ? R->Freq : 0;
  };
  uint64_t BadDef = 0, BadPot = 0, N = 0;
  for (size_t FI = 0; FI < Oracle.Funcs.size(); ++FI) {
    for (const PathRecord &P : Definite.Funcs[FI].Paths) {
      ++N;
      BadDef += P.Freq > OracleFreq(FI, P.Key);
    }
    for (const PathRecord &P : Potential.Funcs[FI].Paths) {
      ++N;
      BadPot += P.Freq < OracleFreq(FI, P.Key);
    }
  }
  T.Checked += N - (BadDef + BadPot);
  if (BadDef + BadPot)
    T.fail(What + ": " + std::to_string(BadDef) +
               " definite-flow estimates above the oracle, " +
               std::to_string(BadPot) + " potential-flow estimates below it",
           BadDef + BadPot);
}

void perfbench::checkUnit(CheckTally &T, const std::string &What, double V) {
  if (!(V >= 0.0 && V <= 1.0))
    T.fail(What + " = " + std::to_string(V) + " is outside [0, 1]");
  else
    T.pass();
}

void perfbench::checkCountsEqual(CheckTally &T, const std::string &What,
                                 const CountsMessage &Ref,
                                 const CountsMessage &Got) {
  if (Got == Ref) {
    T.pass();
    return;
  }
  size_t FI = 0;
  while (FI < Ref.Funcs.size() && FI < Got.Funcs.size() &&
         Ref.Funcs[FI] == Got.Funcs[FI])
    ++FI;
  T.fail(What + ": counts differ from the reference at function entry " +
         std::to_string(FI));
}

void perfbench::checkCostConserved(CheckTally &T, const std::string &What,
                                   uint64_t Attributed, uint64_t Unattributed,
                                   uint64_t CleanCost) {
  if (Attributed + Unattributed != CleanCost)
    T.fail(What + ": attributed " + std::to_string(Attributed) +
           " + unattributed " + std::to_string(Unattributed) +
           " != clean cost " + std::to_string(CleanCost));
  else
    T.pass();
}

void SequentialFold::add(const CountsMessage &M) {
  mergeCounts(ByBench[M.Benchmark], M);
}

void SequentialFold::decay() {
  for (auto &[Bench, M] : ByBench) {
    for (FunctionCounts &F : M.Funcs) {
      F.Lost >>= 1;
      F.Cold >>= 1;
      F.Invalid >>= 1;
      for (auto &PC : F.PathCounts)
        PC.second >>= 1;
      for (auto &EC : F.EdgeCounts)
        EC.second >>= 1;
    }
    canonicalizeCounts(M);
  }
}

void perfbench::sortRows(std::vector<serve::NamedRow> &Rows) {
  std::sort(Rows.begin(), Rows.end(),
            [](const serve::NamedRow &A, const serve::NamedRow &B) {
              return std::tie(A.Bench, A.Kind, A.Func, A.Index) <
                     std::tie(B.Bench, B.Kind, B.Func, B.Index);
            });
}

std::vector<serve::NamedRow> SequentialFold::rows() const {
  std::vector<serve::NamedRow> Rows;
  for (const auto &[Bench, M] : ByBench) {
    std::vector<serve::NamedRow> R = serve::rowsFromMessage(M);
    Rows.insert(Rows.end(), R.begin(), R.end());
  }
  sortRows(Rows);
  return Rows;
}

std::vector<serve::NamedRow> SequentialFold::topPaths(unsigned K) const {
  std::vector<serve::NamedRow> Rows = rows();
  std::erase_if(Rows, [](const serve::NamedRow &R) {
    return R.Kind != serve::CountKind::Path;
  });
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const serve::NamedRow &A, const serve::NamedRow &B) {
                     if (A.Count != B.Count)
                       return A.Count > B.Count;
                     return std::tie(A.Bench, A.Func, A.Index) <
                            std::tie(B.Bench, B.Func, B.Index);
                   });
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

void perfbench::checkRowsEqual(CheckTally &T, const std::string &What,
                               const std::vector<serve::NamedRow> &Want,
                               const std::vector<serve::NamedRow> &Got) {
  auto Same = [](const serve::NamedRow &A, const serve::NamedRow &B) {
    return A.Bench == B.Bench && A.Kind == B.Kind && A.Func == B.Func &&
           A.Index == B.Index && A.Count == B.Count;
  };
  size_t I = 0;
  while (I < Want.size() && I < Got.size() && Same(Want[I], Got[I]))
    ++I;
  if (I == Want.size() && I == Got.size()) {
    T.pass();
    return;
  }
  T.fail(What + ": " + std::to_string(Got.size()) + " rows vs " +
         std::to_string(Want.size()) + " in the sequential fold, first "
         "difference at row " + std::to_string(I));
}
