//===- perfbench/src/Checks.h - Output checks made apart from the program -*- C++ -*-===//
///
/// \file
/// Every check the benchmark makes on the program's outputs. Each one
/// recomputes its expectation from data the layer under test did not
/// produce (an edge profile, a clean run, a sequential fold written
/// here), so a check never compares the program with itself. The
/// planted-fault self-test (SelfTest.cpp) feeds each check a perturbed
/// copy of a real output and requires a rejection.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "interp/Interpreter.h"
#include "pathprof/EstimatedProfile.h"
#include "profile/Merge.h"
#include "serve/Aggregator.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Tally of one kind of check: how many outputs were checked, how many
/// were wrong, and the first wrong one described.
struct CheckTally {
  std::string Name;
  uint64_t Checked = 0;
  uint64_t Violations = 0;
  std::string First;

  explicit CheckTally(std::string Name) : Name(std::move(Name)) {}
  void pass() { ++Checked; }
  /// Records \p N wrong outputs, described by \p What if they are the first.
  void fail(const std::string &What, uint64_t N = 1);
  bool ok() const { return Violations == 0; }
};

/// \p Got returns what the clean run \p Ref returned, bit for bit.
void checkSameResult(CheckTally &T, const std::string &What,
                     const ppp::RunResult &Ref, const ppp::RunResult &Got);

/// Per function, the oracle's path total equals invocations plus
/// back-edge traversals, both read off the edge profile \p EP.
void checkOracleTotals(CheckTally &T, const std::string &What,
                       const ppp::Module &M, const ppp::EdgeProfile &EP,
                       const ppp::PathProfile &Oracle);

/// PP's measured profile equals the oracle in every instrumented
/// function whose table lost no counts.
void checkPpExact(CheckTally &T, const std::string &What,
                  const ppp::InstrumentationResult &IR,
                  const ppp::ProfilerRunData &Run,
                  const ppp::PathProfile &Oracle);

/// Every definite-flow estimate is <= the oracle and every
/// potential-flow estimate is >= it, path by path.
void checkFlowBounds(CheckTally &T, const std::string &What,
                     const ppp::PathProfile &Definite,
                     const ppp::PathProfile &Potential,
                     const ppp::PathProfile &Oracle);

/// \p V lies in [0, 1].
void checkUnit(CheckTally &T, const std::string &What, double V);

/// Two counts exports are identical (every path count and every
/// lost/cold/invalid counter).
void checkCountsEqual(CheckTally &T, const std::string &What,
                      const ppp::CountsMessage &Ref,
                      const ppp::CountsMessage &Got);

/// Attributed plus unattributed cost equals the clean run's cost.
void checkCostConserved(CheckTally &T, const std::string &What,
                        uint64_t Attributed, uint64_t Unattributed,
                        uint64_t CleanCost);

/// The benchmark's own model of the server's aggregate: a sequential
/// mergeCounts fold of every message sent, aged by decay() exactly as
/// the aggregator documents it (count -> floor(count / 2)).
class SequentialFold {
public:
  void add(const ppp::CountsMessage &M);
  void decay();
  /// The fold as named rows, sorted (bench, kind, func, index).
  std::vector<ppp::serve::NamedRow> rows() const;
  /// The top \p K path rows, count descending then key ascending.
  std::vector<ppp::serve::NamedRow> topPaths(unsigned K) const;

private:
  std::map<std::string, ppp::CountsMessage> ByBench;
};

/// Sorts rows (bench, kind, func, index) in place.
void sortRows(std::vector<ppp::serve::NamedRow> &Rows);

/// Two row lists are identical, element by element.
void checkRowsEqual(CheckTally &T, const std::string &What,
                    const std::vector<ppp::serve::NamedRow> &Want,
                    const std::vector<ppp::serve::NamedRow> &Got);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
