//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//

#include "Spans.h"

#include <cstdio>

using namespace perfbench;

double SpanRecorder::coveredSeconds(int64_t FromNs, int64_t ToNs) const {
  int64_t Ns = 0;
  for (const Span &S : Spans) {
    if (S.Stage || S.StartNs < FromNs || S.EndNs > ToNs)
      continue;
    bool TopLevel = true;
    for (int32_t P = S.Parent; P >= 0; P = Spans[static_cast<size_t>(P)].Parent)
      if (!Spans[static_cast<size_t>(P)].Stage) {
        TopLevel = false;
        break;
      }
    if (TopLevel)
      Ns += S.EndNs - S.StartNs;
  }
  return static_cast<double>(Ns) * 1e-9;
}

std::map<std::string, SpanRecorder::NameTotals>
SpanRecorder::totalsByName(int64_t FromNs, int64_t ToNs) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, NameTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.StartNs < FromNs || S.EndNs > ToNs)
      continue;
    NameTotals &T = Out[S.Name];
    int64_t Dur = S.EndNs - S.StartNs;
    T.Total += static_cast<double>(Dur) * 1e-9;
    T.Self += static_cast<double>(Dur - ChildNs[I]) * 1e-9;
    ++T.Count;
  }
  return Out;
}

bool SpanRecorder::writeJson(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"stage\": %s}%s\n",
                 S.Name, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Parent,
                 S.Stage ? "true" : "false",
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}
