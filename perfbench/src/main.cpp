//===- perfbench/src/main.cpp - The profiler's benchmark driver -------------===//
///
/// \file
///   perfbench --workload online|collect --seed N --seconds S
///             --trace 0|1
///   perfbench --selftest
///
/// Builds the workload's inputs from the seed (set-up), then runs whole
/// rounds of it until S seconds have passed (the timed section), checks
/// every output, and prints each metric by name with its unit, the
/// operations attempted and failed, and one JSON result line last.
/// With --trace 0 the result carries the end-to-end metrics; with
/// --trace 1 spans are recorded around every layer call and the result
/// carries the per-layer metrics (the spans go to .bench_out as JSON).
/// Exits non-zero, after the result line, if an output check failed or
/// an operation failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "SelfTest.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Base; ///< For ratios: what the ratio is a share of.
};

/// Seconds since this process started, read from the kernel's start
/// time (clock ticks since boot) against CLOCK_BOOTTIME; 0 if either is
/// unavailable, in which case set-up is timed from main() alone.
double secondsSinceProcessStart() {
  std::ifstream In("/proc/self/stat");
  std::string Stat((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  size_t Paren = Stat.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  std::istringstream Fields(Stat.substr(Paren + 2));
  std::string Field;
  // Field 3 (state) is the first after the name; start time is field 22.
  for (int I = 3; I <= 22 && (Fields >> Field); ++I)
    if (I == 22) {
      timespec Now;
      long Hz = sysconf(_SC_CLK_TCK);
      if (Hz <= 0 || clock_gettime(CLOCK_BOOTTIME, &Now) != 0)
        return 0;
      double Start = std::strtod(Field.c_str(), nullptr) / Hz;
      double Up = Now.tv_sec + Now.tv_nsec * 1e-9;
      return Up > Start ? Up - Start : 0;
    }
  return 0;
}

double peakRssMiB() {
  rusage Ru;
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::vector<Metric> endToEnd(const Results &R, double SetupS) {
  return {
      {"setup_s", SetupS, "s", ""},
      {"clean_emips", R.Clean.rate(), "Minstr/s", ""},
      {"ppp_emips", R.Ppp.rate(), "Minstr/s", ""},
      {"pp_emips", R.Pp.rate(), "Minstr/s", ""},
      {"trace_emips", R.Trace.rate(), "Minstr/s", ""},
      {"adaptive_emips", R.Adaptive.rate(), "Minstr/s", ""},
      {"decode_mevents_s", R.Decode.rate(), "Mevents/s", ""},
      {"timed_decode_mevents_s", R.TimedDecode.rate(), "Mevents/s", ""},
      {"ingest_mentries_s", R.Ingest.rate(), "Mentries/s", ""},
      {"hot_query_mrows_s", R.Query.rate(), "Mrows/s", ""},
  };
}

std::vector<Metric> perLayer(const Bench &B, const SpanRecorder &Spans,
                             int64_t FromNs, int64_t ToNs, unsigned Rounds,
                             double WallS) {
  const Results &R = B.results();
  std::map<std::string, SpanRecorder::NameTotals> Tot =
      Spans.totalsByName(FromNs, ToNs);
  auto PerRound = [&](const char *Name) { return Tot[Name].Total / Rounds; };
  auto Str = [](uint64_t V) { return std::to_string(V); };
  double Covered = Spans.coveredSeconds(FromNs, ToNs);
  double ProfileS = PerRound("pass.profile");
  return {
      {"process.peak_rss_mib", peakRssMiB(), "MiB", ""},
      {"evaluate.s", R.Evaluate.seconds(), "s", ""},
      {"workload.build_s", B.buildSeconds(), "s", ""},
      {"workload.static_instrs", static_cast<double>(B.staticInstrs()),
       "count", ""},
      {"pass.profile_s", ProfileS, "s", ""},
      {"pass.observed_mips", ratio(R.ProfiledInstrs * 1e-6, ProfileS),
       "Minstr/s", ""},
      {"pass.transform_s", PerRound("pass.transform"), "s", ""},
      {"pass.expanded_instrs", static_cast<double>(R.ExpandedInstrs), "count",
       ""},
      {"pathprof.instrument_s", PerRound("pathprof.instrument"), "s", ""},
      {"pathprof.estimate_s", PerRound("pathprof.estimate"), "s", ""},
      {"pathprof.count_sites_ppp", static_cast<double>(R.CountSitesPpp),
       "count", ""},
      {"pathprof.count_sites_pp", static_cast<double>(R.CountSitesPp),
       "count", ""},
      {"pathprof.pp_lost_ratio",
       ratio(static_cast<double>(R.PpLost),
             static_cast<double>(R.PpStored + R.PpLost)),
       "ratio", Str(R.PpStored + R.PpLost) + " PP counts stored+lost"},
      {"interp.counted_s", PerRound("interp.counted"), "s", ""},
      {"interp.construct_s", PerRound("interp.construct"), "s", ""},
      {"interp.ppp_extra_instrs", static_cast<double>(R.PppExtra), "count",
       ""},
      {"interp.pp_extra_instrs", static_cast<double>(R.PpExtra), "count", ""},
      {"flow.potential_s", PerRound("flow.potential"), "s", ""},
      {"flow.paths", static_cast<double>(R.FlowPaths), "count", ""},
      {"metrics.s", PerRound("metrics"), "s", ""},
      {"trace.record_bytes", static_cast<double>(R.RecordBytes), "bytes", ""},
      {"trace.bytes_per_event",
       ratio(static_cast<double>(R.RecordBytes),
             static_cast<double>(R.RecordEvents)),
       "bytes/event", Str(R.RecordEvents) + " branch events recorded"},
      {"trace.decode_s", PerRound("trace.decode"), "s", ""},
      {"trace.decode_timed_s", PerRound("trace.decode_timed"), "s", ""},
      {"trace.timing_s", PerRound("trace.timing"), "s", ""},
      {"profile.export_s", PerRound("profile.export"), "s", ""},
      {"profile.encode_s", PerRound("profile.encode"), "s", ""},
      {"profile.frame_bytes", static_cast<double>(R.FrameBytes), "bytes", ""},
      {"serve.ingest_s", PerRound("serve.ingest"), "s", ""},
      {"serve.overflow_ratio",
       ratio(static_cast<double>(R.OverflowMerges),
             static_cast<double>(R.Merges)),
       "ratio", Str(R.Merges) + " merges"},
      {"serve.probes_per_merge",
       ratio(static_cast<double>(R.Probes), static_cast<double>(R.Merges)),
       "probes/merge", Str(R.Merges) + " merges"},
      {"serve.query_s", PerRound("serve.query"), "s", ""},
      {"serve.decay_s", PerRound("serve.decay"), "s", ""},
      {"adapt.epoch_s", B.adaptEpochSeconds() / Rounds, "s", ""},
      {"adapt.epochs", static_cast<double>(R.Epochs) / Rounds, "count", ""},
      {"adapt.installed", static_cast<double>(R.Installed) / Rounds, "count",
       ""},
      {"adapt.reverted", static_cast<double>(R.Reverted) / Rounds, "count",
       ""},
      {"adapt.revert_ratio",
       ratio(static_cast<double>(R.Reverted),
             static_cast<double>(R.Installed)),
       "ratio", Str(R.Installed) + " versions installed"},
      {"spans.uncovered_share", 1.0 - ratio(Covered, WallS), "ratio",
       std::to_string(WallS) + " s timed section"},
  };
}

void printMetrics(const char *Prefix, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms) {
    printf("%s%-26s %.10g %s", Prefix, M.Name.c_str(), M.Value,
           M.Unit.c_str());
    if (!M.Base.empty())
      printf("  (base: %s)", M.Base.c_str());
    printf("\n");
  }
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    double V = std::isfinite(Ms[I].Value) ? Ms[I].Value : 0;
    snprintf(Buf, sizeof(Buf), "%.10g", V);
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return Out + "}}";
}

int usage() {
  fprintf(stderr,
          "usage: perfbench --workload online|collect --seed N "
          "--seconds S --trace 0|1\n"
          "       perfbench --selftest\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  double BeforeMain = secondsSinceProcessStart();
  Clock::time_point MainT0 = Clock::now();

  const std::string SpansDir = ".bench_out";
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--selftest")
      return runSelfTest();
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == 0 && !V.empty();
    } else if (A == "--seconds") {
      Seconds = std::strtod(V.c_str(), &End);
      if (*End != 0)
        Seconds = -1;
    } else if (A == "--trace") {
      Trace = V == "0" ? 0 : V == "1" ? 1 : -1;
    } else {
      return usage();
    }
  }
  const Mix *M = findMix(Workload);
  if (!M || !HaveSeed || !(Seconds > 0 && Seconds <= 600) || Trace < 0)
    return usage();

  SpanRecorder Spans(Trace == 1);
  Bench B(*M, Seed, Spans);
  std::string Error;
  if (!B.setUp(Error)) {
    fprintf(stderr, "error: set-up failed: %s\n", Error.c_str());
    return 1;
  }
  double SetupS = BeforeMain + secondsSince(MainT0);

  int64_t FromNs = Spans.nowNs();
  Clock::time_point T0 = Clock::now();
  unsigned Rounds = 0;
  do {
    Scope S(Spans, "round", /*Stage=*/true);
    B.runRound();
    ++Rounds;
  } while (secondsSince(T0) < Seconds);
  double WallS = secondsSince(T0);
  int64_t ToNs = Spans.nowNs();
  B.tearDown();

  const Results &R = B.results();
  bool Correct = true;
  printf("perfbench %s seed %llu: %u rounds in %.3f s (set-up %.3f s)\n",
         M->Name, static_cast<unsigned long long>(Seed), Rounds, WallS,
         SetupS);
  for (CheckTally *T : B.tallies().all()) {
    printf("check %-52s %s  (%llu checked, %llu wrong)\n", T->Name.c_str(),
           T->ok() ? "ok" : "FAILED",
           static_cast<unsigned long long>(T->Checked),
           static_cast<unsigned long long>(T->Violations));
    if (!T->ok()) {
      printf("  first: %s\n", T->First.c_str());
      Correct = false;
    }
    if (T->Checked == 0) {
      printf("  no output was checked\n");
      Correct = false;
    }
  }

  std::vector<Metric> E2E = endToEnd(R, SetupS);
  printMetrics(Trace ? "traced " : "metric ", E2E);
  std::vector<Metric> Result = E2E;
  if (Trace) {
    Result = perLayer(B, Spans, FromNs, ToNs, Rounds, WallS);
    printMetrics("metric ", Result);
    // Each stage's share of the timed section, and where set-up's time
    // went, from the same spans.
    std::map<std::string, SpanRecorder::NameTotals> Tot =
        Spans.totalsByName(FromNs, ToNs);
    for (const char *Stage : {"stage.evaluate", "stage.online", "stage.collect"})
      printf("share %-20s %.4f  (base: %.3f s timed section)\n", Stage,
             ratio(Tot[Stage].Total, WallS), WallS);
    for (const auto &[Name, T] : Spans.totalsByName(0, FromNs))
      printf("setup-span %-20s %.4f s  (%llu spans)\n", Name.c_str(), T.Total,
             static_cast<unsigned long long>(T.Count));
    mkdir(SpansDir.c_str(), 0755);
    std::string Path = SpansDir + "/spans-" + M->Name + "-" +
                       std::to_string(Seed) + ".json";
    if (!Spans.writeJson(Path)) {
      fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 1;
    }
    printf("spans: %zu written to %s\n", Spans.spans().size(), Path.c_str());
  }
  printf("attempted %llu failed %llu\n",
         static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed));
  printf("%s\n", resultJson(Correct, R.Attempted, R.Failed, Result).c_str());
  return Correct && R.Failed == 0 ? 0 : 1;
}
