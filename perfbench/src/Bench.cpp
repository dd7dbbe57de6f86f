//===- perfbench/src/Bench.cpp - Workload stages and their inputs ----------===//

#include "Bench.h"

#include "interp/Interpreter.h"
#include "metrics/Metrics.h"
#include "pass/Pipeline.h"
#include "pathprof/EstimatedProfile.h"
#include "profile/Merge.h"
#include "serve/Transport.h"
#include "trace/PathTiming.h"
#include "trace/TraceRecorder.h"
#include "workload/Generator.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <thread>

#include <pthread.h>
#include <sched.h>

using namespace ppp;
using namespace perfbench;

namespace {

/// The two mixes. The dominant stage of each takes most of a round
/// (the measured shares are in the README); the others keep enough work
/// for their metrics to repeat. The evaluate stage is a minor share of
/// both: an evaluate-dominated workload did not repeat within its bounds
/// on the reference host (README).
const Mix Mixes[] = {
    {"online", /*OnlineStride=*/1, /*OnlineReps=*/8, /*AdaptSubjects=*/4,
     /*CollectVariants=*/2, /*DecodeReps=*/3, /*IngestRepeat=*/2000,
     /*Queries=*/1000},
    {"collect", /*OnlineStride=*/2, /*OnlineReps=*/2, /*AdaptSubjects=*/2,
     /*CollectVariants=*/2, /*DecodeReps=*/10, /*IngestRepeat=*/6000,
     /*Queries=*/3000},
};

/// The recipes whose potential-flow path sets stay small at every seed.
/// The evaluate stage runs on these alone: reconstruction on the branchy INT recipes swings by 4x
/// with the seed and would make that share's time unsteady.
const char *const SmallPathRecipes[] = {"mcf", "wupwise", "applu", "art",
                                        "sixtrack"};

/// The profiler specs of Figures 9-13: the three presets and fig13's
/// leave-one-out rows.
const char *const EvalSpecs[] = {"pp",       "tpp",     "ppp",
                                 "ppp;-sac", "ppp;-fp", "ppp;-push",
                                 "ppp;-spn", "ppp;-lc"};

/// Client connections streaming into the server: at most nproc / 2 on
/// the 4-core reference host, fixed so every host runs the same load.
constexpr unsigned IngestClients = 2;

/// Timed ingest batches per round; every Mix::IngestRepeat divides by it.
constexpr unsigned IngestBatches = 20;

/// Pins the calling thread to CPU \p Cpu (no-op for a negative CPU).
void pinThread(int Cpu) {
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

/// hottestPaths(K) query size.
constexpr unsigned HotK = 100;

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t staticInstrCount(const Module &M) {
  uint64_t N = 0;
  for (const Function &F : M.Functions)
    for (const BasicBlock &B : F.Blocks)
      N += B.Instrs.size();
  return N;
}

uint64_t countSites(const Module &M) {
  uint64_t N = 0;
  for (const Function &F : M.Functions)
    for (const BasicBlock &B : F.Blocks)
      for (const Instr &I : B.Instrs)
        N += I.Op == Opcode::ProfCountIdx || I.Op == Opcode::ProfCountConst ||
             I.Op == Opcode::ProfCheckedCountIdx;
  return N;
}

/// The call-heavy phase shape of the adaptive experiment: most of the
/// specialization win is removed call overhead.
WorkloadParams callHeavyPhase(uint64_t Seed) {
  WorkloadParams P;
  P.Seed = Seed;
  P.NumFunctions = 10;
  P.LeafFunctions = 4;
  P.CallPct = 30;
  P.LoopPct = 12;
  P.MainLoopTrips = 6;
  return P;
}

/// Wraps the adaptive controller's epoch hook to time each epoch from
/// outside. The controller re-registers itself when it backs off its
/// period (to EpochCalls << Backoffs); the wrapper takes the hook back
/// at the same period.
class TimedEpochHook : public EpochHook {
public:
  TimedEpochHook(adapt::AdaptiveController &C, Interpreter &I,
                 SpanRecorder &Spans, double &Seconds)
      : C(C), I(I), Spans(Spans), Seconds(Seconds) {
    I.setEpochHook(this, period());
  }

  void onEpoch(uint64_t DynInstrs, uint64_t Cost) override {
    uint64_t Backoffs = C.stats().Backoffs;
    {
      Scope S(Spans, "adapt.epoch");
      Clock::time_point T0 = Clock::now();
      C.onEpoch(DynInstrs, Cost);
      Seconds += secondsSince(T0);
    }
    if (C.stats().Backoffs != Backoffs)
      I.setEpochHook(this, period());
  }

private:
  uint64_t period() const {
    return C.options().EpochCalls << C.stats().Backoffs;
  }

  adapt::AdaptiveController &C;
  Interpreter &I;
  SpanRecorder &Spans;
  double &Seconds;
};

} // namespace

struct Bench::OnlineModule {
  Prepared *P = nullptr;
  RunResult Ref;
  InstrumentationResult Ppp, Pp;
  std::unique_ptr<ProfileRuntime> PppRT, PpRT;
  CountsMessage PppRef, PpRef;
  uint64_t TraceBytes = 0, TraceEvents = 0;
};

struct Bench::AdaptSubject {
  std::string Name;
  Module M;
  RunResult Ref;
  std::unique_ptr<adapt::AdaptiveSession> Sess;
  std::unique_ptr<TimedEpochHook> Hook;
  adapt::AdaptStats Base;
};

struct Bench::CollectModule {
  Prepared *P = nullptr;
  InstrumentationResult IR, IRTimed;
  std::unique_ptr<trace::TraceDecoder> Dec, DecTimed;
  std::unique_ptr<trace::TraceRecorder> Rec, RecTimed;
  std::unique_ptr<ProfileRuntime> RT, RTTimed;
  CountsMessage Truth, TruthTimed;
  uint64_t CleanCost = 0;
};

void ItemTimes::add(size_t Item, double W, double Seconds) {
  if (Item >= Samples.size()) {
    Samples.resize(Item + 1);
    Work.resize(Item + 1, 0);
  }
  Work[Item] = W;
  Samples[Item].push_back(Seconds);
}

double ItemTimes::seconds() const {
  double Sum = 0;
  for (const std::vector<double> &S : Samples)
    if (!S.empty())
      Sum += *std::min_element(S.begin(), S.end());
  return Sum;
}

double ItemTimes::work() const {
  double Sum = 0;
  for (double W : Work)
    Sum += W;
  return Sum;
}

const Mix *perfbench::findMix(const std::string &Name) {
  for (const Mix &M : Mixes)
    if (Name == M.Name)
      return &M;
  return nullptr;
}

BenchmarkSpec perfbench::seededSpec(const BenchmarkSpec &Spec, uint64_t Seed,
                                    unsigned Variant) {
  BenchmarkSpec S = Spec;
  S.Params.Seed = Spec.Params.Seed ^ splitmix(Seed * 64 + Variant);
  S.Name = Spec.Name + "." + std::to_string(Variant);
  S.Params.Name = S.Name;
  return S;
}

Bench::Bench(const Mix &M, uint64_t Seed, SpanRecorder &Spans)
    : M(M), Seed(Seed), Spans(Spans) {}

Bench::~Bench() { tearDown(); }

void Bench::tearDown() {
  if (Server)
    Server->stop();
}

bool Bench::op(bool Ok) {
  ++R.Attempted;
  R.Failed += !Ok;
  return Ok;
}

std::unique_ptr<Prepared> Bench::prepare(const BenchmarkSpec &Spec,
                                         const Module &Original) {
  auto P = std::make_unique<Prepared>();
  P->Name = Spec.Name;
  P->Expanded = Original;
  P->Ctx.AllowInlining = Spec.AllowInlining;
  P->FAM = std::make_unique<FunctionAnalysisManager>(P->Expanded);
  // One single-pass pipeline per step over the shared analysis manager,
  // so each pass is timed on its own.
  std::string Pipeline = DefaultPreparePipelineSpec;
  size_t Pos = 0;
  while (Pos <= Pipeline.size()) {
    size_t Comma = std::min(Pipeline.find(',', Pos), Pipeline.size());
    std::string Step = Pipeline.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    ModulePassManager MPM;
    std::string Error;
    if (!parsePipeline(Step, MPM, Error))
      return nullptr;
    bool Profile = Step.rfind("profile", 0) == 0;
    bool Ok = timed(Profile ? "pass.profile" : "pass.transform",
                    [&] { return MPM.run(P->Expanded, *P->FAM, P->Ctx); });
    if (!Ok)
      return nullptr;
    if (Profile)
      P->ProfiledInstrs += P->Ctx.Profiles.back().DynInstrs;
  }
  if (P->Ctx.Profiles.empty())
    return nullptr;
  return P;
}

RunResult Bench::runTimed(const char *SpanName, Interpreter &I,
                          double &Seconds) {
  Scope S(Spans, SpanName);
  Clock::time_point T0 = Clock::now();
  RunResult Res = I.run();
  Seconds += secondsSince(T0);
  return Res;
}

std::unique_ptr<Interpreter> Bench::construct(const Module &Mod) {
  return timed("interp.construct",
               [&] { return std::make_unique<Interpreter>(Mod); });
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

bool Bench::setUp(std::string &Error) {
  Scope Setup(Spans, "setup", /*Stage=*/true);
  std::vector<BenchmarkSpec> Suite = spec2000Suite();

  // Generation: every (recipe, variant) any stage needs, once.
  std::optional<Scope> Part(std::in_place, Spans, "setup.generate", true);
  std::map<std::pair<size_t, unsigned>, Module> Generated;
  auto Need = [&](size_t RI, unsigned V) {
    auto Key = std::make_pair(RI, V);
    if (Generated.count(Key))
      return;
    BenchmarkSpec S = seededSpec(Suite[RI], Seed, V);
    Clock::time_point T0 = Clock::now();
    Module Mod = timed("workload.build", [&] { return buildCalibrated(S); });
    BuildS += secondsSince(T0);
    StaticInstrs += staticInstrCount(Mod);
    Generated.emplace(Key, std::move(Mod));
  };
  std::vector<size_t> EvalRecipes;
  for (size_t RI = 0; RI < Suite.size(); ++RI)
    if (std::find(std::begin(SmallPathRecipes), std::end(SmallPathRecipes),
                  Suite[RI].Name) != std::end(SmallPathRecipes))
      EvalRecipes.push_back(RI);
  for (size_t RI : EvalRecipes)
    Need(RI, 0);
  for (size_t RI = 0; RI < Suite.size(); RI += M.OnlineStride)
    Need(RI, 0);
  for (size_t RI = 0; RI < Suite.size(); ++RI)
    for (unsigned V = 0; V < M.CollectVariants; ++V)
      Need(RI, V);

  for (size_t RI : EvalRecipes)
    EvalInputs.emplace_back(seededSpec(Suite[RI], Seed, 0),
                            Generated.at({RI, 0}));

  // Preparation for the online and collect stages.
  Part.emplace(Spans, "setup.online", true);
  std::map<std::pair<size_t, unsigned>, Prepared *> Ready;
  auto PrepareOnce = [&](size_t RI, unsigned V) -> Prepared * {
    auto Key = std::make_pair(RI, V);
    if (auto It = Ready.find(Key); It != Ready.end())
      return It->second;
    std::unique_ptr<Prepared> P =
        prepare(seededSpec(Suite[RI], Seed, V), Generated.at(Key));
    if (!P)
      return nullptr;
    Pool.push_back(std::move(P));
    return Ready[Key] = Pool.back().get();
  };

  for (size_t RI = 0; RI < Suite.size(); RI += M.OnlineStride) {
    auto O = std::make_unique<OnlineModule>();
    O->P = PrepareOnce(RI, 0);
    if (!O->P) {
      Error = "preparation of " + Suite[RI].Name + " failed";
      return false;
    }
    const Module &E = O->P->Expanded;
    O->Ref = Interpreter(E).run();
    O->Ppp = instrumentModule(E, O->P->ep(), mustParseProfilerSpec("ppp"),
                              *O->P->FAM);
    O->Pp = instrumentModule(E, O->P->ep(), mustParseProfilerSpec("pp"),
                             *O->P->FAM);
    O->PppRT = std::make_unique<ProfileRuntime>(O->Ppp.makeRuntime());
    O->PpRT = std::make_unique<ProfileRuntime>(O->Pp.makeRuntime());
    for (auto [IR, RT, Ref, Extra] :
         {std::make_tuple(&O->Ppp, O->PppRT.get(), &O->PppRef, &R.PppExtra),
          std::make_tuple(&O->Pp, O->PpRT.get(), &O->PpRef, &R.PpExtra)}) {
      Interpreter I(IR->Instrumented);
      I.setProfileRuntime(RT);
      RunResult Res = I.run();
      if (Res.FuelExhausted || Res.MemChecksum != O->Ref.MemChecksum) {
        Error = "instrumented reference run of " + O->P->Name + " failed";
        return false;
      }
      *Extra += Res.DynInstrs - O->Ref.DynInstrs;
      *Ref = countsFromRun(O->P->Name, *IR, *RT);
    }
    trace::TraceRecorder Rec;
    Interpreter I(E);
    I.setTraceRecorder(&Rec);
    I.run();
    O->TraceBytes = Rec.recording().TotalBytes;
    O->TraceEvents = Rec.recording().CondEvents + Rec.recording().SwitchEvents;
    Online.push_back(std::move(O));
  }

  Part.emplace(Spans, "setup.adapt", true);
  for (unsigned SI = 0; SI < M.AdaptSubjects; ++SI) {
    auto A = std::make_unique<AdaptSubject>();
    PhasedWorkloadParams PP;
    PP.Name = "phased." + std::to_string(SI);
    PP.PhaseA = callHeavyPhase(splitmix(Seed * 8 + 2 * SI) % 100000 + 1);
    PP.PhaseB = callHeavyPhase(splitmix(Seed * 8 + 2 * SI + 1) % 100000 + 1);
    PP.PhaseLen = SI % 2 ? 4 : 16;
    PP.Trips = 64;
    Clock::time_point T0 = Clock::now();
    A->M = timed("workload.build",
                 [&] { return generatePhasedWorkload(PP); });
    BuildS += secondsSince(T0);
    StaticInstrs += staticInstrCount(A->M);
    A->Name = PP.Name;
    InterpOptions IO;
    A->Ref = Interpreter(A->M, IO).run();
    EdgeProfile Advice = adapt::AdaptiveSession::collectAdvice(A->M, IO);
    adapt::AdaptiveOptions AO;
    AO.EpochCalls = 256;
    AO.MinPathDelta = 4;
    AO.EvalEpochs = 6;
    AO.RevertThresholdPct = 60.0;
    A->Sess = adapt::AdaptiveSession::create(A->M, Advice, IO, AO);
    // Warm-up: the controller specializes the hot set before timing.
    for (unsigned Rep = 0; Rep < WarmupReps; ++Rep) {
      RunResult Got = A->Sess->run();
      if (Got.FuelExhausted || Got.MemChecksum != A->Ref.MemChecksum) {
        Error = "adaptive warm-up run of " + A->Name + " diverged";
        return false;
      }
    }
    if (Spans.enabled())
      A->Hook = std::make_unique<TimedEpochHook>(
          A->Sess->controller(), A->Sess->interp(), Spans, EpochS);
    A->Base = A->Sess->controller().stats();
    Adapt.push_back(std::move(A));
  }

  Part.emplace(Spans, "setup.collect", true);
  for (size_t RI = 0; RI < Suite.size(); ++RI) {
    for (unsigned V = 0; V < M.CollectVariants; ++V) {
      auto C = std::make_unique<CollectModule>();
      C->P = PrepareOnce(RI, V);
      if (!C->P) {
        Error = "preparation of " + Suite[RI].Name + " failed";
        return false;
      }
      const Module &E = C->P->Expanded;
      C->CleanCost = Interpreter(E).run().Cost;
      for (bool Timed : {false, true}) {
        InstrumentationResult &IR = Timed ? C->IRTimed : C->IR;
        IR = instrumentModule(E, C->P->ep(),
                              Timed ? ProfilerOptions::traceTimed()
                                    : ProfilerOptions::trace(),
                              *C->P->FAM);
        auto Rec = std::make_unique<trace::TraceRecorder>(
            trace::DefaultTraceChunkBytes, Timed);
        Interpreter I(E);
        I.setTraceRecorder(Rec.get());
        if (I.run().FuelExhausted) {
          Error = "trace recording of " + C->P->Name + " ran out of fuel";
          return false;
        }
        // Counter backend: the same plan, counted in the instrumented
        // module, is the ground truth every decode must reproduce.
        ProfileRuntime Truth = IR.makeRuntime();
        Interpreter Counted(IR.Instrumented);
        Counted.setProfileRuntime(&Truth);
        Counted.run();
        (Timed ? C->TruthTimed : C->Truth) =
            countsFromRun(C->P->Name, IR, Truth);
        (Timed ? C->DecTimed : C->Dec) =
            std::make_unique<trace::TraceDecoder>(E, IR);
        (Timed ? C->RTTimed : C->RT) =
            std::make_unique<ProfileRuntime>(IR.makeRuntime());
        (Timed ? C->RecTimed : C->Rec) = std::move(Rec);
      }
      Collect.push_back(std::move(C));
    }
  }

  // Every ingest thread runs on one CPU: the clients pin themselves, and
  // the server's session threads inherit the CPU set of its acceptor,
  // which is started while this thread is pinned. Loopback ingest then
  // costs the protocol and the merges alone. Unpinned, clients and
  // sessions woke each other across CPUs on every frame, and that cost
  // moved between two levels for minutes at a time on the reference VM.
  Part.reset();
  serve::ServerConfig SC;
  Server = std::make_unique<serve::ProfileServer>(SC);
  cpu_set_t Saved;
  bool HaveSaved =
      pthread_getaffinity_np(pthread_self(), sizeof(Saved), &Saved) == 0;
  IngestCpu = HaveSaved ? sched_getcpu() : -1;
  pinThread(IngestCpu);
  bool Started = Server->start(Error);
  if (HaveSaved)
    pthread_setaffinity_np(pthread_self(), sizeof(Saved), &Saved);
  return Started;
}

//===----------------------------------------------------------------------===//
// Rounds
//===----------------------------------------------------------------------===//

void Bench::runRound() {
  R.ExpandedInstrs = R.CountSitesPpp = R.CountSitesPp = 0;
  R.PpLost = R.PpStored = R.FlowPaths = R.ProfiledInstrs = 0;
  R.RecordBytes = R.RecordEvents = R.FrameBytes = 0;
  {
    Scope S(Spans, "stage.evaluate", /*Stage=*/true);
    evaluateStage();
  }
  {
    Scope S(Spans, "stage.online", /*Stage=*/true);
    onlineStage();
  }
  {
    Scope S(Spans, "stage.collect", /*Stage=*/true);
    collectStage();
  }
}

void Bench::evaluateStage() {
  for (size_t I = 0; I < EvalInputs.size(); ++I) {
    double Check0 = CheckS;
    Clock::time_point T0 = Clock::now();
    evaluateModule(EvalInputs[I].first, EvalInputs[I].second);
    R.Evaluate.add(I, 1, secondsSince(T0) - (CheckS - Check0));
  }
}

void Bench::evaluateModule(const BenchmarkSpec &Spec, const Module &Original) {
  std::unique_ptr<Prepared> P = prepare(Spec, Original);
  if (!op(P != nullptr))
    return;
  const Module &E = P->Expanded;
  const EdgeProfile &EP = P->ep();
  const PathProfile &Oracle = P->oracle();
  R.ExpandedInstrs += staticInstrCount(E);
  R.ProfiledInstrs += P->ProfiledInstrs;

  double Unused = 0;
  RunResult Ref = runTimed("interp.clean", *construct(E), Unused);
  if (!op(!Ref.FuelExhausted))
    return;
  check([&] { checkOracleTotals(T.OracleTotals, P->Name, E, EP, Oracle); });

  // Edge-profile estimation (the "edge profiling" bars of Figs. 9/10,
  // and the swim/mgrid exception's estimates).
  uint64_t HotCut = static_cast<uint64_t>(
      DefaultHotFraction *
      static_cast<double>(Oracle.totalFlow(FlowMetric::Branch)) / 2.0);
  PathProfile Potential = timed("flow.potential", [&] {
    return estimateFromEdgeProfile(E, EP, FlowKind::Potential, HotCut,
                                   FlowMetric::Branch);
  });
  PathProfile Definite = timed("flow.definite", [&] {
    return estimateFromEdgeProfile(E, EP, FlowKind::Definite, 0,
                                   FlowMetric::Branch);
  });
  op(true);
  R.FlowPaths += Potential.distinctPaths();
  auto [EdgeAcc, EdgeCov] = timed("metrics", [&] {
    return std::make_pair(
        computeAccuracy(Oracle, Potential, FlowMetric::Branch),
        computeEdgeCoverage(E, EP, Oracle, FlowMetric::Branch));
  });
  check([&] {
    checkFlowBounds(T.FlowBounds, P->Name, Definite, Potential, Oracle);
    checkUnit(T.UnitRange, P->Name + " edge accuracy", EdgeAcc.Accuracy);
    checkUnit(T.UnitRange, P->Name + " edge coverage", EdgeCov);
  });

  for (const char *SpecText : EvalSpecs) {
    ProfilerOptions Opts = mustParseProfilerSpec(SpecText);
    std::string What = P->Name + " " + SpecText;
    InstrumentationResult IR = timed("pathprof.instrument", [&] {
      return instrumentModule(E, EP, Opts, *P->FAM);
    });
    ProfileRuntime RT = IR.makeRuntime();
    std::unique_ptr<Interpreter> I = construct(IR.Instrumented);
    I->setProfileRuntime(&RT);
    RunResult Got = runTimed("interp.counted", *I, Unused);
    if (!op(!Got.FuelExhausted))
      continue;
    ProfilerRunData Run = timed("pathprof.estimate", [&] {
      return buildEstimatedProfile(E, EP, IR, RT);
    });
    bool Any = std::any_of(IR.Plans.begin(), IR.Plans.end(),
                           [](const FunctionPlan &FP) {
                             return FP.Instrumented;
                           });
    struct Scores {
      AccuracyResult Acc;
      CoverageResult Cov;
      InstrumentedFraction Frac;
    };
    // Sec. 6.1: a profiler that instruments nothing (swim, mgrid) is
    // scored on the potential-flow estimates, like edge profiling.
    Scores Sc = timed("metrics", [&] {
      return Scores{computeAccuracy(Oracle, Any ? Run.Estimated : Potential,
                                    FlowMetric::Branch),
                    computeProfilerCoverage(IR, Run, Oracle,
                                            FlowMetric::Branch),
                    computeInstrumentedFraction(IR, Oracle)};
    });
    check([&] {
      checkSameResult(T.SameResult, What, Ref, Got);
      checkUnit(T.UnitRange, What + " accuracy", Sc.Acc.Accuracy);
      checkUnit(T.UnitRange, What + " coverage", Sc.Cov.Coverage);
      checkUnit(T.UnitRange, What + " instrumented fraction", Sc.Frac.Total);
      checkUnit(T.UnitRange, What + " hashed fraction", Sc.Frac.Hashed);
      if (Opts.Name == "pp")
        checkPpExact(T.PpExact, What, IR, Run, Oracle);
    });
    if (Opts.Name == "pp") {
      R.CountSitesPp += countSites(IR.Instrumented);
      R.PpLost += Run.LostCounts;
      for (uint64_t S : Run.FuncStored)
        R.PpStored += S;
    } else if (Opts.Name == "ppp") {
      R.CountSitesPpp += countSites(IR.Instrumented);
    }
  }
}

void Bench::onlineStage() {
  // One fixed interleaved order per module and rep: clean, ppp, pp,
  // trace. Mode order moves per-mode figures, so it never changes.
  for (unsigned Rep = 0; Rep < M.OnlineReps; ++Rep) {
    for (size_t Idx = 0; Idx < Online.size(); ++Idx) {
      const OnlineModule *O = Online[Idx].get();
      const Module &E = O->P->Expanded;
      const std::string &Name = O->P->Name;
      // Effective MIPS: every mode is credited the clean run's work.
      double Work = static_cast<double>(O->Ref.DynInstrs) * 1e-6;

      double Secs = 0;
      RunResult Got = runTimed("interp.clean", *construct(E), Secs);
      R.Clean.add(Idx, Work, Secs);
      op(!Got.FuelExhausted);
      check([&] { checkSameResult(T.SameResult, Name + " clean", O->Ref, Got); });

      for (auto [Mode, IR, RT, Ref, Acc] :
           {std::make_tuple("interp.ppp", &O->Ppp, O->PppRT.get(),
                            &O->PppRef, &R.Ppp),
            std::make_tuple("interp.pp", &O->Pp, O->PpRT.get(), &O->PpRef,
                            &R.Pp)}) {
        RT->clearCounts();
        std::unique_ptr<Interpreter> I = construct(IR->Instrumented);
        I->setProfileRuntime(RT);
        Secs = 0;
        Got = runTimed(Mode, *I, Secs);
        Acc->add(Idx, Work, Secs);
        op(!Got.FuelExhausted);
        check([&] {
          checkSameResult(T.SameResult, Name + " " + Mode, O->Ref, Got);
          checkCountsEqual(T.Repeat, Name + " " + Mode, *Ref,
                           countsFromRun(Name, *IR, *RT));
        });
      }

      trace::TraceRecorder Rec;
      std::unique_ptr<Interpreter> I = construct(E);
      I->setTraceRecorder(&Rec);
      Secs = 0;
      Got = runTimed("interp.trace", *I, Secs);
      R.Trace.add(Idx, Work, Secs);
      op(!Got.FuelExhausted);
      const trace::TraceRecording &TR = Rec.recording();
      R.RecordBytes += TR.TotalBytes;
      R.RecordEvents += TR.CondEvents + TR.SwitchEvents;
      check([&] {
        checkSameResult(T.SameResult, Name + " trace", O->Ref, Got);
        if (TR.TotalBytes != O->TraceBytes ||
            TR.CondEvents + TR.SwitchEvents != O->TraceEvents)
          T.Repeat.fail(Name + " trace: recording differs from set-up's");
        else
          T.Repeat.pass();
      });
    }
    // Each pass ends with one run of every adaptive subject, so a
    // subject's samples are spread over the whole stage instead of taken
    // back to back.
    for (size_t Idx = 0; Idx < Adapt.size(); ++Idx) {
      AdaptSubject *A = Adapt[Idx].get();
      RunResult Got;
      {
        Scope S(Spans, "interp.adaptive");
        Clock::time_point T0 = Clock::now();
        Got = A->Sess->run();
        R.Adaptive.add(Idx, static_cast<double>(A->Ref.DynInstrs) * 1e-6,
                       secondsSince(T0));
      }
      op(!Got.FuelExhausted);
      check([&] {
        checkSameResult(T.SameResult, A->Name + " adaptive", A->Ref, Got);
      });
    }
  }
  R.Epochs = R.Installed = R.Reverted = 0;
  for (const std::unique_ptr<AdaptSubject> &A : Adapt) {
    const adapt::AdaptStats &St = A->Sess->controller().stats();
    R.Epochs += St.Epochs - A->Base.Epochs;
    R.Installed += St.VersionsInstalled - A->Base.VersionsInstalled;
    R.Reverted += St.VersionsReverted - A->Base.VersionsReverted;
  }
}

void Bench::collectStage() {
  std::vector<CountsMessage> Msgs;
  std::vector<std::string> Frames;
  for (size_t Idx = 0; Idx < Collect.size(); ++Idx) {
    const CollectModule *C = Collect[Idx].get();
    const std::string &Name = C->P->Name;
    for (bool Timed : {false, true}) {
      ProfileRuntime &RT = Timed ? *C->RTTimed : *C->RT;
      const trace::TraceDecoder &Dec = Timed ? *C->DecTimed : *C->Dec;
      const trace::TraceRecording &Rec =
          (Timed ? C->RecTimed : C->Rec)->recording();
      // Repeated decodes of one recording each start from zeroed
      // counters and a fresh timing profile; the last one is checked.
      trace::PathTimingProfile Timing;
      bool Ok = true;
      for (unsigned Rep = 0; Rep < M.DecodeReps; ++Rep) {
        RT.clearCounts();
        Timing = trace::PathTimingProfile();
        trace::DecodeStats DS;
        std::string Error;
        {
          Scope S(Spans, Timed ? "trace.decode_timed" : "trace.decode");
          Clock::time_point T0 = Clock::now();
          Ok = Dec.decode(Rec, RT, DS, Error, Timed ? &Timing : nullptr);
          (Timed ? R.TimedDecode : R.Decode)
              .add(Idx,
                   static_cast<double>(DS.CondEvents + DS.SwitchEvents) * 1e-6,
                   secondsSince(T0));
        }
        if (!op(Ok))
          break;
      }
      if (!Ok)
        continue;
      const InstrumentationResult &IR = Timed ? C->IRTimed : C->IR;
      if (Timed) {
        timed("trace.timing", [&] {
          Timing.finishPhases();
          return 0;
        });
        check([&] {
          checkCostConserved(T.Conserved, Name, Timing.attributedCost(),
                             Timing.unattributedCost(), C->CleanCost);
          checkCountsEqual(T.Decoded, Name + " timed decode", C->TruthTimed,
                           countsFromRun(Name, IR, RT));
        });
        continue;
      }
      CountsMessage Msg =
          timed("profile.export", [&] { return countsFromRun(Name, IR, RT); });
      check([&] { checkCountsEqual(T.Decoded, Name + " decode", C->Truth, Msg); });
      Frames.push_back(timed("profile.encode",
                             [&] { return writeCountsBinary(Msg); }));
      R.FrameBytes += Frames.back().size();
      Msgs.push_back(std::move(Msg));
    }
  }

  op(ingest(Frames));
  serve::Aggregator &Agg = Server->aggregator();

  size_t Rows = 0;
  check([&] {
    for (unsigned Rep = 0; Rep < M.IngestRepeat; ++Rep)
      for (const CountsMessage &Msg : Msgs)
        Fold.add(Msg);
    std::vector<serve::NamedRow> Snap = Agg.snapshotRows();
    sortRows(Snap);
    checkRowsEqual(T.Snapshot, "aggregate", Fold.rows(), Snap);
    Rows = Snap.size();
  });

  // A query reads every row of the aggregate, whose size follows the
  // seed's modules (1.8x apart over seeds 1-10), so query throughput is
  // counted in aggregate rows answered per second.
  std::vector<serve::NamedRow> Top;
  {
    Scope S(Spans, "serve.query");
    for (unsigned Q = 0; Q < M.Queries; ++Q) {
      Clock::time_point T0 = Clock::now();
      Top = Agg.hottestPaths(HotK);
      R.Query.add(0, static_cast<double>(Rows) * 1e-6, secondsSince(T0));
      op(!Top.empty());
    }
  }
  check([&] { checkRowsEqual(T.TopK, "hottestPaths", Fold.topPaths(HotK), Top); });

  timed("serve.decay", [&] {
    Agg.decay();
    return 0;
  });
  op(true);
  Fold.decay();
}

bool Bench::ingest(const std::vector<std::string> &Frames) {
  // Each client streams its share of the frames over its own loopback
  // connection. A round's IngestRepeat repeats are sent as IngestBatches
  // batches, one session per client each. Every batch sends the same
  // bytes, so the batches of all rounds are samples of one item, and
  // its minimum is taken over all of them.
  std::vector<std::string> Shares(IngestClients);
  std::vector<uint64_t> PerShare(IngestClients, 0);
  for (unsigned C = 0; C < IngestClients; ++C)
    for (size_t I = C; I < Frames.size(); I += IngestClients, ++PerShare[C])
      Shares[C] += Frames[I];
  unsigned Repeat = M.IngestRepeat / IngestBatches;

  serve::Aggregator &Agg = Server->aggregator();
  bool Ok = true;
  for (unsigned Batch = 0; Batch < IngestBatches; ++Batch) {
    serve::Aggregator::Stats Before = Agg.stats();
    Scope S(Spans, "serve.ingest");
    Clock::time_point T0 = Clock::now();
    std::atomic<unsigned> Connected{0}, SendErrors{0};
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < IngestClients; ++C)
      Clients.emplace_back([&, C] {
        pinThread(IngestCpu);
        std::string Error;
        int Fd = serve::connectLoopback(Server->port(), Error);
        if (Fd < 0) {
          ++SendErrors;
          return;
        }
        ++Connected;
        bool Sent = serve::sendAll(
            Fd, serve::helloMessage("perfbench-" + std::to_string(C)), Error);
        for (unsigned Rep = 0; Sent && Rep < Repeat; ++Rep)
          Sent = serve::sendAll(Fd, Shares[C], Error);
        Sent = Sent && serve::sendAll(
                           Fd, serve::byeMessage(PerShare[C] * Repeat), Error);
        if (!Sent)
          ++SendErrors;
        serve::closeFd(Fd);
      });
    for (std::thread &Th : Clients)
      Th.join();
    // Sessions end on the server's threads after the last byte arrives.
    uint64_t Target = SessionsSent + Connected.load();
    Clock::time_point Deadline = Clock::now() + std::chrono::seconds(60);
    while (Server->cleanSessions() + Server->failedSessions() < Target &&
           Clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    double Seconds = secondsSince(T0);
    SessionsSent = Target;
    serve::Aggregator::Stats After = Agg.stats();
    uint64_t Merges = After.Merges - Before.Merges;
    R.Merges += Merges;
    R.OverflowMerges += After.OverflowMerges - Before.OverflowMerges;
    R.Probes += After.Probes - Before.Probes;
    R.Ingest.add(0, static_cast<double>(Merges) * 1e-6, Seconds);
    Ok = Ok && SendErrors == 0 &&
         Server->cleanSessions() + Server->failedSessions() >= Target;
  }
  return Ok && Server->failedSessions() == 0;
}
