//===- perfbench/main.cpp - End-to-end benchmark program ------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for --seconds in rounds of timed set-ups followed by
// complete analyses back to back, then the correctness gate and its
// self-test, outside the timed analyses. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it interleaves untraced and traced
// analyses and reports the per-layer split. The last stdout line is the
// JSON record.
//
// Usage: psg-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --out DIR [--git-sha SHA]
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "device/DeviceRuntime.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "vgpu/CostModel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace psg;
using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir;
  std::string GitSha = "unknown";
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "psg-perfbench: %s\nusage: psg-perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out DIR [--git-sha SHA]\n",
               Why.c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace")
      Opts.Trace = Value == "1";
    else if (Flag == "--out")
      Opts.OutDir = Value;
    else if (Flag == "--git-sha")
      Opts.GitSha = Value;
    else
      usage("unknown flag " + Flag);
    if (End && *End)
      usage("bad number for " + Flag + ": " + Value);
  }
  if (Opts.Workload.empty() || Opts.OutDir.empty())
    usage("--workload and --out are required");
  if (!(Opts.Seconds > 0.0))
    usage("--seconds must be positive");
  return Opts;
}

/// Wall time of analyses on one engine before the next round sets up.
constexpr double RoundSeconds = 2.0;
/// Timed set-ups at the start of every round.
constexpr size_t SetupsPerRound = 3;
/// Largest share of a traced analysis' wall time the layers may leave
/// unattributed.
constexpr double UnattributedLimit = 0.10;

/// Median of \p Values, the mean of the middle two for an even count.
double median(std::vector<double> Values) {
  if (Values.empty())
    return NAN;
  std::sort(Values.begin(), Values.end());
  const size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += formatString("\\u%04x", C);
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  return std::isfinite(V) ? formatString("%.17g", V) : "null";
}

/// A reported metric: value, unit, and the number of samples behind it.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  size_t Samples;
};

/// Threads that join each kernel on the engine's runtime (pool workers
/// plus the caller), asked of an identically built host runtime.
unsigned hostParallelism() {
  auto Rt = createDeviceRuntime(RuntimeKind::Host,
                                CostModel::paperSetup().gpu());
  return Rt ? (*Rt)->hostParallelism() : 0;
}

std::string manifestJson(const Options &Opts, Workload &W,
                         unsigned Parallelism) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::string Cpus;
  size_t Affinity = 0;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set)) {
        Cpus += (Affinity++ ? "," : "") + std::to_string(C);
      }
#ifdef NDEBUG
  const bool NDebug = true;
#else
  const bool NDebug = false;
#endif
  return formatString(
      "{\"git_sha\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"ndebug\": %s, \"hw_threads\": %u, "
      "\"affinity_cpus\": %zu, \"affinity\": %s, \"host_parallelism\": %u, "
      "\"workload\": %s, \"seed\": %llu, \"parameters\": %s, "
      "\"model_fingerprint\": \"%016llx\", \"personality\": \"psg-engine\", "
      "\"runtime\": \"host\", \"sharding\": \"off\", \"trace\": %d, "
      "\"seconds\": %s}",
      jsonString(Opts.GitSha).c_str(), jsonString(PERFBENCH_COMPILER).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(),
      jsonString(PERFBENCH_CXX_FLAGS).c_str(), NDebug ? "true" : "false",
      std::thread::hardware_concurrency(), Affinity, jsonString(Cpus).c_str(),
      Parallelism, jsonString(Opts.Workload).c_str(),
      (unsigned long long)Opts.Seed, W.parametersJson().c_str(),
      (unsigned long long)W.fingerprint(), Opts.Trace ? 1 : 0,
      jsonNumber(Opts.Seconds).c_str());
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

double counter(const MetricsSnapshot &M, const std::string &Name) {
  return static_cast<double>(M.counterValue(Name));
}

/// Sum of the per-solver counters psg.ode.<solver>.<Suffix> over every
/// solver that ran.
double solverCounterSum(const MetricsSnapshot &M, const std::string &Suffix) {
  double Sum = 0.0;
  for (const CounterSample &C : M.Counters)
    if (C.Name.starts_with("psg.ode.") && C.Name.ends_with("." + Suffix))
      Sum += static_cast<double>(C.Value);
  return Sum;
}

/// Per-layer split of the traced analyses, averaged per analysis.
/// `_wall_s` figures are critical-path wall time on the calling thread;
/// `_worker_s` figures sum busy time over the kernel's parallel workers
/// and never enter a wall-time sum.
class LayerSplit {
public:
  explicit LayerSplit(unsigned Parallelism) : Parallelism(Parallelism) {}

  void add(const AnalysisSample &S, const MetricsSnapshot &M) {
    ++Analyses;
    // Critical-path terms. Each is measured on its own: the benchmark
    // times the library calls and the CSV write, the engine times each
    // sub-batch's prepare, dispatch and sink, the virtual device each
    // kernel. The post-engine time is the only one derived, as the
    // analysis calls' time outside their engine calls.
    const double Engine = S.engineWallSeconds();
    const double Prepare = histogramSum(M, "psg.engine.sub_batch.prepare_s");
    const double Dispatch = histogramSum(M, "psg.engine.sub_batch.dispatch_s");
    const double Sink = histogramSum(M, "psg.engine.sub_batch.sink_s");
    const double Kernel = histogramSum(M, "psg.vgpu.kernel_wall_s");
    const double Post = S.StepWallSeconds - Engine;
    const double PoolWall = M.gaugeValue("psg.vgpu.pool.wall_s");
    const double PoolBusy = M.gaugeValue("psg.vgpu.pool.busy_s");

    Sum["rbm.compilations_analysis"] += counter(M, "psg.rbm.compilations");
    Sum["rbm.rhs_evals"] += solverCounterSum(M, "rhs_evaluations");
    Sum["rbm.jacobian_evals"] += solverCounterSum(M, "jacobian_evaluations");
    Sum["core.generate_wall_s"] += Prepare;
    Sum["core.engine_calls"] += static_cast<double>(S.CallWallSeconds.size());
    Sum["core.engine_wall_s"] += Engine;
    Sum["core.sub_batches"] += counter(M, "psg.engine.sub_batches");
    Peak = std::max(Peak, M.gaugeValue("psg.engine.peak_resident_outcomes"));
    Sum["vgpu.kernel_wall_s"] += Kernel;
    Sum["vgpu.pool_busy_worker_s"] += PoolBusy;
    Sum["vgpu.pool_idle_worker_s"] += Parallelism * PoolWall - PoolBusy;
    Sum["sim.dispatch_overhead_wall_s"] += Dispatch - Kernel;
    Sum["ode.steps"] += solverCounterSum(M, "accepted_steps") +
                        solverCounterSum(M, "rejected_steps");
    Sum["ode.rejected_steps"] += solverCounterSum(M, "rejected_steps");
    // Newton iterations and LU counts exist only in the engine's
    // IntegrationStats, which the analysis returns.
    Sum["ode.newton_iters"] += static_cast<double>(S.Stats.NewtonIterations);
    Sum["linalg.lu_factorizations"] += static_cast<double>(
        S.Stats.LuFactorizations + S.Stats.ComplexLuFactorizations);
    Sum["linalg.lu_solves"] += static_cast<double>(S.Stats.LuSolves);
    const double Attempts = counter(M, "psg.ode.dopri5.integrations");
    Sum["ode.explicit_attempts"] += Attempts;
    Sum["ode.explicit_finished"] +=
        Attempts - counter(M, "psg.ode.dopri5.failures");
    Sum["ode.stiffness_reroutes"] +=
        counter(M, "psg.engine.stiffness_reroutes");
    Sum["ode.explicit_worker_s"] +=
        histogramSum(M, "psg.ode.dopri5.integrate_wall_s");
    Sum["ode.implicit_worker_s"] +=
        histogramSum(M, "psg.ode.radau5.integrate_wall_s");
    Sum["analysis.reduce_wall_s"] += Sink;
    Sum["analysis.post_wall_s"] += Post;
    Sum["io.csv_write_wall_s"] += S.CsvWallSeconds;
    Sum["io.csv_bytes"] += static_cast<double>(S.CsvBytes);
    // Closure: what the layers account for against the analysis wall.
    // The rest is time the benchmark's timers see but no layer claims:
    // the engine's own bookkeeping outside its sub-batch phases and the
    // library's work around its engine call inside a timed call.
    const double SelfTimes =
        Prepare + Dispatch + Sink + Post + S.CsvWallSeconds;
    Sum["trace.wall_s"] += S.WallSeconds;
    Sum["trace.unattributed_s"] += S.WallSeconds - SelfTimes;
  }

  std::vector<Metric> metrics(double CompileWall, double SetupCompilations,
                              double OverheadRatio, size_t TracedCalls) const {
    const double N = static_cast<double>(Analyses);
    auto Per = [&](const char *Name) { return at(Name) / N; };
    const double Attempts = at("ode.explicit_attempts");
    return {
        {"rbm.compile_wall_s", CompileWall, "s", 1},
        {"rbm.compilations",
         SetupCompilations + Per("rbm.compilations_analysis"), "count",
         Analyses},
        {"rbm.rhs_evals", Per("rbm.rhs_evals"), "count", Analyses},
        {"rbm.jacobian_evals", Per("rbm.jacobian_evals"), "count", Analyses},
        {"core.generate_wall_s", Per("core.generate_wall_s"), "s", Analyses},
        {"core.engine_calls", Per("core.engine_calls"), "count", Analyses},
        {"core.engine_wall_s", Per("core.engine_wall_s"), "s", TracedCalls},
        {"core.sub_batches", Per("core.sub_batches"), "count", Analyses},
        {"core.peak_resident_outcomes", Peak, "count", Analyses},
        {"vgpu.kernel_wall_s", Per("vgpu.kernel_wall_s"), "s", Analyses},
        {"vgpu.pool_busy_worker_s", Per("vgpu.pool_busy_worker_s"),
         "worker-s", Analyses},
        {"vgpu.pool_idle_worker_s", Per("vgpu.pool_idle_worker_s"),
         "worker-s", Analyses},
        {"sim.dispatch_overhead_wall_s", Per("sim.dispatch_overhead_wall_s"),
         "s", Analyses},
        {"ode.steps", Per("ode.steps"), "count", Analyses},
        {"ode.rejected_steps", Per("ode.rejected_steps"), "count", Analyses},
        {"ode.newton_iters", Per("ode.newton_iters"), "count", Analyses},
        {"ode.explicit_attempts", Per("ode.explicit_attempts"), "count",
         Analyses},
        {"ode.stiffness_reroutes", Per("ode.stiffness_reroutes"), "count",
         Analyses},
        {"ode.explicit_useful_ratio",
         Attempts > 0 ? at("ode.explicit_finished") / Attempts : 0.0,
         "ratio", Analyses},
        {"ode.explicit_worker_s", Per("ode.explicit_worker_s"), "worker-s",
         Analyses},
        {"ode.implicit_worker_s", Per("ode.implicit_worker_s"), "worker-s",
         Analyses},
        {"linalg.lu_factorizations", Per("linalg.lu_factorizations"), "count",
         Analyses},
        {"linalg.lu_solves", Per("linalg.lu_solves"), "count", Analyses},
        {"analysis.reduce_wall_s", Per("analysis.reduce_wall_s"), "s",
         Analyses},
        {"analysis.post_wall_s", Per("analysis.post_wall_s"), "s", Analyses},
        {"io.csv_write_wall_s", Per("io.csv_write_wall_s"), "s", Analyses},
        {"io.csv_bytes", Per("io.csv_bytes"), "bytes", Analyses},
        {"trace.unattributed_ratio",
         at("trace.unattributed_s") / at("trace.wall_s"), "ratio", Analyses},
        {"trace.overhead_ratio", OverheadRatio, "ratio", Analyses},
    };
  }

private:
  unsigned Parallelism;
  size_t Analyses = 0;
  double Peak = 0.0;
  std::map<std::string, double> Sum;

  double at(const char *Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? 0.0 : It->second;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(Opts.Workload, Opts.Seed,
                                             Opts.OutDir);
  if (!W)
    usage("unknown workload " + Opts.Workload);

  // The run is a series of rounds. Each sets the workload up afresh
  // (several timed set-ups, the last one kept) and then runs analyses on
  // that engine for RoundSeconds, so set-up samples and fresh worker
  // pools are spread over the whole run. Every analysis runs the same
  // code and is followed by a registry snapshot, outside its wall time;
  // a traced analysis only has its snapshot split into layers. Traced
  // runs alternate untraced and traced analyses in pairs whose order
  // flips; the overhead is the median traced / untraced ratio within a
  // pair, so slow drifts of the host cancel.
  std::vector<double> SetupSeconds, CompileSeconds, SetupCompilations;
  std::vector<double> Walls, Modeled, Throughputs;
  // Traced / untraced wall time of the two analyses of each pair.
  std::vector<double> OverheadRatios;
  double PairTraced = 0.0, PairUntraced = 0.0;
  uint64_t Attempted = 0, Failed = 0;
  size_t TracedCalls = 0;
  const unsigned Parallelism = hostParallelism();
  LayerSplit Layers(Parallelism);
  Counter &Compilations = metrics().counter("psg.rbm.compilations");
  const size_t MinAnalyses = Opts.Trace ? 4 : 3;
  // One untimed analysis first: the process' first analysis runs on cold
  // caches and freshly faulted memory that no later analysis sees.
  W->setUp();
  W->analyze();
  WallTimer Window;
  size_t I = 0;
  for (bool Done = false; !Done;) {
    for (size_t K = 0; K < SetupsPerRound; ++K) {
      const uint64_t Before = Compilations.value();
      WallTimer Timer;
      W->setUp();
      SetupSeconds.push_back(Timer.seconds());
      CompileSeconds.push_back(W->compileWallSeconds());
      SetupCompilations.push_back(
          static_cast<double>(Compilations.value() - Before));
    }
    WallTimer Round;
    do {
      const bool Traced = Opts.Trace && ((I % 2 == 1) != (I / 2 % 2 == 1));
      metrics().reset();
      const AnalysisSample S = W->analyze();
      const MetricsSnapshot M = metrics().snapshot();
      ++I;
      const uint64_t Simulations = M.counterValue("psg.engine.simulations");
      Attempted += Simulations;
      Failed += M.counterValue("psg.engine.failures");
      (Traced ? PairTraced : PairUntraced) = S.WallSeconds;
      if (Opts.Trace && I % 2 == 0)
        OverheadRatios.push_back(PairTraced / PairUntraced);
      if (Traced) {
        TracedCalls += S.CallWallSeconds.size();
        Layers.add(S, M);
      } else {
        Walls.push_back(S.WallSeconds);
        Throughputs.push_back(static_cast<double>(Simulations) /
                              S.engineWallSeconds());
        Modeled.push_back(M.gaugeValue("psg.engine.modeled_simulation_s"));
      }
      Done = I >= MinAnalyses && Window.seconds() >= Opts.Seconds &&
             (!Opts.Trace || I % 2 == 0);
    } while (!Done &&
             (Round.seconds() < RoundSeconds || (Opts.Trace && I % 2 == 1)));
  }
  const double PeakRss = peakRssMb();
  std::printf("analysis walls (s):");
  for (double Wall : Walls)
    std::printf(" %.4f", Wall);
  std::printf("\n");

  std::printf("manifest %s\n", manifestJson(Opts, *W, Parallelism).c_str());

  // Correctness gate and its self-test, outside the timed region.
  WallTimer GateTimer;
  std::vector<std::string> Problems = W->check();
  std::vector<std::string> Missed = W->selfTest();
  const double GateSeconds = GateTimer.seconds();
  for (const std::string &P : Problems)
    std::printf("gate: FAIL %s\n", P.c_str());
  for (const std::string &M : Missed)
    std::printf("gate self-test: FAIL %s\n", M.c_str());
  std::printf("gate: worst reference error %.3g (tolerance %.3g), %s; "
              "self-test %s; %.2f s\n",
              W->worstReferenceError(), W->referenceTolerance(),
              Problems.empty() ? "pass" : "FAIL",
              Missed.empty() ? "caught every perturbation" : "FAIL",
              GateSeconds);
  const bool Correct = Problems.empty() && Missed.empty();

  std::vector<Metric> Report;
  if (!Opts.Trace) {
    Report = {
        {"setup_s", median(SetupSeconds), "s", SetupSeconds.size()},
        {"analysis_wall_s", median(Walls), "s", Walls.size()},
        {"sims_per_wall_s", median(Throughputs), "1/s", Throughputs.size()},
        {"peak_rss_mb", PeakRss, "MB", 1},
        {"analysis_modeled_s", median(Modeled), "s", Modeled.size()},
    };
  } else {
    Report = Layers.metrics(median(CompileSeconds), median(SetupCompilations),
                            median(OverheadRatios), TracedCalls);
    for (const Metric &M : Report)
      if (M.Name == "trace.unattributed_ratio")
        std::printf("trace closure: %.3g of the analysis wall unattributed "
                    "(limit %.2f), %s\n",
                    M.Value, UnattributedLimit,
                    std::abs(M.Value) <= UnattributedLimit ? "ok" : "EXCEEDED");
  }

  std::string MetricsJson;
  for (const Metric &M : Report) {
    std::printf("%-30s %14.6g %-8s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
    MetricsJson += formatString("%s%s: {\"value\": %s, \"unit\": %s}",
                                MetricsJson.empty() ? "" : ", ",
                                jsonString(M.Name).c_str(),
                                jsonNumber(M.Value).c_str(),
                                jsonString(M.Unit).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed,
              MetricsJson.c_str());
  return Correct ? 0 : 1;
}
