//===- perfbench/Workloads.h - End-to-end analysis workloads ----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two of the paper's analyses, the PSA-2D sweep and the Sobol
/// sensitivity analysis, run whole through the public API: model ->
/// PointGenerator -> BatchEngine -> psg-engine personality -> reducer ->
/// CSV, on the default eager host runtime with no sharding. Each workload
/// owns its set-up, one complete analysis, and a correctness gate that
/// runs outside the timed region.
///
/// Layer attribution is done from outside the library: the benchmark
/// times its own calls into the library's analysis functions and reads
/// the counters and histograms the library already records in its
/// metrics registry. The caller resets the registry before every
/// analysis, so the registry holds that analysis' figures afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_PERFBENCH_WORKLOADS_H
#define PSG_PERFBENCH_WORKLOADS_H

#include "core/BatchEngine.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one complete analysis cost, as timed by the benchmark. Every
/// `*WallSeconds` field is host wall clock on the calling thread, i.e.
/// on the analysis' critical path; nothing here sums parallel workers.
/// Simulation counts, solver work and modeled time are read from the
/// metrics registry instead.
struct AnalysisSample {
  /// The whole analysis: the library call(s) and the CSV write.
  double WallSeconds = 0.0;
  /// The library analysis calls (everything but the CSV write).
  double StepWallSeconds = 0.0;
  /// Wall time of each library call that makes one BatchEngine call, in
  /// order: runPsa2d, or runSobolSa up to its last reducer call less its
  /// design time.
  std::vector<double> CallWallSeconds;
  double CsvWallSeconds = 0.0;
  uint64_t CsvBytes = 0;
  /// The engine's merged IntegrationStats, from the StreamReport the
  /// analysis returns.
  psg::IntegrationStats Stats;

  double engineWallSeconds() const {
    double Sum = 0.0;
    for (double Seconds : CallWallSeconds)
      Sum += Seconds;
    return Sum;
  }
};

/// One workload: set-up, one analysis, and the correctness gate.
class Workload {
public:
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  virtual ~Workload() = default;

  /// Builds the model, compiles it, constructs the engine and makes the
  /// engine's first (compiling, workspace-filling) call. Repeatable;
  /// each call replaces the previous state.
  virtual void setUp() = 0;

  /// Wall time of the explicit compileModel call in the last setUp().
  double compileWallSeconds() const { return CompileWallSeconds; }

  /// Runs one complete analysis.
  virtual AnalysisSample analyze() = 0;

  /// Correctness gate on the last analysis' output: tight-tolerance
  /// reference re-integration of a fixed subset of points plus the
  /// workload's structural checks. Returns the failed checks.
  virtual std::vector<std::string> check() = 0;

  /// Feeds deliberately perturbed copies of the last output to the gate.
  /// Returns the perturbations the gate failed to catch.
  virtual std::vector<std::string> selfTest() = 0;

  /// Worst mixed relative error against the reference in the last
  /// check(), and the gate's tolerance on it.
  double worstReferenceError() const { return WorstReferenceError; }
  virtual double referenceTolerance() const = 0;

  /// Workload parameters for the run manifest, as a JSON object.
  virtual std::string parametersJson() const = 0;

  /// networkFingerprint of the model.
  virtual uint64_t fingerprint() const = 0;

protected:
  double CompileWallSeconds = 0.0;
  double WorstReferenceError = 0.0;
};

/// Sum of the named histogram in \p M, 0 when absent.
inline double histogramSum(const psg::MetricsSnapshot &M,
                           const std::string &Name) {
  const psg::HistogramSample *H = M.histogram(Name);
  return H ? H->Sum : 0.0;
}

/// Creates the named workload (nullptr for an unknown name). Inputs are
/// derived from \p Seed only; CSVs are written under \p OutDir.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed,
                                       const std::string &OutDir);

} // namespace perfbench

#endif // PSG_PERFBENCH_WORKLOADS_H
