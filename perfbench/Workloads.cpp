//===- perfbench/Workloads.cpp - End-to-end analysis workloads ------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Psa.h"
#include "analysis/Sobol.h"
#include "io/ResultsIo.h"
#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstring>
#include <filesystem>

using namespace psg;
using namespace perfbench;

namespace {

/// FNV-1a over the bit patterns of \p Values, chained from \p Hash.
uint64_t digestDoubles(const std::vector<double> &Values,
                       uint64_t Hash = 1469598103934665603ull) {
  for (double V : Values) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof Bits);
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Bits >> (8 * Byte)) & 0xff;
      Hash *= 1099511628211ull;
    }
  }
  return Hash;
}

//===----------------------------------------------------------------------===//
// Timed CSV write.
//===----------------------------------------------------------------------===//

/// Builds and writes one CSV inside the io timer.
template <typename BuildFn>
void timedCsv(AnalysisSample &S, const std::string &Path, BuildFn Build) {
  WallTimer Timer;
  const CsvWriter Csv = Build();
  const Status Saved = Csv.saveToFile(Path);
  S.CsvWallSeconds += Timer.seconds();
  if (!Saved)
    fatalError("perfbench: cannot write " + Path + ": " + Saved.message());
  S.CsvBytes += std::filesystem::file_size(Path);
}

//===----------------------------------------------------------------------===//
// Shared inputs and the reference integrator.
//===----------------------------------------------------------------------===//

Parameterization baseParameterization(const ReactionNetwork &Net) {
  Parameterization Base;
  Base.InitialState = Net.initialState();
  for (size_t R = 0; R < Net.numReactions(); ++R)
    Base.RateConstants.push_back(Net.reaction(R).RateConstant);
  return Base;
}

/// The engine configuration of a workload: defaults except the window
/// and the trajectory samples.
EngineOptions engineOptions(double EndTime, size_t OutputSamples) {
  EngineOptions Opts;
  Opts.EndTime = EndTime;
  Opts.OutputSamples = OutputSamples;
  return Opts;
}

/// Wall time of compileModel(\p Net), the rbm layer's entry point.
double timedCompile(const ReactionNetwork &Net) {
  WallTimer Timer;
  std::shared_ptr<const CompiledModel> Compiled = compileModel(Net);
  return Timer.seconds();
}

/// The independent reference: LSODA on the CPU personality at tight
/// tolerances, through the same public engine API.
std::unique_ptr<BatchEngine> makeReferenceEngine(const EngineOptions &Like) {
  EngineOptions Opts;
  Opts.SimulatorName = "cpu-lsoda";
  Opts.StartTime = Like.StartTime;
  Opts.EndTime = Like.EndTime;
  Opts.OutputSamples = Like.OutputSamples;
  Opts.Solver.RelTol = 1e-10;
  Opts.Solver.AbsTol = 1e-14;
  Opts.Solver.MaxSteps = 2000000;
  return std::make_unique<BatchEngine>(CostModel::paperSetup(), Opts);
}

/// |Got - Ref| / (|Ref| + Floor): relative where the reference is large,
/// absolute below \p Floor.
double mixedError(double Got, double Ref, double Floor) {
  return std::abs(Got - Ref) / (std::abs(Ref) + Floor);
}

/// Worst mixedError over every sample of every variable, with each
/// variable's floor scaled to its largest reference magnitude.
double worstTrajectoryError(const Trajectory &Got, const Trajectory &Ref) {
  if (Got.numSamples() != Ref.numSamples() ||
      Got.dimension() != Ref.dimension())
    return INFINITY;
  double Worst = 0.0;
  for (size_t V = 0; V < Ref.dimension(); ++V) {
    double Scale = 0.0;
    for (size_t S = 0; S < Ref.numSamples(); ++S)
      Scale = std::max(Scale, std::abs(Ref.value(S, V)));
    const double Floor = 1e-6 * Scale + 1e-15;
    for (size_t S = 0; S < Ref.numSamples(); ++S)
      Worst = std::max(Worst,
                       mixedError(Got.value(S, V), Ref.value(S, V), Floor));
  }
  return Worst;
}

/// Digest bookkeeping shared by the workloads: every analysis of a run
/// must reproduce the first one's output.
class DigestTracker {
public:
  void record(uint64_t Digest) {
    if (!HaveFirst) {
      First = Digest;
      HaveFirst = true;
    } else if (Digest != First) {
      ++Mismatches;
    }
  }
  bool matches(uint64_t Digest) const { return HaveFirst && Digest == First; }
  size_t mismatches() const { return Mismatches; }

private:
  uint64_t First = 0;
  bool HaveFirst = false;
  size_t Mismatches = 0;
};

//===----------------------------------------------------------------------===//
// psa2d-autophagy: the F4 PSA-2D sweep.
//===----------------------------------------------------------------------===//

class Psa2dAutophagy final : public Workload {
public:
  Psa2dAutophagy(uint64_t Seed, std::string OutDir)
      : Seed(Seed), OutDir(std::move(OutDir)) {}

  void setUp() override {
    Engine.reset();
    Space.reset();
    Model = std::make_unique<AutophagySurrogate>(
        makeAutophagySurrogate(Units, ChainLength));
    // The seed perturbs every base rate constant by up to +-2%, so each
    // seed is a different model of the same size and regime; wider
    // perturbations move the work of an analysis enough between seeds to
    // rival the host's timing noise.
    Rng Perturb(Seed);
    for (size_t R = 0; R < Model->Net.numReactions(); ++R)
      Model->Net.reaction(R).RateConstant *=
          std::exp(Perturb.uniform(-0.02, 0.02));
    CompileWallSeconds = timedCompile(Model->Net);
    Space = std::make_unique<ParameterSpace>(Model->Net);
    ParameterAxis Stress;
    Stress.Name = "AMPK*";
    Stress.Target = AxisTarget::InitialConcentration;
    Stress.SpeciesIndex = Model->StressSpecies;
    Stress.Lo = 0.2;
    Stress.Hi = 2.5;
    Space->addAxis(Stress);
    ParameterAxis P9;
    P9.Name = "P9";
    P9.Target = AxisTarget::RateConstantGroup;
    P9.Reactions = Model->P9Reactions;
    P9.Lo = 1e-6;
    P9.Hi = 3e-2;
    P9.LogScale = true;
    Space->addAxis(P9);
    Engine = std::make_unique<BatchEngine>(
        CostModel::paperSetup(), engineOptions(EndTime, OutputSamples));
    Engine->runParameterizations(Model->Net,
                                 {baseParameterization(Model->Net)});
  }

  AnalysisSample analyze() override {
    AnalysisSample S;
    WallTimer Total;
    WallTimer Call;
    Psa2dResult Result =
        runPsa2d(*Engine, *Space, Res, Res,
                 oscillationAmplitudeReducer(Model->ReporterEif4ebp));
    S.StepWallSeconds = Call.seconds();
    S.CallWallSeconds.push_back(S.StepWallSeconds);
    S.Stats = Result.Report.TotalStats;
    timedCsv(S, OutDir + "/psa2d-autophagy.csv", [&] {
      return psa2dToCsv(Result, "ampk_star", "p9", "amplitude");
    });
    S.WallSeconds = Total.seconds();
    Digests.record(digestDoubles(Result.Metric));
    LastMap = std::move(Result.Metric);
    return S;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> Problems;
    if (Digests.mismatches())
      Problems.push_back(formatString(
          "%zu analyses produced a map different from the first",
          Digests.mismatches()));
    computeReference();
    for (size_t I = 0; I < ReferenceAmplitudes.size(); ++I)
      WorstReferenceError = std::max(
          WorstReferenceError, mixedError(LastMap[ReferenceCells[I]],
                                          ReferenceAmplitudes[I],
                                          AmplitudeFloor));
    for (std::string &P : checkMap(LastMap))
      Problems.push_back(std::move(P));
    return Problems;
  }

  std::vector<std::string> selfTest() override {
    std::vector<double> Perturbed = LastMap;
    double &Cell = Perturbed[ReferenceCells.front()];
    Cell = Cell * 1.01 + 1e-3;
    if (checkMap(Perturbed).empty())
      return {"perturbed map cell passed the gate"};
    return {};
  }

  std::string parametersJson() const override {
    return formatString(
        "{\"model\": \"autophagy-surrogate\", \"units\": %u, "
        "\"chain_length\": %u, \"species\": %zu, \"reactions\": %zu, "
        "\"p9_constants\": %zu, \"grid\": \"%zux%zu\", \"end_time\": %g, "
        "\"output_samples\": %zu, \"reducer\": \"oscillation-amplitude\", "
        "\"rate_perturbation\": \"x exp(U(-0.02, 0.02)) from seed\"}",
        Units, ChainLength, Model->Net.numSpecies(), Model->Net.numReactions(),
        Model->P9Reactions.size(), Res, Res, EndTime, OutputSamples);
  }

  uint64_t fingerprint() const override {
    return networkFingerprint(Model->Net);
  }

  double referenceTolerance() const override { return ReferenceTolerance; }

private:
  static constexpr unsigned Units = 16;
  static constexpr unsigned ChainLength = 8;
  static constexpr size_t Res = 16;
  static constexpr double EndTime = 80.0;
  static constexpr size_t OutputSamples = 161;
  /// A cell oscillates when its amplitude exceeds this.
  static constexpr double OscillationFloor = 1e-3;
  /// Gate on the reference cells: mixedError(map, reference, floor).
  static constexpr double AmplitudeFloor = 1e-3;
  static constexpr double ReferenceTolerance = 1e-4;

  uint64_t Seed;
  std::string OutDir;
  std::unique_ptr<AutophagySurrogate> Model;
  std::unique_ptr<ParameterSpace> Space;
  std::unique_ptr<BatchEngine> Engine;
  std::vector<double> LastMap;
  DigestTracker Digests;
  /// Fixed subset re-integrated by the reference: the four corners of
  /// the 16x16 grid (row-major, P9 fastest) and three cells inside the
  /// oscillating band.
  const std::vector<size_t> ReferenceCells = {
      0, 15, 240, 255, 3 * 16 + 3, 5 * 16 + 10, 7 * 16 + 13};
  std::vector<double> ReferenceAmplitudes;
  std::vector<std::string> ReferenceProblems;

  void computeReference() {
    std::vector<std::vector<double>> Grid = Space->gridSample({Res, Res});
    std::vector<std::vector<double>> Points;
    for (size_t Cell : ReferenceCells)
      Points.push_back(Grid[Cell]);
    std::unique_ptr<BatchEngine> Reference =
        makeReferenceEngine(engineOptions(EndTime, OutputSamples));
    EngineReport Report = Reference->run(*Space, Points);
    const TrajectoryReducer Amplitude =
        oscillationAmplitudeReducer(Model->ReporterEif4ebp);
    for (const SimulationOutcome &O : Report.Outcomes) {
      if (!O.Result.ok())
        ReferenceProblems.push_back("reference integration failed");
      ReferenceAmplitudes.push_back(Amplitude(O));
    }
  }

  std::vector<std::string> checkMap(const std::vector<double> &Map) const {
    std::vector<std::string> Problems = ReferenceProblems;
    if (Map.size() != Res * Res)
      return {formatString("map has %zu cells", Map.size())};
    size_t Oscillating = 0;
    for (double A : Map) {
      if (!std::isfinite(A))
        Problems.push_back("non-finite map cell");
      Oscillating += A > OscillationFloor;
    }
    if (Oscillating == 0 || Oscillating == Map.size())
      Problems.push_back(formatString(
          "map needs oscillating and flat cells, has %zu of %zu oscillating",
          Oscillating, Map.size()));
    for (size_t I = 0; I < ReferenceAmplitudes.size(); ++I) {
      const double Err = mixedError(Map[ReferenceCells[I]],
                                    ReferenceAmplitudes[I], AmplitudeFloor);
      if (!(Err <= ReferenceTolerance))
        Problems.push_back(formatString(
            "reference cell error %.3g exceeds %.3g", Err,
            ReferenceTolerance));
    }
    if (!Digests.matches(digestDoubles(Map)))
      Problems.push_back("map digest differs from the run's");
    return Problems;
  }
};

//===----------------------------------------------------------------------===//
// sobol-metabolic: the T2 Saltelli design.
//===----------------------------------------------------------------------===//

class SobolMetabolic final : public Workload {
public:
  SobolMetabolic(uint64_t Seed, std::string OutDir)
      : Seed(Seed), OutDir(std::move(OutDir)) {}

  void setUp() override {
    Engine.reset();
    Space.reset();
    Model = std::make_unique<MetabolicSurrogate>(makeMetabolicSurrogate());
    CompileWallSeconds = timedCompile(Model->Net);
    Space = std::make_unique<ParameterSpace>(Model->Net);
    for (unsigned SpeciesIdx : Model->IsoformSpecies) {
      ParameterAxis Axis;
      Axis.Name = Model->Net.species(SpeciesIdx).Name;
      Axis.Target = AxisTarget::InitialConcentration;
      Axis.SpeciesIndex = SpeciesIdx;
      Axis.Lo = 0.0;
      Axis.Hi = 1e-2;
      Space->addAxis(Axis);
    }
    Engine = std::make_unique<BatchEngine>(
        CostModel::paperSetup(), engineOptions(EndTime, OutputSamples));
    // The deviation's reference point; also the engine's first call.
    EngineReport BaseRun = Engine->runParameterizations(
        Model->Net, {baseParameterization(Model->Net)});
    BaseR5P = finalValueReducer(Model->ReporterR5P)(BaseRun.Outcomes[0]);
  }

  AnalysisSample analyze() override {
    AnalysisSample S;
    WallTimer Total;
    // runSobolSa makes its one engine call between drawing the design and
    // the bootstrap, and the sink calls the reducer on this thread. The
    // call is timed from entry to the last reducer return, less the
    // library's own design histogram (the registry is reset before every
    // analysis). The engine's tail after the last sink call falls into
    // the post-engine time, with the bootstrap.
    double LastReturn = 0.0;
    WallTimer Step;
    SobolResult Result = runSobolSa(
        *Engine, *Space,
        [Inner = deviationReducer(), &Step,
         &LastReturn](const SimulationOutcome &O) {
          const double V = Inner(O);
          LastReturn = Step.seconds();
          return V;
        },
        sobolOptions());
    S.StepWallSeconds = Step.seconds();
    S.CallWallSeconds.push_back(
        LastReturn -
        histogramSum(Result.Report.Metrics, "psg.analysis.sobol.design_wall_s"));
    S.Stats = Result.Report.TotalStats;
    timedCsv(S, OutDir + "/sobol-metabolic.csv",
             [&] { return sobolToCsv(Result); });
    S.WallSeconds = Total.seconds();
    Digests.record(digestIndices(Result.Indices));
    LastIndices = std::move(Result.Indices);
    return S;
  }

  std::vector<std::string> check() override {
    std::vector<std::string> Problems;
    if (Digests.mismatches())
      Problems.push_back(formatString(
          "%zu analyses produced indices different from the first",
          Digests.mismatches()));
    // Re-integrate the first rows of the design with the engine and with
    // the reference; compare every species at t_end.
    std::unique_ptr<PointGenerator> Gen = saltelliDesign();
    std::vector<std::vector<double>> Points;
    Gen->next(ReferenceRows, Points);
    EngineReport Got = Engine->run(*Space, Points);
    EngineReport Ref =
        makeReferenceEngine(engineOptions(EndTime, OutputSamples))
            ->run(*Space, Points);
    for (size_t I = 0; I < Points.size(); ++I) {
      if (!Got.Outcomes[I].Result.ok() || !Ref.Outcomes[I].Result.ok()) {
        Problems.push_back("reference row failed to integrate");
        continue;
      }
      const double Err = worstTrajectoryError(Got.Outcomes[I].Dynamics,
                                              Ref.Outcomes[I].Dynamics);
      WorstReferenceError = std::max(WorstReferenceError, Err);
      if (!(Err <= ReferenceTolerance))
        Problems.push_back(formatString(
            "reference row error %.3g exceeds %.3g", Err, ReferenceTolerance));
    }
    for (std::string &P : checkIndices(LastIndices))
      Problems.push_back(std::move(P));
    return Problems;
  }

  std::vector<std::string> selfTest() override {
    std::vector<SobolIndex> Perturbed = LastIndices;
    Perturbed.front().ST = 1.0 + 4 * STSlack;
    if (checkIndices(Perturbed).empty())
      return {"perturbed total-order index passed the gate"};
    return {};
  }

  std::string parametersJson() const override {
    return formatString(
        "{\"model\": \"metabolic-surrogate\", \"species\": %zu, "
        "\"reactions\": %zu, \"factors\": %zu, \"base_samples\": %zu, "
        "\"simulations\": %zu, \"bootstrap_rounds\": %zu, "
        "\"end_time\": %g, \"output_samples\": %zu, "
        "\"output\": \"R5P deviation at t_end\", \"sobol_seed\": %llu}",
        Model->Net.numSpecies(), Model->Net.numReactions(),
        Model->IsoformSpecies.size(), BaseSamples,
        BaseSamples * (Model->IsoformSpecies.size() + 2), BootstrapRounds,
        EndTime, OutputSamples, (unsigned long long)Seed);
  }

  uint64_t fingerprint() const override {
    return networkFingerprint(Model->Net);
  }

  double referenceTolerance() const override { return ReferenceTolerance; }

private:
  static constexpr size_t BaseSamples = 512;
  static constexpr size_t BootstrapRounds = 100;
  static constexpr double EndTime = 10.0;
  static constexpr size_t OutputSamples = 2;
  static constexpr size_t ReferenceRows = 4;
  static constexpr double ReferenceTolerance = 1e-4;
  /// Estimator noise allowed outside [0, 1] for a total-order index.
  static constexpr double STSlack = 0.1;

  uint64_t Seed;
  std::string OutDir;
  std::unique_ptr<MetabolicSurrogate> Model;
  std::unique_ptr<ParameterSpace> Space;
  std::unique_ptr<BatchEngine> Engine;
  double BaseR5P = 0.0;
  std::vector<SobolIndex> LastIndices;
  DigestTracker Digests;

  SobolOptions sobolOptions() const {
    SobolOptions Opts;
    Opts.BaseSamples = BaseSamples;
    Opts.BootstrapRounds = BootstrapRounds;
    Opts.Seed = Seed;
    return Opts;
  }

  TrajectoryReducer deviationReducer() const {
    return [Final = finalValueReducer(Model->ReporterR5P),
            Base = BaseR5P](const SimulationOutcome &O) {
      return Final(O) - Base;
    };
  }

  /// The design runSobolSa streams: its Cranley-Patterson shift is the
  /// first 2K draws of Rng(Seed).
  std::unique_ptr<PointGenerator> saltelliDesign() const {
    Rng Generator(Seed);
    std::vector<double> Shift(2 * Space->numAxes());
    for (double &V : Shift)
      V = Generator.uniform();
    return makeSaltelliGenerator(*Space, BaseSamples, Shift,
                                 /*SecondOrder=*/false);
  }

  static uint64_t digestIndices(const std::vector<SobolIndex> &Indices) {
    std::vector<double> Flat;
    for (const SobolIndex &I : Indices)
      Flat.insert(Flat.end(), {I.S1, I.S1Conf, I.ST, I.STConf});
    return digestDoubles(Flat);
  }

  std::vector<std::string>
  checkIndices(const std::vector<SobolIndex> &Indices) const {
    std::vector<std::string> Problems;
    if (Indices.size() != Space->numAxes())
      return {formatString("%zu indices for %zu factors", Indices.size(),
                           Space->numAxes())};
    for (const SobolIndex &I : Indices) {
      if (!std::isfinite(I.S1) || !std::isfinite(I.ST) ||
          !std::isfinite(I.S1Conf) || !std::isfinite(I.STConf))
        Problems.push_back("non-finite index for " + I.Factor);
      else if (I.ST < -STSlack || I.ST > 1.0 + STSlack)
        Problems.push_back(formatString("ST %.4g outside [-e, 1+e], e=%.2g",
                                         I.ST, STSlack));
    }
    if (!Digests.matches(digestIndices(Indices)))
      Problems.push_back("index digest differs from the run's");
    return Problems;
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed,
                                                  const std::string &OutDir) {
  if (Name == "psa2d-autophagy")
    return std::make_unique<Psa2dAutophagy>(Seed, OutDir);
  if (Name == "sobol-metabolic")
    return std::make_unique<SobolMetabolic>(Seed, OutDir);
  return nullptr;
}
