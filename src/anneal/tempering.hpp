#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/sampleset.hpp"
#include "model/cqm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

class PairMoveIndex;

struct TemperingParams {
  std::size_t num_replicas = 8;
  std::size_t sweeps = 1000;          ///< Metropolis sweeps per replica
  std::size_t swap_interval = 10;     ///< sweeps between exchange attempts
  double beta_hot = 0.0;              ///< 0 selects automatically from scale
  double beta_cold = 0.0;
  std::uint64_t seed = 1;
  /// Worker threads for the ladder, with the meaning of
  /// HybridSolverParams::threads (0 = all hardware threads). The sweeps
  /// between two exchanges run as one block in which every ladder slot walks
  /// its own configuration on a pool worker; the output is bitwise identical
  /// for every value.
  std::size_t threads = 1;
  /// Polled once per sweep in every ladder slot; when expired the run ends
  /// after the current block, without its exchange, and returns the best
  /// sample seen by any replica so far. Inert by default.
  util::CancelToken cancel;
  /// Optional trace sink: one span per run plus an incumbent-energy timeline
  /// sampled at block ends. Consumes no RNG; output is bitwise identical with
  /// it on/off.
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Optional metrics sink: bumped by ladder sweeps completed (sweeps every
  /// replica finished), once per run.
  obs::Counter* sweep_counter = nullptr;
  /// Optional metrics sink: bumped by replica sweeps completed (one per
  /// replica per sweep); feeds qulrb_solver_replica_sweeps.
  obs::Counter* replica_sweep_counter = nullptr;
  /// Optional always-on flight ring: one compact span per run (value =
  /// ladder rounds executed). Same null discipline as `recorder`.
  obs::FlightRecorder* flight = nullptr;
  std::uint16_t flight_name = 0;
  std::uint64_t flight_rid = 0;
};

/// Replica-exchange (parallel tempering) Monte Carlo on a CQM with penalty
/// energy. A geometric beta ladder is run concurrently; adjacent replicas
/// exchange configurations with the Metropolis criterion
///   P(swap) = min(1, exp((beta_a - beta_b) * (E_a - E_b))).
/// Better than plain SA on rugged penalty landscapes (tight `k` bounds),
/// which is why the hybrid solver enables it for hard instances.
///
/// Each configuration is its own CqmIncrementalState walk and each ladder
/// slot owns its RNG stream and beta, so the slots of one block share no
/// mutable state; an exchange swaps which configuration a slot walks. The exchange after a block runs serially on the calling
/// thread, and the block's incumbent merge picks the best slot candidate with
/// ties to the earliest (sweep, slot) — exactly what a sequential scan in
/// (sweep, slot) order returns.
class ParallelTempering {
 public:
  explicit ParallelTempering(TemperingParams params = {}) : params_(params) {}

  /// Returns the best sample seen by any replica. When `pairs` is non-null
  /// it is used as the pair-move index instead of rebuilding one per run.
  Sample run(const model::CqmModel& cqm, std::vector<double> penalties,
             const model::State& initial = {},
             const PairMoveIndex* pairs = nullptr) const;

 private:
  TemperingParams params_;
};

}  // namespace qulrb::anneal
