#include "anneal/tempering.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "obs/phase.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qulrb::anneal {

using model::VarId;

namespace {

/// Per-ladder-slot state a block mutates. Cache-line aligned so slots on
/// different workers never share a line (every RNG draw writes its state).
struct alignas(64) LadderSlot {
  util::Rng rng{0};
  /// First sample of the current block that beat the incumbent at block
  /// start and every earlier candidate of this slot, and the sweep it was
  /// seen at.
  Sample candidate;
  std::size_t candidate_sweep = 0;
  bool have_candidate = false;
  /// Sweeps this slot completed in the run so far.
  std::size_t sweeps_done = 0;
};

/// One configuration's walk. Cache-line aligned because every accepted flip
/// writes the walk's running objective and penalty, and slots on different
/// workers walk different configurations.
struct alignas(64) Configuration {
  CqmIncrementalState walk;
};

}  // namespace

Sample ParallelTempering::run(const model::CqmModel& cqm,
                              std::vector<double> penalties,
                              const model::State& initial,
                              const PairMoveIndex* prebuilt_pairs) const {
  const std::size_t n = cqm.num_variables();
  const std::size_t num_slots = params_.num_replicas;
  const double flight_start_us =
      params_.flight != nullptr ? params_.flight->now_us() : 0.0;
  util::require(num_slots >= 2, "ParallelTempering: need >= 2 replicas");
  util::require(params_.swap_interval >= 1,
                "ParallelTempering: swap_interval must be >= 1");
  util::require(initial.empty() || initial.size() == n,
                "ParallelTempering: initial state size mismatch");

  // The model builds its CSR incidence lazily inside const accessors; build
  // it here, before any walk or worker reads it.
  (void)cqm.group_kernel();

  util::Rng master(params_.seed);

  // Per-replica RNG streams and start states, drawn in the same order as the
  // per-walker construction this replaces (streams are independent, so
  // splitting them all before the init draws yields identical values).
  std::vector<LadderSlot> slots(num_slots);
  for (auto& slot : slots) slot.rng = master.split();
  std::vector<model::State> starts(num_slots);
  for (std::size_t r = 0; r < num_slots; ++r) {
    model::State start(n);
    if (initial.empty()) {
      for (auto& b : start) {
        b = static_cast<std::uint8_t>(slots[r].rng.next_below(2));
      }
    } else {
      start = initial;
    }
    starts[r] = std::move(start);
  }

  // One walk per configuration: slots walking concurrently share no storage.
  std::vector<Configuration> configs;
  configs.reserve(num_slots);
  for (std::size_t r = 0; r < num_slots; ++r) {
    configs.push_back({CqmIncrementalState(cqm, std::move(starts[r]), penalties)});
  }

  // Ladder position -> configuration. Replica exchange swaps configurations
  // between adjacent temperatures; the walks stay where they are and only
  // this permutation moves.
  std::vector<std::size_t> perm(num_slots);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  // Beta ladder (geometric between hot and cold).
  double beta_hot = params_.beta_hot;
  double beta_cold = params_.beta_cold;
  if (beta_hot <= 0.0 || beta_cold <= 0.0) {
    double max_abs = 1e-9;
    if (n > 0) {
      const std::size_t probes = std::min<std::size_t>(n, 256);
      for (std::size_t p = 0; p < probes; ++p) {
        const auto v = static_cast<VarId>(slots[0].rng.next_below(n));
        max_abs = std::max(max_abs, std::abs(configs[perm[0]].walk.flip_delta(v)));
      }
    }
    beta_hot = std::log(2.0) / max_abs;
    beta_cold = 1e4 / max_abs;
  }
  std::vector<double> betas(num_slots);
  for (std::size_t r = 0; r < num_slots; ++r) {
    const double t =
        static_cast<double>(r) / static_cast<double>(num_slots - 1);
    betas[r] = beta_hot * std::pow(beta_cold / beta_hot, t);
  }

  const PairMoveIndex local_pairs =
      prebuilt_pairs == nullptr ? PairMoveIndex::build(cqm) : PairMoveIndex{};
  const PairMoveIndex& pairs =
      prebuilt_pairs != nullptr ? *prebuilt_pairs : local_pairs;

  const CqmIncrementalState& last = configs[perm.back()].walk;
  Sample best{last.state(), last.objective(), last.total_violation(),
              last.feasible()};

  if (n == 0) return best;

  obs::Recorder::Span run_span(params_.recorder, "tempering", "sampler",
                               params_.trace_track);
  const std::size_t sample_every = std::max<std::size_t>(1, params_.sweeps / 64);

  // Walk ladder slot r through sweeps [begin, end) of one block:
  // configuration perm[r], stream slots[r].rng, beta betas[r]. Reads `best`
  // and `perm`, which only change between blocks, and writes nothing but
  // slot r and its configuration.
  auto walk_slot = [&](std::size_t r, std::size_t begin, std::size_t end) {
    // May run on a pool worker: the profiler's phase and request-id labels
    // are per thread, so they are set here.
    obs::prof::RidScope rid_scope(params_.flight_rid);
    obs::prof::PhaseScope phase("tempering");
    LadderSlot& slot = slots[r];
    CqmIncrementalState& walk = configs[perm[r]].walk;
    auto& rng = slot.rng;
    const double beta = betas[r];
    slot.have_candidate = false;
    for (std::size_t sweep = begin; sweep < end; ++sweep) {
      if (params_.cancel.expired()) return;
      for (std::size_t step = 0; step < n; ++step) {
        if (!pairs.empty() && rng.next_bool(0.5)) {
          pairs.attempt(walk, rng, beta);
          continue;
        }
        const auto v = static_cast<VarId>(rng.next_below(n));
        const double delta = walk.flip_delta(v);
        if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
          walk.apply_flip(v);
        }
      }
      Sample current{{}, walk.objective(), walk.total_violation(),
                     walk.feasible()};
      if (current.better_than(slot.have_candidate ? slot.candidate : best)) {
        current.state = walk.state();
        slot.candidate = std::move(current);
        slot.candidate_sweep = sweep;
        slot.have_candidate = true;
      }
      ++slot.sweeps_done;
    }
  };

  // One pool per run; the ladder never uses more workers than slots.
  const std::size_t threads =
      params_.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : params_.threads;
  std::unique_ptr<util::ThreadPool> pool;
  if (std::min(threads, num_slots) > 1) {
    pool = std::make_unique<util::ThreadPool>(std::min(threads, num_slots));
  }

  std::size_t sweeps_done = 0;
  for (std::size_t begin = 0; begin < params_.sweeps;
       begin += params_.swap_interval) {
    const std::size_t end = std::min(params_.sweeps, begin + params_.swap_interval);
    if (pool != nullptr) {
      pool->parallel_for(num_slots,
                         [&](std::size_t r) { walk_slot(r, begin, end); });
    } else {
      for (std::size_t r = 0; r < num_slots; ++r) walk_slot(r, begin, end);
    }

    // Incumbent merge: the best slot candidate, ties to the earliest
    // (sweep, slot). Every candidate already beats `best`, and
    // Sample::better_than is a strict weak order, so this is the sample a
    // sequential (sweep, slot) scan keeps.
    LadderSlot* pick = nullptr;
    for (auto& slot : slots) {
      if (!slot.have_candidate) continue;
      if (pick == nullptr || slot.candidate.better_than(pick->candidate) ||
          (!pick->candidate.better_than(slot.candidate) &&
           slot.candidate_sweep < pick->candidate_sweep)) {
        pick = &slot;
      }
    }
    if (pick != nullptr) best = std::move(pick->candidate);

    std::size_t completed = params_.sweeps;
    for (const auto& slot : slots) completed = std::min(completed, slot.sweeps_done);
    sweeps_done = completed;
    if (params_.recorder != nullptr && sweeps_done > begin) {
      // Incumbent timeline, sampled at the ends of blocks that contain a
      // sample point.
      const std::size_t next_point = (begin + sample_every - 1) / sample_every *
                                     sample_every;
      if (next_point < sweeps_done || sweeps_done == params_.sweeps) {
        params_.recorder->sample("incumbent_energy", params_.trace_track,
                                 best.energy + best.violation);
      }
    }
    if (sweeps_done < end) break;  // cancelled: no exchange after a cut block

    if (end % params_.swap_interval == 0) {
      for (std::size_t r = 0; r + 1 < num_slots; ++r) {
        const double ea = configs[perm[r]].walk.total_energy();
        const double eb = configs[perm[r + 1]].walk.total_energy();
        const double log_accept = (betas[r] - betas[r + 1]) * (ea - eb);
        if (log_accept >= 0.0 ||
            slots[0].rng.next_double() < std::exp(log_accept)) {
          std::swap(perm[r], perm[r + 1]);
        }
      }
    }
  }
  std::size_t replica_sweeps = 0;
  for (const auto& slot : slots) replica_sweeps += slot.sweeps_done;
  if (params_.sweep_counter != nullptr && sweeps_done > 0) {
    params_.sweep_counter->inc(sweeps_done);
  }
  if (params_.replica_sweep_counter != nullptr && replica_sweeps > 0) {
    params_.replica_sweep_counter->inc(replica_sweeps);
  }
  if (params_.flight != nullptr) {
    const double end_us = params_.flight->now_us();
    params_.flight->record(params_.flight_name, obs::FlightKind::kSpan,
                           params_.trace_track, params_.flight_rid, end_us,
                           end_us - flight_start_us,
                           static_cast<double>(sweeps_done));
  }
  return best;
}

}  // namespace qulrb::anneal
