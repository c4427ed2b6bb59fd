#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <numeric>

#include "analysis/session.hpp"
#include "core/decode.hpp"
#include "core/imr.hpp"
#include "core/ordered.hpp"
#include "genitor/genitor.hpp"
#include "lp/problem.hpp"
#include "lp/upper_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/run_info.hpp"
#include "perfbench.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using tsce::analysis::Fitness;
using tsce::core::AllocatorResult;
using tsce::model::StringId;
using tsce::model::SystemModel;
using tsce::util::Rng;
using Chromosome = std::vector<StringId>;

/// Generator seed of the instance family (see README.md: the run's seed
/// drives the searches, not the instances).
constexpr std::uint64_t kInstanceFamily = 2005;
/// Traced runs replay every n-th GENITOR decode through IMR + commit.
constexpr std::size_t kReplayStride = 16;
/// Times one generated instance is regenerated to time set-up.
constexpr int kSetupRepeats = 21;
/// Evaluations of a mean paper-budget PSG allocation at 12 x 150 (four
/// trials of 250 / 5000 / 300); psg_s and seeded_psg_s are the run's search
/// time per evaluation scaled to it.
constexpr double kNominalEvaluations = 37500.0;
/// Share of the traced wall time that may stay outside named spans.
constexpr double kMaxUnattributed = 0.05;

/// Independent rng stream per (instance, role, repeat < 256): instance i and
/// its searches do not depend on how many instances the run measures.
enum Role : std::uint64_t {
  kPrimaryModel, kSlackModel, kPsg, kSeeded, kTemper, kSlackPsg, kSlackSeeded,
  kBoundModel, kRoles,
};

Rng stream(std::uint64_t seed, std::size_t instance, Role role, std::size_t repeat = 0) {
  return Rng::stream(seed, ((instance * kRoles + role) << 8) | repeat);
}

tsce::core::PsgOptions paper_psg() {
  tsce::core::PsgOptions o;  // paper §8: 250 / bias 1.6 / 5000 / 300, 4 trials
  o.ga.population_size = 250;
  o.ga.bias = 1.6;
  o.ga.max_iterations = 5000;
  o.ga.stagnation_limit = 300;
  o.trials = 4;
  o.eval_threads = 1;
  return o;
}

tsce::core::AnnealingOptions paper_temper() {
  tsce::core::AnnealingOptions o;  // 4 replicas on up to 4 threads
  o.iterations = 20000;
  o.replicas = 4;
  o.threads = 4;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// One sampled GENITOR decode, replayed in traced runs.
struct RecordedDecode {
  const SystemModel* model = nullptr;
  Chromosome order;
  Fitness fitness;
};

/// core::PermutationProblem behind spans: every decode, crossover and
/// mutation GENITOR asks for is timed, and every n-th decode is recorded.
/// Delegation only, so the search is the one Psg::allocate runs.
class TracedProblem {
 public:
  using Chromosome = tsce::core::PermutationProblem::Chromosome;
  using Fitness = tsce::core::PermutationProblem::Fitness;

  TracedProblem(const SystemModel& model, std::size_t eval_threads, SpanRecorder& rec,
                std::vector<RecordedDecode>& log)
      : model_(&model), inner_(model, eval_threads), rec_(&rec), log_(&log) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
    Fitness f;
    {
      Span span(rec_, "core.decode");
      f = inner_.evaluate(order);
    }
    offer(order, f);
    return f;
  }
  [[nodiscard]] std::vector<Fitness> evaluate_batch(std::span<const Chromosome> batch) const {
    std::vector<Fitness> f;
    {
      Span span(rec_, "core.decode");
      f = inner_.evaluate_batch(batch);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) offer(batch[i], f[i]);
    return f;
  }
  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            Rng& rng) const {
    Span span(rec_, "core.psg.crossover");
    return inner_.crossover(a, b, rng);
  }
  [[nodiscard]] Chromosome mutate(const Chromosome& c, Rng& rng) const {
    Span span(rec_, "core.psg.mutate");
    return inner_.mutate(c, rng);
  }
  [[nodiscard]] Chromosome random_chromosome(Rng& rng) const {
    return inner_.random_chromosome(rng);
  }

 private:
  void offer(const Chromosome& order, const Fitness& f) const {
    if (decodes_++ % kReplayStride == 0) log_->push_back({model_, order, f});
  }

  const SystemModel* model_;
  tsce::core::PermutationProblem inner_;
  SpanRecorder* rec_;
  std::vector<RecordedDecode>* log_;
  mutable std::size_t decodes_ = 0;
};

/// One trial of Psg::allocate over TracedProblem: same rng draws, same final
/// decode, so folding the trials gives Psg::allocate's result.
AllocatorResult traced_trial(const SystemModel& model, Rng& rng,
                             const tsce::core::PsgOptions& options, bool seeded,
                             SpanRecorder& rec, std::vector<RecordedDecode>& log,
                             std::size_t& iterations) {
  Span outer(&rec, "core.psg");
  const TracedProblem problem(model, options.eval_threads, rec, log);
  std::vector<Chromosome> seeds;
  if (seeded) seeds = {tsce::core::mwf_order(model), tsce::core::tf_order(model)};
  Rng trial_rng = rng.spawn();
  tsce::genitor::Genitor<TracedProblem> ga(problem, options.ga);
  tsce::genitor::Result<TracedProblem> result;
  {
    Span span(&rec, "genitor");
    result = ga.run(trial_rng, seeds);
  }
  iterations += result.iterations;
  Span span(&rec, "core.decode");
  tsce::core::DecodeResult decoded = tsce::core::decode_order(model, result.best);
  AllocatorResult trial;
  trial.allocation = std::move(decoded.allocation);
  trial.fitness = decoded.fitness;
  trial.order = std::move(result.best);
  trial.evaluations = result.evaluations;
  return trial;
}

/// A PSG or Seeded PSG allocation built a trial at a time, folded the way
/// Psg::allocate folds its trials (first best kept, evaluations summed).
struct TrialFold {
  AllocatorResult best;
  std::size_t trials = 0;
  std::size_t evaluations = 0;
  std::vector<double> trial_s;
  std::vector<std::size_t> trial_evaluations;

  void add(AllocatorResult trial, double seconds) {
    evaluations += trial.evaluations;
    trial_s.push_back(seconds);
    trial_evaluations.push_back(trial.evaluations);
    if (trials++ == 0 || best.fitness < trial.fitness) best = std::move(trial);
    best.evaluations = evaluations;
  }
};

/// Psg::allocate with a single trial (untraced runs).
AllocatorResult psg_trial(const SystemModel& model, Rng& rng, tsce::core::PsgOptions options,
                          bool seeded) {
  options.trials = 1;
  return seeded ? tsce::core::SeededPsg(options).allocate(model, rng)
                : tsce::core::Psg(options).allocate(model, rng);
}

struct Bound {
  tsce::lp::SolveStatus status = tsce::lp::SolveStatus::kIterationLimit;
  double value = 0.0;
  double seconds = 0.0;
  // Traced runs only.
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t iterations = 0;
  std::size_t phase1_iterations = 0;
  std::size_t refactorisations = 0;
  double build_s = 0.0;
  double solve_s = 0.0;
};

/// The LP bound: lp::UpperBoundSolver untraced; build and solve timed apart
/// when traced.
Bound solve_bound(const SystemModel& model, bool complete, SpanRecorder* rec) {
  Bound b;
  const std::uint64_t t0 = now_ns();
  if (rec == nullptr) {
    tsce::lp::UpperBoundSolver solver;
    const auto ub = complete ? solver.slackness(model) : solver.worth(model);
    b.seconds = seconds_since(t0);
    b.status = ub.status;
    b.value = ub.value;
    return b;
  }
  tsce::lp::LpProblem problem;
  {
    Span span(rec, "lp.build");
    tsce::lp::build_upper_bound_lp_into(problem, model, complete,
                                        tsce::lp::UbObjective::kTotalWorth);
  }
  b.build_s = seconds_since(t0);
  const std::uint64_t t1 = now_ns();
  tsce::lp::LpSolution solution;
  {
    Span span(rec, "lp.solve");
    solution = tsce::lp::solve(problem, tsce::lp::SimplexOptions{});
  }
  b.solve_s = seconds_since(t1);
  b.seconds = seconds_since(t0);
  // The LP objective is the bound itself (worth mode: sum of I[k] f_k).
  b.status = solution.status;
  b.value = solution.objective;
  b.rows = problem.num_rows();
  b.cols = problem.num_variables();
  b.iterations = solution.iterations;
  b.phase1_iterations = solution.phase1_iterations;
  b.refactorisations = solution.refactorisations;
  return b;
}

/// Pins the calling thread to each CPU it may use in turn.  Single-threaded
/// units run pinned, so a run's samples of each timing metric spread over
/// all CPUs instead of sitting on whichever one the scheduler keeps the
/// thread on: on a shared host the CPUs' speeds differ, and drift over
/// minutes.  Multi-threaded units run unpinned (threads inherit the mask).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { release(); }

  void pin_next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one{};
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  void release() {
    if (cpus_.size() >= 2) (void)sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Everything one run collects.
struct RunState {
  const WorkloadSpec* spec = nullptr;
  const RunOptions* options = nullptr;
  SpanRecorder* rec = nullptr;  ///< null in untraced runs
  Gate gate;
  CpuRotation cpus;
  std::map<std::string, std::vector<double>> samples;
  /// Wall seconds and evaluations of the primary instances' searches, by
  /// search ("psg", "seeded_psg").
  std::map<std::string, double> search_s;
  std::map<std::string, std::size_t> search_evaluations;
  std::size_t partial_mappings = 0;
  std::deque<SystemModel> models;  ///< every instance, at stable addresses
  // Traced runs only.
  std::vector<RecordedDecode> recorded;
  std::size_t ga_iterations = 0;
  std::vector<Bound> bounds;
  AllocatorResult first_psg;
  AllocatorResult first_temper;
  double first_psg_s = 0.0;
  double first_temper_s = 0.0;
};

/// Moves the calling thread to the next CPU; a migration can wait for the
/// target CPU, so the traced run names that time.
void pin_next(RunState& st) {
  Span span(st.rec, "perfbench.pin");
  st.cpus.pin_next();
}

/// Runs the next trial of \p fold's search on \p model.
void search_trial(RunState& st, const SystemModel& model, Rng& rng, bool seeded,
                  TrialFold& fold) {
  pin_next(st);
  const std::uint64_t t0 = now_ns();
  AllocatorResult trial =
      st.rec == nullptr
          ? psg_trial(model, rng, st.spec->psg, seeded)
          : traced_trial(model, rng, st.spec->psg, seeded, *st.rec, st.recorded, st.ga_iterations);
  fold.add(std::move(trial), seconds_since(t0));
}

struct Heuristics {
  AllocatorResult mwf, tf;
  TrialFold psg;
  std::vector<TrialFold> seeded;
  std::vector<AllocatorResult> tempers;
};

void run_ordered(RunState& st, const SystemModel& model, Heuristics& h) {
  Rng unused(0);
  Span span(st.rec, "core.ordered");
  h.mwf = tsce::core::MostWorthFirst().allocate(model, unused);
  h.tf = tsce::core::TightestFirst().allocate(model, unused);
}

/// Re-checks every allocation of \p h from scratch.
void gate_heuristics(RunState& st, const SystemModel& model, const Heuristics& h) {
  Span span(st.rec, "analysis.feasibility");
  st.gate.allocation(model, "MWF", h.mwf);
  st.gate.allocation(model, "TF", h.tf);
  if (h.psg.trials > 0) st.gate.allocation(model, "PSG", h.psg.best);
  for (const TrialFold& f : h.seeded) st.gate.allocation(model, "Seeded PSG", f.best);
  for (const AllocatorResult& r : h.tempers) st.gate.allocation(model, "tempering", r);
}

/// Every allocation of \p h, named for gate messages.
std::vector<std::pair<const char*, const AllocatorResult*>> named_results(const Heuristics& h) {
  std::vector<std::pair<const char*, const AllocatorResult*>> out = {{"MWF", &h.mwf},
                                                                     {"TF", &h.tf}};
  if (h.psg.trials > 0) out.emplace_back("PSG", &h.psg.best);
  for (const TrialFold& f : h.seeded) out.emplace_back("Seeded PSG", &f.best);
  for (const AllocatorResult& r : h.tempers) out.emplace_back("tempering", &r);
  return out;
}

/// Gates slackness bound \p b of a complete-mapping instance against every
/// heuristic of \p h that mapped all strings (a partial mapping can have
/// more slack than any complete one, so the bound does not apply to it),
/// and records the slackness metrics.
void gate_slackness(RunState& st, const SystemModel& model, const Heuristics& h, const Bound& b) {
  std::vector<Gate::Claim> claims;
  for (const auto& [who, r] : named_results(h)) {
    if (r->allocation.num_deployed() == model.num_strings()) {
      claims.push_back({who, r->fitness.slackness});
    } else {
      ++st.partial_mappings;
    }
  }
  st.gate.bound("slackness LP", b.status, b.value, claims);
  st.samples["psg_slackness"].push_back(h.psg.best.fitness.slackness);
  for (const TrialFold& f : h.seeded) {
    st.samples["seeded_psg_slackness"].push_back(f.best.fitness.slackness);
  }
  st.samples["ub_slackness"].push_back(b.value);
}

SystemModel generate(const Shape& shape, Rng rng) {
  auto config = tsce::workload::GeneratorConfig::for_scenario(shape.scenario);
  config.num_machines = shape.machines;
  config.num_strings = shape.strings;
  return tsce::workload::generate(config, rng);
}

const SystemModel* keep(RunState& st, std::optional<SystemModel>& model) {
  if (!model) return nullptr;
  st.models.push_back(std::move(*model));
  return &st.models.back();
}

void run_instance(RunState& st, std::size_t instance) {
  const WorkloadSpec& spec = *st.spec;
  const std::uint64_t seed = st.options->seed;

  // Set-up: generating the instance and its bundled ones, repeated; the
  // median is setup_s.
  std::optional<SystemModel> primary, slack, bound;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pin_next(st);
    Span span(st.rec, "workload.generate");
    const std::uint64_t t0 = now_ns();
    primary = generate(spec.primary, stream(kInstanceFamily, instance, kPrimaryModel));
    if (spec.slack) slack = generate(*spec.slack, stream(kInstanceFamily, instance, kSlackModel));
    if (spec.bound) bound = generate(*spec.bound, stream(kInstanceFamily, instance, kBoundModel));
    st.samples["setup_s"].push_back(seconds_since(t0));
  }
  const SystemModel& model = *keep(st, primary);
  const SystemModel* slack_model = keep(st, slack);
  const SystemModel* bound_model = keep(st, bound);
  // The worth LP runs on the bound instance; without one, the primary
  // instance is a complete mapping and its slackness LP runs.
  const SystemModel& lp_model = bound_model != nullptr ? *bound_model : model;
  const bool complete = bound_model == nullptr;

  Heuristics h;
  run_ordered(st, model, h);
  Heuristics lp_h;  // MWF and TF on the bound instance, for its gate
  if (bound_model != nullptr) run_ordered(st, *bound_model, lp_h);

  // Rounds interleave the searches, tempering and the LP, so a slow stretch
  // of the host lands on a few samples of every timing metric rather than
  // on all samples of one.
  tsce::core::AnnealingOptions temper_options = spec.temper;
  temper_options.threads = std::min(temper_options.threads, st.options->threads);
  Rng psg_rng = stream(seed, instance, kPsg);
  std::vector<Rng> seeded_rngs;
  for (std::size_t a = 0; a < spec.seeded_allocations; ++a) {
    seeded_rngs.push_back(stream(seed, instance, kSeeded, a));
  }
  h.seeded.resize(seeded_rngs.size());
  std::vector<Bound> bounds;
  const std::size_t rounds = std::max<std::size_t>(1, spec.psg.trials);
  for (std::size_t r = 0; r < rounds; ++r) {
    search_trial(st, model, psg_rng, false, h.psg);
    for (std::size_t a = 0; a < seeded_rngs.size(); ++a) {
      search_trial(st, model, seeded_rngs[a], true, h.seeded[a]);
    }
    if (r < spec.tempers) {
      Span span(st.rec, "core.local_search.temper");
      st.cpus.release();
      Rng rng = stream(seed, instance, kTemper, r);
      const std::uint64_t t0 = now_ns();
      h.tempers.push_back(tsce::core::SimulatedAnnealing(temper_options).allocate(model, rng));
      const double temper_s = seconds_since(t0);
      st.samples["temper_s"].push_back(temper_s);
      if (instance == 0 && r == 0) {
        st.first_temper = h.tempers.back();
        st.first_temper_s = temper_s;
      }
    }
    if (r < spec.bound_solves) {
      pin_next(st);
      bounds.push_back(solve_bound(lp_model, complete, st.rec));
    }
  }
  gate_heuristics(st, model, h);
  if (instance == 0) {
    st.first_psg = h.psg.best;
    st.first_psg_s = std::accumulate(h.psg.trial_s.begin(), h.psg.trial_s.end(), 0.0);
  }

  // GENITOR stops each trial on stagnation, so the evaluation count (and
  // with it the raw allocation time) swings with the search path; psg_s is
  // the time of an allocation at the nominal evaluation count, from the
  // run's total search time and evaluations.
  const auto record_search = [&](const std::string& name, const TrialFold& fold) {
    const double wall_s = std::accumulate(fold.trial_s.begin(), fold.trial_s.end(), 0.0);
    for (std::size_t i = 0; i < fold.trials; ++i) {
      const auto evaluations =
          static_cast<double>(std::max<std::size_t>(1, fold.trial_evaluations[i]));
      st.samples[name + "_trial_s"].push_back(fold.trial_s[i] * kNominalEvaluations /
                                              evaluations);
    }
    st.search_s[name] += wall_s;
    st.search_evaluations[name] += fold.evaluations;
    st.samples[name + "_wall_s"].push_back(wall_s);
    st.samples[name + "_evaluations"].push_back(static_cast<double>(fold.evaluations));
    st.samples[name + "_worth"].push_back(fold.best.fitness.total_worth);
  };
  record_search("psg", h.psg);
  for (const TrialFold& f : h.seeded) record_search("seeded_psg", f);
  for (const AllocatorResult& r : h.tempers) {
    st.samples["temper_worth"].push_back(r.fitness.total_worth);
  }

  if (complete) {
    // ub_worth is the total worth available, a fixed reference of the
    // instance (the feasible slackness LP proves every string deployable),
    // so it is reported but not gated.
    for (const Bound& b : bounds) {
      gate_slackness(st, model, h, b);
      st.samples["ub_s"].push_back(b.seconds);
      st.samples["ub_worth"].push_back(static_cast<double>(model.total_worth_available()));
    }
  } else {
    gate_heuristics(st, lp_model, lp_h);
    std::vector<Gate::Claim> claims;
    for (const auto& [who, r] : named_results(lp_h)) {
      claims.push_back({who, static_cast<double>(r->fitness.total_worth)});
    }
    for (const Bound& b : bounds) {
      st.gate.bound("worth LP", b.status, b.value, claims);
      st.samples["ub_s"].push_back(b.seconds);
      st.samples["ub_worth"].push_back(b.value);
    }
  }
  if (st.rec != nullptr) st.bounds.insert(st.bounds.end(), bounds.begin(), bounds.end());

  if (slack_model != nullptr) {
    Heuristics sh;
    run_ordered(st, *slack_model, sh);
    Rng psg = stream(seed, instance, kSlackPsg);
    Rng seeded = stream(seed, instance, kSlackSeeded);
    sh.seeded.resize(1);
    for (std::size_t r = 0; r < rounds; ++r) search_trial(st, *slack_model, psg, false, sh.psg);
    for (std::size_t r = 0; r < rounds; ++r) {
      search_trial(st, *slack_model, seeded, true, sh.seeded.front());
    }
    gate_heuristics(st, *slack_model, sh);
    pin_next(st);
    const Bound b = solve_bound(*slack_model, /*complete=*/true, st.rec);
    gate_slackness(st, *slack_model, sh, b);
    if (st.rec != nullptr) st.bounds.push_back(b);
  }
}

struct ReplayTotals {
  std::uint64_t imr_ns = 0;
  std::uint64_t imr_calls = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t commit_calls = 0;
  std::uint64_t accepted = 0;
};

/// Replays each recorded decode from scratch through the IMR and session
/// commit, timing the two apart; each must reproduce the recorded fitness.
ReplayTotals replay(RunState& st) {
  ReplayTotals totals;
  std::map<const SystemModel*, std::unique_ptr<tsce::analysis::AllocationSession>> sessions;
  tsce::analysis::SessionSnapshot empty;
  const SystemModel* empty_of = nullptr;
  tsce::core::ImrScratch scratch;
  std::vector<tsce::model::MachineId> assignment;
  for (const RecordedDecode& d : st.recorded) {
    Span span(st.rec, "core.decode.replay");
    auto& session = sessions[d.model];
    if (!session) session = std::make_unique<tsce::analysis::AllocationSession>(*d.model);
    if (empty_of != d.model) {
      // Sessions stay empty between replays, so the first use snapshots the
      // empty state of whichever model comes next.
      session->snapshot_into(empty);
      empty_of = d.model;
    }
    ReplayTotals one;
    for (const StringId k : d.order) {
      const std::uint64_t t0 = now_ns();
      tsce::core::imr_map_string_into(*d.model, session->util(), k, scratch, assignment);
      const std::uint64_t t1 = now_ns();
      const bool ok = session->try_commit(k, assignment);
      const std::uint64_t t2 = now_ns();
      one.imr_ns += t1 - t0;
      one.commit_ns += t2 - t1;
      ++one.imr_calls;
      ++one.commit_calls;
      if (!ok) break;
      ++one.accepted;
    }
    st.rec->add_aggregate("core.imr", one.imr_ns, one.imr_calls);
    st.rec->add_aggregate("analysis.session.commit", one.commit_ns, one.commit_calls);
    if (!(session->fitness() == d.fitness)) {
      throw TraceMismatch("replay of a recorded decode did not reproduce its fitness");
    }
    session->restore_from(empty);
    totals.imr_ns += one.imr_ns;
    totals.imr_calls += one.imr_calls;
    totals.commit_ns += one.commit_ns;
    totals.commit_calls += one.commit_calls;
    totals.accepted += one.accepted;
  }
  return totals;
}

double counter(const tsce::util::Json& snap, std::string_view name) {
  const auto& counters = snap.at("counters");
  return counters.contains(name) ? counters.at(name).as_number() : 0.0;
}

bool same_result(const AllocatorResult& a, const AllocatorResult& b) {
  return a.fitness == b.fitness && a.order == b.order && a.evaluations == b.evaluations;
}

std::string format_timing(const std::string& name, const std::vector<double>& v,
                          const char* unit) {
  // The highest percentile with at least ten samples beyond it.
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  char buf[200];
  int len = std::snprintf(buf, sizeof(buf), "%-22s median %.6g %s", name.c_str(),
                          median(v), unit);
  for (const double q : {0.999, 0.99, 0.9}) {
    const double beyond = static_cast<double>(sorted.size()) * (1.0 - q);
    if (beyond >= 10.0) {
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
      len += std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                           ", p%g %.6g %s", q * 100.0, sorted[idx], unit);
      break;
    }
  }
  std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len), " (n=%zu)",
                sorted.size());
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    using tsce::workload::Scenario;
    WorkloadSpec paper;
    paper.name = "paper_s1";
    paper.primary = {Scenario::kHighlyLoaded, 12, 150};
    paper.slack = Shape{Scenario::kLightlyLoaded, 12, 25};
    // The largest scenario-1 shape, at the paper's 12.5 strings per machine,
    // whose worth LP (~2 s) can be solved once per round: the 12 x 150 LP
    // takes ~20 s, so one run could time it only once.
    paper.bound = Shape{Scenario::kHighlyLoaded, 8, 100};
    paper.psg = paper_psg();
    paper.temper = paper_temper();
    paper.seeded_allocations = 2;
    paper.tempers = 4;
    paper.bound_solves = 4;
    paper.instance_s = 48.0;
    WorkloadSpec complete;
    complete.name = "complete_s3";
    complete.primary = {Scenario::kLightlyLoaded, 12, 25};
    complete.psg = paper_psg();
    complete.temper = paper_temper();
    complete.instance_s = 4.4;
    return std::vector<WorkloadSpec>{paper, complete};
  }();
  return all;
}

AllocatorResult psg_by_trials(const SystemModel& model, Rng& rng,
                              const tsce::core::PsgOptions& options, bool seeded) {
  TrialFold fold;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, options.trials); ++t) {
    fold.add(psg_trial(model, rng, options, seeded), 0.0);
  }
  return fold.best;
}

std::size_t instance_count(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(seconds / spec.instance_s)));
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec reduced(WorkloadSpec spec, std::size_t machines, std::size_t strings) {
  // Scenario-3 shapes keep the paper's complete-mapping density (25 strings
  // on 12 machines) so their slackness LP stays feasible.
  const auto shrink = [&](Shape& shape) {
    shape.machines = machines;
    shape.strings = shape.scenario == tsce::workload::Scenario::kLightlyLoaded
                        ? std::max<std::size_t>(1, (machines * 25 + 6) / 12)
                        : strings;
  };
  shrink(spec.primary);
  if (spec.slack) shrink(*spec.slack);
  if (spec.bound) shrink(*spec.bound);
  spec.psg.ga.population_size = 16;
  spec.psg.ga.max_iterations = 40;
  spec.psg.ga.stagnation_limit = 20;
  spec.psg.trials = 2;
  spec.temper.iterations = 400;
  return spec;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"psg_s", "s"},
      {"seeded_psg_s", "s"},
      {"temper_s", "s"},
      {"ub_s", "s"},
      {"decodes_per_s", "1/s"},
      {"psg_worth", "worth"},
      {"seeded_psg_worth", "worth"},
      {"temper_worth", "worth"},
      {"psg_slackness", "frac"},
      {"seeded_psg_slackness", "frac"},
      {"ub_worth", "worth"},
      {"ub_slackness", "frac"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"workload.generate_s", "s"},
      {"genitor.iterations", "count"},
      {"genitor.self_s", "s"},
      {"core.psg.crossover_s", "s"},
      {"core.psg.mutate_s", "s"},
      {"core.decode.calls", "count"},
      {"core.decode.s", "s"},
      {"core.decode.p50_us", "us"},
      {"core.decode.p99_us", "us"},
      {"core.decode.prefix_reuse_frac", "frac"},
      {"core.decode.commits_per_call", "count"},
      {"core.imr.calls", "count"},
      {"core.imr.s", "s"},
      {"analysis.session.commit.calls", "count"},
      {"analysis.session.commit_s", "s"},
      {"analysis.session.reject.utilization", "count"},
      {"analysis.session.reject.throughput", "count"},
      {"analysis.session.reject.latency", "count"},
      {"analysis.session.accept_frac", "frac"},
      {"core.local_search.temper_1t_s", "s"},
      {"core.local_search.temper_speedup", "x"},
      {"util.thread_pool.tasks", "count"},
      {"util.thread_pool.task_wait_s", "s"},
      {"util.thread_pool.task_run_s", "s"},
      {"lp.build_s", "s"},
      {"lp.solve_s", "s"},
      {"lp.iterations", "count"},
      {"lp.phase1_iterations", "count"},
      {"lp.refactorisations", "count"},
      {"lp.rows", "count"},
      {"lp.cols", "count"},
      {"lp.us_per_iteration", "us"},
      {"trace.unattributed_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"}};
  return names;
}

RunReport run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  SpanRecorder recorder;
  RunState st;
  st.spec = &spec;
  st.options = &options;
  // Traced runs first run PSG on instance 0 untraced, all trials in one
  // Psg::allocate call: the traced PSG, folded a trial at a time, must
  // reproduce it, and the two back to back give the tracing overhead.
  AllocatorResult reference;
  double reference_s = 0.0;
  if (options.trace) {
    const SystemModel model = generate(spec.primary, stream(kInstanceFamily, 0, kPrimaryModel));
    Rng rng = stream(options.seed, 0, kPsg);
    const std::uint64_t t0 = now_ns();
    reference = tsce::core::Psg(spec.psg).allocate(model, rng);
    reference_s = seconds_since(t0);
    st.rec = &recorder;
    // Quiescent here: no other thread touches the registry or the pool.
    tsce::obs::MetricsRegistry::instance().reset();
    tsce::util::ThreadPool::set_timing(true);
  }

  ReplayTotals replayed;
  tsce::util::Json snap;
  double temper_1t_s = 0.0;
  std::uint64_t root_ns = 0;
  {
    Span root(st.rec, "run");
    const std::size_t instances = instance_count(spec, options.seconds);
    while (report.instances < instances) run_instance(st, report.instances++);
    st.cpus.release();
    snap = tsce::obs::MetricsRegistry::instance().snapshot();
    if (options.trace) {
      replayed = replay(st);
      // Tempering at one thread must equal the parallel result.
      tsce::core::AnnealingOptions one = spec.temper;
      one.threads = 1;
      Span span(st.rec, "core.local_search.temper_1t");
      Rng rng = stream(options.seed, 0, kTemper);
      const std::uint64_t t0 = now_ns();
      const AllocatorResult r =
          tsce::core::SimulatedAnnealing(one).allocate(st.models.front(), rng);
      temper_1t_s = seconds_since(t0);
      if (!same_result(r, st.first_temper)) {
        throw TraceMismatch("tempering at 1 thread differs from the parallel result");
      }
    }
  }
  if (options.trace) root_ns = recorder.records().front().duration_ns;

  report.attempted = st.gate.attempted();
  report.failed = st.gate.failed();
  for (const std::string& f : st.gate.failures()) report.log.push_back("FAILED " + f);
  if (st.gate.inexact() > 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu allocation(s) matched the from-scratch slackness to %.3g, not bit "
                  "for bit",
                  st.gate.inexact(), st.gate.max_drift());
    report.log.emplace_back(buf);
  }
  if (st.partial_mappings > 0) {
    report.log.push_back(std::to_string(st.partial_mappings) +
                         " heuristic mapping(s) on complete-mapping instances left strings "
                         "unmapped; the slackness bound was not applied to them");
  }

  const auto n = static_cast<double>(report.instances);
  if (!options.trace) {
    for (const char* name : {"setup_s", "psg_trial_s", "seeded_psg_trial_s", "psg_wall_s",
                             "seeded_psg_wall_s", "temper_s", "ub_s"}) {
      report.log.push_back(format_timing(name, st.samples[name], "s"));
    }
    for (const char* name : {"psg_evaluations", "seeded_psg_evaluations"}) {
      report.log.push_back(format_timing(name, st.samples[name], ""));
    }
    const auto& dec = snap.at("histograms").at(tsce::obs::names::kDecodeLatencyNs);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-22s p50 %.1f us, p99 %.1f us, p99.9 %.1f us (n=%.0f)",
                  "decode latency", dec.at("p50").as_number() / 1e3,
                  dec.at("p99").as_number() / 1e3, dec.at("p999").as_number() / 1e3,
                  dec.at("count").as_number());
    report.log.emplace_back(buf);

    std::map<std::string, double> value;
    for (const auto& [name, v] : st.samples) value[name] = median(v);
    double ga_s = 0.0;
    double ga_evaluations = 0.0;
    for (const auto& [name, seconds] : st.search_s) {
      const auto evaluations = static_cast<double>(st.search_evaluations[name]);
      value[name + "_s"] = seconds * kNominalEvaluations / evaluations;
      ga_s += seconds;
      ga_evaluations += evaluations;
    }
    value["decodes_per_s"] = ga_evaluations / ga_s;
    value["peak_rss_mb"] = peak_rss_mb();
    value["ok_frac"] = 1.0 - static_cast<double>(report.failed) /
                                 static_cast<double>(std::max<std::size_t>(1, report.attempted));
    for (const auto& [name, unit] : end_to_end_metrics()) {
      report.metrics.push_back({name, value.at(name), unit});
    }
    return report;
  }

  if (!same_result(reference, st.first_psg)) {
    throw TraceMismatch("PSG over the traced problem, a trial at a time, differs from "
                        "Psg::allocate");
  }

  const auto layers = recorder.layers();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? SpanRecorder::LayerTotals{} : it->second;
  };
  std::uint64_t named_ns = 0;
  for (const auto& [name, t] : layers) {
    if (name != "run") named_ns += t.self_ns;
  }
  const double unattributed =
      1.0 - static_cast<double>(named_ns) / static_cast<double>(std::max<std::uint64_t>(1, root_ns));
  if (unattributed > kMaxUnattributed) {
    throw TraceMismatch("named spans cover less than 95% of the traced wall time");
  }

  std::map<std::string, double> value;
  const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  value["workload.generate_s"] = median(st.samples["setup_s"]);
  value["genitor.iterations"] = static_cast<double>(st.ga_iterations) / n;
  value["genitor.self_s"] = s(layer("genitor").self_ns) / n;
  value["core.psg.crossover_s"] = s(layer("core.psg.crossover").total_ns) / n;
  value["core.psg.mutate_s"] = s(layer("core.psg.mutate").total_ns) / n;

  const auto& dec = snap.at("histograms").at(tsce::obs::names::kDecodeLatencyNs);
  const double calls = counter(snap, tsce::obs::names::kDecodeCalls);
  const double commits = counter(snap, tsce::obs::names::kDecodeCommitsAttempted);
  const double reused = counter(snap, tsce::obs::names::kDecodeStringsReused);
  value["core.decode.calls"] = calls / n;
  value["core.decode.s"] = dec.at("sum").as_number() * 1e-9 / n;
  value["core.decode.p50_us"] = dec.at("p50").as_number() / 1e3;
  value["core.decode.p99_us"] = dec.at("p99").as_number() / 1e3;
  value["core.decode.prefix_reuse_frac"] = reused / std::max(1.0, reused + commits);
  value["core.decode.commits_per_call"] = commits / std::max(1.0, calls);

  value["core.imr.calls"] = static_cast<double>(replayed.imr_calls) / n;
  value["core.imr.s"] = s(replayed.imr_ns) / n;
  value["analysis.session.commit.calls"] = static_cast<double>(replayed.commit_calls) / n;
  value["analysis.session.commit_s"] = s(replayed.commit_ns) / n;
  value["analysis.session.reject.utilization"] =
      counter(snap, tsce::obs::names::kSessionRejectUtilization) / n;
  value["analysis.session.reject.throughput"] =
      counter(snap, tsce::obs::names::kSessionRejectThroughput) / n;
  value["analysis.session.reject.latency"] =
      counter(snap, tsce::obs::names::kSessionRejectLatency) / n;
  value["analysis.session.accept_frac"] =
      static_cast<double>(replayed.accepted) /
      static_cast<double>(std::max<std::uint64_t>(1, replayed.commit_calls));

  const auto& pool = tsce::util::ThreadPool::global_stats();
  value["core.local_search.temper_1t_s"] = temper_1t_s;
  value["core.local_search.temper_speedup"] = temper_1t_s / st.first_temper_s;
  value["util.thread_pool.tasks"] = static_cast<double>(pool.tasks.load()) / n;
  value["util.thread_pool.task_wait_s"] = s(pool.wait_ns_total.load()) / n;
  value["util.thread_pool.task_run_s"] = s(pool.run_ns_total.load()) / n;

  double build_s = 0.0, solve_s = 0.0, iterations = 0.0, phase1 = 0.0, refactor = 0.0;
  std::size_t rows = 0, cols = 0;
  for (const Bound& b : st.bounds) {
    build_s += b.build_s;
    solve_s += b.solve_s;
    iterations += static_cast<double>(b.iterations);
    phase1 += static_cast<double>(b.phase1_iterations);
    refactor += static_cast<double>(b.refactorisations);
    if (b.cols > cols) {
      rows = b.rows;
      cols = b.cols;
    }
  }
  value["lp.build_s"] = build_s / n;
  value["lp.solve_s"] = solve_s / n;
  value["lp.iterations"] = iterations / n;
  value["lp.phase1_iterations"] = phase1 / n;
  value["lp.refactorisations"] = refactor / n;
  value["lp.rows"] = static_cast<double>(rows);
  value["lp.cols"] = static_cast<double>(cols);
  value["lp.us_per_iteration"] = solve_s * 1e6 / std::max(1.0, iterations);
  value["trace.unattributed_frac"] = unattributed;
  value["obs.trace_overhead_frac"] = st.first_psg_s / reference_s - 1.0;
  for (const auto& [name, unit] : per_layer_metrics()) {
    report.metrics.push_back({name, value.at(name), unit});
  }

  char buf[200];
  for (const auto& [name, t] : layers) {
    std::snprintf(buf, sizeof(buf), "span %-34s self %9.4f s  total %9.4f s  calls %llu",
                  name.c_str(), s(t.self_ns), s(t.total_ns),
                  static_cast<unsigned long long>(t.count));
    report.log.emplace_back(buf);
  }
  if (!options.trace_out.empty()) {
    tsce::obs::RunInfo info = tsce::obs::RunInfo::current();
    info.seed = options.seed;
    info.threads = options.threads;
    info.set_param("workload", spec.name);
    tsce::util::Json header = tsce::util::Json::object();
    header.set("run_info", info.to_json());
    if (!recorder.write_jsonl(options.trace_out, header)) {
      report.log.push_back("could not write spans to " + options.trace_out);
    }
  }
  return report;
}

}  // namespace perfbench
