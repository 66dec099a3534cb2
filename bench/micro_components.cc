// Google-benchmark micro benchmarks for the performance-critical
// components, including the constraint-embedding claim of Sec. IV-C: by
// excluding infeasible vehicles *before* network inference, the Q-network
// forward pass scales with the feasible sub-fleet rather than the full
// fleet (BM_GraphQForward sweeps the sub-fleet size).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "core/dpdp.h"
#include "nn/gemm.h"

// ---------------------------------------------- allocation accounting ----

// Counts every global operator new so benchmarks can report
// allocs_per_op and the steady-state forward path can prove it performs
// zero heap allocations (the workspace-reuse acceptance bar).
//
// GCC pairs the replaced operator new with the free() inside the replaced
// delete after inlining and flags it as mismatched; the pair is in fact
// consistent (malloc/free), so the diagnostic is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<long long> g_alloc_count{0};
long long AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// Reports heap allocations per benchmark iteration measured across the
// timed loop (callers warm caches before entering the loop).
void ReportAllocs(benchmark::State& state, long long before) {
  const double iters =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  state.counters["allocs_per_op"] =
      static_cast<double>(AllocCount() - before) / iters;
}

dpdp::Instance MakeBenchInstance(int num_orders, int num_vehicles) {
  static dpdp::DpdpDataset* dataset = new dpdp::DpdpDataset(
      dpdp::StandardDatasetConfig(7, 620.0));
  return dataset->SampleInstance("bench", num_orders, num_vehicles, 0, 0,
                                 99);
}

// ----------------------------------------------------- route planner ----

void BM_BestInsertion(benchmark::State& state) {
  const int route_orders = static_cast<int>(state.range(0));
  const dpdp::Instance inst = MakeBenchInstance(route_orders + 1, 5);
  dpdp::RoutePlanner planner(&inst);
  const dpdp::PlanAnchor anchor{inst.vehicle_depots[0], 0.0, {}};

  // Build an existing route with `route_orders` orders.
  std::vector<dpdp::Stop> route;
  dpdp::Insertion insertion;
  for (int i = 0; i < route_orders; ++i) {
    if (planner.BestInsertion(anchor, route, inst.vehicle_depots[0],
                              inst.order(i), &insertion)) {
      route = insertion.suffix;
    }
  }
  const dpdp::Order& next = inst.order(route_orders);
  // allocs_per_op is the same at every route size when no candidate
  // allocates: only the winner is materialized, into the reused insertion.
  planner.BestInsertion(anchor, route, inst.vehicle_depots[0], next,
                        &insertion);  // Grow the insertion's buffers.
  const long long before = AllocCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.BestInsertion(
        anchor, route, inst.vehicle_depots[0], next, &insertion));
  }
  ReportAllocs(state, before);
  state.SetLabel(std::to_string(route.size()) + " stops");
}
BENCHMARK(BM_BestInsertion)->Arg(2)->Arg(6)->Arg(12)->Arg(20);

// ---------------------------------------------------- neighbor lists ----

// The DGN's k = 8 nearest-neighbor lists over a 150-vehicle sub-fleet.
// `sites` distinct positions: 17 is the Fig. 7 mix (idle vehicles share a
// depot, so the largest site holds ~40% of the rows), 150 makes every
// position distinct, AppendNeighbors' worst case.
void BM_AppendNeighbors(benchmark::State& state, int sites) {
  const int m = 150;
  dpdp::Rng rng(6);
  dpdp::nn::Matrix site(sites, 2);
  for (int s = 0; s < sites; ++s) {
    site(s, 0) = rng.Uniform(0, 8);
    site(s, 1) = rng.Uniform(0, 8);
  }
  dpdp::nn::Matrix pos(m, 2);
  for (int r = 0; r < m; ++r) {
    const int s = sites == m            ? r
                  : rng.Bernoulli(0.4) ? 0
                                       : rng.UniformInt(sites);
    pos(r, 0) = site(s, 0);
    pos(r, 1) = site(s, 1);
  }
  dpdp::nn::Neighbors neighbors;
  dpdp::AppendNeighbors(pos, 8, 0, &neighbors);  // Grow the lists.
  const long long before = AllocCount();
  for (auto _ : state) {
    neighbors.Clear();
    dpdp::AppendNeighbors(pos, 8, 0, &neighbors);
    benchmark::DoNotOptimize(neighbors.cols.data());
    benchmark::ClobberMemory();
  }
  ReportAllocs(state, before);
  state.SetLabel(std::to_string(sites) + " sites");
}
BENCHMARK_CAPTURE(BM_AppendNeighbors, colocated, 17);
BENCHMARK_CAPTURE(BM_AppendNeighbors, distinct, 150);

// --------------------------------------------------------- attention ----

void BM_AttentionForward(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  dpdp::Rng rng(1);
  dpdp::nn::MultiHeadSelfAttention attn(32, 2, &rng);
  dpdp::nn::Matrix x(fleet, 32);
  for (int r = 0; r < fleet; ++r) {
    for (int c = 0; c < 32; ++c) x(r, c) = rng.Normal();
  }
  dpdp::nn::Matrix pos(fleet, 2);
  for (int r = 0; r < fleet; ++r) {
    pos(r, 0) = rng.Uniform(0, 8);
    pos(r, 1) = rng.Uniform(0, 8);
  }
  dpdp::nn::Neighbors neighbors;
  dpdp::AppendNeighbors(pos, 8, 0, &neighbors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x, neighbors));
  }
}
BENCHMARK(BM_AttentionForward)->Arg(10)->Arg(50)->Arg(150);

void BM_AttentionBackward(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  dpdp::Rng rng(2);
  dpdp::nn::MultiHeadSelfAttention attn(32, 2, &rng);
  dpdp::nn::Matrix x(fleet, 32);
  dpdp::nn::Matrix dy(fleet, 32);
  for (int r = 0; r < fleet; ++r) {
    for (int c = 0; c < 32; ++c) {
      x(r, c) = rng.Normal();
      dy(r, c) = rng.Normal();
    }
  }
  dpdp::nn::Neighbors self_only;  // k = 0: every row attends to itself.
  dpdp::AppendNeighbors(dpdp::nn::Matrix(fleet, 2), 0, 0, &self_only);
  for (auto _ : state) {
    attn.Forward(x, self_only);
    attn.Backward(dy);
  }
}
BENCHMARK(BM_AttentionBackward)->Arg(10)->Arg(50);

// ------------------------------------------------------------- GEMM ----

// The packed register-tiled kernel behind every Linear/attention layer.
// items_per_second reports FLOP/s (2*n^3 per product); allocs_per_op must
// read 0 in steady state (pack buffer + output storage are reused).
void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dpdp::Rng rng(4);
  dpdp::nn::Matrix a(n, n);
  dpdp::nn::Matrix b(n, n);
  dpdp::nn::Matrix out(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(r, c) = rng.Normal();
      b(r, c) = rng.Normal();
    }
  }
  dpdp::nn::Workspace ws;
  dpdp::nn::Gemm(a, b, &out, &ws);  // Warm the pack buffer.
  const long long before = AllocCount();
  for (auto _ : state) {
    dpdp::nn::Gemm(a, b, &out, &ws);
    benchmark::DoNotOptimize(out(0, 0));
  }
  ReportAllocs(state, before);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(1024);

// The weight gradient dW += X^T * dY of Linear::Backward at the training
// shape: k = 1472 rows (a 32-item minibatch of 46-vehicle sub-fleets),
// m = the layer's input width, n = 32 outputs. Every dW product walks A
// down its columns. items_per_second reports FLOP/s (2*m*n*k);
// allocs_per_op must read 0.
void BM_GemmTransposedA(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = 1472;
  const int n = 32;
  dpdp::Rng rng(4);
  dpdp::nn::Matrix x(k, m);
  dpdp::nn::Matrix dy(k, n);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < m; ++c) x(r, c) = rng.Normal();
    for (int c = 0; c < n; ++c) dy(r, c) = rng.Normal();
  }
  dpdp::nn::Matrix dw(m, n);
  dpdp::nn::Workspace ws;
  // Warm the pack buffer.
  dpdp::nn::GemmTransposedA(x, dy, &dw, &ws, /*accumulate=*/true);
  const long long before = AllocCount();
  for (auto _ : state) {
    dpdp::nn::GemmTransposedA(x, dy, &dw, &ws, /*accumulate=*/true);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  ReportAllocs(state, before);
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmTransposedA)->Arg(32)->Arg(96);

// The seed repo's zero-skip saxpy MatMul, preserved verbatim as the
// speedup reference for BM_Gemm (acceptance bar: >= 3x at n = 256).
dpdp::nn::Matrix NaiveMatMul(const dpdp::nn::Matrix& a,
                             const dpdp::nn::Matrix& b) {
  dpdp::nn::Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double av = a(i, k);
      if (av == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) out(i, j) += av * b(k, j);
    }
  }
  return out;
}

void BM_GemmNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dpdp::Rng rng(4);
  dpdp::nn::Matrix a(n, n);
  dpdp::nn::Matrix b(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(r, c) = rng.Normal();
      b(r, c) = rng.Normal();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(256);

// ------------------------------------- constraint embedding (Sec IV-C) ----

// A sub-fleet of `m` all-distinct rows: uniform features, uniform
// positions on an 8 km square.
void MakeSubFleetItem(dpdp::Rng* rng, int m, int num_neighbors,
                      dpdp::nn::Matrix* features,
                      dpdp::nn::Neighbors* neighbors) {
  *features = dpdp::nn::Matrix(m, dpdp::kStateFeatures);
  dpdp::nn::Matrix pos(m, 2);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < dpdp::kStateFeatures; ++c) {
      (*features)(r, c) = rng->Uniform();
    }
    pos(r, 0) = rng->Uniform(0, 8);
    pos(r, 1) = rng->Uniform(0, 8);
  }
  dpdp::AppendNeighbors(pos, num_neighbors, 0, neighbors);
}

// A sub-fleet of `m` rows in the Fig. 7 mix: each row idles at the depot
// (site 0) with probability 0.4, all idle rows sharing the feature row
// `idle`; the rest are distinct rows at 16 other sites.
void MakeColocatedItem(dpdp::Rng* rng, int m, int num_neighbors,
                       const double* idle, dpdp::nn::Matrix* features,
                       dpdp::nn::Neighbors* neighbors) {
  *features = dpdp::nn::Matrix(m, dpdp::kStateFeatures);
  dpdp::nn::Matrix pos(m, 2);
  dpdp::nn::Matrix site(17, 2);
  for (int s = 0; s < site.rows(); ++s) {
    site(s, 0) = rng->Uniform(0, 8);
    site(s, 1) = rng->Uniform(0, 8);
  }
  for (int r = 0; r < m; ++r) {
    const bool at_depot = rng->Bernoulli(0.4);
    for (int c = 0; c < dpdp::kStateFeatures; ++c) {
      (*features)(r, c) = at_depot ? idle[c] : rng->Uniform();
    }
    const int s = at_depot ? 0 : rng->UniformInt(1, site.rows() - 1);
    pos(r, 0) = site(s, 0);
    pos(r, 1) = site(s, 1);
  }
  dpdp::AppendNeighbors(pos, num_neighbors, 0, neighbors);
}

// Inference cost scales with the *feasible* sub-fleet: the route planner
// excludes infeasible vehicles before the network runs. Sweeping the
// sub-fleet size shows the savings vs always scoring all 150 vehicles.
// Every row is distinct there, so the forward runs every row; the
// `colocated` row is the Fig. 7 mix (~40% of 150 rows are identical idle
// vehicles at one depot, the rest distinct at 16 other sites), where
// EvaluateBatch runs one row per row class.
void BM_GraphQForward(benchmark::State& state, int feasible, bool colocated) {
  dpdp::Rng rng(3);
  dpdp::AgentConfig config = dpdp::MakeStDdgnConfig(1);
  dpdp::GraphQNetwork net(config, &rng);
  dpdp::nn::Matrix features;
  dpdp::nn::Neighbors neighbors;
  if (colocated) {
    double idle[dpdp::kStateFeatures];
    for (int c = 0; c < dpdp::kStateFeatures; ++c) idle[c] = 0.1 * c;
    MakeColocatedItem(&rng, feasible, config.num_neighbors, idle, &features,
                      &neighbors);
  } else {
    MakeSubFleetItem(&rng, feasible, config.num_neighbors, &features,
                     &neighbors);
  }
  dpdp::DecisionBatch batch;
  batch.Add(features, neighbors);
  net.EvaluateBatch(batch);  // Warm the activation caches.
  const long long before = AllocCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.EvaluateBatch(batch));
  }
  ReportAllocs(state, before);
  state.SetLabel(colocated ? "Fig. 7 mix of " + std::to_string(feasible) +
                                 " rows, ~40% idle at one depot"
                           : "feasible sub-fleet of " +
                                 std::to_string(feasible) +
                                 " (full fleet = 150)");
}
void BM_GraphQForward(benchmark::State& state) {
  BM_GraphQForward(state, static_cast<int>(state.range(0)), false);
}
BENCHMARK(BM_GraphQForward)->Arg(10)->Arg(30)->Arg(75)->Arg(150);
BENCHMARK_CAPTURE(BM_GraphQForward, colocated, 150, true);

// ------------------------------------------- batched Q evaluation API ----

// Builds `items` feasible sub-fleets as one DecisionBatch (per-row neighbor
// lists) and scores them in a single forward pass. Compare against
// BM_QForwardLooped, which walks the same items one one-item DecisionBatch
// at a time (the unbatched decision loop). allocs_per_op must read 0: the
// decision hot path reuses every buffer in steady state.
//
// The plain rows stack 30-row, all-distinct items. The `colocated` rows
// stack what the dispatch service loop serves at Fig. 7 scale: 133-row
// items in the Fig. 7 mix, whose idle row is drawn per item (an idle
// vehicle's d', xi, t and Delta d depend on the order), so items fold
// within themselves but not into each other.
void BM_EvaluateBatch(benchmark::State& state, bool colocated) {
  const int items = static_cast<int>(state.range(0));
  const int m = colocated ? 133 : 30;
  dpdp::Rng rng(5);
  dpdp::AgentConfig config = dpdp::MakeStDdgnConfig(1);
  dpdp::GraphQNetwork net(config, &rng);
  dpdp::DecisionBatch batch;
  for (int i = 0; i < items; ++i) {
    dpdp::nn::Matrix features;
    dpdp::nn::Neighbors neighbors;
    if (colocated) {
      const double idle[dpdp::kStateFeatures] = {
          0.0, rng.Uniform(), rng.Uniform(), 0.0, rng.Uniform(),
          rng.Uniform()};
      MakeColocatedItem(&rng, m, config.num_neighbors, idle, &features,
                        &neighbors);
    } else {
      MakeSubFleetItem(&rng, m, config.num_neighbors, &features, &neighbors);
    }
    batch.Add(features, neighbors);
  }
  net.EvaluateBatch(batch);  // Warm the activation caches.
  const long long before = AllocCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.EvaluateBatch(batch));
  }
  ReportAllocs(state, before);
  state.SetItemsProcessed(state.iterations() * items);
  state.SetLabel(std::to_string(items) + " decisions x " +
                 std::to_string(m) + " vehicles" +
                 (colocated ? ", Fig. 7 mix" : ""));
}
void BM_EvaluateBatch(benchmark::State& state) {
  BM_EvaluateBatch(state, false);
}
BENCHMARK(BM_EvaluateBatch)->Arg(1)->Arg(8)->Arg(32);
BENCHMARK_CAPTURE(BM_EvaluateBatch, colocated, true)->Arg(1)->Arg(6)->Arg(12);

// The unbatched decision loop: one one-item DecisionBatch evaluation per
// item, exactly like N independent agents each deciding alone.
void BM_QForwardLooped(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  const int m = 30;
  dpdp::Rng rng(5);
  dpdp::AgentConfig config = dpdp::MakeStDdgnConfig(1);
  dpdp::GraphQNetwork net(config, &rng);
  std::vector<dpdp::DecisionBatch> batches(items);
  for (int i = 0; i < items; ++i) {
    dpdp::nn::Matrix features;
    dpdp::nn::Neighbors neighbors;
    MakeSubFleetItem(&rng, m, config.num_neighbors, &features, &neighbors);
    batches[i].Add(features, neighbors);
  }
  net.EvaluateBatch(batches[0]);  // Warm the activation caches.
  const long long before = AllocCount();
  for (auto _ : state) {
    for (int i = 0; i < items; ++i) {
      benchmark::DoNotOptimize(net.EvaluateBatch(batches[i]));
    }
  }
  ReportAllocs(state, before);
  state.SetItemsProcessed(state.iterations() * items);
  state.SetLabel(std::to_string(items) + " decisions x " +
                 std::to_string(m) + " vehicles, one-item batches");
}
BENCHMARK(BM_QForwardLooped)->Arg(8)->Arg(32);

// ----------------------------------------------------------- ST score ----

void BM_StScore(benchmark::State& state) {
  const dpdp::Instance inst = MakeBenchInstance(8, 5);
  dpdp::RoutePlanner planner(&inst);
  const dpdp::PlanAnchor anchor{inst.vehicle_depots[0], 0.0, {}};
  std::vector<dpdp::Stop> route;
  dpdp::Insertion insertion;
  for (int i = 0; i < 8; ++i) {
    if (planner.BestInsertion(anchor, route, inst.vehicle_depots[0],
                              inst.order(i), &insertion)) {
      route = insertion.suffix;
    }
  }
  const auto sched =
      planner.CheckSuffix(anchor, route, inst.vehicle_depots[0]);
  const dpdp::nn::Matrix std_matrix(inst.network->num_factories(),
                                    inst.num_time_intervals, 1.0);
  // allocs_per_op must read 0: the vectors and distributions live in the
  // caller's scratch.
  dpdp::StScoreScratch scratch;
  auto score = [&] {
    return dpdp::ComputeStScore(*inst.network, route, sched.value(),
                                std_matrix, inst.num_time_intervals,
                                inst.horizon_minutes,
                                dpdp::DivergenceKind::kJensenShannon,
                                &scratch);
  };
  score();  // Grow the scratch.
  const long long before = AllocCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(score());
  }
  ReportAllocs(state, before);
}
BENCHMARK(BM_StScore);

// ------------------------------------------------- decision context ----

// One iteration is one Baseline-1 decision of a 620-order day with the ST
// score on: AdvanceToDecision builds the context (Algorithm 2 and the ST
// score for every vehicle of the fleet), Baseline 1 acts and the
// environment applies. allocs_per_op counts the allocations of the context
// build per decision once a warm-up day has grown every reused buffer; it
// must not grow with the fleet (range(0) vehicles).
void BM_BuildContext(benchmark::State& state) {
  const int vehicles = static_cast<int>(state.range(0));
  const dpdp::Instance inst = MakeBenchInstance(620, vehicles);
  dpdp::SimulatorConfig config;
  config.record_visits = false;
  config.predicted_std = dpdp::nn::Matrix(inst.network->num_factories(),
                                          inst.num_time_intervals, 1.0);
  dpdp::Environment env(&inst, config);
  dpdp::MinIncrementalLengthDispatcher baseline;
  dpdp::RunEpisode(&env, &baseline);  // Warm-up day.
  env.Reset();
  long long build_allocs = 0;
  auto advance = [&] {
    const long long before = AllocCount();
    const bool pending = env.AdvanceToDecision();
    build_allocs += AllocCount() - before;
    return pending;
  };
  for (auto _ : state) {
    if (!advance()) {
      env.Reset();
      advance();
    }
    benchmark::DoNotOptimize(env.Apply(baseline.Act(env.ObserveDecision())));
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(build_allocs) /
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.SetLabel(std::to_string(vehicles) + " vehicles");
}
BENCHMARK(BM_BuildContext)->Arg(50)->Arg(150);

// ------------------------------------------------------ episode loop ----

void BM_SimulatorEpisodeBaseline1(benchmark::State& state) {
  const int orders = static_cast<int>(state.range(0));
  const dpdp::Instance inst = MakeBenchInstance(orders, orders / 3 + 2);
  dpdp::SimulatorConfig config;
  config.record_visits = false;
  dpdp::Environment env(&inst, config);
  dpdp::MinIncrementalLengthDispatcher baseline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpdp::RunEpisode(&env, &baseline));
  }
  state.SetItemsProcessed(state.iterations() * orders);
}
BENCHMARK(BM_SimulatorEpisodeBaseline1)->Arg(30)->Arg(150)->Arg(600)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- parallel harness ----

// The tentpole speedup claim: RunDrlMethod's independent seed runs scale
// with the worker count while producing bit-identical summaries. Compare
// the Arg(1) row (serial pool) against Arg(4): on a 4+ core machine the
// 4-thread row should be >= 2.5x faster.
void BM_RunDrlMethodSeeds(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const dpdp::Instance inst = MakeBenchInstance(12, 5);
  const dpdp::nn::Matrix predicted(inst.network->num_factories(),
                                   inst.num_time_intervals, 1.0);
  dpdp::ThreadPool pool(threads);
  const int seeds = 4;
  const int episodes = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpdp::RunDrlMethod(inst, predicted, "DQN",
                                                episodes, seeds,
                                                /*seed_base=*/5, &pool));
  }
  state.SetLabel(std::to_string(threads) + " threads, " +
                 std::to_string(seeds) + " seeds");
  state.SetItemsProcessed(state.iterations() * seeds);
}
BENCHMARK(BM_RunDrlMethodSeeds)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Parallel minibatch gradient accumulation (DPDP_PARALLEL_BATCH): batch
// updates on worker-local network clones, reduced in transition order.
void BM_ParallelBatchUpdate(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const dpdp::Instance inst = MakeBenchInstance(30, 12);
  dpdp::ThreadPool pool(threads);
  dpdp::AgentConfig config = dpdp::MakeStDdgnConfig(11);
  config.parallel_batch = threads > 0;
  config.batch_pool = &pool;
  dpdp::DqnFleetAgent agent(config, "bench");
  dpdp::SimulatorConfig sim_config;
  sim_config.record_visits = false;
  dpdp::Environment env(&inst, sim_config);
  agent.set_training(true);
  // Fill the replay buffer; each episode's Learn runs the updates.
  dpdp::TrainOptions options;
  options.episodes = 2;
  dpdp::RunEpisodes(&env, &agent, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpdp::RunEpisode(&env, &agent));
  }
  state.SetLabel(threads > 0
                     ? std::to_string(threads) + " threads"
                     : "legacy serial path");
  benchmark::DoNotOptimize(agent.last_loss());
}
BENCHMARK(BM_ParallelBatchUpdate)->Arg(0)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- observability ----

// The acceptance bar for always-on instrumentation: with tracing off, a
// DPDP_TRACE_SPAN must compile down to one relaxed atomic load + branch
// (< 2 ns/op), so hot loops can stay instrumented unconditionally.
void BM_TraceSpanDisabled(benchmark::State& state) {
  dpdp::obs::SetTraceEnabled(false);
  for (auto _ : state) {
    DPDP_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  dpdp::obs::SetTraceEnabled(true);
  for (auto _ : state) {
    DPDP_TRACE_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  dpdp::obs::SetTraceEnabled(false);
  dpdp::obs::DiscardTrace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

// The same bar for the request-scoped tracing plumbing: with tracing off,
// allocating a context is one relaxed load returning the inactive {0, 0},
// and every downstream RecordHop on it is a single branch — a served
// request pays a handful of nanoseconds total for carrying the TraceContext
// through route/queue/eval/commit/reply in the default configuration.
void BM_NewTraceContextDisabled(benchmark::State& state) {
  dpdp::obs::SetTraceEnabled(false);
  for (auto _ : state) {
    dpdp::obs::TraceContext context = dpdp::obs::NewTraceContext();
    benchmark::DoNotOptimize(context);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewTraceContextDisabled);

void BM_RecordHopInactive(benchmark::State& state) {
  dpdp::obs::SetTraceEnabled(false);
  const dpdp::obs::TraceContext inactive;  // trace_id 0: every hop no-ops.
  for (auto _ : state) {
    dpdp::obs::TraceContext next = dpdp::obs::RecordHop(
        "bench.hop", inactive, 0, 0, dpdp::obs::FlowPhase::kStep);
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordHopInactive);

// Disarmed flight recording is one relaxed load + branch, so the fabric's
// crash/publish/breaker call sites stay unconditionally instrumented.
void BM_RecordFlightDisabled(benchmark::State& state) {
  dpdp::obs::SetFlightRecorderEnabled(false);
  for (auto _ : state) {
    dpdp::obs::RecordFlight(dpdp::obs::FlightEventKind::kCustom,
                            "bench.flight");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordFlightDisabled);

void BM_RecordFlightEnabled(benchmark::State& state) {
  dpdp::obs::SetFlightRecorderEnabled(true);
  uint64_t i = 0;
  for (auto _ : state) {
    dpdp::obs::RecordFlight(dpdp::obs::FlightEventKind::kCustom,
                            "bench.flight", -1, i++);
  }
  dpdp::obs::SetFlightRecorderEnabled(false);
  dpdp::obs::ResetFlightRecorder();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordFlightEnabled);

void BM_CounterAdd(benchmark::State& state) {
  dpdp::obs::Counter* counter =
      dpdp::obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Add();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  dpdp::obs::Histogram* histogram =
      dpdp::obs::MetricsRegistry::Global().GetHistogram(
          "bench.histogram_s", dpdp::obs::LatencyBucketsSeconds());
  double v = 1e-6;
  for (auto _ : state) {
    histogram->Record(v);
    v = v < 1.0 ? v * 2.0 : 1e-6;  // Sweep the buckets, not one hot slot.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// -------------------------------------------- machine-readable output ----

// Captures every finished run so the bench binary can emit BENCH_4.json
// (name -> ns/op, items/s, plus custom counters such as allocs_per_op)
// for CI trend tracking alongside the normal console table.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.ns_per_op = run.real_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, static_cast<double>(counter));
      }
      rows_.push_back(std::move(row));
    }
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    os << "{\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": "
         << r.ns_per_op;
      for (const auto& [name, value] : r.counters) {
        os << ", \"" << name << "\": " << value;
      }
      os << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Row {
    std::string name;
    double ns_per_op = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string json_path = dpdp::EnvStr("DPDP_BENCH_JSON", "BENCH_4.json");
  if (!reporter.WriteJson(json_path)) {
    DPDP_LOG(ERROR) << "cannot write benchmark JSON to " << json_path;
    return 1;
  }
  return 0;
}
