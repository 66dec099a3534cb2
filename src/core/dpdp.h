#ifndef DPDP_CORE_DPDP_H_
#define DPDP_CORE_DPDP_H_

/// \file
/// Umbrella header: the public API of the DPDP / ST-DDGN library.
///
/// Quickstart (see examples/quickstart.cc for a runnable version):
///
///   dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(7, 150.0));
///   dpdp::Instance inst =
///       dataset.SampleInstance("demo", 150, 50, 0, 9, 42);
///   dpdp::AverageStdPredictor predictor;
///   dpdp::nn::Matrix std_pred =
///       predictor.Predict(dataset.History(10, 4)).value();
///   dpdp::DrlOutcome out =
///       dpdp::TrainEvalOnInstance(inst, std_pred, "ST-DDGN", 1, 80);
///
/// Layering (each header is independently includable):
///   util/    Status / Result, RNG, stats, tables, thread pool
///   nn/      matrices, layers, attention, optimizers
///   net/     the campus road network
///   model/   orders, vehicles, instances
///   routing/ the insertion route planner (Algorithm 2)
///   stpred/  STD matrices, demand prediction, ST Score
///   datagen/ synthetic campus + order-stream generation
///   obs/     metrics registry + Chrome-trace span tracer
///   sim/     the dispatching simulator (Algorithm 1)
///   baselines/ greedy dispatch heuristics (Baselines 1-3)
///   rl/      DQN/DDQN/AC/DGN/ST-DDGN agents (Algorithm 3)
///   scenario/ config-driven scenario DSL (demand / travel / fleet /
///            topology layers, pure functions of (config, seed))
///   exact/   branch-and-bound optimal PDP solver
///   serve/   online dispatch fabric (micro-batching, sharding, hot-swap,
///            shedding, deadlines, chaos + supervised failover)
///   train/   Ape-X actor-learner training fabric (actors decide through
///            the serving path, sharded replay, hot-swapped learner)
///   exp/     experiment harness shared by the bench binaries

#include "baselines/greedy_baselines.h"
#include "datagen/campus.h"
#include "datagen/dataset.h"
#include "datagen/demand_model.h"
#include "datagen/order_gen.h"
#include "exact/bnb_solver.h"
#include "exp/harness.h"
#include "exp/scenario_matrix.h"
#include "model/instance.h"
#include "model/instance_io.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "net/road_network.h"
#include "nn/matrix.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rl/actor_critic.h"
#include "rl/checkpoint.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/trainer.h"
#include "routing/local_search.h"
#include "routing/route_planner.h"
#include "scenario/scenario.h"
#include "serve/chaos.h"
#include "serve/circuit_breaker.h"
#include "serve/dispatch_service.h"
#include "serve/load_generator.h"
#include "serve/model_server.h"
#include "serve/service_dispatcher.h"
#include "serve/shard_router.h"
#include "serve/shard_supervisor.h"
#include "sim/dispatcher.h"
#include "sim/environment.h"
#include "stpred/divergence.h"
#include "stpred/predictor.h"
#include "stpred/st_score.h"
#include "stpred/std_matrix.h"
#include "train/actor.h"
#include "train/apex.h"
#include "train/learner.h"
#include "util/env.h"
#include "util/log.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#endif  // DPDP_CORE_DPDP_H_
