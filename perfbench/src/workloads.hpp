// The four workloads. Each repetition builds a fresh rig from its seed,
// measures one window, checks every output, and adds what it measured to an
// Accum under the keys main.cpp turns into metrics:
//
//   e2e.attempted / e2e.failed     ops tried, ops failed or wrong
//   e2e.lat_us (dist)              per-op simulated latency
//   e2e.ops / e2e.ops_sim_s        ops and simulated seconds for goodput
//   e2e.bytes / e2e.bytes_sim_s    payload bytes and simulated seconds
//   host: setup_s                  set-up host CPU seconds
//   host: cpu_us_per_op.<phase>    host CPU per op of each chunk of ops
//   cpu_ops.<phase>                ops the chunks of a phase covered
//   w.*                            counter differences over the window
//   w.ops                          ops completed in the window
//   idle.events / idle.sim_us      the polling floor after the window
#pragma once

#include "serving.hpp"

namespace pb {

void fabric_msg_rep(const RepCtx& ctx, Accum& acc);
void kv_zipf_read_rep(const RepCtx& ctx, Accum& acc);
void store_rmw_torus_rep(const RepCtx& ctx, Accum& acc);
void kv_rebalance_rep(const RepCtx& ctx, Accum& acc);

/// kv_zipf_read's rig under a search over offered rate: the highest rate
/// with p99 <= 20 us, no failures and completions keeping pace with
/// arrivals, into capacity.krps.
void kv_capacity_search(const RepCtx& ctx, Accum& acc);

/// Shared tail of every serving workload: after the load has drained, let
/// the rig idle and count the engine events it still burns.
tcc::sim::Task<void> measure_idle_floor(tcc::cluster::TcCluster& cl, Accum& acc);

}  // namespace pb
